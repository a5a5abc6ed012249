"""Logical constraints as differentiable losses, and a harness to train under them."""

from logicloss.autodiff import DomainError, Node, grad, var
from logicloss.constraints import (
    builtin_tables,
    csim_formula,
    group_formula,
    lipschitz_formula,
    load_groups,
    load_triples,
    make_parse_context,
    synthetic_tables,
)
from logicloss.data import Dataset, gen_synthetic, load_idx
from logicloss.experiment import (
    LAMBDA_GRID,
    EpochReport,
    ExperimentConfig,
    lambda_sweep,
    load_config,
    report_lines,
    run,
    select_result,
    write_report,
)
from logicloss.formula import Env, eval_crisp, parse, push_negations, to_text
from logicloss.logics import (
    BACKEND_NAMES,
    LogicBackend,
    loss_function,
    make_backend,
    truth_function,
)
from logicloss.network import (
    Model,
    Optimizer,
    forward_batch,
    init_model,
    train_step,
)

__all__ = [
    "BACKEND_NAMES",
    "Dataset",
    "DomainError",
    "Env",
    "EpochReport",
    "ExperimentConfig",
    "LAMBDA_GRID",
    "LogicBackend",
    "Model",
    "Node",
    "Optimizer",
    "builtin_tables",
    "csim_formula",
    "eval_crisp",
    "forward_batch",
    "gen_synthetic",
    "grad",
    "group_formula",
    "init_model",
    "lambda_sweep",
    "lipschitz_formula",
    "load_config",
    "load_groups",
    "load_idx",
    "load_triples",
    "loss_function",
    "make_backend",
    "make_parse_context",
    "parse",
    "push_negations",
    "report_lines",
    "run",
    "select_result",
    "synthetic_tables",
    "to_text",
    "train_step",
    "truth_function",
    "var",
    "write_report",
]
