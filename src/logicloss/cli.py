"""Command line front end: evaluate formulas, train, sweep, print tables.

Exit codes: 0 success, 1 usage error (bad flags, names, or formula text),
2 runtime error (diverged training, I/O).
"""

import argparse
import dataclasses
import math
import sys

from logicloss.constraints import builtin_tables, make_parse_context, synthetic_tables
from logicloss.experiment import (
    CONSTRAINT_NAMES,
    LAMBDA_GRID,
    ExperimentConfig,
    error_message,
    lambda_sweep,
    load_config,
    report_lines,
    run,
    select_result,
    write_report,
)
from logicloss.formula import Env, ParseContext, ParseError, eval_crisp, parse
from logicloss.logics import BACKEND_NAMES, loss_function, make_backend
from logicloss.network import TrainingDiverged


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _floats(text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"expected comma-separated numbers, got {text!r}")


def _vector(text):
    # an ArgumentTypeError reaches the user prefixed by the flag's name
    values = _floats(text)
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"every entry must be finite, got {text!r}")
    return values


def _hidden(text):
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated layer sizes, got {text!r}")


def _add_backend_options(p):
    p.add_argument("--eps", type=float, default=0.05, help="comparison scale slack")
    p.add_argument("--xi", type=float, default=1.0, help="strict-inequality penalty")
    p.add_argument("--yager-p", type=float, default=2.0)
    p.add_argument("--sigmoidal-s", type=float, default=9.0)


def _add_train_options(p):
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--logic", choices=BACKEND_NAMES, dest="backend")
    p.add_argument("--constraint", choices=CONSTRAINT_NAMES)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--dataset", help="synthetic | idx:<images>,<labels>")
    p.add_argument("--eps-group", type=float)
    p.add_argument("--xi", type=float)
    p.add_argument("--yager-p", type=float)
    p.add_argument("--sigmoidal-s", type=float)
    p.add_argument("--lipschitz-l", type=float)
    p.add_argument("--tables", help="auto | synthetic | fmnist | cifar10 | gtsrb")
    p.add_argument("--n-classes", type=int)
    p.add_argument("--n-train", type=int)
    p.add_argument("--n-test", type=int)
    p.add_argument("--dims", type=int)
    p.add_argument("--noise-frac", type=float)
    p.add_argument("--hidden", type=_hidden)
    p.add_argument("--report", help="write the CSV here instead of stdout")


def _build_parser():
    parser = _ArgumentParser(
        prog="logicloss",
        description="Train classifiers against logical constraints compiled "
        "to differentiable losses.",
        epilog="backends: " + ", ".join(BACKEND_NAMES),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a formula under one binding")
    ev.add_argument("--logic", choices=BACKEND_NAMES, required=True)
    ev.add_argument("--formula", required=True)
    ev.add_argument("--out", required=True, type=_vector, help="output vector")
    ev.add_argument("--in", dest="inputs", type=_vector, help="input vector")
    ev.add_argument("--out2", type=_vector, help="second output vector")
    ev.add_argument("--in2", dest="inputs2", type=_vector, help="second input vector")
    _add_backend_options(ev)

    tr = sub.add_parser("train", help="one training run, CSV report")
    _add_train_options(tr)
    # a sweep takes its lambdas from --sweep alone
    tr.add_argument("--lambda", dest="lam", type=float)

    sw = sub.add_parser("sweep", help="one run per lambda value")
    _add_train_options(sw)
    sw.add_argument(
        "--sweep",
        type=_floats,
        default=list(LAMBDA_GRID),
        help="comma list of lambda values (default: the 15-value grid)",
    )
    sw.add_argument("--jobs", type=int, default=1)
    sw.add_argument("--select", choices=("product", "sum"), default="product")

    tb = sub.add_parser("tables", help="print built-in label/group tables")
    tb.add_argument(
        "--dataset",
        choices=("synthetic", "fmnist", "cifar10", "gtsrb"),
        default="fmnist",
    )
    tb.add_argument("--n-classes", type=int, default=10)
    return parser


def _eval_command(args):
    n = len(args.out)
    if n >= 3:
        ctx = make_parse_context(synthetic_tables(n), consts={"eps": args.eps})
    else:
        ctx = ParseContext(n_classes=n, consts={"eps": args.eps})
    f = parse(args.formula, ctx)
    backend = make_backend(
        args.logic,
        eps=args.eps,
        xi=args.xi,
        yager_p=args.yager_p,
        sigmoidal_s=args.sigmoidal_s,
    )
    env = Env(
        outputs=args.out,
        inputs=args.inputs or (),
        outputs2=args.out2 or (),
        inputs2=args.inputs2 or (),
    )
    loss = loss_function(f, backend)(env)
    print(f"crisp: {'true' if eval_crisp(f, env) else 'false'}")
    if backend.impl is not None:
        print(f"truth: {1.0 - loss:.6g}")
    print(f"loss: {loss:.6g}")
    return 0


def _merged_config(args):
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for field in dataclasses.fields(ExperimentConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            overrides[field.name] = value
    return dataclasses.replace(cfg, **overrides)


def _train_command(args):
    cfg = _merged_config(args)
    reports = run(cfg)
    if args.report:
        write_report(reports, args.report)
        p, c = select_result(reports)
        print(f"wrote {args.report}")
        print(f"lambda={_plain(cfg.lam)} P={_plain(p)} C={_plain(c)}")
    else:
        sys.stdout.write(report_lines(reports))
    return 0


def _plain(x):
    return format(float(x), ".6g")


def _sweep_command(args):
    cfg = _merged_config(args)
    rows, best = lambda_sweep(cfg, grid=args.sweep, jobs=args.jobs, key=args.select)
    lines = ["Lambda,P,C"]
    lines += [f"{_plain(lam)},{_plain(p)},{_plain(c)}" for lam, p, c in rows]
    text = "\n".join(lines) + "\n"
    if args.report:
        with open(args.report, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {args.report}")
    else:
        sys.stdout.write(text)
    print(f"best lambda: {_plain(best)}")
    return 0


def _tables_command(args):
    if args.dataset == "synthetic":
        tables = synthetic_tables(args.n_classes)
    else:
        tables = builtin_tables(args.dataset)
    print(f"dataset: {tables.dataset} ({tables.n_classes} classes)")
    print("label triples (out[l1] plausible -> out[l2] >= out[l3]):")
    for t in tables.triples:
        print(
            f"  {t.l1} {tables.class_name(t.l1)} -> "
            f"{t.l2} {tables.class_name(t.l2)} >= {t.l3} {tables.class_name(t.l3)}"
        )
    print("groups:")
    for g in tables.groups:
        print(f"  {g.name}: {' '.join(str(i) for i in g.members)}")
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {error_message(exc)}", file=sys.stderr)
        return 1
    try:
        if args.command == "eval":
            return _eval_command(args)
        if args.command == "train":
            return _train_command(args)
        if args.command == "sweep":
            return _sweep_command(args)
        return _tables_command(args)
    except UsageError as exc:
        print(f"error: {error_message(exc)}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"error: {error_message(exc)}", file=sys.stderr)
        return 1
    except (TrainingDiverged, OSError) as exc:
        print(f"error: {error_message(exc)}", file=sys.stderr)
        return 2
    except (ValueError, LookupError) as exc:
        print(f"error: {error_message(exc)}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
