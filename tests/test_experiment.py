import numpy as np
import pytest

from logicloss.constraints import synthetic_tables
from logicloss.data import gen_synthetic
from logicloss.experiment import (
    CONSTRAINT_NAMES,
    LAMBDA_GRID,
    REPORT_HEADER,
    EpochReport,
    ExperimentConfig,
    _fmt,
    _training_backend,
    build_constraint,
    constraint_accuracy,
    lambda_sweep,
    load_config,
    prediction_accuracy,
    report_lines,
    run,
    select_result,
    write_report,
)
from logicloss.formula import BigAnd, Cmp, Const, Output, parse
from logicloss.network import Model, TrainingDiverged, init_model

TINY = ExperimentConfig(
    backend="rc",
    constraint="csim",
    lam=0.0,
    epochs=3,
    batch_size=64,
    seed=5,
    lr=0.05,
    n_classes=5,
    n_train=200,
    n_test=100,
    dims=6,
    noise_frac=0.1,
    hidden=(8,),
)


def test_lambda_grid_values():
    assert LAMBDA_GRID == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
    assert len(LAMBDA_GRID) == 15


def test_config_validation():
    with pytest.raises(ValueError, match="epochs"):
        ExperimentConfig(epochs=0)
    with pytest.raises(ValueError, match="non-negative"):
        ExperimentConfig(lam=-0.1)


@pytest.mark.parametrize(
    "key,bad",
    [
        ("batch_size", 0),
        ("batch_size", -1),
        ("n_train", 0),
        ("n_test", 0),
        ("n_classes", 0),
        ("dims", 0),
    ],
)
def test_config_rejects_sizes_below_one(key, bad):
    with pytest.raises(ValueError, match=f"{key} must be >= 1"):
        ExperimentConfig(**{key: bad})


@pytest.mark.parametrize("hidden", [(0,), (8, 0), (-3,)])
def test_config_rejects_hidden_widths_below_one(hidden):
    with pytest.raises(ValueError, match="hidden widths must be >= 1"):
        ExperimentConfig(hidden=hidden)


def test_run_keeps_the_error_type_and_adds_the_run_context(monkeypatch):
    import logicloss.experiment as experiment
    from logicloss.formula import ParseError

    raised = ParseError("bad", 3)

    def failing_step(*args):
        raise raised

    monkeypatch.setattr(experiment, "train_step", failing_step)
    with pytest.raises(ParseError) as info:
        run(TINY)
    assert info.value is raised
    assert info.value.args == ("bad (at position 3)",) and info.value.pos == 3
    assert info.value.__notes__ == ["backend=rc lambda=0.0 epoch=1"]
    assert info.traceback[-1].name == "failing_step"
    assert experiment.error_message(info.value) == (
        "backend=rc lambda=0.0 epoch=1: bad (at position 3)"
    )


def test_epoch_report_bounds():
    with pytest.raises(ValueError, match="percentages"):
        EpochReport(1, 0.5, 0.1, 101.0, 50.0)


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        """
# comment line
backend = gg
constraint = group
lambda = 0.8   # inline comment
epochs = 7
batch_size = 32
seed = 3
lr = 0.1
eps_group = 0.02
hidden = 16,8
"""
    )
    cfg = load_config(path)
    assert cfg.backend == "gg"
    assert cfg.constraint == "group"
    assert cfg.lam == 0.8
    assert cfg.epochs == 7
    assert cfg.batch_size == 32
    assert cfg.eps_group == 0.02
    assert cfg.hidden == (16, 8)
    # untouched keys keep defaults
    assert cfg.lr == 0.1 and cfg.n_train == 5000


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("epoks = 3\n")
    with pytest.raises(ValueError, match="unknown key 'epoks'"):
        load_config(path)
    path.write_text("just words\n")
    with pytest.raises(ValueError, match="key = value"):
        load_config(path)


def test_build_constraint_shapes():
    tables = synthetic_tables(5)
    csim = build_constraint(ExperimentConfig(constraint="csim", n_classes=5), tables)
    assert isinstance(csim, (Cmp,)) is False  # conjunction chain, not a bare atom
    group = build_constraint(ExperimentConfig(constraint="group", n_classes=5), tables)
    assert isinstance(group, BigAnd)
    lip = build_constraint(
        ExperimentConfig(constraint="lipschitz", lipschitz_l=2.5, n_classes=5), tables
    )
    assert lip.right.left == Const(2.5)
    with pytest.raises(ValueError, match="csim, group, lipschitz"):
        build_constraint(ExperimentConfig(constraint="nope", n_classes=5), tables)
    assert CONSTRAINT_NAMES == ("csim", "group", "lipschitz")


def test_training_backend_pins_study_operators():
    # godel's own conj is min and its disj is max; the study pins product
    # and probabilistic sum for csim/group runs respectively
    conj = _training_backend(
        ExperimentConfig(backend="godel", constraint="csim")
    ).conj
    assert conj(0.5, 0.5) == pytest.approx(0.25)
    disj = _training_backend(
        ExperimentConfig(backend="godel", constraint="group")
    ).disj
    assert disj(0.5, 0.5) == pytest.approx(0.75)
    lip = _training_backend(ExperimentConfig(backend="godel", constraint="lipschitz"))
    assert lip.conj(0.5, 0.5) == 0.5
    # dl2 keeps its additive forms everywhere
    dl2 = _training_backend(ExperimentConfig(backend="dl2", constraint="csim"))
    assert dl2.conj(1.0, 2.0) == 3.0


def _uniform_model(dims, n_classes):
    m = init_model([dims, n_classes], seed=0)
    for w in m.weights:
        w[:] = 0.0
    return m


def test_constraint_accuracy_bounds():
    train, _ = gen_synthetic(0, 40, 10, 5, 5, 0.0)
    m = _uniform_model(5, 5)
    ctx_free = Cmp(">=", Output(0), Const(0.0))
    assert constraint_accuracy(m, train, ctx_free) == 100.0
    impossible = Cmp(">", Output(0), Const(1.0))
    assert constraint_accuracy(m, train, impossible) == 0.0


def test_constraint_accuracy_uniform_csim():
    # ties satisfy >=, and the antecedent 1/n >= 1/n also holds
    tables = synthetic_tables(5)
    f = build_constraint(ExperimentConfig(constraint="csim", n_classes=5), tables)
    train, _ = gen_synthetic(1, 30, 10, 5, 5, 0.0)
    assert constraint_accuracy(_uniform_model(5, 5), train, f) == 100.0


def test_prediction_accuracy_linear_separation():
    m = Model((2, 2), [np.array([[4.0, 0.0], [0.0, 4.0]])], [np.zeros(2)])
    features = np.array([[3.0, 0.0], [0.0, 3.0], [2.0, 1.0], [1.0, 2.0]])
    labels = np.array([0, 1, 0, 1])
    from logicloss.data import Dataset

    assert prediction_accuracy(m, Dataset(features, labels, 2)) == 100.0


def test_run_shape_and_determinism():
    a = run(TINY)
    b = run(TINY)
    assert [r.epoch for r in a] == [1, 2, 3]
    assert report_lines(a) == report_lines(b)
    assert all(r.train_logic == 0.0 for r in a)


def test_lambda_zero_identical_across_backends():
    import dataclasses

    base = report_lines(run(TINY))
    for backend in ("dl2", "godel", "yg"):
        other = report_lines(run(dataclasses.replace(TINY, backend=backend)))
        assert other == base


def test_run_with_logic_smoke():
    import dataclasses

    cfg = dataclasses.replace(TINY, lam=1.0, epochs=5, noise_frac=0.0)
    reports = run(cfg)
    assert all(r.train_logic >= 0.0 for r in reports)
    assert reports[-1].train_logic <= reports[0].train_logic + 1e-6


def test_run_dl2_with_logic():
    import dataclasses

    cfg = dataclasses.replace(TINY, backend="dl2", lam=0.5, epochs=2)
    reports = run(cfg)
    assert len(reports) == 2
    assert all(r.train_logic >= 0.0 for r in reports)


def test_run_group_and_lipschitz_constraints():
    import dataclasses

    for name in ("group", "lipschitz"):
        cfg = dataclasses.replace(TINY, constraint=name, lam=0.3, epochs=2)
        reports = run(cfg)
        assert len(reports) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_divergence_is_tagged():
    import dataclasses

    cfg = dataclasses.replace(TINY, lr=1e150, epochs=5)
    with pytest.raises(TrainingDiverged, match="lambda=0"):
        run(cfg)


def _reports(pairs):
    return [EpochReport(i + 1, 0.0, 0.0, p, c) for i, (p, c) in enumerate(pairs)]


def test_select_result_max_product():
    reports = _reports([(80.0, 50.0), (70.0, 60.0)])
    assert select_result(reports) == (70.0, 60.0)


def test_select_result_tie_goes_to_later_epoch():
    reports = _reports([(80.0, 30.0), (60.0, 40.0)])  # both 2400
    assert select_result(reports) == (60.0, 40.0)


def test_select_result_window():
    pairs = [(99.0, 99.0)] + [(10.0, 10.0)] * 10
    assert select_result(_reports(pairs)) == (10.0, 10.0)
    assert select_result(_reports(pairs), window=11) == (99.0, 99.0)
    assert select_result(_reports([(42.0, 7.0)])) == (42.0, 7.0)
    with pytest.raises(ValueError, match="no reports"):
        select_result([])


def test_select_result_sum_key():
    # product favors the balanced pair, sum the lopsided one
    reports = _reports([(90.0, 20.0), (50.0, 55.0)])
    assert select_result(reports, key="product") == (50.0, 55.0)
    assert select_result(reports, key="sum") == (90.0, 20.0)
    with pytest.raises(ValueError, match="product, sum"):
        select_result(reports, key="max")


def test_lambda_sweep_rows():
    import dataclasses

    cfg = dataclasses.replace(TINY, epochs=2, n_train=80, n_test=40)
    rows, best = lambda_sweep(cfg, grid=[0.0, 0.5], jobs=1)
    assert [lam for lam, _, _ in rows] == [0.0, 0.5]
    assert best in (0.0, 0.5)
    # duplicate grid entries give identical rows and the tie keeps the first
    rows2, best2 = lambda_sweep(cfg, grid=[0.5, 0.5], jobs=1)
    assert rows2[0][1:] == rows2[1][1:]
    assert best2 == 0.5
    with pytest.raises(ValueError, match="empty"):
        lambda_sweep(cfg, grid=[])


def test_lambda_sweep_parallel_matches_serial():
    import dataclasses

    cfg = dataclasses.replace(TINY, epochs=2, n_train=80, n_test=40)
    serial = lambda_sweep(cfg, grid=[0.0, 0.4], jobs=1)
    parallel = lambda_sweep(cfg, grid=[0.0, 0.4], jobs=2)
    assert serial == parallel


def test_fmt_is_plain_decimal():
    assert _fmt(77.55) == "77.55"
    assert _fmt(1.0) == "1"
    assert _fmt(1 / 3) == "0.333333333333"


def test_report_lines_and_write(tmp_path):
    reports = _reports([(77.55, 50.0), (70.0, 60.25)])
    reports[0].train_ce = 0.5
    reports[0].train_logic = 0.125
    text = report_lines(reports)
    lines = text.split("\n")
    assert lines[0] == REPORT_HEADER
    assert lines[1] == "1,0.5,0.125,77.55,50"
    assert text.endswith("\n")
    path = tmp_path / "report.csv"
    write_report(reports, path)
    assert path.read_text() == text
    write_report([], path)
    assert path.read_text() == REPORT_HEADER + "\n"


def test_parse_context_from_tables_reaches_run_constraints():
    # the same tables drive both the builder API and the text grammar
    from logicloss.constraints import make_parse_context

    tables = synthetic_tables(4)
    ctx = make_parse_context(tables, consts={"eps": 0.05})
    f = parse("(forall g in Groups: (sum(out[g]) <= eps) or (sum(out[g]) >= 0.95))", ctx)
    assert isinstance(f, BigAnd)
