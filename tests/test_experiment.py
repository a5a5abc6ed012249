import dataclasses
import functools
import multiprocessing
import os
import pickle
import re
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import logicloss.experiment as experiment
from logicloss.cli import main
from logicloss.constraints import group_formula, synthetic_tables
from logicloss.data import gen_synthetic
from logicloss.experiment import (
    CONSTRAINT_NAMES,
    LAMBDA_GRID,
    REPORT_HEADER,
    EpochReport,
    ExperimentConfig,
    RunSetup,
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
    setup_run,
    train_run,
    write_report,
)
from logicloss.formula import (
    And,
    Cmp,
    Const,
    Or,
    Output,
    Sum,
    conjoin,
    conjuncts,
    parse,
)
from logicloss.network import Model, TrainingDiverged, init_model
from oracles import pairwise_conj, two_slot
from test_data import _write_idx

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


def _no_data(monkeypatch):
    def no_data(*args):
        raise AssertionError("data loaded before the config was checked")

    monkeypatch.setattr(experiment, "gen_synthetic", no_data)


@pytest.mark.parametrize(
    "key,bad",
    [
        ("epochs", 2.5),
        ("epochs", True),
        ("batch_size", 64.0),
        ("n_train", 100.5),
        ("n_test", False),
        ("n_classes", 10.0),
        ("dims", "20"),
    ],
)
def test_config_rejects_counts_that_are_not_integers_before_any_data_loads(monkeypatch, key, bad):
    _no_data(monkeypatch)
    with pytest.raises(ValueError, match=f"^{key} must be >= 1 and an integer, got {bad!r}"):
        run(ExperimentConfig(**{key: bad}))


@pytest.mark.parametrize("hidden", [(8.5,), (8, True)])
def test_config_rejects_hidden_widths_that_are_not_integers(monkeypatch, hidden):
    _no_data(monkeypatch)
    with pytest.raises(ValueError, match="^hidden widths must be >= 1 and an integer"):
        run(ExperimentConfig(hidden=hidden))


@pytest.mark.parametrize("bad", [-1, 1.0, True, "0"])
def test_config_rejects_a_seed_that_is_not_an_integer_of_at_least_zero(monkeypatch, bad):
    _no_data(monkeypatch)
    with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {bad!r}"):
        run(ExperimentConfig(seed=bad))


def test_config_takes_numpy_integer_counts_and_seeds():
    cfg = ExperimentConfig(epochs=np.int64(2), hidden=(np.int32(8),), seed=np.uint8(0))
    assert cfg.epochs == 2 and cfg.seed == 0


@pytest.mark.parametrize(
    "sizes,message",
    [
        ({"n_classes": 1}, "^n_classes=1: the synthetic generator needs at least 3 classes"),
        ({"n_classes": 2, "dims": 9}, "^n_classes=2: "),
        ({"dims": 3}, r"^dims=3: the synthetic generator needs dims >= 7 for 10 classes"),
        ({"n_classes": 12, "dims": 7}, r"^dims=7: the synthetic generator needs dims >= 8 for 12 classes"),
    ],
)
def test_config_checks_the_synthetic_sizes_before_any_data_loads(monkeypatch, sizes, message):
    _no_data(monkeypatch)
    with pytest.raises(ValueError, match=message):
        run(ExperimentConfig(**sizes))
    # the generator keeps the same rule
    with pytest.raises(ValueError, match=message):
        gen_synthetic(0, 10, 10, sizes.get("n_classes", 10), sizes.get("dims", 20), 0.0)
    # another dataset does not need it
    ExperimentConfig(dataset="idx:a,b", **sizes)


@pytest.mark.parametrize(
    "key,bad,message",
    [
        ("hidden", 64, "hidden=64: hidden must be a sequence of integer widths"),
        ("hidden", "64", "hidden='64': hidden must be a sequence of integer widths"),
        ("lr", "0.1", "lr='0.1': "),
        ("momentum", "0.5", "momentum='0.5': "),
        ("noise_frac", "0.1", "noise_frac='0.1': "),
        ("xi", "1", "xi='1': "),
    ],
)
def test_config_names_the_key_of_a_value_of_the_wrong_type_before_any_data_loads(monkeypatch, key, bad, message):
    _no_data(monkeypatch)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}") as info:
        run(ExperimentConfig(**{key: bad}))
    assert isinstance(info.value.__cause__, TypeError)


@pytest.mark.parametrize("hidden", [(0,), (8, 0), (-3,)])
def test_config_rejects_hidden_widths_below_one(hidden):
    with pytest.raises(ValueError, match="hidden widths must be >= 1"):
        ExperimentConfig(hidden=hidden)


@pytest.mark.parametrize(
    "key,bad",
    [
        ("dataset", "nope"),
        ("dataset", 3),
        ("backend", "nope"),
        ("constraint", "nope"),
        ("tables", "nope"),
        ("lr", -1.0),
        ("momentum", 1.5),
        ("noise_frac", 2.0),
        ("xi", -1.0),
        ("yager_p", 0.5),
        ("sigmoidal_s", 0.0),
        ("eps_group", 0.7),
        ("lipschitz_l", -1.0),
        ("lam", float("nan")),
        ("lam", float("inf")),
        ("lam", True),
        ("lam", "1"),
        ("xi", float("nan")),
        ("yager_p", float("nan")),
        ("sigmoidal_s", float("nan")),
        ("lipschitz_l", float("nan")),
        ("lr", float("inf")),
        ("xi", float("inf")),
        ("yager_p", float("inf")),
        ("sigmoidal_s", float("inf")),
        ("lipschitz_l", float("inf")),
    ],
)
def test_config_rejects_bad_values_before_any_data_loads(monkeypatch, key, bad):
    import logicloss.experiment as experiment

    def no_data(*args):
        raise AssertionError("data loaded before the config was checked")

    monkeypatch.setattr(experiment, "gen_synthetic", no_data)
    with pytest.raises(ValueError, match=f"^{key}="):
        run(ExperimentConfig(**{"lam": 0.0, key: bad}))


_REAL_KEYS = ["lr", "momentum", "noise_frac", "xi", "yager_p", "sigmoidal_s", "lipschitz_l", "eps_group"]


@pytest.mark.parametrize("bad", [True, False])
@pytest.mark.parametrize("key", _REAL_KEYS)
def test_config_rejects_a_bool_as_a_real_number_before_any_data_loads(monkeypatch, key, bad):
    # a bool would compare as 0 or 1, so lr=True would train at lr 1
    _no_data(monkeypatch)
    with pytest.raises(ValueError, match=f"^{key}={bad!r}: expected a real number, got bool$") as info:
        run(ExperimentConfig(**{key: bad}))
    assert isinstance(info.value.__cause__, TypeError)


def test_config_takes_numpy_real_numbers():
    values = {key: np.float64(getattr(ExperimentConfig(), key)) for key in _REAL_KEYS}
    values["lam"] = np.float64(0.5)
    cfg = ExperimentConfig(**values)
    assert all(getattr(cfg, key) is value for key, value in values.items())
    ExperimentConfig(lr=np.float32(0.1), lipschitz_l=np.int64(2), xi=3)


def test_run_calls_the_crisp_evaluator_once_per_epoch_and_compiles_once(monkeypatch):
    """Neither per-sample evaluation nor per-batch compiling may creep back."""
    import dataclasses

    import logicloss.experiment as experiment
    import logicloss.network as network

    crisp_calls, compiles = [], []
    real_crisp_fn, real_loss_function = experiment.crisp_fn, network.loss_function

    def counting_crisp_fn(f):
        fn = real_crisp_fn(f)

        def counted(env):
            crisp_calls.append(1)
            return fn(env)

        return counted

    def counting_loss_function(f, backend):
        compiles.append(1)
        return real_loss_function(f, backend)

    monkeypatch.setattr(experiment, "crisp_fn", counting_crisp_fn)
    monkeypatch.setattr(network, "loss_function", counting_loss_function)
    for name in CONSTRAINT_NAMES:
        crisp_calls.clear()
        compiles.clear()
        cfg = dataclasses.replace(TINY, constraint=name, lam=0.5)
        assert cfg.n_train > 2 * cfg.batch_size  # several batches per epoch
        run(cfg)
        assert len(crisp_calls) == cfg.epochs, name
        assert len(compiles) == 1, name


def test_run_scores_each_epoch_from_one_test_set_forward_pass(monkeypatch):
    """P and C come from the same probabilities, and the crisp evaluator is
    compiled once per run."""
    import dataclasses

    import logicloss.experiment as experiment

    forwards, crisp_compiles = [], []
    real_forward, real_crisp_fn = experiment.forward_batch, experiment.crisp_fn

    def counting_forward(m, X):
        forwards.append(len(X))
        return real_forward(m, X)

    def counting_crisp_fn(f):
        crisp_compiles.append(1)
        return real_crisp_fn(f)

    monkeypatch.setattr(experiment, "forward_batch", counting_forward)
    monkeypatch.setattr(experiment, "crisp_fn", counting_crisp_fn)
    for name in CONSTRAINT_NAMES:
        forwards.clear()
        crisp_compiles.clear()
        cfg = dataclasses.replace(TINY, constraint=name, lam=0.5)
        run(cfg)
        assert forwards == [cfg.n_test] * cfg.epochs, name
        assert len(crisp_compiles) == 1, name


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


def test_load_config_rejects_a_key_set_twice_also_through_its_alias(tmp_path):
    path = tmp_path / "bad.cfg"
    for text, key in (
        ("lambda = 0.5\nbackend = rc\nlam = 0.9\n", "lam"),
        ("epochs = 3\n# again\nepochs = 4\n", "epochs"),
    ):
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value) == f"{path}:3: key {key!r} is already set at line 1"


def test_load_config_names_the_file_line_and_key_of_a_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    for text, where in (
        ("backend = rc\nepochs = 2.5\n", ":2: epochs: "),
        ("# sizes\nlambda = 0.5\nhidden = 8,x\n", ":3: hidden: "),
    ):
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value).startswith(str(path) + where)
        assert "invalid literal for int()" in str(info.value)
        assert isinstance(info.value.__cause__, ValueError)


def test_load_config_names_the_file_and_line_of_a_value_that_fails_validation(tmp_path):
    path = tmp_path / "bad.cfg"
    for text, where, message in (
        ("backend = rc\nepochs = 0\n", ":2: ", "epochs must be >= 1, got 0"),
        ("# run\nlambda = 0.5\n\nbackend = nope\nseed = 1\n", ":4: ", "backend='nope': unknown backend"),
        ("epochs = 3\nhidden = 8,0\n", ":2: ", "hidden widths must be >= 1"),
        ("epochs = 3\ndataset = nope\n", ":2: ", "dataset='nope': unknown dataset 'nope'"),
        # too few dims only for this many classes
        ("n_classes = 30\ndims = 15\n", ":2: ", "dims=15: the synthetic generator needs dims >= 17"),
    ):
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as info:
            load_config(path)
        assert str(info.value).startswith(str(path) + where + message)
        assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("key", ["batch_size", "n_train", "n_test"])
@pytest.mark.parametrize("lam", [0.0, 0.8])
def test_paired_constraint_rejects_one_sample_sizes_before_any_data_loads(monkeypatch, key, lam):
    import logicloss.experiment as experiment

    def no_data(*args):
        raise AssertionError("data loaded before the config was checked")

    monkeypatch.setattr(experiment, "gen_synthetic", no_data)
    with pytest.raises(ValueError, match=f"^{key}=1: constraint 'lipschitz' pairs samples"):
        run(ExperimentConfig(constraint="lipschitz", lam=lam, **{key: 1}))
    ExperimentConfig(constraint="csim", **{key: 1})
    ExperimentConfig(constraint="lipschitz", **{key: 2})


@pytest.mark.parametrize("spec", ["idx:x", "idx:a,b,c", "idx:", "idx:a,"])
def test_an_idx_spec_that_does_not_name_two_files_fails_when_the_config_is_built(tmp_path, spec):
    message = "an idx dataset names two files, idx:<images>,<labels>"
    with pytest.raises(ValueError) as info:
        ExperimentConfig(dataset=spec)
    assert str(info.value) == f"dataset={spec!r}: {message}"
    path = tmp_path / "bad.cfg"
    path.write_text(f"epochs = 3\ndataset = {spec}\n")
    with pytest.raises(ValueError) as info:
        load_config(path)
    assert str(info.value) == f"{path}:2: dataset={spec!r}: {message}"


def test_paired_constraint_reads_the_split_sizes_of_the_synthetic_dataset_only():
    ExperimentConfig(constraint="lipschitz", dataset="idx:a,b", n_train=1, n_test=1)
    with pytest.raises(ValueError, match="^batch_size=1"):
        ExperimentConfig(constraint="lipschitz", dataset="idx:a,b", batch_size=1)


def test_load_config_names_the_line_of_a_size_the_paired_constraint_rejects(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("batch_size = 1\nlambda = 0.5\nconstraint = lipschitz\n")
    with pytest.raises(ValueError) as info:
        load_config(path)
    assert str(info.value).startswith(f"{path}:1: batch_size=1: constraint 'lipschitz' pairs samples")
    assert isinstance(info.value.__cause__, ValueError)


def test_an_idx_dataset_with_an_empty_train_split_fails_before_the_model_is_built(tmp_path, monkeypatch):
    import dataclasses

    import logicloss.experiment as experiment

    def no_model(*args):
        raise AssertionError("model built for an empty train split")

    monkeypatch.setattr(experiment, "init_model", no_model)
    img, lbl = tmp_path / "img.idx", tmp_path / "lbl.idx"
    # one image per class: the 80/20 split sends every one to the test split;
    # a pair of no images has no class to split at all
    for n, labels in ((3, [0, 1, 2]), (0, [])):
        _write_idx(img, (n, 2, 2), range(4 * n))
        _write_idx(lbl, (n,), labels)
        spec = f"idx:{img},{lbl}"
        with pytest.raises(ValueError, match="train split empty") as info:
            run(dataclasses.replace(TINY, dataset=spec, n_classes=3))
        assert str(info.value).startswith(f"dataset={spec!r}: ")
        assert main(["train", "--dataset", spec, "--epochs", "1"]) == 1


def test_lipschitz_reads_no_tables_so_a_two_class_idx_dataset_trains_it(tmp_path):
    # tables=auto would build synthetic tables, which need 3 classes
    img, lbl = tmp_path / "img.idx", tmp_path / "lbl.idx"
    _write_idx(img, (8, 2, 2), range(32))
    _write_idx(lbl, (8,), [0, 1] * 4)
    cfg = dataclasses.replace(TINY, dataset=f"idx:{img},{lbl}", constraint="lipschitz", lam=0.5, epochs=1)
    assert cfg.tables == "auto"
    assert len(run(cfg)) == 1


_BAD_TABLES = [
    ("group", "fmnist", 10, "no class groups given"),
    ("csim", "gtsrb", 10, "no label triples given"),
    ("csim", "fmnist", 5, "the fmnist tables name class 9, past n_classes=5"),
]


@pytest.mark.parametrize("lam", [0.0, 0.8])
@pytest.mark.parametrize("constraint,tables,n_classes,message", _BAD_TABLES)
def test_config_checks_the_tables_against_the_constraint_and_class_count_before_any_data_loads(
    monkeypatch, tmp_path, constraint, tables, n_classes, message, lam
):
    def never(cfg):
        raise AssertionError("data loaded before the tables were checked")

    monkeypatch.setattr(experiment, "_load_data", never)
    with pytest.raises(ValueError) as info:
        run(ExperimentConfig(constraint=constraint, tables=tables, n_classes=n_classes, lam=lam))
    assert str(info.value) == f"tables={tables!r}: {message}"
    path = tmp_path / "bad.cfg"
    path.write_text(f"constraint = {constraint}\nn_classes = {n_classes}\ntables = {tables}\n")
    with pytest.raises(ValueError) as info:
        load_config(path)
    assert str(info.value) == f"{path}:3: tables={tables!r}: {message}"


def test_an_idx_dataset_s_tables_are_checked_against_its_own_class_count(tmp_path, monkeypatch):
    img, lbl = tmp_path / "img.idx", tmp_path / "lbl.idx"
    built = []
    real_init = experiment.init_model
    monkeypatch.setattr(experiment, "init_model", lambda *a: built.append(a) or real_init(*a))
    # TINY says 5 classes; the data's count replaces it, and only then are
    # the tables checked
    for n_classes, constraint, tables, message in (
        (5, "csim", "fmnist", "the fmnist tables name class 9, past n_classes=5"),
        (10, "group", "auto", "no class groups given"),  # fmnist's, which has none
    ):
        labels = list(range(n_classes)) * 2
        _write_idx(img, (len(labels), 2, 2), range(4 * len(labels)))
        _write_idx(lbl, (len(labels),), labels)
        cfg = dataclasses.replace(TINY, dataset=f"idx:{img},{lbl}", constraint=constraint, tables=tables)
        with pytest.raises(ValueError) as info:
            run(cfg)
        assert str(info.value) == f"tables={tables!r}: {message}"
        assert not built
    # 10 classes in the data fit fmnist's tables although the config says 5
    run(dataclasses.replace(cfg, constraint="csim", tables="fmnist", lam=0.5, epochs=1))
    assert len(built) == 1


def test_build_constraint_shapes():
    tables = synthetic_tables(5)
    csim = build_constraint(ExperimentConfig(constraint="csim", n_classes=5), tables)
    assert isinstance(csim, (Cmp,)) is False  # conjunction chain, not a bare atom
    cfg = ExperimentConfig(constraint="group", n_classes=5)
    group = build_constraint(cfg, tables)
    # one conjunct per class group, (0, 1, 2) and (3, 4)
    assert isinstance(group, And) and len(conjuncts(group)) == len(tables.groups) == 2
    assert group == group_formula(tables.groups, eps=cfg.eps_group)
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
    assert two_slot(conj)(0.5, 0.5) == pytest.approx(0.25)
    disj = _training_backend(
        ExperimentConfig(backend="godel", constraint="group")
    ).disj
    assert disj(0.5, 0.5) == pytest.approx(0.75)
    lip = _training_backend(ExperimentConfig(backend="godel", constraint="lipschitz"))
    assert two_slot(lip.conj)(0.5, 0.5) == 0.5
    # dl2 keeps its additive forms everywhere
    dl2 = _training_backend(ExperimentConfig(backend="dl2", constraint="csim"))
    assert two_slot(dl2.conj)(1.0, 2.0) == 3.0


@pytest.mark.parametrize("constraint", CONSTRAINT_NAMES)
@pytest.mark.parametrize("backend", ["dl2", "godel", "lk", "yg", "rc", "tlk"])
def test_training_backend_aggregates_with_its_own_conj(backend, constraint):
    """A pinned conjunction is an aggregation operator too: reducing a row
    equals folding it with the pairwise t-norm it stands for."""
    b = _training_backend(ExperimentConfig(backend=backend, constraint=constraint))
    rows = np.random.default_rng(3).uniform(0.6, 1.0, size=(5, 4))
    rows[1, 2] = rows[1, 0]
    rows[2] = 1.0
    step = pairwise_conj(b)
    acc = rows[:, 0]
    for k in range(1, rows.shape[1]):
        acc = step(acc, rows[:, k])
    np.testing.assert_allclose(b.conj(rows)[0], acc, rtol=1e-12, atol=1e-15)


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


@pytest.mark.parametrize("jobs", [0, -2, float("nan")])
def test_lambda_sweep_rejects_jobs_below_one(jobs, monkeypatch):
    import logicloss.experiment as experiment

    def no_point(args):
        raise AssertionError("a sweep point ran")

    monkeypatch.setattr(experiment, "_sweep_point", no_point)
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        lambda_sweep(TINY, grid=[0.0, 0.4], jobs=jobs)


@pytest.mark.parametrize("jobs", [1.5, 2.0, True, "2", None])
def test_lambda_sweep_rejects_jobs_that_are_not_integers(jobs, monkeypatch):
    import logicloss.experiment as experiment

    def no_point(args):
        raise AssertionError("a sweep point ran")

    monkeypatch.setattr(experiment, "_sweep_point", no_point)
    with pytest.raises(ValueError) as e:
        lambda_sweep(TINY, grid=[0.0, 0.4], jobs=jobs)
    assert str(e.value) == f"jobs must be >= 1 and an integer, got {jobs!r}"


def test_lambda_sweep_takes_numpy_integer_jobs(monkeypatch):
    import logicloss.experiment as experiment

    monkeypatch.setattr(experiment, "_sweep_point", lambda args: _reports([(50.0, args[1] * 10.0)]))
    rows, best = lambda_sweep(TINY, grid=[0.0, 0.4], jobs=np.int64(1))
    assert rows == [(0.0, 50.0, 0.0), (0.4, 50.0, 4.0)] and best == 0.4


def test_lambda_sweep_parallel_matches_serial():
    import dataclasses

    cfg = dataclasses.replace(TINY, epochs=2, n_train=80, n_test=40)
    serial = lambda_sweep(cfg, grid=[0.0, 0.4], jobs=1)
    parallel = lambda_sweep(cfg, grid=[0.0, 0.4], jobs=2)
    assert serial == parallel


@pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="the pool's workers must inherit the patched training step",
)
def test_lambda_sweep_worker_parse_error_reaches_the_parent(monkeypatch):
    import dataclasses

    import logicloss.experiment as experiment
    from logicloss.formula import UnknownIdentifier

    def failing_step(*args):
        raise UnknownIdentifier("unknown identifier 'foo'", 7)

    monkeypatch.setattr(experiment, "train_step", failing_step)
    cfg = dataclasses.replace(TINY, epochs=1, n_train=40, n_test=20)
    with pytest.raises(UnknownIdentifier) as info:
        lambda_sweep(cfg, grid=[0.0, 0.4], jobs=2)
    assert (info.value.message, info.value.pos) == ("unknown identifier 'foo'", 7)
    assert info.value.__notes__ == ["backend=rc lambda=0.0 epoch=1"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_lambda_sweep_raises_a_failed_point_s_own_exception(jobs, tmp_path, capsys):
    import dataclasses

    spec = f"idx:{tmp_path / 'a'},{tmp_path / 'b'}"
    cfg = dataclasses.replace(TINY, dataset=spec)
    with pytest.raises(FileNotFoundError):
        lambda_sweep(cfg, grid=[0.0, 1.0], jobs=jobs)
    argv = ["sweep", "--dataset", spec, "--sweep", "0,1", "--jobs", str(jobs)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


SWEEP_CFG = dataclasses.replace(TINY, epochs=2, n_train=80, n_test=40)


class _RecordingPool(ProcessPoolExecutor):
    """The real pool, recording what the sweep hands it."""

    made = []

    def __init__(self, max_workers=None, **kwargs):
        super().__init__(max_workers=max_workers, **kwargs)
        self.max_workers = max_workers
        self.initargs = kwargs.get("initargs")
        self.tasks = None
        _RecordingPool.made.append(self)

    def map(self, fn, tasks):
        self.tasks = list(tasks)
        return super().map(fn, self.tasks)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "bad,fault",
    [
        (-1.0, "non-negative"),
        ("1", "a real number"),
        (True, "a real number"),
        (np.True_, "a real number"),
        (float("nan"), "finite"),
        (float("inf"), "finite"),
        (None, "a real number"),
    ],
    ids=["negative", "str", "bool", "numpy-bool", "nan", "inf", "none"],
)
def test_lambda_sweep_rejects_a_bad_grid_entry_before_anything_runs(bad, fault, jobs, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the sweep started work on a bad grid")

    monkeypatch.setattr(experiment, "_sweep_point", never)
    monkeypatch.setattr(experiment, "_load_data", never)
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", never)
    with pytest.raises(ValueError) as e:
        lambda_sweep(TINY, grid=[0.0, bad], jobs=jobs)
    assert str(e.value) == f"lam={bad!r}: lambda must be {fault}"


def test_lambda_sweep_starts_no_more_workers_than_points(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "made", [])
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", _RecordingPool)
    rows, _ = lambda_sweep(SWEEP_CFG, grid=[0.0, 0.4], jobs=8)
    assert [pool.max_workers for pool in _RecordingPool.made] == [2]
    assert rows == lambda_sweep(SWEEP_CFG, grid=[0.0, 0.4], jobs=1)[0]


def test_lambda_sweep_hands_the_set_up_to_workers_once_and_tasks_carry_no_data(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "made", [])
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", _RecordingPool)
    lambda_sweep(SWEEP_CFG, grid=[0.0, 0.4, 1.0], jobs=2)
    (pool,) = _RecordingPool.made
    (setup,) = pool.initargs
    assert isinstance(setup, RunSetup) and setup.cfg == SWEEP_CFG
    # a task is (no set-up, its lambda, the state the group split at)
    assert [task[:2] for task in pool.tasks] == [(None, 0.0), (None, 0.4), (None, 1.0)]
    for _, _, state in pool.tasks:
        assert isinstance(state, experiment._RunState)
        carried = [v for v in vars(state).values() if isinstance(v, np.ndarray)]
        carried += state.model.weights + state.model.biases
        assert not any(np.shares_memory(a, d) for a in carried for d in _set_up_arrays(setup))
        assert len(pickle.dumps(state)) < len(pickle.dumps(setup)) / 2


def _set_up_arrays(setup):
    return [a for d in (setup.train, setup.test) for a in (d.features, d.labels)]


# dl2/lipschitz at a tight bound: the logic gradient first turns nonzero in
# the third epoch, so a sweep trains two epochs as one model before it splits
SPLIT_CFG = ExperimentConfig(
    backend="dl2",
    constraint="lipschitz",
    lipschitz_l=0.3,
    epochs=3,
    batch_size=64,
    n_train=1000,
    n_test=200,
    hidden=(16,),
)
# ... and at the default bound it never does
FLAT_CFG = dataclasses.replace(SPLIT_CFG, lipschitz_l=1.0)


def _sweep_reports(cfg, grid, jobs, monkeypatch):
    """The rows of `lambda_sweep`, and each grid entry's full reports, as
    the sweep hands them to `select_result`."""
    seen = []
    real = experiment.select_result

    def recording(reports, key="product"):
        seen.append(reports)
        return real(reports, key=key)

    with monkeypatch.context() as m:
        m.setattr(experiment, "select_result", recording)
        rows, _ = lambda_sweep(cfg, grid=grid, jobs=jobs)
    return rows, seen


def test_the_split_config_splits_mid_epoch_after_shared_epochs():
    state = experiment._train(setup_run(SPLIT_CFG), [0.0, 0.4, 2.0])
    assert (state.epoch, state.start) == (3, SPLIT_CFG.batch_size)
    assert len(state.reports) == 2
    assert experiment._train(setup_run(FLAT_CFG), [0.0, 0.4, 2.0]).epoch == FLAT_CFG.epochs + 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_sweep_that_splits_mid_run_reports_every_point_as_a_standalone_run(jobs, monkeypatch):
    grid = [0.0, 0.4, 2.0]
    _, reports = _sweep_reports(SPLIT_CFG, grid, jobs, monkeypatch)
    setup = setup_run(SPLIT_CFG)
    assert reports == [train_run(setup, lam) for lam in grid]
    # the two shared epochs are equal at every lambda, the split one is not
    assert reports[0][:2] == reports[1][:2] == reports[2][:2]
    assert len({r[2].train_ce for r in reports}) == 3
    assert reports[0][2].train_logic == 0.0 < reports[1][2].train_logic


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_sweep_that_never_splits_steps_one_model_and_starts_no_pool(jobs, monkeypatch):
    steps = []
    real_step = experiment.train_step

    def counting_step(*args):
        steps.append(args[2])
        return real_step(*args)

    def no_pool(*args, **kwargs):
        raise AssertionError("a sweep that never split started a pool")

    def no_copy(self):
        raise AssertionError(f"a sweep that never split copied its {type(self).__name__}")

    monkeypatch.setattr(experiment, "train_step", counting_step)
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", no_pool)
    # deepcopy and pickling both copy a model through its __reduce__
    monkeypatch.setattr(Model, "__reduce__", no_copy)
    grid = [0.0, 0.4, 2.0]
    _, reports = _sweep_reports(FLAT_CFG, grid, jobs, monkeypatch)
    batches = -(-FLAT_CFG.n_train // FLAT_CFG.batch_size)
    assert steps == [2.0] * (FLAT_CFG.epochs * batches)
    monkeypatch.undo()
    setup = setup_run(FLAT_CFG)
    assert reports == [train_run(setup, lam) for lam in grid]
    assert reports[1] == reports[2] and reports[1][0].train_logic == 0.0


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_repeated_lambda_shares_its_whole_run(jobs, monkeypatch):
    monkeypatch.setattr(_RecordingPool, "made", [])
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", _RecordingPool)
    rows, reports = _sweep_reports(SPLIT_CFG, [0.4, 0.0, 0.4, 0.4], jobs, monkeypatch)
    assert rows[0] == rows[2] == rows[3] and reports[0] == reports[2] == reports[3]
    assert reports[0] == train_run(setup_run(SPLIT_CFG), 0.4)
    # one worker, and one task, per distinct value
    assert [(pool.max_workers, len(pool.tasks)) for pool in _RecordingPool.made] == (
        [(2, 2)] if jobs == 2 else []
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_flat_violated_constraint_is_shared_and_lambda_0_reports_no_loss(jobs, monkeypatch):
    # a violation with no gradient: every step is the lambda-0 step, but a
    # standalone run at lambda > 0 still reports the loss
    violated = Cmp(">=", Const(0.0), Const(1.0))
    monkeypatch.setattr(experiment, "_constraint", lambda cfg: violated)
    grid = [0.0, 0.4]
    _, reports = _sweep_reports(SWEEP_CFG, grid, jobs, monkeypatch)
    setup = setup_run(SWEEP_CFG)
    assert setup.constraint is violated
    assert reports == [train_run(setup, lam) for lam in grid]
    assert {r.train_logic for r in reports[0]} == {0.0}
    (loss,) = {r.train_logic for r in reports[1]}
    assert loss > 0.0
    assert [dataclasses.replace(r, train_logic=0.0) for r in reports[1]] == reports[0]


def _nan_loss(constraint, backend):
    return lambda env: float("nan")


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("grid,first", [([0.0, 0.4, 2.0], 0.4), ([0.0, 2.0, 0.4], 2.0)])
def test_a_non_finite_logic_loss_fails_the_first_positive_lambda(grid, first, jobs, monkeypatch):
    if jobs > 1 and multiprocessing.get_context().get_start_method() != "fork":
        pytest.skip("the pool's workers must inherit the patched loss")
    import logicloss.network as network

    monkeypatch.setattr(network, "loss_function", _nan_loss)
    with pytest.raises(TrainingDiverged, match="logic=nan") as info:
        lambda_sweep(SPLIT_CFG, grid=grid, jobs=jobs)
    assert info.value.__notes__ == [f"backend=dl2 lambda={first} epoch=1"]
    # the lambda-0 point does not fail
    assert len(lambda_sweep(SPLIT_CFG, grid=[0.0], jobs=jobs)[0]) == 1


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "backend,constraint", [("rc", "csim"), ("dl2", "lipschitz"), ("godel", "group")]
)
def test_every_sweep_row_equals_a_standalone_run(backend, constraint, jobs):
    cfg = dataclasses.replace(SWEEP_CFG, backend=backend, constraint=constraint)
    grid = [0.0, 0.4, 2.0]
    rows, _ = lambda_sweep(cfg, grid=grid, jobs=jobs)
    assert rows == [
        (lam, *select_result(run(dataclasses.replace(cfg, lam=lam)))) for lam in grid
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_lambda_sweep_loads_its_data_once_in_the_calling_process(jobs, monkeypatch):
    caller = os.getpid()
    loads = []
    real_load = experiment._load_data

    def load_in_caller_only(cfg):
        if os.getpid() != caller:
            raise AssertionError("a pool worker loaded data")
        loads.append(cfg)
        return real_load(cfg)

    monkeypatch.setattr(experiment, "_load_data", load_in_caller_only)
    lambda_sweep(SWEEP_CFG, grid=[0.0, 0.4, 1.0], jobs=jobs)
    assert len(loads) == 1


def test_set_up_arrays_are_read_only_and_it_pickles():
    setup = setup_run(SWEEP_CFG)
    copy = pickle.loads(pickle.dumps(setup))
    for s in (setup, copy):
        for d in (s.train, s.test):
            for a in (d.features, d.labels):
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0
    assert copy.cfg == setup.cfg
    assert copy.constraint == setup.constraint
    for a, b in ((copy.train, setup.train), (copy.test, setup.test)):
        assert np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)
    assert train_run(copy, 0.4) == train_run(setup, 0.4)


def test_lambda_sweep_runs_in_a_spawned_pool(monkeypatch):
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(
        experiment, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=spawn)
    )
    grid = [0.0, 0.4]
    assert lambda_sweep(SWEEP_CFG, grid=grid, jobs=2) == lambda_sweep(SWEEP_CFG, grid=grid, jobs=1)


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
    masses = [Sum(tuple(Output(i) for i in g.members)) for g in tables.groups]
    assert [g.members for g in tables.groups] == [(0, 1, 2), (3,)]
    assert f == conjoin([Or(Cmp("<=", m, Const(0.05)), Cmp(">=", m, Const(0.95))) for m in masses])
