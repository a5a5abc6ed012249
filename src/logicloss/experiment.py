"""Training experiments: combined loss ce + lambda*logic, accuracy metrics,
the lambda sweep, result selection, and CSV reports.

Batch aggregation of the constraint term is the mean over per-sample
losses, not the logic's own conjunction folded across the batch: chaining
a few hundred samples through a product t-norm underflows to zero
gradient.  Conjunction is still used inside a sample, over label triples
or groups.

For fuzzy runs two operators are pinned regardless of which implication
backend is under study: the conjunction over CSim triples is the product
t-norm, and the disjunction inside the group constraint is the
probabilistic sum.
"""

import copy
import dataclasses
import math
import numbers
import operator
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from logicloss.constraints import (
    GROUP_EPS,
    builtin_tables,
    check_group_eps,
    csim_formula,
    group_formula,
    lipschitz_formula,
    synthetic_tables,
)
from logicloss.data import Dataset, check_noise_frac, check_synthetic_sizes, gen_synthetic, load_idx
from logicloss.formula import (
    _is_index,
    batch_env,
    crisp_fn,
    sample_rows,
    uses_paired_samples,
)
from logicloss.logics import SIGMOIDAL_S, XI, YAGER_P, agg_product, make_backend, s_prob_sum
from logicloss.network import (
    Model,
    Optimizer,
    compile_constraint,
    forward_batch,
    init_model,
    train_step,
)

LAMBDA_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)

CONSTRAINT_NAMES = ("csim", "group", "lipschitz")

REPORT_HEADER = "Epoch,Train-CE-Loss,Train-L-Loss,Test-P-Acc,Test-C-Acc"

SELECT_WINDOW = 10  # select_result scores the last this many epochs


@dataclass
class ExperimentConfig:
    """The settings of one run.  Each field is the one declaration of a
    setting: its name, its type, by which `parse_setting` reads its text,
    and its default.  `logicloss train` has one flag per field."""

    dataset: str = "synthetic"
    backend: str = "rc"
    constraint: str = "csim"
    lam: float = 0.0
    epochs: int = 50
    batch_size: int = 256
    seed: int = 0
    lr: float = 0.05
    momentum: float = 0.9
    eps_group: float = GROUP_EPS
    xi: float = XI
    yager_p: float = YAGER_P
    sigmoidal_s: float = SIGMOIDAL_S
    lipschitz_l: float = 1.0
    tables: str = "auto"
    n_classes: int = 10
    n_train: int = 5000
    n_test: int = 1000
    dims: int = 20
    noise_frac: float = 0.1
    hidden: tuple[int, ...] = (64,)

    def __post_init__(self):
        for key in ("epochs", "batch_size", "n_train", "n_test", "n_classes", "dims"):
            _count(key, getattr(self, key))
        try:
            if isinstance(self.hidden, str):
                raise TypeError("a string is not a sequence of widths")
            widths = tuple(self.hidden)
        except TypeError as exc:
            raise ValueError(f"hidden={self.hidden!r}: hidden must be a sequence of integer widths") from exc
        for width in widths:
            _count("hidden widths", width)
        if not _is_index(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.dataset == "synthetic":
            check_synthetic_sizes(self.n_classes, self.dims)
        _check_lambda(self.lam)
        for key, check in _CHECKS:
            value = getattr(self, key)
            try:
                if _SETTINGS[key] is float and not _is_real(value):
                    raise TypeError(f"expected a real number, got {type(value).__name__}")
                check(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{key}={value!r}: {exc}") from exc
        # an idx dataset sets the class count, so `setup_run` checks its
        # tables once it has loaded
        if self.dataset == "synthetic":
            _constraint(self)
        # the paired constraint scores consecutive samples two at a time, so a
        # batch or a synthetic split of one sample leaves it nothing to score
        if self.constraint == "lipschitz":
            for key in ("batch_size", "n_train", "n_test") if self.dataset == "synthetic" else ("batch_size",):
                if getattr(self, key) < 2:
                    raise ValueError(
                        f"{key}={getattr(self, key)!r}: constraint 'lipschitz' pairs samples, so it needs at least 2"
                    )


def _check_dataset(name):
    if name == "synthetic":
        return
    if not (isinstance(name, str) and name.startswith("idx:")):
        raise ValueError(f"unknown dataset {name!r}; valid: synthetic, idx:<img>,<lbl>")
    paths = name[len("idx:") :].split(",")
    if len(paths) != 2 or not all(p.strip() for p in paths):
        raise ValueError("an idx dataset names two files, idx:<images>,<labels>")


def _check_constraint(name):
    if name not in CONSTRAINT_NAMES:
        raise ValueError(f"unknown constraint {name!r}; valid: {', '.join(CONSTRAINT_NAMES)}")


# The checks each value meets later in a run, made when a config is built so
# that a bad value fails before any data is loaded, under its own key.
_CHECKS = (
    ("dataset", _check_dataset),
    ("backend", make_backend),
    ("xi", lambda v: make_backend("dl2", xi=v)),
    ("yager_p", lambda v: make_backend("yg", yager_p=v)),
    ("sigmoidal_s", lambda v: make_backend("rc-s", sigmoidal_s=v)),
    ("constraint", _check_constraint),
    ("tables", lambda v: v == "auto" or builtin_tables(v)),
    ("lr", lambda v: Optimizer(lr=v)),
    ("momentum", lambda v: Optimizer(lr=1.0, momentum=v)),
    ("noise_frac", check_noise_frac),
    ("eps_group", check_group_eps),
    ("lipschitz_l", lipschitz_formula),
)

# name -> type of every setting; a float setting must be a real number, as
# the checks above would compare a bool as 0 or 1
_SETTINGS = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _is_real(value):
    """Whether `value` is a real number of any real type; a bool is not one.
    A float is tested first, as the ABC check takes ten times as long."""
    return type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_lambda(lam):
    """A lambda is a finite real number >= 0; the error names the first of
    these that `lam` is not."""
    if not _is_real(lam):
        fault = "a real number"
    elif not math.isfinite(lam):
        fault = "finite"
    elif lam < 0.0:
        fault = "non-negative"
    else:
        return
    raise ValueError(f"lam={lam!r}: lambda must be {fault}")


def parse_setting(key, text):
    """Setting `key`'s value read from `text` by its field's type; a tuple
    (`hidden`) is read from comma-separated entries."""
    kind = _SETTINGS[key]
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return tuple(item(v) for v in text.split(","))
    return kind(text)


@dataclass
class EpochReport:
    epoch: int
    train_ce: float
    train_logic: float
    p_acc: float
    c_acc: float

    def __post_init__(self):
        if not (0.0 <= self.p_acc <= 100.0 and 0.0 <= self.c_acc <= 100.0):
            raise ValueError("accuracies are percentages")


_KEY_ALIASES = {"lambda": "lam"}


def load_config(path):
    """Read a key = value config file into an ExperimentConfig.  A key may
    be set once, under its own name or its alias."""
    values = {}
    lines = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, raw = text.partition("=")
            key = _KEY_ALIASES.get(key.strip(), key.strip())
            raw = raw.strip()
            if key not in _SETTINGS:
                raise ValueError(
                    f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                    + ", ".join(sorted(_SETTINGS))
                )
            if key in lines:
                raise ValueError(f"{path}:{lineno}: key {key!r} is already set at line {lines[key]}")
            try:
                values[key] = parse_setting(key, raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from exc
            lines[key] = lineno
    try:
        return ExperimentConfig(**values)
    except ValueError:
        # a check reads one key and the dataset, or those and the constraint
        # it pairs with or the class count it sizes against, so a bad key
        # also fails with those alone; the dataset is checked alone first,
        # since every other key is checked with it
        dataset = {k: values[k] for k in ("dataset",) if k in values}
        partners = [{**dataset, k: values[k]} for k in ("constraint", "n_classes") if k in values]
        for context, keys in [({}, dataset), *((c, values) for c in [dataset, *partners])]:
            for key in keys:
                try:
                    ExperimentConfig(**{**context, key: values[key]})
                except ValueError as exc:
                    raise ValueError(f"{path}:{lines[key]}: {exc}") from exc
        raise


def _resolve_tables(cfg):
    name = cfg.tables
    if name == "auto":  # fmnist's tables for a 10-class idx dataset
        name = "fmnist" if cfg.dataset != "synthetic" and cfg.n_classes == 10 else "synthetic"
    return synthetic_tables(cfg.n_classes) if name == "synthetic" else builtin_tables(name)


def _constraint(cfg):
    """The constraint of `cfg`, built from its tables, which must hold what
    it reads and name no class past `n_classes`; an error in them names
    the key `tables`.  `lipschitz` reads no tables, so none are built."""
    if cfg.constraint == "lipschitz":
        return build_constraint(cfg, None)
    try:
        tables = _resolve_tables(cfg)
        classes = {
            "csim": [i for t in tables.triples for i in (t.l1, t.l2, t.l3)],
            "group": [i for g in tables.groups for i in g.members],
        }.get(cfg.constraint, ())
        if max(classes, default=-1) >= cfg.n_classes:
            raise ValueError(f"the {tables.dataset} tables name class {max(classes)}, past n_classes={cfg.n_classes}")
        return build_constraint(cfg, tables)
    except ValueError as exc:
        raise ValueError(f"tables={cfg.tables!r}: {exc}") from exc


def build_constraint(cfg, tables):
    _check_constraint(cfg.constraint)
    if cfg.constraint == "csim":
        return csim_formula(tables.triples, tables.n_classes)
    if cfg.constraint == "group":
        return group_formula(tables.groups, eps=cfg.eps_group)
    return lipschitz_formula(cfg.lipschitz_l)


def _training_backend(cfg):
    """Backend with the fixed study operators patched in (fuzzy only)."""
    backend = make_backend(
        cfg.backend,
        xi=cfg.xi,
        yager_p=cfg.yager_p,
        sigmoidal_s=cfg.sigmoidal_s,
    )
    if backend.impl is None:
        return backend
    if cfg.constraint == "csim":
        return dataclasses.replace(backend, conj=agg_product)
    if cfg.constraint == "group":
        return dataclasses.replace(backend, disj=s_prob_sum)
    return backend


def _split_idx_dataset(spec):
    images, labels = spec.split(":", 1)[1].split(",")
    full = load_idx(images.strip(), labels.strip())
    # stratified 80/20 split, disjoint by construction: each class's first
    # 80% of images train and the rest test; nothing is shuffled, so the
    # split is deterministic by file order
    train_idx, test_idx = [], []
    for c in range(full.n_classes):
        idx = np.flatnonzero(full.labels == c)
        cut = int(0.8 * len(idx))
        train_idx.append(idx[:cut])
        test_idx.append(idx[cut:])
    # a class keeps int(0.8 * count) of its images for training, so a class
    # of one image has none there; the test split gets one of every class
    if not sum(len(idx) for idx in train_idx):
        raise ValueError(
            f"dataset={spec!r}: the stratified 80/20 split leaves the train split empty; "
            "some class needs at least 2 images"
        )
    tr = np.sort(np.concatenate(train_idx))
    te = np.sort(np.concatenate(test_idx))
    return (
        Dataset(full.features[tr], full.labels[tr], full.n_classes),
        Dataset(full.features[te], full.labels[te], full.n_classes),
    )


def _load_data(cfg):
    if cfg.dataset == "synthetic":
        return gen_synthetic(
            cfg.seed, cfg.n_train, cfg.n_test, cfg.n_classes, cfg.dims, cfg.noise_frac
        )
    return _split_idx_dataset(cfg.dataset)


def prediction_accuracy(m, d):
    return _prediction_accuracy(forward_batch(m, d.features).T, d)


def constraint_accuracy(m, d, f):
    """Percentage of test samples (pairs, for two-sample constraints)
    whose crisp evaluation holds on the model's outputs."""
    return _constraint_accuracy(crisp_fn(f), uses_paired_samples(f), forward_batch(m, d.features).T, d)


def _prediction_accuracy(probs, d):
    """`probs` is the set's (classes, samples) probability matrix."""
    return 100.0 * float((probs.argmax(axis=0) == d.labels).mean())


def _constraint_accuracy(fn, paired, probs, d):
    """One call of the crisp evaluator `fn` covers the whole set: the
    outputs, `probs`, and the inputs are (entries, samples) matrices, as in
    training, the inputs a transposed view of the features, and the columns
    pair up as `formula.sample_rows` says."""
    k, cols = sample_rows(len(d), paired)
    if k == 0:
        raise ValueError("need at least two samples for a paired constraint")
    inputs = d.features.T
    env = batch_env([probs[:, c] for c in cols], [inputs[:, c] for c in cols])
    hits = int(np.count_nonzero(np.broadcast_to(fn(env), (k,))))
    return 100.0 * hits / k


@dataclass(frozen=True)
class RunSetup:
    """What a run builds before its first step, which serves every lambda.

    `cfg` has `n_classes` taken from an idx dataset; `train` and `test` are
    the two splits, with read-only arrays, so runs that share a set-up
    cannot change each other's data; `constraint` is the formula trained
    under and scored on the test set.  Every field pickles, and an
    unpickled copy is read-only too; the compiled loss and the crisp
    evaluator are closures, so each run builds them from these fields.
    """

    cfg: ExperimentConfig
    train: Dataset
    test: Dataset
    constraint: object

    def __post_init__(self):
        for d in (self.train, self.test):
            d.features.flags.writeable = False
            d.labels.flags.writeable = False

    def __reduce__(self):
        return RunSetup, tuple(getattr(self, f.name) for f in dataclasses.fields(self))


def setup_run(cfg):
    """The RunSetup of `cfg`: the data, the tables and the constraint."""
    train, test = _load_data(cfg)
    if cfg.dataset != "synthetic":
        cfg = dataclasses.replace(cfg, n_classes=train.n_classes)
    return RunSetup(cfg, train, test, _constraint(cfg))


@dataclass
class _RunState:
    """A run between two batches: all it carries from one batch to the
    next, so a run can stop after any batch and go on from a copy."""

    model: Model
    opt: Optimizer
    shuffle: np.random.Generator
    epoch: int = 1
    perm: np.ndarray = None  # the epoch's sample order, once drawn
    start: int = 0  # the next batch's first position in `perm`
    ce_total: float = 0.0
    logic_total: float = 0.0
    reports: list = dataclasses.field(default_factory=list)


def _train(setup, lams, state=None):
    """Train the distinct lambdas `lams` from `state` (a new model when
    None) as one group: one model, optimizer and shuffle, stepped once per
    batch at the largest lambda; returns the state.

    A group of one lambda trains to the last epoch.  A larger group goes on
    while each batch's logic gradient is exactly zero, since such a step is
    the lambda-0 step at every lambda; its step updates the model only
    after that check, so nothing is copied or undone.  At the first batch
    where the gradient is not zero, or where the step raises, the group
    stops with the state as it was before that batch, and each lambda goes
    on alone from a copy of it (`lambda_sweep`); its step then raises,
    notes and all, as it would in a run of its own.  The reports carry the
    group's logic loss; a member at lambda 0 reports none (`_reports_at`).
    """
    cfg, train, test, constraint = setup.cfg, setup.train, setup.test, setup.constraint
    lam = max(lams)
    shared = len(lams) > 1
    backend = None
    train_term = None
    if lam > 0.0:
        backend = _training_backend(cfg)
        train_term = compile_constraint(constraint, backend)

    # compiled when the first epoch is scored, so the first step does not wait
    crisp = None

    if state is None:
        dims = train.features.shape[1]
        state = _RunState(
            init_model([dims, *cfg.hidden, train.n_classes], cfg.seed),
            Optimizer(lr=cfg.lr, momentum=cfg.momentum),
            np.random.default_rng(cfg.seed),
        )
    n = len(train)
    while state.epoch <= cfg.epochs:
        if state.perm is None:
            state.perm = state.shuffle.permutation(n)
        while state.start < n:
            sl = state.perm[state.start : state.start + cfg.batch_size]
            batch = (train.features[sl], train.labels[sl])
            try:
                ce, logic, logic_grad_zero = train_step(
                    state.model, batch, lam, backend, train_term, state.opt, shared
                )
            except Exception as exc:
                if shared:
                    # each member redoes this step alone and raises its own
                    # error; a non-finite logic loss fails none at lambda 0
                    return state
                _add_note(exc, f"backend={cfg.backend} lambda={lam} epoch={state.epoch}")
                raise
            if shared and not logic_grad_zero:
                return state
            state.ce_total += ce * len(sl)
            state.logic_total += logic * len(sl)
            state.start += cfg.batch_size
        if crisp is None:
            crisp, paired = crisp_fn(constraint), uses_paired_samples(constraint)
        probs = forward_batch(state.model, test.features).T
        state.reports.append(
            EpochReport(
                epoch=state.epoch,
                train_ce=state.ce_total / n,
                train_logic=state.logic_total / n,
                p_acc=_prediction_accuracy(probs, test),
                c_acc=_constraint_accuracy(crisp, paired, probs, test),
            )
        )
        state.epoch += 1
        state.perm = None
        state.start = 0
        state.ce_total = state.logic_total = 0.0
    return state


def _reports_at(state, lam):
    """The reports of `state` as lambda `lam`'s: at lambda 0 no logic term
    is trained, so its loss reads 0."""
    if lam > 0.0:
        return state.reports
    return [dataclasses.replace(r, train_logic=0.0) for r in state.reports]


def train_run(setup, lam):
    """Train from `setup` at weight `lam`; one EpochReport per epoch,
    deterministic per seed.  The training loop with a group of one lambda
    (`_train`): the backend and the compiled loss are built only for `lam`
    > 0, the crisp evaluator when the first epoch is scored."""
    return _reports_at(_train(setup, [lam]), lam)


def run(cfg):
    """Train per config; one EpochReport per epoch, deterministic per seed.

    `setup_run` then `train_run`; at lambda 0 no backend is built and
    nothing is compiled for training.
    """
    return train_run(setup_run(cfg), cfg.lam)


def _add_note(exc, note):
    """Attach `note` to `exc` as a PEP 678 note, keeping its type and args.

    Python 3.11 tracebacks print notes; `error_message` puts them in front
    of the message.  Written out rather than calling `exc.add_note`, which
    Python 3.10 lacks.
    """
    exc.__notes__ = [*getattr(exc, "__notes__", ()), note]


def error_message(exc):
    """One line: the notes attached to `exc`, then its own message."""
    return ": ".join([*getattr(exc, "__notes__", ()), str(exc)])


def select_result(reports, key="product"):
    """(P, C) maximizing the combined score over the last SELECT_WINDOW epochs.

    Ties go to the later epoch.  Fewer reports than the window: use all.
    """
    if not reports:
        raise ValueError("no reports to select from")
    score = _score_fn(key)
    best = None
    for r in reports[-SELECT_WINDOW:]:
        s = score(r.p_acc, r.c_acc)
        if best is None or s >= best[0]:
            best = (s, r.p_acc, r.c_acc)
    return best[1], best[2]


def _count(name, value):
    """`value` as an int, for an argument that counts: an integer of any
    integer type (not a bool), at least 1."""
    if not _is_index(value):
        raise ValueError(f"{name} must be >= 1 and an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    return operator.index(value)


def _score_fn(key):
    if key == "product":
        return lambda p, c: p * c
    if key == "sum":
        return lambda p, c: p + c
    raise ValueError(f"unknown selection key {key!r}; valid: product, sum")


# the set-up of the sweep a pool worker serves, stored by its initializer
_worker_setup = None


def _init_sweep_worker(setup):
    global _worker_setup
    _worker_setup = setup


def _sweep_point(args):
    """(setup, lam, state) -> the reports of `lam`, trained alone from
    `state` to the last epoch; a pool worker's task is (None, lam, state),
    and the point trains from the worker's stored set-up."""
    setup, lam, state = args
    return _reports_at(_train(_worker_setup if setup is None else setup, [lam], state), lam)


def lambda_sweep(cfg, grid=LAMBDA_GRID, jobs=1, key="product"):
    """One run per lambda (same seed and data); returns (rows, best_lambda)
    with rows of (lambda, P, C).  Ties on the score keep the earlier grid
    entry.

    Every grid entry is checked before any data loads.  The data, tables
    and constraint are built once, in the calling process (`setup_run`).
    The distinct grid values then train as one group (`_train`): one
    model, stepped once per batch, for as long as each batch's logic
    gradient is exactly zero, which makes every lambda's step the lambda-0
    step.  At the first batch where it is not, each value goes on alone
    from a copy of the state before that batch, and only then do `jobs` >
    1 start a pool: at most one worker per value, each receiving the
    set-up once, through the pool's initializer, and a task carries a
    lambda and that state.  Every row equals a standalone `run` at its
    lambda, and a failure raises the earliest failing grid value's own
    exception, as a serial sweep of standalone runs would.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty lambda grid")
    for lam in grid:
        _check_lambda(lam)
    score = _score_fn(key)
    jobs = _count("jobs", jobs)
    setup = setup_run(cfg)
    lams = list(dict.fromkeys(grid))  # equal values share the whole run
    state = _train(setup, lams)
    if state.epoch > setup.cfg.epochs:
        results = [_reports_at(state, lam) for lam in lams]
    elif jobs == 1:
        results = [_sweep_point((setup, lam, copy.deepcopy(state))) for lam in lams]
    else:
        # a worker's exception, notes included, reaches the caller as itself
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(lams)),
            initializer=_init_sweep_worker,
            initargs=(setup,),
        ) as pool:
            results = list(pool.map(_sweep_point, [(None, lam, state) for lam in lams]))
    by_lambda = dict(zip(lams, results))

    rows = []
    best_lam = None
    best_score = None
    for lam in grid:
        p, c = select_result(by_lambda[lam], key=key)
        rows.append((lam, p, c))
        s = score(p, c)
        if best_score is None or s > best_score:
            best_score, best_lam = s, lam
    return rows, best_lam


def _fmt(x):
    return format(float(x), ".12g")


def report_lines(reports):
    lines = [REPORT_HEADER]
    for r in reports:
        lines.append(
            f"{r.epoch},{_fmt(r.train_ce)},{_fmt(r.train_logic)},"
            f"{_fmt(r.p_acc)},{_fmt(r.c_acc)}"
        )
    return "\n".join(lines) + "\n"


def write_report(reports, path):
    with open(path, "w", newline="") as fh:
        fh.write(report_lines(reports))
