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

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from logicloss.constraints import (
    builtin_tables,
    csim_formula,
    group_formula,
    lipschitz_formula,
    synthetic_tables,
)
from logicloss.data import gen_synthetic, load_idx
from logicloss.formula import Env, crisp_fn, push_negations, uses_paired_samples
from logicloss.logics import closed01, make_backend, s_prob_sum, t_product
from logicloss.network import Optimizer, forward_batch, init_model, train_step

LAMBDA_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)

CONSTRAINT_NAMES = ("csim", "group", "lipschitz")

REPORT_HEADER = "Epoch,Train-CE-Loss,Train-L-Loss,Test-P-Acc,Test-C-Acc"


@dataclass
class ExperimentConfig:
    dataset: str = "synthetic"
    backend: str = "rc"
    constraint: str = "csim"
    lam: float = 0.0
    epochs: int = 50
    batch_size: int = 256
    seed: int = 0
    lr: float = 0.05
    momentum: float = 0.9
    eps_group: float = 0.05
    xi: float = 1.0
    yager_p: float = 2.0
    sigmoidal_s: float = 9.0
    lipschitz_l: float = 1.0
    tables: str = "auto"
    n_classes: int = 10
    n_train: int = 5000
    n_test: int = 1000
    dims: int = 20
    noise_frac: float = 0.1
    hidden: tuple = (64,)

    def __post_init__(self):
        for key in ("epochs", "batch_size", "n_train", "n_test", "n_classes", "dims"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)!r}")
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden!r}")
        if self.lam < 0.0:
            raise ValueError("lambda must be non-negative")


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
    """Read a key = value config file into an ExperimentConfig."""
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    values = {}
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
            if key not in fields:
                raise ValueError(
                    f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                    + ", ".join(sorted(fields))
                )
            if key == "hidden":
                values[key] = tuple(int(v) for v in raw.split(","))
            else:
                values[key] = type(getattr(ExperimentConfig(), key))(raw)
    return ExperimentConfig(**values)


def _resolve_tables(cfg):
    name = cfg.tables
    if name == "auto":
        if cfg.dataset == "synthetic":
            return synthetic_tables(cfg.n_classes)
        return builtin_tables("fmnist") if cfg.n_classes == 10 else synthetic_tables(cfg.n_classes)
    if name == "synthetic":
        return synthetic_tables(cfg.n_classes)
    return builtin_tables(name)


def build_constraint(cfg, tables):
    if cfg.constraint == "csim":
        return csim_formula(tables.triples, tables.n_classes)
    if cfg.constraint == "group":
        return group_formula(tables.groups, eps=cfg.eps_group)
    if cfg.constraint == "lipschitz":
        return lipschitz_formula(cfg.lipschitz_l)
    raise ValueError(
        f"unknown constraint {cfg.constraint!r}; valid: {', '.join(CONSTRAINT_NAMES)}"
    )


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
        return dataclasses.replace(backend, conj=closed01(t_product))
    if cfg.constraint == "group":
        return dataclasses.replace(backend, disj=closed01(s_prob_sum))
    return backend


def _split_idx_dataset(spec, seed):
    paths = spec.split(":", 1)[1].split(",")
    if len(paths) != 2:
        raise ValueError("idx dataset spec must be idx:<images>,<labels>")
    full = load_idx(paths[0].strip(), paths[1].strip())
    # deterministic stratified 80/20 split, disjoint by construction
    train_idx, test_idx = [], []
    for c in range(full.n_classes):
        idx = np.flatnonzero(full.labels == c)
        cut = int(0.8 * len(idx))
        train_idx.append(idx[:cut])
        test_idx.append(idx[cut:])
    tr = np.sort(np.concatenate(train_idx))
    te = np.sort(np.concatenate(test_idx))
    from logicloss.data import Dataset

    return (
        Dataset(full.features[tr], full.labels[tr], full.n_classes, split="train"),
        Dataset(full.features[te], full.labels[te], full.n_classes, split="test"),
    )


def _load_data(cfg):
    if cfg.dataset == "synthetic":
        return gen_synthetic(
            cfg.seed, cfg.n_train, cfg.n_test, cfg.n_classes, cfg.dims, cfg.noise_frac
        )
    if cfg.dataset.startswith("idx:"):
        return _split_idx_dataset(cfg.dataset, cfg.seed)
    raise ValueError(f"unknown dataset {cfg.dataset!r}; valid: synthetic, idx:<img>,<lbl>")


def prediction_accuracy(m, d):
    probs = forward_batch(m, d.features)
    return 100.0 * float((probs.argmax(axis=1) == d.labels).mean())


def constraint_accuracy(m, d, f):
    """Percentage of test samples (pairs, for two-sample constraints)
    whose crisp evaluation holds on the model's outputs."""
    fn = crisp_fn(f)
    probs = forward_batch(m, d.features)
    if uses_paired_samples(f):
        n = (len(d) // 2) * 2
        if n == 0:
            raise ValueError("need at least two samples for a paired constraint")
        hits = sum(
            fn(
                Env(
                    outputs=probs[i],
                    outputs2=probs[i + 1],
                    inputs=d.features[i],
                    inputs2=d.features[i + 1],
                )
            )
            for i in range(0, n, 2)
        )
        return 100.0 * hits / (n // 2)
    hits = sum(
        fn(Env(outputs=probs[i], inputs=d.features[i])) for i in range(len(d))
    )
    return 100.0 * hits / len(d)


def run(cfg):
    """Train per config; one EpochReport per epoch, deterministic per seed."""
    train, test = _load_data(cfg)
    if train.n_classes != cfg.n_classes and cfg.dataset != "synthetic":
        cfg = dataclasses.replace(cfg, n_classes=train.n_classes)
    tables = _resolve_tables(cfg)
    constraint = build_constraint(cfg, tables)

    backend = None
    train_formula = None
    if cfg.lam > 0.0:
        backend = _training_backend(cfg)
        train_formula = constraint
        if backend.impl is None:
            train_formula = push_negations(train_formula, rewrite_implication=True)

    dims = train.features.shape[1]
    model = init_model([dims, *cfg.hidden, train.n_classes], cfg.seed)
    opt = Optimizer(lr=cfg.lr, momentum=cfg.momentum, seed=cfg.seed)
    shuffle = np.random.default_rng(opt.seed)

    n = len(train)
    reports = []
    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle.permutation(n)
        ce_total = 0.0
        logic_total = 0.0
        for start in range(0, n, cfg.batch_size):
            sl = perm[start : start + cfg.batch_size]
            batch = (train.features[sl], train.labels[sl])
            try:
                ce, logic = train_step(
                    model, batch, cfg.lam, backend, train_formula, opt
                )
            except Exception as exc:
                _add_note(exc, f"backend={cfg.backend} lambda={cfg.lam} epoch={epoch}")
                raise
            ce_total += ce * len(sl)
            logic_total += logic * len(sl)
        reports.append(
            EpochReport(
                epoch=epoch,
                train_ce=ce_total / n,
                train_logic=logic_total / n if cfg.lam > 0.0 else 0.0,
                p_acc=prediction_accuracy(model, test),
                c_acc=constraint_accuracy(model, test, constraint),
            )
        )
    return reports


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


def select_result(reports, window=10, key="product"):
    """(P, C) maximizing the combined score over the last `window` epochs.

    Ties go to the later epoch.  Fewer reports than the window: use all.
    """
    if not reports:
        raise ValueError("no reports to select from")
    score = _score_fn(key)
    best = None
    for r in reports[-window:]:
        s = score(r.p_acc, r.c_acc)
        if best is None or s >= best[0]:
            best = (s, r.p_acc, r.c_acc)
    return best[1], best[2]


def _score_fn(key):
    if key == "product":
        return lambda p, c: p * c
    if key == "sum":
        return lambda p, c: p + c
    raise ValueError(f"unknown selection key {key!r}; valid: product, sum")


def _sweep_point(args):
    cfg, lam = args
    reports = run(dataclasses.replace(cfg, lam=lam))
    return reports


def lambda_sweep(cfg, grid=LAMBDA_GRID, jobs=1, key="product"):
    """One run per lambda (same seed and data); returns (rows, best_lambda)
    with rows of (lambda, P, C).  Ties on the score keep the earlier grid
    entry."""
    grid = list(grid)
    if not grid:
        raise ValueError("empty lambda grid")
    score = _score_fn(key)
    jobs = max(1, int(jobs))
    work = [(cfg, lam) for lam in grid]
    if jobs == 1:
        results = [_sweep_point(w) for w in work]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_sweep_point, w) for w in work]
            results = []
            for lam, fut in zip(grid, futures):
                try:
                    results.append(fut.result())
                except Exception as exc:
                    raise RuntimeError(f"sweep failed at lambda={lam}: {exc}") from exc

    rows = []
    best_lam = None
    best_score = None
    for lam, reports in zip(grid, results):
        p, c = select_result(reports, key=key)
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
