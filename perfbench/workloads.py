"""The four benchmark workloads and their output checks.

Each workload is a closed loop: one caller, and the next iteration starts
when the previous one returns.  An iteration works on one *case*; a run
cycles through several cases, each made from its own seed derived from the
benchmark seed, so one run's accuracies and timings average over several
datasets and initialisations instead of resting on one.

Every call into logicloss goes through a module attribute
(`experiment.run`, not a name imported here), so the tracer's wrappers see
the benchmark's own calls as well as the library's internal ones.
"""

import dataclasses
import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from logicloss import constraints, data, experiment, formula, logics, network

# Fixed here, not read from the library, so the workloads and the names of
# their metrics stay the same when the library's lists change.
BACKENDS = ("dl2", "godel", "kd", "lk", "yg", "gg", "rc", "rc-s", "rc-phi", "tg", "tlk", "trc", "tyg")
CONSTRAINTS = ("csim", "group", "lipschitz")
LAMBDA_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
MATRIX_COMBOS = tuple(f"{b}.{c}" for b in BACKENDS for c in CONSTRAINTS)

# The synthetic preset: configs/synthetic-*.cfg on top of the experiment
# defaults, spelled out so that changing a default does not move the benchmark.
_FULL = dict(n_classes=10, n_train=5000, n_test=1000, dims=20, noise_frac=0.1,
             batch_size=256, lr=0.05, momentum=0.9, hidden=(64,))
_TINY = dict(_FULL, n_train=200, n_test=100, batch_size=64, hidden=(8,))


def case_seed(seed, i):
    return seed * 1000 + i


@dataclass
class Outcome:
    """One iteration: what was attempted, what failed, and what it returned."""

    attempted: int
    failed: int = 0
    results: list = field(default_factory=list)  # one comparable item per unit, None if failed
    # key -> (samples whose combined loss and gradient were computed,
    #         wall seconds inside the logicloss call); keys repeat across
    #         iterations
    timings: dict = field(default_factory=dict)
    accuracy: tuple = None  # (prediction %, constraint %)
    errors: list = field(default_factory=list)

    @property
    def seconds(self):
        return sum(t for _, t in self.timings.values())

    def fail_all(self, key, seconds, error):
        """Count every unit of the iteration as failed."""
        self.timings[key] = (0, seconds)
        self.failed, self.results = self.attempted, [None] * self.attempted
        self.errors.append(error)
        return self


def _finite_percent(x):
    return math.isfinite(x) and 0.0 <= x <= 100.0


def _check_reports(reports, epochs):
    if len(reports) != epochs:
        return f"{len(reports)} reports for {epochs} epochs"
    for r in reports:
        if not (math.isfinite(r.train_ce) and math.isfinite(r.train_logic)):
            return f"non-finite loss at epoch {r.epoch}"
        if not (_finite_percent(r.p_acc) and _finite_percent(r.c_acc)):
            return f"accuracy out of range at epoch {r.epoch}"
    return None


class _FirstStep(BaseException):
    """Stops `experiment.run` at its first training step (passes its `except Exception`)."""


def time_to_first_step(cfg):
    """Seconds from calling `experiment.run` to its first `train_step` call."""
    real = experiment.train_step
    reached = []

    def first_step(*args, **kwargs):
        reached.append(time.perf_counter())
        raise _FirstStep

    experiment.train_step = first_step
    start = time.perf_counter()
    try:
        experiment.run(cfg)
    except _FirstStep:
        return reached[0] - start
    finally:
        experiment.train_step = real
    raise RuntimeError("experiment.run returned without calling experiment.train_step")


class TrainRuns:
    """`experiment.run` on the synthetic preset, a few epochs per call."""

    def __init__(self, name, tiny, lam, epochs, cases, trace_cases):
        self.name = name
        self.base = experiment.ExperimentConfig(
            dataset="synthetic", backend="rc", constraint="csim", lam=lam, epochs=epochs,
            **(_TINY if tiny else _FULL))
        self.cases = cases
        self.trace_cases = trace_cases
        self.jobs = 1

    def make_cases(self, seed, n):
        return [dataclasses.replace(self.base, seed=case_seed(seed, i)) for i in range(n)]

    def setup_seconds(self, cfg, clock):
        return clock.call(time_to_first_step, cfg)

    def iterate(self, cfg, clock):
        out = Outcome(attempted=1)
        try:
            reports = clock.call(experiment.run, cfg)
        except Exception as exc:
            return out.fail_all(cfg.seed, clock.wall, f"{type(exc).__name__}: {exc}")
        dt = clock.wall
        problem = _check_reports(reports, cfg.epochs)
        if problem:
            return out.fail_all(cfg.seed, dt, problem)
        out.timings[cfg.seed] = (cfg.epochs * cfg.n_train, dt)
        out.results = [tuple(dataclasses.astuple(r) for r in reports)]
        out.accuracy = experiment.select_result(reports)
        return out


class Sweep:
    """`experiment.lambda_sweep` over the lambda grid with dl2 and lipschitz."""

    def __init__(self, name, tiny, epochs, cases):
        self.name = name
        self.base = experiment.ExperimentConfig(
            dataset="synthetic", backend="dl2", constraint="lipschitz", lam=0.0, epochs=epochs,
            **(_TINY if tiny else _FULL))
        self.grid = (0.0, 1.0) if tiny else LAMBDA_GRID
        self.cases = cases
        self.trace_cases = min(cases, 2)
        self.jobs = len(os.sched_getaffinity(0))

    def make_cases(self, seed, n):
        return [dataclasses.replace(self.base, seed=case_seed(seed, i)) for i in range(n)]

    def setup_seconds(self, cfg, clock):
        """Set-up of one sweep point: the first lambda > 0 on the grid."""
        point = dataclasses.replace(cfg, lam=next(x for x in self.grid if x > 0.0))
        return clock.call(time_to_first_step, point)

    def iterate(self, cfg, clock):
        n = len(self.grid)
        out = Outcome(attempted=n)
        try:
            rows, best = clock.call(experiment.lambda_sweep, cfg, grid=self.grid, jobs=self.jobs)
        except Exception as exc:
            return out.fail_all(cfg.seed, clock.wall, f"{type(exc).__name__}: {exc}")
        dt = clock.wall
        if len(rows) != n or best not in self.grid:
            return out.fail_all(cfg.seed, dt, f"{len(rows)} rows for {n} points, best lambda {best!r}")
        samples = 0
        for lam, row in zip(self.grid, rows):
            if row[0] == lam and _finite_percent(row[1]) and _finite_percent(row[2]):
                out.results.append(tuple(row))
                samples += cfg.epochs * cfg.n_train
            else:
                out.failed += 1
                out.results.append(None)
                out.errors.append(f"bad sweep row {row!r} at lambda={lam}")
        out.timings[cfg.seed] = (samples, dt)
        if not out.failed:
            _, p, c = rows[self.grid.index(best)]
            out.accuracy = (p, c)
        return out


@dataclass
class MatrixCase:
    seed: int
    model: object
    X: np.ndarray
    y: np.ndarray
    combos: list  # (name, backend, formula, reference loss)
    accuracy: tuple


class LogicMatrix:
    """`network.loss_gradients` on one batch for every backend x constraint."""

    def __init__(self, name, tiny, cases):
        self.name = name
        self.cfg = experiment.ExperimentConfig(
            dataset="synthetic", backend="rc", constraint="csim", lam=0.0,
            **(_TINY if tiny else _FULL))
        self.batch = 32 if tiny else 256
        self.pretrain_epochs = 1 if tiny else 5
        self.cases = cases
        self.trace_cases = min(cases, 3)
        self.jobs = 1

    def _build(self, seed):
        """Data, constraints, backends and a briefly CE-trained model."""
        cfg = self.cfg
        train, test = data.gen_synthetic(
            seed, cfg.n_train, cfg.n_test, cfg.n_classes, cfg.dims, cfg.noise_frac)
        tables = constraints.synthetic_tables(cfg.n_classes)
        formulas = {c: experiment.build_constraint(dataclasses.replace(cfg, constraint=c), tables)
                    for c in CONSTRAINTS}
        combos = []
        for b in BACKENDS:
            backend = logics.make_backend(b)
            for c in CONSTRAINTS:
                f = formulas[c]
                if backend.impl is None:
                    f = formula.push_negations(f, rewrite_implication=True)
                combos.append((f"{b}.{c}", backend, f))
        model = network.init_model([cfg.dims, *cfg.hidden, cfg.n_classes], seed)
        opt = network.Optimizer(lr=cfg.lr, momentum=cfg.momentum)
        order = np.random.default_rng(seed)
        for _ in range(self.pretrain_epochs):
            perm = order.permutation(len(train))
            for start in range(0, len(train), cfg.batch_size):
                sl = perm[start:start + cfg.batch_size]
                network.train_step(model, (train.features[sl], train.labels[sl]), 0.0, None, None, opt)
        return model, train, test, formulas, combos

    def make_cases(self, seed, n):
        cases = []
        for i in range(n):
            model, train, test, formulas, combos = self._build(case_seed(seed, i))
            # a CE-trained model meets csim only by chance; the mean over all
            # three constraints varies far less from seed to seed
            accuracy = (experiment.prediction_accuracy(model, test),
                        statistics.fmean(experiment.constraint_accuracy(model, test, formulas[c])
                                         for c in CONSTRAINTS))
            X, y = train.features[:self.batch], train.labels[:self.batch]
            probs = network.forward_batch(model, X)
            combos = [(name, backend, f, reference_loss(f, backend, probs, X))
                      for name, backend, f in combos]
            cases.append(MatrixCase(case_seed(seed, i), model, X, y, combos, accuracy))
        return cases

    def setup_seconds(self, case, clock):
        clock.call(self._build, case.seed)
        return clock.wall

    def iterate(self, case, clock):
        out = Outcome(attempted=len(case.combos), accuracy=case.accuracy)
        for name, backend, f, ref in case.combos:
            try:
                ce, logic, gw, gb = clock.call(
                    network.loss_gradients, case.model, case.X, case.y, 1.0, backend, f)
            except Exception as exc:
                dt = clock.wall
                problem = f"{type(exc).__name__}: {exc}"
            else:
                dt = clock.wall
                problem = _check_matrix(ce, logic, gw + gb, ref)
            if problem:
                out.timings[name] = (0, dt)
                out.failed += 1
                out.results.append(None)
                out.errors.append(f"{name}: {problem}")
            else:
                out.timings[name] = (len(case.X), dt)
                grads = np.concatenate([g.ravel() for g in gw + gb])
                out.results.append((ce, logic, hashlib.sha256(grads.tobytes()).hexdigest()))
        return out


def reference_loss(f, backend, probs, X):
    """Mean of per-sample float evaluations of the compiled loss."""
    fn = logics.loss_function(f, backend)
    rows = [[float(p) for p in row] for row in probs]
    if formula.uses_paired_samples(f):
        losses = [fn(formula.Env(outputs=rows[i], outputs2=rows[i + 1], inputs=X[i], inputs2=X[i + 1]))
                  for i in range(0, len(rows) - 1, 2)]
    else:
        losses = [fn(formula.Env(outputs=rows[i], inputs=X[i])) for i in range(len(rows))]
    return float(np.mean([float(v) for v in losses]))


def _check_matrix(ce, logic, grads, ref):
    if not (math.isfinite(ce) and math.isfinite(logic)):
        return f"non-finite loss: ce={ce}, logic={logic}"
    if not all(np.all(np.isfinite(g)) for g in grads):
        return "non-finite gradient"
    if abs(logic - ref) > 1e-9 * max(1.0, abs(ref)):
        return f"batch logic loss {logic!r} != per-sample mean {ref!r}"
    return None


def build(name, tiny=False):
    if name == "train-csim-rc":
        return TrainRuns(name, tiny, lam=0.8, epochs=1, cases=2 if tiny else 8, trace_cases=2)
    if name == "train-ce":
        return TrainRuns(name, tiny, lam=0.0, epochs=2 if tiny else 5, cases=2 if tiny else 80,
                         trace_cases=2 if tiny else 10)
    if name == "sweep-lipschitz-dl2":
        return Sweep(name, tiny, epochs=1, cases=2 if tiny else 4)
    if name == "logic-matrix":
        return LogicMatrix(name, tiny, cases=2 if tiny else 6)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("train-csim-rc", "train-ce", "sweep-lipschitz-dl2", "logic-matrix")
