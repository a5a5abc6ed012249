"""Acceptance suite: one test per numbered criterion, one PASS/FAIL line each.

Run with -s to see the lines as they print.  Every check keeps two
independent routes where the criterion asks for one: closed forms against
brute force, tape gradients against finite differences, crisp truth against
compiled losses.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from logicloss.autodiff import grad, track_branch_margins
from logicloss.cli import main
from logicloss.constraints import csim_formula, synthetic_tables
from logicloss.experiment import (
    LAMBDA_GRID,
    EpochReport,
    ExperimentConfig,
    lambda_sweep,
    report_lines,
    run,
    select_result,
)
from logicloss.formula import (
    Add,
    And,
    Cmp,
    Const,
    Env,
    Implies,
    Mul,
    Not,
    Or,
    Output,
    Sub,
    eval_crisp,
    push_negations,
)
from logicloss.logics import (
    BACKEND_NAMES,
    fuzzy_le,
    i_godel,
    i_goguen,
    i_kleene_dienes,
    i_lukasiewicz,
    i_reichenbach,
    i_yager,
    loss_function,
    make_backend,
    power_scaled,
    s_godel,
    s_lukasiewicz,
    s_prob_sum,
    s_yager,
    sigmoidal,
    t_godel,
    t_lukasiewicz,
    t_product,
    t_yager,
)
from logicloss.network import forward_batch, init_model
from oracles import forward_nodes


@contextmanager
def criterion(n, text):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n}: {text}")
        raise
    print(f"PASS criterion {n}: {text}")


# ---------------------------------------------------------------------------
# 1. conjunction/disjunction operator axioms


def test_criterion_1_operator_axioms():
    with criterion(1, "t-norm axioms and S/T duality, 1e4 points, tol 1e-12, < 5 s"):
        t0 = time.perf_counter()
        tol = 1e-12
        tnorms = {
            "min": t_godel,
            "luka": t_lukasiewicz,
            "product": t_product,
            "yager": lambda x, y: t_yager(x, y, 2.0),
        }
        pairs = {
            "min": (t_godel, s_godel),
            "luka": (t_lukasiewicz, s_lukasiewicz),
            "product": (t_product, s_prob_sum),
            "yager": (lambda x, y: t_yager(x, y, 2.0), lambda x, y: s_yager(x, y, 2.0)),
        }
        rng = random.Random(20260818)
        for name, t in tnorms.items():
            for _ in range(10_000):
                x, y, z, w = (rng.random() for _ in range(4))
                lo, hi = min(x, w), max(x, w)
                assert abs(t(x, y) - t(y, x)) <= tol, name
                assert abs(t(t(x, y), z) - t(x, t(y, z))) <= tol, name
                assert t(lo, y) <= t(hi, y) + tol, name
                assert abs(t(x, 1.0) - x) <= tol, name
        for name, (t, s) in pairs.items():
            for _ in range(10_000):
                x, y = rng.random(), rng.random()
                assert abs(s(x, y) - (1.0 - t(1.0 - x, 1.0 - y))) <= tol, name
        assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# 2. implication endpoint laws


def _sigmoid_reshaped(y, s=9.0):
    # independently derived closed form of the renormalized sigmoid at x=1
    e_half = math.exp(s / 2.0)
    return ((1.0 + e_half) / (1.0 + math.exp(s / 2.0 - s * y)) - 1.0) / (e_half - 1.0)


def test_criterion_2_implication_endpoint_laws():
    with criterion(2, "I(0,y)=1 and I(1,y)=y for 8 implication forms, tol 1e-9"):
        forms = [
            ("godel", i_godel, lambda y: y),
            ("kleene-dienes", i_kleene_dienes, lambda y: y),
            ("lukasiewicz", i_lukasiewicz, lambda y: y),
            ("yager", i_yager, lambda y: y),
            ("goguen", i_goguen, lambda y: y),
            ("reichenbach", i_reichenbach, lambda y: y),
            # the sigmoid transform keeps I(0,y)=1 and fixes y=0,1 but
            # reshapes the interior, so the oracle is the reshaped curve
            ("reichenbach-sigmoidal", sigmoidal(i_reichenbach, 9.0), _sigmoid_reshaped),
            ("reichenbach-square", power_scaled(i_reichenbach), lambda y: y),
        ]
        for name, impl, at_one in forms:
            for i in range(101):
                y = i / 100.0
                assert abs(impl(0.0, y) - 1.0) <= 1e-9, (name, y)
                assert abs(impl(1.0, y) - at_one(y)) <= 1e-9, (name, y)
        assert abs(_sigmoid_reshaped(0.0)) == 0.0
        assert abs(_sigmoid_reshaped(1.0) - 1.0) <= 1e-15


# ---------------------------------------------------------------------------
# 3. residuum against brute force


def test_criterion_3_residuum_brute_force():
    with criterion(3, "goedel/goguen residua match sup-scan on a 1e-3 grid, tol 2e-3"):
        rng = random.Random(7)
        grid = [t / 1000.0 for t in range(1001)]
        for impl, tnorm in ((i_godel, t_godel), (i_goguen, t_product)):
            for _ in range(100):
                x, y = rng.random(), rng.random()
                sup = max(t for t in grid if tnorm(x, t) <= y)
                assert abs(impl(x, y) - sup) <= 2e-3, (impl.__name__, x, y)


# ---------------------------------------------------------------------------
# 4. hinge-style compilation is sound against crisp truth


_CMP_OPS = ("<=", "<", ">=", ">", "==", "!=")
_GRID_CONSTS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _rand_expr(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.55:
            return Output(rng.randrange(4))
        return Const(rng.choice(_GRID_CONSTS))
    op = rng.choice((Add, Sub, Mul))
    return op(_rand_expr(rng, depth - 1), _rand_expr(rng, depth - 1))


def _rand_formula(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        return Cmp(rng.choice(_CMP_OPS), _rand_expr(rng, 1), _rand_expr(rng, 1))
    r = rng.random()
    if r < 0.35:
        return And(_rand_formula(rng, depth - 1), _rand_formula(rng, depth - 1))
    if r < 0.70:
        return Or(_rand_formula(rng, depth - 1), _rand_formula(rng, depth - 1))
    if r < 0.85:
        return Implies(_rand_formula(rng, depth - 1), _rand_formula(rng, depth - 1))
    return Not(_rand_formula(rng, depth - 1))


def test_criterion_4_hinge_loss_soundness():
    with criterion(4, "hinge loss is 0 iff crisply true on 1e4 random formulas"):
        rng = random.Random(42)
        backend = make_backend("dl2")
        n_true = 0
        for _ in range(10_000):
            f = _rand_formula(rng, rng.randrange(1, 5))
            outs = [
                rng.choice(_GRID_CONSTS) if rng.random() < 0.5 else rng.random()
                for _ in range(4)
            ]
            env = Env(outputs=outs)
            truth = eval_crisp(f, env)
            rewritten = push_negations(f, rewrite_implication=True)
            assert eval_crisp(rewritten, env) == truth
            loss = loss_function(rewritten, backend)(env)
            assert loss >= 0.0
            assert (loss == 0.0) == truth, (f, outs)
            n_true += truth
        # the sample must exercise both outcomes for the iff to mean anything
        assert 1000 < n_true < 9000


# ---------------------------------------------------------------------------
# 5. gradients of the compiled ordering constraint through the network


def test_criterion_5_gradient_matches_finite_differences():
    with criterion(5, "tape gradient vs central FD (h=1e-5), 200 points, rel 1e-3, < 60 s"):
        t0 = time.perf_counter()
        h = 1e-5
        sizes = [4, 8, 10]
        tables = synthetic_tables(10)
        plain = csim_formula(tables.triples, 10)
        rewritten = push_negations(plain, rewrite_implication=True)
        backends = [make_backend(name) for name in BACKEND_NAMES]

        checked = 0
        trial = 0
        while checked < 200:
            trial += 1
            assert trial < 2000, "resampling filter rejected too many points"
            backend = backends[checked % len(backends)]
            f = rewritten if backend.impl is None else plain
            fn = loss_function(f, backend)
            m = init_model(sizes, seed=trial)
            rng = np.random.default_rng([11, trial])
            for w in m.weights:
                w += rng.normal(scale=0.4, size=w.shape)
            for b in m.biases:
                b += rng.normal(scale=0.2, size=b.shape)
            x = rng.normal(size=sizes[0])
            xs = [float(v) for v in x]

            probs, wnodes, bnodes = forward_nodes(m, x)
            with track_branch_margins() as margins:
                loss = fn(Env(outputs=probs, inputs=xs))
            if any(0.0 < mg <= 1e-3 for mg in margins):
                continue  # within finite-difference reach of a kink
            nodes = [w for layer in wnodes for row in layer for w in row]
            nodes += [b for layer in bnodes for b in layer]
            if isinstance(loss, float):
                analytic = np.zeros(len(nodes))
            else:
                g = grad(loss, nodes)
                analytic = np.array([g[n] for n in nodes])

            def scalar():
                return float(fn(Env(outputs=list(forward_batch(m, x[None, :])[0]), inputs=xs)))

            fd = []
            for arr in list(m.weights) + list(m.biases):
                flat = arr.reshape(-1)
                for i in range(flat.size):
                    keep = flat[i]
                    flat[i] = keep + h
                    up = scalar()
                    flat[i] = keep - h
                    down = scalar()
                    flat[i] = keep
                    fd.append((up - down) / (2.0 * h))
            fd = np.array(fd)

            err = np.linalg.norm(analytic - fd)
            scale = np.linalg.norm(fd)
            if scale < 1e-8:
                assert err < 1e-6, (backend.name, trial)
            else:
                assert err / scale <= 1e-3, (backend.name, trial, err / scale)
            checked += 1

        assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 6. strict monotonicity of the product conjunction; the min counterexample


def test_criterion_6_shadow_lifting():
    with criterion(6, "product conjunction strictly monotone; min is not"):
        rng = random.Random(99)
        for _ in range(10_000):
            x = 1.0 - rng.random()  # (0, 1]
            a, b = rng.random(), rng.random()
            lo, hi = min(a, b), max(a, b)
            if lo == hi:
                continue
            assert t_product(x, lo) < t_product(x, hi)
        # raising the second conjunct from 0.2 to 1.0 does not move min at all
        assert t_godel(0.1, 1.0) == 0.1
        assert t_godel(0.1, 0.2) == 0.1


# ---------------------------------------------------------------------------
# 7. scale behavior of the relative comparison truth


def test_criterion_7_comparison_scale_behavior():
    with criterion(7, "eps=0 scale invariance; the 21/20 vs 21000/20000 pair"):
        rng = random.Random(3)
        for _ in range(500):
            x = rng.uniform(-5.0, 5.0)
            y = rng.uniform(-5.0, 5.0)
            if abs(x) + abs(y) == 0.0:
                continue
            # dyadic factors scale numerator and denominator exactly
            k = 2.0 ** rng.randint(-8, 8)
            assert fuzzy_le(k * x, k * y, eps=0.0) == fuzzy_le(x, y, eps=0.0)
            k = math.exp(rng.uniform(-4.0, 4.0))
            assert abs(fuzzy_le(k * x, k * y, eps=0.0) - fuzzy_le(x, y, eps=0.0)) <= 1e-12

        small = fuzzy_le(21.0, 20.0)
        big = fuzzy_le(21000.0, 20000.0)
        assert small == pytest.approx(0.9756394640682094, abs=1e-12)
        assert big == pytest.approx(0.9756097858417245, abs=1e-12)
        assert abs(small - big) < 1e-3


# ---------------------------------------------------------------------------
# 8. directional training effect on the synthetic preset


def test_criterion_8_preset_training_trend():
    with criterion(
        8,
        "rc@0.8 and dl2@0.6 gain >= 10 points constraint accuracy, "
        "prediction within 10, < 5 min",
    ):
        t0 = time.perf_counter()
        results = {}
        for backend, lam in (("rc", 0.0), ("rc", 0.8), ("dl2", 0.6)):
            reports = run(ExperimentConfig(backend=backend, lam=lam))
            results[(backend, lam)] = select_result(reports)
        elapsed = time.perf_counter() - t0

        p0, c0 = results[("rc", 0.0)]
        for key in (("rc", 0.8), ("dl2", 0.6)):
            p, c = results[key]
            assert c - c0 >= 10.0, (key, c, c0)
            assert abs(p - p0) <= 10.0, (key, p, p0)
        assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 9. sweep protocol: the 15-value grid and the last-10-epochs product rule


def test_criterion_9_sweep_protocol(monkeypatch, capsys):
    with criterion(9, "sweep covers the 15-value grid; selection matches hand oracle"):
        # stub trainer: quality is a known function of lambda, so the
        # winning grid point is computable by hand
        def fake_point(args):
            _, lam = args
            return [EpochReport(1, 0.0, 0.0, 100.0 - 5.0 * lam, 10.0 * lam)]

        monkeypatch.setattr("logicloss.experiment._sweep_point", fake_point)
        rows, best = lambda_sweep(ExperimentConfig(), jobs=1)
        assert [lam for lam, _, _ in rows] == list(LAMBDA_GRID)
        assert len(rows) == 15
        # (100-5L)*(10L) over the grid peaks at L=10: 50*100=5000 beats 55*90
        assert best == 10.0

        # the command front end defaults to the same grid
        code = main(["sweep", "--logic", "rc"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "Lambda,P,C"
        assert len(lines) == 17  # header + 15 rows + best line
        assert [line.split(",")[0] for line in lines[1:16]] == [
            "0", "0.2", "0.4", "0.6", "0.8", "1", "2", "3", "4", "5",
            "6", "7", "8", "9", "10",
        ]
        assert lines[16] == "best lambda: 10"

        # selection rule on a hand-worked report sequence: products over the
        # last 10 epochs are 4200, 5950, 5600, 4800, 5625, 4500, 5904, 4800,
        # 5846, 5920; epochs 1-2 (8100, 7744) fall outside the window
        pairs = [
            (90.0, 90.0), (88.0, 88.0),
            (70.0, 60.0), (85.0, 70.0), (80.0, 70.0), (60.0, 80.0),
            (75.0, 75.0), (50.0, 90.0), (82.0, 72.0), (80.0, 60.0),
            (79.0, 74.0), (80.0, 74.0),
        ]
        reports = [
            EpochReport(i + 1, 0.0, 0.0, p, c) for i, (p, c) in enumerate(pairs)
        ]
        assert select_result(reports) == (85.0, 70.0)
        # equal products: the later epoch wins
        tie = [EpochReport(1, 0.0, 0.0, 60.0, 80.0), EpochReport(2, 0.0, 0.0, 80.0, 60.0)]
        assert select_result(tie) == (80.0, 60.0)


# ---------------------------------------------------------------------------
# 10. run-to-run determinism of the report files


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "identical configs give byte-identical CSV reports"):
        cfg = ExperimentConfig(
            backend="rc",
            lam=0.8,
            epochs=4,
            n_train=600,
            n_test=200,
            batch_size=128,
            seed=12,
        )
        texts = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            path.write_text(report_lines(run(cfg)))
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]
