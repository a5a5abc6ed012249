import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicloss.autodiff import grad, val, var
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
    ParseContext,
    Sub,
    batch_of_one,
    eval_crisp,
    parse,
    push_negations,
)
from logicloss.logics import (
    BACKEND_NAMES,
    LogicBackend,
    agg_godel,
    agg_lukasiewicz,
    agg_product,
    agg_sum,
    agg_yager,
    dl2_atom,
    fuzzy_compare,
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
    sigmoidal_truth,
    truth_function,
)
from oracles import finite_diff, pairwise_truth, t_godel, t_lukasiewicz, t_product, t_yager, two_slot

# the library's t-norms: each aggregation operator over two slots
TNORMS = {
    "G": two_slot(agg_godel),
    "LK": two_slot(agg_lukasiewicz),
    "YG": two_slot(agg_yager),
    "P": two_slot(agg_product),
}
SNORMS = {"G": s_godel, "LK": s_lukasiewicz, "YG": s_yager, "PS": s_prob_sum}
IMPLS = {
    "G": i_godel,
    "KD": i_kleene_dienes,
    "LK": i_lukasiewicz,
    "YG": i_yager,
    "GG": i_goguen,
    "RC": i_reichenbach,
}

CTX = ParseContext(n_classes=3, consts={"eps": 0.05})


def _sigmoid_oracle(u: float, s: float = 9.0) -> float:
    # algebraic simplification of the renormalized sigmoid, derived by hand:
    # with E = e^{s/2},  ((1+E) / (1+E e^{-su}) - 1) / (E-1)
    #                  = E (1 - e^{-su}) / ((E-1)(1 + E e^{-su}))
    e = math.exp(s / 2.0)
    return e * (1.0 - math.exp(-s * u)) / ((e - 1.0) * (1.0 + e * math.exp(-s * u)))


# ---------------------------------------------------------------------------
# t-norms and s-norms


def test_tnorm_godel_ignores_second_argument_growth():
    assert TNORMS["G"](0.1, 1.0) == 0.1
    assert TNORMS["G"](0.1, 0.2) == 0.1


def test_tnorm_values():
    assert TNORMS["LK"](0.7, 0.5) == pytest.approx(0.2)
    assert TNORMS["LK"](0.3, 0.5) == 0.0
    assert TNORMS["P"](0.2, 0.3) == pytest.approx(0.06)
    for y in (0.0, 0.25, 1.0):
        assert TNORMS["YG"](1.0, y) == pytest.approx(y, abs=1e-15)


def test_snorm_values():
    assert s_yager(0.3, 0.4) == pytest.approx(0.5)
    assert s_prob_sum(0.5, 0.5) == 0.75
    for name, fn in SNORMS.items():
        for y in (0.0, 0.3, 1.0):
            assert fn(0.0, y) == pytest.approx(y, abs=1e-15), name


def _rand01(rng, n):
    return [rng.random() for _ in range(n)]


def test_tnorm_axioms():
    # 1e4 points, each operator applied to all of them as one batch
    rng = random.Random(11)
    points = []
    for _ in range(10_000):
        x, y, z = _rand01(rng, 3)
        points.append((x, y, z, min(1.0, y + rng.random() * (1.0 - y))))
    x, y, z, y2 = np.array(points).T
    for name, t in TNORMS.items():
        assert np.all(np.abs(t(x, y) - t(y, x)) <= 1e-12), name
        assert np.all(np.abs(t(t(x, y), z) - t(x, t(y, z))) <= 1e-12), name
        assert np.all(t(x, y) <= t(x, y2) + 1e-12), name  # monotone in y
        assert np.all(np.abs(t(1.0, y) - y) <= 1e-12), name  # identity


def test_snorm_duality():
    rng = random.Random(12)
    pairs = [("G", "G"), ("LK", "LK"), ("YG", "YG"), ("P", "PS")]
    x, y = np.array([(rng.random(), rng.random()) for _ in range(10_000)]).T
    for tname, sname in pairs:
        t, s = TNORMS[tname], SNORMS[sname]
        assert np.all(np.abs(s(x, y) - (1.0 - t(1.0 - x, 1.0 - y))) <= 1e-12), sname


def test_norms_stay_in_unit_interval():
    rng = random.Random(13)
    for _ in range(2000):
        x, y = rng.random(), rng.random()
        for t in TNORMS.values():
            assert -1e-12 <= t(x, y) <= 1.0 + 1e-12
        for s in SNORMS.values():
            assert -1e-12 <= s(x, y) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Implications


def test_implication_values():
    assert i_reichenbach(0.5, 0.5) == 0.75
    assert i_yager(0.0, 0.0) == 1.0
    assert i_goguen(0.8, 0.4) == 0.5
    assert i_godel(0.3, 0.7) == 1.0
    assert i_godel(0.7, 0.3) == 0.3
    assert i_godel(0.3, 0.3) == 1.0  # ties take the satisfied branch
    assert i_goguen(0.3, 0.3) == 1.0
    assert i_kleene_dienes(0.3, 0.2) == pytest.approx(0.7)
    assert i_lukasiewicz(0.7, 0.5) == pytest.approx(0.8)
    assert i_lukasiewicz(0.2, 0.5) == 1.0


def test_implication_boundary_laws():
    impls = dict(IMPLS)
    impls["RC-power"] = power_scaled(i_reichenbach)
    ys = [i / 100.0 for i in range(101)]
    for name, impl in impls.items():
        for y in ys:
            assert abs(impl(0.0, y) - 1.0) <= 1e-12, name
            assert abs(impl(1.0, y) - y) <= 1e-12, name


def test_sigmoidal_fixed_points_and_endpoint_laws():
    impl = lambda x, y: sigmoidal_truth(i_reichenbach(x, y))
    ys = [i / 100.0 for i in range(101)]
    for y in ys:
        assert abs(impl(0.0, y) - 1.0) <= 1e-12
        # endpoint law checked through the hand-derived simplification: at
        # x=1 the reshaped implication must equal the reshaped y
        assert abs(impl(1.0, y) - _sigmoid_oracle(y)) <= 1e-12
    for u in (0.0, 0.5, 1.0):
        assert abs(sigmoidal_truth(u) - u) <= 1e-12
        assert abs(_sigmoid_oracle(u) - u) <= 1e-12


def test_sigmoidal_matches_simplified_form_everywhere():
    for i in range(1001):
        u = i / 1000.0
        assert abs(sigmoidal_truth(u) - _sigmoid_oracle(u)) <= 1e-12


def test_sigmoidal_monotone():
    assert sigmoidal_truth(0.3) < sigmoidal_truth(0.7)
    prev = -1.0
    for i in range(101):
        cur = sigmoidal_truth(i / 100.0)
        assert cur > prev
        prev = cur


def test_sigmoidal_output_clamped():
    assert sigmoidal_truth(0.0) == 0.0
    assert sigmoidal_truth(1.0) <= 1.0


def test_power_scaled_reichenbach():
    impl = power_scaled(i_reichenbach)
    assert impl(0.5, 0.5) == pytest.approx(0.9013878188659973, abs=1e-15)
    assert impl(0.5, 0.5) == math.sqrt(0.8125)


def test_sn_implication_identities():
    rng = random.Random(14)
    for _ in range(10_000):
        x, y = rng.random(), rng.random()
        assert i_kleene_dienes(x, y) == s_godel(1.0 - x, y)
        assert abs(i_reichenbach(x, y) - s_prob_sum(1.0 - x, y)) <= 1e-12


def _residuum_sup(t, x, y):
    # the largest candidate on a 1e-3 grid with t(x, cand) <= y; 0 always is
    grid = np.arange(1001) / 1000.0
    return grid[t(x, grid) <= y].max()


def test_residuum_property():
    rng = random.Random(15)
    for _ in range(100):
        x, y = rng.random(), rng.random()
        assert abs(i_godel(x, y) - _residuum_sup(TNORMS["G"], x, y)) <= 2e-3
        assert abs(i_goguen(x, y) - _residuum_sup(TNORMS["P"], x, y)) <= 2e-3


def test_shadow_lifting_product_strict():
    rng = random.Random(16)
    points = []
    for _ in range(10_000):
        x = 1e-6 + rng.random() * (1.0 - 1e-6)
        y2 = rng.random()
        y1 = min(1.0, y2 + 1e-9 + rng.random() * (1.0 - y2))
        points.append((x, y1, y2))
    x, y1, y2 = np.array(points).T
    assert np.all(TNORMS["P"](x, y1) > TNORMS["P"](x, y2))


def test_shadow_lifting_godel_counterexample():
    assert TNORMS["G"](0.1, 1.0) == TNORMS["G"](0.1, 0.2) == 0.1


def test_dl2_conjunction_strictly_monotone():
    conj = two_slot(make_backend("dl2").conj)
    rng = random.Random(17)
    for _ in range(1000):
        a = rng.random() * 5.0
        b = rng.random() * 5.0
        d = 1e-9 + rng.random()
        assert conj(a + d, b) > conj(a, b)


def test_godel_implication_has_no_antecedent_gradient():
    rng = random.Random(18)
    for _ in range(200):
        x = var(rng.random())
        y = var(rng.random())
        if val(x) == val(y):
            continue
        out = i_godel(x, y)
        g = grad(out, [x, y]) if not isinstance(out, float) else {x: 0.0, y: 0.0}
        assert g[x] == 0.0


# ---------------------------------------------------------------------------
# Comparisons


def test_fuzzy_le_satisfied_is_exactly_one():
    assert fuzzy_le(3.0, 5.0) == 1.0
    rng = random.Random(19)
    for _ in range(2000):
        x = rng.uniform(-10, 10)
        y = x + rng.random() * 5.0
        assert fuzzy_le(x, y) == 1.0
        assert fuzzy_le(y + 1e-6, x) < 1.0


def test_fuzzy_le_relative_violation_values():
    assert fuzzy_le(21.0, 20.0) == pytest.approx(0.9756394640682094, abs=1e-12)
    assert fuzzy_le(21000.0, 20000.0) == pytest.approx(0.9756097858417245, abs=1e-12)
    assert fuzzy_le(21.0, 20.0) == 1.0 - 1.0 / 41.05
    assert abs(fuzzy_le(21.0, 20.0) - fuzzy_le(21000.0, 20000.0)) < 1e-3


def test_fuzzy_le_scale_invariant_without_floor():
    rng = random.Random(20)
    for _ in range(500):
        x, y = rng.uniform(-5, 5), rng.uniform(-5, 5)
        if abs(x) + abs(y) == 0.0:
            continue
        base = fuzzy_le(x, y, eps=0.0)
        for k in (0.25, 0.5, 2.0, 1024.0):
            # powers of two rescale exactly in binary floating point
            assert fuzzy_le(k * x, k * y, eps=0.0) == base
        k = rng.uniform(0.1, 100.0)
        assert fuzzy_le(k * x, k * y, eps=0.0) == pytest.approx(base, abs=1e-12)


def test_fuzzy_compare_forms():
    le = fuzzy_le(0.7, 0.5)
    assert fuzzy_compare("<", 0.7, 0.5, agg_product) == le
    assert fuzzy_compare(">=", 0.5, 0.7, agg_product) == le
    assert fuzzy_compare(">", 0.5, 0.7, agg_product) == le
    eq = t_product(fuzzy_le(0.7, 0.5), fuzzy_le(0.5, 0.7))
    assert fuzzy_compare("==", 0.7, 0.5, agg_product) == eq
    assert fuzzy_compare("!=", 0.7, 0.5, agg_product) == 1.0 - eq
    assert fuzzy_compare("==", 0.4, 0.4, agg_product) == 1.0
    with pytest.raises(ValueError):
        fuzzy_compare("<>", 0.1, 0.2, agg_product)


def test_dl2_atom_values():
    assert dl2_atom("<=", 3.0, 5.0) == 0.0
    assert dl2_atom("<=", 5.0, 3.0) == 2.0
    assert dl2_atom("!=", 4.0, 4.0) == 1.0
    assert dl2_atom("!=", 4.0, 4.0, xi=2.5) == 2.5
    assert dl2_atom("!=", 4.0, 5.0) == 0.0
    assert dl2_atom("<", 3.0, 3.0) == 1.0  # tie costs xi
    assert dl2_atom("<", 3.0, 5.0) == 0.0
    assert dl2_atom("<", 5.0, 3.0) == 2.0
    assert dl2_atom(">=", 3.0, 5.0) == 2.0
    assert dl2_atom(">", 5.0, 3.0) == 0.0
    assert dl2_atom("==", 3.0, 5.0) == 2.0
    assert dl2_atom("==", 5.0, 5.0) == 0.0
    with pytest.raises(ValueError):
        dl2_atom("<>", 1.0, 2.0)


def test_dl2_connective_values():
    dl2 = make_backend("dl2")
    assert dl2.conj is agg_sum
    assert two_slot(dl2.conj)(0.5, 1.5) == 2.0
    assert dl2.disj(0.5, 0.0) == 0.0
    assert dl2.disj(0.5, 2.0) == 1.0


# ---------------------------------------------------------------------------
# Backends


def test_backend_registry():
    assert len(BACKEND_NAMES) == 13
    assert BACKEND_NAMES[0] == "dl2"
    for name in BACKEND_NAMES:
        b = make_backend(name)
        assert b.name == name
    # a backend holds one conjunction, and nothing the compiler derives: no
    # implication means a violation measure with "->" and "not" rewritten
    assert [f.name for f in dataclasses.fields(LogicBackend)] == ["name", "conj", "disj", "impl", "compare"]
    assert make_backend("dl2").impl is None
    assert all(make_backend(name).impl is not None for name in BACKEND_NAMES[1:])


def test_backend_unknown_name():
    with pytest.raises(ValueError) as e:
        make_backend("zadeh")
    assert "rc-phi" in str(e.value)


def test_backend_parameter_validation():
    with pytest.raises(ValueError):
        make_backend("rc", eps=0.0)
    with pytest.raises(ValueError):
        make_backend("yg", yager_p=0.5)
    with pytest.raises(ValueError):
        make_backend("rc-s", sigmoidal_s=0.0)
    with pytest.raises(ValueError):
        make_backend("dl2", xi=0.0)
    for bad in (float("nan"), float("inf")):
        for name, option in (
            ("rc", "eps"),
            ("yg", "yager_p"),
            ("rc-s", "sigmoidal_s"),
            ("dl2", "xi"),
        ):
            with pytest.raises(ValueError, match=f"^{option} must be"):
                make_backend(name, **{option: bad})


def test_backend_impl_tables():
    # same conjunction family, swapped implication
    kd = make_backend("kd")
    assert kd.impl(0.3, 0.2) == pytest.approx(0.7)
    gg = make_backend("gg")
    assert gg.impl(0.8, 0.4) == 0.5
    yg = make_backend("yg")
    assert two_slot(yg.conj)(1.0, 0.25) == pytest.approx(0.25)
    tlk = make_backend("tlk")
    assert two_slot(tlk.conj)(0.7, 0.5) == pytest.approx(0.2)  # Lukasiewicz t-norm
    assert tlk.disj(0.5, 0.5) == 0.75  # probabilistic sum

    # every fuzzy backend against the operators it should use (the pairwise
    # t-norms from the oracles), with a non-default Yager p to check that p
    # reaches both Yager operators
    def yager_t(x, y):
        return t_yager(x, y, 3.0)

    def yager_s(x, y):
        return s_yager(x, y, 3.0)

    def rc_sigmoidal(x, y):
        return sigmoidal_truth(i_reichenbach(x, y), 9.0)

    def rc_power(x, y):
        return math.sqrt(i_reichenbach(x * x, y * y))

    expected = {
        "godel": (t_godel, s_godel, i_godel),
        "kd": (t_godel, s_godel, i_kleene_dienes),
        "lk": (t_lukasiewicz, s_lukasiewicz, i_lukasiewicz),
        "gg": (t_product, s_prob_sum, i_goguen),
        "rc": (t_product, s_prob_sum, i_reichenbach),
        "rc-s": (t_product, s_prob_sum, rc_sigmoidal),
        "rc-phi": (t_product, s_prob_sum, rc_power),
        "yg": (yager_t, yager_s, i_yager),
        "tg": (t_godel, s_prob_sum, i_godel),
        "tlk": (t_lukasiewicz, s_prob_sum, i_lukasiewicz),
        "trc": (t_product, s_prob_sum, i_reichenbach),
        "tyg": (yager_t, s_prob_sum, i_yager),
    }
    assert sorted(expected) == sorted(BACKEND_NAMES[1:])
    grid = (0.0, 0.25, 0.5, 0.8, 1.0)
    for name, ops in expected.items():
        b = make_backend(name, yager_p=3.0)
        for op, want in zip((two_slot(b.conj), b.disj, b.impl), ops):
            for x in grid:
                for y in grid:
                    assert op(x, y) == min(1.0, max(0.0, want(x, y))), (name, want, x, y)


def test_backend_options_reach_operators():
    wide = make_backend("rc", eps=1.0)
    narrow = make_backend("rc", eps=0.05)
    assert wide.compare("<=", 0.7, 0.5) != narrow.compare("<=", 0.7, 0.5)
    p3 = make_backend("yg", yager_p=3.0)
    assert two_slot(p3.conj)(0.5, 0.5) == pytest.approx(t_yager(0.5, 0.5, 3.0))
    soft = make_backend("rc-s", sigmoidal_s=2.0)
    hard = make_backend("rc-s", sigmoidal_s=9.0)
    assert soft.impl(0.9, 0.2) != hard.impl(0.9, 0.2)
    costly = make_backend("dl2", xi=7.0)
    assert costly.compare("!=", 2.0, 2.0) == 7.0


# ---------------------------------------------------------------------------
# Compiler


def test_compile_atom_fuzzy():
    f = parse("out[0] <= 0.5", CTX)
    rc = make_backend("rc")
    env = Env(outputs=[0.7, 0.3])
    assert truth_function(f, rc)(env) == pytest.approx(0.84)
    assert loss_function(f, rc)(env) == pytest.approx(0.16)


def test_compile_atom_dl2():
    f = parse("out[0] <= 0.5", CTX)
    dl2 = make_backend("dl2")
    env = Env(outputs=[0.7, 0.3])
    assert loss_function(f, dl2)(env) == pytest.approx(0.2)


def test_compile_satisfied_implication_has_zero_loss():
    f = parse("(out[0] >= 0.1) -> (out[1] >= out[2])", CTX)
    rc = make_backend("rc")
    env = Env(outputs=[0.5, 0.3, 0.1])
    assert truth_function(f, rc)(env) == 1.0
    assert loss_function(f, rc)(env) == 0.0


def test_compile_implication_uses_backend_operator():
    f = parse("(out[0] >= 0.6) -> (out[1] >= out[2])", CTX)
    env = Env(outputs=[0.5, 0.1, 0.3])
    for name in ("rc", "godel", "kd", "lk", "gg", "yg"):
        b = make_backend(name)
        want = b.impl(
            fuzzy_le(0.6, 0.5, 0.05),
            fuzzy_le(0.3, 0.1, 0.05),
        )
        assert truth_function(f, b)(env) == pytest.approx(want, abs=1e-15), name


def test_compile_negation_fuzzy_native():
    f = parse("not out[0] <= 0.5", CTX)
    b = make_backend("godel")
    env = Env(outputs=[0.7])
    assert truth_function(f, b)(env) == pytest.approx(1.0 - 0.84)


@pytest.mark.parametrize(
    "text",
    [
        "(out[0] >= 0.1) -> (out[1] >= out[2])",
        "not ((out[0] <= 0.5) and (out[1] > out[2]))",
        "((out[0] >= 0.3) -> not (out[2] >= out[1])) and not (out[0] != 0.25)",
    ],
    ids=["implies", "not-and", "implies-not-and-not"],
)
def test_compile_dl2_reads_implication_and_negation_as_their_rewrite(text):
    # the batch holds ties (0.25, 0.25) and a threshold hit (0.5)
    f = parse(text, CTX)
    rewritten = push_negations(f, rewrite_implication=True)
    assert rewritten != f
    dl2 = make_backend("dl2")
    probs = np.array([[0.7, 0.5, 0.25, 0.1, 0.3], [0.2, 0.3, 0.25, 0.6, 0.3], [0.1, 0.2, 0.5, 0.3, 0.4]])
    results = []
    for g in (f, rewritten):
        x = var(probs.copy())
        loss = loss_function(g, dl2)(Env(outputs=x))
        results.append((loss.value, grad(loss, [x])[x]))
    (v, dv), (w, dw) = results
    assert v.shape == (5,) and np.any(v > 0.0) and np.any(dv != 0.0)
    assert np.array_equal(v, w) and np.array_equal(dv, dw)
    # one sample: a negated atom is satisfied at 0.7 and violated by 0.1 at 0.4
    neg = parse("not out[0] <= 0.5", CTX)
    assert loss_function(neg, dl2)(Env(outputs=[0.7])) == 0.0
    assert loss_function(neg, dl2)(Env(outputs=[0.4])) == pytest.approx(0.1)


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_truth_function_scores_one_sample_as_a_float_and_rejects_a_node_per_entry(name):
    f = parse("out[0] <= 0.5 and out[1] <= 0.5", CTX)
    truth = truth_function(f, make_backend(name))
    value = truth(Env(outputs=[0.7, 0.2, 0.1]))
    assert type(value) is float
    assert value == np.asarray(truth(Env(outputs=np.array([[0.7], [0.2], [0.1]])))).item()
    with pytest.raises(TypeError, match=r"var\(m\) for its \(entries, 1\) matrix"):
        truth(Env(outputs=[var(0.7), var(0.2), var(0.1)]))


def test_compile_bigand_folds_left():
    ctx = ParseContext(
        n_classes=4,
        binding_sets={"Gs": [(0, 1), (2, 3)]},
        consts={"eps": 0.05},
    )
    f = parse("forall g in Gs: sum(out[g]) >= eps", ctx)
    b = make_backend("rc")
    env = Env(outputs=[0.4, 0.3, 0.2, 0.1])
    want = two_slot(b.conj)(
        b.compare(">=", 0.4 + 0.3, 0.05),
        b.compare(">=", 0.2 + 0.1, 0.05),
    )
    assert truth_function(f, b)(env) == want == 1.0


CTX4 = ParseContext(n_classes=4, consts={"eps": 0.05})
# random rows, and rows with ties, zeros and exact thresholds
_EQ_ROWS = np.vstack(
    [
        np.random.default_rng(5).dirichlet(np.ones(4), size=4),
        [[0.25, 0.25, 0.25, 0.25], [0.4, 0.4, 0.1, 0.1], [0.0, 0.0, 1.0, 0.0], [0.25, 0.5, 0.125, 0.125]],
    ]
)


@pytest.mark.parametrize(
    "text",
    [
        "out[0] == out[1]",
        "out[0] != out[1]",
        "not (out[0] <= out[2])",
        "not (out[0] == out[1])",
        "(out[0] == out[1]) and (out[2] != out[3])",
        "(out[0] == 0.25) or not (out[1] != out[2])",
        # the first two conjuncts share a template, so its == runs on
        # (batch, members) arrays
        "((out[3] >= 0.1) -> (out[0] == out[1])) and ((out[2] >= 0.1) -> (out[1] == out[3]))"
        " and not (out[0] != out[3])",
    ],
)
@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_eq_ne_and_not_score_as_the_pairwise_composition(name, text):
    """`==` reduces its two soft comparisons by the backend's conjunction in
    one node and `not` is 1 - x; both score as the pairwise t-norm inside
    the [0,1] clip and the clipped 1 - x: values bit for bit, gradients to
    1e-15 of the largest entry, one sample's float exactly."""
    f = parse(text, CTX4)
    backend = make_backend(name)
    truth = truth_function(f, backend)
    leaf = var(np.ascontiguousarray(_EQ_ROWS.T))
    env = Env(outputs=leaf)
    got, want = truth(env), pairwise_truth(f, backend, env)
    n = len(_EQ_ROWS)
    assert np.array_equal(np.broadcast_to(val(got), (n,)), np.broadcast_to(val(want), (n,)))
    g, w = (np.broadcast_to(grad(v, [leaf])[leaf], leaf.value.shape) for v in (got, want))
    assert np.abs(g - w).max() <= 1e-15 * np.abs(w).max(), (g, w)
    for row in _EQ_ROWS:
        one = Env(outputs=[float(p) for p in row])
        assert truth(one) == np.asarray(val(pairwise_truth(f, backend, batch_of_one(one)))).item()


def _rand_fragment_formula(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        op = rng.choice(["<=", "<", ">=", ">", "==", "!="])
        def e():
            k = rng.randrange(4)
            if k == 0:
                return Const(rng.choice([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0]))
            if k == 1:
                return Output(rng.randrange(3))
            if k == 2:
                return Output(rng.randrange(3))
            cls = rng.choice([Add, Sub, Mul])
            return cls(Output(rng.randrange(3)), Const(rng.choice([0.25, 0.5, 1.0])))
        return Cmp(op, e(), e())
    a = _rand_fragment_formula(rng, depth - 1)
    b = _rand_fragment_formula(rng, depth - 1)
    f = rng.choice([And, Or, Implies])(a, b)
    return Not(f) if rng.random() < 0.2 else f


def test_dl2_loss_zero_iff_crisp_true():
    dl2 = make_backend("dl2")
    rng = random.Random(20260818)
    pool = [0.0, 0.25, 0.5, 1.0]
    for _ in range(10_000):
        f = _rand_fragment_formula(rng, 4)
        env = Env(outputs=[rng.choice(pool + [rng.random()]) for _ in range(3)])
        loss = loss_function(f, dl2)(env)
        assert loss >= 0.0
        assert (loss == 0.0) == eval_crisp(f, env)


def test_fuzzy_losses_stay_in_unit_interval():
    rng = random.Random(21)
    backends = [make_backend(n) for n in BACKEND_NAMES if n != "dl2"]
    for _ in range(150):
        f = _rand_fragment_formula(rng, 3)
        if rng.random() < 0.5:
            f = Not(f)
        for b in backends:
            fn = loss_function(f, b)
            for _ in range(3):
                env = Env(outputs=[rng.random() for _ in range(3)])
                loss = fn(env)
                assert 0.0 <= loss <= 1.0, b.name


def test_fuzzy_loss_agrees_with_crisp_at_certainty():
    # a satisfied atom has loss exactly 0; an unsatisfied one is positive
    rng = random.Random(22)
    backends = [make_backend(n) for n in BACKEND_NAMES if n != "dl2"]
    for _ in range(500):
        x, y = rng.random(), rng.random()
        f = Cmp("<=", Output(0), Const(y))
        env = Env(outputs=[x])
        for b in backends:
            loss = loss_function(f, b)(env)
            if x <= y:
                assert loss == 0.0, b.name
            else:
                assert loss > 0.0, b.name


def test_compile_gradient_flows_to_outputs():
    f = parse("out[0] <= 0.5", CTX)
    rc = make_backend("rc")
    x = var(np.array([[0.7]]))  # one sample: an (entries, 1) leaf
    out = truth_function(f, rc)(Env(outputs=x))
    g = grad(out, [x])[x]
    fd = finite_diff(lambda p: 1.0 - loss_function(f, rc)(Env(outputs=[p[0]])), [0.7])[0]
    assert g.item() == pytest.approx(fd, rel=1e-6)


def test_compile_loss_value_node_retains_graph():
    f = parse("out[0] <= 0.5", CTX)
    dl2 = make_backend("dl2")
    x = var(np.array([[0.9]]))
    loss = loss_function(f, dl2)(Env(outputs=x))
    assert grad(loss, [x])[x].item() == 1.0


def test_a_one_sample_env_of_tape_nodes_names_the_leaf_to_use():
    f = parse("out[0] <= 0.5", CTX)
    with pytest.raises(TypeError, match=r"var\(m\) for its \(entries, 1\) matrix"):
        loss_function(f, make_backend("rc"))(Env(outputs=[var(0.9), 0.1]))
