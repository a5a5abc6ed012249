import math
import random

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
    Mul,
    Not,
    Or,
    Output,
    ParseContext,
    Sub,
    eval_crisp,
    parse,
    push_negations,
)
from logicloss.logics import (
    BACKEND_NAMES,
    ONE_WHEN_TRUE,
    ZERO_WHEN_TRUE,
    CompileError,
    dl2_atom,
    dl2_connective,
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
    n_standard,
    power_scaled,
    s_godel,
    s_lukasiewicz,
    s_prob_sum,
    s_yager,
    sigmoidal_truth,
    t_godel,
    t_lukasiewicz,
    t_product,
    t_yager,
    truth_function,
)
from oracles import finite_diff

TNORMS = {"G": t_godel, "LK": t_lukasiewicz, "YG": t_yager, "P": t_product}
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
    assert t_godel(0.1, 1.0) == 0.1
    assert t_godel(0.1, 0.2) == 0.1


def test_tnorm_values():
    assert t_lukasiewicz(0.7, 0.5) == pytest.approx(0.2)
    assert t_lukasiewicz(0.3, 0.5) == 0.0
    assert t_product(0.2, 0.3) == pytest.approx(0.06)
    for y in (0.0, 0.25, 1.0):
        assert t_yager(1.0, y) == pytest.approx(y, abs=1e-15)


def test_snorm_values():
    assert s_yager(0.3, 0.4) == pytest.approx(0.5)
    assert s_prob_sum(0.5, 0.5) == 0.75
    for name, fn in SNORMS.items():
        for y in (0.0, 0.3, 1.0):
            assert fn(0.0, y) == pytest.approx(y, abs=1e-15), name


def _rand01(rng, n):
    return [rng.random() for _ in range(n)]


def test_tnorm_axioms():
    rng = random.Random(11)
    for _ in range(10_000):
        x, y, z = _rand01(rng, 3)
        y2 = min(1.0, y + rng.random() * (1.0 - y))
        for name, t in TNORMS.items():
            assert abs(t(x, y) - t(y, x)) <= 1e-12, name
            assert abs(t(t(x, y), z) - t(x, t(y, z))) <= 1e-12, name
            assert t(x, y) <= t(x, y2) + 1e-12, name  # monotone in y
            assert abs(t(1.0, y) - y) <= 1e-12, name  # identity


def test_snorm_duality():
    rng = random.Random(12)
    pairs = [("G", "G"), ("LK", "LK"), ("YG", "YG"), ("P", "PS")]
    for _ in range(10_000):
        x, y = rng.random(), rng.random()
        for tname, sname in pairs:
            t, s = TNORMS[tname], SNORMS[sname]
            assert abs(s(x, y) - (1.0 - t(1.0 - x, 1.0 - y))) <= 1e-12, sname


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
        assert i_kleene_dienes(x, y) == s_godel(n_standard(x), y)
        assert abs(i_reichenbach(x, y) - s_prob_sum(n_standard(x), y)) <= 1e-12


def _residuum_sup(t, x, y):
    best = 0.0
    for i in range(1001):
        cand = i / 1000.0
        if t(x, cand) <= y:
            best = cand
    return best


def test_residuum_property():
    rng = random.Random(15)
    for _ in range(100):
        x, y = rng.random(), rng.random()
        assert abs(i_godel(x, y) - _residuum_sup(t_godel, x, y)) <= 2e-3
        assert abs(i_goguen(x, y) - _residuum_sup(t_product, x, y)) <= 2e-3


def test_shadow_lifting_product_strict():
    rng = random.Random(16)
    for _ in range(10_000):
        x = 1e-6 + rng.random() * (1.0 - 1e-6)
        y2 = rng.random()
        y1 = min(1.0, y2 + 1e-9 + rng.random() * (1.0 - y2))
        assert t_product(x, y1) > t_product(x, y2)


def test_shadow_lifting_godel_counterexample():
    assert t_godel(0.1, 1.0) == t_godel(0.1, 0.2) == 0.1


def test_dl2_conjunction_strictly_monotone():
    rng = random.Random(17)
    for _ in range(1000):
        a = rng.random() * 5.0
        b = rng.random() * 5.0
        d = 1e-9 + rng.random()
        assert dl2_connective("and", a + d, b) > dl2_connective("and", a, b)


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
    assert fuzzy_compare("<", 0.7, 0.5, t_product) == le
    assert fuzzy_compare(">=", 0.5, 0.7, t_product) == le
    assert fuzzy_compare(">", 0.5, 0.7, t_product) == le
    eq = t_product(fuzzy_le(0.7, 0.5), fuzzy_le(0.5, 0.7))
    assert fuzzy_compare("==", 0.7, 0.5, t_product) == eq
    assert fuzzy_compare("!=", 0.7, 0.5, t_product) == 1.0 - eq
    assert fuzzy_compare("==", 0.4, 0.4, t_product) == 1.0
    with pytest.raises(ValueError):
        fuzzy_compare("<>", 0.1, 0.2, t_product)


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
    assert dl2_connective("and", 0.5, 1.5) == 2.0
    assert dl2_connective("or", 0.5, 0.0) == 0.0
    assert dl2_connective("or", 0.5, 2.0) == 1.0
    with pytest.raises(ValueError):
        dl2_connective("xor", 0.1, 0.2)


# ---------------------------------------------------------------------------
# Backends


def test_backend_registry():
    assert len(BACKEND_NAMES) == 13
    assert BACKEND_NAMES[0] == "dl2"
    for name in BACKEND_NAMES:
        b = make_backend(name)
        assert b.name == name
    assert make_backend("dl2").polarity == ZERO_WHEN_TRUE
    assert make_backend("rc").polarity == ONE_WHEN_TRUE


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
    nan = float("nan")
    for name, option in (
        ("rc", "eps"),
        ("yg", "yager_p"),
        ("rc-s", "sigmoidal_s"),
        ("dl2", "xi"),
    ):
        with pytest.raises(ValueError):
            make_backend(name, **{option: nan})


def test_backend_impl_tables():
    # same conjunction family, swapped implication
    kd = make_backend("kd")
    assert kd.impl(0.3, 0.2) == pytest.approx(0.7)
    gg = make_backend("gg")
    assert gg.impl(0.8, 0.4) == 0.5
    yg = make_backend("yg")
    assert yg.conj(1.0, 0.25) == pytest.approx(0.25)
    tlk = make_backend("tlk")
    assert tlk.conj(0.7, 0.5) == pytest.approx(0.2)  # Lukasiewicz t-norm
    assert tlk.disj(0.5, 0.5) == 0.75  # probabilistic sum

    # every fuzzy backend against the operators it should use, with a
    # non-default Yager p to check that p reaches both Yager operators
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
        for op, want in zip((b.conj, b.disj, b.impl), ops):
            for x in grid:
                for y in grid:
                    assert op(x, y) == min(1.0, max(0.0, want(x, y))), (name, want, x, y)


def test_backend_options_reach_operators():
    wide = make_backend("rc", eps=1.0)
    narrow = make_backend("rc", eps=0.05)
    assert wide.compare("<=", 0.7, 0.5) != narrow.compare("<=", 0.7, 0.5)
    p3 = make_backend("yg", yager_p=3.0)
    assert p3.conj(0.5, 0.5) == pytest.approx(t_yager(0.5, 0.5, 3.0))
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


def test_compile_dl2_rejects_implication_and_negation():
    dl2 = make_backend("dl2")
    impl = parse("(out[0] >= 0.1) -> (out[1] >= out[2])", CTX)
    with pytest.raises(CompileError, match="rewrite_implication"):
        truth_function(impl, dl2)
    neg = parse("not out[0] <= 0.5", CTX)
    with pytest.raises(CompileError, match="push_negations"):
        truth_function(neg, dl2)
    # the instructed preprocessing makes both compile
    env = Env(outputs=[0.7, 0.3, 0.2])
    fixed = push_negations(impl, rewrite_implication=True)
    assert loss_function(fixed, dl2)(env) >= 0.0
    # negated atom becomes 0.5 < out[0]: satisfied at 0.7, violated by 0.1 at 0.4
    assert loss_function(push_negations(neg), dl2)(env) == 0.0
    assert loss_function(push_negations(neg), dl2)(Env(outputs=[0.4])) == pytest.approx(0.1)


def test_compile_bigand_folds_left():
    ctx = ParseContext(
        n_classes=4,
        binding_sets={"Gs": [(0, 1), (2, 3)]},
        consts={"eps": 0.05},
    )
    f = parse("forall g in Gs: sum(out[g]) >= eps", ctx)
    b = make_backend("rc")
    env = Env(outputs=[0.4, 0.3, 0.2, 0.1])
    want = b.conj(
        b.compare(">=", 0.4 + 0.3, 0.05),
        b.compare(">=", 0.2 + 0.1, 0.05),
    )
    assert truth_function(f, b)(env) == want == 1.0


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
    return (And if rng.random() < 0.5 else Or)(a, b)


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
    x = var(0.7)
    out = truth_function(f, rc)(Env(outputs=[x]))
    g = grad(out, [x])[x]
    fd = finite_diff(lambda p: truth_function(f, rc)(Env(outputs=[p[0]])), [0.7])[0]
    assert g == pytest.approx(fd, rel=1e-6)


def test_compile_loss_value_node_retains_graph():
    f = parse("out[0] <= 0.5", CTX)
    dl2 = make_backend("dl2")
    x = var(0.9)
    loss = loss_function(f, dl2)(Env(outputs=[x]))
    assert grad(loss, [x])[x] == 1.0
