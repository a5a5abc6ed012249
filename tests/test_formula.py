import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicloss.formula import (
    Add,
    And,
    Cmp,
    Const,
    Env,
    Implies,
    IndexOutOfRange,
    Input,
    Mul,
    Norm2Diff,
    Not,
    Or,
    Output,
    ParseContext,
    ParseError,
    Sub,
    Sum,
    UnboundReference,
    UnknownIdentifier,
    conjoin,
    crisp_fn,
    eval_crisp,
    expr_text,
    parse,
    push_negations,
    to_text,
    uses_paired_samples,
)

CTX = ParseContext(
    n_classes=5,
    binding_sets={
        "Labels": [0, 1, 2, 3, 4],
        "Groups": [(0, 1, 2), (3, 4)],
        "Triples": [(0, 1, 2), (2, 3, 4)],
    },
    index_groups={"speed": [0, 1, 2]},
    consts={"eps": 0.05},
)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_single_atom():
    assert parse("out[2] >= 0.1", CTX) == Cmp(">=", Output(2), Const(0.1))


def test_parse_implication_between_atoms():
    f = parse("(out[0] >= 0.1) -> (out[1] >= out[2])", CTX)
    assert f == Implies(
        Cmp(">=", Output(0), Const(0.1)),
        Cmp(">=", Output(1), Output(2)),
    )


def test_parse_forall_over_groups():
    f = parse(
        "forall g in Groups: (sum(out[g]) <= eps) or (sum(out[g]) >= 1 - eps)",
        CTX,
    )
    masses = (Sum((Output(0), Output(1), Output(2))), Sum((Output(3), Output(4))))
    assert f == And(
        *(
            Or(Cmp("<=", m, Const(0.05)), Cmp(">=", m, Sub(Const(1.0), Const(0.05))))
            for m in masses
        )
    )


def test_parse_forall_over_scalar_labels():
    f = parse("forall v in Labels: out[v] >= 0", CTX)
    a = [Cmp(">=", Output(i), Const(0.0)) for i in range(5)]
    assert f == And(And(And(And(a[0], a[1]), a[2]), a[3]), a[4])


@pytest.mark.parametrize(
    "text,by_hand",
    [
        (
            "forall v in Labels: in[v] <= out[v]",
            " and ".join(f"in[{i}] <= out[{i}]" for i in range(5)),
        ),
        (
            "forall g in Groups: sum(out[g]) >= 0.5 -> out[0] <= 0.2",
            "(sum(out[0], out[1], out[2]) >= 0.5 -> out[0] <= 0.2)"
            " and (sum(out[3], out[4]) >= 0.5 -> out[0] <= 0.2)",
        ),
        ("forall t in One: sum(out[t]) <= eps", "sum(out[3], out[4]) <= 0.05"),
    ],
    ids=["labels", "groups", "single-binding"],
)
def test_forall_text_equals_the_conjunction_written_by_hand(text, by_hand):
    ctx = ParseContext(
        n_classes=5,
        binding_sets={**CTX.binding_sets, "One": [(3, 4)]},
        consts={"eps": 0.05},
    )
    instances = by_hand.split(" and ")
    assert parse(text, ctx) == conjoin([parse(t, ctx) for t in instances])
    assert parse(text, ctx) == parse(by_hand, ctx)
    assert parse(to_text(parse(text, ctx)), ctx) == parse(text, ctx)


def test_conjoin_folds_left_and_keeps_a_single_part():
    a, b, c = (Cmp("<=", Output(i), Const(0.5)) for i in range(3))
    assert conjoin([a, b, c]) == And(And(a, b), c)
    assert conjoin((a,)) is a


def test_parse_precedence_and_binds_tighter_than_or():
    f = parse("out[0] >= 1 or out[1] >= 1 and out[2] >= 1", CTX)
    assert isinstance(f, Or)
    assert isinstance(f.right, And)


def test_parse_implication_is_loosest():
    f = parse("out[0] >= 1 or out[1] >= 1 -> out[2] >= 1", CTX)
    assert isinstance(f, Implies)
    assert isinstance(f.left, Or)


def test_parse_not_and_nesting():
    f = parse("not (out[0] >= 1 and not out[1] >= 1)", CTX)
    assert f == Not(And(Cmp(">=", Output(0), Const(1.0)), Not(Cmp(">=", Output(1), Const(1.0)))))


def test_parse_arithmetic_precedence():
    f = parse("out[0] + 2 * in[1] - 1 <= 0", CTX)
    assert f == Cmp(
        "<=",
        Sub(Add(Output(0), Mul(Const(2.0), Input(1))), Const(1.0)),
        Const(0.0),
    )


def test_parse_parenthesized_expression():
    f = parse("((out[0] + 1) * 2) >= 2", CTX)
    assert f == Cmp(">=", Mul(Add(Output(0), Const(1.0)), Const(2.0)), Const(2.0))


def test_parse_unary_minus():
    assert parse("in[0] >= -1.5", CTX) == Cmp(">=", Input(0), Const(-1.5))


def test_parse_norm2():
    f = parse("norm2(out - out') <= 1.8 * norm2(in - in')", CTX)
    assert f == Cmp(
        "<=",
        Norm2Diff("out", "out'"),
        Mul(Const(1.8), Norm2Diff("in", "in'")),
    )


def test_parse_sum_of_named_group():
    assert parse("sum(out[speed]) <= eps", CTX) == Cmp(
        "<=", Sum((Output(0), Output(1), Output(2))), Const(0.05)
    )


def test_parse_sum_of_expression_list():
    assert parse("sum(out[0], out[3]) >= 0.5", CTX) == Cmp(
        ">=", Sum((Output(0), Output(3))), Const(0.5)
    )


def test_parse_nested_forall_shadowing():
    f = parse("forall v in Labels: forall v in Groups: sum(out[v]) <= out[0]", CTX)
    # the inner binding wins inside: every one of the outer quantifier's five
    # instances is the inner expansion, which reads v as a group
    inner = And(
        Cmp("<=", Sum((Output(0), Output(1), Output(2))), Output(0)),
        Cmp("<=", Sum((Output(3), Output(4))), Output(0)),
    )
    assert f == conjoin([inner] * 5)


def test_parse_inner_forall_shadows_only_inside_its_body():
    # after the inner quantifier, v is the outer label again
    f = parse("forall v in Labels: (forall v in Groups: sum(out[v]) <= 1) and out[v] >= 0", CTX)
    inner = And(
        Cmp("<=", Sum((Output(0), Output(1), Output(2))), Const(1.0)),
        Cmp("<=", Sum((Output(3), Output(4))), Const(1.0)),
    )
    assert f == conjoin([And(inner, Cmp(">=", Output(i), Const(0.0))) for i in range(5)])


def test_parse_comparison_chain_rejected():
    with pytest.raises(ParseError):
        parse("out[0] <= out[1] <= out[2]", CTX)


# ---------------------------------------------------------------------------
# Parse errors


def test_error_carries_position():
    with pytest.raises(ParseError) as e:
        parse("out[0] <=", CTX)
    assert e.value.pos == 9


def test_error_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as e:
        parse("foo >= 0.1", CTX)
    assert e.value.pos == 0


def test_error_unknown_binding_set():
    with pytest.raises(UnknownIdentifier) as e:
        parse("forall g in Nope: out[0] >= 0", CTX)
    assert e.value.pos == 12


def test_error_unknown_index_variable():
    with pytest.raises(UnknownIdentifier):
        parse("out[v] >= 0", CTX)


def test_error_output_index_out_of_range():
    with pytest.raises(IndexOutOfRange) as e:
        parse("out[9] >= 0.1", CTX)
    assert e.value.pos == 4


def test_error_binding_member_out_of_range():
    ctx = ParseContext(n_classes=3, binding_sets={"G": [(0, 7)]})
    with pytest.raises(IndexOutOfRange):
        parse("forall g in G: sum(out[g]) <= 1", ctx)


def test_error_trailing_input():
    with pytest.raises(ParseError):
        parse("out[0] >= 0.1 out[1]", CTX)


def test_error_unexpected_character():
    with pytest.raises(ParseError) as e:
        parse("out[0] ≥ 1", CTX)
    assert e.value.pos == 7


def test_error_fractional_index():
    with pytest.raises(ParseError):
        parse("out[1.5] >= 0", CTX)


def test_error_group_variable_as_scalar_index():
    with pytest.raises(ParseError):
        parse("forall g in Groups: out[g] >= 0", CTX)


@pytest.mark.parametrize("cls", [ParseError, UnknownIdentifier, IndexOutOfRange])
def test_parse_errors_survive_pickling(cls):
    # a parse error raised in a sweep worker reaches the parent pickled
    err = cls("bad", 3)
    err.__notes__ = ["backend=rc lambda=0.2 epoch=1"]
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert (back.message, back.pos, str(back), back.args) == (
        "bad",
        3,
        "bad (at position 3)",
        ("bad (at position 3)",),
    )
    assert back.__notes__ == err.__notes__


def test_parse_error_from_the_parser_survives_pickling():
    with pytest.raises(IndexOutOfRange) as e:
        parse("out[9] >= 0.1", CTX)
    back = pickle.loads(pickle.dumps(e.value))
    assert type(back) is IndexOutOfRange and (back.message, back.pos) == (e.value.message, 4)


def test_error_scalar_variable_as_group():
    f = parse("forall v in Labels: sum(out[v]) <= 1", CTX)
    # "sum(out[v])" with scalar v is a one-term sum, not a group sum
    assert f == conjoin([Cmp("<=", Sum((Output(i),)), Const(1.0)) for i in range(5)])


def test_error_mixed_binding_set():
    ctx = ParseContext(n_classes=5, binding_sets={"Bad": [1, (2, 3)]})
    with pytest.raises(ParseError):
        parse("forall g in Bad: sum(out[g]) <= 1", ctx)


def test_error_empty_binding_set():
    ctx = ParseContext(n_classes=5, binding_sets={"Empty": []})
    with pytest.raises(ParseError):
        parse("forall g in Empty: sum(out[g]) <= 1", ctx)


def test_error_keyword_binder():
    with pytest.raises(ParseError):
        parse("forall out in Labels: out[0] >= 0", CTX)


def test_binding_sets_take_numpy_integers():
    labels = parse("forall v in L: out[v] >= 0", ParseContext(n_classes=3, binding_sets={"L": [0, 1, 2]}))
    for numpy_labels in (list(np.arange(3)), np.arange(3)):
        ctx = ParseContext(n_classes=3, binding_sets={"L": numpy_labels})
        assert parse("forall v in L: out[v] >= 0", ctx) == labels
    groups = parse("forall g in G: sum(out[g]) <= 1", ParseContext(n_classes=3, binding_sets={"G": [(0, 1), (2,)]}))
    ctx = ParseContext(n_classes=3, binding_sets={"G": [np.arange(2), (np.int64(2),)]})
    assert parse("forall g in G: sum(out[g]) <= 1", ctx) == groups
    ctx = ParseContext(n_classes=3, index_groups={"Low": np.arange(2)})
    assert parse("sum(out[Low]) <= 1", ctx) == Cmp("<=", Sum((Output(0), Output(1))), Const(1.0))


@pytest.mark.parametrize(
    "bindings,bad",
    [([True], "True"), ([0, np.True_], "np.True_"), ([(0, 1.9)], "1.9"), ([1.5], "1.5"), (["ab"], "'ab'")],
    ids=["bool", "numpy-bool", "fractional-group-member", "float", "str"],
)
def test_error_binding_that_is_not_an_integer(bindings, bad):
    ctx = ParseContext(n_classes=3, binding_sets={"B": bindings})
    text = "forall g in B: sum(out[g]) <= 1" if isinstance(bindings[0], tuple) else "forall v in B: out[v] >= 0"
    with pytest.raises(ParseError) as e:
        parse(text, ctx)
    assert e.value.message.startswith(f"class index {bad} must be an integer")
    assert e.value.pos == text.index("B:")


def test_error_index_group_member_that_is_not_an_integer():
    ctx = ParseContext(n_classes=3, index_groups={"Low": [0, 1.9]})
    with pytest.raises(ParseError, match="class index 1.9 must be an integer"):
        parse("sum(out[Low]) <= 1", ctx)


# ---------------------------------------------------------------------------
# Printing / round-trip


def test_to_text_examples():
    f = parse("forall g in Groups: (sum(out[g]) <= eps) or (sum(out[g]) >= 1 - eps)", CTX)
    # a forall prints as its expansion
    assert to_text(f) == (
        "((sum(out[0], out[1], out[2]) <= 0.05 or sum(out[0], out[1], out[2]) >= (1.0 - 0.05))"
        " and (sum(out[3], out[4]) <= 0.05 or sum(out[3], out[4]) >= (1.0 - 0.05)))"
    )
    assert parse(to_text(f), CTX) == f


def test_expr_text_const_repr():
    assert expr_text(Const(0.1)) == "0.1"
    assert expr_text(Const(-2.0)) == "-2.0"


@st.composite
def _exprs(draw, depth):
    opts = ["const", "out", "in"]
    if depth > 0:
        opts += ["add", "sub", "mul", "sum", "norm2"]
    kind = draw(st.sampled_from(opts))
    if kind == "const":
        return Const(draw(st.floats(allow_nan=False, allow_infinity=False)))
    if kind == "out":
        return Output(draw(st.integers(0, 4)))
    if kind == "in":
        return Input(draw(st.integers(0, 3)))
    if kind == "sum":
        n = draw(st.integers(1, 3))
        return Sum(tuple(draw(_exprs(depth - 1)) for _ in range(n)))
    if kind == "norm2":
        return Norm2Diff(
            draw(st.sampled_from(["out", "out'", "in", "in'"])),
            draw(st.sampled_from(["out", "out'", "in", "in'"])),
        )
    a = draw(_exprs(depth - 1))
    b = draw(_exprs(depth - 1))
    return {"add": Add, "sub": Sub, "mul": Mul}[kind](a, b)


@st.composite
def _formulas(draw, depth=3):
    # no quantifiers: a parsed forall is already an And chain
    opts = ["cmp"]
    if depth > 0:
        opts += ["and", "or", "not", "implies"]
    kind = draw(st.sampled_from(opts))
    if kind == "cmp":
        op = draw(st.sampled_from(["<=", "<", ">=", ">", "==", "!="]))
        return Cmp(op, draw(_exprs(2)), draw(_exprs(2)))
    if kind == "not":
        return Not(draw(_formulas(depth - 1)))
    a = draw(_formulas(depth - 1))
    b = draw(_formulas(depth - 1))
    return {"and": And, "or": Or, "implies": Implies}[kind](a, b)


@settings(max_examples=300, deadline=None)
@given(_formulas())
def test_roundtrip_parse_of_printed_formula(f):
    assert parse(to_text(f), CTX) == f


# ---------------------------------------------------------------------------
# push_negations


def _atom(i, c):
    return Cmp("<=", Output(i), Const(c))


def test_push_negated_comparisons():
    x, y = Output(0), Output(1)
    assert push_negations(Not(Cmp("<=", x, y))) == Cmp("<", y, x)
    assert push_negations(Not(Cmp("<", x, y))) == Cmp("<=", y, x)
    assert push_negations(Not(Cmp(">=", x, y))) == Cmp("<", x, y)
    assert push_negations(Not(Cmp(">", x, y))) == Cmp("<=", x, y)
    assert push_negations(Not(Cmp("==", x, y))) == Cmp("!=", x, y)
    assert push_negations(Not(Cmp("!=", x, y))) == Cmp("==", x, y)


def test_push_double_negation():
    f = _atom(0, 0.5)
    assert push_negations(Not(Not(f))) == f


def test_push_de_morgan():
    a, b = _atom(0, 0.1), _atom(1, 0.2)
    assert push_negations(Not(And(a, b))) == Or(Cmp("<", Const(0.1), Output(0)), Cmp("<", Const(0.2), Output(1)))
    assert push_negations(Not(Or(a, b))) == And(Cmp("<", Const(0.1), Output(0)), Cmp("<", Const(0.2), Output(1)))


def test_push_negated_implication():
    a, b = _atom(0, 0.1), _atom(1, 0.2)
    assert push_negations(Not(Implies(a, b))) == And(a, Cmp("<", Const(0.2), Output(1)))


def test_push_keeps_implication_by_default():
    a, b = _atom(0, 0.1), _atom(1, 0.2)
    assert push_negations(Implies(a, b)) == Implies(a, b)


def test_push_rewrites_implication_on_request():
    a, b = _atom(0, 0.1), _atom(1, 0.2)
    out = push_negations(Implies(a, b), rewrite_implication=True)
    assert out == Or(Cmp("<", Const(0.1), Output(0)), b)


def test_push_into_forall_body():
    f = parse("forall v in Labels: not out[v] <= 0.5", CTX)
    out = push_negations(f)
    assert out == conjoin([Cmp("<", Const(0.5), Output(i)) for i in range(5)])


def test_push_negated_forall_is_the_or_of_negated_instances():
    f = parse("forall v in Labels: out[v] >= 0.1", CTX)
    out = push_negations(Not(f))
    a = [Cmp("<", Output(i), Const(0.1)) for i in range(5)]
    assert out == Or(Or(Or(Or(a[0], a[1]), a[2]), a[3]), a[4])
    for outputs in ([0.2] * 5, [0.2, 0.05, 0.2, 0.2, 0.35], [0.0] * 5, [0.1] * 5):
        env = Env(outputs=outputs)
        assert eval_crisp(out, env) is (not eval_crisp(f, env))
    negated = crisp_fn(out)
    holds = crisp_fn(f)
    rng = np.random.default_rng(3)
    probs = rng.choice([0.0, 0.05, 0.1, 0.3], size=(64, 5))
    probs[0] = 0.2  # a row where the forall holds
    env = Env(outputs=probs.T)
    want = ~holds(env)
    assert want.any() and not want.all()
    assert np.array_equal(negated(env), want)


def _no_not_above_cmp(f):
    if isinstance(f, Cmp):
        return True
    if isinstance(f, Not):
        return False
    return _no_not_above_cmp(f.left) and _no_not_above_cmp(f.right)


def _rand_expr(rng, depth):
    r = rng.random()
    if depth == 0 or r < 0.4:
        k = rng.randrange(3)
        if k == 0:
            return Const(rng.choice([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0]))
        if k == 1:
            return Output(rng.randrange(3))
        return Input(rng.randrange(2))
    k = rng.randrange(4)
    if k == 3:
        return Sum((_rand_expr(rng, depth - 1), _rand_expr(rng, depth - 1)))
    cls = (Add, Sub, Mul)[k]
    return cls(_rand_expr(rng, depth - 1), _rand_expr(rng, depth - 1))


def _rand_formula(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        op = rng.choice(["<=", "<", ">=", ">", "==", "!="])
        return Cmp(op, _rand_expr(rng, 2), _rand_expr(rng, 2))
    k = rng.randrange(4)
    if k == 3:
        return Not(_rand_formula(rng, depth - 1))
    cls = (And, Or, Implies)[k]
    return cls(_rand_formula(rng, depth - 1), _rand_formula(rng, depth - 1))


def _rand_env(rng):
    # grid values make equality ties reachable
    pool = [0.0, 0.25, 0.5, 1.0, rng.random(), rng.random()]
    return Env(
        outputs=[rng.choice(pool) for _ in range(3)],
        inputs=[rng.choice(pool) for _ in range(2)],
    )


@pytest.mark.parametrize("rewrite", [False, True])
def test_push_preserves_crisp_semantics(rewrite):
    rng = random.Random(20260818)
    for _ in range(2500):
        f = _rand_formula(rng, 4)
        g = push_negations(f, rewrite_implication=rewrite)
        assert _no_not_above_cmp(g)
        for _ in range(4):
            env = _rand_env(rng)
            assert eval_crisp(f, env) == eval_crisp(g, env)


def test_push_is_idempotent():
    rng = random.Random(7)
    for _ in range(300):
        f = _rand_formula(rng, 4)
        for rewrite in (False, True):
            g = push_negations(f, rewrite_implication=rewrite)
            assert push_negations(g, rewrite_implication=rewrite) == g


# ---------------------------------------------------------------------------
# Crisp evaluation


def test_crisp_comparisons():
    env = Env()
    assert eval_crisp(Cmp("<=", Const(3.0), Const(5.0)), env) is True
    assert eval_crisp(Cmp("<", Const(3.0), Const(3.0)), env) is False
    assert eval_crisp(Cmp("<=", Const(3.0), Const(3.0)), env) is True


def test_crisp_vacuous_implication():
    f = Implies(Cmp(">", Const(0.0), Const(1.0)), Cmp(">", Const(0.0), Const(9.0)))
    assert eval_crisp(f, Env()) is True


def test_crisp_group_mass_disjunction():
    f = parse("(sum(out[speed]) <= eps) or (sum(out[speed]) >= 1 - eps)", CTX)
    assert eval_crisp(f, Env(outputs=[0.5, 0.28, 0.2, 0.02, 0.0])) is True  # mass 0.98
    assert eval_crisp(f, Env(outputs=[0.2, 0.2, 0.1, 0.25, 0.25])) is False


def test_crisp_norm2():
    # 3-4-5 triple: the difference vector is (0.3, -0.4), norm exactly 0.5
    f = parse("norm2(out - out') <= 0.5", CTX)
    env = Env(outputs=[0.3, 0.0], outputs2=[0.0, 0.4])
    assert eval_crisp(f, env) is True
    assert eval_crisp(parse("norm2(out - out') >= 0.5", CTX), env) is True
    assert eval_crisp(parse("norm2(out - out') < 0.5", CTX), env) is False


def test_crisp_forall_expands():
    f = parse("forall v in Labels: out[v] >= 0.1", CTX)
    assert eval_crisp(f, Env(outputs=[0.2, 0.2, 0.2, 0.2, 0.2])) is True
    assert eval_crisp(f, Env(outputs=[0.2, 0.05, 0.2, 0.2, 0.35])) is False


def test_crisp_unbound_output():
    with pytest.raises(UnboundReference):
        eval_crisp(Cmp(">=", Output(3), Const(0.0)), Env(outputs=[0.1, 0.9]))


@pytest.mark.parametrize("node", [Output, Input])
def test_ast_indices_must_be_non_negative_integers(node):
    # a str index is no variable: construction rejects it, as it does a float
    for bad in ("v", 2.0, None, (0, 1)):
        with pytest.raises(TypeError):
            node(bad)
    with pytest.raises(ValueError, match="non-negative"):
        node(-1)
    with pytest.raises(ValueError, match="non-negative"):
        node(np.int64(-3))
    assert node(np.int64(2)) == node(2)


@pytest.mark.parametrize("node", [Output, Input])
@pytest.mark.parametrize("bad", [True, False, np.True_, np.False_], ids=["True", "False", "np.True_", "np.False_"])
def test_ast_indices_reject_a_bool(node, bad):
    # Output(True) would equal Output(1) and print as `out[True]`, which
    # the parser rejects
    with pytest.raises(TypeError, match=f"index must be an integer, not {type(bad).__name__}"):
        node(bad)


@pytest.mark.parametrize("node", [Output, Input])
@pytest.mark.parametrize("integer", [np.int8, np.int32, np.int64, np.uint16, np.uint64])
def test_ast_indices_take_numpy_integers(node, integer):
    assert node(integer(3)) == node(3)
    assert node(integer(0)).index == 0


def test_a_connective_evaluates_both_sides_of_one_sample_as_of_a_batch():
    f = parse("out[0] > 1 and out[2] < 0", CTX)
    with pytest.raises(UnboundReference):
        eval_crisp(f, Env(outputs=[0.3, 0.7]))
    with pytest.raises(UnboundReference):
        crisp_fn(f)(Env(outputs=np.array([[0.3], [0.7]])))


def test_a_constant_comparison_is_a_bool_under_every_connective():
    # ~True is -2: the connectives are np.logical_*, not bitwise
    for text, want in (("not (1 <= 2)", False), ("(1 <= 2) -> (2 <= 1)", False),
                       ("(2 <= 1) or not (2 <= 1)", True), ("(1 <= 2) and (1 <= 1)", True)):
        assert eval_crisp(parse(text, CTX), Env()) is want, text


def test_crisp_norm2_needs_both_vectors():
    f = parse("norm2(out - out') <= 0.5", CTX)
    with pytest.raises(UnboundReference):
        eval_crisp(f, Env(outputs=[0.3, 0.7]))


def test_forall_group_binding_expands_to_sums():
    f = parse("forall g in Groups: sum(out[g]) <= eps", CTX)
    assert f == And(
        Cmp("<=", Sum((Output(0), Output(1), Output(2))), Const(0.05)),
        Cmp("<=", Sum((Output(3), Output(4))), Const(0.05)),
    )


def test_uses_paired_samples():
    lip = parse("norm2(out - out') <= 1.8 * norm2(in - in')", CTX)
    csim = parse("(out[0] >= 0.1) -> (out[1] >= out[2])", CTX)
    assert uses_paired_samples(lip) is True
    assert uses_paired_samples(csim) is False
    assert uses_paired_samples(parse("norm2(in - in) <= 1", CTX)) is False
