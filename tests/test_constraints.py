import random

import pytest

from logicloss.constraints import (
    CIFAR10_CLASSES,
    FMNIST_CLASSES,
    GTSRB_CLASSES,
    ClassGroup,
    ConstraintTables,
    LabelTriple,
    builtin_tables,
    csim_formula,
    group_formula,
    lipschitz_formula,
    load_groups,
    load_triples,
    make_parse_context,
    synthetic_tables,
)
from logicloss.formula import (
    And,
    Cmp,
    Env,
    Implies,
    conjuncts,
    eval_crisp,
    parse,
    to_text,
    uses_paired_samples,
)
from logicloss.logics import loss_function, make_backend


def test_label_triple_validation():
    LabelTriple(0, 1, 2)
    with pytest.raises(ValueError):
        LabelTriple(0, 0, 2)
    with pytest.raises(ValueError):
        LabelTriple(-1, 1, 2)


def test_class_group_validation():
    ClassGroup("g", (0, 1))
    with pytest.raises(ValueError):
        ClassGroup("g", ())
    with pytest.raises(ValueError):
        ClassGroup("g", (1, 1))
    with pytest.raises(ValueError):
        ClassGroup("", (0,))
    with pytest.raises(ValueError):
        ClassGroup("g", (-1, 0))


# ---------------------------------------------------------------------------
# Class-similarity constraint


def test_csim_single_triple_crisp_cases():
    f = csim_formula([LabelTriple(0, 1, 2)], n_classes=10)
    assert isinstance(f, Implies)
    # implausible antecedent: vacuously satisfied
    assert eval_crisp(f, Env(outputs=[0.05, 0.0, 0.9])) is True
    assert eval_crisp(f, Env(outputs=[0.5, 0.3, 0.1])) is True
    assert eval_crisp(f, Env(outputs=[0.5, 0.1, 0.3])) is False


def test_csim_threshold_is_one_over_classes():
    f = csim_formula([LabelTriple(0, 1, 2)], n_classes=4)
    assert f.left == Cmp(">=", f.left.left, f.left.right)
    assert f.left.right.value == 0.25


def test_csim_conjunction_over_triples():
    tables = synthetic_tables(4)
    f = csim_formula(tables.triples, 4)
    n_conjuncts = 0
    node = f
    while isinstance(node, And):
        n_conjuncts += 1
        node = node.left
    assert n_conjuncts == 3  # 4 triples, left fold


def test_csim_uniform_outputs_satisfied_by_ties():
    tables = synthetic_tables(10)
    f = csim_formula(tables.triples, 10)
    uniform = Env(outputs=[0.1] * 10)
    assert eval_crisp(f, uniform) is True
    # every antecedent fires at uniform outputs (1/n >= 1/n), so this is
    # the consequents' conjunction, true only because ties satisfy >=
    assert loss_function(f, make_backend("rc"))(uniform) == 0.0


def test_csim_validation():
    with pytest.raises(ValueError):
        csim_formula([], 10)
    with pytest.raises(ValueError):
        csim_formula([LabelTriple(0, 1, 12)], 10)
    with pytest.raises(ValueError):
        csim_formula([LabelTriple(0, 1, 2)], 1)


# ---------------------------------------------------------------------------
# Group constraint


def test_group_crisp_cases():
    f = group_formula([ClassGroup("g", (0, 1, 2))], eps=0.05)
    assert eval_crisp(f, Env(outputs=[0.005, 0.003, 0.002])) is True  # mass 0.01
    assert eval_crisp(f, Env(outputs=[0.5, 0.27, 0.2])) is True  # mass 0.97
    assert eval_crisp(f, Env(outputs=[0.2, 0.2, 0.1])) is False  # mass 0.5


def test_group_eps_validation():
    groups = [ClassGroup("g", (0, 1))]
    group_formula(groups, eps=0.49)
    for eps in (0.0, 0.5, -0.1, 1.0):
        with pytest.raises(ValueError):
            group_formula(groups, eps=eps)


def test_group_formula_requires_disjoint_groups():
    with pytest.raises(ValueError, match="appears in both"):
        group_formula([ClassGroup("a", (0, 1)), ClassGroup("b", (1, 2))])


def test_group_permutation_invariance():
    rng = random.Random(5)
    f1 = group_formula([ClassGroup("g", (0, 1, 2))])
    f2 = group_formula([ClassGroup("g", (2, 0, 1))])
    rc = make_backend("rc")
    loss1, loss2 = loss_function(f1, rc), loss_function(f2, rc)
    for _ in range(200):
        env = Env(outputs=[rng.random() for _ in range(3)])
        assert eval_crisp(f1, env) == eval_crisp(f2, env)
        assert abs(loss1(env) - loss2(env)) <= 1e-12


# ---------------------------------------------------------------------------
# Lipschitz constraint


def test_lipschitz_identical_pair_is_satisfied():
    f = lipschitz_formula(1.0)
    env = Env(
        outputs=[0.2, 0.8], inputs=[1.0, 2.0], outputs2=[0.2, 0.8], inputs2=[1.0, 2.0]
    )
    assert eval_crisp(f, env) is True


def test_lipschitz_three_four_five():
    env = Env(
        outputs=[0.3, 0.4, 0.0],
        outputs2=[0.0, 0.0, 0.0],
        inputs=[1.0, 0.0],
        inputs2=[0.0, 0.0],
    )
    assert eval_crisp(lipschitz_formula(1.0), env) is True  # 0.5 <= 1.0
    assert eval_crisp(lipschitz_formula(0.4), env) is False  # 0.5 <= 0.4
    dl2 = make_backend("dl2")
    assert loss_function(lipschitz_formula(0.4), dl2)(env) == pytest.approx(0.1)


def test_lipschitz_validation_and_pairing():
    with pytest.raises(ValueError):
        lipschitz_formula(0.0)
    assert uses_paired_samples(lipschitz_formula(2.0)) is True
    assert uses_paired_samples(csim_formula([LabelTriple(0, 1, 2)], 10)) is False


# ---------------------------------------------------------------------------
# Built-in tables


def test_fmnist_table():
    t = builtin_tables("fmnist")
    assert t.n_classes == 10
    assert len(t.triples) == 10
    assert t.triples[0] == LabelTriple(0, 6, 9)
    assert t.triples[4] == LabelTriple(4, 2, 6)
    assert t.triples[9] == LabelTriple(9, 7, 0)
    assert not t.groups
    assert t.class_name(9) == "Ankle boot"
    assert len(FMNIST_CLASSES) == 10


def test_cifar10_table():
    t = builtin_tables("cifar10")
    assert len(t.triples) == 10
    assert t.triples[2] == LabelTriple(2, 0, 5)
    assert t.triples[8] == LabelTriple(8, 0, 4)
    assert t.class_name(0) == "airplane"
    assert len(CIFAR10_CLASSES) == 10


def test_gtsrb_table():
    t = builtin_tables("gtsrb")
    assert t.n_classes == 43
    assert len(GTSRB_CLASSES) == 43
    assert not t.triples
    names = [g.name for g in t.groups]
    assert names == ["speed_limits", "prohibitions", "mandatory_actions", "warnings"]
    sizes = [len(g.members) for g in t.groups]
    assert sizes == [9, 6, 8, 11]
    all_members = [m for g in t.groups for m in g.members]
    assert len(all_members) == len(set(all_members))
    assert max(all_members) < 43
    assert t.groups[0].members == tuple(range(9))
    assert t.groups[1].members == (9, 10, 15, 17, 41, 42)
    assert t.groups[2].members == tuple(range(33, 41))


def test_synthetic_tables():
    t = synthetic_tables()
    assert t.n_classes == 10
    assert len(t.triples) == 10
    # both variants of a site point at the next site's pair, first over second
    assert t.triples[0] == LabelTriple(0, 2, 3)
    assert t.triples[1] == LabelTriple(1, 2, 3)
    assert t.triples[9] == LabelTriple(9, 0, 1)
    assert [len(g.members) for g in t.groups] == [3, 3, 2, 2]
    assert t.class_name(3) == "class 3"

    small = synthetic_tables(5)
    assert len(small.triples) == 5
    # odd class count: the last site holds a single class, wrap stays distinct
    assert small.triples[2] == LabelTriple(2, 4, 0)
    assert small.triples[4] == LabelTriple(4, 0, 1)
    assert [len(g.members) for g in small.groups] == [3, 2]
    covered = sorted(m for g in small.groups for m in g.members)
    assert covered == list(range(5))

    tiny = synthetic_tables(3)
    assert tiny.triples == (
        LabelTriple(0, 1, 2), LabelTriple(1, 2, 0), LabelTriple(2, 0, 1)
    )

    with pytest.raises(ValueError):
        synthetic_tables(2)


def test_unknown_dataset():
    with pytest.raises(ValueError, match="synthetic"):
        builtin_tables("imagenet")


# ---------------------------------------------------------------------------
# Round-trips through the DSL


def test_csim_roundtrip():
    t = builtin_tables("fmnist")
    f = csim_formula(t.triples, t.n_classes)
    ctx = make_parse_context(t)
    assert parse(to_text(f), ctx) == f


def test_group_roundtrip():
    t = builtin_tables("gtsrb")
    f = group_formula(t.groups, eps=0.05)
    assert len(conjuncts(f)) == len(t.groups)
    ctx = make_parse_context(t)
    assert parse(to_text(f), ctx) == f


@pytest.mark.parametrize("tables", [synthetic_tables(), builtin_tables("gtsrb")], ids=["synthetic", "gtsrb"])
@pytest.mark.parametrize("eps", [0.05, 0.2])
def test_group_formula_equals_the_parsed_forall(tables, eps):
    ctx = make_parse_context(tables, consts={"eps": eps})
    text = "forall g in Groups: (sum(out[g]) <= eps) or (sum(out[g]) >= 1 - eps)"
    assert group_formula(tables.groups, eps) == parse(text, ctx)


def test_lipschitz_roundtrip():
    f = lipschitz_formula(1.8)
    ctx = make_parse_context(ConstraintTables(dataset="synthetic", n_classes=10))
    assert parse(to_text(f), ctx) == f


def test_synthetic_roundtrips():
    t = synthetic_tables()
    ctx = make_parse_context(t)
    for f in (csim_formula(t.triples, t.n_classes), group_formula(t.groups)):
        assert parse(to_text(f), ctx) == f


def test_parse_context_exposes_group_names():
    t = builtin_tables("gtsrb")
    ctx = make_parse_context(t, consts={"eps": 0.05})
    f = parse("sum(out[speed_limits]) <= eps", ctx)
    outputs = [0.0] * 43
    outputs[3] = 0.03
    assert eval_crisp(f, Env(outputs=outputs)) is True


# ---------------------------------------------------------------------------
# Text loaders


def test_load_triples(tmp_path):
    p = tmp_path / "triples.txt"
    p.write_text("# comment\n0 6 9\n\n1 3 8  # trailing\n")
    assert load_triples(p, 10) == (LabelTriple(0, 6, 9), LabelTriple(1, 3, 8))


def test_load_triples_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 1\n")
    with pytest.raises(ValueError, match="three indices"):
        load_triples(p, 10)
    p.write_text("0 1 x\n")
    with pytest.raises(ValueError, match="integers"):
        load_triples(p, 10)
    p.write_text("0 1 99\n")
    with pytest.raises(ValueError, match="out of range"):
        load_triples(p, 10)
    p.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no triples"):
        load_triples(p, 10)


def test_load_groups(tmp_path):
    p = tmp_path / "groups.txt"
    p.write_text("first: 0 1 2\nsecond: 3 4\n")
    groups = load_groups(p, 10)
    assert groups == (ClassGroup("first", (0, 1, 2)), ClassGroup("second", (3, 4)))


def test_load_groups_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("no colon here\n")
    with pytest.raises(ValueError, match="name"):
        load_groups(p, 10)
    p.write_text("a: 0 1\nb: 1 2\n")
    with pytest.raises(ValueError, match="appears in both"):
        load_groups(p, 10)
    p.write_text("a: 0 99\n")
    with pytest.raises(ValueError, match="out of range"):
        load_groups(p, 10)
