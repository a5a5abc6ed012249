"""The conjunct axis: a conjunction reduces its conjuncts in one node.

On a batch, the compiled loss evaluates each template with two or more
members once, on a (batch, members) array, lays every conjunct out in its
original order along a last axis, and reduces that axis with the backend's
aggregation operator (`LogicBackend.conj_n`).  The batch loss must equal
the left fold by `backend.conj` of the conjuncts each compiled alone, bit
for bit, as every aggregation runs in the fold's order; the gradient to a
relative 1e-12, with Godel ties on the earliest conjunct.  And
`_logic_grads` must still match the per-sample scalar loop of
`test_batched_tape`.
"""

import math
import re

import numpy as np
import pytest

from logicloss.autodiff import Node, aggregate, gather, grad, val, var
from logicloss.constraints import csim_formula, group_formula, lipschitz_formula, synthetic_tables
from logicloss.formula import (
    And,
    Env,
    ParseContext,
    UnboundReference,
    batch_env,
    conjuncts,
    parse,
    sample_rows,
    template,
    uses_paired_samples,
)
from logicloss.logics import (
    BACKEND_NAMES,
    ZERO_WHEN_TRUE,
    agg_godel,
    agg_lukasiewicz,
    agg_product,
    agg_sum,
    agg_yager,
    loss_function,
    make_backend,
    truth_function,
)
from oracles import finite_diff
from test_batched_tape import REL_TOL, _logic_grads_dense, _rel_err, _scalar_reference

N_CLASSES = 10
N_INPUTS = 4
LAM = 0.7

_TABLES = synthetic_tables(N_CLASSES)
_CTX = ParseContext(
    n_classes=N_CLASSES,
    binding_sets={"Mixed": [(0,), (1, 2, 3), (4, 5), (6, 7, 8), (9,)]},
)
_FORMULAS = {
    "csim": csim_formula(_TABLES.triples, N_CLASSES),
    "group": group_formula(_TABLES.groups, eps=0.05),
    # out[1] twice in one conjunct; the third conjunct repeats its first
    # index in another place, so it has a template of its own
    "repeated-index": parse(
        "(out[1] >= out[1] * out[2]) and (out[3] >= out[3] * out[4])"
        " and (out[5] >= out[6] * out[5]) and (out[2] >= out[2] * out[2])",
        _CTX,
    ),
    "differ-in-a-constant": parse(
        "(out[0] <= 0.3) and (out[1] <= 0.4) and (out[2] <= 0.3) and (out[3] <= 0.4)", _CTX
    ),
    "reads-inputs": parse(
        "((in[0] >= 0) -> (out[0] >= out[1])) and ((in[2] >= 0) -> (out[2] >= out[3]))"
        " and (in[1] <= in[3] * 2) and (in[0] <= in[2] * 2)",
        _CTX,
    ),
    "right-nested": parse(
        "(out[0] >= out[1]) and ((out[2] >= out[3]) and (out[4] >= out[5]))", _CTX
    ),
    "mixed-forall": parse("forall g in Mixed: sum(out[g]) <= 0.5 or sum(out[g]) >= 0.6", _CTX),
    # a conjunct that holds a conjunction has no template, so each runs alone
    "nested-conjunction": parse(
        "(((out[0] >= 0.1) and (out[1] >= 0.1)) -> (out[2] >= out[3]))"
        " and (((out[4] >= 0.1) and (out[5] >= 0.1)) -> (out[6] >= out[7]))",
        _CTX,
    ),
    "single": parse("out[0] >= out[1]", _CTX),
    # a single conjunct between the two members of a template; the last
    # row of the first batch ties it with the second member
    "tie-across-a-single": parse(
        "(out[0] <= 0.1) and (out[1] + out[1] <= 0.1) and (out[2] <= 0.1)", _CTX
    ),
    "with-norm2": parse(
        "(out[0] >= out[1]) and (out[2] >= out[3])"
        " and (norm2(out - out') <= 2 * norm2(in - in')) and (out[4] >= out[5])",
        _CTX,
    ),
}
COMBOS = [(b, name) for b in BACKEND_NAMES for name in _FORMULAS]


def _compiled(backend_name, name):
    backend = make_backend(backend_name)
    return backend, _FORMULAS[name]


def _batches():
    """Random rows, and rows on the ties and thresholds where branches turn."""
    rng = np.random.default_rng(11)
    probs = rng.dirichlet(np.ones(N_CLASSES), size=9)
    probs[1] = np.eye(N_CLASSES)[3]
    probs[2] = 1.0 / N_CLASSES
    probs[3, 2] = probs[3, 3]
    probs[4, 0] = 0.3
    X = rng.uniform(-1.0, 1.0, size=(9, N_INPUTS))
    X[5, 2] = 0.0
    tie = np.full(N_CLASSES, 0.05)
    tie[1] = 0.35
    tie[2] = 2.0 * tie[1]
    yield np.vstack([probs, tie]), np.vstack([X, np.zeros(N_INPUTS)])
    yield rng.dirichlet(np.ones(N_CLASSES), size=4), rng.normal(size=(4, N_INPUTS))


def _leaf_env(f, probs, X):
    """The batch Env that `_logic_grads` builds: one leaf matrix of
    probabilities per row selection, and one input matrix each."""
    k, rows = sample_rows(len(probs), uses_paired_samples(f))
    outputs = [var(np.ascontiguousarray(probs[r].T)) for r in rows]
    return k, batch_env(outputs, [np.ascontiguousarray(X[r].T) for r in rows])


def _alone(f, backend, env):
    """The truth of `f`, every conjunction folded by `backend.conj` over its
    conjuncts, each compiled on its own."""
    if isinstance(f, And):
        values = [_alone(g, backend, env) for g in conjuncts(f)]
        acc = values[0]
        for v in values[1:]:
            acc = backend.conj(acc, v)
        return acc
    return truth_function(f, backend)(env)


@pytest.mark.parametrize("backend_name,name", COMBOS)
def test_batch_loss_is_the_fold_of_conjuncts_compiled_alone(backend_name, name):
    backend, f = _compiled(backend_name, name)
    loss = loss_function(f, backend)
    for probs, X in _batches():
        k, env = _leaf_env(f, probs, X)
        got = loss(env)
        truth = _alone(f, backend, env)
        want = truth if backend.polarity == ZERO_WHEN_TRUE else 1.0 - truth
        gv, wv = (np.broadcast_to(val(v), (k,)) for v in (got, want))
        assert np.array_equal(gv, wv), (gv, wv)
        leaves = [m for m in (env.outputs, env.outputs2) if isinstance(m, Node)]
        got_g, want_g = grad(got, leaves), grad(want, leaves)
        for m in leaves:
            # entry by entry, as each was one leaf
            for g, w in zip(*(np.broadcast_to(x[m], m.value.shape) for x in (got_g, want_g))):
                assert _rel_err(g, w) <= REL_TOL, (g, w)


@pytest.mark.parametrize("backend_name,name", COMBOS)
def test_logic_grads_match_the_per_sample_scalar_loop(backend_name, name):
    backend, f = _compiled(backend_name, name)
    fn, paired = loss_function(f, backend), uses_paired_samples(f)
    for probs, X in _batches():
        want_loss, want_grad = _scalar_reference(fn, paired, probs, X, LAM)
        got_loss, got_grad = _logic_grads_dense(fn, paired, probs, X, LAM)
        assert _rel_err(got_loss, want_loss) <= REL_TOL, (got_loss, want_loss)
        assert _rel_err(got_grad, want_grad) <= REL_TOL, (got_grad, want_grad)


@pytest.mark.parametrize("backend_name,name", COMBOS)
def test_floats_stay_on_the_float_path(backend_name, name):
    """One sample's floats in, a Python float out, within 1 ulp of that
    sample's row in a batch."""
    backend, f = _compiled(backend_name, name)
    probs, X = next(_batches())
    env = Env(
        outputs=[float(p) for p in probs[0]],
        outputs2=[float(p) for p in probs[1]],
        inputs=[float(x) for x in X[0]],
        inputs2=[float(x) for x in X[1]],
    )
    loss = loss_function(f, backend)
    got = loss(env)
    k, batch = _leaf_env(f, probs, X)
    want = float(np.broadcast_to(val(loss(batch)), (k,))[0])
    assert type(got) is float
    assert abs(got - want) <= math.ulp(want), (got, want)


def _tape_size(root):
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def test_tape_does_not_grow_with_the_number_of_conjuncts():
    backend = make_backend("rc")
    rng = np.random.default_rng(2)
    probs = rng.dirichlet(np.ones(N_CLASSES), size=16)
    sizes = []
    for triples in (_TABLES.triples, _TABLES.triples * 2):
        f = csim_formula(triples, N_CLASSES)
        _, env = _leaf_env(f, probs, np.zeros((16, N_INPUTS)))
        root = loss_function(f, backend)(env)
        assert isinstance(root, Node)
        sizes.append(_tape_size(root))
    # one template and one aggregation node, however many conjuncts
    assert sizes[0] == sizes[1], sizes


def test_lipschitz_tape_does_not_grow_with_classes_or_input_dims():
    """norm2 on the leaf matrices is a fixed handful of nodes: a difference,
    a square, one sum over the entries and a root, whatever the vectors'
    lengths."""
    backend = make_backend("rc")
    # a bound so tight that every pair breaks it, so every branch is uniform
    f = lipschitz_formula(1e-4)
    rng = np.random.default_rng(3)
    sizes = set()
    for n_classes, dims in ((3, 2), (10, 20), (40, 2), (3, 64)):
        probs = rng.dirichlet(np.ones(n_classes), size=16)
        _, env = _leaf_env(f, probs, rng.normal(size=(16, dims)))
        root = loss_function(f, backend)(env)
        assert isinstance(root, Node)
        sizes.add(_tape_size(root))
    assert len(sizes) == 1, sizes


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
@pytest.mark.parametrize("name", ["csim", "group"])
def test_an_entry_past_the_bound_outputs_is_unbound_not_an_index_error(backend_name, name):
    """The formulas read all 10 classes; an Env binds 5 outputs, as a
    batch's matrix, a leaf holding it, or one sample's floats."""
    truth = truth_function(_FORMULAS[name], make_backend(backend_name))
    m = np.full((5, 3), 0.2)
    for outputs in (m, var(m), [0.2] * 5):
        with pytest.raises(UnboundReference) as info:
            truth(Env(outputs=outputs))
        named = re.fullmatch(r"out\[(\d+)\] is not bound by the environment", str(info.value))
        assert named and int(named.group(1)) >= 5, info.value


def test_template_renumbers_entries_by_first_appearance():
    shape, outs, ins = template(parse("out[5] >= out[5] * out[2] + in[3]", _CTX))
    assert (outs, ins) == ((5, 2), (3,))
    assert template(parse("out[0] >= out[0] * out[1] + in[0]", _CTX)) == (shape, (0, 1), (0,))
    # another pattern of repeated entries, or another constant, is another shape
    assert template(parse("out[5] >= out[2] * out[2] + in[3]", _CTX))[0] != shape
    assert template(parse("out[0] <= 0.3", _CTX))[0] != template(parse("out[0] <= 0.4", _CTX))[0]
    a, b = (template(g) for g in conjuncts(_FORMULAS["csim"])[:2])
    assert a[0] == b[0] and hash(a[0]) == hash(b[0]) and a[1] != b[1]
    norm2 = conjuncts(_FORMULAS["with-norm2"])[2]
    assert template(norm2) is None
    assert template(parse("1 <= 2", _CTX)) is None
    assert all(template(g) is None for g in conjuncts(_FORMULAS["nested-conjunction"]))


def test_conjuncts_follow_the_fold_order():
    parts = conjuncts(_FORMULAS["right-nested"])
    assert len(parts) == 2 and isinstance(parts[1], And)
    assert len(conjuncts(_FORMULAS["csim"])) == len(_TABLES.triples)
    assert len(conjuncts(_FORMULAS["mixed-forall"])) == 5
    assert conjuncts(_FORMULAS["single"]) == (_FORMULAS["single"],)


# -- the aggregation operators on their own --------------------------------

# rows: random, an exact zero, ties (the first argmin is slot 1), saturated
_AXIS_ROWS = np.array(
    [
        [0.62, 0.91, 0.37, 0.78],
        [0.5, 0.0, 0.8, 0.9],
        [0.7, 0.3, 0.9, 0.3],
        [1.0, 1.0, 1.0, 1.0],
        [0.99, 0.97, 1.0, 0.98],
    ]
)
_CONJ_BACKENDS = [("yg-p1", make_backend("yg", yager_p=1.0)), ("yg-p3", make_backend("yg", yager_p=3.0))]
_CONJ_BACKENDS += [(name, make_backend(name)) for name in BACKEND_NAMES]


def _fold_and_reduce(backend, rows):
    """(fold value, fold partials, n-ary value, n-ary partials) over `rows`:
    the fold on one leaf per slot, the reduction on all slots gathered from
    one leaf matrix."""
    fold_leaves = [var(c) for c in np.ascontiguousarray(rows.T)]
    acc = fold_leaves[0]
    for leaf in fold_leaves[1:]:
        acc = backend.conj(acc, leaf)
    g = grad(acc, fold_leaves)
    fold_d = np.stack([np.broadcast_to(g[lf], (len(rows),)) for lf in fold_leaves], axis=-1)
    m = var(np.ascontiguousarray(rows.T))
    n = len(m.value)
    red = aggregate([(gather(m, tuple(range(n))), tuple(range(n)))], backend.conj_n)
    red_d = np.broadcast_to(grad(red, [m])[m], m.value.shape).T
    return val(acc), fold_d, val(red), red_d


@pytest.mark.parametrize("label,backend", _CONJ_BACKENDS, ids=[b for b, _ in _CONJ_BACKENDS])
def test_each_aggregation_matches_the_fold_of_its_conj(label, backend):
    for rows in (_AXIS_ROWS, _AXIS_ROWS[:, :2], _AXIS_ROWS[[0, 4], :1]):
        fold_v, fold_d, red_v, red_d = _fold_and_reduce(backend, rows)
        assert np.array_equal(red_v, fold_v), (red_v, fold_v)
        np.testing.assert_allclose(red_d, fold_d, rtol=REL_TOL, atol=1e-15)


@pytest.mark.parametrize(
    "rule",
    [agg_product, agg_godel, agg_lukasiewicz, agg_sum, agg_yager, *(lambda x, p=p: agg_yager(x, p) for p in (1.0, 3.0))],
    ids=["product", "godel", "lukasiewicz", "sum", "yager", "yager-p1", "yager-p3"],
)
def test_each_aggregation_matches_central_finite_differences(rule):
    # rows off every kink: no ties, and Lukasiewicz/Yager live on the last
    rows = _AXIS_ROWS[[0, 1, 4]]
    _, d = rule(rows)
    fd = finite_diff(lambda p: float(np.sum(rule(np.reshape(p, rows.shape))[0])), rows.ravel(), h=1e-7)
    np.testing.assert_allclose(d.ravel(), fd, rtol=1e-6, atol=1e-8)
    assert rule(rows[:, :1])[0] == pytest.approx(rows[:, 0], rel=1e-12)


_RULES = [agg_product, agg_godel, agg_lukasiewicz, agg_sum, agg_yager]
_RULE_IDS = ["product", "godel", "lukasiewicz", "sum", "yager"]


@pytest.mark.parametrize("rule", _RULES, ids=_RULE_IDS)
def test_a_lone_piece_over_every_slot_reduces_as_the_general_layout(rule):
    # F-ordered, as a template's value over a gathered (batch, members) array is
    x = var(np.asfortranarray(_AXIS_ROWS))
    n = x.value.shape[-1]
    whole = aggregate([(x, tuple(range(n)))], rule)
    cols = [var(x.value[:, j].copy()) for j in range(n)]
    split = aggregate([(c, j) for j, c in enumerate(cols)], rule)
    assert np.array_equal(whole.value, split.value)
    g_whole, g_split = grad(whole, [x])[x], grad(split, cols)
    shape = x.value.shape
    by_column = np.stack([np.broadcast_to(g_split[c], shape[:1]) for c in cols], axis=-1)
    assert np.array_equal(np.broadcast_to(g_whole, shape), by_column)


@pytest.mark.parametrize("rule", _RULES, ids=_RULE_IDS)
def test_a_lone_piece_without_the_full_last_axis_fills_every_slot(rule):
    # a template whose value is the same for every member (a uniform select)
    # comes back as a scalar, or without its members axis
    assert aggregate([(1.0, (0, 1, 2))], rule) == rule(np.ones(3))[0]
    col = var(_AXIS_ROWS[:, :1].copy())
    assert np.array_equal(aggregate([(col, (0, 1, 2))], rule).value, rule(np.repeat(col.value, 3, axis=1))[0])


def test_godel_ties_go_to_the_earliest_conjunct_in_the_original_order():
    """A single conjunct between two members of a template takes the
    gradient when it ties the later member: folding the template first and
    the single after it would send it to the member instead."""
    backend, f = _compiled("godel", "tie-across-a-single")
    probs, X = next(_batches())
    k, env = _leaf_env(f, probs, X)
    g = grad(loss_function(f, backend)(env), [env.outputs])[env.outputs]
    assert g[1][-1] != 0.0
    assert g[2][-1] == 0.0
