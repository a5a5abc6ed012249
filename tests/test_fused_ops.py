"""The one-node comparison atoms and product-family connectives against
their composed references.

`logics.fuzzy_le`, `logics.dl2_hinge`, `logics.i_reichenbach` and
`logics.s_prob_sum` each record one tape node with closed-form partials.
Each must give the value of the same operator built from tape primitives
(`oracles.*_composed`) bit for bit, and partials that agree with that
reference's `grad` to 1e-15 of the largest.  The cases put a node, a bare
array, a float or nothing on either side, with ties (x == y), zeros (the
kink of |x|) and masks that are the same on every row.
"""

import numpy as np
import pytest

from logicloss.autodiff import Node, grad, val, var
from logicloss.constraints import csim_formula, group_formula, synthetic_tables
from logicloss.formula import batch_env
from logicloss.logics import dl2_hinge, fuzzy_le, i_reichenbach, loss_function, make_backend, s_prob_sum

from oracles import dl2_hinge_composed, fuzzy_le_composed, i_reichenbach_composed, s_prob_sum_composed

OPS = {
    "fuzzy_le": (fuzzy_le, fuzzy_le_composed),
    "dl2_hinge": (dl2_hinge, dl2_hinge_composed),
    "i_reichenbach": (i_reichenbach, i_reichenbach_composed),
    "s_prob_sum": (s_prob_sum, s_prob_sum_composed),
}

# (x, y) pairs of rows
ROWS = {
    "mixed": ([0.3, 0.7, 0.0, 0.5, -0.2, 0.9], [0.5, 0.2, 0.0, 0.5, 0.1, -0.4]),
    "ties": ([0.25, 0.0, 0.6], [0.25, 0.0, 0.6]),
    "zeros": ([0.0, 0.0, 0.4, 0.0], [0.0, 0.3, 0.0, -0.1]),
    "all_violated": ([0.8, 0.9, 0.35], [0.1, 0.2, 0.3]),
    "none_violated": ([0.1, 0.0, 0.3], [0.8, 0.9, 0.35]),
}
SCALARS = {
    "violated": (0.7, 0.5),
    "tie": (0.5, 0.5),
    "zero": (0.0, 0.0),
    "satisfied": (0.2, 0.6),
    "negative": (-0.3, 0.1),
}

# how each side is passed: a leaf node, a bare value, or the first row's
# number as a float constant (beside an array on the other side)
FORMS = {
    "node_node": ("node", "node"),
    "node_bare": ("node", "bare"),
    "bare_node": ("bare", "node"),
    "bare_bare": ("bare", "bare"),
    "node_float": ("node", "float"),
    "float_node": ("float", "node"),
}


def _operand(values, how):
    if how == "float":
        return float(values[0])
    if np.ndim(values) == 0:
        return var(values) if how == "node" else float(values)
    return var(np.array(values)) if how == "node" else np.array(values)


def _cases():
    for op in OPS:
        for name, (xs, ys) in ROWS.items():
            for form, hows in FORMS.items():
                yield pytest.param(op, xs, ys, hows, id=f"{op}-{name}-{form}")
        for name, (x, y) in SCALARS.items():
            for form in ("node_node", "node_bare", "bare_node", "bare_bare"):
                yield pytest.param(op, x, y, FORMS[form], id=f"{op}-scalar_{name}-{form}")


@pytest.mark.parametrize("op, xs, ys, hows", list(_cases()))
def test_one_node_op_matches_its_composed_reference(op, xs, ys, hows):
    fused, composed = OPS[op]
    x, y = _operand(xs, hows[0]), _operand(ys, hows[1])
    got, want = fused(x, y), composed(x, y)

    assert isinstance(got, Node) == isinstance(want, Node)
    assert np.shape(val(got)) == np.shape(val(want))
    assert np.array_equal(val(got), val(want))

    leaves = [v for v in (x, y) if isinstance(v, Node)]
    if not isinstance(got, Node):
        return
    assert len(got.parents) == len(leaves)
    assert all(p is leaf for p, leaf in zip(got.parents, leaves))
    g_got, g_want = grad(got, leaves), grad(want, leaves)
    shape = np.shape(val(want))
    pairs = [(np.broadcast_to(g_got[v], shape), np.broadcast_to(g_want[v], shape)) for v in leaves]
    scale = max(float(np.max(np.abs(w), initial=0.0)) for _, w in pairs)
    for g, w in pairs:
        assert np.all(np.abs(g - w) <= 1e-15 * scale), (g, w)


def test_a_hinge_with_no_violated_row_is_the_bare_zero():
    x = var(np.array([0.1, 0.2]))
    assert dl2_hinge(x, np.array([0.3, 0.2000001])) == 0.0
    assert not isinstance(dl2_hinge(x, 0.5), Node)


def test_fuzzy_le_keeps_the_kink_conventions():
    # a tie goes to the hinge's branch, and d|x|/dx is 0 at x == 0
    x, y = var(np.array([0.0, 0.3])), var(np.array([0.0, 0.3]))
    g = grad(fuzzy_le(x, y), [x, y])
    den = np.array([0.05, 0.65])
    np.testing.assert_array_equal(g[x], -1.0 / den)
    np.testing.assert_array_equal(g[y], 1.0 / den)


def _reachable(root):
    seen, stack = set(), [root]
    while stack:
        n = stack.pop()
        if isinstance(n, Node) and n not in seen:
            seen.add(n)
            stack.extend(n.parents)
    return len(seen)


@pytest.mark.parametrize("constraint, most", [("csim", 9), ("group", 24)])
def test_an_rc_batch_records_a_small_tape(constraint, most):
    t = synthetic_tables(10)
    f = csim_formula(t.triples, 10) if constraint == "csim" else group_formula(t.groups, eps=0.05)
    fn = loss_function(f, make_backend("rc"))
    probs = np.random.default_rng(2).dirichlet(np.ones(10), size=256)
    leaf = var(np.ascontiguousarray(probs.T))
    loss = fn(batch_env([leaf], [np.zeros((20, 256))]))
    assert _reachable(loss) <= most
