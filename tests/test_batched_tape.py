"""The batched logic tape against per-sample scalar evaluation.

Training differentiates the constraint loss once per batch, with every
tape value an array over the batch axis.  The reference here is the
per-sample loop: one tape per sample (or sample pair), each a batch of
one whose probabilities are an (outputs, 1) leaf, its gradient chained
through the softmax one row at a time.  The two sum the per-sample losses
in a different order, so they agree to a relative error of 1e-12, not
bit for bit.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from logicloss.autodiff import (
    DomainError,
    Node,
    grad,
    select,
    track_branch_margins,
    val,
    var,
    vabs,
    vmax,
    vmin,
    vpow,
    vsqrt,
)
from logicloss.constraints import csim_formula, group_formula, lipschitz_formula, synthetic_tables
from logicloss.formula import batch_env
from logicloss.logics import BACKEND_NAMES, _clip01, i_godel, i_goguen, loss_function, make_backend
from logicloss.network import _logic_grads

N_CLASSES = 10
N_INPUTS = 4
REL_TOL = 1e-12
LAM = 0.7

_TABLES = synthetic_tables(N_CLASSES)
_FORMULAS = {
    "csim": csim_formula(_TABLES.triples, N_CLASSES),
    "group": group_formula(_TABLES.groups, eps=0.05),
    "lipschitz": lipschitz_formula(1.8),
}
COMBOS = [(b, c) for b in BACKEND_NAMES for c in _FORMULAS]


def _compiled(backend_name, constraint):
    backend = make_backend(backend_name)
    return loss_function(_FORMULAS[constraint], backend), constraint == "lipschitz"


def _scalar_reference(fn, paired, probs, X, lam):
    """Mean loss and logit gradient, one tape per unit, a batch of one."""
    n = len(probs)
    d_logits = np.zeros_like(probs)
    units = [(i, i + 1) for i in range(0, n - 1, 2)] if paired else [(i,) for i in range(n)]
    if not units:
        return 0.0, d_logits
    total = 0.0
    for unit in units:
        leaves = [var(probs[i][:, None].copy()) for i in unit]
        lv = fn(batch_env(leaves, [X[i][:, None] for i in unit]))
        total += np.asarray(val(lv)).item()
        if isinstance(lv, Node):
            g = grad(lv, leaves)
            for leaf, i in zip(leaves, unit):
                gp = np.broadcast_to(g[leaf], leaf.value.shape)[:, 0]
                p = probs[i]
                d_logits[i] += p * (gp - gp @ p)
    k = len(units)
    return total / k, (lam / k) * d_logits


def _rel_err(got, want):
    scale = float(np.linalg.norm(want))
    diff = float(np.linalg.norm(np.asarray(got) - np.asarray(want)))
    return diff / scale if scale else diff


def _logic_grads_dense(fn, paired, probs, X, lam):
    """`_logic_grads` with its gradient as an array: None, for a loss that
    never reached the tape, is the zero gradient."""
    loss, grad = _logic_grads(fn, paired, probs, X, lam)
    return loss, np.zeros_like(probs) if grad is None else grad


def _assert_matches_scalar(backend_name, constraint, probs, X):
    fn, paired = _compiled(backend_name, constraint)
    want_loss, want_grad = _scalar_reference(fn, paired, probs, X, LAM)
    got_loss, got_grad = _logic_grads_dense(fn, paired, probs, X, LAM)
    label = f"{backend_name}/{constraint}"
    assert _rel_err(got_loss, want_loss) <= REL_TOL, (label, got_loss, want_loss)
    assert _rel_err(got_grad, want_grad) <= REL_TOL, (label, got_grad, want_grad)


# -- inputs: random rows plus the saturated and tied rows where every
# branch convention is decided ------------------------------------------


def _normalised(us):
    s = sum(us)
    return [u / s for u in us]


_random_row = st.lists(
    st.floats(0.001, 1.0), min_size=N_CLASSES, max_size=N_CLASSES
).map(_normalised)
_one_hot = st.integers(0, N_CLASSES - 1).map(
    lambda i: [1.0 if j == i else 0.0 for j in range(N_CLASSES)]
)
_uniform = st.just([1.0 / N_CLASSES] * N_CLASSES)


@st.composite
def _tied_row(draw):
    row = draw(_random_row)
    i, j = draw(st.integers(0, N_CLASSES - 1)), draw(st.integers(0, N_CLASSES - 1))
    row[j] = row[i]  # exact tie p_i == p_j, no longer normalised
    return row


@st.composite
def _threshold_row(draw):
    row = draw(_random_row)
    row[draw(st.integers(0, N_CLASSES - 1))] = 1.0 / N_CLASSES  # exactly on csim's threshold
    return row


_row = st.one_of(_random_row, _one_hot, _uniform, _tied_row(), _threshold_row())


@st.composite
def _batch(draw):
    rows = draw(st.lists(_row, min_size=1, max_size=9))
    probs = np.array(rows, dtype=float)
    X = np.array(
        draw(
            st.lists(
                st.lists(st.floats(-2.0, 2.0), min_size=N_INPUTS, max_size=N_INPUTS),
                min_size=len(rows),
                max_size=len(rows),
            )
        )
    )
    return probs, X


@pytest.mark.parametrize("backend_name,constraint", COMBOS)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batch=_batch())
def test_batched_logic_grads_match_per_sample_scalar_loop(backend_name, constraint, batch):
    probs, X = batch
    _assert_matches_scalar(backend_name, constraint, probs, X)


@pytest.mark.parametrize("backend_name,constraint", COMBOS)
def test_fully_saturated_batch_matches_scalar_loop(backend_name, constraint):
    rows = [[1.0 if j == i else 0.0 for j in range(N_CLASSES)] for i in range(N_CLASSES)]
    rows += [[1.0 / N_CLASSES] * N_CLASSES]  # eleven rows: the paired constraint leaves one over
    X = np.random.default_rng(3).uniform(-1.0, 1.0, size=(len(rows), N_INPUTS))
    _assert_matches_scalar(backend_name, constraint, np.array(rows), X)


def test_paired_constraint_ignores_the_odd_tail():
    fn, paired = _compiled("rc", "lipschitz")
    rng = np.random.default_rng(5)
    probs = rng.dirichlet(np.ones(N_CLASSES), size=5)
    X = rng.normal(size=(5, N_INPUTS))
    loss4, grad4 = _logic_grads(fn, paired, probs[:4], X[:4], LAM)
    loss5, grad5 = _logic_grads(fn, paired, probs, X, LAM)
    assert loss5 == loss4
    assert np.array_equal(grad5[:4], grad4) and not grad5[4].any()
    assert _logic_grads(fn, paired, probs[:1], X[:1], LAM)[0] == 0.0


# -- masked branches ------------------------------------------------------


def _rowwise(op, *columns):
    """Scalar values and partials of `op`, one tape per row."""
    values, partials = [], []
    for args in zip(*columns):
        nodes = [var(a) for a in args]
        out = op(*nodes)
        values.append(val(out))
        g = grad(out, nodes)
        partials.append([g[nd] for nd in nodes])
    return np.array(values), np.array(partials).T


def _batched(op, *columns):
    nodes = [var(np.array(c)) for c in columns]
    out = op(*nodes)
    g = grad(out, nodes)
    n = len(columns[0])
    return np.broadcast_to(val(out), (n,)), [np.broadcast_to(g[nd], (n,)) for nd in nodes]


@pytest.mark.parametrize(
    "op,columns",
    [
        # row 0 sits on the y/x branch; the others return 1 without dividing by x = 0
        (i_goguen, ([0.5, 0.0, 0.0, 0.3], [0.2, 0.0, 0.4, 0.3])),
        (i_godel, ([0.5, 0.0, 0.3], [0.2, 0.4, 0.3])),
        # base-0 rows take the 0 ** 0 == 1 corner and zero partials
        (vpow, ([0.0, 0.5, 0.0, 0.0, 2.0], [0.0, 2.0, 1.0, 0.5, -1.0])),
        (lambda x, y: vmax(x, y), ([0.1, 0.4, 0.2], [0.3, 0.4, 0.1])),
        (lambda x, y: vmin(x, y), ([0.1, 0.4, 0.2], [0.3, 0.4, 0.1])),
        (lambda x, y: vabs(x - y), ([0.1, 0.4, 0.2], [0.3, 0.4, 0.1])),
        (lambda x, y: vsqrt(x * y), ([0.0, 0.4, 0.2], [0.3, 0.4, 0.1])),
        (lambda x, y: _clip01(x + y), ([0.9, 0.4, -0.5], [0.3, 0.4, 0.1])),
    ],
)
def test_masked_branches_match_scalar_rows_without_raising(op, columns):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, partials = _batched(op, *columns)
    want_values, want_partials = _rowwise(op, *columns)
    np.testing.assert_allclose(values, want_values, rtol=REL_TOL, atol=0.0)
    for got, want in zip(partials, want_partials):
        np.testing.assert_allclose(got, want, rtol=REL_TOL, atol=0.0)


@pytest.mark.parametrize(
    "op,columns",
    [
        (i_goguen, ([0.5, 0.0], [0.2, -0.1])),  # row 1 divides: 0 > -0.1
        (vpow, ([0.0, 0.5], [-1.0, 2.0])),  # 0 ** -1 on a row that takes it
        (vpow, ([0.3, -0.5], [1.0, 2.0])),
        (lambda x, y: vsqrt(x - y), ([0.5, 0.1], [0.2, 0.3])),
        (lambda x, y: x / (y - 0.3), ([0.5, 0.1], [0.2, 0.3])),
    ],
)
def test_a_taken_row_outside_the_domain_raises_like_the_scalar_path(op, columns):
    with pytest.raises(DomainError):
        _batched(op, *columns)
    with pytest.raises(DomainError):
        _rowwise(op, *columns)


def test_a_uniform_mask_keeps_the_dead_branch_off_the_tape():
    x = var(np.array([0.1, 0.5, 0.9]))
    assert vmax(x - 2.0, 0.0) == 0.0
    assert vmin(x, 5.0) is x
    assert i_godel(x, x + 1.0) == 1.0
    assert i_goguen(x, x) == 1.0
    assert _clip01(x) is x
    mask = np.array([True, False, True])
    assert not isinstance(select(mask, 1.0, np.zeros(3)), Node)


def _row_margins(margins, row):
    """One row's margins from a batch's record; a scalar margin holds for
    every row."""
    return [float(x) for m in margins for x in np.ravel(m if np.ndim(m) == 0 else m[row])]


def test_a_batch_records_per_row_the_margins_of_that_row_scored_alone():
    rng = np.random.default_rng(9)
    probs = rng.dirichlet(np.ones(N_CLASSES), size=6)
    probs[1] = np.eye(N_CLASSES)[2]  # saturated: satisfied comparisons tie at 0
    probs[3, 4] = probs[3, 5]  # a tie inside the row
    X = rng.normal(size=(6, N_INPUTS))
    for backend_name, constraint in COMBOS:
        fn, paired = _compiled(backend_name, constraint)
        with track_branch_margins() as batch:
            _logic_grads(fn, paired, probs, X, LAM)
        assert batch, (backend_name, constraint)
        width = 2 if paired else 1
        for u in range(len(probs) // width):
            rows = slice(width * u, width * (u + 1))
            with track_branch_margins() as alone:
                _logic_grads(fn, paired, probs[rows], X[rows], LAM)
            assert _row_margins(batch, u) == _row_margins(alone, 0), (backend_name, constraint, u)


def test_margins_are_each_rows_distance_from_its_branch_boundary():
    from logicloss.logics import _dl2_eq_indicator

    x, y = var(np.array([0.6, 0.1])), np.array([0.25, 0.3])
    with track_branch_margins() as margins:
        for op in (vmax, i_godel, i_goguen, _dl2_eq_indicator):
            op(x, y)
    # |x - y| for each op, and i_goguen's divisor x on the row that divides
    want = [[0.35, 0.2]] * 3 + [[0.6, np.inf], [0.35, 0.2]]
    assert len(margins) == len(want)
    for got, w in zip(margins, want):
        np.testing.assert_allclose(got, w, rtol=1e-15)


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_ndarray_op_node_returns_a_node(op):
    a = np.array([1.0, 2.0, 4.0])
    x = var(np.array([0.5, 0.25, 2.0]))
    apply = {
        "+": lambda l, r: l + r,
        "-": lambda l, r: l - r,
        "*": lambda l, r: l * r,
        "/": lambda l, r: l / r,
    }[op]
    out = apply(a, x)
    assert isinstance(out, Node)
    assert np.array_equal(out.value, apply(a, x.value))
    g = np.broadcast_to(grad(out, [x])[x], (3,))
    for i in range(3):
        xi = var(float(x.value[i]))
        assert g[i] == grad(apply(float(a[i]), xi), [xi])[xi]


def test_a_scalar_node_takes_the_batch_body():
    out = i_goguen(var(0.5), var(0.2))
    assert np.ndim(out.value) == 0 and math.isclose(val(out), 0.4)
    assert vpow(0.5, 2.0) == 0.25 and vsqrt(0.25) == 0.5
