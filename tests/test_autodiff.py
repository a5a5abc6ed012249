import math
import random

import pytest
from hypothesis import given, strategies as st

import numpy as np

from logicloss.autodiff import (
    DomainError,
    Node,
    aggregate,
    gather,
    grad,
    sum_entries,
    track_branch_margins,
    val,
    var,
    vabs,
    vexp,
    vln,
    vmax,
    vmin,
    vpow,
    vsigmoid,
    vsqrt,
)
from oracles import finite_diff


def test_record_values():
    x = var(5.0)
    y = var(3.0)
    assert val(vmax(x - y, 0.0)) == 2.0
    assert val(vsigmoid(var(0.0))) == 0.5
    assert val(vsqrt(var(0.3) * 0.3 + var(0.4) * 0.4)) == pytest.approx(0.5, abs=1e-15)


def test_float_only_inputs_stay_floats():
    assert vmax(2.0, 3.0) == 3.0
    assert vmin(2.0, 3.0) == 2.0
    assert vexp(0.0) == 1.0
    assert vabs(-2.5) == 2.5
    assert vpow(2.0, 3.0) == 8.0
    # A constant winning branch prunes the node off the tape.
    x = var(1.0)
    assert vmax(x - 2.0, 0.0) == 0.0


def test_grad_max_routes_to_active_argument():
    x = var(5.0)
    y = var(3.0)
    g = grad(vmax(x - y, 0.0), [x, y])
    assert g[x] == 1.0
    assert g[y] == -1.0

    x = var(1.0)
    y = var(3.0)
    g = grad(vmax(x - y, 0.0), [x, y])
    assert g[x] == 0.0
    assert g[y] == 0.0


def test_grad_min_active_argument():
    x = var(0.1)
    y = var(1.0)
    z = vmin(x, y)
    g = grad(z, [x, y])
    assert g[x] == 1.0
    assert g[y] == 0.0


def test_tie_conventions():
    # max/min ties route to the first argument.
    x = var(2.0)
    y = var(2.0)
    g = grad(vmax(x, y), [x, y])
    assert (g[x], g[y]) == (1.0, 0.0)
    g = grad(vmin(x, y), [x, y])
    assert (g[x], g[y]) == (1.0, 0.0)
    # |x| has derivative 0 at 0.
    z = var(0.0)
    assert grad(vabs(z), [z])[z] == 0.0
    # sqrt derivative pinned to 0 at 0.
    z = var(0.0)
    assert grad(vsqrt(z), [z])[z] == 0.0


def test_pow_conventions():
    assert vpow(0.0, 0.0) == 1.0
    b = var(0.0)
    e = var(0.0)
    p = vpow(b, e)
    assert p.value == 1.0
    g = grad(p, [b, e])
    assert (g[b], g[e]) == (0.0, 0.0)
    # base 0 with exponent 1 keeps the identity derivative
    b = var(0.0)
    g = grad(vpow(b, 1.0), [b])
    assert g[b] == 1.0
    # base 0 with 0 < exp < 1 would have an infinite slope; pinned to 0
    b = var(0.0)
    g = grad(vpow(b, 0.5), [b])
    assert g[b] == 0.0


def test_domain_errors():
    with pytest.raises(DomainError):
        vln(var(-1.0))
    with pytest.raises(DomainError):
        vln(0.0)
    with pytest.raises(DomainError):
        var(1.0) / 0.0
    with pytest.raises(DomainError):
        var(1.0) / var(0.0)
    with pytest.raises(DomainError):
        2.0 / (var(0.0))
    with pytest.raises(DomainError):
        vsqrt(var(-0.5))
    with pytest.raises(DomainError):
        vpow(var(-1.0), 0.5)
    with pytest.raises(DomainError):
        vpow(var(0.0), -1.0)


def test_product_and_chain_rules():
    x = var(3.0)
    y = var(4.0)
    z = x * y + x  # diamond: x feeds two paths
    g = grad(z, [x, y])
    assert g[x] == 5.0
    assert g[y] == 3.0


def test_div_grad():
    x = var(1.0)
    y = var(2.0)
    g = grad(x / y, [x, y])
    assert g[x] == pytest.approx(0.5)
    assert g[y] == pytest.approx(-0.25)


def test_unreferenced_variable_gets_zero():
    x = var(2.0)
    z = var(7.0)
    g = grad(x * x, [x, z])
    assert g[x] == 4.0
    assert g[z] == 0.0


def test_adjoints_reset_between_sweeps():
    x = var(2.0)
    y = x * x
    assert grad(y, [x])[x] == 4.0
    assert grad(y, [x])[x] == 4.0


def test_grad_of_float_root_is_zero():
    x = var(1.0)
    root = vmax(x - 2.0, 0.0)  # pruned to the constant branch
    assert root == 0.0
    assert grad(root, [x])[x] == 0.0


def test_finite_diff_square():
    g = finite_diff(lambda p: p[0] * p[0], [3.0])
    assert g[0] == pytest.approx(6.0, abs=1e-6)


def test_finite_diff_constant():
    g = finite_diff(lambda p: 1.25, [0.3, -0.7])
    assert g == [0.0, 0.0]


def test_finite_diff_reichenbach_point():
    # f(x, y) = 1 - x + x*y at (0.5, 0.5): df/dx = y - 1 = -0.5, df/dy = x = 0.5
    f = lambda p: 1.0 - p[0] + p[0] * p[1]
    g = finite_diff(f, [0.5, 0.5])
    assert g[0] == pytest.approx(-0.5, abs=1e-9)
    assert g[1] == pytest.approx(0.5, abs=1e-9)


def _random_expr(seed, leaves):
    """A random smooth scalar expression over the given leaf values/nodes."""
    rng = random.Random(seed)
    ops = ["add", "sub", "mul", "sigmoid", "exp", "sqrtp", "div"]
    e = rng.choice(leaves) * 0.7 + rng.choice(leaves) * 0.3
    for _ in range(rng.randrange(2, 6)):
        op = rng.choice(ops)
        if op == "add":
            e = e + rng.choice(leaves)
        elif op == "sub":
            e = rng.choice(leaves) - e
        elif op == "mul":
            e = e * rng.choice(leaves)
        elif op == "sigmoid":
            e = vsigmoid(e)
        elif op == "exp":
            e = vexp(vsigmoid(e))  # bounded argument, no overflow however deep
        elif op == "sqrtp":
            e = vsqrt(e * e + 1.0)
        elif op == "div":
            e = e / (vabs(rng.choice(leaves)) + 2.0)
    return e


def test_grad_matches_finite_diff_on_random_expressions():
    rng = random.Random(20240817)
    for case in range(200):
        point = [rng.uniform(-2.0, 2.0) for _ in range(3)]
        leaves = [var(v) for v in point]
        root = _random_expr(case, leaves)
        g = grad(root, leaves)
        fd = finite_diff(lambda p: val(_random_expr(case, list(p))), point)
        for lf, want in zip(leaves, fd):
            assert g[lf] == pytest.approx(want, rel=1e-4, abs=1e-6)


def test_determinism_bit_identical():
    def build():
        x = var(0.3)
        y = var(-1.2)
        z = vsigmoid(x * y + vexp(x * 0.5)) * vsqrt(vabs(y) + 1.0)
        g = grad(z, [x, y])
        return val(z), g[x], g[y]

    assert build() == build()


def test_margin_tracking():
    with track_branch_margins() as margins:
        vmax(var(0.4), 0.1)
    assert margins == [pytest.approx(0.3)]
    # outside the context nothing is recorded and nothing breaks
    vmax(var(0.4), 0.1)
    with track_branch_margins() as margins:
        vmin(2.0, 5.0)
        vabs(var(-0.25))
        vpow(var(0.2), 0.5)
        vsqrt(var(0.09))
    assert margins == [3.0, 0.25, pytest.approx(0.2), pytest.approx(0.09)]


@given(st.floats(-30, 30), st.floats(-30, 30))
def test_sigmoid_stable_and_bounded(a, b):
    v = val(vsigmoid(var(a) + b))
    assert 0.0 <= v <= 1.0


@given(st.floats(0.01, 50), st.floats(-3, 3))
def test_pow_matches_math(base, expo):
    assert val(vpow(var(base), var(expo))) == pytest.approx(base ** expo, rel=1e-12)


def test_pow_partials_against_finite_diff():
    for base, expo in [(0.7, 2.3), (1.9, -1.1), (0.2, 0.5)]:
        b = var(base)
        e = var(expo)
        g = grad(vpow(b, e), [b, e])
        fd = finite_diff(lambda p: p[0] ** p[1], [base, expo])
        assert g[b] == pytest.approx(fd[0], rel=1e-5)
        assert g[e] == pytest.approx(fd[1], rel=1e-5)


def test_deep_chain_iterative_topo():
    # would blow the recursion limit if backward were recursive
    x = var(1.0)
    e = x
    for _ in range(5000):
        e = e * 0.9999 + 0.0001
    g = grad(e, [x])
    assert g[x] == pytest.approx(0.9999 ** 5000, rel=1e-9)


# -- gather, sum_entries and aggregate ----------------------------------

# a matrix has one row per entry and one column per sample; entry 0 fills
# two slots of the first gather, entry 2 one slot of each, entry 1 one
# slot of the first and two of the second
_SLOTS = ((0, 2, 0, 1), (2, 1, 1, 3))
_WEIGHTS = np.array([1.0, 2.0, 3.0, 4.0])


def _weighted_sum(x):
    return (x * _WEIGHTS).sum(axis=-1), np.broadcast_to(_WEIGHTS, x.shape)


def _through_gather(m):
    a, b = (gather(m, idx) for idx in _SLOTS)
    t = a * b + vsqrt(a)
    return aggregate([(t, (0, 1, 2, 3))], _weighted_sum)


def _per_entry(m):
    out = 0.0
    for k, (i, j) in enumerate(zip(*_SLOTS)):
        a, b = gather(m, i), gather(m, j)
        out = out + (k + 1.0) * (a * b + vsqrt(a))
    return out


def test_gather_and_aggregate_match_a_per_entry_expression_and_finite_differences():
    point = np.random.default_rng(4).uniform(0.2, 1.5, size=(4, 3))
    leaf = var(point)
    got = _through_gather(leaf)
    g = grad(got, [leaf])[leaf]
    want_leaf = var(point)
    want = _per_entry(want_leaf)
    gw = grad(want, [want_leaf])[want_leaf]
    np.testing.assert_allclose(val(got), val(want), rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(g, gw, rtol=1e-15, atol=0.0)
    # columns are independent samples, so each column's partial is that of the sum
    fd = finite_diff(lambda p: float(np.sum(_through_gather(np.reshape(p, point.shape)))), point.ravel())
    np.testing.assert_allclose(g.ravel(), fd, rtol=1e-6)


def test_gather_reads_rows_and_slots():
    m = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(gather(m, 2), m[2])
    s = gather(m, (3, 0, 3))
    assert type(s) is np.ndarray and s.shape == (3, 3)
    assert np.array_equal(s, np.stack([m[3], m[0], m[3]], axis=-1))
    leaf = var(m)
    for idx in (2, (3, 0, 3)):
        node = gather(leaf, idx)
        assert isinstance(node, Node) and node.parents == (leaf,)
        assert np.array_equal(node.value, gather(m, idx))


def test_a_repeated_entry_sums_its_slots_left_to_right():
    """The scatter adds a repeated entry's slots in slot order, as
    `a[:, slots].sum(-1)` does, also past numpy's pairwise block of 8."""
    rng = np.random.default_rng(5)
    slots = (3, 0, 3, 3, 1, 0, 3, 3, 3, 3, 3, 3, 3)  # entry 3 ten times, entry 2 never
    m = var(rng.uniform(size=(5, 64)))
    a = rng.normal(size=(64, len(slots)))
    g = grad(gather(m, slots) * a, [m])[m]
    for i in range(5):
        want = a[:, [j for j, s in enumerate(slots) if s == i]].sum(-1)
        assert np.array_equal(g[i], want), i
    assert not g[2].any() and g.shape == (5, 64)


def test_a_float_adjoint_reaches_gather_and_aggregate():
    m = var(np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]))
    # the gathered node is the root, so its adjoint is the float 1.0
    assert np.array_equal(grad(gather(m, (0, 0, 1)), [m])[m], [[2.0, 2.0], [1.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(grad(gather(m, 1), [m])[m], [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    # 1 - x hands the float -1.0 down to the aggregate, which spreads it
    # over the gathered slots
    g = grad(1.0 - aggregate([(gather(m, (2, 0, 2, 0)), (0, 1, 2, 3))], _weighted_sum), [m])[m]
    assert np.array_equal(g, [[-6.0, -6.0], [0.0, 0.0], [-4.0, -4.0]])


def test_gather_and_aggregate_without_nodes_return_bare_values():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    s = gather(m, (1, 0, 1))
    assert type(s) is np.ndarray
    assert np.array_equal(s, [[3.0, 1.0, 3.0], [4.0, 2.0, 4.0]])
    r = aggregate([(s, (0, 2, 3)), (gather(m, 0), 1)], _weighted_sum)
    # rows laid out as [3, 1, 1, 3] and [4, 2, 2, 4]
    assert type(r) is np.ndarray and np.array_equal(r, [20.0, 30.0])
    # nothing but floats reduces to a float
    r = aggregate([(0.5, (0, 1)), (2.0, 3), (1.0, 2)], _weighted_sum)
    assert type(r) is float and r == 0.5 + 1.0 + 3.0 + 8.0


def test_sum_entries_sums_each_column_with_a_repeated_adjoint():
    m = np.array([[1.0, 2.0, 0.5], [3.0, 4.0, 0.25]])
    assert type(sum_entries(m)) is np.ndarray and np.array_equal(sum_entries(m), [4.0, 6.0, 0.75])
    leaf = var(m)
    s = sum_entries(leaf)
    assert isinstance(s, Node) and np.array_equal(s.value, [4.0, 6.0, 0.75])
    w = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(grad(s * w, [leaf])[leaf], [w, w])
    # a float adjoint stays a float, the same on every entry
    assert grad(s, [leaf])[leaf] == 1.0


def test_aggregate_lays_pieces_out_in_slot_order():
    """Blocks, single columns and floats land on their slots, and each
    piece's gradient is its own slots' partials times the adjoint."""
    seen = []

    def first_min(x):
        # min whose partial is one-hot at the first argmin
        seen.append(x.copy())
        d = (np.arange(x.shape[-1]) == x.argmin(axis=-1)[..., None]).astype(float)
        return x.min(axis=-1), d

    block = var(np.array([[0.5, 0.3], [0.2, 0.9]]))  # slots 0 and 2
    single = var(np.array([0.3, 0.4]))  # slot 1
    r = aggregate([(single, 1), (block, (0, 2)), (0.8, (3,))], first_min)
    assert np.array_equal(seen[0], [[0.5, 0.3, 0.3, 0.8], [0.2, 0.4, 0.9, 0.8]])
    assert np.array_equal(val(r), [0.3, 0.2])
    g = grad(r * np.array([2.0, 3.0]), [block, single])
    # row 0 ties slot 1 (the single) with slot 2: the earlier slot wins
    assert np.array_equal(g[single], [2.0, 0.0])
    assert np.array_equal(g[block], [[0.0, 0.0], [3.0, 0.0]])
