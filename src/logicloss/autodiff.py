"""Reverse-mode automatic differentiation over a batch axis.

A value is an ndarray whose first axis runs over the samples of a batch
(1-d, or with a trailing axis from `gather`), a matrix whose first axis
runs over the entries of a vector and whose second runs over the batch, a
scalar that is the same on every row (a formula's constant, or the value
of a one-sample tape node), or a `Node` holding any of these.  One sample
is a batch of one.  Arithmetic involving at least one node records the
local derivatives eagerly, so the backward pass is a single accumulation
sweep in reverse topological order.  An operation whose result cannot
depend on any node returns a bare value, which keeps dead branches (the
losing side of a max, a satisfied sub-constraint) off the tape entirely.

Every operation has one numpy body, and each row is an independent
sample: branching operations are masked selects (`select`) that apply the
scalar rule row by row, and a mask that is uniform over the batch returns
the winning operand itself, so dead branches stay off the tape here too.
Domain checks fire only on rows that take the guarded branch.  `Node`
sets `__array_ufunc__ = None`, so `ndarray <op> Node` defers to the
node's reflected operator instead of building an object array.

Three operations have partials that are not elementwise: `gather` reads
entries of a matrix, one entry as a row over the batch or several side by
side along a last axis (an index may repeat); `sum_entries` sums a matrix
over its entries; and `aggregate` reduces a last axis with a given rule,
in one node.  Their partials are small objects whose `__rmul__` maps the
child's adjoint into the parent's shape (scattering each gathered slot
back into its entry's row, repeating a sum's adjoint over the entries, or
spreading the reduction's adjoint along the reduced axis), so the reverse
sweep keeps its one rule, `p.adjoint += a * d`, for array and scalar
adjoints alike.  The loss compiler uses them to read a batch's outputs
from one leaf, to evaluate conjuncts of one shape once, on a (batch,
conjuncts) array, and to reduce a whole conjunction by its t-norm at once.

Kink conventions, applied consistently here, row by row, and in the
analytic backprop elsewhere:
  - max(a, b) routes the gradient to `a` on ties; min(a, b) likewise
  - d|x|/dx at 0 is 0
  - 0 ** 0 == 1, with zero partials at that corner
  - d sqrt(x)/dx at 0 is 0
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Sequence

import numpy as np


class DomainError(ArithmeticError):
    """An operation left its numeric domain (ln(x<=0), x/0, 0**negative, sqrt(x<0))."""


# Optional branch-distance recording.  When a list is installed via
# track_branch_margins(), every value-level branch decision (max/min/abs,
# piecewise ops in the logic layer, the kinks of a t-norm's aggregation)
# appends the distance of each row to the branch boundary, an array over
# the batch (a scalar when the decision is the same on every row); a row
# that does not take the guarded branch records inf.  Gradient-check tests
# use this to reject sample points that sit too close to a kink for finite
# differences to be trustworthy.
_margins: list | None = None


@contextmanager
def track_branch_margins():
    global _margins
    saved = _margins
    _margins = []
    try:
        yield _margins
    finally:
        _margins = saved


def report_margin(a, b=0.0, slots=False) -> None:
    """Record |a - b| when tracking is on; `a` may be a function of no
    arguments, for a distance that costs work to compute.  With `slots`,
    the last axis holds one margin per slot of a reduction, and each slot
    is recorded on its own."""
    if _margins is not None:
        d = np.abs(np.subtract(a() if callable(a) else a, b))
        if slots:
            _margins.extend(np.moveaxis(d, -1, 0))
        else:
            _margins.append(d)


def _check_divisor(v) -> None:
    if not np.asarray(v).all():
        raise DomainError("division by zero")


class Node:
    """One tape entry: a value plus references to the nodes it came from.

    `partials` holds the local derivative with respect to each parent,
    evaluated at record time (a scalar, or an array over the batch axis);
    `adjoint` is scratch space for grad().
    """

    __slots__ = ("value", "parents", "partials", "adjoint")

    # numpy must hand `ndarray <op> Node` to the reflected method below
    __array_ufunc__ = None

    def __init__(self, value, parents=(), partials=()):
        self.value = value
        self.parents = parents
        self.partials = partials
        self.adjoint = 0.0

    def __repr__(self):
        return f"Node({self.value!r})"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Node):
            return Node(self.value + other.value, (self, other), (1.0, 1.0))
        return Node(self.value + other, (self,), (1.0,))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Node):
            return Node(self.value - other.value, (self, other), (1.0, -1.0))
        return Node(self.value - other, (self,), (1.0,))

    def __rsub__(self, other):
        return Node(other - self.value, (self,), (-1.0,))

    def __mul__(self, other):
        if isinstance(other, Node):
            return Node(self.value * other.value, (self, other), (other.value, self.value))
        return Node(self.value * other, (self,), (other,))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Node):
            ov = other.value
            _check_divisor(ov)
            return Node(self.value / ov, (self, other), (1.0 / ov, -self.value / (ov * ov)))
        _check_divisor(other)
        return Node(self.value / other, (self,), (1.0 / other,))

    def __rtruediv__(self, other):
        v = self.value
        _check_divisor(v)
        return Node(other / v, (self,), (-other / (v * v),))

    def __neg__(self):
        return Node(-self.value, (self,), (-1.0,))

    def __pow__(self, other):
        return vpow(self, other)

    def __rpow__(self, other):
        return vpow(other, self)


def var(value) -> Node:
    """A leaf node to differentiate with respect to: a scalar, or an array
    over the batch, such as the matrix of a whole batch vector."""
    if isinstance(value, np.ndarray):
        return Node(np.asarray(value, dtype=float))
    return Node(float(value))


def val(x):
    """The value of a node, or the value itself."""
    return x.value if isinstance(x, Node) else x


def record(value, *pairs):
    """A node holding `value` whose parents are the operands of the
    (operand, partial) `pairs` that are nodes, in order, each with its
    partial; the bare value when no operand is a node.  A partial may be a
    function of no arguments, called only when its operand is a node."""
    parents = []
    partials = []
    for p, d in pairs:
        if isinstance(p, Node):
            parents.append(p)
            partials.append(d() if callable(d) else d)
    if not parents:
        return value
    return Node(value, tuple(parents), tuple(partials))


def select(mask, a, b):
    """Row-wise `a if mask else b` for a boolean mask over the batch axis.

    A uniform mask (a numpy scalar one always is) returns the winning
    operand itself.  Otherwise each row's gradient goes to the operand
    that row took.
    """
    hits = np.count_nonzero(mask)
    if hits == mask.size:
        return a
    if hits == 0:
        return b
    return record(
        np.where(mask, val(a), val(b)),
        (a, lambda: mask.astype(float)),
        (b, lambda: (~mask).astype(float)),
    )


# -- matrices: reading entries, summing over them, reducing a last axis --
# A batch vector is a matrix whose first axis runs over its entries and
# whose second runs over the samples of the batch.


@functools.lru_cache(maxsize=1024)
def _gather_plan(idx):
    """The index array of a tuple of entry indices, and its scatter passes:
    pass k holds the (k+1)-th occurrence of each entry that has one, as
    (entries, slots) index arrays, so no pass names an entry twice."""
    passes: list[tuple[list, list]] = []
    seen: dict[int, int] = {}
    for j, i in enumerate(idx):
        k = seen.get(i, 0)
        seen[i] = k + 1
        if k == len(passes):
            passes.append(([], []))
        passes[k][0].append(i)
        passes[k][1].append(j)
    arrays = tuple((np.array(r, dtype=np.intp), np.array(s, dtype=np.intp)) for r, s in passes)
    return np.array(idx, dtype=np.intp), arrays


class _Scatter:
    """Partial of a gather with respect to its matrix: the adjoint of each
    slot added into the row of the entry it read, in slot order (a
    repeated entry sums its slots left to right), on a zero matrix."""

    __slots__ = ("shape", "rows", "passes")
    __array_ufunc__ = None

    def __init__(self, shape, rows, passes):
        self.shape = shape
        self.rows = rows
        self.passes = passes

    def __rmul__(self, a):
        out = np.zeros(self.shape)
        if self.passes is None:
            out[self.rows] = a
            return out
        uniform = np.ndim(a) == 0
        for k, (rows, slots) in enumerate(self.passes):
            part = a if uniform else a[:, slots].T
            if k:
                out[rows] += part
            else:
                out[rows] = part
        return out


def gather(m, idx):
    """Entries of the matrix `m` (an array, or a node holding one).

    An int reads one entry: the row m[idx], over the batch.  A tuple reads
    one entry per slot, an index may repeat: the (batch, slots) array
    m[idx].T.  On a node the result is a node whose backward scatters each
    slot back into its entry's row; on an array it is a bare array.
    """
    mv = m.value if isinstance(m, Node) else m
    if isinstance(idx, tuple):
        rows, passes = _gather_plan(idx)
        value = mv[rows].T
    else:
        rows, passes = idx, None
        value = mv[idx]
    if not isinstance(m, Node):
        return value
    return Node(value, (m,), (_Scatter(mv.shape, rows, passes),))


class _Broadcast:
    """Partial of a sum over the entry axis: the sum's adjoint, the same on
    every entry."""

    __slots__ = ("shape",)
    __array_ufunc__ = None

    def __init__(self, shape):
        self.shape = shape

    def __rmul__(self, a):
        return np.broadcast_to(a, self.shape)


def sum_entries(m):
    """The sum over the entries of the matrix `m`, one value per sample,
    added in entry order as a left fold over the entries adds them.

    numpy reduces a C-ordered matrix row by row, the fold's order, except
    along a single column, which it sums pairwise; a running sum keeps the
    order there.
    """
    mv = np.ascontiguousarray(m.value if isinstance(m, Node) else m)
    if mv.shape[1] == 1:
        s = np.add.accumulate(mv, axis=0)[-1]
    else:
        s = np.add.reduce(mv, axis=0)
    if isinstance(m, Node):
        return Node(s, (m,), (_Broadcast(mv.shape),))
    return s


class _Spread:
    """Partial of a reduction over the last axis with respect to a piece
    that fills several slots of it: the reduction's adjoint, repeated along
    that axis, times the partials of those slots."""

    __slots__ = ("d",)
    __array_ufunc__ = None

    def __init__(self, d):
        self.d = d

    def __rmul__(self, a):
        return np.asarray(a)[..., None] * self.d


def aggregate(pieces, rule):
    """`rule` applied along the last axis of the array that `pieces` lay out.

    Each piece is (value, slots).  With a tuple of slots, the value's own
    last axis fills those positions of the new last axis, in order; with an
    int slot, the whole value fills that one position.  A scalar fills its
    positions on every row.  `rule(x)` returns the reduction of x along its
    last axis and, with x's shape, the partials of that by each entry.  The
    result is one node whose parents are the pieces that are nodes, or a
    bare value when no piece is a node (a scalar when no piece is an array).
    A lone piece whose value fills every slot, in order, is reduced as a
    C-ordered copy of that value.
    """
    if len(pieces) == 1:
        p, s = pieces[0]
        v = val(p)
        if type(s) is tuple and np.shape(v)[-1:] == (len(s),) and s == tuple(range(len(s))):
            value, d = rule(np.array(v, dtype=float, order="C"))
            return record(value, (p, lambda: _Spread(d)))
    values = [p.value if isinstance(p, Node) else p for p, _ in pieces]
    n = sum(len(s) if type(s) is tuple else 1 for _, s in pieces)
    outer = np.broadcast_shapes(
        *(np.shape(v)[:-1] if type(s) is tuple else np.shape(v) for v, (_, s) in zip(values, pieces))
    )
    x = np.empty(outer + (n,))
    for v, (_, s) in zip(values, pieces):
        x[..., s] = v
    value, d = rule(x)
    parents = []
    partials = []
    for p, s in pieces:
        if isinstance(p, Node):
            parents.append(p)
            partials.append(_Spread(d[..., s]) if type(s) is tuple else d[..., s])
    if not parents:
        return value
    return Node(value, tuple(parents), tuple(partials))


# -- piecewise and transcendental operations --------------------------
# Each accepts scalars, arrays or nodes and returns a bare value when no
# node is involved (or when the winning branch is constant).


def vmax(a, b):
    av = a.value if isinstance(a, Node) else a
    bv = b.value if isinstance(b, Node) else b
    report_margin(av, bv)
    return select(np.greater_equal(av, bv), a, b)


def vmin(a, b):
    av = a.value if isinstance(a, Node) else a
    bv = b.value if isinstance(b, Node) else b
    report_margin(av, bv)
    return select(np.less_equal(av, bv), a, b)


def vabs(a):
    v = a.value if isinstance(a, Node) else a
    report_margin(v)
    if not isinstance(a, Node):
        return np.abs(v)
    if np.greater(v, 0.0).all():
        return a
    return Node(np.abs(v), (a,), (np.sign(v),))


def vexp(a):
    e = np.exp(val(a))
    if isinstance(a, Node):
        return Node(e, (a,), (e,))
    return e


def vln(a):
    v = a.value if isinstance(a, Node) else a
    if np.less_equal(v, 0.0).any():
        raise DomainError(f"ln of non-positive value {float(np.min(v))!r}")
    out = np.log(v)
    if isinstance(a, Node):
        return Node(out, (a,), (1.0 / v,))
    return out


def vsqrt(a):
    v = a.value if isinstance(a, Node) else a
    if np.less(v, 0.0).any():
        raise DomainError(f"sqrt of negative value {float(np.min(v))!r}")
    # unbounded derivative as v -> 0
    report_margin(v)
    s = np.sqrt(v)
    if isinstance(a, Node):
        # 0.5 / inf is the zero partial at v == 0
        return Node(s, (a,), (0.5 / np.where(v == 0.0, np.inf, s),))
    return s


def _sigmoid(x):
    # exp(-|x|) is exp(-x) on the x >= 0 rows and exp(x) on the others
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def vsigmoid(a):
    if isinstance(a, Node):
        v = _sigmoid(a.value)
        return Node(v, (a,), (v * (1.0 - v),))
    return _sigmoid(a)


def pow_parts(av, bv):
    """Value and base partial of av ** bv, with vpow's base-0 conventions
    and without its domain checks."""
    av = np.asarray(av, dtype=float)
    bv = np.asarray(bv, dtype=float)
    zero = av == 0.0
    # base-0 rows compute on a stand-in base of 1, then take the conventions
    base = np.where(zero, 1.0, av)
    v = base**bv
    da = bv * base ** (bv - 1.0)
    if zero.any():
        v = np.where(zero, np.where(bv == 0.0, 1.0, 0.0), v)
        da = np.where(zero, np.where(bv == 1.0, 1.0, 0.0), da)
    return v, da


def vpow(a, b):
    """a ** b for a >= 0, with 0 ** 0 == 1 and zero partials on the base-0 set."""
    av = np.asarray(val(a), dtype=float)
    bv = np.asarray(val(b), dtype=float)
    if (av < 0.0).any():
        raise DomainError("pow with negative base")
    zero = av == 0.0
    if (zero & (bv < 0.0)).any():
        raise DomainError("pow of zero base with negative exponent")
    # the derivative in the base blows up as base -> 0 whenever exp < 1
    report_margin(lambda: np.where(bv < 1.0, av, np.inf))
    v, da = pow_parts(av, bv)
    return record(v, (a, da), (b, lambda: np.where(zero, 0.0, v * np.log(np.where(zero, 1.0, av)))))


# -- gradients ---------------------------------------------------------


def grad(root, wrt: Sequence[Node]) -> dict[Node, object]:
    """Partials of `root` with respect to each node in `wrt`.

    One reverse sweep over the subgraph reachable from the root.  Nodes in
    `wrt` that the root does not depend on get partial 0.  For a root over
    a batch axis the rows are independent samples, so each row of a
    partial is that sample's own derivative; a partial that is the same
    for every row may come back as a scalar.
    """
    wanted = list(wrt)
    if not isinstance(root, Node):
        return {n: 0.0 for n in wanted}

    # Iterative topological order; also resets adjoints from earlier sweeps.
    topo: list[Node] = []
    visited: set[Node] = set()
    stack: list[tuple[Node, int]] = [(root, 0)]
    visited.add(root)
    root.adjoint = 0.0
    while stack:
        node, i = stack[-1]
        parents = node.parents
        if i < len(parents):
            stack[-1] = (node, i + 1)
            p = parents[i]
            if p not in visited:
                visited.add(p)
                p.adjoint = 0.0
                stack.append((p, 0))
        else:
            stack.pop()
            topo.append(node)

    root.adjoint = 1.0
    # a unit partial (add, sub, neg, a clamp's pass-through) needs no
    # multiply, and a - b is a + (-b) bit for bit
    for node in reversed(topo):
        a = node.adjoint
        for p, d in zip(node.parents, node.partials):
            if type(d) is float:
                if d == 1.0:
                    p.adjoint += a
                    continue
                if d == -1.0:
                    p.adjoint -= a
                    continue
            p.adjoint += a * d

    return {n: (n.adjoint if n in visited else 0.0) for n in wanted}

