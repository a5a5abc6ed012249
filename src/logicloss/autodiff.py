"""Reverse-mode automatic differentiation over scalars or a batch axis.

A value is a plain Python float, an ndarray whose first axis runs over the
samples of a batch (1-d, or with a trailing axis from `gather`), a matrix
whose first axis runs over the entries of a vector and whose second runs
over the batch, or a `Node` holding any of these.  Arithmetic involving at
least one node records the local derivatives eagerly, so the backward pass
is a single accumulation sweep in reverse topological order.  An operation
whose result cannot depend on any node returns a bare value, which keeps
dead branches (the losing side of a max, a satisfied sub-constraint) off
the tape entirely.

Every operation serves floats unchanged and never calls numpy on them.
When a value is an array, each row is an independent sample: branching
operations become masked selects (`select`) that apply the scalar rule row
by row, and a mask that is uniform over the batch returns the winning
operand itself, so dead branches stay off the tape here too.  Domain
checks fire only on rows that take the guarded branch.  `Node` sets
`__array_ufunc__ = None`, so `ndarray <op> Node` defers to the node's
reflected operator instead of building an object array.

Three operations have partials that are not elementwise: `gather` reads
entries of a matrix, one entry as a row over the batch or several side by
side along a last axis (an index may repeat); `sum_entries` sums a matrix
over its entries; and `aggregate` reduces a last axis with a given rule,
in one node.  Their partials are small objects whose `__rmul__` maps the
child's adjoint into the parent's shape (scattering each gathered slot
back into its entry's row, repeating a sum's adjoint over the entries, or
spreading the reduction's adjoint along the reduced axis), so the reverse
sweep keeps its one rule, `p.adjoint += a * d`, for array and float
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
import math
from contextlib import contextmanager
from typing import Sequence

import numpy as np


class DomainError(ArithmeticError):
    """An operation left its numeric domain (ln(x<=0), x/0, 0**negative, sqrt(x<0))."""


# Optional branch-distance recording on the float path.  When a list is
# installed via track_branch_margins(), every value-level branch decision on
# floats (max/min/abs, piecewise ops in the logic layer) appends its distance
# to the branch boundary; a batch records nothing.  Gradient-check tests use
# this to reject sample points that sit too close to a kink for finite
# differences to be trustworthy.
_margins: list[float] | None = None


@contextmanager
def track_branch_margins():
    global _margins
    saved = _margins
    _margins = []
    try:
        yield _margins
    finally:
        _margins = saved


def report_margin(d: float) -> None:
    if _margins is not None:
        _margins.append(d)


# The operations below test for a batch as `type(v) is not float and
# isinstance(v, np.ndarray)` (or, on a comparison's result, `type(v) is not
# bool and ...`), written out: on the float path that is one identity check,
# where a helper call or a bare isinstance costs the scalar oracle about
# four times as much per operation.


def _check_divisor(v) -> None:
    if type(v) is not float and isinstance(v, np.ndarray):
        if not v.all():
            raise DomainError("division by zero")
    elif v == 0.0:
        raise DomainError("division by zero")


class Node:
    """One tape entry: a value plus references to the nodes it came from.

    `partials` holds the local derivative with respect to each parent,
    evaluated at record time (a float, or an array over the batch axis);
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
    """A leaf node to differentiate with respect to: a float, or an array
    over the batch, such as the matrix of a whole batch vector."""
    if isinstance(value, np.ndarray):
        return Node(np.asarray(value, dtype=float))
    return Node(float(value))


def val(x):
    """The value of a node, or the value itself."""
    return x.value if isinstance(x, Node) else x


def select(mask, a, b):
    """Row-wise `a if mask else b` for a boolean array over the batch axis.

    A uniform mask returns the winning operand itself.  Otherwise each
    row's gradient goes to the operand that row took.
    """
    hits = np.count_nonzero(mask)
    if hits == mask.size:
        return a
    if hits == 0:
        return b
    value = np.where(mask, val(a), val(b))
    parents = []
    partials = []
    if isinstance(a, Node):
        parents.append(a)
        partials.append(mask.astype(float))
    if isinstance(b, Node):
        parents.append(b)
        partials.append((~mask).astype(float))
    if not parents:
        return value
    return Node(value, tuple(parents), tuple(partials))


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
        uniform = type(a) is float or not isinstance(a, np.ndarray)
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
        if type(a) is not float and isinstance(a, np.ndarray):
            return np.broadcast_to(a, self.shape)
        return a


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
        if type(a) is not float and isinstance(a, np.ndarray):
            return a[..., None] * self.d
        return a * self.d


def aggregate(pieces, rule):
    """`rule` applied along the last axis of the array that `pieces` lay out.

    Each piece is (value, slots).  With a tuple of slots, the value's own
    last axis fills those positions of the new last axis, in order; with an
    int slot, the whole value fills that one position.  A float fills its
    positions on every row.  `rule(x)` returns the reduction of x along its
    last axis and, with x's shape, the partials of that by each entry.  The
    result is one node whose parents are the pieces that are nodes, or a
    bare value when no piece is a node (a float when no piece is an array).
    """
    values = [p.value if isinstance(p, Node) else p for p, _ in pieces]
    n = sum(len(s) if type(s) is tuple else 1 for _, s in pieces)
    whole = len(pieces) == 1 and isinstance(values[0], np.ndarray) and pieces[0][1] == tuple(range(n))
    if whole:
        x = values[0]
    else:
        outer = np.broadcast_shapes(
            *(np.shape(v)[:-1] if type(s) is tuple else np.shape(v) for v, (_, s) in zip(values, pieces))
        )
        x = np.empty(outer + (n,))
        for v, (_, s) in zip(values, pieces):
            x[..., s] = v
    value, d = rule(x)
    if x.ndim == 1:
        value = float(value)
    parents = []
    partials = []
    for p, s in pieces:
        if isinstance(p, Node):
            parents.append(p)
            partials.append(_Spread(d if whole else d[..., s]) if type(s) is tuple else d[..., s])
    if not parents:
        return value
    return Node(value, tuple(parents), tuple(partials))


# -- piecewise and transcendental operations --------------------------
# Each accepts floats, arrays or nodes and returns a bare value when no
# node is involved (or when the winning branch is constant).


def vmax(a, b):
    av = a.value if isinstance(a, Node) else a
    bv = b.value if isinstance(b, Node) else b
    take_a = av >= bv  # an array iff either side is one
    if type(take_a) is not bool and isinstance(take_a, np.ndarray):
        return select(take_a, a, b)
    report_margin(abs(av - bv))
    if take_a:
        return a
    return b


def vmin(a, b):
    av = a.value if isinstance(a, Node) else a
    bv = b.value if isinstance(b, Node) else b
    take_a = av <= bv
    if type(take_a) is not bool and isinstance(take_a, np.ndarray):
        return select(take_a, a, b)
    report_margin(abs(av - bv))
    if take_a:
        return a
    return b


def vabs(a):
    if isinstance(a, Node):
        v = a.value
        if type(v) is not float and isinstance(v, np.ndarray):
            if (v > 0.0).all():
                return a
            return Node(np.abs(v), (a,), (np.sign(v),))
        report_margin(abs(v))
        if v > 0.0:
            return a
        if v < 0.0:
            return Node(-v, (a,), (-1.0,))
        return Node(0.0, (a,), (0.0,))
    out = abs(a)  # np.abs on an array
    if type(out) is float or not isinstance(out, np.ndarray):
        report_margin(out)
    return out


def vexp(a):
    v = a.value if isinstance(a, Node) else a
    e = np.exp(v) if type(v) is not float and isinstance(v, np.ndarray) else math.exp(v)
    if isinstance(a, Node):
        return Node(e, (a,), (e,))
    return e


def vln(a):
    v = a.value if isinstance(a, Node) else a
    if type(v) is not float and isinstance(v, np.ndarray):
        if (v <= 0.0).any():
            raise DomainError(f"ln of non-positive value {v[v <= 0.0][0]!r}")
        out = np.log(v)
    else:
        if v <= 0.0:
            raise DomainError(f"ln of non-positive value {v!r}")
        out = math.log(v)
    if isinstance(a, Node):
        return Node(out, (a,), (1.0 / v,))
    return out


def vsqrt(a):
    v = a.value if isinstance(a, Node) else a
    if type(v) is not float and isinstance(v, np.ndarray):
        if (v < 0.0).any():
            raise DomainError(f"sqrt of negative value {v[v < 0.0][0]!r}")
        s = np.sqrt(v)
        if isinstance(a, Node):
            # 0.5 / inf is the zero partial at v == 0
            return Node(s, (a,), (0.5 / np.where(v == 0.0, np.inf, s),))
        return s
    if v < 0.0:
        raise DomainError(f"sqrt of negative value {v!r}")
    # unbounded derivative as v -> 0; record the distance like vpow does
    report_margin(v)
    s = math.sqrt(v)
    if isinstance(a, Node):
        d = 0.0 if v == 0.0 else 0.5 / s
        return Node(s, (a,), (d,))
    return s


def _sigmoid(x):
    if type(x) is not float and isinstance(x, np.ndarray):
        # exp(-|x|) is exp(-x) on the x >= 0 rows and exp(x) on the others
        e = np.exp(-np.abs(x))
        return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def vsigmoid(a):
    if isinstance(a, Node):
        v = _sigmoid(a.value)
        return Node(v, (a,), (v * (1.0 - v),))
    return _sigmoid(a)


def pow_parts(av, bv):
    """Value and base partial of av ** bv on arrays, with vpow's base-0
    conventions and without its domain checks."""
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


def _pow_batch(av, bv, need_db):
    """Value and partials of av ** bv when either side is an array."""
    av = np.asarray(av, dtype=float)
    bv = np.asarray(bv, dtype=float)
    if (av < 0.0).any():
        raise DomainError("pow with negative base")
    zero = av == 0.0
    if (zero & (bv < 0.0)).any():
        raise DomainError("pow of zero base with negative exponent")
    v, da = pow_parts(av, bv)
    db = np.where(zero, 0.0, v * np.log(np.where(zero, 1.0, av))) if need_db else None
    return v, da, db


def vpow(a, b):
    """a ** b for a >= 0, with 0 ** 0 == 1 and zero partials on the base-0 set."""
    an = isinstance(a, Node)
    bn = isinstance(b, Node)
    av = a.value if an else a
    bv = b.value if bn else b
    if (type(av) is not float and isinstance(av, np.ndarray)) or (
        type(bv) is not float and isinstance(bv, np.ndarray)
    ):
        v, da, db = _pow_batch(av, bv, bn)
    else:
        if av < 0.0:
            raise DomainError(f"pow with negative base {av!r}")
        if av == 0.0 and bv < 0.0:
            raise DomainError("pow of zero base with negative exponent")
        # The derivative in the base blows up as base -> 0 whenever exp < 1;
        # record the distance so gradient checks can steer clear.
        if bv < 1.0:
            report_margin(av)
        if av == 0.0:
            v = 1.0 if bv == 0.0 else 0.0
            da = 1.0 if bv == 1.0 else 0.0
            db = 0.0
        else:
            v = av**bv
            da = bv * av ** (bv - 1.0)
            db = v * math.log(av)
    if an and bn:
        return Node(v, (a, b), (da, db))
    if an:
        return Node(v, (a,), (da,))
    if bn:
        return Node(v, (b,), (db,))
    return v


# -- gradients ---------------------------------------------------------


def grad(root, wrt: Sequence[Node]) -> dict[Node, object]:
    """Partials of `root` with respect to each node in `wrt`.

    One reverse sweep over the subgraph reachable from the root.  Nodes in
    `wrt` that the root does not depend on get partial 0.  For a root over
    a batch axis the rows are independent samples, so each row of a
    partial is that sample's own derivative; a partial that is the same
    for every row may come back as a float.
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
    if isinstance(root.value, np.ndarray):
        # a node could be skipped only if every row of its adjoint were 0;
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
    else:
        for node in reversed(topo):
            a = node.adjoint
            if a != 0.0:
                for p, d in zip(node.parents, node.partials):
                    p.adjoint += a * d

    return {n: (n.adjoint if n in visited else 0.0) for n in wanted}

