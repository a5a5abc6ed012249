"""Reverse-mode automatic differentiation over scalars or a batch axis.

A value is a plain Python float, a 1-d ndarray with one entry per sample
of a batch, or a `Node` holding either.  Arithmetic involving at least one
node records the local derivatives eagerly, so the backward pass is a
single accumulation sweep in reverse topological order.  An operation
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

Kink conventions, applied consistently here, row by row, and in the
analytic backprop elsewhere:
  - max(a, b) routes the gradient to `a` on ties; min(a, b) likewise
  - d|x|/dx at 0 is 0
  - 0 ** 0 == 1, with zero partials at that corner
  - d sqrt(x)/dx at 0 is 0
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np


class DomainError(ArithmeticError):
    """An operation left its numeric domain (ln(x<=0), x/0, 0**negative, sqrt(x<0))."""


# Optional branch-distance recording.  When a list is installed via
# track_branch_margins(), every value-level branch decision (max/min/abs,
# piecewise ops in the logic layer) appends its distance to the branch
# boundary; a batch appends its smallest row distance.  Gradient-check
# tests use this to reject sample points that sit too close to a kink for
# finite differences to be trustworthy.
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


def report_margin(d) -> None:
    if _margins is not None:
        _margins.append(float(d.min()) if isinstance(d, np.ndarray) else d)


# The operations below test for a batch as `type(v) is not float and
# isinstance(v, np.ndarray)`, written out: on the float path that is one
# identity check, where a helper call or a bare isinstance costs the scalar
# oracle about four times as much per operation.


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

    __slots__ = ("value", "parents", "partials", "name", "adjoint")

    # numpy must hand `ndarray <op> Node` to the reflected method below
    __array_ufunc__ = None

    def __init__(self, value, parents=(), partials=(), name=None):
        self.value = value
        self.parents = parents
        self.partials = partials
        self.name = name
        self.adjoint = 0.0

    def __repr__(self):
        if self.name is not None:
            return f"Node({self.value!r}, name={self.name!r})"
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


def var(value, name: str | None = None) -> Node:
    """A leaf node to differentiate with respect to: a float, or an array
    with one entry per sample."""
    if isinstance(value, np.ndarray):
        return Node(np.asarray(value, dtype=float), name=name)
    return Node(float(value), name=name)


def val(x):
    """The value of a node, or the value itself."""
    return x.value if isinstance(x, Node) else x


def select(mask, a, b):
    """Row-wise `a if mask else b` for a boolean array over the batch axis.

    A uniform mask returns the winning operand itself.  Otherwise each
    row's gradient goes to the operand that row took.
    """
    if mask.all():
        return a
    if not mask.any():
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


# -- piecewise and transcendental operations --------------------------
# Each accepts floats, arrays or nodes and returns a bare value when no
# node is involved (or when the winning branch is constant).


def vmax(a, b):
    av = a.value if isinstance(a, Node) else a
    bv = b.value if isinstance(b, Node) else b
    d = av - bv  # an array iff either side is one
    if type(d) is not float and isinstance(d, np.ndarray):
        if _margins is not None:
            report_margin(np.abs(d))
        return select(av >= bv, a, b)
    report_margin(abs(d))
    if av >= bv:
        return a
    return b


def vmin(a, b):
    av = a.value if isinstance(a, Node) else a
    bv = b.value if isinstance(b, Node) else b
    d = av - bv
    if type(d) is not float and isinstance(d, np.ndarray):
        if _margins is not None:
            report_margin(np.abs(d))
        return select(av <= bv, a, b)
    report_margin(abs(d))
    if av <= bv:
        return a
    return b


def vabs(a):
    if isinstance(a, Node):
        v = a.value
        if type(v) is not float and isinstance(v, np.ndarray):
            if _margins is not None:
                report_margin(np.abs(v))
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
        report_margin(v)
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


def _pow_batch(av, bv, need_db):
    """Value and partials of av ** bv when either side is an array."""
    av = np.asarray(av, dtype=float)
    bv = np.asarray(bv, dtype=float)
    if (av < 0.0).any():
        raise DomainError("pow with negative base")
    zero = av == 0.0
    if (zero & (bv < 0.0)).any():
        raise DomainError("pow of zero base with negative exponent")
    if _margins is not None:
        report_margin(np.where(bv < 1.0, av, np.inf))
    # base-0 rows compute on a stand-in base of 1, then take the conventions
    base = np.where(zero, 1.0, av)
    v = base**bv
    da = bv * base ** (bv - 1.0)
    db = v * np.log(base) if need_db else None
    if zero.any():
        v = np.where(zero, np.where(bv == 0.0, 1.0, 0.0), v)
        da = np.where(zero, np.where(bv == 1.0, 1.0, 0.0), da)
        if need_db:
            db = np.where(zero, 0.0, db)
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
        # a node could be skipped only if every row of its adjoint were 0
        for node in reversed(topo):
            a = node.adjoint
            for p, d in zip(node.parents, node.partials):
                p.adjoint += a * d
    else:
        for node in reversed(topo):
            a = node.adjoint
            if a != 0.0:
                for p, d in zip(node.parents, node.partials):
                    p.adjoint += a * d

    return {n: (n.adjoint if n in visited else 0.0) for n in wanted}


def grad_by_name(root, wrt: Sequence[Node]) -> dict[str, object]:
    """Like grad(), but keyed by the variables' names."""
    g = grad(root, wrt)
    return {n.name: p for n, p in g.items() if n.name is not None}


def finite_diff(f: Callable[[Sequence[float]], float], point: Sequence[float], h: float = 1e-5) -> list[float]:
    """Central-difference gradient of f at `point`, index-aligned with it."""
    point = [float(x) for x in point]
    out = []
    for i in range(len(point)):
        hi = list(point)
        lo = list(point)
        hi[i] += h
        lo[i] -= h
        out.append((f(hi) - f(lo)) / (2.0 * h))
    return out
