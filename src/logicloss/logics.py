"""Loss semantics for constraint formulas.

Two ways of scoring a formula against network outputs live here.  The first
keeps a non-negative violation measure: 0 means satisfied, larger means a
worse violation, conjunction adds, disjunction multiplies.  The second family
works in fuzzy truth values on [0,1] built from a t-norm, its s-norm, and a
fuzzy implication; the training loss is then 1 - truth.

All operator functions accept plain floats, arrays over a batch axis, or
autodiff Nodes holding either, and return the same kind, so one
implementation serves batched training, per-sample evaluation, and the
finite-difference oracles.  On a batch, every branch below is a masked
select (`autodiff.select`) that applies the scalar rule row by row.

A compiled conjunction adds a second array axis on a batch: conjuncts that
differ only in which outputs or inputs they read (`formula.template`) run
their shared template once, on arrays of shape (batch, conjuncts) stacked
from the columns they read, and are then folded left in their original
order by the backend's conjunction.  Every operator is elementwise, so each
conjunct gets the numbers it would get compiled alone, and the tape holds
one copy of the template instead of one copy per conjunct.  On floats each
conjunct runs its own closure and numpy is never called.

Branch conventions worth knowing:
  - Strict "<" under the fuzzy comparison collapses to "<=": the soft
    comparison has no strictness to express, and the two differ on a
    measure-zero set.
  - Godel and Goguen implications branch on x <= y (not x < y) so that
    I(0,0) = 1 and Goguen never divides by zero for arguments in [0,1].
  - Fuzzy backend operators clamp their float spill back into [0,1] with a
    pass-through (unit-derivative) node; the raw operator functions do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .autodiff import (
    Node,
    column,
    report_margin,
    select,
    stack,
    val,
    vabs,
    vmax,
    vmin,
    vpow,
    vsigmoid,
    vsqrt,
)
from .formula import (
    And,
    BigAnd,
    Cmp,
    Env,
    Implies,
    Not,
    Or,
    _pick,
    conjuncts,
    expr_fn,
    template,
)


class CompileError(ValueError):
    """The chosen semantics cannot translate this formula as written."""


# ---------------------------------------------------------------------------
# t-norms (fuzzy conjunction)


def t_godel(x, y):
    return vmin(x, y)


def t_lukasiewicz(x, y):
    return vmax(0.0, x + y - 1.0)


def t_yager(x, y, p: float = 2.0):
    w = vpow(vpow(1.0 - x, p) + vpow(1.0 - y, p), 1.0 / p)
    return vmax(0.0, 1.0 - w)


def t_product(x, y):
    return x * y


# ---------------------------------------------------------------------------
# s-norms (fuzzy disjunction)


def s_godel(x, y):
    return vmax(x, y)


def s_lukasiewicz(x, y):
    return vmin(1.0, x + y)


def s_yager(x, y, p: float = 2.0):
    return vmin(1.0, vpow(vpow(x, p) + vpow(y, p), 1.0 / p))


def s_prob_sum(x, y):
    return x + y - x * y


def n_standard(x):
    return 1.0 - x


# ---------------------------------------------------------------------------
# Fuzzy implications


def i_godel(x, y):
    xv, yv = val(x), val(y)
    d = xv - yv
    if type(d) is not float and isinstance(d, np.ndarray):
        report_margin(np.abs(d))
        return select(xv <= yv, 1.0, y)
    report_margin(abs(d))
    if xv <= yv:
        return 1.0
    return y


def i_kleene_dienes(x, y):
    return vmax(1.0 - x, y)


def i_lukasiewicz(x, y):
    return vmin(1.0 - x + y, 1.0)


def i_yager(x, y):
    # pow convention supplies the 0^0 = 1 corner
    return vpow(y, x)


def i_goguen(x, y):
    xv, yv = val(x), val(y)
    d = xv - yv
    if type(d) is not float and isinstance(d, np.ndarray):
        report_margin(np.abs(d))
        divide = xv > yv
        if not divide.any():
            return 1.0
        report_margin(np.where(divide, xv, np.inf))
        # rows that return 1 divide by a stand-in 1, so their x may be 0
        return select(divide, y / select(divide, x, 1.0), 1.0)
    report_margin(abs(d))
    if xv <= yv:
        return 1.0
    report_margin(xv)  # y/x steepens without bound as x -> 0
    return y / x


def i_reichenbach(x, y):
    return 1.0 - x + x * y


# ---------------------------------------------------------------------------
# Implication transforms


def _clip01(x):
    """Clamp the value into [0,1]; derivative passes through unchanged.

    Used to absorb last-ulp float spill (and the sigmoid's residue at its
    endpoints) without flattening the gradient the way a min/max clamp would.
    """
    v = val(x)
    if type(v) is not float and isinstance(v, np.ndarray):
        if v.min() >= 0.0 and v.max() <= 1.0:
            return x
        c = np.where(v < 0.0, 0.0, np.where(v > 1.0, 1.0, v))
        return Node(c, (x,), (1.0,)) if isinstance(x, Node) else c
    c = 0.0 if v < 0.0 else 1.0 if v > 1.0 else v
    if isinstance(x, Node):
        if c == v:
            return x
        return Node(c, (x,), (1.0,))
    return c


def sigmoidal_truth(u, s: float = 9.0):
    """Reshape a truth value by a scaled, renormalized sigmoid.

    Fixes 0, 1/2, and 1; flattens near the endpoints and steepens in the
    middle, which trades the endpoint derivative for a stronger one where
    the constraint is undecided.
    """
    e_half = math.exp(s / 2.0)
    raw = ((1.0 + e_half) * vsigmoid(s * u - s / 2.0) - 1.0) / (e_half - 1.0)
    return _clip01(raw)


def sigmoidal(impl: Callable, s: float = 9.0) -> Callable:
    def transformed(x, y):
        return sigmoidal_truth(impl(x, y), s)

    return transformed


def power_scaled(impl: Callable) -> Callable:
    """Conjugate an implication by the square bijection on [0,1]."""

    def transformed(x, y):
        return vsqrt(impl(x * x, y * y))

    return transformed


# ---------------------------------------------------------------------------
# Comparisons


def fuzzy_le(x, y, eps: float = 0.05):
    """Soft truth of x <= y: 1 - max(x-y, 0) / (|x| + |y| + eps).

    Equals 1 exactly when x <= y, decays with the relative (not absolute)
    size of the violation, so no per-constraint normalization oracle is
    needed.  eps > 0 keeps the denominator away from zero; eps = 0 is allowed
    when |x| + |y| > 0 and makes the truth exactly scale-invariant.
    """
    return 1.0 - vmax(x - y, 0.0) / (vabs(x) + vabs(y) + eps)


def fuzzy_compare(op: str, x, y, conj: Callable, eps: float = 0.05):
    if op in ("<=", "<"):
        return fuzzy_le(x, y, eps)
    if op in (">=", ">"):
        return fuzzy_le(y, x, eps)
    if op == "==":
        return conj(fuzzy_le(x, y, eps), fuzzy_le(y, x, eps))
    if op == "!=":
        return 1.0 - conj(fuzzy_le(x, y, eps), fuzzy_le(y, x, eps))
    raise ValueError(f"unknown comparison operator {op!r}")


def _dl2_eq_indicator(x, y):
    xv, yv = val(x), val(y)
    d = xv - yv
    if type(d) is not float and isinstance(d, np.ndarray):
        report_margin(np.abs(d))
        return np.equal(xv, yv).astype(float)
    report_margin(abs(d))
    return 1.0 if xv == yv else 0.0


def dl2_atom(op: str, x, y, xi: float = 1.0):
    """Non-negative violation of a single comparison.

    <= is max(x-y, 0); equality adds the two one-sided violations; the
    strict forms add xi on the tie set, a piecewise-constant nudge that
    never contributes gradient.
    """
    if op == "<=":
        return vmax(x - y, 0.0)
    if op == "<":
        return vmax(x - y, 0.0) + xi * _dl2_eq_indicator(x, y)
    if op == ">=":
        return vmax(y - x, 0.0)
    if op == ">":
        return vmax(y - x, 0.0) + xi * _dl2_eq_indicator(x, y)
    if op == "==":
        return vmax(x - y, 0.0) + vmax(y - x, 0.0)
    if op == "!=":
        return xi * _dl2_eq_indicator(x, y)
    raise ValueError(f"unknown comparison operator {op!r}")


def dl2_connective(kind: str, a, b):
    if kind == "and":
        return a + b
    if kind == "or":
        return a * b
    raise ValueError(f"unknown connective {kind!r}")


# ---------------------------------------------------------------------------
# Backends

ZERO_WHEN_TRUE = "zero_when_true"  # violation measure: 0 iff satisfied
ONE_WHEN_TRUE = "one_when_true"  # fuzzy truth: 1 iff (crisply) satisfied


@dataclass(frozen=True)
class LogicBackend:
    """One complete loss semantics: connectives plus the atom translation."""

    name: str
    conj: Callable
    disj: Callable
    impl: Optional[Callable]  # None: rewrite implications away first
    neg: Optional[Callable]  # None: push negations to comparisons first
    compare: Callable  # (op, x, y) -> truth or violation
    polarity: str


def closed01(fn: Callable) -> Callable:
    """Wrap a fuzzy operator so its output is clamped back into [0,1]."""

    def wrapped(*args):
        return _clip01(fn(*args))

    return wrapped


# name -> (t-norm, s-norm, implication); make_backend binds the Yager
# operators' p and reshapes the rc-s and rc-phi implications
_FUZZY_TABLE = {
    "godel": (t_godel, s_godel, i_godel),
    "kd": (t_godel, s_godel, i_kleene_dienes),
    "lk": (t_lukasiewicz, s_lukasiewicz, i_lukasiewicz),
    "gg": (t_product, s_prob_sum, i_goguen),
    "rc": (t_product, s_prob_sum, i_reichenbach),
    "rc-s": (t_product, s_prob_sum, i_reichenbach),
    "rc-phi": (t_product, s_prob_sum, i_reichenbach),
    "yg": (t_yager, s_yager, i_yager),
    # conjunction-study variants: the implication's own t-norm pairs with
    # the probabilistic sum for disjunction
    "tg": (t_godel, s_prob_sum, i_godel),
    "tlk": (t_lukasiewicz, s_prob_sum, i_lukasiewicz),
    "trc": (t_product, s_prob_sum, i_reichenbach),
    "tyg": (t_yager, s_prob_sum, i_yager),
}

BACKEND_NAMES = ("dl2",) + tuple(_FUZZY_TABLE)


def make_backend(
    name: str,
    *,
    eps: float = 0.05,
    xi: float = 1.0,
    yager_p: float = 2.0,
    sigmoidal_s: float = 9.0,
) -> LogicBackend:
    if name == "dl2":
        if not xi > 0.0:
            raise ValueError("xi must be positive")

        def compare(op, x, y):
            return dl2_atom(op, x, y, xi)

        return LogicBackend(
            name="dl2",
            conj=lambda a, b: dl2_connective("and", a, b),
            disj=lambda a, b: dl2_connective("or", a, b),
            impl=None,
            neg=None,
            compare=compare,
            polarity=ZERO_WHEN_TRUE,
        )

    if name not in _FUZZY_TABLE:
        known = ", ".join(BACKEND_NAMES)
        raise ValueError(f"unknown backend {name!r}; choose one of: {known}")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if not yager_p >= 1.0:
        raise ValueError("yager_p must be at least 1")
    if not sigmoidal_s > 0.0:
        raise ValueError("sigmoidal_s must be positive")

    tnorm, snorm, impl_raw = (
        partial(fn, p=yager_p) if fn in (t_yager, s_yager) else fn for fn in _FUZZY_TABLE[name]
    )
    conj = closed01(tnorm)
    disj = closed01(snorm)
    if name == "rc-s":
        impl_raw = sigmoidal(impl_raw, sigmoidal_s)
    elif name == "rc-phi":
        impl_raw = power_scaled(impl_raw)

    def compare(op, x, y, _conj=conj, _eps=eps):
        return fuzzy_compare(op, x, y, _conj, _eps)

    return LogicBackend(
        name=name,
        conj=conj,
        disj=disj,
        impl=closed01(impl_raw),
        neg=closed01(n_standard),
        compare=closed01(compare),
        polarity=ONE_WHEN_TRUE,
    )


# ---------------------------------------------------------------------------
# Formula -> loss compiler
#
# Arithmetic comes from formula.expr_fn, the evaluator crisp_fn uses too;
# connectives and comparisons are the backend's, while crisp_fn keeps its
# own so that it stays an independent oracle for the loss semantics.


def truth_function(f, backend: LogicBackend) -> Callable[[Env], object]:
    """Compile a formula to the backend's native score (truth or violation).

    For fuzzy backends the result is a truth value in [0,1]; for a
    violation-measure backend it is the non-negative violation itself.
    """
    if isinstance(f, Cmp):
        fl, fr = expr_fn(f.left), expr_fn(f.right)
        op = f.op
        cmpf = backend.compare
        return lambda env: cmpf(op, fl(env), fr(env))
    if isinstance(f, (And, BigAnd)):
        return _conjunction(conjuncts(f), backend)
    if isinstance(f, Or):
        fl, fr = truth_function(f.left, backend), truth_function(f.right, backend)
        disj = backend.disj
        return lambda env: disj(fl(env), fr(env))
    if isinstance(f, Implies):
        if backend.impl is None:
            raise CompileError(
                f"backend {backend.name!r} has no implication; rewrite first with "
                "push_negations(f, rewrite_implication=True)"
            )
        fl, fr = truth_function(f.left, backend), truth_function(f.right, backend)
        impl = backend.impl
        return lambda env: impl(fl(env), fr(env))
    if isinstance(f, Not):
        if backend.neg is None:
            raise CompileError(
                f"backend {backend.name!r} has no negation; push negations down to "
                "comparisons first with push_negations(f)"
            )
        fb = truth_function(f.body, backend)
        neg = backend.neg
        return lambda env: neg(fb(env))
    raise TypeError(f"not a formula: {f!r}")


def _conjunction(parts, backend: LogicBackend) -> Callable[[Env], object]:
    """The left fold, by `backend.conj`, of the conjuncts `parts`.

    On floats each conjunct runs its own closure, as it was compiled alone.
    On a batch, the conjuncts that share a template (`formula.template`)
    run it once on a (batch, members) array whose slot i stacks the columns
    the members read there; each member is then one column of the result.
    The fold itself keeps the conjuncts' order, so both ways give the same
    numbers.
    """
    fns = tuple(truth_function(g, backend) for g in parts)
    conj = backend.conj

    def fold(env):
        acc = fns[0](env)
        for fn in fns[1:]:
            acc = conj(acc, fn(env))
        return acc

    members: dict = {}
    for j, g in enumerate(parts):
        t = template(g)
        if t is not None:
            members.setdefault(t[0], []).append((j, t[1], t[2]))
    shared = []
    for t, ms in members.items():
        if len(ms) >= 2:
            js, outs, ins = zip(*ms)
            shared.append((truth_function(t, backend), js, tuple(zip(*outs)), tuple(zip(*ins))))
    if not shared:
        return fold
    grouped = {j for _, js, _, _ in shared for j in js}
    singles = tuple(j for j in range(len(fns)) if j not in grouped)
    top_out = max((i for _, _, outs, _ in shared for idx in outs for i in idx), default=-1)
    top_in = max((i for _, _, _, ins in shared for idx in ins for i in idx), default=-1)
    # the highest entry each vector must bind; the first also tells a batch
    # from floats
    reads = tuple((ref, top) for ref, top in (("out", top_out), ("in", top_in)) if top >= 0)

    def run(env):
        x = _pick(env.vector(reads[0][0]), reads[0][1], reads[0][0])
        v = x.value if isinstance(x, Node) else x
        if type(v) is float or not isinstance(v, np.ndarray):
            return fold(env)
        for ref, top in reads[1:]:
            _pick(env.vector(ref), top, ref)
        values = [None] * len(fns)
        for j in singles:
            values[j] = fns[j](env)
        for fn, js, outs, ins in shared:
            tv = fn(
                Env(
                    outputs=[stack(env.outputs, idx) for idx in outs],
                    inputs=[stack(env.inputs, idx) for idx in ins],
                )
            )
            for k, j in enumerate(js):
                values[j] = column(tv, k)
        acc = values[0]
        for value in values[1:]:
            acc = conj(acc, value)
        return acc

    return run


def loss_function(f, backend: LogicBackend) -> Callable[[Env], object]:
    """Compile a formula to a training loss: 0 iff satisfied, larger is worse.

    Fuzzy truth t becomes the loss 1 - t; a violation measure is already a
    loss and passes through.
    """
    fn = truth_function(f, backend)
    if backend.polarity == ZERO_WHEN_TRUE:
        return fn
    return lambda env: 1.0 - fn(env)

