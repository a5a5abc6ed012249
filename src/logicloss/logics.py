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
from typing import Callable, Optional

import numpy as np

from .autodiff import (
    Node,
    report_margin,
    select,
    val,
    vabs,
    vmax,
    vmin,
    vpow,
    vsigmoid,
    vsqrt,
)
from .formula import (
    Add,
    And,
    BigAnd,
    Cmp,
    Const,
    Env,
    GroupSum,
    Implies,
    Input,
    Mul,
    Norm2Diff,
    Not,
    Or,
    Output,
    Sub,
    Sum,
    UnboundReference,
    bigand_instances,
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
# Family dispatchers

_TNORMS = {"G": t_godel, "LK": t_lukasiewicz, "P": t_product}
_SNORMS = {"G": s_godel, "LK": s_lukasiewicz, "PS": s_prob_sum}
_IMPLICATIONS = {
    "G": i_godel,
    "KD": i_kleene_dienes,
    "LK": i_lukasiewicz,
    "YG": i_yager,
    "GG": i_goguen,
    "RC": i_reichenbach,
}


def tnorm(family: str, x, y, p: float = 2.0):
    if family == "YG":
        return t_yager(x, y, p)
    try:
        return _TNORMS[family](x, y)
    except KeyError:
        raise ValueError(f"unknown t-norm family {family!r}") from None


def snorm(family: str, x, y, p: float = 2.0):
    if family == "YG":
        return s_yager(x, y, p)
    try:
        return _SNORMS[family](x, y)
    except KeyError:
        raise ValueError(f"unknown s-norm family {family!r}") from None


def implication(kind: str, x, y):
    try:
        return _IMPLICATIONS[kind](x, y)
    except KeyError:
        raise ValueError(f"unknown implication {kind!r}") from None


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
    transform: Optional[str] = None


@dataclass(frozen=True)
class LossValue:
    node: object  # Node or float
    polarity: str


def closed01(fn: Callable) -> Callable:
    """Wrap a fuzzy operator so its output is clamped back into [0,1]."""

    def wrapped(*args):
        return _clip01(fn(*args))

    return wrapped


# name -> (t-norm, s-norm, implication); yager entries take p, rc-s takes s
_FUZZY_TABLE = {
    "godel": ("G", "G", "G"),
    "kd": ("G", "G", "KD"),
    "lk": ("LK", "LK", "LK"),
    "gg": ("P", "PS", "GG"),
    "rc": ("P", "PS", "RC"),
    "rc-s": ("P", "PS", "RC"),
    "rc-phi": ("P", "PS", "RC"),
    "yg": ("YG", "YG", "YG"),
    # conjunction-study variants: the implication's own t-norm pairs with
    # the probabilistic sum for disjunction
    "tg": ("G", "PS", "G"),
    "tlk": ("LK", "PS", "LK"),
    "trc": ("P", "PS", "RC"),
    "tyg": ("YG", "PS", "YG"),
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
        if xi <= 0.0:
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
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if yager_p < 1.0:
        raise ValueError("yager_p must be at least 1")
    if sigmoidal_s <= 0.0:
        raise ValueError("sigmoidal_s must be positive")

    t_fam, s_fam, i_kind = _FUZZY_TABLE[name]
    conj = closed01(lambda a, b: tnorm(t_fam, a, b, yager_p))
    disj = closed01(lambda a, b: snorm(s_fam, a, b, yager_p))
    impl_raw = _IMPLICATIONS[i_kind]
    transform = None
    if name == "rc-s":
        impl_raw = sigmoidal(impl_raw, sigmoidal_s)
        transform = "sigmoidal"
    elif name == "rc-phi":
        impl_raw = power_scaled(impl_raw)
        transform = "power"

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
        transform=transform,
    )


# ---------------------------------------------------------------------------
# Formula -> loss compiler
#
# Mirrors the structure of formula.crisp_fn but produces autodiff values.
# The crisp evaluator stays a separate float-only code path on purpose: it is
# the oracle the loss semantics are tested against.


def _pick(seq, i: int, what: str):
    if i < len(seq):
        return seq[i]
    raise UnboundReference(f"{what}[{i}] is not bound by the environment")


def _value_fn(e) -> Callable[[Env], object]:
    if isinstance(e, Const):
        c = e.value
        return lambda env: c
    if isinstance(e, Output):
        i = e.index
        if isinstance(i, str):
            raise UnboundReference(f"out[{i}]: quantifier variable was never bound")
        return lambda env: _pick(env.outputs, i, "out")
    if isinstance(e, Input):
        i = e.index
        if isinstance(i, str):
            raise UnboundReference(f"in[{i}]: quantifier variable was never bound")
        return lambda env: _pick(env.inputs, i, "in")
    if isinstance(e, Add):
        fl, fr = _value_fn(e.left), _value_fn(e.right)
        return lambda env: fl(env) + fr(env)
    if isinstance(e, Sub):
        fl, fr = _value_fn(e.left), _value_fn(e.right)
        return lambda env: fl(env) - fr(env)
    if isinstance(e, Mul):
        fl, fr = _value_fn(e.left), _value_fn(e.right)
        return lambda env: fl(env) * fr(env)
    if isinstance(e, Sum):
        fns = tuple(_value_fn(x) for x in e.items)

        def run_sum(env):
            total = 0.0
            for fn in fns:
                total = total + fn(env)
            return total

        return run_sum
    if isinstance(e, GroupSum):
        raise UnboundReference(f"sum(out[{e.var}]): quantifier variable was never bound")
    if isinstance(e, Norm2Diff):
        lref, rref = e.left, e.right

        def run_norm(env):
            a = env.vector(lref)
            b = env.vector(rref)
            if len(a) == 0 or len(b) == 0:
                raise UnboundReference(f"norm2({lref} - {rref}): a vector is not bound")
            if len(a) != len(b):
                raise UnboundReference(f"norm2({lref} - {rref}): vector lengths differ")
            total = 0.0
            for p, q in zip(a, b):
                d = p - q
                total = total + d * d
            return vsqrt(total)

        return run_norm
    raise TypeError(f"not an expression: {e!r}")


def truth_function(f, backend: LogicBackend) -> Callable[[Env], object]:
    """Compile a formula to the backend's native score (truth or violation).

    For fuzzy backends the result is a truth value in [0,1]; for a
    violation-measure backend it is the non-negative violation itself.
    """
    if isinstance(f, Cmp):
        fl, fr = _value_fn(f.left), _value_fn(f.right)
        op = f.op
        cmpf = backend.compare
        return lambda env: cmpf(op, fl(env), fr(env))
    if isinstance(f, And):
        fl, fr = truth_function(f.left, backend), truth_function(f.right, backend)
        conj = backend.conj
        return lambda env: conj(fl(env), fr(env))
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
    if isinstance(f, BigAnd):
        fns = tuple(truth_function(g, backend) for g in bigand_instances(f))
        conj = backend.conj

        def run(env):
            acc = fns[0](env)
            for fn in fns[1:]:
                acc = conj(acc, fn(env))
            return acc

        return run
    raise TypeError(f"not a formula: {f!r}")


def loss_function(f, backend: LogicBackend) -> Callable[[Env], object]:
    """Compile a formula to a training loss: 0 iff satisfied, larger is worse.

    Fuzzy truth t becomes the loss 1 - t; a violation measure is already a
    loss and passes through.
    """
    fn = truth_function(f, backend)
    if backend.polarity == ZERO_WHEN_TRUE:
        return fn
    return lambda env: 1.0 - fn(env)


def compile_formula(f, backend: LogicBackend, env: Env) -> LossValue:
    """One-shot translation of a formula under the given bindings."""
    return LossValue(loss_function(f, backend)(env), backend.polarity)
