"""Loss semantics for constraint formulas.

Two ways of scoring a formula against network outputs live here.  The first
keeps a non-negative violation measure: 0 means satisfied, larger means a
worse violation, conjunction adds, disjunction multiplies.  The second family
works in fuzzy truth values on [0,1] built from a t-norm, its s-norm, and a
fuzzy implication; the training loss is then 1 - truth.

All operator functions accept arrays over a batch axis, scalars (a
formula's constants), or autodiff Nodes holding either, and have one
numpy body, so one implementation serves batched training, per-sample
evaluation (one sample is a batch of one) and the finite-difference
oracles.  Every branch below is a masked select (`autodiff.select`) that
applies the scalar rule row by row.

On a batch each vector of the `Env` is one (entries, batch) matrix, and a
compiled conjunction adds a second array axis: conjuncts that differ only
in which outputs or inputs they read (`formula.template`; a conjunct that
holds a conjunction has no template) run their shared template once, on
(batch, members) arrays that one gather per template slot
(`autodiff.gather`) reads from the matrix; every other conjunct runs
alone.  All of these closures are built when the conjunction is compiled.
Every conjunct then takes its slot, in its original order, along the last
axis of one (batch, conjuncts) array, which the backend's aggregation
operator (`LogicBackend.conj_n`, the t-norm's n-ary form) reduces in one
tape node.  Every operator is elementwise, so each conjunct gets the
numbers it would get compiled alone, and the tape holds one copy of the
template and one reduction, however many conjuncts there are.  The
reduction runs in the fold's order, so it equals the left fold by the
backend's conjunction bit for bit (Yager steps through the conjuncts one
at a time, on bare arrays, off the tape), and records the fold's branch
margins.

The soft comparison (`fuzzy_le`), dl2's hinge max(x - y, 0)
(`dl2_hinge`), Reichenbach's implication and the probabilistic sum are
each one tape node whose partials are written out in closed form
(`autodiff.record`); each computes its value by the numpy expression of
the operator composed from tape primitives, so the two agree bit for bit,
and records that composition's branch margins, in its order.

Branch conventions worth knowing:
  - Strict "<" under the fuzzy comparison collapses to "<=": the soft
    comparison has no strictness to express, and the two differ on a
    measure-zero set.
  - Godel and Goguen implications branch on x <= y (not x < y) so that
    I(0,0) = 1 and Goguen never divides by zero for arguments in [0,1].
  - Fuzzy backend operators clamp their rounding spill back into [0,1]
    with a pass-through (unit-derivative) node; the raw operator functions
    do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .autodiff import (
    Node,
    _check_divisor,
    aggregate,
    gather,
    pow_parts,
    record,
    report_margin,
    select,
    val,
    vmax,
    vmin,
    vpow,
    vsigmoid,
    vsqrt,
)
from .formula import (
    And,
    Cmp,
    Env,
    Implies,
    Not,
    Or,
    UnboundReference,
    _entry_count,
    batch_of_one,
    conjuncts,
    expr_fn,
    push_negations,
    template,
)


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
# Aggregation operators: each t-norm over the last axis of an array at once
# (van Krieken et al., "Analyzing Differentiable Fuzzy Logic Operators").
# Each returns the reduced value and the partials by every entry, with the
# kinks, ties and base-0 conventions that the pairwise left fold has.


def agg_product(x):
    # sequential, so the value is the fold's bit for bit; prefix x suffix
    # partials stay right where an entry is 0
    prefix = np.multiply.accumulate(x, axis=-1)
    suffix = np.multiply.accumulate(x[..., ::-1], axis=-1)[..., ::-1]
    d = np.ones_like(x)
    d[..., 1:] = prefix[..., :-1]
    d[..., :-1] *= suffix[..., 1:]
    return prefix[..., -1], d


def agg_godel(x):
    # the fold's min(a, b) keeps a on ties: the first argmin takes the gradient
    report_margin(lambda: np.minimum.accumulate(x[..., :-1], axis=-1), x[..., 1:], slots=True)
    d = (np.arange(x.shape[-1]) == x.argmin(axis=-1)[..., None]).astype(float)
    return x.min(axis=-1), d


def agg_lukasiewicz(x):
    # the fold's steps (acc + x_k) - 1, as one sequential sum of x_0, x_1,
    # -1, x_2, -1, ..., so each step is the fold's bit for bit; a step at 0
    # or below pins the fold at 0 from there on (x_k <= 1)
    n = x.shape[-1]
    z = np.full(x.shape[:-1] + (2 * n - 1,), -1.0)
    z[..., 0] = x[..., 0]
    z[..., 1::2] = x[..., 1:]
    steps = np.add.accumulate(z, axis=-1)
    report_margin(lambda: _lukasiewicz_fold_steps(steps[..., 2::2], x[..., 1:]), slots=True)
    live = (steps[..., 2::2] > 0.0).all(axis=-1)
    d = np.broadcast_to(live[..., None], x.shape).astype(float)
    return np.where(live, steps[..., -1], 0.0), d


def _lukasiewicz_fold_steps(sums, x):
    """The fold's step before its max with 0, each conjunct after the
    first: the running sum while every step so far is live, x_k - 1 once
    the fold is pinned at 0."""
    live = np.ones(sums.shape, dtype=bool)
    live[..., 1:] = np.logical_and.accumulate(sums[..., :-1] > 0.0, axis=-1)
    return np.where(live, sums, x - 1.0)


def agg_yager(x, p: float = 2.0):
    # the fold, one conjunct at a time, with vpow's values and base-0
    # partials (`pow_parts`), so each step is the fold's bit for bit; a
    # step at 0 pins the fold at 0 from there on (1 - 0 to the p is 1, so
    # w >= 1)
    cols = np.moveaxis(x, -1, 0)
    acc = cols[0]
    to_acc, to_x = [], []  # partials of each step by the fold so far, by its conjunct
    for xk in cols[1:]:
        ua, da = pow_parts(1.0 - acc, p)
        ux, dx = pow_parts(1.0 - xk, p)
        base = ua + ux
        if p > 1.0:
            report_margin(base)  # the root's slope is unbounded as base -> 0
        w, dw = pow_parts(base, 1.0 / p)
        s = 1.0 - w
        report_margin(s)
        live = s > 0.0
        dw = np.where(live, dw, 0.0)
        to_acc.append(dw * da)
        to_x.append(dw * dx)
        acc = np.where(live, s, 0.0)
    ones = np.ones(x.shape[:-1] + (1,))
    if not to_acc:
        return acc, ones
    # the partial by conjunct k chains through every later step
    later = np.multiply.accumulate(np.stack(to_acc, axis=-1)[..., ::-1], axis=-1)[..., ::-1]
    own = np.stack(to_x, axis=-1)
    return acc, np.concatenate([later, ones], axis=-1) * np.concatenate([ones, own], axis=-1)


def agg_sum(x):
    # sequential, like the fold of a + b
    return np.add.accumulate(x, axis=-1)[..., -1], np.ones_like(x)


# ---------------------------------------------------------------------------
# s-norms (fuzzy disjunction)


def s_godel(x, y):
    return vmax(x, y)


def s_lukasiewicz(x, y):
    return vmin(1.0, x + y)


def s_yager(x, y, p: float = 2.0):
    return vmin(1.0, vpow(vpow(x, p) + vpow(y, p), 1.0 / p))


def s_prob_sum(x, y):
    """x + y - x*y, one tape node."""
    xv, yv = val(x), val(y)
    return record(xv + yv - xv * yv, (x, lambda: 1.0 - yv), (y, lambda: 1.0 - xv))


def n_standard(x):
    return 1.0 - x


# ---------------------------------------------------------------------------
# Fuzzy implications


def i_godel(x, y):
    xv, yv = val(x), val(y)
    report_margin(xv, yv)
    return select(np.less_equal(xv, yv), 1.0, y)


def i_kleene_dienes(x, y):
    return vmax(1.0 - x, y)


def i_lukasiewicz(x, y):
    return vmin(1.0 - x + y, 1.0)


def i_yager(x, y):
    # pow convention supplies the 0^0 = 1 corner
    return vpow(y, x)


def i_goguen(x, y):
    xv, yv = val(x), val(y)
    report_margin(xv, yv)
    divide = np.greater(xv, yv)
    report_margin(lambda: np.where(divide, xv, np.inf))  # y/x steepens without bound as x -> 0
    if not divide.any():
        return 1.0
    # rows that return 1 divide by a stand-in 1, so their x may be 0
    return select(divide, y / select(divide, x, 1.0), 1.0)


def i_reichenbach(x, y):
    """1 - x + x*y, one tape node."""
    xv, yv = val(x), val(y)
    return record(1.0 - xv + xv * yv, (x, lambda: yv - 1.0), (y, xv))


# ---------------------------------------------------------------------------
# Implication transforms


def _clip01(x):
    """Clamp the value into [0,1]; derivative passes through unchanged.

    Used to absorb last-ulp float spill (and the sigmoid's residue at its
    endpoints) without flattening the gradient the way a min/max clamp would.
    """
    v = np.asarray(val(x))
    if v.min() >= 0.0 and v.max() <= 1.0:
        return x
    c = np.where(v < 0.0, 0.0, np.where(v > 1.0, 1.0, v))
    return Node(c, (x,), (1.0,)) if isinstance(x, Node) else c


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


def _hinge(d):
    """max(d, 0), the tie at 0 going to d, and its partial by d: 1.0 when
    every row is at or above 0, and None, with the bare value 0.0, when no
    row is.  Records the margin |d|, as `vmax(d, 0.0)` does."""
    report_margin(d)
    mask = np.greater_equal(d, 0.0)
    hits = np.count_nonzero(mask)
    if hits == mask.size:
        return d, 1.0
    if hits == 0:
        return 0.0, None
    return np.where(mask, d, 0.0), mask.astype(float)


def fuzzy_le(x, y, eps: float = 0.05):
    """Soft truth of x <= y: 1 - max(x-y, 0) / (|x| + |y| + eps).

    Equals 1 exactly when x <= y, decays with the relative (not absolute)
    size of the violation, so no per-constraint normalization oracle is
    needed.  eps > 0 keeps the denominator away from zero; eps = 0 is allowed
    when |x| + |y| > 0 and makes the truth exactly scale-invariant.

    One tape node.  With q = max(x-y, 0) / den and the hinge's partial h,
    the partials are q/den * sign(x) - h/den by x and h/den + q/den *
    sign(y) by y, with d|x|/dx = 0 at 0.  Records the margins |x - y|,
    |x| and |y|, in that order.
    """
    xv, yv = val(x), val(y)
    h, dh = _hinge(xv - yv)
    report_margin(xv)
    report_margin(yv)
    den = np.abs(xv) + np.abs(yv) + eps
    _check_divisor(den)
    q = h / den
    if not (isinstance(x, Node) or isinstance(y, Node)):
        return 1.0 - q
    r, s = q / den, (0.0 if dh is None else dh / den)
    return record(1.0 - q, (x, lambda: r * np.sign(xv) - s), (y, lambda: s + r * np.sign(yv)))


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


def dl2_hinge(x, y):
    """max(x - y, 0), one tape node with partials (h, -h) for the hinge's
    partial h; the bare 0.0 when no row is violated."""
    h, dh = _hinge(val(x) - val(y))
    if dh is None:
        return h
    return record(h, (x, dh), (y, lambda: -dh))


def _dl2_eq_indicator(x, y):
    xv, yv = val(x), val(y)
    report_margin(xv, yv)
    return np.equal(xv, yv).astype(float)


def dl2_atom(op: str, x, y, xi: float = 1.0):
    """Non-negative violation of a single comparison.

    <= is max(x-y, 0); equality adds the two one-sided violations; the
    strict forms add xi on the tie set, a piecewise-constant nudge that
    never contributes gradient.
    """
    if op == "<=":
        return dl2_hinge(x, y)
    if op == "<":
        return dl2_hinge(x, y) + xi * _dl2_eq_indicator(x, y)
    if op == ">=":
        return dl2_hinge(y, x)
    if op == ">":
        return dl2_hinge(y, x) + xi * _dl2_eq_indicator(x, y)
    if op == "==":
        return dl2_hinge(x, y) + dl2_hinge(y, x)
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
    conj_n: Callable  # conj over an array's last axis: (value, partials)
    disj: Callable
    impl: Optional[Callable]  # None: the compiler rewrites "->" and "not" away (dl2)
    neg: Optional[Callable]  # None exactly when impl is None
    compare: Callable  # (op, x, y) -> truth or violation
    polarity: str


def closed01(fn: Callable) -> Callable:
    """Wrap a fuzzy operator so its output is clamped back into [0,1]."""

    def wrapped(*args):
        return _clip01(fn(*args))

    return wrapped


# name -> (t-norm, s-norm, implication); make_backend binds the Yager
# operators' p, adds the t-norm's aggregation operator and reshapes the
# rc-s and rc-phi implications
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

_AGGREGATION = {
    t_godel: agg_godel,
    t_lukasiewicz: agg_lukasiewicz,
    t_yager: agg_yager,
    t_product: agg_product,
}


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
            conj_n=agg_sum,
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

    conj_n = _AGGREGATION[_FUZZY_TABLE[name][0]]
    tnorm, snorm, impl_raw, conj_n = (
        partial(fn, p=yager_p) if fn in (t_yager, s_yager, agg_yager) else fn
        for fn in (*_FUZZY_TABLE[name], conj_n)
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
        conj_n=conj_n,
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
    violation-measure backend it is the non-negative violation itself.  A
    backend without "->" and "not" (dl2) compiles the formula rewritten by
    `push_negations(f, rewrite_implication=True)`.  On a batch's Env the
    score is one value per sample (a node when the Env holds nodes); on
    one sample's numbers it is that sample as a batch of one, a float.
    """
    if backend.impl is None:
        f = push_negations(f, rewrite_implication=True)
    fn = _compile(f, backend)

    def truth(env):
        one = batch_of_one(env)
        if one is None:
            return fn(env)
        return np.asarray(fn(one), dtype=float).item()

    return truth


def _compile(f, backend: LogicBackend) -> Callable[[Env], object]:
    """`truth_function` on a batch, for a formula the backend reads as written."""
    if isinstance(f, Cmp):
        fl, fr = expr_fn(f.left), expr_fn(f.right)
        op = f.op
        cmpf = backend.compare
        return lambda env: cmpf(op, fl(env), fr(env))
    if isinstance(f, And):
        return _conjunction(conjuncts(f), backend)
    if isinstance(f, Or):
        fl, fr = _compile(f.left, backend), _compile(f.right, backend)
        disj = backend.disj
        return lambda env: disj(fl(env), fr(env))
    if isinstance(f, Implies):
        fl, fr = _compile(f.left, backend), _compile(f.right, backend)
        impl = backend.impl
        return lambda env: impl(fl(env), fr(env))
    if isinstance(f, Not):
        fb = _compile(f.body, backend)
        neg = backend.neg
        return lambda env: neg(fb(env))
    raise TypeError(f"not a formula: {f!r}")


def _conjunction(parts, backend: LogicBackend) -> Callable[[Env], object]:
    """The left fold, by `backend.conj`, of the conjuncts `parts`.

    The whole conjunction is one node: `backend.conj_n` reduces an array
    whose last axis holds the conjuncts in their order, bit for bit the
    fold.  Conjuncts that share a template (`formula.template`) fill their
    slots from one run of the first member's closure, on an Env whose
    entries are (batch, members) arrays, one gather per slot from the
    batch's matrix; every other conjunct runs its own closure.  A template
    never holds a conjunction, so every closure is built here and runs on
    the Env its caller passes.
    """
    if len(parts) == 1:
        return _compile(parts[0], backend)
    members: dict = {}
    for j, g in enumerate(parts):
        t = template(g)
        if t is not None:
            members.setdefault(t[0], []).append((j, t[1], t[2]))
    shared = []
    for ms in members.values():
        if len(ms) >= 2:
            js, outs, ins = zip(*ms)
            shared.append((_compile(parts[js[0]], backend), js, _slots(outs), _slots(ins)))
    grouped = {j for _, js, _, _ in shared for j in js}
    singles = tuple((_compile(g, backend), j) for j, g in enumerate(parts) if j not in grouped)
    conj_n = backend.conj_n

    def run(env):
        pieces = [(fn(env), j) for fn, j in singles]
        for fn, js, outs, ins in shared:
            stacked = Env(outputs=_stacked(env.outputs, outs, "out"), inputs=_stacked(env.inputs, ins, "in"))
            pieces.append((fn(stacked), js))
        return aggregate(pieces, conj_n)

    return run


def _slots(indices):
    """(position, entries) per slot of a shared template, from each
    member's entry indices: the first member reads slot i at its own entry
    indices[0][i], and the gather there reads every member's entry."""
    return tuple(zip(indices[0], zip(*indices)))


def _stacked(matrix, slots, ref: str):
    """A vector whose entry at each slot's position is the (batch, members)
    gather of that slot's entries from `matrix`; entries no slot names stay
    unbound (None).  An entry past the matrix's rows raises
    `UnboundReference` naming it as `ref`[k]."""
    if not slots:
        return ()
    top = max(max(idx) for _, idx in slots)
    if top >= _entry_count(matrix):
        raise UnboundReference(f"{ref}[{top}] is not bound by the environment")
    out = [None] * (max(pos for pos, _ in slots) + 1)
    for pos, idx in slots:
        out[pos] = gather(matrix, idx)
    return out


def loss_function(f, backend: LogicBackend) -> Callable[[Env], object]:
    """Compile a formula to a training loss: 0 iff satisfied, larger is worse.

    Fuzzy truth t becomes the loss 1 - t; a violation measure is already a
    loss and passes through.  Values come as from `truth_function`.
    """
    truth = truth_function(f, backend)
    if backend.polarity == ZERO_WHEN_TRUE:
        return truth
    return lambda env: 1.0 - truth(env)
