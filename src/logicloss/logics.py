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
axis of one (batch, conjuncts) array, which the backend's conjunction
(`LogicBackend.conj`, the t-norm's aggregation operator; dl2's sum)
reduces in one tape node.  Every operator is elementwise, so each conjunct
gets the numbers it would get compiled alone, and the tape holds one copy
of the template and one reduction, however many conjuncts there are.  The
reduction runs in the fold's order, so it equals the left fold by the
pairwise t-norm bit for bit (Yager steps through the conjuncts one at a
time, on bare arrays, off the tape), and records the fold's branch
margins.  A fuzzy `==` reduces its two soft comparisons the same way,
`!=` is 1 minus that, and `not` is 1 - x.

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
  - Every fuzzy connective maps values in [0,1] into [0,1] in IEEE double
    arithmetic, and every fuzzy comparison maps finite values there, with
    no clamp: rounding is monotone and eps > 0.
      - `fuzzy_le`: fl(x-y) <= fl(|x|+|y|) <= den, so q <= 1.
      - probabilistic sum: a = fl(x+y) and b = fl(x*y) round by less
        than 2^-52 together, so a - b <= 1 + 2^-53, which rounds to 1.
      - Reichenbach: fl(x*y) <= x, and fl(1-x) rounds up by at most 2^-54.
      - rc-phi: the square root of a Reichenbach value.
      - every other connective is a min, max, select or pow of values in
        [0,1].
    Only the sigmoidal reshaping (rc-s) spills, and `sigmoidal_truth`
    clamps that itself.
"""

from __future__ import annotations

import math
import operator
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

# The defaults of the operators' parameters: `fuzzy_le`'s denominator
# slack, dl2's strict-inequality penalty, Yager's p and the sigmoidal
# implication's s.  The operators below, `make_backend`, `ExperimentConfig`
# and the command line take their defaults from here.
EPS = 0.05
XI = 1.0
YAGER_P = 2.0
SIGMOIDAL_S = 9.0


# ---------------------------------------------------------------------------
# t-norms (fuzzy conjunction), each as its aggregation operator: the t-norm
# over the last axis of an array at once (van Krieken et al., "Analyzing
# Differentiable Fuzzy Logic Operators").  Each returns the reduced value
# and the partials by every entry, with the kinks, ties and base-0
# conventions that the pairwise left fold of the t-norm has.


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


def agg_yager(x, p: float = YAGER_P):
    # the fold, one conjunct at a time, with vpow's values and base-0
    # partials (`pow_parts`), so each step is the fold's bit for bit; a
    # step at 0 pins the fold at 0 from there on (1 - 0 to the p is 1, so
    # w >= 1).  Only the fold so far is sequential: the conjuncts' powers
    # are all taken before the fold, and each step's partial by its
    # conjunct is multiplied out after it.
    ux, dx = pow_parts(1.0 - x[..., 1:], p)
    acc = x[..., 0]
    to_acc, to_w = [], []  # partials of each step by the fold so far, by its power
    for k in range(ux.shape[-1]):
        ua, da = pow_parts(1.0 - acc, p)
        base = ua + ux[..., k]
        if p > 1.0:
            report_margin(base)  # the root's slope is unbounded as base -> 0
        w, dw = pow_parts(base, 1.0 / p)
        s = 1.0 - w
        report_margin(s)
        live = s > 0.0
        dw = np.where(live, dw, 0.0)
        to_acc.append(dw * da)
        to_w.append(dw)
        acc = np.where(live, s, 0.0)
    ones = np.ones(x.shape[:-1] + (1,))
    if not to_acc:
        return acc, ones
    # the partial by conjunct k chains through every later step
    later = np.multiply.accumulate(np.stack(to_acc, axis=-1)[..., ::-1], axis=-1)[..., ::-1]
    own = np.stack(to_w, axis=-1) * dx
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


def s_yager(x, y, p: float = YAGER_P):
    return vmin(1.0, vpow(vpow(x, p) + vpow(y, p), 1.0 / p))


def s_prob_sum(x, y):
    """x + y - x*y, one tape node."""
    xv, yv = val(x), val(y)
    return record(xv + yv - xv * yv, (x, lambda: 1.0 - yv), (y, lambda: 1.0 - xv))


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

    `sigmoidal_truth` absorbs the renormalized sigmoid's last-ulp spill at
    its endpoints with it, without flattening the gradient the way a
    min/max clamp would.
    """
    v = np.asarray(val(x))
    if v.min() >= 0.0 and v.max() <= 1.0:
        return x
    c = np.where(v < 0.0, 0.0, np.where(v > 1.0, 1.0, v))
    return Node(c, (x,), (1.0,)) if isinstance(x, Node) else c


def sigmoidal_truth(u, s: float = SIGMOIDAL_S):
    """Reshape a truth value by a scaled, renormalized sigmoid.

    Fixes 0, 1/2, and 1; flattens near the endpoints and steepens in the
    middle, which trades the endpoint derivative for a stronger one where
    the constraint is undecided.
    """
    e_half = math.exp(s / 2.0)
    raw = ((1.0 + e_half) * vsigmoid(s * u - s / 2.0) - 1.0) / (e_half - 1.0)
    return _clip01(raw)


def sigmoidal(impl: Callable, s: float = SIGMOIDAL_S) -> Callable:
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


def fuzzy_le(x, y, eps: float = EPS):
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


def fuzzy_compare(op: str, x, y, conj: Callable, eps: float = EPS):
    """Soft truth of `x op y` by `fuzzy_le`; `==` reduces the comparisons
    both ways by the aggregation operator `conj` in one node, and `!=` is
    1 minus that."""
    if op in ("<=", "<"):
        return fuzzy_le(x, y, eps)
    if op in (">=", ">"):
        return fuzzy_le(y, x, eps)
    if op in ("==", "!="):
        eq = aggregate([(fuzzy_le(x, y, eps), 0), (fuzzy_le(y, x, eps), 1)], conj)
        return eq if op == "==" else 1.0 - eq
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


def dl2_atom(op: str, x, y, xi: float = XI):
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


# ---------------------------------------------------------------------------
# Backends

@dataclass(frozen=True)
class LogicBackend:
    """One complete loss semantics: connectives plus the atom translation.

    A backend with an implication scores a fuzzy truth in [0,1], 1 iff
    (crisply) satisfied; one without (dl2) scores a violation, 0 iff
    satisfied.  A backend compiles each formula once: `loss_function`
    keeps the loss of each formula it has compiled under the backend, in
    an attribute that is not a field, so a backend made by
    `dataclasses.replace` starts without any, and they go with the backend.
    """

    name: str
    conj: Callable  # x -> (value, partials) of the conjunction over x's last axis
    disj: Callable
    impl: Optional[Callable]  # None: the compiler rewrites "->" and "not" away (dl2)
    compare: Callable  # (op, x, y) -> truth or violation

    def __post_init__(self):
        object.__setattr__(self, "_losses", {})  # formula -> its loss, by value


# name -> (t-norm's aggregation operator, s-norm, implication); make_backend
# binds the Yager operators' p and reshapes the rc-s and rc-phi implications
_FUZZY_TABLE = {
    "godel": (agg_godel, s_godel, i_godel),
    "kd": (agg_godel, s_godel, i_kleene_dienes),
    "lk": (agg_lukasiewicz, s_lukasiewicz, i_lukasiewicz),
    "gg": (agg_product, s_prob_sum, i_goguen),
    "rc": (agg_product, s_prob_sum, i_reichenbach),
    "rc-s": (agg_product, s_prob_sum, i_reichenbach),
    "rc-phi": (agg_product, s_prob_sum, i_reichenbach),
    "yg": (agg_yager, s_yager, i_yager),
    # conjunction-study variants: the implication's own t-norm pairs with
    # the probabilistic sum for disjunction
    "tg": (agg_godel, s_prob_sum, i_godel),
    "tlk": (agg_lukasiewicz, s_prob_sum, i_lukasiewicz),
    "trc": (agg_product, s_prob_sum, i_reichenbach),
    "tyg": (agg_yager, s_prob_sum, i_yager),
}

BACKEND_NAMES = ("dl2",) + tuple(_FUZZY_TABLE)


def make_backend(
    name: str,
    *,
    eps: float = EPS,
    xi: float = XI,
    yager_p: float = YAGER_P,
    sigmoidal_s: float = SIGMOIDAL_S,
) -> LogicBackend:
    if name == "dl2":
        if not 0.0 < xi < math.inf:
            raise ValueError("xi must be positive and finite")

        def compare(op, x, y):
            return dl2_atom(op, x, y, xi)

        # conjunction adds violations, disjunction multiplies them
        return LogicBackend(name="dl2", conj=agg_sum, disj=operator.mul, impl=None, compare=compare)

    if name not in _FUZZY_TABLE:
        known = ", ".join(BACKEND_NAMES)
        raise ValueError(f"unknown backend {name!r}; choose one of: {known}")
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if not 1.0 <= yager_p < math.inf:
        raise ValueError("yager_p must be at least 1 and finite")
    if not 0.0 < sigmoidal_s < math.inf:
        raise ValueError("sigmoidal_s must be positive and finite")

    conj, snorm, impl = (partial(fn, p=yager_p) if fn in (agg_yager, s_yager) else fn for fn in _FUZZY_TABLE[name])
    if name == "rc-s":
        impl = sigmoidal(impl, sigmoidal_s)
    elif name == "rc-phi":
        impl = power_scaled(impl)

    def compare(op, x, y):
        return fuzzy_compare(op, x, y, conj, eps)

    return LogicBackend(name=name, conj=conj, disj=snorm, impl=impl, compare=compare)


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
        return lambda env: 1.0 - fb(env)
    raise TypeError(f"not a formula: {f!r}")


def _conjunction(parts, backend: LogicBackend) -> Callable[[Env], object]:
    """The conjunction of the conjuncts `parts`, the backend's t-norm folded
    left over them.

    The whole conjunction is one node: `backend.conj` reduces an array
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
    conj = backend.conj

    def run(env):
        pieces = [(fn(env), j) for fn, j in singles]
        for fn, js, outs, ins in shared:
            stacked = Env(outputs=_stacked(env.outputs, outs, "out"), inputs=_stacked(env.inputs, ins, "in"))
            pieces.append((fn(stacked), js))
        return aggregate(pieces, conj)

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
    loss and passes through.  Values come as from `truth_function`.  The
    backend compiles each formula once: a formula equal to one compiled
    under it before returns that loss.
    """
    losses = backend._losses
    loss = losses.get(f)
    if loss is None:
        truth = truth_function(f, backend)
        loss = truth if backend.impl is None else lambda env: 1.0 - truth(env)
        losses[f] = loss
    return loss
