"""Reference derivative paths that the tests check the library against.

`finite_diff` is central differences on plain floats; its own checks are
in test_autodiff.py.  `forward_nodes` and `tape_loss` run one sample
through the whole network on the scalar tape, one node per weight, so the
closed-form batched backprop in `network.loss_gradients` has a second,
independent derivative path.  Both are far too slow to train with.  They
and `fuzzy_le_composed` use the tape primitives `vabs`, `vexp` and `vln`,
which the library does not use.
`sample_loss` feeds one sample's scalar tape nodes to a compiled loss
through one (entries, 1) leaf and chains the leaf's gradient back into
the scalar tape.
`fuzzy_le_composed`, `dl2_hinge_composed`, `i_reichenbach_composed` and
`s_prob_sum_composed` build a comparison atom or a product-family
connective from tape primitives, one node per step; the library records
each as one node with closed-form partials, and must match them.
`t_godel`, `t_lukasiewicz`, `t_yager` and `t_product` are the pairwise
t-norms.  A backend reduces a conjunction by its t-norm's aggregation
operator, which must equal their left fold: `pairwise_conj` gives the
fold's step for a backend, and `two_slot` the library's operator on two
arguments.  `pairwise_truth` scores a formula composed from the pairwise
operators: every conjunction a fold, a fuzzy `==` the t-norm of the two
soft comparisons, `!=` and `not` one minus a value.
`dense_forward_batch` and `dense_loss_gradients` are the dense path
unfused, in the library's (entries, samples) layout, with separate softmax
and log-softmax passes, a one-hot CE gradient and the pre-activations kept
for the ReLU mask; the library's single-pass, in-place version must equal
them bit for bit.  `rowmajor_forward_batch` and `rowmajor_loss_gradients`
are the same formulas with every batch held as (samples, entries) rows, as
the dense path was first written, logic term included; they reduce in
another order, so the library agrees with them to rounding.

`margin_backend(b)` is the backend `b` whose conjunction, disjunction,
implication and comparison each first record their branch margins,
computed from their operands by that operator's `*_margins` function, and
then run `b`'s own callable, so values, partials and tapes are `b`'s.  A
margin is each row's distance from a kink (a tie of a max or min, a hinge
or a Godel/Goguen implication at x == y, a fold's step at 0) or a
singularity (a square root, or a power below 1, at base 0; Goguen's
divisor at 0), where a central difference is no derivative, so the
finite-difference tests redraw a point that passes too close to one.  It
is an array over the batch (a scalar for scalar operands), inf on a row
that does not take the guarded branch; a reduction records one margin
per step.  Margins are kept only inside `track_branch_margins()`, which
yields their list and, while it is open, also records the square root of
every `norm2`, which the formula's arithmetic takes outside the backend.
"""

import functools
import operator
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from logicloss import formula
from logicloss.autodiff import DomainError, Node, aggregate, grad, pow_parts, val, var, vmax, vmin, vpow, vsqrt
from logicloss.formula import (
    And,
    Cmp,
    Env,
    Implies,
    Not,
    Or,
    batch_env,
    conjuncts,
    expr_fn,
    push_negations,
    sample_rows,
)
from logicloss.logics import (
    LogicBackend,
    _clip01,
    agg_godel,
    agg_lukasiewicz,
    agg_product,
    agg_sum,
    agg_yager,
    i_godel,
    i_goguen,
    i_kleene_dienes,
    i_lukasiewicz,
    i_reichenbach,
    i_yager,
    loss_function,
    s_godel,
    s_lukasiewicz,
    s_prob_sum,
    s_yager,
)
from logicloss.network import CompiledConstraint, TrainingDiverged, _logic_grads, compile_constraint


def vabs(a):
    v = a.value if isinstance(a, Node) else a
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


def forward_nodes(m, x):
    """One-sample forward pass entirely on the tape.

    Returns (probability Nodes, weight Nodes, bias Nodes) where the
    parameter Nodes mirror the model arrays elementwise.
    """
    wnodes = [[[var(float(w)) for w in row] for row in W] for W in m.weights]
    bnodes = [[var(float(b)) for b in bvec] for bvec in m.biases]
    a = [float(v) for v in x]
    last = len(wnodes) - 1
    for k, (W, B) in enumerate(zip(wnodes, bnodes)):
        z = []
        for row, b in zip(W, B):
            acc = b
            for wij, aj in zip(row, a):
                acc = acc + wij * aj
            z.append(acc)
        a = [vmax(zj, 0.0) for zj in z] if k < last else z
    mx = z[0]
    for zj in z[1:]:
        mx = vmax(mx, zj)
    es = [vexp(zj - mx) for zj in z]
    total = es[0]
    for e in es[1:]:
        total = total + e
    probs = [e / total for e in es]
    return probs, wnodes, bnodes


def sample_loss(fn, outputs, inputs=()):
    """`fn` on one sample whose outputs may be scalar tape nodes.

    The outputs are read through one (entries, 1) leaf; the result is one
    scalar node whose partials by the output nodes are the leaf's gradient,
    or a float when `fn` does not reach the tape.
    """
    leaf = var(np.array([[float(val(p))] for p in outputs]))
    lv = fn(Env(outputs=leaf, inputs=np.asarray(inputs, dtype=float).reshape(-1, 1)))
    value = np.asarray(val(lv), dtype=float).item()
    if not isinstance(lv, Node):
        return value
    g = np.broadcast_to(grad(lv, [leaf])[leaf], leaf.value.shape)[:, 0]
    parents = [(p, float(d)) for p, d in zip(outputs, g) if isinstance(p, Node)]
    return Node(value, tuple(p for p, _ in parents), tuple(d for _, d in parents))


def tape_loss(m, x, y, lam=0.0, backend=None, constraint=None):
    """Scalar tape of ce + lam*logic for one sample."""
    probs, wnodes, bnodes = forward_nodes(m, x)
    loss = 0.0 - vln(probs[int(y)])
    if lam > 0.0 and constraint is not None:
        loss = loss + lam * sample_loss(loss_function(constraint, backend), probs, x)
    return loss, wnodes, bnodes


def fuzzy_le_composed(x, y, eps=0.05):
    return 1.0 - vmax(x - y, 0.0) / (vabs(x) + vabs(y) + eps)


def dl2_hinge_composed(x, y):
    return vmax(x - y, 0.0)


def i_reichenbach_composed(x, y):
    return 1.0 - x + x * y


def s_prob_sum_composed(x, y):
    return x + y - x * y


def t_godel(x, y):
    return vmin(x, y)


def t_lukasiewicz(x, y):
    return vmax(0.0, x + y - 1.0)


def t_yager(x, y, p: float = 2.0):
    w = vpow(vpow(1.0 - x, p) + vpow(1.0 - y, p), 1.0 / p)
    return vmax(0.0, 1.0 - w)


def t_product(x, y):
    return x * y


def two_slot(rule):
    """A conjunction's aggregation operator `rule` as a function of two
    arguments: the library's `aggregate` over two slots."""
    return lambda a, b: aggregate([(a, 0), (b, 1)], rule)


_TNORM_OF = {agg_godel: t_godel, agg_lukasiewicz: t_lukasiewicz, agg_product: t_product}


def pairwise_conj(backend):
    """The step of the left fold that `backend.conj` reduces as: the
    pairwise t-norm inside the [0,1] clip, or dl2's a + b."""
    rule = backend.conj
    if rule is agg_sum:
        return operator.add
    if isinstance(rule, functools.partial):  # Yager, with its p
        return lambda a, b: _clip01(t_yager(a, b, **rule.keywords))
    tnorm = _TNORM_OF[rule]
    return lambda a, b: _clip01(tnorm(a, b))


def pairwise_truth(f, backend, env):
    """`logics.truth_function(f, backend)` on a batch's Env, composed from
    the pairwise operators: each conjunction folds `pairwise_conj` left
    over its conjuncts; a fuzzy `==` is that step on the soft comparisons
    both ways and `!=` one minus it, each in the [0,1] clip; a fuzzy `not`
    is the clipped 1 - x.  dl2 reads the formula as `push_negations`
    rewrites it."""
    if backend.impl is None:
        f = push_negations(f, rewrite_implication=True)
    return _pairwise(f, backend, pairwise_conj(backend), env)


def _pairwise(f, backend, conj, env):
    if isinstance(f, Cmp):
        x, y = expr_fn(f.left)(env), expr_fn(f.right)(env)
        if backend.impl is None or f.op not in ("==", "!="):
            return backend.compare(f.op, x, y)
        eq = conj(backend.compare("<=", x, y), backend.compare("<=", y, x))
        return _clip01(eq if f.op == "==" else 1.0 - eq)
    if isinstance(f, And):
        values = [_pairwise(g, backend, conj, env) for g in conjuncts(f)]
        return functools.reduce(conj, values)
    if isinstance(f, Not):
        return _clip01(1.0 - _pairwise(f.body, backend, conj, env))
    a, b = (_pairwise(g, backend, conj, env) for g in (f.left, f.right))
    if isinstance(f, Or):
        return backend.disj(a, b)
    assert isinstance(f, Implies)
    return backend.impl(a, b)


def _dense_forward(m, X):
    # acts[k] is the input to layer k, (fan_in, n); zs[k] its pre-activation
    acts = [X.T]
    zs = []
    a = X.T
    last = len(m.weights) - 1
    for k, (W, b) in enumerate(zip(m.weights, m.biases)):
        z = W @ a + b[:, None]
        zs.append(z)
        a = np.maximum(z, 0.0) if k < last else z
        acts.append(a)
    return acts, zs


def _softmax(logits, axis):
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _log_softmax(logits, axis):
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def dense_forward_batch(m, X):
    _, zs = _dense_forward(m, np.asarray(X, dtype=float))
    return _softmax(zs[-1], axis=0).T


def dense_loss_gradients(m, X, y, lam=0.0, backend=None, constraint=None):
    """`network.loss_gradients`, unfused, in its (entries, samples) layout;
    the logic term is the library's."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n = X.shape[0]
    acts, zs = _dense_forward(m, X)
    logits = zs[-1]
    probs = _softmax(logits, axis=0)
    ce = float(-_log_softmax(logits, axis=0)[y, np.arange(n)].mean())

    onehot = np.zeros_like(probs)
    onehot[y, np.arange(n)] = 1.0
    d_logits = (probs - onehot) / n

    logic = 0.0
    if lam > 0.0 and constraint is not None:
        if not isinstance(constraint, CompiledConstraint):
            constraint = compile_constraint(constraint, backend)
        logic, d_extra = _logic_grads(constraint.fn, constraint.paired, probs, X.T, lam)
        if d_extra is not None:
            d_logits = d_logits + d_extra

    if not np.isfinite(ce) or not np.isfinite(logic):
        raise TrainingDiverged(f"non-finite loss: ce={ce}, logic={logic}")

    grads_w = [None] * len(m.weights)
    grads_b = [None] * len(m.biases)
    delta = d_logits
    for k in reversed(range(len(m.weights))):
        grads_w[k] = delta @ acts[k].T
        grads_b[k] = delta.sum(axis=1)
        if k > 0:
            delta = (m.weights[k].T @ delta) * (zs[k - 1] >= 0.0)
    return ce, logic, grads_w, grads_b


def _rowmajor_forward(m, X):
    # acts[k] is the input to layer k, (n, fan_in); zs[k] its pre-activation
    acts = [X]
    zs = []
    a = X
    last = len(m.weights) - 1
    for k, (W, b) in enumerate(zip(m.weights, m.biases)):
        z = a @ W.T + b
        zs.append(z)
        a = np.maximum(z, 0.0) if k < last else z
        acts.append(a)
    return acts, zs


def rowmajor_forward_batch(m, X):
    _, zs = _rowmajor_forward(m, np.asarray(X, dtype=float))
    return _softmax(zs[-1], axis=1)


def _rowmajor_logic_grads(fn, paired, probs, X, lam):
    """The logic term of a batch held as (samples, entries) rows: each row
    selection's probabilities, transposed, are one leaf, and the adjoint is
    transposed back and chained through the softmax row by row."""
    k, rows = sample_rows(len(probs), paired)
    if k == 0:
        return 0.0, None
    leaves = [var(np.ascontiguousarray(probs[r].T)) for r in rows]
    lv = fn(batch_env(leaves, [np.ascontiguousarray(X[r].T) for r in rows]))
    total = float(np.sum(np.broadcast_to(val(lv), (k,))))
    if not isinstance(lv, Node):
        return total / k, None
    g = grad(lv, leaves)
    d_logits = np.zeros_like(probs)
    for r, leaf in zip(rows, leaves):
        p = probs[r]
        gp = np.broadcast_to(np.transpose(g[leaf]), p.shape)
        d_logits[r] = p * (gp - (gp * p).sum(axis=1, keepdims=True))
    return total / k, d_logits * (lam / k)


def rowmajor_loss_gradients(m, X, y, lam=0.0, backend=None, constraint=None):
    """`network.loss_gradients` with every batch held as (samples, entries)
    rows, as it was first written: the same formulas in the other layout,
    so it agrees with the library to rounding, not bit for bit."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n = X.shape[0]
    acts, zs = _rowmajor_forward(m, X)
    logits = zs[-1]
    probs = _softmax(logits, axis=1)
    ce = float(-_log_softmax(logits, axis=1)[np.arange(n), y].mean())

    onehot = np.zeros_like(probs)
    onehot[np.arange(n), y] = 1.0
    d_logits = (probs - onehot) / n

    logic = 0.0
    if lam > 0.0 and constraint is not None:
        if not isinstance(constraint, CompiledConstraint):
            constraint = compile_constraint(constraint, backend)
        logic, d_extra = _rowmajor_logic_grads(constraint.fn, constraint.paired, probs, X, lam)
        if d_extra is not None:
            d_logits = d_logits + d_extra

    grads_w = [None] * len(m.weights)
    grads_b = [None] * len(m.biases)
    delta = d_logits
    for k in reversed(range(len(m.weights))):
        grads_w[k] = delta.T @ acts[k]
        grads_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ m.weights[k]) * (zs[k - 1] >= 0.0)
    return ce, logic, grads_w, grads_b


# ---------------------------------------------------------------------------
# Branch margins.  Each `*_margins` function returns the signed distances
# of its operator's branch decisions, in the order the operator takes
# them; the recorder keeps their absolute values.

_margins: list | None = None


@contextmanager
def track_branch_margins():
    """Keep the branch margins recorded while the block runs, in the list
    it yields."""
    global _margins
    saved = _margins, formula.vsqrt
    _margins = []
    formula.vsqrt = _recorded(vsqrt, sqrt_margins)
    try:
        yield _margins
    finally:
        _margins, formula.vsqrt = saved


def _recorded(fn, margins):
    """`fn`, recording `margins` of its operands' values first while a
    recorder is open."""

    def run(*args):
        if _margins is not None:
            _margins.extend(np.abs(m) for m in margins(*(val(a) for a in args)))
        return fn(*args)

    return run


def no_margins(*args):
    return []


def sqrt_margins(v):
    # the root's slope is unbounded as v -> 0
    return [v]


def pow_margins(a, b):
    """vpow(a, b): its slope in the base is unbounded as a -> 0 where b < 1."""
    return [np.where(np.less(b, 1.0), a, np.inf)]


def godel_margins(x, y):
    """max(x, y) or min(x, y), and Godel's implication."""
    return [x - y]


def godel_fold_margins(x):
    """The fold of min: the running min against each next conjunct."""
    return list(np.moveaxis(np.minimum.accumulate(x[..., :-1], axis=-1) - x[..., 1:], -1, 0))


def lukasiewicz_fold_margins(x):
    """The fold's step (acc + x_k) - 1 before its max with 0, for each
    conjunct after the first, summed in `agg_lukasiewicz`'s order: the
    running sum while every step so far is live, x_k - 1 once the fold is
    pinned at 0."""
    z = np.full(x.shape[:-1] + (2 * x.shape[-1] - 1,), -1.0)
    z[..., 0] = x[..., 0]
    z[..., 1::2] = x[..., 1:]
    sums = np.add.accumulate(z, axis=-1)[..., 2::2]
    live = np.ones(sums.shape, dtype=bool)
    live[..., 1:] = np.logical_and.accumulate(sums[..., :-1] > 0.0, axis=-1)
    return list(np.moveaxis(np.where(live, sums, x[..., 1:] - 1.0), -1, 0))


def yager_fold_margins(x, p):
    """Each step of the fold: the root's base, where p > 1, and 1 - w."""
    ux = pow_parts(1.0 - x[..., 1:], p)[0]
    acc = x[..., 0]
    out = []
    for k in range(ux.shape[-1]):
        base = pow_parts(1.0 - acc, p)[0] + ux[..., k]
        if p > 1.0:
            out.append(base)
        s = 1.0 - pow_parts(base, 1.0 / p)[0]
        out.append(s)
        acc = np.where(s > 0.0, s, 0.0)
    return out


def lukasiewicz_snorm_margins(x, y):
    """min(1, x + y)."""
    return [1.0 - (x + y)]


def yager_snorm_margins(x, y, p):
    """min(1, (x^p + y^p)^(1/p)), as `s_yager` composes it."""
    base = vpow(x, p) + vpow(y, p)
    return pow_margins(x, p) + pow_margins(y, p) + pow_margins(base, 1.0 / p) + [1.0 - vpow(base, 1.0 / p)]


def kleene_dienes_margins(x, y):
    """max(1 - x, y)."""
    return [(1.0 - x) - y]


def lukasiewicz_impl_margins(x, y):
    """min(1 - x + y, 1)."""
    return [(1.0 - x + y) - 1.0]


def yager_impl_margins(x, y):
    """y ** x."""
    return pow_margins(y, x)


def goguen_margins(x, y):
    """The branch at x <= y, and the divisor x where it divides: y/x
    steepens without bound as x -> 0."""
    return [x - y, np.where(np.greater(x, y), x, np.inf)]


def rc_phi_margins(x, y):
    """The square root of Reichenbach's implication of x^2 and y^2."""
    return sqrt_margins(i_reichenbach(x * x, y * y))


def fuzzy_le_margins(x, y):
    """`fuzzy_le(x, y)`: its hinge at x - y, then |x| and |y|."""
    return [x - y, x, y]


def fuzzy_compare_margins(backend):
    """`backend.compare` of a fuzzy backend: `fuzzy_le` one way or the
    other, and a fuzzy `==` or `!=` both ways and then the two-slot
    reduction of their truths by `backend.conj`, the conjunction that
    `make_backend` binds into its comparisons."""
    conj = _with_p(backend.conj, _CONJUNCTION_MARGINS)

    def margins(op, x, y):
        if op in ("<=", "<"):
            return fuzzy_le_margins(x, y)
        if op in (">=", ">"):
            return fuzzy_le_margins(y, x)
        both = np.stack(np.broadcast_arrays(backend.compare("<=", x, y), backend.compare("<=", y, x)), axis=-1)
        return fuzzy_le_margins(x, y) + fuzzy_le_margins(y, x) + conj(both)

    return margins


def dl2_compare_margins(op, x, y):
    """dl2's atom: each hinge at its x - y, and the tie indicator of a
    strict or `!=` comparison at x - y."""
    return {
        "<=": [x - y],
        "<": [x - y, x - y],
        ">=": [y - x],
        ">": [y - x, x - y],
        "==": [x - y, y - x],
        "!=": [x - y],
    }[op]


_CONJUNCTION_MARGINS = {
    agg_godel: godel_fold_margins,
    agg_lukasiewicz: lukasiewicz_fold_margins,
    agg_yager: yager_fold_margins,
    agg_product: no_margins,
    agg_sum: no_margins,
}
_DISJUNCTION_MARGINS = {
    s_godel: godel_margins,
    s_lukasiewicz: lukasiewicz_snorm_margins,
    s_yager: yager_snorm_margins,
    s_prob_sum: no_margins,
    operator.mul: no_margins,
}
_IMPLICATION_MARGINS = {
    i_godel: godel_margins,
    i_kleene_dienes: kleene_dienes_margins,
    i_lukasiewicz: lukasiewicz_impl_margins,
    i_yager: yager_impl_margins,
    i_goguen: goguen_margins,
    i_reichenbach: no_margins,
}
# the reshaped Reichenbach implications, by backend name
_RESHAPED_MARGINS = {"rc-s": no_margins, "rc-phi": rc_phi_margins}


def _with_p(fn, table):
    """The margins of `fn` from `table`, where a Yager operator is a
    partial that binds its p."""
    if isinstance(fn, functools.partial):
        return functools.partial(table[fn.func], **fn.keywords)
    return table[fn]


def margin_backend(backend):
    """`backend` recording the branch margins of each connective and
    comparison from its operands, then running `backend`'s own."""
    impl = None
    if backend.impl is None:
        compare = _recorded(backend.compare, dl2_compare_margins)
    else:
        margins = _RESHAPED_MARGINS.get(backend.name) or _IMPLICATION_MARGINS[backend.impl]
        impl = _recorded(backend.impl, margins)
        compare = _recorded(backend.compare, fuzzy_compare_margins(backend))
    return LogicBackend(
        name=backend.name,
        conj=_recorded(backend.conj, _with_p(backend.conj, _CONJUNCTION_MARGINS)),
        disj=_recorded(backend.disj, _with_p(backend.disj, _DISJUNCTION_MARGINS)),
        impl=impl,
        compare=compare,
    )
