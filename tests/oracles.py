"""Reference derivative paths that the tests check the library against.

`finite_diff` is central differences on plain floats; its own checks are
in test_autodiff.py.  `forward_nodes` and `tape_loss` run one sample
through the whole network on the scalar tape, one node per weight, so the
closed-form batched backprop in `network.loss_gradients` has a second,
independent derivative path.  Both are far too slow to train with.
`sample_loss` feeds one sample's scalar tape nodes to a compiled loss
through one (entries, 1) leaf and chains the leaf's gradient back into
the scalar tape.
`fuzzy_le_composed`, `dl2_hinge_composed`, `i_reichenbach_composed` and
`s_prob_sum_composed` build a comparison atom or a product-family
connective from tape primitives, one node per step; the library records
each as one node with closed-form partials, and must match them.
`dense_forward_batch` and `dense_loss_gradients` are the dense path as it
was first written, with separate softmax and log-softmax passes, a one-hot
CE gradient and the pre-activations kept for the ReLU mask; the library's
single-pass, in-place version must equal them bit for bit.
"""

from typing import Callable, Sequence

import numpy as np

from logicloss.autodiff import Node, grad, val, var, vabs, vexp, vln, vmax
from logicloss.formula import Env
from logicloss.logics import loss_function
from logicloss.network import CompiledConstraint, TrainingDiverged, _logic_grads, compile_constraint


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


def _dense_forward(m, X):
    # acts[k] is the input to layer k; zs[k] its pre-activation.
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


def _softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def dense_forward_batch(m, X):
    _, zs = _dense_forward(m, np.asarray(X, dtype=float))
    return _softmax(zs[-1])


def dense_loss_gradients(m, X, y, lam=0.0, backend=None, constraint=None):
    """`network.loss_gradients`, unfused; the logic term is the library's."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n = X.shape[0]
    acts, zs = _dense_forward(m, X)
    logits = zs[-1]
    probs = _softmax(logits)
    ce = float(-_log_softmax(logits)[np.arange(n), y].mean())

    onehot = np.zeros_like(probs)
    onehot[np.arange(n), y] = 1.0
    d_logits = (probs - onehot) / n

    logic = 0.0
    if lam > 0.0 and constraint is not None:
        if not isinstance(constraint, CompiledConstraint):
            constraint = compile_constraint(constraint, backend)
        logic, d_extra = _logic_grads(constraint.fn, constraint.paired, probs, X, lam)
        if d_extra is not None:
            d_logits = d_logits + d_extra

    if not np.isfinite(ce) or not np.isfinite(logic):
        raise TrainingDiverged(f"non-finite loss: ce={ce}, logic={logic}")

    grads_w = [None] * len(m.weights)
    grads_b = [None] * len(m.biases)
    delta = d_logits
    for k in reversed(range(len(m.weights))):
        grads_w[k] = delta.T @ acts[k]
        grads_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ m.weights[k]) * (zs[k - 1] >= 0.0)
    return ce, logic, grads_w, grads_b
