"""Feed-forward softmax classifier trained by minibatch SGD.

The training loss is ``ce + lam * logic`` where ``ce`` is mean
cross-entropy and ``logic`` is the mean compiled constraint loss over the
batch (over consecutive sample pairs for constraints that relate two
samples).  Cross-entropy gradients are computed in closed form.  The
constraint term is differentiated on the tape once per batch: each of the
10-or-so probability outputs is one leaf whose value is an array over the
batch axis, so the tape's size does not grow with the batch or the model,
and its probability-space gradient is chained through the softmax Jacobian
in one array expression.

``forward_nodes`` runs one sample end to end on a scalar tape instead.  It
is far too slow to train with and exists so tests can triangulate the
vectorized backprop against a second, independent derivative path.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from logicloss.autodiff import Node, grad, var, vexp, vln, vmax
from logicloss.formula import Env, uses_paired_samples
from logicloss.logics import loss_function


class TrainingDiverged(RuntimeError):
    """Raised when a training loss stops being finite."""


@dataclass
class Model:
    layer_sizes: tuple
    weights: list  # weights[k] has shape (fan_out, fan_in)
    biases: list

    @property
    def n_params(self):
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


def init_model(layer_sizes, seed):
    """Build a model with uniform(-1/sqrt(fan_in), +) weights, zero biases.

    Deterministic for a given seed.
    """
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ValueError("need at least an input and an output layer")
    if any(s <= 0 for s in sizes):
        raise ValueError(f"layer sizes must be positive: {sizes}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Model(sizes, weights, biases)


def _forward_cache(m, X):
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


def forward(m, x):
    """Probability vector for one input; raises on dimension mismatch."""
    x = np.asarray(x, dtype=float)
    if x.shape != (m.layer_sizes[0],):
        raise ValueError(
            f"input has shape {x.shape}, model expects ({m.layer_sizes[0]},)"
        )
    _, zs = _forward_cache(m, x[None, :])
    return _softmax(zs[-1])[0]


def forward_batch(m, X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != m.layer_sizes[0]:
        raise ValueError(
            f"batch has shape {X.shape}, model expects (n, {m.layer_sizes[0]})"
        )
    _, zs = _forward_cache(m, X)
    return _softmax(zs[-1])


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


def tape_loss(m, x, y, lam=0.0, backend=None, constraint=None):
    """Scalar tape of ce + lam*logic for one sample (slow reference path)."""
    probs, wnodes, bnodes = forward_nodes(m, x)
    loss = 0.0 - vln(probs[int(y)])
    if lam > 0.0 and constraint is not None:
        fn = loss_function(constraint, backend)
        loss = loss + lam * fn(Env(outputs=probs, inputs=[float(v) for v in x]))
    return loss, wnodes, bnodes


def _logic_grads(fn, paired, probs, X, lam):
    """Mean constraint loss and its logit-space gradient over a batch.

    One tape pass covers the whole batch: each output column is one leaf
    whose value holds every sample's probability, and a paired constraint
    reads the even rows as the first sample and the odd rows as the second
    (an odd tail stays unused).  Tape gradients live in probability space;
    the chain through softmax is dz = p * (g - g.p) for every row at once.
    """
    d_logits = np.zeros_like(probs)
    if paired:
        k = len(probs) // 2
        if k == 0:
            return 0.0, d_logits
        rows = (slice(0, 2 * k, 2), slice(1, 2 * k, 2))
    else:
        k = len(probs)
        rows = (slice(None),)
    leaves = [[var(col) for col in np.ascontiguousarray(probs[r].T)] for r in rows]
    inputs = [list(np.ascontiguousarray(X[r].T)) for r in rows]
    if paired:
        env = Env(outputs=leaves[0], outputs2=leaves[1], inputs=inputs[0], inputs2=inputs[1])
    else:
        env = Env(outputs=leaves[0], inputs=inputs[0])
    lv = fn(env)
    losses = lv.value if isinstance(lv, Node) else lv
    total = float(np.sum(np.broadcast_to(losses, (k,))))
    if isinstance(lv, Node):
        g = grad(lv, [nd for row in leaves for nd in row])
        for r, row in zip(rows, leaves):
            gp = np.empty((k, len(row)))
            for j, nd in enumerate(row):
                gp[:, j] = g[nd]
            p = probs[r]
            d_logits[r] = p * (gp - (gp * p).sum(axis=1, keepdims=True))
    return total / k, (lam / k) * d_logits


def loss_gradients(m, X, y, lam=0.0, backend=None, constraint=None):
    """Mean losses and parameter gradients of ce + lam*logic on a batch."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n = X.shape[0]
    acts, zs = _forward_cache(m, X)
    logits = zs[-1]
    probs = _softmax(logits)
    ce = float(-_log_softmax(logits)[np.arange(n), y].mean())

    onehot = np.zeros_like(probs)
    onehot[np.arange(n), y] = 1.0
    d_logits = (probs - onehot) / n

    logic = 0.0
    if lam > 0.0 and constraint is not None:
        fn = loss_function(constraint, backend)
        logic, d_extra = _logic_grads(fn, uses_paired_samples(constraint), probs, X, lam)
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
            # relu'(0) := 1, matching the tape's tie convention in vmax
            delta = (delta @ m.weights[k]) * (zs[k - 1] >= 0.0)
    return ce, logic, grads_w, grads_b


@dataclass
class Optimizer:
    """SGD with optional momentum; seed drives the epoch shuffle order."""

    lr: float
    momentum: float = 0.0
    seed: int = 0
    _vel: list = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not self.lr > 0.0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")

    def step(self, m, grads_w, grads_b):
        if self.momentum == 0.0:
            for W, gw in zip(m.weights, grads_w):
                W -= self.lr * gw
            for b, gb in zip(m.biases, grads_b):
                b -= self.lr * gb
            return
        if self._vel is None:
            self._vel = [np.zeros_like(g) for g in grads_w + grads_b]
        params = m.weights + m.biases
        for v, p, g in zip(self._vel, params, grads_w + grads_b):
            v *= self.momentum
            v += g
            p -= self.lr * v


def train_step(m, batch, lam, backend, constraint, opt):
    """One SGD update on (X, y); returns (ce_loss, logical_loss)."""
    X, y = batch
    if len(X) == 0:
        raise ValueError("empty batch")
    if lam < 0.0:
        raise ValueError(f"logical weight must be non-negative, got {lam}")
    ce, logic, gw, gb = loss_gradients(m, X, y, lam, backend, constraint)
    opt.step(m, gw, gb)
    return ce, logic


CHECKPOINT_FORMAT = "logicloss-model-v1"


def save_checkpoint(m, path):
    payload = {
        "format": CHECKPOINT_FORMAT,
        "layer_sizes": list(m.layer_sizes),
        "weights": [w.tolist() for w in m.weights],
        "biases": [b.tolist() for b in m.biases],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path):
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a model checkpoint: format={payload.get('format')!r}")
    sizes = tuple(payload["layer_sizes"])
    weights = [np.asarray(w, dtype=float) for w in payload["weights"]]
    biases = [np.asarray(b, dtype=float) for b in payload["biases"]]
    m = Model(sizes, weights, biases)
    for (fan_out, fan_in), w, b in zip(
        zip(sizes[1:], sizes), weights, biases
    ):
        if w.shape != (fan_out, fan_in) or b.shape != (fan_out,):
            raise ValueError("checkpoint arrays do not match layer sizes")
    return m
