"""Feed-forward softmax classifier trained by minibatch SGD.

The training loss is ``ce + lam * logic`` where ``ce`` is mean
cross-entropy and ``logic`` is the mean compiled constraint loss over the
batch (over consecutive sample pairs for constraints that relate two
samples).  Cross-entropy gradients are computed in closed form, from one
softmax pass: one shift, exp and row sum give the probabilities, the
cross-entropy (the shifted logit at each target minus the log row sum)
and its gradient (the probabilities, less 1 at each target, over the
batch size).  The forward pass keeps each hidden layer's ``z >= 0`` mask
for backprop in place of its pre-activation, and adds biases, applies
ReLU and masks deltas in place.  The constraint term is differentiated
on the tape once per batch: the batch's probabilities are one leaf, an
(outputs, samples) matrix (two, one per sample of a pair, for a paired
constraint), so the tape's size does not grow with the batch, the number
of classes or the model, and the leaf's adjoint, the probability-space
gradient, is chained through the softmax Jacobian in one array
expression.  Conjuncts of one shape (the csim triples, groups of one size)
share one copy of their template on the tape, evaluated over a (batch,
conjuncts) array gathered from the leaf, and the conjunction is one
reduction node over that axis, so the tape does not grow with the number
of conjuncts either.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from logicloss.autodiff import Node, grad, var
from logicloss.formula import batch_env, sample_rows, uses_paired_samples
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
    """Forward pass with what backprop reads: acts[k] is the input to layer
    k and acts[-1] the logits; masks[k] is hidden layer k's `z >= 0`.

    Each layer's output is one new array, written in place: the bias add,
    then ReLU after its mask is taken.
    """
    acts = [X]
    masks = []
    last = len(m.weights) - 1
    for k, (W, b) in enumerate(zip(m.weights, m.biases)):
        z = acts[-1] @ W.T
        z += b
        if k < last:
            masks.append(z >= 0.0)
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    return acts, masks


def _softmax(z, y=None):
    """Overwrite logits `z` with their row softmax.

    With targets `y`, also return each row's log-softmax at its target,
    from the same shift, exp and row sum.
    """
    z -= z.max(axis=-1, keepdims=True)
    log_p = None if y is None else z[np.arange(len(z)), y]
    np.exp(z, out=z)
    s = z.sum(axis=-1, keepdims=True)
    z /= s
    if y is not None:
        log_p -= np.log(s[:, 0])
    return log_p


def forward_batch(m, X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != m.layer_sizes[0]:
        raise ValueError(
            f"batch has shape {X.shape}, model expects (n, {m.layer_sizes[0]})"
        )
    probs = _forward_cache(m, X)[0][-1]
    _softmax(probs)
    return probs


def _logic_grads(fn, paired, probs, X, lam):
    """Mean constraint loss and its logit-space gradient over a batch.

    One tape pass covers the whole batch: the rows pair up as
    `formula.sample_rows` says, and each row selection's probabilities are
    one leaf, an (outputs, samples) matrix, whose adjoint is their whole
    probability-space gradient.  The chain through softmax is
    dz = p * (g - g.p) for every row at once.
    """
    d_logits = np.zeros_like(probs)
    k, rows = sample_rows(len(probs), paired)
    if k == 0:
        return 0.0, d_logits
    leaves = [var(np.ascontiguousarray(probs[r].T)) for r in rows]
    lv = fn(batch_env(leaves, [np.ascontiguousarray(X[r].T) for r in rows]))
    losses = lv.value if isinstance(lv, Node) else lv
    total = float(np.sum(np.broadcast_to(losses, (k,))))
    if isinstance(lv, Node):
        g = grad(lv, leaves)
        for r, leaf in zip(rows, leaves):
            p = probs[r]
            gp = np.empty(p.shape)
            gp[...] = np.transpose(g[leaf])
            d_logits[r] = p * (gp - (gp * p).sum(axis=1, keepdims=True))
    d_logits *= lam / k
    return total / k, d_logits


@dataclass(frozen=True)
class CompiledConstraint:
    """A constraint's loss under one backend, compiled once for many batches."""

    fn: Callable
    paired: bool


def compile_constraint(constraint, backend):
    return CompiledConstraint(loss_function(constraint, backend), uses_paired_samples(constraint))


def loss_gradients(m, X, y, lam=0.0, backend=None, constraint=None):
    """Mean losses and parameter gradients of ce + lam*logic on a batch.

    `constraint` is a formula, compiled under `backend` on this call, or a
    `CompiledConstraint`, which a training run builds once and reuses for
    every batch (`backend` is then not read).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n = X.shape[0]
    acts, masks = _forward_cache(m, X)
    probs = acts.pop()
    ce = float(-_softmax(probs, y).mean())

    logic = 0.0
    d_logic = None
    if lam > 0.0 and constraint is not None:
        if not isinstance(constraint, CompiledConstraint):
            constraint = compile_constraint(constraint, backend)
        logic, d_logic = _logic_grads(constraint.fn, constraint.paired, probs, X, lam)

    if not np.isfinite(ce) or not np.isfinite(logic):
        raise TrainingDiverged(f"non-finite loss: ce={ce}, logic={logic}")

    # probs, read for the last time above, becomes (probs - onehot(y)) / n
    d_logits = probs
    d_logits[np.arange(n), y] -= 1.0
    d_logits /= n
    if d_logic is not None:
        d_logits += d_logic

    grads_w = [None] * len(m.weights)
    grads_b = [None] * len(m.biases)
    delta = d_logits
    for k in reversed(range(len(m.weights))):
        grads_w[k] = delta.T @ acts[k]
        grads_b[k] = delta.sum(axis=0)
        if k > 0:
            # relu'(0) := 1, matching the tape's tie convention in vmax
            delta = delta @ m.weights[k]
            delta *= masks[k - 1]
    return ce, logic, grads_w, grads_b


@dataclass
class Optimizer:
    """SGD with optional momentum."""

    lr: float
    momentum: float = 0.0
    _vel: list = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not self.lr > 0.0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")

    def step(self, m, grads_w, grads_b):
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
    if not lam >= 0.0:
        raise ValueError(f"logical weight must be non-negative, got {lam}")
    ce, logic, gw, gb = loss_gradients(m, X, y, lam, backend, constraint)
    opt.step(m, gw, gb)
    return ce, logic

