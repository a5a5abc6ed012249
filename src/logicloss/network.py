"""Feed-forward softmax classifier trained by minibatch SGD.

The training loss is ``ce + lam * logic`` where ``ce`` is mean
cross-entropy and ``logic`` is the mean compiled constraint loss over the
batch (over consecutive sample pairs for constraints that relate two
samples).  The network computes in the (entries, samples) layout that the
tape and the crisp evaluator take: a layer is ``W @ A`` with its bias
added down the sample axis, the first reading the row-major batch ``X``
as the view ``X.T``, so a batch's logits and probabilities are one
(classes, n) matrix.  Backprop takes ``delta @ A.T`` for the weight
gradients (for the first layer ``delta @ X``, a plain product) and
``W.T @ delta`` for the deltas.  The API stays row-major: a batch is
(n, dims), `forward_batch` returns (n, classes), a transposed view, and
each gradient has its parameter's shape.  Cross-entropy gradients are
computed in closed form, from one softmax pass: one shift, exp and column
sum give the probabilities, the cross-entropy (the shifted logit at each
target minus the log column sum) and its gradient (the probabilities, less
1 at each target, over the batch size).  The forward pass keeps each
hidden layer's ``z >= 0`` mask for backprop in place of its
pre-activation, and adds biases, applies ReLU and masks deltas in place.
The constraint term is differentiated on the tape once per batch: the
probability matrix is the leaf of a one-sample constraint, itself and not
a copy, and its even and its odd columns are the two leaves of a paired
one, so the tape's size does not grow with the batch, the number of
classes or the model, and a leaf's adjoint, the probability-space
gradient, is chained through the softmax Jacobian in one array
expression.  Conjuncts of one shape (the csim triples, groups of one size)
share one copy of their template on the tape, evaluated over a (batch,
conjuncts) array gathered from the leaf, and the conjunction is one
reduction node over that axis, so the tape does not grow with the number
of conjuncts either.  The parameters are one flat vector (`Model`), a
batch's gradient is one new vector laid out the same way
(`Gradients.vector`, with per-layer views of it), and `Optimizer.step`
takes only that vector and steps it whole; a vector of another shape is
refused before anything moves.  The logical weight must be non-negative
and finite, and a label must be an integer in [0, n_classes).
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from logicloss.autodiff import Node, grad, var
from logicloss.data import integer_labels
from logicloss.formula import batch_env, sample_rows, uses_paired_samples
from logicloss.logics import loss_function


class TrainingDiverged(RuntimeError):
    """Raised when a training loss stops being finite."""


class Model:
    """The weights and biases of a feed-forward classifier, held in one
    contiguous float64 vector, `params`, laid out layer by layer (W0, b0,
    W1, b1, ...).  `weights[k]` (fan_out, fan_in) and `biases[k]` are views
    into it, built once; update them in place, since rebinding a list item
    detaches it from the vector.  `Model(layer_sizes, weights, biases)`
    checks the arrays it is given against `layer_sizes` and packs them."""

    def __init__(self, layer_sizes, weights, biases):
        sizes = tuple(layer_sizes)
        if not len(weights) == len(biases) == len(sizes) - 1:
            raise ValueError(
                f"{len(weights)} weight arrays and {len(biases)} bias arrays, "
                f"layer sizes {sizes} need {len(sizes) - 1} of each"
            )
        for k, (W, b) in enumerate(zip(weights, biases)):
            want = (sizes[k + 1], sizes[k])
            if np.shape(W) != want or np.shape(b) != want[:1]:
                raise ValueError(
                    f"layer {k} has weights {np.shape(W)} and biases {np.shape(b)}, "
                    f"layer sizes {sizes} need {want} and {want[:1]}"
                )
        arrays = [a for pair in zip(weights, biases) for a in pair]
        shapes = [np.shape(a) for a in arrays]
        bounds = [0, *itertools.accumulate(map(math.prod, shapes))]
        layout = [(slice(a, b), shape) for a, b, shape in zip(bounds, bounds[1:], shapes)]
        self._layout = layout[0::2], layout[1::2]  # weights, biases
        self.layer_sizes = layer_sizes
        self.params = np.concatenate([np.ravel(a) for a in arrays]).astype(float, copy=False)
        self.weights, self.biases = self._views(self.params)

    def __reduce__(self):
        # pickling and deepcopy rebuild the model, and its views, from copies of its arrays
        return Model, (self.layer_sizes, self.weights, self.biases)

    @property
    def n_params(self):
        return self.params.size

    def _views(self, vec):
        """([W0, W1, ...], [b0, b1, ...]): views of a vector laid out as
        `params`."""
        return tuple([vec[at].reshape(shape) for at, shape in part] for part in self._layout)


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


def _forward(m, X, masks=None):
    """Forward pass of the row-major batch `X` (n, dims) in the (entries,
    samples) layout: acts[k] is the input to layer k, (fan_in, n), and
    acts[-1] the (classes, n) logits; acts[0] is X.T, a view.  With a list
    `masks`, each hidden layer's `z >= 0` is appended to it for backprop.

    Each layer's output is one new array, W @ A, written in place: the bias
    add down the sample axis, then ReLU after its mask is taken.
    """
    acts = [X.T]
    last = len(m.weights) - 1
    for k, (W, b) in enumerate(zip(m.weights, m.biases)):
        z = W @ acts[-1]
        z += b[:, None]
        if k < last:
            if masks is not None:
                masks.append(z >= 0.0)
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    return acts


def _softmax(z, at=None):
    """Overwrite logits `z`, (classes, n), with the softmax of each column.

    With `at`, each column's target as a flat index into `z`, also return
    each column's log-softmax at its target, from the same shift, exp and
    column sum.
    """
    z -= z.max(axis=0)
    log_p = None if at is None else z.take(at)
    np.exp(z, out=z)
    s = z.sum(axis=0)
    z /= s
    if at is not None:
        log_p -= np.log(s)
    return log_p


def _check_batch(m, X):
    if X.ndim != 2 or X.shape[1] != m.layer_sizes[0]:
        raise ValueError(
            f"batch has shape {X.shape}, model expects (n, {m.layer_sizes[0]})"
        )


def forward_batch(m, X):
    """Class probabilities of the row-major batch `X`, as (n, classes): the
    transpose of the (classes, n) matrix the network computes, a view."""
    X = np.asarray(X, dtype=float)
    _check_batch(m, X)
    probs = _forward(m, X)[-1]
    _softmax(probs)
    return probs.T


def _logic_grads(fn, paired, probs, X, lam):
    """Mean constraint loss and its logit-space gradient, (classes, n), over
    a batch given as its (classes, n) probabilities and its (dims, n)
    inputs; the gradient is None when the loss does not reach the tape.

    One tape pass covers the whole batch: the columns pair up as
    `formula.sample_rows` says, and each column selection's probabilities
    are one leaf, whose adjoint is their whole probability-space gradient.
    A one-sample constraint's leaf is `probs` itself; a paired one's are its
    even and its odd columns, views.  The chain through softmax is
    dz = p * (g - g.p) for every column at once.
    """
    k, cols = sample_rows(probs.shape[1], paired)
    if k == 0:
        return 0.0, None
    leaves = [var(probs[:, c]) for c in cols]
    lv = fn(batch_env(leaves, [X[:, c] for c in cols]))
    losses = lv.value if isinstance(lv, Node) else lv
    total = float(np.sum(np.broadcast_to(losses, (k,))))
    if not isinstance(lv, Node):
        return total / k, None
    g = grad(lv, leaves)
    parts = [leaf.value * (g[leaf] - (g[leaf] * leaf.value).sum(axis=0)) for leaf in leaves]
    if paired:
        d_logits = np.zeros_like(probs)
        for c, part in zip(cols, parts):
            d_logits[:, c] = part
    else:
        d_logits = parts[0]
    d_logits *= lam / k
    return total / k, d_logits


@dataclass(frozen=True)
class CompiledConstraint:
    """A constraint's loss under one backend, compiled once for many batches."""

    fn: Callable
    paired: bool


def compile_constraint(constraint, backend):
    return CompiledConstraint(loss_function(constraint, backend), uses_paired_samples(constraint))


class Gradients(tuple):
    """The tuple (ce, logic, grads_w, grads_b) of one batch, with
    `vector`, the one gradient vector laid out as `Model.params` that
    `grads_w` and `grads_b` are views of, and `logic_grad_zero`: whether
    the logic term's gradient was exactly zero (or not computed, at
    lambda 0), so that these are the gradients of lambda 0 whatever lambda
    was."""

    def __new__(cls, ce, logic, grads_w, grads_b, vector, logic_grad_zero):
        self = super().__new__(cls, (ce, logic, grads_w, grads_b))
        self.vector = vector
        self.logic_grad_zero = logic_grad_zero
        return self


def loss_gradients(m, X, y, lam=0.0, backend=None, constraint=None):
    """Mean losses and parameter gradients of ce + lam*logic on a batch, as
    `Gradients`.

    `constraint` is a formula, whose loss `backend` compiles on the first
    call with an equal formula and then keeps, or a `CompiledConstraint`,
    which a training run builds once and reuses for every batch (`backend`
    is then not read).  The gradients are views of
    one new vector laid out as `m.params`, `Gradients.vector`.
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"logical weight must be non-negative and finite, got {lam}")
    X = np.asarray(X, dtype=float)
    y = integer_labels(y)
    _check_batch(m, X)
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if y.shape != (n,):
        raise ValueError(f"labels have shape {y.shape}, batch has shape {X.shape}")
    n_classes = m.layer_sizes[-1]
    if y.min() < 0 or y.max() >= n_classes:
        bad = y[(y < 0) | (y >= n_classes)][0]
        raise ValueError(f"label {bad} is out of range for n_classes={n_classes}")
    masks = []
    acts = _forward(m, X, masks)
    probs = acts.pop()
    # the flat index of each column's target in the (classes, n) matrix
    at = y * n + np.arange(n)
    # np.mean's bits, without its overhead
    ce = float(-_softmax(probs, at).sum() / n)

    logic = 0.0
    d_logic = None
    if lam > 0.0 and constraint is not None:
        if not isinstance(constraint, CompiledConstraint):
            if backend is None:
                raise ValueError("backend=None: a formula constraint needs a backend to compile under")
            constraint = compile_constraint(constraint, backend)
        logic, d_logic = _logic_grads(constraint.fn, constraint.paired, probs, acts[0], lam)

    if not np.isfinite(ce) or not np.isfinite(logic):
        raise TrainingDiverged(f"non-finite loss: ce={ce}, logic={logic}")
    # then the step is the lambda-0 step bit for bit, since the CE gradient
    # below holds no -0.0; and it is zero at every smaller lambda too, since
    # `d_logic` is the unscaled gradient times lam / k and rounding is monotone
    logic_grad_zero = d_logic is None or not d_logic.any()

    # probs, read for the last time above, becomes (probs - onehot(y)) / n
    d_logits = probs
    d_logits.reshape(-1)[at] -= 1.0
    d_logits /= n
    if not logic_grad_zero:
        d_logits += d_logic

    vector = np.empty(m.n_params)
    grads_w, grads_b = m._views(vector)
    delta = d_logits
    for k in reversed(range(len(m.weights))):
        # acts[0].T is X itself, so layer 0's product is a plain GEMM
        np.matmul(delta, acts[k].T, out=grads_w[k])
        np.add.reduce(delta, axis=1, out=grads_b[k])
        if k > 0:
            # relu'(0) := 1, matching the tape's tie convention in vmax
            delta = m.weights[k].T @ delta
            delta *= masks[k - 1]
    return Gradients(ce, logic, grads_w, grads_b, vector, logic_grad_zero)


@dataclass
class Optimizer:
    """SGD with optional momentum, over the whole parameter vector at once."""

    lr: float
    momentum: float = 0.0
    _vel: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")

    def step(self, m, g):
        """Move `m.params` by `g`, a gradient vector laid out as
        `m.params` (`Gradients.vector`)."""
        if np.shape(g) != m.params.shape:
            raise ValueError(f"gradient has shape {np.shape(g)}, the model's parameters {m.params.shape}")
        if self._vel is None:
            self._vel = np.zeros_like(m.params)
        v = self._vel
        v *= self.momentum
        v += g
        m.params -= self.lr * v


def train_step(m, batch, lam, backend, constraint, opt, only_if_logic_grad_zero=False):
    """One SGD update on (X, y); returns (ce_loss, logical_loss,
    logic_grad_zero), the last as `Gradients.logic_grad_zero`.  With
    `only_if_logic_grad_zero`, the update is made only when that flag is
    true, that is when the step is the lambda-0 step.  The model and `opt`
    are left as they were when no update is made, and when this raises."""
    X, y = batch
    g = loss_gradients(m, X, y, lam, backend, constraint)
    if g.logic_grad_zero or not only_if_logic_grad_zero:
        opt.step(m, g.vector)
    return g[0], g[1], g.logic_grad_zero
