"""Reference derivative paths that the tests check the library against.

`finite_diff` is central differences on plain floats; its own checks are
in test_autodiff.py.  `forward_nodes` and `tape_loss` run one sample
through the whole network on the scalar tape, one node per weight, so the
closed-form batched backprop in `network.loss_gradients` has a second,
independent derivative path.  Both are far too slow to train with.
"""

from typing import Callable, Sequence

from logicloss.autodiff import var, vexp, vln, vmax
from logicloss.formula import Env
from logicloss.logics import loss_function


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


def tape_loss(m, x, y, lam=0.0, backend=None, constraint=None):
    """Scalar tape of ce + lam*logic for one sample."""
    probs, wnodes, bnodes = forward_nodes(m, x)
    loss = 0.0 - vln(probs[int(y)])
    if lam > 0.0 and constraint is not None:
        fn = loss_function(constraint, backend)
        loss = loss + lam * fn(Env(outputs=probs, inputs=[float(v) for v in x]))
    return loss, wnodes, bnodes

