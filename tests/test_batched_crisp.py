"""Batched crisp evaluation against the per-sample scalar loop.

`constraint_accuracy` scores a whole test set with one call of the crisp
evaluator: each output and input column is an array over the samples, and
a paired constraint reads the even rows against the odd rows.  The
reference is the loop it replaced, one `eval_crisp` call per sample (or
sample pair) on its numbers, each scored as a batch of one.  Both run the
same IEEE comparisons, sums and products in the same order, so the
booleans and the percentage must agree exactly.
"""

import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from logicloss import experiment
from logicloss.autodiff import Node, var
from logicloss.constraints import csim_formula, group_formula, lipschitz_formula, synthetic_tables
from logicloss.data import Dataset
from logicloss.experiment import constraint_accuracy
from logicloss.formula import (
    And,
    Cmp,
    Const,
    Env,
    Norm2Diff,
    Output,
    batch_of_one,
    crisp_fn,
    eval_crisp,
    expr_fn,
    uses_paired_samples,
)
from logicloss.network import init_model

N_CLASSES = 10
N_INPUTS = 4
EPS = 0.05

_TABLES = synthetic_tables(N_CLASSES)
_FORMULAS = {
    "csim": csim_formula(_TABLES.triples, N_CLASSES),
    "group": group_formula(_TABLES.groups, eps=EPS),
    "lipschitz": lipschitz_formula(1.8),
}


def _scalar_reference(f, probs, X):
    """One crisp call per sample (pair) on Python floats; (hits, percent)."""
    n = len(probs)
    paired = uses_paired_samples(f)
    units = [(i, i + 1) for i in range(0, n - 1, 2)] if paired else [(i,) for i in range(n)]
    hits = []
    for unit in units:
        outs = [[float(p) for p in probs[i]] for i in unit]
        ins = [[float(x) for x in X[i]] for i in unit]
        if paired:
            env = Env(outputs=outs[0], outputs2=outs[1], inputs=ins[0], inputs2=ins[1])
        else:
            env = Env(outputs=outs[0], inputs=ins[0])
        hit = eval_crisp(f, env)
        assert type(hit) is bool
        hits.append(hit)
    return hits, 100.0 * sum(hits) / len(hits)


def _batched_hits(f, probs, X):
    """The crisp evaluator called once on (entries, samples) matrices."""
    if uses_paired_samples(f):
        k = len(probs) // 2
        a, b = slice(0, 2 * k, 2), slice(1, 2 * k, 2)
        env = Env(outputs=probs[a].T, outputs2=probs[b].T, inputs=X[a].T, inputs2=X[b].T)
    else:
        k = len(probs)
        env = Env(outputs=probs.T, inputs=X.T)
    return np.broadcast_to(crisp_fn(f)(env), (k,))


def _accuracy_on(f, probs, X):
    """`constraint_accuracy` with the model's outputs replaced by `probs`."""
    d = Dataset(X, np.zeros(len(X), dtype=int), N_CLASSES)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "forward_batch", lambda m, features: probs)
        return constraint_accuracy(None, d, f)


# -- inputs: random rows plus a row on every comparison's boundary -------


def _normalised(us):
    s = sum(us)
    return [u / s for u in us]


_random_row = st.lists(st.floats(0.001, 1.0), min_size=N_CLASSES, max_size=N_CLASSES).map(
    _normalised
)
_one_hot = st.integers(0, N_CLASSES - 1).map(
    lambda i: [1.0 if j == i else 0.0 for j in range(N_CLASSES)]
)
_uniform = st.just([1.0 / N_CLASSES] * N_CLASSES)  # every p == 1/n


@st.composite
def _threshold_row(draw):
    row = draw(_random_row)
    row[draw(st.integers(0, N_CLASSES - 1))] = 1.0 / N_CLASSES  # p == 1/n, csim's premise
    return row


@st.composite
def _tied_row(draw):
    row = draw(_random_row)
    i, j = draw(st.integers(0, N_CLASSES - 1)), draw(st.integers(0, N_CLASSES - 1))
    row[j] = row[i]  # p_i == p_j, csim's conclusion on its boundary
    return row


@st.composite
def _group_edge_row(draw):
    """A group whose mass is exactly eps or exactly 1 - eps."""
    row = draw(_random_row)
    members = draw(st.sampled_from(_TABLES.groups)).members
    for i in members:
        row[i] = 0.0
    row[members[0]] = draw(st.sampled_from([EPS, 1.0 - EPS]))
    return row


_row = st.one_of(_random_row, _one_hot, _uniform, _threshold_row(), _tied_row(), _group_edge_row())
_input = st.lists(st.floats(-2.0, 2.0), min_size=N_INPUTS, max_size=N_INPUTS)


@st.composite
def _test_set(draw):
    """Rows and inputs; some odd rows copy the row before, so a pair's
    input distance (and maybe its output distance) is exactly 0."""
    n = draw(st.integers(1, 9))
    probs, X = [], []
    for i in range(n):
        probs.append(draw(_row))
        X.append(draw(_input))
        if i % 2 and draw(st.booleans()):
            X[i] = list(X[i - 1])
            if draw(st.booleans()):
                probs[i] = list(probs[i - 1])
    return np.array(probs), np.array(X)


@pytest.mark.parametrize("constraint", sorted(_FORMULAS))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=_test_set())
def test_batched_crisp_matches_per_sample_loop(constraint, data):
    probs, X = data
    f = _FORMULAS[constraint]
    if uses_paired_samples(f) and len(probs) < 2:
        with pytest.raises(ValueError, match="at least two samples"):
            _accuracy_on(f, probs, X)
        return
    hits, percent = _scalar_reference(f, probs, X)
    assert _batched_hits(f, probs, X).tolist() == hits
    got = _accuracy_on(f, probs, X)
    assert type(got) is float and got == percent


@pytest.mark.parametrize("constraint", sorted(_FORMULAS))
def test_every_boundary_row_in_one_set(constraint):
    """One odd-sized set holding each boundary at once, so the paired
    constraint sees zero distances and an unused tail."""
    rows = [[1.0 / N_CLASSES] * N_CLASSES]  # every p == 1/n
    rows.append([0.5, 0.5] + [0.0] * (N_CLASSES - 2))  # ties p_0 == p_1, p_2 == p_3
    for members in (g.members for g in _TABLES.groups):
        for mass in (EPS, 1.0 - EPS):
            row = [(1.0 - mass) / (N_CLASSES - len(members))] * N_CLASSES
            for i in members:
                row[i] = 0.0
            row[members[0]] = mass
            rows.append(row)
    rows += [list(rows[-1]), list(rows[-1])]  # a pair with equal outputs ...
    rows.append([1.0 / N_CLASSES] * N_CLASSES)  # the unused tail
    probs = np.array(rows)
    X = np.random.default_rng(7).uniform(-1.0, 1.0, size=(len(rows), N_INPUTS))
    X[-2] = X[-3]  # ... and equal inputs: norm2 == 0 on both sides
    assert len(probs) % 2 == 1
    f = _FORMULAS[constraint]
    hits, percent = _scalar_reference(f, probs, X)
    assert _batched_hits(f, probs, X).tolist() == hits
    assert _accuracy_on(f, probs, X) == percent


def test_norm2_is_the_same_number_on_both_paths():
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=(2, 50, N_CLASSES)) * rng.uniform(1e-9, 1e3, size=(2, 50, 1))
    norm = expr_fn(Norm2Diff("out", "out'"))
    batched = norm(Env(outputs=a.T, outputs2=b.T))
    # the same evaluator on tape leaves holding the matrices, as a loss sees them
    on_tape = norm(Env(outputs=var(a.T), outputs2=var(b.T)))
    assert isinstance(on_tape, Node) and on_tape.value.tolist() == batched.tolist()
    # one sample at a time, each a batch of one
    for i in range(len(a)):
        alone = norm(batch_of_one(Env(outputs=list(a[i]), outputs2=list(b[i]))))
        assert alone.shape == (1,) and alone[0] == batched[i]
    assert norm(batch_of_one(Env(outputs=[0.5, 0.25], outputs2=[0.5, 0.25]))) == 0.0
    assert norm(batch_of_one(Env(outputs=[3.0, 0.0], outputs2=[0.0, 4.0]))) == 5.0


@pytest.mark.parametrize("entries", [2, 9, 20])
@pytest.mark.parametrize("batch", [1, 256])
def test_norm2_on_matrices_is_the_float_fold_bit_for_bit(entries, batch):
    """One sum over the entry axis adds in entry order, as a left fold over
    the entries does, also on a single sample, where numpy would sum a
    column pairwise."""
    rng = np.random.default_rng(entries * 1000 + batch)
    norm = expr_fn(Norm2Diff("in", "in'"))
    for _ in range(20):
        a, b = rng.normal(size=(2, batch, entries)) * rng.uniform(1e-3, 1e3, size=(2, batch, 1))
        d = a.T - b.T
        want = np.sqrt(functools.reduce(operator.add, d * d)).tolist()
        # C-ordered matrices as training builds them, and transposed views
        for ins, ins2 in ((np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)), (a.T, b.T)):
            got = norm(Env(inputs=ins, inputs2=ins2))
            assert got.shape == (batch,) and got.tolist() == want
            assert norm(Env(inputs=var(ins), inputs2=var(ins2))).value.tolist() == want


def test_a_sample_independent_formula_counts_every_sample():
    probs = np.full((5, N_CLASSES), 1.0 / N_CLASSES)
    X = np.zeros((5, N_INPUTS))
    assert _accuracy_on(Cmp("<=", Const(1.0), Const(2.0)), probs, X) == 100.0
    assert _accuracy_on(Cmp(">", Const(1.0), Const(2.0)), probs, X) == 0.0
    # a constant conjunct in front of a per-sample one
    f = And(Cmp("<=", Const(1.0), Const(2.0)), Cmp(">=", Output(0), Const(0.1)))
    probs[1, 0] = 0.0
    assert _accuracy_on(f, probs, X) == 80.0


@pytest.mark.parametrize("constraint", sorted(_FORMULAS))
def test_constraint_accuracy_returns_a_python_float(constraint):
    rng = np.random.default_rng(2)
    d = Dataset(rng.normal(size=(7, N_INPUTS)), rng.integers(0, N_CLASSES, 7), N_CLASSES)
    m = init_model([N_INPUTS, 8, N_CLASSES], 4)
    c = constraint_accuracy(m, d, _FORMULAS[constraint])
    assert type(c) is float and 0.0 <= c <= 100.0 and math.isfinite(c)
