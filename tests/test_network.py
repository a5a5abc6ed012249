import copy
import math
import pickle
import re

import numpy as np
import pytest

from logicloss.autodiff import grad
from logicloss.constraints import csim_formula, group_formula, lipschitz_formula, synthetic_tables
from logicloss.formula import Cmp, Const, Env, Output
from logicloss.logics import BACKEND_NAMES, loss_function, make_backend
from logicloss import network
from logicloss.network import (
    CompiledConstraint,
    Model,
    Optimizer,
    TrainingDiverged,
    compile_constraint,
    forward_batch,
    init_model,
    loss_gradients,
    train_step,
)
from oracles import (
    dense_forward_batch,
    dense_loss_gradients,
    margin_backend,
    rowmajor_forward_batch,
    rowmajor_loss_gradients,
    tape_loss,
    track_branch_margins,
)


def test_param_counts():
    assert init_model([2, 8, 3], seed=0).n_params == 51
    assert init_model([4, 8, 10], seed=0).n_params == 130


def test_init_deterministic_and_seed_sensitive():
    a = init_model([3, 5, 4], seed=7)
    b = init_model([3, 5, 4], seed=7)
    c = init_model([3, 5, 4], seed=8)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))
    assert all(np.all(b == 0.0) for b in a.biases)


def test_init_scaled_by_fan_in():
    m = init_model([100, 4, 2], seed=3)
    assert np.abs(m.weights[0]).max() <= 1.0 / math.sqrt(100)
    assert np.abs(m.weights[1]).max() <= 1.0 / math.sqrt(4)


def test_init_validation():
    with pytest.raises(ValueError):
        init_model([5], seed=0)
    with pytest.raises(ValueError):
        init_model([5, 0, 2], seed=0)


def test_forward_zero_weights_uniform():
    m = init_model([4, 6, 5], seed=0)
    for w in m.weights:
        w[:] = 0.0
    p = forward_batch(m, np.array([1.0, -2.0, 0.5, 3.0])[None, :])[0]
    assert np.allclose(p, 0.2, atol=1e-15)


def test_forward_simplex():
    m = init_model([4, 8, 10], seed=1)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(32, 4)) * 5.0
    P = forward_batch(m, X)
    assert np.all(P >= 0.0)
    assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-9


def test_forward_dimension_mismatch():
    m = init_model([4, 8, 3], seed=1)
    with pytest.raises(ValueError, match="expects"):
        forward_batch(m, np.array([1.0, 2.0])[None, :])
    with pytest.raises(ValueError, match="expects"):
        forward_batch(m, np.zeros((5, 3)))


def test_hidden_unit_permutation_symmetry():
    # Swapping two hidden units together with their outgoing weight
    # columns is a reparameterization; the function is unchanged.
    m = init_model([3, 6, 4], seed=9)
    x = np.array([0.3, -1.2, 0.8])
    before = forward_batch(m, x[None, :])[0]
    for arr in (m.weights[0], m.biases[0]):
        arr[[1, 4]] = arr[[4, 1]]
    m.weights[1][:, [1, 4]] = m.weights[1][:, [4, 1]]
    assert np.allclose(forward_batch(m, x[None, :])[0], before, atol=1e-15)


def _fd_full_gradient(value, m, h=1e-5):
    grads = []
    for arr in m.weights + m.biases:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + h
            up = value()
            arr[idx] = keep - h
            down = value()
            arr[idx] = keep
            g[idx] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def _clear_of_kinks(m, X, fn):
    # Weight-space finite differences move each pre-activation and each
    # probability by O(h), so demand margins well beyond that.  Margins of
    # exactly 0 are saturation plateaus (satisfied comparisons pinned at
    # truth 1 tie inside every t-norm on a healthy CSim batch) and are
    # locally constant provided the probability level itself is clear:
    # no p_i within reach of the 1/n threshold or of another p_j, which
    # is where every comparison kink in the composite lives.  A relu-dead
    # sample fails both clearances (bit-exact uniform output).
    z1 = X @ m.weights[0].T + m.biases[0]
    if np.abs(z1).min() <= 1e-3:
        return False
    probs = forward_batch(m, X)
    n = probs.shape[1]
    for row in probs:
        if np.abs(row - 1.0 / n).min() <= 1e-4:
            return False
        if np.abs(row[:, None] - row[None, :])[~np.eye(n, dtype=bool)].min() <= 1e-4:
            return False
    # one pass over the batch records each row's margins; `fn` is compiled
    # under `margin_backend`
    with track_branch_margins() as margins:
        fn(Env(outputs=probs.T))
    return not any(np.any((0.0 < m_) & (m_ <= 1e-4)) for m_ in margins)


def _nondegenerate_batch(m, fn, n):
    for seed in range(2, 40):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, m.layer_sizes[0])) * 2.0
        if _clear_of_kinks(m, X, fn):
            return X, rng.integers(0, m.layer_sizes[-1], size=n)
    raise AssertionError("no batch clear of branch boundaries found")


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_full_gradient_matches_finite_differences(name):
    backend = make_backend(name)
    constraint = csim_formula(synthetic_tables(3).triples, 3)
    m = init_model([2, 4, 3], seed=11)
    X, y = _nondegenerate_batch(m, loss_function(constraint, margin_backend(backend)), n=4)
    lam = 0.7

    ce, logic, gw, gb = loss_gradients(m, X, y, lam, backend, constraint)

    def value():
        c, l, _, _ = loss_gradients(m, X, y, lam, backend, constraint)
        return c + lam * l

    fd = _fd_full_gradient(value, m)
    analytic = gw + gb
    num = math.sqrt(sum(float(((a - f) ** 2).sum()) for a, f in zip(analytic, fd)))
    den = math.sqrt(sum(float((f**2).sum()) for f in fd))
    assert num / den <= 1e-3, name


def test_tape_triangulates_vectorized_backprop():
    backend = make_backend("rc")
    constraint = csim_formula(synthetic_tables(3).triples, 3)
    m = init_model([2, 4, 3], seed=13)
    x = np.array([0.6, -0.9])
    y = 2
    lam = 0.7

    _, _, gw, gb = loss_gradients(m, x[None, :], np.array([y]), lam, backend, constraint)

    loss, wnodes, bnodes = tape_loss(m, x, y, lam, backend, constraint)
    flat = [nd for layer in wnodes for row in layer for nd in row]
    flat += [nd for layer in bnodes for nd in layer]
    g = grad(loss, flat)

    k = 0
    for layer, gwk in zip(wnodes, gw):
        for i, row in enumerate(layer):
            for j, nd in enumerate(row):
                assert g[nd] == pytest.approx(gwk[i, j], rel=1e-9, abs=1e-12)
                k += 1
    for layer, gbk in zip(bnodes, gb):
        for i, nd in enumerate(layer):
            assert g[nd] == pytest.approx(gbk[i], rel=1e-9, abs=1e-12)
            k += 1
    assert k == m.n_params


def _dense_terms():
    # each has a nonzero loss on the batches below (lipschitz from 7 rows on)
    tables = synthetic_tables(10)
    return [
        compile_constraint(csim_formula(tables.triples, 10), make_backend("rc")),
        compile_constraint(group_formula(tables.groups, eps=0.05), make_backend("godel")),
        compile_constraint(lipschitz_formula(0.001), make_backend("dl2")),
    ]


@pytest.mark.parametrize("tie", [False, True])
@pytest.mark.parametrize("n", [1, 7, 256])
def test_dense_path_equals_the_unfused_oracle_bit_for_bit(n, tie):
    m = init_model([12, 16, 9, 10], seed=31)
    if tie:
        # a hidden unit whose pre-activation is exactly 0 on every row, in
        # each hidden layer; relu'(0) := 1 passes the gradient through it
        for W, b, unit in zip(m.weights, m.biases, (3, 5)):
            W[unit] = 0.0
            b[unit] = 0.0
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 12)) * 2.0
    y = rng.integers(0, 10, size=n)
    inputs = [X, y, *m.weights, *m.biases]
    before = [a.copy() for a in inputs]

    assert np.array_equal(forward_batch(m, X), dense_forward_batch(m, X))
    for lam, term in [(0.0, None)] + [(0.8, t) for t in _dense_terms()]:
        ce, logic, gw, gb = loss_gradients(m, X, y, lam, None, term)
        ref_ce, ref_logic, ref_gw, ref_gb = dense_loss_gradients(m, X, y, lam, None, term)
        assert ce == ref_ce and logic == ref_logic
        assert all(np.array_equal(g, r) for g, r in zip(gw + gb, ref_gw + ref_gb))
        if tie:
            assert np.any(gw[0][3] != 0.0) and np.any(gw[1][5] != 0.0)
    assert all(np.array_equal(a, b) for a, b in zip(inputs, before))


_ROWMAJOR_TABLES = synthetic_tables(10)
_ROWMAJOR_FORMULAS = {
    "csim": csim_formula(_ROWMAJOR_TABLES.triples, 10),
    "group": group_formula(_ROWMAJOR_TABLES.groups, eps=0.05),
    "lipschitz": lipschitz_formula(0.001),
}


@pytest.mark.parametrize("n", [1, 7, 256])
@pytest.mark.parametrize("constraint", list(_ROWMAJOR_FORMULAS))
@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_dense_path_agrees_with_the_row_major_formulas(backend_name, constraint, n):
    """The (entries, samples) layout reduces in another order than the
    (samples, entries) formulas, so the two agree to rounding: gradients
    within 4e-15 of the largest entry, and losses within 1e-15 relative,
    or absolute below 1.  The losses are made from probabilities, so their
    rounding is on that scale; dl2's csim loss at batch 7 is a 1.5e-5
    remainder of such terms, and its 3.4e-20 difference is 2.3e-15 of it."""
    m = init_model([12, 16, 10], seed=37)
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 12)) * 2.0
    y = rng.integers(0, 10, size=n)
    backend, f = make_backend(backend_name), _ROWMAJOR_FORMULAS[constraint]
    ce, logic, gw, gb = loss_gradients(m, X, y, 0.8, backend, f)
    ref_ce, ref_logic, ref_gw, ref_gb = rowmajor_loss_gradients(m, X, y, 0.8, backend, f)
    assert abs(ce - ref_ce) <= 1e-15 * max(abs(ref_ce), 1.0)
    assert abs(logic - ref_logic) <= 1e-15 * max(abs(ref_logic), 1.0)
    got, want = (np.concatenate([a.ravel() for a in g]) for g in (gw + gb, ref_gw + ref_gb))
    assert np.abs(got - want).max() <= 4e-15 * np.abs(want).max()
    assert np.allclose(forward_batch(m, X), rowmajor_forward_batch(m, X), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("n", [1, 8])
def test_one_sample_leaf_is_the_probability_matrix_that_forward_batch_returns(monkeypatch, n):
    """A one-sample constraint's tape leaf is the (classes, n) probability
    matrix itself, not a copy, and `forward_batch` returns those same
    probabilities as (n, classes), a view."""
    m = init_model([5, 6, 10], seed=41)
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 5))
    y = rng.integers(0, 10, size=n)
    term = _dense_terms()[0]
    softmaxed, leaves = [], []

    def keep(z, at=None):
        softmaxed.append(z)
        return real_softmax(z, at)

    def spy(env):
        leaves.append((env.outputs.value, env.outputs.value.copy()))
        return term.fn(env)

    real_softmax = network._softmax
    monkeypatch.setattr(network, "_softmax", keep)
    loss_gradients(m, X, y, 0.8, None, CompiledConstraint(spy, False))
    (probs,), ((leaf, scored),) = softmaxed, leaves
    assert leaf.shape == probs.shape == (10, n) and np.shares_memory(leaf, probs)
    got = forward_batch(m, X)
    assert got.shape == (n, 10) and got.base is not None
    assert np.array_equal(got, scored.T)


def test_lambda_zero_update_equals_pure_ce():
    backend = make_backend("rc")
    constraint = csim_formula(synthetic_tables(4).triples, 4)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(8, 3))
    y = rng.integers(0, 4, size=8)

    a = init_model([3, 5, 4], seed=21)
    b = copy.deepcopy(a)
    train_step(a, (X, y), 0.0, backend, constraint, Optimizer(lr=0.1))
    train_step(b, (X, y), 0.0, None, None, Optimizer(lr=0.1))
    for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
        assert np.array_equal(wa, wb)


def test_satisfied_dl2_constraint_is_inert():
    # out[0] >= 0 holds crisply on the simplex, so the DL2 loss and its
    # gradient vanish and the update matches plain cross-entropy.
    backend = make_backend("dl2")
    constraint = Cmp(">=", Output(0), Const(0.0))
    rng = np.random.default_rng(4)
    X = rng.normal(size=(6, 3))
    y = rng.integers(0, 3, size=6)

    a = init_model([3, 5, 3], seed=22)
    b = copy.deepcopy(a)
    ce, logic, logic_grad_zero = train_step(a, (X, y), 5.0, backend, constraint, Optimizer(lr=0.1))
    assert train_step(b, (X, y), 0.0, None, None, Optimizer(lr=0.1)) == (ce, 0.0, True)
    assert logic == 0.0 and logic_grad_zero
    for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
        assert np.array_equal(wa, wb)


def test_fuzzy_all_true_gives_zero_logic_loss():
    backend = make_backend("rc")
    constraint = Cmp("<=", Const(0.0), Output(0))
    m = init_model([3, 5, 3], seed=23)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(6, 3))
    y = rng.integers(0, 3, size=6)
    _, logic, _ = train_step(m, (X, y), 1.0, backend, constraint, Optimizer(lr=0.1))
    assert logic == 0.0


def test_loss_gradients_flags_a_zero_logic_gradient():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(8, 3))
    y = rng.integers(0, 4, size=8)
    m = init_model([3, 5, 4], seed=24)
    csim = csim_formula(synthetic_tables(4).triples, 4)
    assert loss_gradients(m, X, y).logic_grad_zero
    g = loss_gradients(m, X, y, 0.5, make_backend("rc"), csim)
    assert len(g) == 4 and not g.logic_grad_zero
    satisfied = Cmp(">=", Output(0), Const(0.0))
    assert loss_gradients(m, X, y, 0.5, make_backend("dl2"), satisfied).logic_grad_zero


def test_copies_of_a_model_and_its_optimizer_train_apart_from_them():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(8, 3))
    y = rng.integers(0, 4, size=8)
    m, opt = init_model([3, 5, 4], seed=25), Optimizer(lr=0.1, momentum=0.9)
    train_step(m, (X, y), 0.0, None, None, opt)
    m2, opt2 = copy.deepcopy(m), copy.deepcopy(opt)
    frozen = copy.deepcopy(m)
    train_step(m2, (X, y), 0.0, None, None, opt2)
    assert all(np.array_equal(a, b) for a, b in zip(m.weights + m.biases, frozen.weights + frozen.biases))
    train_step(m, (X, y), 0.0, None, None, opt)
    assert all(np.array_equal(a, b) for a, b in zip(m.weights + m.biases, m2.weights + m2.biases))
    assert np.array_equal(opt._vel, opt2._vel) and not np.shares_memory(opt._vel, opt2._vel)

    # each way of making a model lays its arrays over a vector of its own,
    # so a step on it moves its weights and biases and no one else's
    made = {
        "deepcopy": copy.deepcopy(m),
        "pickle": pickle.loads(pickle.dumps(m)),
        "arrays": Model(m.layer_sizes, [w.copy() for w in m.weights], [b.copy() for b in m.biases]),
    }
    source = [a.copy() for a in m.weights + m.biases]
    for how, c in made.items():
        arrays = c.weights + c.biases
        assert all(np.shares_memory(a, c.params) for a in arrays), how
        assert not any(np.shares_memory(a, m.params) for a in arrays), how
        assert sum(a.size for a in arrays) == c.params.size == m.n_params, how
        before = [a.copy() for a in arrays]
        train_step(c, (X, y), 0.0, None, None, copy.deepcopy(opt))
        assert not any(np.array_equal(a, b) for a, b in zip(arrays, before)), how
        assert all(np.array_equal(a, b) for a, b in zip(m.weights + m.biases, source)), how


def test_a_step_reads_plain_gradient_arrays_as_their_packed_vector():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(8, 3))
    y = rng.integers(0, 4, size=8)
    a, b = init_model([3, 5, 4], seed=26), init_model([3, 5, 4], seed=26)
    opt_a, opt_b = Optimizer(lr=0.1, momentum=0.9), Optimizer(lr=0.1, momentum=0.9)
    for _ in range(3):
        g = loss_gradients(a, X, y)
        assert all(np.shares_memory(v, g.vector) for v in g[2] + g[3])
        opt_a.step(a, g.vector)
        _, _, (W0, W1), (b0, b1) = loss_gradients(b, X, y)
        opt_b.step(b, np.concatenate([W0.ravel(), b0, W1.ravel(), b1]))
    assert np.array_equal(a.params, b.params)

    # a vector of another shape moves neither the parameters nor the velocity
    params, vel = a.params.copy(), opt_a._vel.copy()
    fresh = Optimizer(lr=0.1, momentum=0.9)
    for bad in (g.vector[:-1], np.append(g.vector, 0.0), g.vector[None, :]):
        for opt in (opt_a, fresh):
            with pytest.raises(ValueError, match=rf"shape {re.escape(str(bad.shape))}.*\({a.n_params},\)"):
                opt.step(a, bad)
    assert np.array_equal(a.params, params) and np.array_equal(opt_a._vel, vel)
    assert fresh._vel is None


def test_loss_gradients_rejects_a_nan_or_negative_lambda():
    m = init_model([3, 4], seed=0)
    X, y = np.zeros((2, 3)), np.zeros(2, dtype=int)
    for lam in (math.nan, -0.5, math.inf):
        with pytest.raises(ValueError, match="non-negative"):
            loss_gradients(m, X, y, lam, make_backend("rc"), Cmp("<=", Const(0.0), Output(0)))


def test_loss_gradients_rejects_a_formula_without_a_backend():
    m = init_model([3, 4], seed=0)
    with pytest.raises(ValueError, match="backend"):
        loss_gradients(m, np.zeros((2, 3)), np.zeros(2, dtype=int), 0.5, None, Cmp("<=", Const(0.0), Output(0)))


def test_loss_gradients_rejects_a_batch_of_the_wrong_width():
    m = init_model([3, 4], seed=0)
    with pytest.raises(ValueError, match=r"\(2, 5\).*\(n, 3\)"):
        loss_gradients(m, np.zeros((2, 5)), np.zeros(2, dtype=int))


def test_loss_gradients_rejects_labels_of_another_length():
    m = init_model([3, 4], seed=0)
    with pytest.raises(ValueError, match=r"\(3,\).*\(2, 3\)"):
        loss_gradients(m, np.zeros((2, 3)), np.zeros(3, dtype=int))


@pytest.mark.parametrize("label", [-1, 4])
def test_loss_gradients_rejects_a_label_out_of_range(label):
    m = init_model([3, 4], seed=0)
    with pytest.raises(ValueError, match=rf"label {label} .*n_classes=4"):
        loss_gradients(m, np.zeros((2, 3)), np.array([label, 0]))


@pytest.mark.parametrize(
    "labels,named",
    [([1.7, 0.2], "1.7"), ([1.0, 2.5], "2.5"), ([np.nan, 0.0], "nan"), ([0.0, np.inf], "inf")],
)
def test_loss_gradients_rejects_a_label_with_a_fractional_part(labels, named):
    m = init_model([3, 4], seed=0)
    with pytest.raises(ValueError, match=rf"^label {named} is not an integer"):
        loss_gradients(m, np.zeros((2, 3)), np.array(labels))


def test_integral_float_labels_train_as_their_integers():
    m = init_model([3, 4], seed=0)
    X = np.random.default_rng(2).normal(size=(3, 3))
    got = loss_gradients(m, X, np.array([3.0, 0.0, 1.0]))
    want = loss_gradients(m, X, np.array([3, 0, 1]))
    assert got[0] == want[0] and np.array_equal(got.vector, want.vector)


def test_a_model_rejects_arrays_that_do_not_fit_its_layer_sizes():
    W, b = np.zeros((4, 3)), np.zeros(4)
    with pytest.raises(ValueError, match=r"layer 0 .*\(3, 4\).*need \(4, 3\)"):
        Model((3, 4), [np.zeros((3, 4))], [b])
    with pytest.raises(ValueError, match=r"layer 0 .*biases \(3,\).*\(4,\)"):
        Model((3, 4), [W], [np.zeros(3)])
    with pytest.raises(ValueError, match="need 2 of each"):
        Model((3, 4, 2), [W], [b])
    with pytest.raises(ValueError, match="1 weight arrays and 0 bias arrays"):
        Model((3, 4), [W], [])


def test_train_step_validation():
    m = init_model([2, 3], seed=0)
    opt = Optimizer(lr=0.1)
    with pytest.raises(ValueError, match="empty"):
        train_step(m, (np.zeros((0, 2)), np.zeros(0, dtype=int)), 0.0, None, None, opt)
    with pytest.raises(ValueError, match="non-negative"):
        train_step(m, (np.zeros((1, 2)), np.zeros(1, dtype=int)), -0.5, None, None, opt)


def test_optimizer_validation():
    with pytest.raises(ValueError, match="learning rate"):
        Optimizer(lr=0.0)
    with pytest.raises(ValueError, match="momentum"):
        Optimizer(lr=0.1, momentum=1.0)


def test_momentum_accumulates_velocity():
    m = Model((1, 1), [np.array([[0.0]])], [np.array([0.0])])
    opt = Optimizer(lr=0.1, momentum=0.5)
    g = np.array([1.0, 0.0])  # W0, b0
    opt.step(m, g)
    assert m.weights[0][0, 0] == pytest.approx(-0.1)
    opt.step(m, g)
    # velocity: 1.0 then 1.5
    assert m.weights[0][0, 0] == pytest.approx(-0.1 - 0.15)


def test_momentum_zero_is_plain_sgd():
    # at momentum 0 the velocity is the current gradient, nothing carried over
    rng = np.random.default_rng(11)
    W, b = rng.normal(size=(4, 3)), rng.normal(size=4)
    m = Model((3, 4), [W.copy()], [b.copy()])
    opt = Optimizer(lr=0.05)
    (gw1, gb1), (gw2, gb2) = [(rng.normal(size=(4, 3)), rng.normal(size=4)) for _ in range(2)]
    gw1[0, 0] = 0.0
    gb2[:] = 0.0
    opt.step(m, np.concatenate([gw1.ravel(), gb1]))
    opt.step(m, np.concatenate([gw2.ravel(), gb2]))
    assert np.array_equal(m.weights[0], W - 0.05 * gw1 - 0.05 * gw2)
    assert np.array_equal(m.biases[0], b - 0.05 * gb1 - 0.05 * gb2)


def test_ce_drops_on_separable_blobs():
    rng = np.random.default_rng(6)
    X0 = rng.normal(size=(20, 2)) * 0.3 + np.array([-2.0, 0.0])
    X1 = rng.normal(size=(20, 2)) * 0.3 + np.array([2.0, 0.0])
    X = np.vstack([X0, X1])
    y = np.array([0] * 20 + [1] * 20)
    m = init_model([2, 8, 2], seed=30)
    opt = Optimizer(lr=0.2)
    first = None
    for _ in range(50):
        ce, _, _ = train_step(m, (X, y), 0.0, None, None, opt)
        if first is None:
            first = ce
    assert ce <= 0.5 * first


def test_training_deterministic():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(16, 3))
    y = rng.integers(0, 3, size=16)
    backend = make_backend("gg")
    constraint = csim_formula(synthetic_tables(3).triples, 3)

    models = []
    for _ in range(2):
        m = init_model([3, 6, 3], seed=40)
        opt = Optimizer(lr=0.1, momentum=0.9)
        for _ in range(10):
            train_step(m, (X, y), 0.5, backend, constraint, opt)
        models.append(m)
    for wa, wb in zip(
        models[0].weights + models[0].biases, models[1].weights + models[1].biases
    ):
        assert np.array_equal(wa, wb)


def test_nan_aborts_with_diagnostics():
    m = init_model([2, 3], seed=0)
    m.weights[0][0, 0] = np.nan
    with pytest.raises(TrainingDiverged, match="ce="):
        loss_gradients(m, np.ones((2, 2)), np.array([0, 1]))

