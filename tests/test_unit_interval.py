"""Every fuzzy backend's operators stay in [0,1] without a runtime clamp.

The `logics` docstring states the invariant and the reasoning per operator:
each comparison maps finite values into [0,1], and each disjunction and
implication maps [0,1] into [0,1], in IEEE double arithmetic as written.
These tests check it at the backend's operators, at whole formulas on
probability batches, and by a spy on `_clip01`, which only the sigmoidal
reshaping (rc-s) may call.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicloss import constraints, data, experiment, logics, network
from logicloss.formula import Env, ParseContext, parse
from logicloss.logics import BACKEND_NAMES, loss_function, make_backend

FUZZY = tuple(n for n in BACKEND_NAMES if n != "dl2")
OPS = ("<=", "<", ">=", ">", "==", "!=")

TINY = np.nextafter(0.0, 1.0)  # the smallest subnormal
# values at the rounding edges of [0,1]: the last 64 doubles below 1 that
# are multiples of 2^-53, and the neighbours of 0 and 1
EDGES = tuple(1.0 - k * 2.0**-53 for k in range(1, 65)) + (
    0.0,
    TINY,
    np.nextafter(TINY, 1.0),
    np.finfo(float).tiny,
    np.nextafter(1.0, 0.0),
    1.0,
)

unit = st.one_of(st.sampled_from(EDGES), st.floats(0.0, 1.0))
finite = st.one_of(
    st.sampled_from((0.0, -0.0, TINY, -TINY, np.finfo(float).tiny, -np.finfo(float).tiny, 1e300, -1e300)),
    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False, allow_subnormal=True),
)


def _in_unit(v):
    v = np.asarray(v)
    return bool(np.all((v >= 0.0) & (v <= 1.0)))


@pytest.mark.parametrize("name", FUZZY)
@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(st.tuples(finite, finite), min_size=1, max_size=6))
def test_comparisons_of_finite_values_lie_in_unit_interval(name, pairs):
    backend = make_backend(name)
    x, y = (np.array(col) for col in zip(*pairs))
    for op in OPS:
        assert _in_unit(backend.compare(op, x, y)), op
        for a, b in pairs:
            assert _in_unit(backend.compare(op, a, b)), (op, a, b)


@pytest.mark.parametrize("name", FUZZY)
@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(st.tuples(unit, unit), min_size=1, max_size=6))
def test_disjunction_and_implication_map_unit_interval_into_itself(name, pairs):
    backend = make_backend(name)
    x, y = (np.array(col) for col in zip(*pairs))
    assert _in_unit(backend.disj(x, y))
    assert _in_unit(backend.impl(x, y))


@pytest.mark.parametrize("name", FUZZY)
def test_disjunction_and_implication_on_every_pair_of_edge_values(name):
    backend = make_backend(name)
    x, y = (a.ravel() for a in np.meshgrid(EDGES, EDGES))
    assert _in_unit(backend.disj(x, y))
    assert _in_unit(backend.impl(x, y))


CTX4 = ParseContext(n_classes=4, consts={})


@pytest.mark.parametrize(
    "text",
    [
        "(out[0] >= out[1]) or (out[2] <= 0.1)",
        "(out[0] >= 0.3) -> (out[1] <= out[2])",
        "not ((out[0] == out[1]) -> (out[2] != out[3]))",
        "((out[0] <= out[1]) or (out[1] == out[2])) -> not (out[3] > 0.5)",
        "((out[2] != out[3]) or not (out[0] < out[1])) and ((out[1] >= 0.2) -> (out[0] == 0.25))",
    ],
)
@pytest.mark.parametrize("name", FUZZY)
def test_formula_truth_lies_in_unit_interval_on_probability_batches(name, text):
    rows = np.vstack(
        [
            np.random.default_rng(29).dirichlet(np.full(4, 0.3), size=64),
            np.eye(4),
            [[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25], [1.0 - 2.0**-53, 2.0**-53, 0.0, 0.0]],
        ]
    )
    loss = loss_function(parse(text, CTX4), make_backend(name))(Env(outputs=rows.T))
    assert _in_unit(loss)
    assert _in_unit(1.0 - loss)


@pytest.mark.parametrize("name", FUZZY)
def test_no_fuzzy_backend_but_rc_s_reaches_the_clamp(name, monkeypatch):
    calls = []
    clip = logics._clip01

    def spy(x):
        calls.append(x)
        return clip(x)

    monkeypatch.setattr(logics, "_clip01", spy)
    train, _ = data.gen_synthetic(0, 48, 1, 10, 8, 0.0)
    tables = constraints.synthetic_tables(10)
    model = network.init_model([8, 16, 10], 0)
    for constraint in experiment.CONSTRAINT_NAMES:
        cfg = experiment.ExperimentConfig(backend=name, constraint=constraint, n_classes=10, dims=8)
        f = experiment.build_constraint(cfg, tables)
        for backend in (make_backend(name), experiment._training_backend(cfg)):
            _, logic, _, _ = network.loss_gradients(model, train.features, train.labels, 1.0, backend, f)
            assert 0.0 <= logic <= 1.0
    # the sigmoidal reshaping clamps its own spill, so rc-s shows the spy works
    assert bool(calls) == (name == "rc-s")
