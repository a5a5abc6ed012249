"""A backend compiles each formula once.

`logics.loss_function` keeps the loss of every formula compiled under a
backend, keyed by the formula's value, so `network.loss_gradients` on a
formula compiles it on the first call only.  Every later call, and a call
with a `CompiledConstraint`, must give the first call's numbers bit for
bit; a backend made by `dataclasses.replace` must compile afresh; and the
kept losses must go with their backend.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from logicloss import logics
from logicloss.constraints import csim_formula, group_formula, lipschitz_formula, synthetic_tables
from logicloss.formula import Env
from logicloss.logics import BACKEND_NAMES, agg_product, loss_function, make_backend
from logicloss.network import compile_constraint, forward_batch, init_model, loss_gradients

_TABLES = synthetic_tables(10)


def _formulas():
    """Each constraint, built anew on every call."""
    return {
        "csim": csim_formula(_TABLES.triples, 10),
        "group": group_formula(_TABLES.groups),
        "lipschitz": lipschitz_formula(0.001),
    }


def _batch(n):
    rng = np.random.default_rng(n)
    return init_model([12, 16, 10], seed=5), rng.normal(size=(n, 12)) * 2.0, rng.integers(0, 10, size=n)


def _numbers(g):
    return g[0], g[1], g.vector.tobytes()


@pytest.mark.parametrize("n", [7, 256])
@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_a_repeated_formula_call_gives_the_first_calls_numbers(name, n):
    m, X, y = _batch(n)
    backend = make_backend(name)
    for constraint, f in _formulas().items():
        first = _numbers(loss_gradients(m, X, y, 0.8, backend, f))
        again = _numbers(loss_gradients(m, X, y, 0.8, backend, f))
        compiled = compile_constraint(f, make_backend(name))
        assert again == first, constraint
        assert _numbers(loss_gradients(m, X, y, 0.8, None, compiled)) == first, constraint


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_an_equal_formula_built_again_compiles_nothing(name, monkeypatch):
    backend = make_backend(name)
    before = _formulas()
    losses = {c: loss_function(f, backend) for c, f in before.items()}
    calls = []
    real = logics._compile
    monkeypatch.setattr(logics, "_compile", lambda f, b: calls.append(f) or real(f, b))
    for c, f in _formulas().items():
        assert f == before[c] and f is not before[c]
        assert loss_function(f, backend) is losses[c]
        assert compile_constraint(f, backend).fn is losses[c]
    assert calls == []


def test_a_replaced_backend_compiles_its_own_loss():
    godel = make_backend("godel")
    pinned = dataclasses.replace(godel, conj=agg_product)
    f = _formulas()["csim"]
    m, X, _ = _batch(16)
    env = Env(outputs=forward_batch(m, X).T, inputs=X.T)
    under_godel = loss_function(f, godel)(env)
    assert not np.array_equal(loss_function(f, pinned)(env), under_godel)
    assert np.array_equal(loss_function(f, godel)(env), under_godel)


def test_the_compiled_losses_go_with_their_backend():
    backend = make_backend("rc")
    m, X, y = _batch(7)
    for f in _formulas().values():
        loss_gradients(m, X, y, 0.8, backend, f)
    ref = weakref.ref(backend)
    del backend
    gc.collect()
    assert ref() is None
