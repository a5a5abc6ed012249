"""Reverse-mode gradients against central finite differences, for every
backend applied to every built-in constraint shape.

Each sample point is scored once, as one batch: column 0 holds the point,
and columns 2i+1 and 2i+2 hold it with entry i moved up and down by h.
Column 0's gradient is the analytic one; the other columns' losses give
the central differences.

Each loss is compiled under `oracles.margin_backend`, which records the
branch margins of every connective and comparison as the point is scored.
Sampling policy: a branch margin of the point in (0, 1e-3] means the
evaluation passed within finite-difference reach of a kink or
singularity, so the point is redrawn.  A margin of exactly 0 is kept: with
continuous random inputs a bit-exact tie only arises on a saturation
plateau (a satisfied comparison pinned at truth 1, a dead t-norm branch
pinned at 0), where the composite is locally constant and both gradient
estimates agree at zero.
"""

import math
import random

import numpy as np
import pytest

from logicloss.autodiff import Node, grad, val, var
from logicloss.constraints import (
    csim_formula,
    group_formula,
    lipschitz_formula,
    synthetic_tables,
)
from logicloss.formula import Env
from logicloss.logics import BACKEND_NAMES, loss_function, make_backend

from oracles import margin_backend, track_branch_margins

N_CLASSES = 10
N_POINTS = 1000
KINK_DISTANCE = 1e-3
H = 1e-5

_TABLES = synthetic_tables(N_CLASSES)


def _constraint_suite(backend):
    csim = csim_formula(_TABLES.triples, N_CLASSES)
    group = group_formula(_TABLES.groups, eps=0.05)
    lip = lipschitz_formula(1.8)
    return [("csim", csim, False), ("group", group, False), ("lipschitz", lip, True)]


def _prob_vector(rng, n):
    us = [0.02 + rng.random() for _ in range(n)]
    s = sum(us)
    return [u / s for u in us]


def fd_columns(point, h=H):
    """The point and its central-difference neighbours, one per column."""
    n = len(point)
    cols = np.tile(np.asarray(point, dtype=float)[:, None], (1, 2 * n + 1))
    for i in range(n):
        cols[i, 2 * i + 1] += h
        cols[i, 2 * i + 2] -= h
    return cols


def fd_of_columns(values, h=H):
    """Central differences from the losses of `fd_columns`."""
    values = np.asarray(values)
    return (values[1::2] - values[2::2]) / (2.0 * h)


def near_a_kink(margins, row=0, distance=KINK_DISTANCE):
    """Whether one row of a batch records a branch margin in (0, distance];
    a scalar margin holds for every row."""
    for m in margins:
        m = m if np.ndim(m) == 0 else m[row]
        if np.any((0.0 < m) & (m <= distance)):
            return True
    return False


def _check_pair(fn, point, paired, inputs, inputs2):
    cols = fd_columns(point)
    n_cols = cols.shape[1]
    half = len(point) // 2 if paired else len(point)
    leaves = [var(cols[:half])] + ([var(cols[half:])] if paired else [])

    def matrix(values):
        return np.tile(np.asarray(values, dtype=float)[:, None], (1, n_cols)) if len(values) else ()

    env = Env(outputs=leaves[0], inputs=matrix(inputs))
    if paired:
        env = Env(outputs=leaves[0], outputs2=leaves[1], inputs=matrix(inputs), inputs2=matrix(inputs2))
    with track_branch_margins() as margins:
        loss = fn(env)
    if near_a_kink(margins):
        return None
    if isinstance(loss, Node):
        g = grad(loss, leaves)
        analytic = np.concatenate([np.broadcast_to(g[m], m.value.shape)[:, 0] for m in leaves])
    else:
        analytic = np.zeros(len(point))
    fd = fd_of_columns(np.broadcast_to(val(loss), (n_cols,)))
    num = math.sqrt(float(np.sum((analytic - fd) ** 2)))
    den = math.sqrt(float(np.sum(fd * fd)))
    if den < 1e-8:
        assert num < 1e-6, (analytic, fd)
    else:
        assert num / den <= 1e-4, (analytic, fd)
    return True


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_gradient_matches_finite_differences(name):
    backend = margin_backend(make_backend(name))
    rng = random.Random(1000 + BACKEND_NAMES.index(name))
    for label, formula, paired in _constraint_suite(backend):
        fn = loss_function(formula, backend)
        accepted = 0
        attempts = 0
        while accepted < N_POINTS:
            attempts += 1
            assert attempts < 40 * N_POINTS, f"{name}/{label}: rejection storm"
            point = _prob_vector(rng, N_CLASSES)
            inputs = inputs2 = ()
            if paired:
                point = point + _prob_vector(rng, N_CLASSES)
                inputs = [rng.random() for _ in range(4)]
                inputs2 = [rng.random() for _ in range(4)]
            if _check_pair(fn, point, paired, inputs, inputs2):
                accepted += 1
