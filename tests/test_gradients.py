"""Reverse-mode gradients against central finite differences, for every
backend applied to every built-in constraint shape.

Sampling policy: a recorded branch margin in (0, 1e-3] means the evaluation
passed within finite-difference reach of a kink or singularity, so the point
is redrawn.  A margin of exactly 0 is kept: with continuous random inputs a
bit-exact tie only arises on a saturation plateau (a satisfied comparison
pinned at truth 1, a dead t-norm branch pinned at 0), where the composite
is locally constant and both gradient estimates agree at zero.
"""

import math
import random

import pytest

from logicloss.autodiff import grad, track_branch_margins, var
from logicloss.constraints import (
    csim_formula,
    group_formula,
    lipschitz_formula,
    synthetic_tables,
)
from logicloss.formula import Env, push_negations
from logicloss.logics import BACKEND_NAMES, loss_function, make_backend
from oracles import finite_diff

N_CLASSES = 10
N_POINTS = 1000
KINK_DISTANCE = 1e-3

_TABLES = synthetic_tables(N_CLASSES)


def _constraint_suite(backend):
    csim = csim_formula(_TABLES.triples, N_CLASSES)
    group = group_formula(_TABLES.groups, eps=0.05)
    lip = lipschitz_formula(1.8)
    if backend.impl is None:
        csim = push_negations(csim, rewrite_implication=True)
    return [("csim", csim, False), ("group", group, False), ("lipschitz", lip, True)]


def _prob_vector(rng, n):
    us = [0.02 + rng.random() for _ in range(n)]
    s = sum(us)
    return [u / s for u in us]


def _check_pair(fn, point, paired, inputs, inputs2):
    half = len(point) // 2 if paired else len(point)

    def env_of(values):
        if paired:
            return Env(
                outputs=values[:half],
                outputs2=values[half:],
                inputs=inputs,
                inputs2=inputs2,
            )
        return Env(outputs=values, inputs=inputs)

    nodes = [var(v) for v in point]
    with track_branch_margins() as margins:
        loss = fn(env_of(nodes))
    if any(0.0 < m <= KINK_DISTANCE for m in margins):
        return None
    if isinstance(loss, float):
        analytic = [0.0] * len(point)
    else:
        g = grad(loss, nodes)
        analytic = [g[n] for n in nodes]
    fd = finite_diff(lambda vals: float(fn(env_of(list(vals)))), point)
    num = math.sqrt(sum((a - b) ** 2 for a, b in zip(analytic, fd)))
    den = math.sqrt(sum(b * b for b in fd))
    if den < 1e-8:
        assert num < 1e-6, (analytic, fd)
    else:
        assert num / den <= 1e-4, (analytic, fd)
    return True


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_gradient_matches_finite_differences(name):
    backend = make_backend(name)
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
