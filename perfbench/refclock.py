"""Timings scaled to a fixed machine speed.

The benchmark runs on a few cores of a shared host, whose speed drifts by
a factor of up to two as neighbours come and go, within seconds and from
one minute to the next.  Raw wall times then spread more between runs of
the same code than the changes the benchmark has to resolve.  So a fixed
reference loop, which uses no logicloss code, runs right before every
timed call, and a run's times are scaled by `REF_SECONDS` over the median
time of those reference passes:

    seconds = wall * REF_SECONDS / median(reference passes of the run)

A timing then reads as the time the call would take on a machine that runs
one reference pass in `REF_SECONDS`.  One factor serves the whole run: the
speed changes faster than a long call lasts, so a pass next to one call
says little about that call, while the median over a run's passes follows
the drift between runs.  The reference mixes what the library spends its
time on: small Python objects linked into a graph and swept in reverse,
float math, and numpy calls on small arrays.  Its code must not change
between the commits a comparison runs on; a change to it or to
`REF_SECONDS` rescales every timing.
"""

import math
import statistics
import time

import numpy as np

# One reference pass takes about 5 ms on a quiet 2-vCPU Xeon VM, and up to
# twice that when the host is busy.
REF_SECONDS = 0.005

_W = np.linspace(-1.0, 1.0, 20 * 64).reshape(20, 64)
_X = np.linspace(0.0, 1.0, 32 * 20).reshape(32, 20)


class _Node:
    __slots__ = ("value", "parents", "grad")

    def __init__(self, value, parents):
        self.value = value
        self.parents = parents
        self.grad = 0.0


def reference_pass():
    """A fixed amount of interpreter and numpy work; returns a checksum."""
    acc = 0.0
    for _ in range(40):
        nodes = [_Node(0.01 * i, ()) for i in range(20)]
        for i in range(80):
            a, b = nodes[i % len(nodes)], nodes[(7 * i) % len(nodes)]
            nodes.append(_Node(max(a.value, b.value) * 0.5 + math.exp(-a.value), (a, b)))
        for node in reversed(nodes):
            node.grad += 1.0
            for p in node.parents:
                p.grad += 0.5 * node.grad
        acc += nodes[-1].value + nodes[0].grad
    for _ in range(20):
        h = np.tanh(_X @ _W)
        acc += float(h.sum(axis=0).max())
    return acc


class Clock:
    """Times calls, each after one reference pass."""

    def __init__(self):
        self.reference_seconds = []  # wall time of every reference pass
        self.wall = 0.0  # wall seconds of the last call, also when it raised
        reference_pass()  # warm up

    def reference(self):
        t0 = time.perf_counter()
        reference_pass()
        self.reference_seconds.append(time.perf_counter() - t0)

    @property
    def scale(self):
        """Factor from the run's wall seconds to seconds at the reference speed."""
        return REF_SECONDS / statistics.median(self.reference_seconds)

    def call(self, fn, *args, **kwargs):
        self.reference()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.wall = time.perf_counter() - t0
