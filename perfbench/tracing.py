"""Spans around the public entry points of each logicloss module.

Tracing works from outside the package: `Tracer.install()` replaces
module attributes with timing wrappers and `uninstall()` puts the
originals back.  A function is replaced wherever a logicloss module binds that same
object, so `from x import f` copies in other modules are traced too.  The
library's code is not changed, which is why the traced run's results must
equal the untraced run's bit for bit.

A span is `[name, start, end, parent, excluded]`: `parent` indexes the
enclosing span in the same process's list (-1 for a root) and `excluded`
is time the tracer spent on its own counting inside the span, which every
duration leaves out.  Spans are kept in memory and written out at the end.
Sweep points run in forked pool workers; each worker writes its point's
spans to a part file, which the parent merges.
"""

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

# (defining module, attribute, span name)
ENTRY_POINTS = (
    ("logicloss.data", "gen_synthetic", "data.gen"),
    ("logicloss.constraints", "synthetic_tables", "constraints.build"),
    ("logicloss.constraints", "builtin_tables", "constraints.build"),
    ("logicloss.constraints", "csim_formula", "constraints.build"),
    ("logicloss.constraints", "group_formula", "constraints.build"),
    ("logicloss.constraints", "lipschitz_formula", "constraints.build"),
    ("logicloss.formula", "push_negations", "formula.push_negations"),
    ("logicloss.network", "train_step", "network.train_step"),
    ("logicloss.network", "loss_gradients", "network.loss_gradients"),
    ("logicloss.network", "forward_batch", "network.forward_batch"),
    ("logicloss.experiment", "run", "experiment.run"),
    ("logicloss.experiment", "lambda_sweep", "experiment.sweep"),
    ("logicloss.experiment", "prediction_accuracy", "experiment.eval"),
    ("logicloss.experiment", "constraint_accuracy", "experiment.eval"),
)

# Spans whose time is taken out of the enclosing network step for
# network.self_s.
_NOT_NETWORK_SELF = ("logics.compile", "logics.loss_eval", "autodiff.grad", "network.opt_step")
_NETWORK_STEP = "network.train_step"
_NETWORK_CALL = "network.loss_gradients"


def tape_size(root):
    """Number of distinct tape nodes reachable from `root` (0 for a float)."""
    parents = getattr(root, "parents", None)
    if parents is None:
        return 0
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.parts_dir = None
        self._patched = []
        self.missing = []

    # -- recording -----------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        spans = self.spans
        stack = self.stack
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0.0]
        stack.append(len(spans))
        spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def wrap(self, name, fn):
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return traced

    def _exclude(self, seconds):
        for i in self.stack:
            self.spans[i][4] += seconds

    # -- special entry points --------------------------------------------

    def _wrap_loss_function(self, real):
        call = self.call

        @functools.wraps(real)
        def loss_function(f, backend):
            fn = call("logics.compile", real, f, backend)

            def unit_loss(env):
                value = call("logics.loss_eval", fn, env)
                if not isinstance(value, (int, float)):
                    self.counts["logics.on_tape"] += 1
                return value

            return unit_loss

        return loss_function

    def _wrap_crisp_fn(self, real):
        wrap = self.wrap

        @functools.wraps(real)
        def crisp_fn(f):
            return wrap("formula.crisp", real(f))

        return crisp_fn

    def _wrap_grad(self, real):
        call = self.call

        @functools.wraps(real)
        def grad(root, wrt):
            result = call("autodiff.grad", real, root, wrt)
            t0 = time.perf_counter()
            self.counts["autodiff.nodes"] += tape_size(root)
            self._exclude(time.perf_counter() - t0)
            return result

        return grad

    def _wrap_sweep_point(self, real):
        """Record a sweep point in a pool worker and write its spans to a part file."""
        tracer = self

        @functools.wraps(real)
        def sweep_point(args):
            saved = tracer.spans, tracer.stack, tracer.counts
            tracer.spans, tracer.stack, tracer.counts = [], [], Counter()
            try:
                return tracer.call("experiment.sweep_point", real, args)
            finally:
                part = {"pid": os.getpid(), "spans": tracer.spans, "counts": tracer.counts}
                path = tracer.parts_dir / f"{os.getpid()}-{time.perf_counter_ns()}.json"
                path.write_text(json.dumps(part))
                tracer.spans, tracer.stack, tracer.counts = saved

        return sweep_point

    # -- installing ------------------------------------------------------

    def _patch(self, module_name, attr, make, skip_home=False):
        home = importlib.import_module(module_name)
        real = getattr(home, attr, None)
        if real is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = make(real)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("logicloss") or mod is None:
                continue
            if skip_home and mod is home:
                continue
            for name, value in list(vars(mod).items()):
                if value is real:
                    setattr(mod, name, wrapper)
                    self._patched.append((mod, name, real))

    def install(self, parts_dir):
        self.parts_dir = Path(parts_dir)
        self.parts_dir.mkdir(parents=True, exist_ok=True)
        for module_name, attr, span in ENTRY_POINTS:
            self._patch(module_name, attr, functools.partial(self.wrap, span))
        self._patch("logicloss.logics", "loss_function", self._wrap_loss_function)
        # crisp_fn recurses through its own module's global; wrap callers only
        self._patch("logicloss.formula", "crisp_fn", self._wrap_crisp_fn, skip_home=True)
        self._patch("logicloss.autodiff", "grad", self._wrap_grad)
        self._patch("logicloss.experiment", "_sweep_point", self._wrap_sweep_point)
        network = importlib.import_module("logicloss.network")
        step = network.Optimizer.step
        network.Optimizer.step = self.wrap("network.opt_step", step)
        self._patched.append((network.Optimizer, "step", step))

    def uninstall(self):
        for owner, name, real in reversed(self._patched):
            setattr(owner, name, real)
        self._patched.clear()

    def collect_parts(self):
        """Read and delete the part files that pool workers wrote."""
        parts = []
        for path in sorted(self.parts_dir.glob("*.json")):
            parts.append(json.loads(path.read_text()))
            path.unlink()
        self.parts_dir.rmdir()
        return parts


class Totals:
    """Time and calls per span name, summed over processes."""

    def __init__(self):
        self.seconds = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.network_self = 0.0
        self.point_seconds = []

    def add(self, spans, counts):
        self.counts.update(counts)
        # spans are stored in opening order, so a parent precedes its children
        step_of = [-1] * len(spans)  # enclosing network step
        inside_other = [False] * len(spans)  # under a _NOT_NETWORK_SELF span
        for i, (name, start, end, parent, excluded) in enumerate(spans):
            dur = end - start - excluded
            self.seconds[name] += dur
            self.calls[name] += 1
            up_step = step_of[parent] if parent >= 0 else -1
            up_other = inside_other[parent] if parent >= 0 else False
            if name == _NETWORK_STEP or (name == _NETWORK_CALL and up_step < 0):
                step_of[i] = i
                self.network_self += dur
            else:
                step_of[i] = up_step
            if name in _NOT_NETWORK_SELF:
                if up_step >= 0 and not up_other:
                    self.network_self -= dur
                inside_other[i] = True
            else:
                inside_other[i] = up_other
            if name == "experiment.sweep_point":
                self.point_seconds.append(dur)


def layer_metrics(totals, iterations, jobs):
    """Per-layer metrics, per iteration of the workload's loop."""
    s, c, n = totals.seconds, totals.calls, iterations
    units = c["logics.loss_eval"]
    steps = c[_NETWORK_CALL]
    sweep_wall = s["experiment.sweep"]
    return {
        "data.gen_s": s["data.gen"] / n,
        "constraints.build_s": s["constraints.build"] / n,
        "formula.push_negations_s": s["formula.push_negations"] / n,
        "logics.compile_calls": c["logics.compile"] / n,
        "logics.compile_s": s["logics.compile"] / n,
        "logics.loss_eval_s": s["logics.loss_eval"] / n,
        "logics.units": units / n,
        "logics.on_tape_frac": totals.counts["logics.on_tape"] / units if units else 0.0,
        "autodiff.grad_s": s["autodiff.grad"] / n,
        "autodiff.grad_calls": c["autodiff.grad"] / n,
        "autodiff.nodes_per_step": totals.counts["autodiff.nodes"] / steps if steps else 0.0,
        "network.train_step_s": s[_NETWORK_STEP] / n,
        "network.opt_step_s": s["network.opt_step"] / n,
        "network.forward_batch_s": s["network.forward_batch"] / n,
        "network.self_s": totals.network_self / n,
        "formula.crisp_s": s["formula.crisp"] / n,
        "formula.crisp_calls": c["formula.crisp"] / n,
        "experiment.eval_s": s["experiment.eval"] / n,
        "experiment.sweep_busy_frac": (
            sum(totals.point_seconds) / (jobs * sweep_wall) if sweep_wall else 0.0
        ),
        "experiment.sweep_point_s_max": max(totals.point_seconds, default=0.0),
    }
