"""Training benchmark for logicloss.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the library is imported from ./src.  With
--trace 0 the workload runs as a closed loop for --seconds and the last
line of standard output is a JSON object with the end-to-end metrics.
With --trace 1 a fixed set of cases runs untraced for about half of
--seconds and then once more with spans around each module's entry
points, and the metrics are the per-layer split.  Both modes check every
output; a run that raises or fails its check is counted in `failed`,
never dropped.  Times are scaled to a reference machine speed (see
refclock.py).  The line before the result records the environment.
BENCHMARK.json at the repository root names the metrics and their units;
perfbench/README.md says what each one measures.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# Pinned before numpy loads (it is imported only with the library, below);
# forked sweep workers inherit both the variables and the loaded library.
# The matrices are tiny, and parallel BLAS would only oversubscribe the
# cores the sweep's pool uses.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"


def _import_library():
    if not (SRC / "logicloss" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no logicloss sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import refclock
    import tracing
    import workloads

    return workloads, tracing, refclock


def declared_metrics():
    """{name: unit} for the end-to-end and per-layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def git_sha():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed, trace, jobs):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": jobs,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


class Tally:
    """Attempts and failures of a run, with their error messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, out):
        self.attempted += out.attempted
        self.failed += out.failed
        self.errors.extend(out.errors)

    def fail(self, error):
        self.attempted += 1
        self.failed += 1
        self.errors.append(error)

    def mismatch(self, out, reference, what):
        """Count units whose result differs from the same case's reference run."""
        for i, (a, b) in enumerate(zip(out.results, reference.results)):
            if a is not None and b is not None and a != b:
                self.failed += 1
                self.errors.append(f"unit {i}: result differs from {what}")


def _peak_rss_mb(jobs):
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (jobs * child if jobs > 1 else 0)) / 1024.0


def median_timings(outcomes):
    """key -> (median samples, median seconds) over the outcomes that timed it."""
    seen = {}
    for out in outcomes:
        for key, timing in out.timings.items():
            seen.setdefault(key, []).append(timing)
    return {key: (statistics.median(s for s, _ in ts), statistics.median(t for _, t in ts))
            for key, ts in seen.items()}


def measure(w, seed, seconds, tally, clock):
    """Closed loop over the cases for `seconds`, at least once per case.

    Each iteration is preceded by one set-up measurement on its case, so
    set-up and body sample the same stretch of time.  Times are scaled to
    the reference speed by `clock`.
    """
    cases = w.make_cases(seed, w.cases)
    first = {}
    outcomes = []
    setup_times = []
    start = time.perf_counter()
    i = 0
    while i < len(cases) or time.perf_counter() - start < seconds:
        k = i % len(cases)
        try:
            setup_times.append(w.setup_seconds(cases[k], clock))
        except Exception as exc:
            tally.fail(f"set-up: {type(exc).__name__}: {exc}")
        out = w.iterate(cases[k], clock)
        tally.add(out)
        if k in first:
            tally.mismatch(out, first[k], "an earlier iteration on the same case")
        else:
            first[k] = out
        outcomes.append(out)
        i += 1
    accs = [o.accuracy for o in first.values() if o.accuracy is not None]
    # medians per case (or per matrix combination) resist stalls; summing
    # them weighs each by its typical time, as one pass over all would
    typical = median_timings(outcomes).values()
    wall_rate = sum(s for s, _ in typical) / sum(t for _, t in typical)
    print(f"perfbench: {w.name}: {i} iterations over {len(cases)} cases, "
          f"{wall_rate:.6g} samples per wall second, reference pass "
          f"{1000 * statistics.median(clock.reference_seconds):.4g} ms", file=sys.stderr)
    return {
        "setup_s": clock.scale * statistics.median(setup_times) if setup_times else 0.0,
        "samples_per_s": wall_rate / clock.scale,
        "p_acc": statistics.fmean(a[0] for a in accs) if accs else 0.0,
        "c_acc": statistics.fmean(a[1] for a in accs) if accs else 0.0,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": _peak_rss_mb(w.jobs),
    }


def measure_traced(w, seed, seconds, tally, clock, tracing, workloads, out_dir, env):
    """Per-layer metrics: cycles over a fixed set of cases untraced for
    about half of `seconds`, then one cycle traced.

    Counts come from the one traced cycle, so they repeat exactly; times
    are per iteration.  The untraced cycles give the per-combination
    medians and the base of the tracing overhead.
    """
    cases = w.make_cases(seed, w.trace_cases)
    plain = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds / 2:
        for case in cases:
            out = w.iterate(case, clock)
            tally.add(out)
            plain.append(out)
    tracer = tracing.Tracer()
    tracer.install(out_dir / f"parts-{os.getpid()}")
    try:
        traced = [tracer.call("bench.iteration", w.iterate, case, clock) for case in cases]
    finally:
        tracer.uninstall()
    if tracer.missing:
        print("perfbench: not traced (absent): " + ", ".join(tracer.missing), file=sys.stderr)
    n = len(cases)
    for i, out in enumerate(plain[n:]):
        tally.mismatch(out, plain[i % n], "an earlier iteration on the same case")
    for out, ref in zip(traced, plain):
        tally.add(out)
        tally.mismatch(out, ref, "the untraced run")
    parts = tracer.collect_parts()

    totals = tracing.Totals()
    totals.add(tracer.spans, tracer.counts)
    for part in parts:
        totals.add(part["spans"], part["counts"])
    metrics = tracing.layer_metrics(totals, n, w.jobs)
    typical = median_timings(plain)
    for combo in workloads.MATRIX_COMBOS:
        metrics[f"logics.batch_ms.{combo}"] = (
            1000.0 * clock.scale * typical[combo][1] if combo in typical else 0.0)
    untraced = sum(statistics.median(o.seconds for o in plain[k::n]) for k in range(n))
    metrics["trace.overhead_frac"] = sum(o.seconds for o in traced) / untraced - 1.0
    metrics["bench.ref_ms"] = 1000.0 * statistics.median(clock.reference_seconds)

    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"env": env, "processes": [{"pid": os.getpid(), "spans": tracer.spans,
                                         "counts": tracer.counts}] + parts}
    (out_dir / f"trace-{w.name}.json").write_text(json.dumps(record))
    return metrics


def run_workload(name, seed, seconds, trace, tiny=False, out_dir=OUT_DIR):
    """Run one workload; returns (environment, result object)."""
    workloads, tracing, refclock = _import_library()
    w = workloads.build(name, tiny)
    env = environment(name, seed, trace, w.jobs)
    tally = Tally()
    clock = refclock.Clock()
    if trace:
        values = measure_traced(w, seed, seconds, tally, clock, tracing, workloads,
                                Path(out_dir), env)
    else:
        values = measure(w, seed, seconds, tally, clock)
    end_to_end, per_layer = declared_metrics()
    units = per_layer if trace else end_to_end
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    for err in tally.errors[:20]:
        print(f"perfbench: {name}: {err}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    return env, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workloads = _import_library()[0]
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of: {', '.join(workloads.WORKLOADS)}")
    env, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"env": env}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
