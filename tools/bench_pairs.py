"""Run perfbench in alternating pairs of two source trees and compare them.

    python tools/bench_pairs.py PARENT_SRC CHANGE_SRC --workload W --pairs N \\
        --seconds S --out BENCH.json [--checkout DIR]

PARENT_SRC and CHANGE_SRC are two `src` directories (each holding
`logicloss/`).  Both sides run `perfbench/run.py --trace 0` of this
repository from one checkout path, DIR (a fresh temporary directory by
default): DIR holds a copy of `perfbench/` and `BENCHMARK.json`, and its
`src` is a symlink switched from one tree to the other before each run, so
the two sides differ in nothing but the tree the link names.  Pair i runs
both sides on seed 7 + i, the parent first in even pairs and the change
first in odd ones.  No bytecode is written, so neither tree is changed.

For every end-to-end metric, for the raw (unscaled) wall rate and the
reference pass that perfbench prints, and for the minor page faults of the
whole run (`minflt`, read from `getrusage` around the child), the summary
gives each side's median and quartiles and the number of pairs the change
won; a pair recorded without one of the raw values is left out of its
row.  Each run is added to the JSON file --out as it ends, in place of any
runs of the workload that the file held before, and the summary of the
runs when all have.
"""

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEED = 7  # pair i runs on seed SEED + i

# perfbench's stderr line: "... N samples per wall second, reference pass M ms"
_WALL = re.compile(r"([0-9.eE+-]+) samples per wall second, reference pass ([0-9.eE+-]+) ms")
# not scaled to the reference speed; higher wall rates, lower passes and
# fewer page faults are better
_RAW = {"wall_samples_per_s": "higher", "ref_ms": "lower", "minflt": "lower"}


def _tree(path):
    src = Path(path).resolve()
    if not (src / "logicloss" / "__init__.py").is_file():
        raise SystemExit(f"bench_pairs: no logicloss sources under {src}")
    return src


def _checkout(where):
    """A directory with perfbench/ and BENCHMARK.json copied from this
    repository, for a src link to be switched in."""
    path = Path(where) if where else Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    path.mkdir(parents=True, exist_ok=True)
    if (path / "src").exists() and not (path / "src").is_symlink():
        raise SystemExit(f"bench_pairs: {path / 'src'} exists and is not a symlink")
    shutil.rmtree(path / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", path / "BENCHMARK.json")
    return path


def _link(checkout, src):
    link = checkout / "src"
    if link.is_symlink():
        link.unlink()
    link.symlink_to(src, target_is_directory=True)


def run_once(checkout, workload, seed, seconds):
    """One perfbench run in `checkout`: its result object, with the raw
    wall rate and reference pass read from its stderr and the run's minor
    page faults."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: perfbench failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wall = _WALL.search(proc.stderr)
    return {
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "wall_samples_per_s": float(wall.group(1)) if wall else None,
        "ref_ms": float(wall.group(2)) if wall else None,
        "minflt": faults,
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def _value(run, name):
    return run.get(name) if name in _RAW else run["metrics"].get(name)


def summarize(runs, better):
    """{metric: {side: [median, q1, q3], "change_won": wins, "pairs": n}}
    over `runs` of one workload; `better` maps a metric to its direction.
    Each metric is summarized over the pairs whose two sides both report
    it; a pair whose two values are equal is won by neither side."""
    pairs = {}
    for r in runs:
        pairs.setdefault(r["pair"], {})[r["side"]] = r
    whole = [p for p in pairs.values() if set(p) == set(SIDES)]
    out = {}
    for name, direction in better.items():
        both = [p for p in whole if all(_value(p[s], name) is not None for s in SIDES)]
        if not both:
            continue
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(1 for p in both if sign * (_value(p["change"], name) - _value(p["parent"], name)) > 0.0)
        out[name] = {**{s: list(_quartiles([_value(p[s], name) for p in both])) for s in SIDES},
                     "change_won": wins, "pairs": len(both)}
    return out


def _print(workload, summary):
    print(f"{workload}: median [q1, q3] per side; pairs the change won")
    for name, row in summary.items():
        p, c = row["parent"], row["change"]
        print(f"  {name:20s} parent {p[0]:.6g} [{p[1]:.6g}, {p[2]:.6g}]  "
              f"change {c[0]:.6g} [{c[1]:.6g}, {c[2]:.6g}]  won {row['change_won']}/{row['pairs']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True, help="JSON file the runs and summary are added to")
    parser.add_argument("--checkout", help="directory to run from (default: a new temporary one)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    trees = dict(zip(SIDES, (_tree(args.parent_src), _tree(args.change_src))))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]} | _RAW
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    record.setdefault("what", "tools/bench_pairs.py: perfbench/run.py --trace 0 in alternating parent/change "
                              "pairs from one checkout path, src a symlink switched between the two trees")
    record["runs"] = [r for r in record.get("runs", []) if r["workload"] != args.workload]
    record.get("summary", {}).pop(args.workload, None)

    checkout = _checkout(args.checkout)
    try:
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                _link(checkout, trees[side])
                run = {"pair": i, "workload": args.workload, "side": side, "seed": SEED + i,
                       **run_once(checkout, args.workload, SEED + i, args.seconds)}
                record["runs"].append(run)
                print(f"pair {i} {side}: samples_per_s {run['metrics'].get('samples_per_s', 0):.6g}, "
                      f"setup_s {run['metrics'].get('setup_s', 0):.4g}, minflt {run['minflt']}, failed {run['failed']}", file=sys.stderr)
                out.write_text(json.dumps(record, indent=1) + "\n")
    finally:
        if args.checkout:
            (checkout / "src").unlink(missing_ok=True)
        else:
            shutil.rmtree(checkout)

    summary = summarize([r for r in record["runs"] if r["workload"] == args.workload], better)
    record.setdefault("summary", {})[args.workload] = summary
    out.write_text(json.dumps(record, indent=1) + "\n")
    _print(args.workload, summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
