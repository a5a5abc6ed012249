"""Smoke test of the benchmark at a tiny size.

    python -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train-csim-rc", "train-ce", "sweep-lipschitz-dl2", "logic-matrix")


def _tiny(name, trace, out_dir):
    _, result = bench.run_workload(name, seed=3, seconds=0.01, trace=trace, tiny=True, out_dir=out_dir)
    return result


def test_declared_workloads_and_combos_match_the_code():
    workloads = bench._import_library()[0]
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS == workloads.WORKLOADS
    _, per_layer = bench.declared_metrics()
    combos = {m[len("logics.batch_ms."):] for m in per_layer if m.startswith("logics.batch_ms.")}
    assert combos == set(workloads.MATRIX_COMBOS) and len(combos) == 39


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    end_to_end, per_layer = bench.declared_metrics()
    for trace, declared in ((0, end_to_end), (1, per_layer)):
        result = _tiny(name, trace, tmp_path)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        # in trace mode this includes the traced run matching the untraced one
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {m: v["unit"] for m, v in result["metrics"].items()} == declared
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    spans = json.loads((tmp_path / f"trace-{name}.json").read_text())["processes"][0]["spans"]
    assert spans and all(len(s) == 5 and s[1] <= s[2] for s in spans)


def test_train_ce_bypasses_the_logic_layer(tmp_path):
    metrics = _tiny("train-ce", 1, tmp_path)["metrics"]
    assert metrics["logics.units"]["value"] == 0
    assert metrics["autodiff.grad_calls"]["value"] == 0


def test_clock_scales_by_the_median_reference_pass():
    refclock = bench._import_library()[2]
    clock = refclock.Clock()
    assert clock.call(sum, (1, 2)) == 3
    with pytest.raises(ZeroDivisionError):
        clock.call(lambda: 1 / 0)
    assert clock.wall >= 0.0
    clock.reference_seconds = [0.004, 0.020, 0.010]
    assert clock.scale == pytest.approx(refclock.REF_SECONDS / 0.010)


def test_a_differing_result_counts_as_failed():
    workloads = bench._import_library()[0]
    tally = bench.Tally()
    a = workloads.Outcome(attempted=2, results=[(1.0,), (2.0,)])
    b = workloads.Outcome(attempted=2, results=[(1.0,), (2.5,)])
    tally.mismatch(a, b, "the reference")
    assert tally.failed == 1


@pytest.mark.parametrize("name", ["train-csim-rc", "sweep-lipschitz-dl2", "logic-matrix"])
def test_non_finite_loss_is_counted_as_failed(name, tmp_path, monkeypatch):
    from logicloss import network

    real = network.loss_function

    def nan_loss(f, backend):
        fn = real(f, backend)
        return lambda env: fn(env) * float("nan")

    monkeypatch.setattr(network, "loss_function", nan_loss)
    result = _tiny(name, 0, tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1 and result["attempted"] >= result["failed"]
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    args = ["--workload", "train-ce", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
