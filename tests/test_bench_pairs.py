"""`tools/bench_pairs.summarize` on hand-made runs, without running perfbench."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(pair, side, ref_ms=None, **metrics):
    return {"pair": pair, "side": side, "metrics": metrics, "wall_samples_per_s": None, "ref_ms": ref_ms}


def _faulted(pair, side, minflt):
    return {**_run(pair, side), "minflt": minflt}


def test_a_tied_pair_is_won_by_neither_side():
    runs = [_run(0, "parent", rate=5.0), _run(0, "change", rate=5.0),
            _run(1, "parent", rate=5.0), _run(1, "change", rate=6.0)]
    row = bench_pairs.summarize(runs, {"rate": "higher"})["rate"]
    assert (row["change_won"], row["pairs"]) == (1, 2)
    assert row["parent"] == [5.0, 5.0, 5.0]


def test_an_unfinished_pair_is_skipped():
    runs = [_run(0, "parent", rate=5.0), _run(0, "change", rate=6.0), _run(1, "parent", rate=1.0)]
    row = bench_pairs.summarize(runs, {"rate": "higher"})["rate"]
    assert (row["change_won"], row["pairs"]) == (1, 1)
    assert row["parent"] == [5.0, 5.0, 5.0]


def test_a_lower_metric_counts_a_drop_as_a_win():
    runs = [_run(0, "parent", ref_ms=2.0, setup_s=3.0), _run(0, "change", ref_ms=1.0, setup_s=4.0)]
    out = bench_pairs.summarize(runs, {"setup_s": "lower", "ref_ms": "lower"})
    assert out["ref_ms"]["change_won"] == 1
    assert out["setup_s"]["change_won"] == 0


def test_a_metric_missing_on_one_side_is_left_out():
    runs = [_run(0, "parent", rate=1.0, extra=2.0), _run(0, "change", rate=2.0),
            _run(1, "parent", rate=1.0, extra=2.0), _run(1, "change", rate=2.0, extra=3.0)]
    out = bench_pairs.summarize(runs, {"rate": "higher", "extra": "higher", "gone": "higher"})
    assert "gone" not in out
    # only pair 1 reports `extra` on both sides
    assert out["extra"] == {"parent": [2.0, 2.0, 2.0], "change": [3.0, 3.0, 3.0], "change_won": 1, "pairs": 1}
    assert out["rate"]["pairs"] == 2
    only_parent = [_run(0, "parent", extra=2.0), _run(0, "change")]
    assert bench_pairs.summarize(only_parent, {"extra": "higher"}) == {}


def test_quartiles_of_one_value():
    assert bench_pairs._quartiles([3.5]) == (3.5, 3.5, 3.5)


def test_fewer_page_faults_win():
    runs = [_faulted(0, "parent", 400), _faulted(0, "change", 40),
            _faulted(1, "parent", 40), _faulted(1, "change", 400)]
    row = bench_pairs.summarize(runs, bench_pairs._RAW)["minflt"]
    assert (row["change_won"], row["pairs"]) == (1, 2)
    assert bench_pairs._RAW["minflt"] == "lower"


def test_a_run_recorded_without_page_faults_still_summarizes():
    # runs from before `minflt` was recorded have no such key
    runs = [_run(0, "parent", ref_ms=2.0), _run(0, "change", ref_ms=1.0),
            _faulted(1, "parent", 50), _faulted(1, "change", 60)]
    out = bench_pairs.summarize(runs, bench_pairs._RAW)
    assert out["minflt"] == {"parent": [50, 50, 50], "change": [60, 60, 60], "change_won": 0, "pairs": 1}
    assert out["ref_ms"]["pairs"] == 1 and out["ref_ms"]["change_won"] == 1
