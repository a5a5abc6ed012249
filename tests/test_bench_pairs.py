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
