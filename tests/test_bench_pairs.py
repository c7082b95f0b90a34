"""The summary of ``tools/bench_pairs.py`` on canned result lines."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402


def canned(side, pair, filter_s, seed="default", correct=True):
    """One run as `bench_pairs.main` records it, from a result line of ``bench/run.py``."""
    line = json.dumps({"correct": correct, "attempted": 100 + pair, "failed": 0, "metrics": {
        "setup_s": {"value": 0.2, "unit": "s"}, "filter_s": {"value": filter_s, "unit": "s"}}})
    result = json.loads(line)
    return {"side": side, "workload": "sir100-varying", "seed": seed, "pair": pair, "trace": 0,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "calibration_scale": 2.0, "unscaled_iteration_s": filter_s / 2.0}


def test_summary_gives_each_sides_median_quartiles_and_the_changes_wins():
    parent = [0.025, 0.026, 0.024, 0.027]
    change = [0.021, 0.027, 0.020, 0.022]
    runs = [canned(side, pair, value)
            for pair, (p, c) in enumerate(zip(parent, change), start=1)
            for side, value in (("parent", p), ("change", c))]
    runs.append(canned("parent", 5, 0.001))  # a pair without its change run does not count
    runs.append(canned("change", 1, 0.030, seed=9001, correct=False))
    runs.append(canned("parent", 1, 0.025, seed=9001))
    out = bench_pairs.summary(runs)
    assert list(out) == ["sir100-varying, seed 9001", "sir100-varying, seed default"]
    row = out["sir100-varying, seed default"]
    assert row["pairs"] == 4
    assert row["correct"] == {"parent": True, "change": True}
    assert row["attempted"] == {"parent": 410, "change": 410}
    f = row["filter_s"]
    assert f["parent"] == parent and f["change"] == change
    assert f["parent_median"] == 0.0255 and f["parent_quartiles"] == [0.0248, 0.0262]
    assert f["change_median"] == 0.0215 and f["change_quartiles"] == [0.0208, 0.0232]
    assert f["change_lower_in_pairs"] == "3/4" and f["median_change"] == "-15.7%"
    assert row["setup_s"]["change_lower_in_pairs"] == "0/4"
    assert row["unscaled_iteration_s"]["parent_median"] == 0.0128
    held_out = out["sir100-varying, seed 9001"]
    assert held_out["correct"] == {"parent": True, "change": False}
    assert held_out["filter_s"]["change_lower_in_pairs"] == "0/1"
