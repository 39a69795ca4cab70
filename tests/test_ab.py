"""The summary and the exit rule of `tools/ab.py`, on the runs of a
committed benchmark record. The A/B runs themselves are not part of the
suite."""

import argparse
import copy
import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

RECORD = json.loads((ROOT / "BENCH_30.json").read_text())
METRICS = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def test_summary_of_a_record_has_its_summary_fields():
    assert len(RECORD["runs"]) == 72
    got = ab.summarize(RECORD["runs"], METRICS)
    assert list(got) == list(RECORD["summary"])
    for workload, rows in RECORD["summary"].items():
        assert list(got[workload]) == list(rows)
        for name, want in rows.items():
            row = got[workload][name]
            assert row["parent_iqr"] == pytest.approx(want["parent_iqr"], rel=1e-12, abs=0)
            assert {k: v for k, v in row.items() if k != "parent_iqr"} == {
                k: v for k, v in want.items() if k != "parent_iqr"}, (workload, name)


def test_record_within_its_bounds_has_no_problem():
    assert ab.problems(RECORD["runs"], RECORD["summary"], METRICS) == []


def test_failed_run_and_metric_past_its_bound_are_problems():
    runs = copy.deepcopy(RECORD["runs"])
    runs[5]["failed"] = 1
    for run in runs:
        if run["workload"] == "planar-2d-n4000" and run["side"] == "change":
            run["metrics"]["job_s_p50"] *= 1.3
    found = ab.problems(runs, ab.summarize(runs, METRICS), METRICS)
    assert found == [
        "planar-2d-n4000 seed 3001 change: 1 of 34 operations failed, output check passed",
        "planar-2d-n4000 job_s_p50: worse by 31.13%, bound 25%"]

def test_parent_median_of_zero():
    runs = [{"workload": "w", "seed": pair, "pair": pair, "side": side, "correct": True,
             "attempted": 1, "failed": 0, "metrics": {"c": c, "d": d}}
            for pair in (1, 2, 3) for side, c, d in (("parent", 0, 0), ("change", 0, pair))]
    metrics = {name: {"better": "lower"} for name in ("c", "d")}
    rows = ab.summarize(runs, metrics)["w"]
    assert (rows["c"]["worse_frac"], rows["d"]["worse_frac"]) == (0.0, math.inf)
    assert ab.problems(runs, {"w": rows}, metrics) == []


def test_cold_run_of_the_working_tree():
    record = ab.run_cold(ROOT, "planar-2d-n4000", 3801)
    assert (record["correct"], record["attempted"], record["failed"]) == (True, 1, 0)
    metrics = record["metrics"]
    assert list(metrics) == list(ab.COLD_METRICS)
    assert 0 < metrics["cold_wall_s"] < 10
    assert isinstance(metrics["cold_minflt"], int) and metrics["cold_minflt"] > 0
    # counted over the job alone: the d = 2 grid is one node block, so the
    # job forks no child, and the interpreter's own start is not counted
    assert metrics["cold_minflt_children"] == 0


def test_seed_range():
    assert list(ab.parse_seeds("3301-3304")) == [3301, 3302, 3303, 3304]
    with pytest.raises(argparse.ArgumentTypeError):
        ab.parse_seeds("3304-3301")
