"""The verdicts of ``tools/paired_bench.py`` on synthetic pairs of runs."""

import importlib.util
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "paired_bench", Path(__file__).resolve().parents[1] / "tools" / "paired_bench.py")
pb = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pb)

METRIC = {"name": "t", "unit": "ms", "better": "lower", "bound": 0.25}


def _pairs(parent, change):
    return [({"metrics": {"t": {"value": p}}}, {"metrics": {"t": {"value": c}}})
            for p, c in zip(parent, change)]


def _report(parent, change, rejected=0):
    m = pb._compare(_pairs(parent, change), METRIC)
    return {"workloads": {"w": {"metrics": {"t": m}}}, "claims": [],
            "rejected": [{"workload": "w"}] * rejected}


PARENT = [100.0 + i for i in range(10)]  # median 104.5, interquartile range 4.5


def test_clear_win_passes_the_claim():
    report = _report(PARENT, [20.0 + i for i in range(10)])
    m = report["workloads"]["w"]["metrics"]["t"]
    assert (m["wins"], m["pairs"]) == (10, 10) and m["gain"] == pytest.approx(80.0)
    assert m["within_bound"] and not m["unresolved"] and m["gain_exceeds_parent_iqr"]
    assert pb._judge(report, ["t"]) and report["claims"][0]["verdict"] == "pass"


def test_eight_of_ten_wins_fails_the_claim():
    change = [20.0 + i for i in range(8)] + [200.0, 300.0]
    report = _report(PARENT, change)
    assert report["workloads"]["w"]["metrics"]["t"]["wins"] == 8
    assert not pb._judge(report, ["t"]) and report["claims"][0]["verdict"] == "fail"
    assert report["verdict"] == "fail"


def test_a_rejected_pair_fails_the_claim():
    report = _report(PARENT[:9], [20.0 + i for i in range(9)], rejected=1)
    assert report["workloads"]["w"]["metrics"]["t"]["wins"] == 9  # 9 of the 9 kept
    assert not pb._judge(report, ["t"])
    assert report["claims"][0] == {**report["claims"][0], "rejected_runs": 1, "verdict": "fail"}


def test_spread_wider_than_the_bound_is_unresolved():
    wide = [50.0, 150.0] * 5  # interquartile range 100 against a median of 100
    report = _report(wide, [v * 1.01 for v in wide])
    m = report["workloads"]["w"]["metrics"]["t"]
    assert m["within_bound"] and m["unresolved"]
    assert not pb._judge(report, []) and report["verdict"] == "fail"
    # unless every change run beats every parent run
    assert not _report(wide, [10.0] * 10)["workloads"]["w"]["metrics"]["t"]["unresolved"]


def test_bound_exceeded_fails():
    report = _report(PARENT, [v * 1.3 for v in PARENT])
    assert not report["workloads"]["w"]["metrics"]["t"]["within_bound"]
    assert not pb._judge(report, [])


def test_zero_parent_median_is_not_within_bound():
    m = _report([0.0] * 10, [1.0] * 10)["workloads"]["w"]["metrics"]["t"]
    assert math.isnan(m["rel_change"]) and not m["within_bound"]


def test_missing_claimed_metric_fails():
    report = _report(PARENT, PARENT)
    assert not pb._judge(report, ["nope"])
    assert report["claims"] == [{"workload": "w", "metric": "nope", "rejected_runs": 0,
                                 "verdict": "fail"}]


@pytest.mark.parametrize("text", ["3,5", "5", "9-3", "a-b", "1-2-3"])
def test_seeds_accepts_only_a_range(text):
    with pytest.raises(pb.argparse.ArgumentTypeError, match="expected a range"):
        pb._seeds(text)
    assert pb._seeds("7-9") == [7, 8, 9]
