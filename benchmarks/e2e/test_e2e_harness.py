"""Tests of the benchmark harness itself: statistics, result comparison,
span self-time, the BENCHMARK.json contract, and one smoke run.

Collected by the tier-1 run (``python -m pytest`` from the repo root).
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(HERE / "run.py")]


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
def test_quantile_interpolates_and_accepts_one_sample():
    assert stats.quantile([1, 2, 3, 4, 5], 0.5) == 3
    assert stats.quantile([4, 1, 3, 2], 0.25) == pytest.approx(1.75)
    assert stats.quantile([7.0], 0.75) == 7.0
    with pytest.raises(ValueError):
        stats.quantile([], 0.5)


def test_headline_is_the_quartile_on_the_good_side():
    windows = [100, 101, 99, 50, 52, 100, 102, 51]   # a bimodal host
    rate = stats.summarize(windows, stats.HIGHER)
    assert rate["value"] == rate["q3"] > rate["median"]
    assert rate["best"] == 102 and rate["n"] == 8
    time_ = stats.summarize(windows, stats.LOWER)
    assert time_["value"] == time_["q1"] < time_["median"]
    assert time_["best"] == 50


def test_calib_ratio_is_best_over_worst_probe():
    assert stats.calib_ratio_min([0.010, 0.020, 0.0125]) == pytest.approx(0.5)


def _doc(value, q1, q3, failed=0, metric="lane_cps"):
    summary = {"value": value, "median": (q1 + q3) / 2, "q1": q1, "q3": q3,
               "best": q3, "n": 8}
    return {"workloads": {"w": {"status": "ok", "failed": failed,
                                "end_to_end": {metric: summary}}}}


MINI_SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [{"name": "lane_cps", "unit": "1/s", "better": "higher",
                    "bound": 0.1}],
}


@pytest.mark.parametrize("new, verdict", [
    (_doc(98, 97, 99), "ok"),                    # 2% slower, inside the bound
    (_doc(120, 119, 121), "ok"),                 # faster is never a regression
    (_doc(80, 79, 81), "regressed"),             # 20% slower
    (_doc(80, 60, 100), "unresolved"),           # spread 50% hides the answer
    (_doc(100, 99, 101, failed=3), "failed"),
    ({"workloads": {}}, "missing"),
])
def test_compare_verdicts(new, verdict):
    (row,) = stats.compare(MINI_SPEC, _doc(100, 99, 101), new)
    assert row["verdict"] == verdict


def test_lower_is_better_metrics_regress_upwards():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower",
                            "bound": 0.2}]}
    base = _doc(1.0, 0.99, 1.01, metric="setup_s")
    (slower,) = stats.compare(spec, base, _doc(1.5, 1.49, 1.51, metric="setup_s"))
    (faster,) = stats.compare(spec, base, _doc(0.5, 0.49, 0.51, metric="setup_s"))
    assert slower["verdict"] == "regressed" and slower["worse_by"] == pytest.approx(0.5)
    assert faster["verdict"] == "ok" and faster["worse_by"] < 0


def test_check_exit_status(tmp_path, capsys):
    paths = {}
    for name, doc in {"spec": MINI_SPEC, "a": _doc(100, 99, 101),
                      "same": _doc(99, 98, 100), "slow": _doc(50, 49, 51),
                      "noisy": _doc(50, 20, 80)}.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    assert stats.check(paths["spec"], paths["a"], paths["same"]) == 0
    assert stats.check(paths["spec"], paths["a"], paths["slow"]) == 1
    # Unresolved is reported by name, and is not a pass dressed as "ok".
    assert stats.check(paths["spec"], paths["a"], paths["noisy"]) == 0
    assert "unresolved" in capsys.readouterr().out


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children():
    clock = FakeClock()
    rec = spans.Recorder("w", clock=clock)
    with rec.span("window") as window:
        clock.now += 1           # window's own work
        with rec.span("settle"):
            clock.now += 5
        with rec.span("commit"):
            clock.now += 2
            with rec.span("copy"):
                clock.now += 1
    assert rec.total("window") == 9
    own = spans.self_times(rec.spans)
    assert own == {"window": 1, "settle": 5, "commit": 2, "copy": 1}
    assert [s["parent"] for s in rec.spans] == [None, window, window, 2]
    assert all(s["workload"] == "w" for s in rec.spans)


def test_self_time_counts_overlapping_children_once():
    # Two client threads under one window: 0-6 and 2-8 cover 8 of its 10.
    records = [
        {"id": 0, "name": "window", "start": 0, "end": 10, "parent": None},
        {"id": 1, "name": "client", "start": 0, "end": 6, "parent": 0},
        {"id": 2, "name": "client", "start": 2, "end": 8, "parent": 0},
    ]
    assert spans.self_times(records) == {"window": 2, "client": 12}


def test_explicit_parent_crosses_threads():
    import threading

    rec = spans.Recorder("w")
    with rec.span("window") as window:
        def worker():
            with rec.span("client", parent=window):
                with rec.span("request"):
                    pass
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_name = {s["name"]: s for s in rec.spans}
    assert by_name["client"]["parent"] == window
    assert by_name["request"]["parent"] == by_name["client"]["id"]


def test_dump_writes_every_span(tmp_path):
    rec = spans.Recorder("w")
    with rec.span("a"):
        pass
    rec.dump(tmp_path / "trace.json")
    doc = json.loads((tmp_path / "trace.json").read_text())
    assert doc["workload"] == "w" and [s["name"] for s in doc["spans"]] == ["a"]


# ----------------------------------------------------------------------
# BENCHMARK.json against the contract and the workload table
# ----------------------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_meets_the_contract():
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    assert bounds["setup_s"]["unit"] == "s" and bounds["setup_s"]["better"] == "lower"
    assert bounds["setup_s"]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_benchmark_json_gates_workloads_of_the_table():
    """The driver gates on a subset of the table (the suite runs all of
    it), named in the table's order, with every kind of engine in it."""
    table = [w.name for w in workloads.WORKLOADS]
    gated = [w["name"] for w in SPEC["workloads"]]
    assert gated == [name for name in table if name in gated]
    assert {workloads.BY_NAME[name].kind for name in gated} == {"batch", "shard", "served"}


def test_stimulus_depends_on_the_seed_only():
    pytest.importorskip("repro")
    workload = workloads.BY_NAME["gemmini8_compiled_b64"]
    short = workloads.Workload(workload.name, "batch", workload.design, 4,
                               workload.kernel, cycles=8)
    assert workloads.batch_stimulus(short, 7) == workloads.batch_stimulus(short, 7)
    assert workloads.batch_stimulus(short, 7) != workloads.batch_stimulus(short, 8)
    lane = workloads.lane_of(workloads.batch_stimulus(short, 7), 3, 5)
    assert len(lane) == 5 and all(isinstance(v, int) for _, v in lane[0])


def test_reference_check_catches_a_wrong_output():
    pytest.importorskip("repro")
    from repro.designs.registry import get_design

    source = get_design("gemmini-8")
    workload = workloads.BY_NAME["gemmini8_served_n2"]
    stimulus = workloads.client_stimulus(workload, 3, 0)[:6]
    from repro.firrtl.elaborate import elaborate
    from repro.firrtl.parser import parse
    from repro.firrtl.reference import ReferenceSimulator

    flat = elaborate(parse(source))
    reference = ReferenceSimulator(flat)
    seen = []
    for pokes in stimulus:
        for name, value in pokes:
            reference.poke(name, value)
        seen.append({"result": reference.peek("result")})
        reference.step()
    assert workloads.reference_mismatches(flat, stimulus, seen) == 0
    seen[4] = {"result": seen[4]["result"] ^ 1}
    assert workloads.reference_mismatches(flat, stimulus, seen) == 1


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
def test_run_dir_counts_leaks_and_removes_itself():
    import run

    with run.RunDir() as scratch:
        assert scratch.fresh_cache() != scratch.fresh_cache()
        (scratch.tmp / "repro-cbin-leaked").mkdir()
        (scratch.tmp / "unrelated").mkdir()
        assert scratch.leaked_tmp_dirs() == 1
    assert not scratch.path.exists()


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: exit non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "gemmini8_compiled_b64", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_smoke_run_reports_every_declared_metric(tmp_path):
    pytest.importorskip("numpy")
    pytest.importorskip("repro")
    from repro.lower.cbackend import has_toolchain

    if not has_toolchain():
        pytest.skip("no C toolchain: the smoke workload would be skipped")
    out = tmp_path / "smoke.json"
    done = subprocess.run(RUN + ["--smoke", "--seed", "11", "--out", str(out)],
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    (entry,) = json.loads(out.read_text())["workloads"].values()
    assert entry["status"] == "ok" and entry["failed_share"] == 0
    for metric in SPEC["end_to_end"]:
        summary = entry["end_to_end"][metric["name"]]
        assert math.isfinite(summary["value"]) and summary["value"] > 0
        assert summary["unit"] == metric["unit"] and summary["n"] >= 1
        assert metric["name"] in done.stdout
    for metric in SPEC["per_layer"]:
        value = entry["per_layer"][metric["name"]]["value"]
        assert math.isfinite(value), metric["name"]
        assert metric["name"] in done.stdout
    assert entry["end_to_end"]["lane_cps"]["n"] == 2
    # The phases of a batch cycle account for the traced cycle time.
    layers = {name: e["value"] for name, e in entry["per_layer"].items()}
    phases = sum(layers[f"batch.{p}_us"] for p in ("poke", "settle", "commit", "peek"))
    assert phases == pytest.approx(layers["bench.traced_cycle_us"], rel=0.10)
