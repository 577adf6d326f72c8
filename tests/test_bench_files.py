"""Schema of the committed BENCH_*.json files (see tools/bench_file.py); no timing bound.

Every file must hold, for each workload BENCHMARK.json declares, an
untraced record with every end-to-end metric and a traced record with
every per-layer metric, each a finite number, plus the core count and the
Tier-1 wall time. A file that times the reference sweep must hold, per
worker count 1 and 2, the medians of its runs' trials/s and campaign wall
time. A file with a `paired` section (`--baseline`) must hold, per
workload and end-to-end metric, both sides' runs with their medians and
quartiles, every pair's ratio, the ratios' median and range, and the wins,
from at least 10 pairs of 40 s runs; where it holds the baseline's traced
records, each has every per-layer metric; where it holds a paired
reference sweep, the same comparison of trials/s and peak RSS per worker
count 1 and 2, from at least 5 alternating pairs.
"""

import importlib.util
import json
import math
import statistics
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def is_number(v):
    return isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v)


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_schema(path):
    doc = json.loads(path.read_text())
    assert isinstance(doc["nproc"], int) and doc["nproc"] >= 1
    assert is_number(doc["tier1"]["wall_s"]) and doc["tier1"]["summary"]
    workloads = doc["workloads"]
    for wl in DECLARED["workloads"]:
        for trace, kind in (("trace0", "end_to_end"), ("trace1", "per_layer")):
            check_record(workloads[wl["name"]][trace], wl["name"], kind)
    if "paired" in doc:
        check_paired(doc["paired"])
    sweep = doc.get("reference_sweep")
    if sweep is not None:
        assert sweep["command"] and sweep["repeats"] >= 5
        assert set(sweep["workers"]) == {"1", "2"}
        for per_workers in sweep["workers"].values():
            runs = per_workers["runs"]
            assert len(runs) == sweep["repeats"]
            for m in ("trials_per_s", "campaign_wall_s"):
                assert all(is_number(run[m]) and run[m] > 0 for run in runs)
                assert per_workers[m] == statistics.median(run[m] for run in runs)
            # every run is the 7 x 100 reference sweep
            for run in runs:
                assert run["trials_per_s"] * run["campaign_wall_s"] == pytest.approx(700)


def check_record(record, workload, kind):
    """A perfbench record of `workload` holds every `kind` metric as a finite number."""
    assert record["record"]["workload"] == workload
    metrics = record["result"]["metrics"]
    for m in DECLARED[kind]:
        assert is_number(metrics[m["name"]]["value"]), (workload, kind, m["name"])
        assert metrics[m["name"]]["unit"] == m["unit"]


def check_paired(paired):
    """The schema of a `paired` section, its summaries recomputed from its runs, and of
    its baseline's traced records where it holds them."""
    if "baseline_trace1" in paired:
        for wl in DECLARED["workloads"]:
            check_record(paired["baseline_trace1"][wl["name"]], wl["name"], "per_layer")
    pairs = paired["pairs"]
    assert isinstance(pairs, int) and pairs >= 10
    assert paired["first"] == [("baseline", "change")[i % 2] for i in range(pairs)]
    assert paired["command"] and paired["baseline"] and paired["change"]
    assert paired["seconds"] == 40
    for wl in DECLARED["workloads"]:
        for m in DECLARED["end_to_end"]:
            check_comparison(paired["workloads"][wl["name"]][m["name"]], pairs, m["better"])
    sweep = paired.get("reference_sweep")
    if sweep is not None:
        assert sweep["command"] and sweep["pairs"] >= 5
        assert sweep["first"] == [("baseline", "change")[i % 2] for i in range(sweep["pairs"])]
        assert set(sweep["workers"]) == {"1", "2"}
        for per_workers in sweep["workers"].values():
            check_comparison(per_workers["trials_per_s"], sweep["pairs"], "higher")
            check_comparison(per_workers["peak_rss_mb"], sweep["pairs"], "lower")


def check_comparison(rec, pairs, better):
    """One paired metric: both sides' `pairs` runs with their medians and quartiles, every
    pair's ratio, the ratios' median and range, and the wins, recomputed from the runs."""
    assert rec["better"] == better
    for side in (rec["baseline"], rec["change"]):
        runs = side["runs"]
        assert len(runs) == pairs and all(is_number(r) and r > 0 for r in runs)
        assert side["median"] == statistics.median(runs)
        assert side["q1"] <= side["median"] <= side["q3"]
    pairs_of = list(zip(rec["baseline"]["runs"], rec["change"]["runs"]))
    assert rec["ratios"] == [c / b for b, c in pairs_of]
    assert rec["ratio_median"] == statistics.median(rec["ratios"])
    assert (rec["ratio_min"], rec["ratio_max"]) == (min(rec["ratios"]), max(rec["ratios"]))
    higher = better == "higher"
    assert rec["wins"] == sum((c > b) if higher else (c < b) for b, c in pairs_of)


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_file", ROOT / "tools" / "bench_file.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_paired_section_of_the_tool_has_the_schema(monkeypatch, tmp_path):
    # bench_file.py's paired section from stand-in runs, no benchmark started:
    # the sides alternate, each pair with the other side first, then the
    # baseline runs once traced
    tool = load_tool()
    calls = []

    def fake_run(root, trace):
        calls.append(root)
        value = 1.0 + len(calls) / 10 + (root == ROOT)
        kind = ("end_to_end", "per_layer")[trace]
        return {wl["name"]: {"record": {"workload": wl["name"]},
                             "result": {"metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                                                    for m in DECLARED[kind]}}}
                for wl in DECLARED["workloads"]}

    monkeypatch.setattr(tool, "run_benchmark", fake_run)
    monkeypatch.setattr(tool, "clear_bytecode", lambda root: None)
    paired = tool.run_paired(tmp_path, ROOT, 10)
    assert calls == [tmp_path, ROOT, ROOT, tmp_path] * 5 + [tmp_path]
    assert set(paired["baseline_trace1"]) == {wl["name"] for wl in DECLARED["workloads"]}
    check_paired(json.loads(json.dumps(paired)))
    rec = paired["workloads"]["sweep-ref"]["throughput_per_s"]
    assert rec["wins"] == 10 and rec["baseline"]["runs"][:2] == [1.1, 1.4]


def test_paired_reference_sweep_of_the_tool_has_the_schema(monkeypatch, tmp_path):
    # bench_file.py's paired reference sweep from stand-in runs, no campaign
    # started: at each worker count the sides alternate, each pair with the
    # other side first
    tool = load_tool()
    calls = []

    def fake_sweep(root, workers):
        calls.append((root, workers))
        change = root == ROOT
        return 100.0 * workers + len(calls) + 50 * change, 90.0 - len(calls) / 10 - change

    monkeypatch.setattr(tool, "sweep_run", fake_sweep)
    sweep = tool.run_paired_sweep(tmp_path, ROOT, 5)
    assert calls == [(root, w) for w in (1, 2)
                     for root in [tmp_path, ROOT, ROOT, tmp_path] * 2 + [tmp_path, ROOT]]
    paired = {"pairs": 10, "first": [("baseline", "change")[i % 2] for i in range(10)],
              "command": "stand-in", "baseline": str(tmp_path), "change": str(ROOT),
              "seconds": 40, "reference_sweep": json.loads(json.dumps(sweep)),
              "workloads": {wl["name"]: {m["name"]: tool.compare([1.0] * 10, [1.0] * 10,
                                                                 m["better"])
                                         for m in DECLARED["end_to_end"]}
                            for wl in DECLARED["workloads"]}}
    check_paired(paired)
    for per_workers in sweep["workers"].values():
        assert per_workers["trials_per_s"]["wins"] == per_workers["peak_rss_mb"]["wins"] == 5
    assert sweep["workers"]["2"]["trials_per_s"]["baseline"]["runs"][:2] == [211.0, 214.0]
