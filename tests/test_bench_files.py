"""Schema of the committed BENCH_*.json files (see tools/bench_file.py); no timing bound.

Every file must hold, for each workload BENCHMARK.json declares, an
untraced record with every end-to-end metric and a traced record with
every per-layer metric, each a finite number, plus the core count and the
Tier-1 wall time. A file that times the reference sweep must hold, per
worker count 1 and 2, the medians of its runs' trials/s and campaign wall
time.
"""

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
            record = workloads[wl["name"]][trace]
            assert record["record"]["workload"] == wl["name"]
            metrics = record["result"]["metrics"]
            for m in DECLARED[kind]:
                assert is_number(metrics[m["name"]]["value"]), (wl["name"], trace, m["name"])
                assert metrics[m["name"]]["unit"] == m["unit"]
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
