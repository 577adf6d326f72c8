"""Self-test of the benchmark: python3 -m pytest perfbench/tests

No timing bounds here; the smoke runs only check that every workload runs,
passes its checks and reports every metric BENCHMARK.json declares.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def declared(kind):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_declared_metrics_match_run_py():
    assert declared("end_to_end") == dict(run.E2E)
    assert declared("per_layer") == dict(run.LAYER)
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_every_workload_reports_every_metric(trace, kind):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(results) == list(run.WORKLOADS)
    for name, res in results.items():
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, name
        units = {m: v["unit"] for m, v in res["metrics"].items()}
        assert units == declared(kind), name
        full = json.loads((ROOT / ".perfbench" / "results" /
                           f"{name}-seed3-trace{trace}-smoke.json").read_text())
        assert full["checks"] == ["invariants"]
        for key in ("nproc", "python", "numpy", "blas", "pinned_threads", "workers",
                    "seed", "git_commit", "git_dirty"):
            assert key in full["record"], key
        if name == "sweep-small-pool" and trace:
            assert not any("parent-side" in p for p in full["problems"])


def _write_outputs(out_dir, reference):
    headers = {"trials.csv": "trial,beta_db,scheme,snr_db,mu_x,mu_y,mu_z,pilots,winners",
               "aggregates.csv": "scheme,beta_db,mean_snr_db,std_snr_db,n_trials"}
    for name, header in headers.items():
        rows = [row for f, _, row in reference if f == name]
        (out_dir / name).write_text("\n".join(["# format_version=1", header, *rows]) + "\n")


def _with_row(reference, k, row):
    return reference[:k] + [(reference[k][0], reference[k][1], row)] + reference[k + 1:]


def test_corrupted_reference_row_counts_as_failed(tmp_path):
    wl = run.WORKLOADS["sweep-ref"]
    reference = checks.load_reference(run.REFERENCE_DIR / "sweep-ref-seed1.tsv.gz")
    _write_outputs(tmp_path, reference)
    clean = checks.check_outputs(wl, tmp_path, reference)
    assert (clean.failed, clean.mode) == (0, "reference+invariants")
    assert clean.attempted == 7 * 2 * 4 + 7 * 4

    k = next(i for i, (f, _, row) in enumerate(reference)
             if f == "trials.csv" and ",B2_full_focusing," in row)
    fields = reference[k][2].split(",")
    snr = float(fields[3])
    unit = checks._sixth_digit_unit(snr)
    within = ",".join(fields[:3] + [f"{snr + 0.5 * unit:.10g}"] + fields[4:])
    beyond = ",".join(fields[:3] + [f"{snr + 3 * unit:.10g}"] + fields[4:])
    assert checks.check_outputs(wl, tmp_path, _with_row(reference, k, within)).failed == 0
    corrupt = checks.check_outputs(wl, tmp_path, _with_row(reference, k, beyond))
    assert corrupt.failed == 1
    assert corrupt.failed / corrupt.attempted == 1 / clean.attempted


def test_winner_mismatch_counts_as_failed(tmp_path):
    wl = run.WORKLOADS["sweep-ref"]
    reference = checks.load_reference(run.REFERENCE_DIR / "sweep-ref-seed1.tsv.gz")
    _write_outputs(tmp_path, reference)
    k = next(i for i, (f, _, row) in enumerate(reference)
             if f == "trials.csv" and ",proposed," in row)
    fields = reference[k][2].split(",", 8)
    wx, rest = fields[8].split(",", 1)
    moved = ",".join(fields[:8] + [f"{int(wx) + 1},{rest}"])
    assert checks.check_outputs(wl, tmp_path, _with_row(reference, k, moved)).failed == 1


def test_missing_function_is_reported_absent(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    monkeypatch.setattr(spans, "LAYERS",
                        spans.LAYERS + (("beam_mgmt.gone", "nearris.beam_mgmt", "gone"),))
    tracer = spans.Tracer(".")
    spans.install(tracer, {"beam_mgmt.gone"})
    assert tracer.absent == ["beam_mgmt.gone"]
