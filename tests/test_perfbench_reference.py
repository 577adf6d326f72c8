"""The benchmark's workloads still write the rows recorded at the reference seed.

`perfbench/reference/` holds every trial and aggregate row of the two sweep
workloads at seed 1, and a sample of the rows of the raster workload's
heatmap and focus-cut files. This runs the same CLI commands as
`perfbench/run.py` (its `WORKLOADS`) in-process and compares their rows with
`perfbench/checks.py`, so a change in trial results or rasters fails the
suite, not only the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from nearris.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1


@pytest.fixture(scope="module")
def bench_run():
    """perfbench/run.py as a module; it imports checks.py by its bare name."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(BENCH))
        sys.modules.pop("checks", None)
    return run


@pytest.mark.parametrize("name", ["sweep-ref", "sweep-small-pool", "raster-ref"])
def test_sweep_rows_match_the_reference_seed(bench_run, tmp_path, name):
    wl = bench_run.WORKLOADS[name]
    out = tmp_path / "out"
    for args in wl.commands(SEED, out):
        assert main(args) == 0
    reference = bench_run.checks.load_reference(
        bench_run.REFERENCE_DIR / f"{name}-seed{SEED}.tsv.gz")
    res = bench_run.checks.check_outputs(wl, out, reference)
    assert res.mode == "reference+invariants"
    if wl.kind == "sweep":  # the sweeps' reference holds every row
        assert res.attempted == len(reference) > 0
    else:  # the raster's holds a sample of the rows of its 256 cell rasters
        assert res.attempted >= len(reference) > 0
    assert res.failed == 0, res.problems
