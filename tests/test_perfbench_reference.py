"""The benchmark's workloads still write the rows recorded at the reference seeds.

`perfbench/reference/` holds every trial and aggregate row of the two sweep
workloads at seeds 1 and 2, and a sample of the rows of the raster
workload's heatmap and focus-cut files. The sweeps are checked at both
seeds, seed 2 as a holdout; the raster's commands do not read the seed,
so it is checked at seed 1 only. This runs the same CLI commands as
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


@pytest.mark.parametrize("name, seed", [
    pytest.param("sweep-ref", 1, id="sweep-ref"),
    pytest.param("sweep-small-pool", 1, id="sweep-small-pool"),
    pytest.param("raster-ref", 1, id="raster-ref"),
    pytest.param("sweep-ref", 2, id="sweep-ref-seed2"),
    pytest.param("sweep-small-pool", 2, id="sweep-small-pool-seed2"),
])
def test_sweep_rows_match_the_reference_seed(bench_run, tmp_path, name, seed):
    wl = bench_run.WORKLOADS[name]
    out = tmp_path / "out"
    for args in wl.commands(seed, out):
        assert main(args) == 0
    reference = bench_run.checks.load_reference(
        bench_run.REFERENCE_DIR / f"{name}-seed{seed}.tsv.gz")
    res = bench_run.checks.check_outputs(wl, out, reference)
    assert res.mode == "reference+invariants"
    if wl.kind == "sweep":  # the sweeps' reference holds every row
        assert res.attempted == len(reference) > 0
    else:  # the raster's holds a sample of the rows of its 256 cell rasters
        assert res.attempted >= len(reference) > 0
    assert res.failed == 0, res.problems
