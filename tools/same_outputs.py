"""Check that this checkout writes the same output bytes as another checkout.

Usage (from the repository root):

    python3 tools/same_outputs.py BASELINE_DIR

It runs a fixed list of `nearris` commands twice, once from this
checkout's `src/` and once from BASELINE_DIR's, with BLAS pinned to one
thread and each run in its own output directory:

- the bundled reference `sweep-beta` (7 betas x 100 trials) at seeds 1
  and 2, with 1 and with 2 workers;
- `sweep-beta` of `perfbench/scenarios/small_pool.scn` (this checkout's
  file on both sides) with 2 workers, at seeds 1 and 2;
- `heatmap --level 4 --grid 64 --cells all`;
- `focus-cut --axis both`;
- `codebook dump` of every level, the one output holding the phase arrays
  of `build_hierarchy` byte for byte (about 50 MB per side).

Then it compares every CSV and every JSON file but `manifest.json` (which
records timings and paths) of every run byte for byte and prints one line
per file: `same`, `DIFFERS`, or which side lacks it. It exits 1 if any file
differs or is missing on one side, and 0 otherwise. A change that must keep
the outputs byte-identical runs it against its parent commit's checkout.
It takes about 75 s on a 2-core host.
"""

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SMALL_POOL = ROOT / "perfbench" / "scenarios" / "small_pool.scn"
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

RUNS = [
    *((f"sweep-ref-seed{seed}-workers{workers}",
       ["sweep-beta", "--seed", str(seed), "--workers", str(workers)])
      for seed in (1, 2) for workers in (1, 2)),
    *((f"small-pool-seed{seed}-workers2",
       ["sweep-beta", "--config", str(SMALL_POOL), "--seed", str(seed), "--workers", "2"])
      for seed in (1, 2)),
    ("heatmap-level4", ["heatmap", "--level", "4", "--grid", "64", "--cells", "all"]),
    ("focus-cut", ["focus-cut", "--axis", "both"]),
    ("codebook-dump", ["codebook", "dump"]),
]


def run_all(checkout, out_root):
    """Every command of RUNS with checkout's package, into out_root/<run name>."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    env.update((name, "1") for name in PINNED_THREADS)
    for name, args in RUNS:
        subprocess.run([sys.executable, "-m", "nearris.cli", *args,
                        "--out-dir", str(out_root / name)],
                       cwd=out_root, env=env, check=True, stdout=subprocess.DEVNULL)


def compare(here, baseline):
    """One (status, run/file) pair per CSV or JSON file but the manifest written on either
    side, in run order."""
    rows = []
    for name, _ in RUNS:
        files = sorted({p.name for side in (here, baseline) for pattern in ("*.csv", "*.json")
                        for p in (side / name).glob(pattern)} - {"manifest.json"})
        for f in files:
            a, b = here / name / f, baseline / name / f
            if not b.exists():
                status = "missing in baseline"
            elif not a.exists():
                status = "missing here"
            else:
                status = "same" if filecmp.cmp(a, b, shallow=False) else "DIFFERS"
            rows.append((status, f"{name}/{f}"))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="root of the checkout to compare with")
    args = ap.parse_args(argv)
    if not (Path(args.baseline) / "src" / "nearris").is_dir():
        ap.error(f"{args.baseline} has no src/nearris")
    with tempfile.TemporaryDirectory() as tmp:
        here, baseline = Path(tmp) / "here", Path(tmp) / "baseline"
        for checkout, out_root in ((ROOT, here), (args.baseline, baseline)):
            out_root.mkdir()
            run_all(checkout, out_root)
        rows = compare(here, baseline)
    for status, path in rows:
        print(f"{status:8s} {path}")
    differing = sum(status != "same" for status, _ in rows)
    print(f"{len(rows)} files, {differing} differ or are missing on one side")
    return 1 if differing or not rows else 0


if __name__ == "__main__":
    sys.exit(main())
