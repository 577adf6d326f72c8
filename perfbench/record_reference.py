"""Record the reference outputs that run.py compares rows against.

Usage (from the repository root): python3 perfbench/record_reference.py

Runs one untraced iteration of every workload at each seed in
run.REFERENCE_SEEDS and writes perfbench/reference/<workload>-seed<n>.tsv.gz.
Re-record only when an output is meant to change, and say why in the
change that does it.
"""

import shutil
import time

import checks
import run


def main():
    run.preflight()
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, wl in run.WORKLOADS.items():
        for seed in run.REFERENCE_SEEDS:
            it_dir = run.WORK_DIR / "record" / f"{name}-seed{seed}"
            shutil.rmtree(it_dir, ignore_errors=True)
            it_dir.mkdir(parents=True)
            it = run.run_iteration(wl, seed, it_dir, "coarse", time.monotonic() + 600)
            if not it.ok:
                raise SystemExit(f"{name} seed {seed}: a CLI process failed, see {it_dir}.log")
            out = it_dir / "out"
            res = checks.check_outputs(wl, out)
            if res.failed:
                raise SystemExit(f"{name} seed {seed}: invariants fail: {res.problems}")
            path = run.REFERENCE_DIR / f"{name}-seed{seed}.tsv.gz"
            checks.write_reference(path, checks.reference_rows(wl, out))
            print(f"{path.relative_to(run.ROOT)}: {res.attempted} rows checked")
    shutil.rmtree(run.WORK_DIR / "record", ignore_errors=True)


if __name__ == "__main__":
    main()
