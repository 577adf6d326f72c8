"""Write a BENCH_*.json file: the benchmark records and Tier-1 time of one checkout.

Usage (from the repository root):

    python3 tools/bench_file.py BENCH_<short-commit>.json [--root DIR]

It runs `perfbench/run.py --workload all --seed 1 --seconds 40` with
`--trace 0` and then `--trace 1` in the checkout at --root (default: this
repository), each after deleting the `__pycache__` directories under its
`src/` and `perfbench/`, so that every run starts from the same bytecode
state whatever was imported there before (`setup_s` includes compiling).
Then it runs the Tier-1 suite there, timed, then the reference campaign
`nearris sweep-beta` (7 betas x 100 trials, seed 1, BLAS pinned to one
thread) 5 times at each worker count, 1 and 2 alternating. It writes one
JSON file:

    {"seed": 1, "seconds": 40, "nproc": ...,
     "tier1": {"command": ..., "returncode": ..., "wall_s": ..., "summary": ...},
     "workloads": {<name>: {"trace0": <full record>, "trace1": <full record>}},
     "reference_sweep": {"command": ..., "repeats": 5,
                         "workers": {"1": {"trials_per_s": <median>,
                                           "campaign_wall_s": <median>,
                                           "runs": [{"trials_per_s": ...,
                                                     "campaign_wall_s": ...}, ...]},
                                     "2": {...}}}}

where each full record is the one perfbench writes to
`.perfbench/results/<name>-seed1-trace<t>.json`: its run record (commit,
core count, versions, pinned threads), its result with every metric, and
its iterations. The sweep's numbers are the `trials_per_s` and
`campaign_wall_s` of each run's manifest. tests/test_bench_files.py
checks the schema of every committed file. Nothing here changes the
benchmark: it only runs it.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED = 1
SECONDS = 40
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
SWEEP = ["sweep-beta", "--seed", str(SEED)]  # the bundled reference scenario: 7 x 100 trials
SWEEP_WORKERS = (1, 2)
SWEEP_REPEATS = 5
SWEEP_METRICS = ("trials_per_s", "campaign_wall_s")  # read from each run's manifest
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_benchmark(root, trace):
    for cache in (c for top in ("src", "perfbench") for c in (root / top).rglob("__pycache__")):
        shutil.rmtree(cache)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.DEVNULL)
    names = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    results = root / ".perfbench" / "results"
    return {name: json.loads((results / f"{name}-seed{SEED}-trace{trace}.json").read_text())
            for name in names}


def source_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def run_tier1(root):
    env = source_env(root)
    start = time.monotonic()
    done = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    wall_s = time.monotonic() - start
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    summary = lines[-1].strip("= ") if lines else ""
    return {"command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
            "returncode": done.returncode, "wall_s": wall_s, "summary": summary}


def run_reference_sweep(root):
    """Per worker count, the median trials_per_s and campaign_wall_s of the reference
    sweep's manifests over SWEEP_REPEATS runs, and the runs themselves."""
    env = {**source_env(root), **{k: "1" for k in PINNED_THREADS}}
    runs = {w: [] for w in SWEEP_WORKERS}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(SWEEP_REPEATS):
            for w in SWEEP_WORKERS:
                cmd = [sys.executable, "-m", "nearris.cli", *SWEEP, "--workers", str(w),
                       "--out-dir", tmp]
                subprocess.run(cmd, cwd=root, env=env, check=True, stdout=subprocess.DEVNULL)
                manifest = json.loads((Path(tmp) / "manifest.json").read_text())
                runs[w].append({m: manifest[m] for m in SWEEP_METRICS})
    return {"command": f"nearris {' '.join(SWEEP)} --workers W, BLAS threads pinned to 1",
            "repeats": SWEEP_REPEATS,
            "workers": {str(w): {**{m: statistics.median(run[m] for run in rs)
                                    for m in SWEEP_METRICS}, "runs": rs}
                        for w, rs in runs.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path, help="file to write, e.g. BENCH_<short-commit>.json")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                    help="checkout to measure (default: this repository)")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    traces = {trace: run_benchmark(root, trace) for trace in (0, 1)}
    doc = {
        "seed": SEED,
        "seconds": SECONDS,
        "nproc": os.cpu_count(),
        "tier1": run_tier1(root),
        "workloads": {name: {f"trace{t}": traces[t][name] for t in (0, 1)}
                      for name in traces[0]},
        "reference_sweep": run_reference_sweep(root),
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"bench file: {args.out} ({doc['tier1']['summary']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
