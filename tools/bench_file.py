"""Write a BENCH_*.json file: the benchmark records and Tier-1 time of one checkout.

Usage (from the repository root):

    python3 tools/bench_file.py BENCH_<short-commit>.json [--root DIR]

It runs `perfbench/run.py --workload all --seed 1 --seconds 40` with
`--trace 0` and then `--trace 1` in the checkout at --root (default: this
repository), then the Tier-1 suite there, timed. It writes one JSON file:

    {"seed": 1, "seconds": 40, "nproc": ...,
     "tier1": {"command": ..., "returncode": ..., "wall_s": ..., "summary": ...},
     "workloads": {<name>: {"trace0": <full record>, "trace1": <full record>}}}

where each full record is the one perfbench writes to
`.perfbench/results/<name>-seed1-trace<t>.json`: its run record (commit,
core count, versions, pinned threads), its result with every metric, and
its iterations. tests/test_bench_files.py checks the schema of every
committed file. Nothing here changes the benchmark: it only runs it.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SEED = 1
SECONDS = 40
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def run_benchmark(root, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.DEVNULL)
    names = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    results = root / ".perfbench" / "results"
    return {name: json.loads((results / f"{name}-seed{SEED}-trace{trace}.json").read_text())
            for name in names}


def run_tier1(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    start = time.monotonic()
    done = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    wall_s = time.monotonic() - start
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    summary = lines[-1].strip("= ") if lines else ""
    return {"command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
            "returncode": done.returncode, "wall_s": wall_s, "summary": summary}


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
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"bench file: {args.out} ({doc['tier1']['summary']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
