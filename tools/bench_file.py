"""Write a BENCH_*.json file: the benchmark records and Tier-1 time of one checkout.

Usage (from the repository root):

    python3 tools/bench_file.py BENCH_<short-commit>.json [--root DIR]
        [--baseline DIR [--pairs 10]]

It runs `perfbench/run.py --workload <name> --seed 1 --seconds 40` for
each workload BENCHMARK.json declares, one process per workload, with
`--trace 0` and then `--trace 1` in the checkout at --root (default: this
repository), each after deleting the `__pycache__` directories under its
`src/` and `perfbench/`, so that every run starts from the same bytecode
state whatever was imported there before (`setup_s` includes compiling).
One runner per workload keeps each workload's `peak_rss_mb` that of its
own CLI processes: a runner that has loaded an earlier workload's records
passes its own high-water RSS on to the CLI processes it starts later.
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
`campaign_wall_s` of each run's manifest.

With --baseline DIR (another checkout, typically the parent commit) it
then runs those untraced benchmark runs (every workload, one process each)
--pairs times (at least 10) on each side, alternating between DIR and
--root and which of the two goes first in a pair, with `__pycache__`
cleared on both sides before every run, then one `--trace 1` run of DIR,
and adds a `paired` section:

    "paired": {"baseline": DIR, "change": ROOT, "command": ..., "pairs": 10,
               "seconds": 40, "first": ["baseline", "change", ...],
               "workloads": {<name>: {<end-to-end metric>: {
                   "better": "lower" | "higher",
                   "baseline": {"runs": [...], "median": ..., "q1": ..., "q3": ...},
                   "change": {...},
                   "ratios": [change / baseline of each pair, ...],
                   "ratio_median": ..., "ratio_min": ..., "ratio_max": ...,
                   "wins": <pairs where the change is better>}},
               "baseline_trace1": {<name>: <full record>}}

The baseline's traced records hold its per-layer metrics from the same
host and hour as the change's `trace1` records. Then it runs the
reference campaign (as above, BLAS pinned to one thread) in 5 pairs at
each worker count, 1 and 2, alternating between the sides as the
benchmark pairs do, and adds to the `paired` section:

    "reference_sweep": {"command": ..., "pairs": 5, "first": [...],
                        "workers": {"1": {"trials_per_s": <comparison>,
                                          "peak_rss_mb": <comparison>},
                                    "2": {...}}}

where each comparison has the keys of an end-to-end metric's above.
`trials_per_s` is read from each run's manifest and `peak_rss_mb` is the
run's `ru_maxrss` from `os.wait4`, in MB of 10^6 bytes as perfbench
reports it: the largest high-water RSS of the CLI process and the pool
workers it reaped, each alone, not their sum.

The quartiles are `statistics.quantiles(runs, n=4, method="inclusive")`.
Two BENCH files from different days do not make a before and after on a
shared host; a paired section does. tests/test_bench_files.py checks the
schema of every committed file. Nothing here changes the benchmark: it
only runs it.
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
PAIRS = 10
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
SWEEP = ["sweep-beta", "--seed", str(SEED)]  # the bundled reference scenario: 7 x 100 trials
SWEEP_WORKERS = (1, 2)
SWEEP_REPEATS = 5
SWEEP_PAIRS = 5
SWEEP_METRICS = ("trials_per_s", "campaign_wall_s")  # read from each run's manifest
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def clear_bytecode(root):
    for cache in (c for top in ("src", "perfbench") for c in (root / top).rglob("__pycache__")):
        shutil.rmtree(cache)


def benchmark_command(name, trace):
    return ["perfbench/run.py", "--workload", name, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", str(trace)]


def run_benchmark(root, trace):
    """Every declared workload's full record, each from its own runner process."""
    names = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    results = root / ".perfbench" / "results"
    records = {}
    for name in names:
        clear_bytecode(root)
        subprocess.run([sys.executable, *benchmark_command(name, trace)], cwd=root, check=True,
                       stdout=subprocess.DEVNULL)
        records[name] = json.loads((results / f"{name}-seed{SEED}-trace{trace}.json").read_text())
    return records


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


def sweep_run(root, workers):
    """(trials_per_s, peak_rss_mb) of one reference sweep from `root`'s source: the
    manifest's rate and the process's `ru_maxrss` (KiB on Linux) in MB of 10^6 bytes."""
    env = {**source_env(root), **{k: "1" for k in PINNED_THREADS}}
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [sys.executable, "-m", "nearris.cli", *SWEEP, "--workers", str(workers),
               "--out-dir", tmp]
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, cmd)
        manifest = json.loads((Path(tmp) / "manifest.json").read_text())
    return manifest["trials_per_s"], usage.ru_maxrss * 1024 / 1e6


def side_summary(runs):
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"runs": runs, "median": statistics.median(runs), "q1": q1, "q3": q3}


def compare(baseline, change, better):
    """Both sides' runs of one metric summarized, each pair's ratio change / baseline,
    and the pairs in which the change is better."""
    ratios = [c / b for b, c in zip(baseline, change)]
    higher = better == "higher"
    return {"better": better,
            "baseline": side_summary(baseline), "change": side_summary(change),
            "ratios": ratios, "ratio_median": statistics.median(ratios),
            "ratio_min": min(ratios), "ratio_max": max(ratios),
            "wins": sum((c > b) if higher else (c < b) for b, c in zip(baseline, change))}


def pair_order(i):
    """The sides of pair i in the order they run: the baseline first in even pairs."""
    return ("baseline", "change") if i % 2 == 0 else ("change", "baseline")


def run_paired_sweep(baseline, change, pairs):
    """The paired section's `reference_sweep`: per worker count, `pairs` alternating pairs
    of reference sweeps, each pair's order flipped from the last."""
    workers = {}
    for w in SWEEP_WORKERS:
        runs = {"baseline": [], "change": []}
        for i in range(pairs):
            for side in pair_order(i):
                runs[side].append(sweep_run(baseline if side == "baseline" else change, w))
        workers[str(w)] = {
            metric: compare(*([run[j] for run in runs[side]] for side in runs), better)
            for j, (metric, better) in enumerate((("trials_per_s", "higher"),
                                                  ("peak_rss_mb", "lower")))}
    return {"command": f"nearris {' '.join(SWEEP)} --workers W, BLAS threads pinned to 1",
            "pairs": pairs, "first": [pair_order(i)[0] for i in range(pairs)],
            "workers": workers}


def run_paired(baseline, change, pairs):
    """The `paired` section: untraced runs of both checkouts, alternating, each pair's
    order flipped from the last, with every bytecode cache cleared before each run,
    then the baseline's traced records."""
    declared = json.loads((change / "BENCHMARK.json").read_text())
    runs = {"baseline": [], "change": []}
    first = []
    for i in range(pairs):
        first.append(pair_order(i)[0])
        for side in pair_order(i):
            root = baseline if side == "baseline" else change
            clear_bytecode(baseline)
            clear_bytecode(change)
            runs[side].append(run_benchmark(root, 0))
    clear_bytecode(change)
    baseline_trace1 = run_benchmark(baseline, 1)
    workloads = {}
    for wl in declared["workloads"]:
        workloads[wl["name"]] = {
            m["name"]: compare(*([r[wl["name"]]["result"]["metrics"][m["name"]]["value"]
                                  for r in runs[side]] for side in ("baseline", "change")),
                               m["better"])
            for m in declared["end_to_end"]}
    return {"baseline": str(baseline), "change": str(change),
            "command": " ".join(benchmark_command("<name>", 0)) + ", one process per workload",
            "pairs": pairs, "seconds": SECONDS, "first": first, "workloads": workloads,
            "baseline_trace1": baseline_trace1}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path, help="file to write, e.g. BENCH_<short-commit>.json")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                    help="checkout to measure (default: this repository)")
    ap.add_argument("--baseline", type=Path,
                    help="checkout to pair --root's untraced runs with, e.g. the parent commit")
    ap.add_argument("--pairs", type=int, default=PAIRS, help=f"pairs of runs (default {PAIRS})")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    if args.baseline is not None and not (args.baseline / "perfbench" / "run.py").is_file():
        ap.error(f"{args.baseline} has no perfbench/run.py")
    if args.pairs < PAIRS:
        ap.error(f"a paired section needs at least {PAIRS} pairs")
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
    if args.baseline is not None:
        doc["paired"] = run_paired(args.baseline.resolve(), root, args.pairs)
        doc["paired"]["reference_sweep"] = run_paired_sweep(args.baseline.resolve(), root,
                                                            SWEEP_PAIRS)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"bench file: {args.out} ({doc['tier1']['summary']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
