"""nearris benchmark runner.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-ref --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Each workload is a closed loop from one client: the runner starts the
public CLI (`nearris.cli.main`, through perfbench/launch.py) as a fresh
subprocess, waits for it to exit, checks its outputs, and starts the next
run, until the next iteration would overrun --seconds. Every subprocess
pins the BLAS and OpenMP thread counts to 1.

--trace 0 measures the end-to-end metrics; only the few calls that mark
set-up and work boundaries are recorded. --trace 1 alternates those runs
with fully traced ones and reports the per-layer metrics from the traced
runs. The last line of stdout is one JSON object; the lines above it give
the same numbers by name and unit, the run record and which checks ran,
and a full record goes to .perfbench/results/.
"""

import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench"
REFERENCE_DIR = BENCH_DIR / "reference"
SMALL_POOL_SCN = BENCH_DIR / "scenarios" / "small_pool.scn"

PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LIMIT_S = 150.0        # no iteration starts that would end past this; runs end within 180 s
REFERENCE_SEEDS = (1, 2)   # 1 is the scenarios' own master seed; 2 is the holdout
WORK_SPANS = ("harness.run_trial", "harness.heatmap", "harness.focusing_cut")

E2E = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

LAYER = (
    ("cli.load_scenario.s", "s"),
    ("cli.write_raster_csv.s", "s"),
    ("cli.write_raster_csv.mb", "MB"),
    ("cli.write_trials_csv.s", "s"),
    ("cli.write_aggregates_csv.s", "s"),
    ("codebook.build_hierarchy.s", "s"),
    ("codebook.build_hierarchy.calls", "count"),
    ("codebook.wide_illumination_phases.calls", "count"),
    ("geometry.element_positions.calls", "count"),
    ("geometry.element_positions.calls_per_trial", "count"),
    ("geometry.element_positions.calls_per_build", "count"),
    ("harness.build_trial_channels.p50_ms", "ms"),
    ("harness.build_trial_channels.p90_ms", "ms"),
    ("channel.assemble_channel.self_ms", "ms"),
    ("channel.assemble_channel.calls", "count"),
    ("beam_mgmt.received_snr.calls_per_trial", "count"),
    ("beam_mgmt.received_snr.self_us", "us"),
    ("beam_mgmt.end_to_end_channel.p50_us", "us"),
    ("beam_mgmt.hierarchical_search.p50_ms", "ms"),
    ("beam_mgmt.pilots_per_trial", "count"),
    ("beam_mgmt.search_hit_ratio", "ratio"),
    ("benchmarks.benchmark1_full_search.p50_ms", "ms"),
    ("benchmarks.benchmark2_full_focusing.p50_ms", "ms"),
    ("benchmarks.benchmark3_full_csi.p50_ms", "ms"),
    ("harness.run_trial.p50_ms", "ms"),
    ("harness.run_trial.p90_ms", "ms"),
    ("harness.run_trial.self_ms", "ms"),
    ("harness.aggregate.s", "s"),
    ("harness.heatmap.s", "s"),
    ("harness.focusing_cut.s", "s"),
    ("harness.pool.busy_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass(frozen=True)
class Workload:
    kind: str           # "sweep" or "raster"
    workers: int
    size: dict          # what one iteration runs; checks.expected_files reads it
    config: Path = None

    def commands(self, seed, out_dir):
        common = ["--seed", str(seed), "--out-dir", str(out_dir)]
        if self.config is not None:
            common += ["--config", str(self.config)]
        if self.kind == "sweep":
            return [["sweep-beta", *common, "--workers", str(self.workers),
                     "--trials", str(self.size["trials"])]]
        s = self.size
        return [["heatmap", *common, "--level", str(s["level"]), "--grid", str(s["grid"]),
                 "--cells", "all"],
                ["focus-cut", *common, "--axis", "both", "--steps", str(s["steps"])]]

    def field_evals(self):
        s = self.size
        return s["grid"] ** 2 * s["codewords"] + 2 * s["steps"]


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {
    "sweep-ref": Workload("sweep", workers=1, size={"betas": 7, "trials": 2, "schemes": 4}),
    "raster-ref": Workload("raster", workers=1,
                           size={"level": 4, "grid": 64, "codewords": 256, "steps": 801}),
    "sweep-small-pool": Workload("sweep", workers=2, size={"betas": 7, "trials": 10, "schemes": 3},
                                 config=SMALL_POOL_SCN),
}

SMOKE_SIZES = {
    "sweep-ref": {"betas": 7, "trials": 1, "schemes": 4},
    "raster-ref": {"level": 1, "grid": 4, "codewords": 16, "steps": 5},
    "sweep-small-pool": {"betas": 7, "trials": 1, "schemes": 3},
}


# --- running one iteration --------------------------------------------------

@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: object
    trial: str
    self_ns: int = 0

    @property
    def dur(self):
        return self.end - self.start

    def within(self, name):
        p = self.parent
        while p is not None:
            if p.name == name:
                return True
            p = p.parent
        return False


@dataclass
class Proc:
    start: int
    end: int
    returncode: int
    maxrss_mb: float
    spans: list
    absent: set
    span_files: int


@dataclass
class Iteration:
    level: str
    procs: list
    digest: str = ""
    raster_mb: float = 0.0
    check: checks.CheckResult = None
    elapsed_s: float = 0.0

    @property
    def ok(self):
        return all(p.returncode == 0 for p in self.procs)

    @property
    def spans(self):
        return [s for p in self.procs for s in p.spans]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env.update({k: "1" for k in PINNED_THREADS})
    return env


def load_spans(span_dir):
    """Spans of every process that wrote into span_dir, with parents linked."""
    out, absent = [], set()
    files = sorted(Path(span_dir).glob("spans-*.json"))
    for f in files:
        doc = json.loads(f.read_text())
        absent.update(doc["absent"])
        objs = []
        for name, start, end, parent, trial in doc["spans"]:
            objs.append(Span(name, start, end if end is not None else start,
                             objs[parent] if parent is not None else None, trial))
        for s in objs:
            s.self_ns += s.dur
            if s.parent is not None:
                s.parent.self_ns -= s.dur
        out.extend(objs)
    return out, absent, len(files)


def run_process(args, span_dir, level, log, deadline):
    span_dir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH_DIR / "launch.py"), str(span_dir), level, "--", *args]
    start = time.monotonic_ns()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log, stderr=log,
                            start_new_session=True)
    # on overrun, kill the CLI together with its pool workers
    killer = threading.Timer(max(1.0, deadline - time.monotonic()),
                             os.killpg, (proc.pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    spans, absent, n_files = load_spans(span_dir)
    # ru_maxrss is in KiB and covers the process and every child it reaped
    return Proc(start, end, proc.returncode, usage.ru_maxrss * 1024 / 1e6, spans, absent,
                n_files)


def output_digest(out_dir):
    h = hashlib.sha256()
    for p in sorted(Path(out_dir).iterdir()):
        if p.name != "manifest.json":
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def run_iteration(wl, seed, it_dir, level, deadline):
    out_dir = it_dir / "out"
    procs = []
    with open(it_dir.parent / f"{it_dir.name}.log", "w") as log:
        for k, args in enumerate(wl.commands(seed, out_dir)):
            procs.append(run_process(args, it_dir / f"spans{k}", level, log, deadline))
    it = Iteration(level, procs)
    if out_dir.is_dir():
        it.digest = output_digest(out_dir)
        it.raster_mb = sum(p.stat().st_size for p in out_dir.glob("heatmap_*.csv")) / 1e6
    return it


# --- metrics --------------------------------------------------------------

def _pct(xs, q):
    xs = sorted(xs)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def e2e_of(wl, it):
    """End-to-end numbers of one iteration, or None if any process failed."""
    if not it.ok:
        return None
    setup = 0.0
    for p in it.procs:
        starts = [s.start for s in p.spans if s.name in WORK_SPANS]
        if not starts:
            return None
        setup += (min(starts) - p.start) / 1e9
    spans = it.spans
    if wl.kind == "sweep":
        trials = [s for s in spans if s.name == "harness.run_trial"]
        campaign = [s.end for s in spans if s.name == "harness.run_campaign"]
        work_s = ((campaign or [max(s.end for s in trials)])[0]
                  - min(s.start for s in trials)) / 1e9
        throughput = len(trials) / work_s
    else:
        work_s = sum(s.dur for s in spans
                     if s.name in ("harness.heatmap", "harness.focusing_cut")) / 1e9
        throughput = wl.field_evals() / work_s
    return {
        "setup_s": setup,
        "wall_s": sum(p.end - p.start for p in it.procs) / 1e9,
        "throughput_per_s": throughput,
        "peak_rss_mb": max(p.maxrss_mb for p in it.procs),
    }


def layer_metrics(wl, traced, untraced, stats):
    """Per-layer numbers from the traced iterations (see README for the map)."""
    spans = [s for it in traced for s in it.spans]
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def durs(name, scale):
        return [s.dur / scale for s in by.get(name, [])]

    def selfs(name, scale):
        return [s.self_ns / scale for s in by.get(name, [])]

    def per_iteration(fn):
        return _median([fn(it) for it in traced])

    def count(it, name):
        return sum(1 for p in it.procs for s in p.spans if s.name == name)

    n_iter = len(traced)
    n_trials = len(by.get("harness.run_trial", []))
    n_builds = len(by.get("codebook.build_hierarchy", []))
    eps = by.get("geometry.element_positions", [])
    busy = []
    for it in traced:
        camp = [s for s in it.spans if s.name == "harness.run_campaign"]
        if camp:
            work = sum(s.dur for s in it.spans if s.name == "harness.run_trial")
            busy.append(work / (wl.workers * camp[0].dur))
    walls_t = [e["wall_s"] for e in filter(None, (e2e_of(wl, it) for it in traced))]
    walls_u = [e["wall_s"] for e in filter(None, (e2e_of(wl, it) for it in untraced))]
    ms, us, s_ = 1e6, 1e3, 1e9
    values = {
        "cli.load_scenario.s": _median(durs("cli.load_scenario", s_)),
        "cli.write_raster_csv.s": per_iteration(
            lambda it: sum(s.dur for s in it.spans if s.name == "cli.write_raster_csv") / s_),
        "cli.write_raster_csv.mb": per_iteration(lambda it: it.raster_mb),
        "cli.write_trials_csv.s": _median(durs("cli.write_trials_csv", s_)),
        "cli.write_aggregates_csv.s": _median(durs("cli.write_aggregates_csv", s_)),
        "codebook.build_hierarchy.s": _median(durs("codebook.build_hierarchy", s_)),
        "codebook.build_hierarchy.calls": per_iteration(
            lambda it: count(it, "codebook.build_hierarchy")),
        "codebook.wide_illumination_phases.calls":
            len(by.get("codebook.wide_illumination_phases", [])) / max(n_builds, 1),
        "geometry.element_positions.calls": per_iteration(
            lambda it: count(it, "geometry.element_positions")),
        "geometry.element_positions.calls_per_trial":
            sum(s.within("harness.run_trial") for s in eps) / max(n_trials, 1),
        "geometry.element_positions.calls_per_build":
            sum(s.within("codebook.build_hierarchy") for s in eps) / max(n_builds, 1),
        "harness.build_trial_channels.p50_ms": _median(durs("harness.build_trial_channels", ms)),
        "harness.build_trial_channels.p90_ms": _pct(durs("harness.build_trial_channels", ms), 0.9),
        "channel.assemble_channel.self_ms": _median(selfs("channel.assemble_channel", ms)),
        "channel.assemble_channel.calls":
            len(by.get("channel.assemble_channel", [])) / max(n_trials, 1),
        "beam_mgmt.received_snr.calls_per_trial":
            len(by.get("beam_mgmt.received_snr", [])) / max(n_trials, 1),
        "beam_mgmt.received_snr.self_us": _median(selfs("beam_mgmt.received_snr", us)),
        "beam_mgmt.end_to_end_channel.p50_us": _median(durs("beam_mgmt.end_to_end_channel", us)),
        "beam_mgmt.hierarchical_search.p50_ms": _median(durs("beam_mgmt.hierarchical_search", ms)),
        "beam_mgmt.pilots_per_trial": stats.get("pilots_per_trial", 0.0),
        "beam_mgmt.search_hit_ratio": stats.get("search_hit_ratio", 0.0),
        "benchmarks.benchmark1_full_search.p50_ms":
            _median(durs("benchmarks.benchmark1_full_search", ms)),
        "benchmarks.benchmark2_full_focusing.p50_ms":
            _median(durs("benchmarks.benchmark2_full_focusing", ms)),
        "benchmarks.benchmark3_full_csi.p50_ms": _median(durs("benchmarks.benchmark3_full_csi", ms)),
        "harness.run_trial.p50_ms": _median(durs("harness.run_trial", ms)),
        "harness.run_trial.p90_ms": _pct(durs("harness.run_trial", ms), 0.9),
        "harness.run_trial.self_ms": _median(selfs("harness.run_trial", ms)),
        "harness.aggregate.s": _median(durs("harness.aggregate", s_)),
        "harness.heatmap.s": _median(durs("harness.heatmap", s_)),
        "harness.focusing_cut.s": _median(durs("harness.focusing_cut", s_)),
        "harness.pool.busy_ratio": _median(busy),
        "trace.overhead_ratio": (_median(walls_t) / _median(walls_u) - 1.0
                                 if walls_t and walls_u else 0.0),
    }
    samples = {name: len(v) for name, v in by.items()}
    samples["iterations"] = n_iter
    return values, samples


# --- run record -------------------------------------------------------------

def _git(*args):
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def run_record(name, wl, seed, trace, smoke):
    import numpy
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    status = _git("status", "--porcelain")
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "size": wl.size,
        "workers": wl.workers,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "pinned_threads": {k: child_env()[k] for k in PINNED_THREADS},
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "start_method": multiprocessing.get_start_method(),
    }


# --- runner -----------------------------------------------------------------

def preflight():
    """Fail fast, before any result is printed, if the program is not there."""
    if not (ROOT / "src" / "nearris" / "cli.py").is_file():
        sys.exit(f"error: {ROOT / 'src' / 'nearris'} not found; run from a nearris checkout")
    # compiles the package's bytecode once, so no timed run pays for it
    done = subprocess.run([sys.executable, "-c", "import nearris.cli"], cwd=ROOT,
                          env=child_env(), timeout=120)
    if done.returncode != 0:
        sys.exit("error: nearris.cli does not import")


def run_workload(name, seed, seconds, trace, smoke):
    base = WORKLOADS[name]
    wl = dataclasses.replace(base, size=SMOKE_SIZES[name]) if smoke else base
    work = WORK_DIR / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t0 = time.monotonic()
    deadline = t0 + LIMIT_S + 20
    iterations, lengths = [], []
    while True:
        level = "full" if trace and len(iterations) % 2 == 1 else "coarse"
        it_dir = work / f"it{len(iterations)}"
        it_dir.mkdir()
        it = run_iteration(wl, seed, it_dir, level, deadline)
        first = iterations[0] if iterations else it
        if it is not first and it.digest == first.digest:
            shutil.rmtree(it_dir / "out", ignore_errors=True)
        it.elapsed_s = time.monotonic() - t0
        lengths.append(it.elapsed_s - (iterations[-1].elapsed_s if iterations else 0.0))
        iterations.append(it)
        per_it = _median(lengths)
        enough = len(iterations) >= (2 if trace else 3)
        if (enough and it.elapsed_s + per_it > seconds) or it.elapsed_s + per_it > LIMIT_S:
            break

    reference = None
    ref_path = REFERENCE_DIR / f"{name}-seed{seed}.tsv.gz"
    if not smoke and seed in REFERENCE_SEEDS and ref_path.is_file():
        reference = checks.load_reference(ref_path)
    results_by_digest = {}
    for k, it in enumerate(iterations):
        if not it.ok:
            it.check = checks.CheckResult(mode="process failed")
            it.check.attempted = sum(checks.expected_files(wl, work).values())
            it.check.fail(it.check.attempted, "a CLI process exited non-zero")
            continue
        if it.digest not in results_by_digest:
            results_by_digest[it.digest] = checks.check_outputs(
                wl, work / f"it{k}" / "out", reference)
        it.check = results_by_digest[it.digest]
    stats = next((it.check.stats for it in iterations if it.check.stats), {})
    attempted = sum(it.check.attempted for it in iterations)
    failed = sum(it.check.failed for it in iterations)
    absent = sorted(set().union(*(p.absent for it in iterations for p in it.procs)))

    untraced = [it for it in iterations if it.level == "coarse"]
    traced = [it for it in iterations if it.level == "full"]
    good = [e for e in (e2e_of(wl, it) for it in untraced) if e is not None]
    if trace:
        values, samples = layer_metrics(wl, traced, untraced, stats)
        units = dict(LAYER)
    else:
        values = {m: _median([e[m] for e in good]) for m, _ in E2E}
        samples = {"iterations": len(good)}
        units = dict(E2E)
    metrics = {m: {"value": values[m], "unit": units[m]} for m in units}
    result = {"correct": failed == 0 and len(good) == len(untraced) and bool(good),
              "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}

    record = run_record(name, wl, seed, trace, smoke)
    modes = sorted({it.check.mode for it in iterations})
    problems = {p for it in iterations for p in it.check.problems}
    if wl.workers > 1 and any(p.span_files < 2 for it in traced for p in it.procs):
        problems.add(f"{name} has parent-side spans only: pool worker spans were not written")
    extra = {}
    if not trace and good:
        work_rate = "trials_per_s" if wl.kind == "sweep" else "field_evals_per_s"
        extra[work_rate] = values["throughput_per_s"]
    extra["failed_ratio"] = failed / max(attempted, 1)
    full = {"record": record, "result": result, "checks": modes, "absent": absent,
            "samples": samples, "problems": sorted(problems),
            "iterations": [{"level": it.level, "ok": it.ok, "e2e": e2e_of(wl, it),
                            "procs": [{"wall_s": (p.end - p.start) / 1e9,
                                       "returncode": p.returncode,
                                       "maxrss_mb": p.maxrss_mb} for p in it.procs]}
                           for it in iterations]}
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out_file = results_dir / f"{name}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}.json"
    out_file.write_text(json.dumps(full, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print(f"# {name} seed={seed} trace={trace}: {len(iterations)} iterations "
          f"({len(untraced)} untraced, {len(traced)} traced), checks: {', '.join(modes)}")
    print(f"# record: {json.dumps(record)}")
    for m, v in metrics.items():
        print(f"#   {m:44s} {v['value']:.6g} {v['unit']}")
    for m, v in extra.items():
        print(f"#   {m:44s} {v:.6g}{' 1/s' if m.endswith('_per_s') else ''}")
    print(f"#   rows: {failed} failed of {attempted} attempted")
    if absent:
        print(f"#   absent: {', '.join(absent)}")
    for p in full["problems"]:
        print(f"#   problem: {p}")
    print(f"#   full record: {out_file.relative_to(ROOT)}")
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, invariant checks only (for the self-test)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    preflight()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, args.trace, args.smoke)
               for n in names}
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
