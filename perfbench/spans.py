"""In-memory span recorder that wraps nearris functions by module attribute.

The benchmark records spans from its own files: nothing inside the
package is changed. `install` replaces each named function with a wrapper
in every loaded `nearris.*` module namespace that holds a reference to it,
so calls made through `from .x import f` aliases are seen too.

Spans stay in memory and are written as JSON when the process ends. Pool
workers forked from a traced process start with an empty span list and
write their own file at worker exit, through a multiprocessing finalizer
registered after the fork (multiprocessing clears finalizers inherited
from the parent) that runs when a worker leaves its loop.

All times come from CLOCK_MONOTONIC (`time.monotonic_ns`), which is shared
by every process on a Linux host, so spans from workers line up with the
parent's and with the clock of run.py.
"""

import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import time

# (span name, module, attribute); a name may cover more than one function
LAYERS = (
    ("cli.load_scenario", "nearris.cli", "load_scenario"),
    ("cli.write_trials_csv", "nearris.cli", "write_trials_csv"),
    ("cli.write_aggregates_csv", "nearris.cli", "write_aggregates_csv"),
    ("cli.write_raster_csv", "nearris.cli", "write_raster_csv"),
    ("codebook.build_hierarchy", "nearris.codebook", "build_hierarchy"),
    ("codebook.wide_illumination_phases", "nearris.codebook", "wide_illumination_phases"),
    ("geometry.element_positions", "nearris.geometry", "RisGeometry.element_positions"),
    ("geometry.element_positions", "nearris.geometry", "PlanarArrayGeometry.element_positions"),
    ("harness.run_campaign", "nearris.harness", "run_campaign"),
    ("harness.run_trial", "nearris.harness", "run_trial"),
    ("harness.build_trial_channels", "nearris.harness", "build_trial_channels"),
    ("channel.assemble_channel", "nearris.channel", "assemble_channel"),
    ("beam_mgmt.hierarchical_search", "nearris.beam_mgmt", "hierarchical_search"),
    ("beam_mgmt.received_snr", "nearris.beam_mgmt", "received_snr"),
    ("beam_mgmt.end_to_end_channel", "nearris.beam_mgmt", "end_to_end_channel"),
    ("benchmarks.benchmark1_full_search", "nearris.benchmarks", "benchmark1_full_search"),
    ("benchmarks.benchmark2_full_focusing", "nearris.benchmarks", "benchmark2_full_focusing"),
    ("benchmarks.benchmark3_full_csi", "nearris.benchmarks", "benchmark3_full_csi"),
    ("harness.aggregate", "nearris.harness", "aggregate"),
    ("harness.heatmap", "nearris.harness", "heatmap"),
    ("harness.focusing_cut", "nearris.harness", "focusing_cut"),
)

# Untraced runs record only these: they mark where set-up ends and where
# the measured work starts and stops, at a few calls per run.
COARSE = frozenset({"harness.run_campaign", "harness.run_trial",
                    "harness.heatmap", "harness.focusing_cut"})

_TRIAL_SPAN = "harness.run_trial"


class Tracer:
    """Spans of one process: [name, start_ns, end_ns, parent index, trial id]."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.spans = []
        self.absent = []
        self._stack = []
        self._trial = None
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self):
        self.spans = []
        self._stack = []
        self._trial = None
        multiprocessing.util.Finalize(self, self.dump, exitpriority=100)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_trial = self._trial
            if name == _TRIAL_SPAN:
                # run_trial(scenario, beta_db, trial, ...)
                self._trial = f"{args[1]:g}/{args[2]}"
            parent = self._stack[-1] if self._stack else None
            span = [name, time.monotonic_ns(), None, parent, self._trial]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic_ns()
                self._stack.pop()
                self._trial = outer_trial

        return wrapper

    def dump(self):
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "absent": self.absent, "spans": self.spans}, fh)


def install(tracer, names):
    """Wrap every layer in `names`; names whose functions are gone go to tracer.absent."""
    importlib.import_module("nearris.cli")  # imports every package module
    modules = [m for key, m in sys.modules.items()
               if key == "nearris" or key.startswith("nearris.")]
    found = set()
    for name, module, attr in LAYERS:
        if name not in names:
            continue
        try:
            owner = importlib.import_module(module)
        except ModuleNotFoundError:
            continue
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None)
        if fn is None:
            continue
        found.add(name)
        wrapper = tracer.wrap(name, fn)
        if path:
            setattr(owner, leaf, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
    tracer.absent = sorted(set(names) - found)
