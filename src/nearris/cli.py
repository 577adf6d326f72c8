"""Command-line front end: scenario files, result serialization, subcommands.

Scenario files are YAML with nested sections and explicit units (GHz,
meters, dBm, dB). Every run writes a JSON manifest next to its outputs
with the scenario hash, seed, tool version, and command line; numeric
output files (CSV) are byte-identical when re-run with the same inputs.
"""

import argparse
import dataclasses
import hashlib
import json
import re
import sys
import time
import warnings
from pathlib import Path as FsPath

import numpy as np
import yaml

from . import __version__
from . import harness
from .benchmarks import PROPOSED
from .harness import Scenario, farfield_table, is_finite_real

FORMAT_VERSION = 1


# YAML section/key -> Scenario field, or a tuple of fields for a key that holds a list;
# Scenario checks every value, and carrier_ghz (x1e9) is the one unit conversion
_SCHEMA = {
    "carrier_ghz": "carrier_hz",
    "bs": {"center": "bs_center", "array": ("bs_n_x", "bs_n_z"),
           "spacing_wavelengths": "bs_spacing_wl"},
    "ris": {"center": "ris_center", "size_m": ("ris_size_y_m", "ris_size_z_m"),
            "spacing_wavelengths": "ris_spacing_wl"},
    "blockage": {"center": "blockage_center", "extent_m": ("blockage_r_x", "blockage_r_y"),
                 "loss_db": "blockage_loss_db"},
    "mu": {"antennas": "n_mu", "spacing_wavelengths": "mu_spacing_wl"},
    "paths": {"per_link": ("paths_direct", "paths_bs_ris", "paths_ris_mu"),
              "scatterer_box": ("scatterer_box_min", "scatterer_box_max"),
              "beta_semantics": "beta_semantics"},
    "rf": {"transmit_power_dbm": "p_bs_dbm", "noise_psd_dbm_per_hz": "noise_psd_dbm_hz",
           "bandwidth_hz": "bandwidth_hz", "noise_figure_db": "noise_figure_db"},
    "codebook": {"levels": "codebook_levels", "alpha": "codebook_alpha"},
    "campaign": {"beta_list_db": "beta_list_db", "trials": "trials",
                 "master_seed": "master_seed", "workers": "workers", "average": "average"},
    "illumination": {"reference_power_w": "illum_reference_power_w", "grid": "illum_grid"},
}


class _Loader(yaml.SafeLoader):
    """Safe YAML loading that also reads 1e8 and 1.0e8 as floats, as YAML 1.2 does."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def load_scenario(path, strict=True):
    """Parse a scenario file into a Scenario, whose checks raise ValueError naming bad fields.

    A file that is not YAML, or whose format_version is present and not the
    integer FORMAT_VERSION, raises a ValueError naming the file.
    """
    with open(path) as fh:
        try:
            raw = yaml.load(fh, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ValueError(f"scenario file {path} is not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"scenario file {path} is not a mapping")
    raw = dict(raw)
    version = raw.pop("format_version", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:  # not a bool, float or string
        raise ValueError(f"scenario file {path}: format_version must be {FORMAT_VERSION}, "
                         f"got {version!r}")
    if "carrier_ghz" not in raw:
        raise ValueError("scenario file missing required key: carrier_ghz")
    kwargs = {}
    for key, value in raw.items():
        spec = _SCHEMA.get(key)
        if isinstance(spec, dict):
            if not isinstance(value, dict):
                raise ValueError(f"scenario section {key} must be a mapping")
            entries = [(f"{key}.{sub}", spec.get(sub), v) for sub, v in value.items()]
        else:
            entries = [(key, spec, value)]
        for where, target, v in entries:
            if target is None:
                if strict:
                    raise ValueError(f"unknown scenario key: {where}")
                warnings.warn(f"ignoring unknown scenario key: {where}")
            elif isinstance(target, tuple):
                if not isinstance(v, list) or len(v) != len(target):
                    raise ValueError(f"scenario key {where}: expected {len(target)} values")
                kwargs.update(zip(target, v))
            else:
                kwargs[target] = v
    if is_finite_real(kwargs["carrier_hz"]):
        kwargs["carrier_hz"] *= 1e9
    return Scenario(**kwargs)


def save_scenario(scenario, path):
    """Write a scenario back to YAML; load(save(x)) is field-identical to x.

    The file gives the carrier in GHz, so a carrier_hz f with (f / 1e9) * 1e9 != f
    would load as another carrier: it raises a ValueError and writes no file.
    """
    values = scenario.to_dict()
    values["carrier_hz"] /= 1e9
    if values["carrier_hz"] * 1e9 != scenario.carrier_hz:
        raise ValueError(f"carrier_hz={scenario.carrier_hz!r} does not load back from GHz exactly")

    def entry(target):
        return [values[name] for name in target] if isinstance(target, tuple) else values[target]

    doc = {"format_version": FORMAT_VERSION}
    for key, spec in _SCHEMA.items():
        doc[key] = ({sub: entry(t) for sub, t in spec.items()} if isinstance(spec, dict)
                    else entry(spec))
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def scenario_hash(scenario):
    canon = json.dumps(scenario.to_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def default_scenario_path():
    return FsPath(__file__).parent / "scenarios" / "reference.scn"


def _fmt(x):
    return f"{x:.6g}"


def write_manifest(out_dir, scenario, argv, extra=None):
    man = {
        "format_version": FORMAT_VERSION,
        "tool": f"nearris {__version__}",
        "command_line": list(argv),
        "scenario_sha256": scenario_hash(scenario),
        "master_seed": scenario.master_seed,
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **(extra or {}),
    }
    p = FsPath(out_dir) / "manifest.json"
    with open(p, "w") as fh:
        json.dump(man, fh, indent=2)
        fh.write("\n")
    return p


def _write_csv(path, header, rows):
    """The format line, the header and one line per row string, newline-terminated."""
    FsPath(path).write_text("\n".join([f"# format_version={FORMAT_VERSION}", header, *rows]) + "\n")


def write_trials_csv(path, results):
    rows = []
    for r in results:
        win = "|".join(f"{wx},{wy}" for wx, wy in r.winners)
        mu = ",".join(map(_fmt, r.mu_position))
        for scheme in sorted(r.snr_db):
            end = f"{r.pilots},{win}" if scheme == PROPOSED else ","  # pilots,winners
            rows.append(f"{r.trial},{_fmt(r.beta_db)},{scheme},{_fmt(r.snr_db[scheme])},{mu},{end}")
    _write_csv(path, "trial,beta_db,scheme,snr_db,mu_x,mu_y,mu_z,pilots,winners", rows)


def write_aggregates_csv(path, rows):
    _write_csv(path, "scheme,beta_db,mean_snr_db,std_snr_db,n_trials",
               (f"{a.scheme},{_fmt(a.beta_db)},{_fmt(a.mean_snr_db)},{_fmt(a.std_snr_db)},"
                f"{a.n_trials}" for a in rows))


def write_raster_csv(path, xs, ys, grid):
    """One x,y,snr line per grid point, x-major; each coordinate is formatted once."""
    ys_fmt = [_fmt(y) for y in ys]
    prefixes = [f"{x},{y}," for x in map(_fmt, xs) for y in ys_fmt]
    _write_csv(path, "x_m,y_m,snr_db",
               (p + _fmt(v) for p, v in zip(prefixes, grid.ravel().tolist())))


def write_cut_csv(path, deltas, snr_db):
    _write_csv(path, "displacement_m,snr_db",
               (f"{_fmt(d)},{_fmt(s)}" for d, s in zip(deltas, snr_db)))


def write_codebook_json(path, scenario, codebook, level_indices):
    """The codewords of the 0-based levels in level_indices, phases wrapped to [0, 2*pi)."""
    doc = {
        "format_version": FORMAT_VERSION,
        "alpha": scenario.codebook_alpha,
        "area": {
            "center": list(scenario.blockage_center),
            "extent_m": [scenario.blockage_r_x, scenario.blockage_r_y],
        },
        "element_order": "row-major in (q_y, q_z)",
        "phase_unit": "radians in [0, 2*pi)",
        "levels": [],
    }
    for li in level_indices:
        lev = codebook[li]
        doc["levels"].append({
            "level": li + 1,
            "shape": list(lev.shape[:2]),
            "codewords": {
                f"{wx},{wy}": [round(float(p), 9) for p in np.mod(lev[wx, wy], 2 * np.pi)]
                for wx, wy in np.ndindex(lev.shape[:2])
            },
        })
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def write_channel_set(path, channels):
    """Binary ChannelSet container: named complex arrays, row-major."""
    np.savez(path, format_version=np.int64(FORMAT_VERSION),
             h=channels.h, h1=channels.h1, h2=channels.h2)


def write_farfield_csv(path, rows):
    _write_csv(path, "size_L_m,aperture_D_m,far_field_distance_m",
               (",".join(map(_fmt, row)) for row in rows))


# --- subcommand implementations ------------------------------------------


def _load(args):
    """The scenario file with the command-line overrides applied; Scenario checks them."""
    path = args.config or default_scenario_path()
    scenario = load_scenario(path, strict=not args.lax)
    overrides = {
        "master_seed": args.seed,
        "trials": getattr(args, "trials", None),
        "workers": getattr(args, "workers", None),
        "beta_list_db": [args.beta] if "beta" in args else None,
        "illum_grid": getattr(args, "grid", None),
    }
    return dataclasses.replace(scenario, **{k: v for k, v in overrides.items() if v is not None})


def _level_index(scenario, level):
    """0-based index of a 1-based --level, checked against the scenario's codebook depth."""
    depth = len(scenario.codebook_levels)
    if not 1 <= level <= depth:
        raise ValueError(f"level {level} out of range 1..{depth}")
    return level - 1


def _cell(token, shape):
    """One --cells token 'wx,wy' as a cell of a level of the given shape."""
    try:
        wx, wy = map(int, token.split(","))
    except ValueError:
        raise ValueError(f"--cells: {token!r} is not wx,wy") from None
    if not (0 <= wx < shape[0] and 0 <= wy < shape[1]):
        raise ValueError(f"--cells: {(wx, wy)} is outside the level's {shape[0]}x{shape[1]} grid")
    return wx, wy


def _out_dir(args):
    d = FsPath(args.out_dir)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _campaign(args):
    """Load the scenario, run `harness.sweep_beta` and write trials.csv and aggregates.csv;
    return the scenario, the output directory, the aggregate rows and the manifest's run record."""
    scenario = _load(args)
    out = _out_dir(args)
    start = time.perf_counter()
    results, rows = harness.sweep_beta(scenario)
    wall_s = time.perf_counter() - start
    write_trials_csv(out / "trials.csv", results)
    write_aggregates_csv(out / "aggregates.csv", rows)
    run = {"numpy_version": np.__version__, "workers": scenario.workers,
           "trials": len(results), "campaign_wall_s": wall_s,
           "trials_per_s": len(results) / wall_s}
    return scenario, out, rows, run


def cmd_simulate(args, argv):
    scenario, out, rows, run = _campaign(args)
    (beta,) = scenario.beta_list_db
    if args.dump_channels:
        channels, _ = harness.build_trial_channels(scenario, beta, 0)
        write_channel_set(out / "channels_trial0.npz", channels)
    write_manifest(out, scenario, argv,
                   extra={"subcommand": "simulate", "beta_db": beta, **run})
    print(f"simulate: {run['trials']} trials at beta={beta:g} dB -> {out}")
    for a in rows:
        print(f"  {a.scheme:>16s}: mean {a.mean_snr_db:7.2f} dB  (std {a.std_snr_db:.2f})")
    return 0


def cmd_sweep_beta(args, argv):
    scenario, out, _, run = _campaign(args)
    write_manifest(out, scenario, argv, extra={"subcommand": "sweep-beta", **run})
    print(f"sweep-beta: {run['trials']} trials over beta={list(scenario.beta_list_db)} -> {out}")
    return 0


def cmd_heatmap(args, argv):
    scenario = _load(args)
    level = _level_index(scenario, args.level)
    shape = scenario.codebook_levels[level]
    if args.cells in ("all", "composite"):
        cells = list(np.ndindex(*shape)) if args.cells == "all" else []
    else:
        cells = [_cell(token, shape) for token in args.cells.split(";")]  # checked before output
    out = _out_dir(args)
    hm = harness.heatmap(scenario, level)
    write_raster_csv(out / f"heatmap_level{args.level}_composite.csv", hm.xs, hm.ys, hm.composite)
    for wx, wy in cells:
        write_raster_csv(out / f"heatmap_level{args.level}_cell_{wx}_{wy}.csv",
                         hm.xs, hm.ys, hm.per_cell[wx, wy])
    write_manifest(out, scenario, argv, extra={"subcommand": "heatmap", "level": args.level})
    print(f"heatmap: level {args.level} peak {hm.composite.max():.2f} dB -> {out}")
    return 0


def cmd_focus_cut(args, argv):
    scenario = _load(args)
    out = _out_dir(args)
    axes = ["x", "y"] if args.axis == "both" else [args.axis]
    cuts = {ax: harness.focusing_cut(scenario, ax, args.range, args.steps) for ax in axes}
    for ax, (deltas, snr) in cuts.items():  # every cut checked before output
        write_cut_csv(out / f"focus_cut_{ax}.csv", deltas, snr)
        print(f"focus-cut {ax}: peak {snr.max():.2f} dB at "
              f"{deltas[int(np.argmax(snr))]:+.3f} m -> {out}")
    write_manifest(out, scenario, argv, extra={"subcommand": "focus-cut"})
    return 0


def cmd_codebook_dump(args, argv):
    scenario = _load(args)
    sel = (range(len(scenario.codebook_levels)) if args.level is None
           else [_level_index(scenario, args.level)])
    out = _out_dir(args)
    codebook = scenario.build_codebook()
    write_codebook_json(out / "codebook.json", scenario, codebook, sel)
    write_manifest(out, scenario, argv, extra={"subcommand": "codebook dump"})
    total = sum(wx * wy for wx, wy in (scenario.codebook_levels[i] for i in sel))
    print(f"codebook dump: {total} codewords -> {out / 'codebook.json'}")
    return 0


def cmd_farfield(args, argv):
    scenario = _load(args) if args.config else Scenario(carrier_hz=args.freq_ghz * 1e9)
    rows = farfield_table(scenario.carrier_hz, [float(s) for s in args.sizes.split(",")])
    out = _out_dir(args)
    write_farfield_csv(out / "farfield.csv", rows)
    write_manifest(out, scenario, argv, extra={"subcommand": "farfield"})
    print(f"{'L (m)':>8s} {'D (m)':>8s} {'d_F (m)':>10s}")
    for size, d_ap, d_f in rows:
        print(f"{size:8.3f} {d_ap:8.4f} {d_f:10.2f}")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="nearris",
        description="Near-field RIS link simulator: codebooks, beam management, Monte Carlo SNR",
    )
    ap.add_argument("--version", action="version", version=f"nearris {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, trials=False):
        p.add_argument("--config", help="scenario file (default: bundled reference scenario)")
        p.add_argument("--seed", type=int, help="override the scenario master seed")
        p.add_argument("--out-dir", default="out", help="output directory (default: ./out)")
        p.add_argument("--lax", action="store_true",
                       help="warn instead of failing on unknown scenario keys")
        if trials:
            p.add_argument("--trials", type=int, help="override the scenario trial count")
            p.add_argument("--workers", type=int, help="override the scenario worker count")

    p = sub.add_parser("simulate", help="single-beta Monte Carlo campaign")
    common(p, trials=True)
    p.add_argument("--beta", type=float, default=10.0,
                   help="LOS/NLOS power ratio in dB (default 10)")
    p.add_argument("--dump-channels", action="store_true",
                   help="also write trial 0's channel matrices (npz)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep-beta", help="campaign over the scenario's beta grid")
    common(p, trials=True)
    p.set_defaults(func=cmd_sweep_beta)

    p = sub.add_parser("heatmap", help="illumination SNR rasters for one codebook level")
    common(p)
    p.add_argument("--level", type=int, default=4, help="codebook level, 1-based (default 4)")
    p.add_argument("--grid", type=int, help="override the scenario's raster points per axis")
    p.add_argument("--cells", default="composite",
                   help="'composite' (default), 'all', or 'wx,wy[;wx,wy...]'")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("focus-cut", help="SNR vs displacement under full focusing")
    common(p)
    p.add_argument("--axis", choices=["x", "y", "both"], default="both")
    p.add_argument("--range", type=float, default=8.0, help="half-range in meters (default 8)")
    p.add_argument("--steps", type=int, default=801)
    p.set_defaults(func=cmd_focus_cut)

    p = sub.add_parser("codebook", help="codebook utilities")
    csub = p.add_subparsers(dest="codebook_command", required=True)
    pd = csub.add_parser("dump", help="export codeword phase vectors to JSON")
    common(pd)
    pd.add_argument("--level", type=int, help="restrict to one level, 1-based")
    pd.set_defaults(func=cmd_codebook_dump)

    p = sub.add_parser("farfield", help="far-field distance table over aperture sizes")
    common(p)
    p.add_argument("--freq-ghz", type=float, default=28.0,
                   help="carrier frequency when no --config is given (default 28)")
    p.add_argument("--sizes", default="0.05,0.1,0.2,0.3,0.5,0.75,1.0",
                   help="comma-separated square RIS side lengths in meters")
    p.set_defaults(func=cmd_farfield)
    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args, ["nearris"] + argv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
