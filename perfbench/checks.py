"""Correctness checks on the CSV files one workload iteration writes.

A row is one data line of an output CSV: a trial x scheme SNR, an
aggregate, or one raster or cut point. Every run gets the invariant
checks. At a seed with a recorded reference (see record_reference.py),
rows are also compared with the reference: numeric fields must agree to
one unit in the sixth significant digit as the CLI prints them (`%.6g`),
and every other field, pilots and winners included, must match exactly.

The reference holds every row of the sweep outputs, the composite raster
and the focus cuts, and a fixed sample of 16 rows from each per-cell
raster: the 256 cell rasters hold a million rows, too many to commit.
The other cell rows are checked by the invariants only (finite values,
row counts, and the composite being the pointwise max of the cells).
"""

import gzip
import math
from dataclasses import dataclass, field
from pathlib import Path

PILOTS = 24            # 16 + 4 + 2 + 2 with codebook levels 4x4, 8x8, 8x16, 8x32
PROPOSED = "proposed"
B1 = "B1_full_codebook"
CELL_SAMPLE_STRIDE = 256


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    mode: str = "invariants"
    problems: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def fail(self, n, what):
        if n:
            self.failed += n
            self.problems.append(f"{n} row(s): {what}")


def read_rows(path):
    """Data lines of a CLI CSV file: the comment and header lines are dropped."""
    lines = Path(path).read_text().splitlines()
    return [ln for ln in lines if not ln.startswith("#")][1:]


def _sixth_digit_unit(x):
    return 0.0 if x == 0 else 10.0 ** (math.floor(math.log10(abs(x))) - 5)


def _as_float(token):
    try:
        return float(token)
    except ValueError:
        return None


def rows_match(row, ref):
    """Field-wise comparison under the six-significant-digit rule."""
    a, b = row.split(","), ref.split(",")
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        fx, fy = _as_float(x), _as_float(y)
        if fx is None or fy is None or not (math.isfinite(fx) and math.isfinite(fy)):
            if x != y:
                return False
        elif abs(fx - fy) > _sixth_digit_unit(fy) * (1 + 1e-9):
            return False
    return True


def expected_files(wl, out_dir):
    """{file name: expected row count} for one iteration of a workload."""
    s = wl.size
    if wl.kind == "sweep":
        return {"trials.csv": s["betas"] * s["trials"] * s["schemes"],
                "aggregates.csv": s["betas"] * s["schemes"]}
    files = {f"heatmap_level{s['level']}_composite.csv": s["grid"] ** 2,
             "focus_cut_x.csv": s["steps"], "focus_cut_y.csv": s["steps"]}
    cells = sorted(p.name for p in Path(out_dir).glob(f"heatmap_level{s['level']}_cell_*.csv"))
    if len(cells) != s["codewords"]:
        cells += [f"missing_cell_{i}.csv" for i in range(s["codewords"] - len(cells))]
    files.update({name: s["grid"] ** 2 for name in cells})
    return files


def _is_cell(name):
    return "_cell_" in name


def reference_rows(wl, out_dir):
    """The rows a reference keeps: (file, row index, row text)."""
    keep = []
    for ordinal, name in enumerate(sorted(expected_files(wl, out_dir))):
        for i, row in enumerate(read_rows(Path(out_dir) / name)):
            if not _is_cell(name) or i % CELL_SAMPLE_STRIDE == ordinal % CELL_SAMPLE_STRIDE:
                keep.append((name, i, row))
    return keep


def write_reference(path, rows):
    with gzip.open(path, "wt") as fh:
        for name, i, row in rows:
            fh.write(f"{name}\t{i}\t{row}\n")


def load_reference(path):
    with gzip.open(path, "rt") as fh:
        return [(name, int(i), row) for name, i, row
                in (ln.rstrip("\n").split("\t") for ln in fh)]


def _sweep_invariants(rows, res):
    """Failing row indices of trials.csv; also fills pilots and hit-ratio stats."""
    bad = set()
    trials = {}
    for i, row in enumerate(rows):
        f = row.split(",", 8)
        if len(f) != 9 or not math.isfinite(_as_float(f[3]) or math.nan):
            bad.add(i)
            continue
        trials.setdefault((f[1], f[0]), {})[f[2]] = (i, float(f[3]), f[7])
    pilots = []
    hits = 0
    for schemes in trials.values():
        if PROPOSED not in schemes or B1 not in schemes:
            bad.update(i for i, _, _ in schemes.values())
            continue
        i_p, snr_p, pil = schemes[PROPOSED]
        i_b, snr_b, _ = schemes[B1]
        if pil != str(PILOTS):
            bad.add(i_p)
        if snr_p > snr_b:
            bad.update((i_p, i_b))
        pilots.append(int(pil) if pil.isdigit() else 0)
        hits += snr_p == snr_b
    if trials:
        res.stats["pilots_per_trial"] = sum(pilots) / len(trials)
        res.stats["search_hit_ratio"] = hits / len(trials)
    return bad


def _finite_invariants(rows, text_fields=0):
    """Rows whose fields after the first `text_fields` are not all finite numbers."""
    bad = set()
    for i, row in enumerate(rows):
        vals = [_as_float(t) for t in row.split(",")[text_fields:]]
        if not vals or any(v is None or not math.isfinite(v) for v in vals):
            bad.add(i)
    return bad


def check_outputs(wl, out_dir, reference=None):
    """Check one iteration's outputs; `reference` is load_reference's list or None."""
    res = CheckResult(mode="reference+invariants" if reference is not None else "invariants")
    out_dir = Path(out_dir)
    files = expected_files(wl, out_dir)
    present = {}
    for name, n_expected in files.items():
        path = out_dir / name
        rows = read_rows(path) if path.is_file() else []
        res.attempted += max(n_expected, len(rows))
        res.fail(abs(n_expected - len(rows)), f"{name} has {len(rows)} rows, expected {n_expected}")
        present[name] = rows

    bad = {name: set() for name in files}
    if wl.kind == "sweep":
        bad["trials.csv"] = _sweep_invariants(present["trials.csv"], res)
        bad["aggregates.csv"] = _finite_invariants(present["aggregates.csv"], text_fields=1)
    else:
        for name, rows in present.items():
            bad[name] = _finite_invariants(rows)
        composite = present[f"heatmap_level{wl.size['level']}_composite.csv"]
        cells = [rows for name, rows in present.items() if _is_cell(name)]
        for i, row in enumerate(composite):
            column = [_as_float(c[i].rsplit(",", 1)[-1]) for c in cells if i < len(c)]
            if not column or None in column or _as_float(row.rsplit(",", 1)[-1]) != max(column):
                bad[f"heatmap_level{wl.size['level']}_composite.csv"].add(i)

    if reference is not None:
        for name, i, ref in reference:
            rows = present.get(name)
            if rows is None:
                res.fail(1, f"reference file {name} not expected")
            elif i < len(rows) and not rows_match(rows[i], ref):
                bad[name].add(i)
    for name, rows in bad.items():
        res.fail(len(rows), f"{name} rows failing checks, first {sorted(rows)[:3]}")
    return res
