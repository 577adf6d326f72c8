"""RIS phase-shift codewords: point focusing, wide illumination, hierarchy.

A codeword is a length-Q vector of phases (radians) in the canonical RIS
element order. The generalized reflection coefficient (GRCS) aggregates
the per-element contributions between a source point and an observation
point; focusing codewords make every summand real-positive at the target,
wide-illumination codewords spread the reflected energy over one cell of
a rectangular blockage area.

A hierarchy is one `Codebook` record, whose levels and alpha `check_levels`
checks. Every reader asks it for codewords by (level depth, cells), a row
of cells at a time with `wide_illumination_phases`: trials and the heatmap
read phasors from `cell_phasors` (the finest level's table, the few coarser
codewords that a search sounds, on demand, and the one level a heatmap
draws), and `codebook dump` writes phases.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import RisGeometry, cis, hypot3

_TWO_PI = 2.0 * np.pi


def unit_cell_factor(geom, lambda_m):
    """Per-element reflection gain g = 4*pi*d_y*d_z/lambda^2 (pi at half-wavelength spacing)."""
    return 4.0 * np.pi * geom.d_y * geom.d_z / lambda_m**2


@dataclass(frozen=True, eq=False)
class Codebook:
    """What every codeword is computed from: level shapes (big_w_x, big_w_y), coarsest
    first, width alpha, the rectangle centered at the point p_b with extents r_x by r_y
    at the fixed height p_b[2], the RIS geometry, the source point p_i and the wavelength."""

    levels: tuple
    alpha: float
    p_b: tuple
    r_x: float
    r_y: float
    geom: RisGeometry
    p_i: tuple
    lambda_m: float

    def __post_init__(self):
        if self.r_x <= 0 or self.r_y <= 0:
            raise ValueError("blockage extents must be positive")


def focusing_phases(p_i, p_target, geom, lambda_m):
    """Phase profile that maximizes |GRCS| between p_i and p_target, attaining g*Q.

    omega_n = -k*(|p_i - p_n| + |p_target - p_n|): each summand of the
    reflection sum becomes real-positive at the target point.
    """
    k = _TWO_PI / lambda_m
    d, d_target = geom.distances([p_i, p_target])
    d += d_target
    return -k * d


def _image_planes(y, z, codebook, depth, w_x, w_y):
    """x and y of the image points, in the blockage plane, of elements at y and z for
    cells of level depth: S + z.shape and S + y.shape for cell indices broadcasting to S.

    Cell (w_x, w_y) of the level's big_w_x by big_w_y partition is anchored at
    its center, offset t_w = (w + 1/2)*R/W - R/2 from the area center; the
    element's (y, z), taken relative to the RIS center, are scaled by
    Delta_t = alpha*R_t/W_t over the aperture so one cell is painted by the
    whole surface: x varies with the cell and z alone, y with the cell and y
    alone. alpha = 0 collapses the image to the cell center.
    """
    big_w_x, big_w_y = codebook.levels[depth]
    w_x, w_y = np.broadcast_arrays(w_x, w_y)
    if not (np.all((0 <= w_x) & (w_x < big_w_x)) and np.all((0 <= w_y) & (w_y < big_w_y))):
        raise ValueError(f"cell index ({w_x}, {w_y}) out of range for ({big_w_x}, {big_w_y})")
    if codebook.alpha < 0:
        raise ValueError("alpha must be >= 0")
    l_y, l_z = codebook.geom.aperture
    t_x = (w_x[..., None] + 0.5) * codebook.r_x / big_w_x - codebook.r_x / 2.0
    t_y = (w_y[..., None] + 0.5) * codebook.r_y / big_w_y - codebook.r_y / 2.0
    delta_x = codebook.alpha * codebook.r_x / big_w_x
    delta_y = codebook.alpha * codebook.r_y / big_w_y
    rel_y = y - codebook.geom.center[1]
    rel_z = z - codebook.geom.center[2]
    x = delta_x / l_z * rel_z + t_x
    x += codebook.p_b[0]
    y = delta_y / l_y * rel_y + t_y
    y += codebook.p_b[1]
    return x, y


def wide_illumination_phases(codebook, depth, w_x, w_y):
    """Codeword spreading the reflection over cell (w_x, w_y) of level depth.

    omega_n = -k*(|M(p_n) - p_n| - |M(p_n) - p_ris| + |p_i - p_n|), with M the
    per-element image point of `_image_planes`. Each element focuses on its own
    image point; the -|M - p_ris| term keeps the profile phase-continuous across
    the aperture. Integer-array cell indices broadcasting to S give S + (Q,).
    The image points' x varies with the cell and the element's z only, and
    their y with the cell and the element's y only, so both `hypot3` calls
    square their x terms on S + (1, q_z) and their y terms on S + (q_y, 1)
    grids and sum them in `distance`'s order: the bits of the formula over
    S + (Q, 3) image points, with no such array and no per-element positions.
    Non-finite phases raise a ValueError, with no overflow warning first.
    """
    geom = codebook.geom
    x, ys, zs = geom.axes()
    m_x, m_y = _image_planes(ys, zs, codebook, depth, w_x, w_y)
    m_x, m_y = m_x[..., None, :], m_y[..., :, None]
    m_z = codebook.p_b[2]
    c = geom.center
    k = _TWO_PI / codebook.lambda_m
    with np.errstate(all="ignore"):  # an overflow gives inf or nan phases, rejected below
        d = hypot3(m_x - x, m_y - ys[:, None], m_z - zs)
        d -= hypot3(m_x - c[0], m_y - c[1], m_z - c[2])
        d = d.reshape(*d.shape[:-2], geom.q)
        d += geom.distances([codebook.p_i])[0]
        d *= -k
    if not np.isfinite(d).all():
        raise ValueError(f"codebook: level {depth + 1} has non-finite phases, past float range")
    return d


def children(parent_shape, child_shape, parent_index):
    """Child-level cell indices geometrically tiling one parent cell, sorted.

    Requires integer refinement ratios r_t = child_W_t / parent_W_t; the
    returned r_x*r_y indices are in row-major order and, over all parents,
    partition the child grid.
    """
    pwx, pwy = parent_shape
    cwx, cwy = child_shape
    if cwx % pwx or cwy % pwy:
        raise ValueError(f"child shape {child_shape} does not refine parent {parent_shape}")
    r_x, r_y = cwx // pwx, cwy // pwy
    wx, wy = parent_index
    if not (0 <= wx < pwx and 0 <= wy < pwy):
        raise ValueError(f"parent index {parent_index} out of range for {parent_shape}")
    return [(wx * r_x + a, wy * r_y + b) for a in range(r_x) for b in range(r_y)]


def check_levels(level_shapes, alpha):
    """Reject level shapes or a codeword width alpha that cannot form a hierarchy.

    Shapes are pairs of positive integers, each refining the one before by
    integer ratios (not both 1); alpha lies in (0, 1.5], and alpha > 1 warns.
    """
    if not isinstance(level_shapes, (list, tuple)) or not level_shapes:
        raise ValueError(f"codebook levels must be a non-empty list of pairs, got {level_shapes!r}")
    if not 0 < alpha <= 1.5:
        raise ValueError(f"codebook alpha must be in (0, 1.5], got {alpha}")
    for shape in level_shapes:
        if not (isinstance(shape, (list, tuple)) and len(shape) == 2
                and all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                        and n >= 1 for n in shape)):
            raise ValueError(f"codebook levels must be pairs of positive integers, got {shape}")
    for (ax, ay), (bx, by) in zip(level_shapes, level_shapes[1:]):
        if bx % ax or by % ay or (bx, by) == (ax, ay):
            raise ValueError(f"codebook level ({bx},{by}) does not refine ({ax},{ay})")
    if alpha > 1.0:
        warnings.warn(f"alpha={alpha} > 1 overlaps neighboring cells beyond their edges")


def cell_phasors(codebook, depth, cells=None):
    """Read-only exp(j*omega) of the cells ((w_x, w_y), ...) of level depth, one row each;
    cells=None is the whole level in row-major order, row w_x * W_y + w_y.

    Fills the rows W_y cells at a time, so a whole level (the finest level's
    table or a heatmap's level) is built without holding its phases whole:
    `cis` writes each chunk's phasors straight into its rows of the table.
    """
    shape = codebook.levels[depth]
    w_x, w_y = np.indices(shape).reshape(2, -1) if cells is None else np.array(cells).T
    table = np.empty((len(w_x), codebook.geom.q), dtype=complex)
    for s in range(0, len(w_x), shape[1]):
        cut = slice(s, s + shape[1])
        cis(wide_illumination_phases(codebook, depth, w_x[cut], w_y[cut]), out=table[cut])
    table.flags.writeable = False
    return table
