"""RIS phase-shift codewords: point focusing, wide illumination, hierarchy.

A codeword is a length-Q vector of phases (radians) in the canonical RIS
element order. The generalized reflection coefficient (GRCS) aggregates
the per-element contributions between a source point and an observation
point; focusing codewords make every summand real-positive at the target,
wide-illumination codewords spread the reflected energy over one cell of
a rectangular blockage area.

A hierarchy is a tuple of levels, coarsest first, and a level is one
array of shape (big_w_x, big_w_y, Q) holding the codeword of cell
(w_x, w_y) at [w_x, w_y]; `check_levels` checks the level shapes and
alpha for both the build and the scenario. The codebook dump reads these
phase arrays, and the tests take them as the oracle. Trials and the
heatmap read phasors instead, all from `cell_phasors`: the finest level's
table, the few codewords of the coarser levels that a search sounds,
computed on demand, and the one level a heatmap draws.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import cis, distance, hypot3

_TWO_PI = 2.0 * np.pi


def unit_cell_factor(geom, lambda_m):
    """Per-element reflection gain g = 4*pi*d_y*d_z/lambda^2 (pi at half-wavelength spacing)."""
    return 4.0 * np.pi * geom.d_y * geom.d_z / lambda_m**2


@dataclass(frozen=True)
class BlockageArea:
    """Rectangle centered at p_b, extents r_x by r_y, at the fixed height p_b[2]."""

    center: np.ndarray
    r_x: float
    r_y: float

    def __post_init__(self):
        if self.r_x <= 0 or self.r_y <= 0:
            raise ValueError("blockage extents must be positive")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))


def grcs(p_i, p_r, omega, geom, lambda_m):
    """Complex aggregate reflection coefficient between p_i and p_r.

    g * sum_n exp(+j*k*(|p_i - p_n| + |p_r - p_n|)) * exp(j*omega_n);
    its magnitude is bounded by g*Q for any phase vector.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (geom.q,):
        raise ValueError(f"omega must have length Q={geom.q}, got shape {omega.shape}")
    pn = geom.element_positions()
    k = _TWO_PI / lambda_m
    d = distance(p_i, pn)
    d += distance(p_r, pn)
    g = unit_cell_factor(geom, lambda_m)
    return g * np.sum(np.exp(1j * (k * d + omega)))


def focusing_phases(p_i, p_target, geom, lambda_m, pn=None):
    """Phase profile that maximizes |grcs(p_i, p_target)|, attaining g*Q.

    omega_n = -k*(|p_i - p_n| + |p_target - p_n|): each summand of the
    reflection sum becomes real-positive at the target point; pn defaults
    to geom.element_positions().
    """
    pn = geom.element_positions() if pn is None else pn
    k = _TWO_PI / lambda_m
    d = distance(p_i, pn)
    d += distance(p_target, pn)
    return -k * d


def _image_planes(p, area, geom, w_x, w_y, big_w_x, big_w_y, alpha):
    """x and y of the image points of `mapping` for (n, 3) positions p, each S + (n,).

    Every image point lies at the area's height area.center[2].
    """
    w_x, w_y = np.broadcast_arrays(w_x, w_y)
    if not (np.all((0 <= w_x) & (w_x < big_w_x)) and np.all((0 <= w_y) & (w_y < big_w_y))):
        raise ValueError(f"cell index ({w_x}, {w_y}) out of range for ({big_w_x}, {big_w_y})")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    l_y, l_z = geom.aperture
    t_x = (w_x[..., None] + 0.5) * area.r_x / big_w_x - area.r_x / 2.0
    t_y = (w_y[..., None] + 0.5) * area.r_y / big_w_y - area.r_y / 2.0
    delta_x = alpha * area.r_x / big_w_x
    delta_y = alpha * area.r_y / big_w_y
    rel_y = p[:, 1] - geom.center[1]
    rel_z = p[:, 2] - geom.center[2]
    x = delta_x / l_z * rel_z + t_x
    x += area.center[0]
    y = delta_y / l_y * rel_y + t_y
    y += area.center[1]
    return x, y


def mapping(p_n, area, geom, w_x, w_y, big_w_x, big_w_y, alpha):
    """Map RIS element position(s) to target point(s) in the blockage plane.

    Cell (w_x, w_y) of a big_w_x by big_w_y partition is anchored at its
    center, offset t_w = (w + 1/2)*R/W - R/2 from the area center; the
    element's in-plane coordinates (y, z), taken relative to the RIS
    center, are scaled by Delta_t = alpha*R_t/W_t over the aperture so one
    cell is painted by the whole surface. alpha = 0 collapses the image to
    the cell center; the single cell of a 1x1 partition maps onto the area
    center itself.

    Accepts a single (3,) position or an (n, 3) batch, and integer-array
    cell indices broadcasting to a shape S: the result is S + (3,) or S + (n, 3).
    """
    p = np.asarray(p_n, dtype=float)
    single = p.ndim == 1
    p = np.atleast_2d(p)
    x, y = _image_planes(p, area, geom, w_x, w_y, big_w_x, big_w_y, alpha)
    out = np.empty(x.shape + (3,))
    out[..., 0] = x
    out[..., 1] = y
    out[..., 2] = area.center[2]
    return out[..., 0, :] if single else out


def wide_illumination_phases(p_i, area, geom, lambda_m, w_x, w_y, big_w_x, big_w_y, alpha,
                             pn=None):
    """Codeword spreading the reflection over cell (w_x, w_y) of the area.

    omega_n = -k*(|M(p_n) - p_n| - |M(p_n) - p_ris| + |p_i - p_n|), with M
    the per-element mapping above. Each element focuses on its own image
    point; the -|M - p_ris| term keeps the profile phase-continuous across
    the aperture. Array cell indices broadcast as in `mapping`, to S + (Q,).
    The image points enter as x and y planes and one height, so no S + (Q, 3)
    array is made; pn defaults to geom.element_positions().
    """
    pn = geom.element_positions() if pn is None else pn
    m_x, m_y = _image_planes(pn, area, geom, w_x, w_y, big_w_x, big_w_y, alpha)
    m_z = area.center[2]
    c = geom.center
    k = _TWO_PI / lambda_m
    d = hypot3(m_x - pn[:, 0], m_y - pn[:, 1], m_z - pn[:, 2])
    d -= hypot3(m_x - c[0], m_y - c[1], m_z - c[2])
    d += distance(p_i, pn)
    d *= -k
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


def build_hierarchy(level_shapes, alpha, area, geom, p_i, lambda_m):
    """All codewords for (big_w_x, big_w_y) level shapes that pass `check_levels`: one
    (big_w_x, big_w_y, Q) array per level, coarsest first, filled a row of cells at a time."""
    check_levels(level_shapes, alpha)
    levels = []
    for shape in level_shapes:
        words = np.empty((*shape, geom.q))
        for wx in range(shape[0]):
            # the last row stays bound while the next is computed: freeing it first lets
            # the heap shrink and fault back in at every row, a first build ~15% slower
            row = wide_illumination_phases(p_i, area, geom, lambda_m, wx, np.arange(shape[1]),
                                           *shape, alpha)
            words[wx] = row
        levels.append(words)
    return tuple(levels)


def cell_phasors(shape, alpha, area, geom, p_i, lambda_m, pn, cells):
    """Read-only exp(j*omega) of the cells ((w_x, w_y), ...) of a (W_x, W_y) level of
    `build_hierarchy`, one row each, from the RIS positions pn.

    Fills the rows W_y cells at a time, so a whole level in row-major order
    (the finest level's table or a heatmap's level, row w_x * W_y + w_y) is
    built without holding its phases whole.
    """
    w_x, w_y = np.array(cells).T
    table = np.empty((len(cells), geom.q), dtype=complex)
    for s in range(0, len(cells), shape[1]):
        cut = slice(s, s + shape[1])
        phases = wide_illumination_phases(p_i, area, geom, lambda_m, w_x[cut], w_y[cut],
                                          *shape, alpha, pn)  # bound as build_hierarchy's row
        table[cut] = cis(phases)
    table.flags.writeable = False
    return table
