"""Coordinate bookkeeping for BS, RIS, MU and scatterer positions.

All positions are length-3 float arrays (x, y, z) in meters in a shared
right-handed Cartesian frame. The RIS lies in the y-z plane and the BS
array in the x-z plane; element grids are uniformly spaced and centered
on the declared array center. `distance` is the package's one distance
formula: `hypot3` of the component differences. `RisGeometry.distances`
and the codeword formula take its sums on the RIS grid's axes, where each
component difference varies along one axis only, with the same bits.
`cis` is the one phasor formula of the channels, the precoder, the
codewords and the field kernel; the tests' GRCS oracle keeps numpy's
complex exponential as theirs.
"""

from dataclasses import dataclass

import numpy as np

C = 299_792_458.0  # m/s, exact


def wavelength(f_hz):
    """Carrier wavelength c/f in meters."""
    if f_hz <= 0:
        raise ValueError(f"carrier frequency must be positive, got {f_hz}")
    return C / f_hz


def distance(a, b):
    """Euclidean distance over the last axis of a - b, broadcast.

    sqrt(x0*x0 + x1*x1 + x2*x2) of the three components, each taken as a
    difference of a component of a and b, so no (..., 3) temporary is made;
    the result equals np.linalg.norm(a - b, axis=-1) bit for bit.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return hypot3(*(a[..., i] - b[..., i] for i in range(3)))


def hypot3(x0, x1, x2):
    """sqrt(x0*x0 + x1*x1 + x2*x2), summed in that order, of three component differences.

    x0 and x1 set the result's shape, and x2 broadcasts to it; the third
    term is added in place, which saves one temporary of that shape.
    """
    s = x0 * x0 + x1 * x1
    s += x2 * x2
    return np.sqrt(s)


def cis(x, out=None):
    """exp(j*x) for real x: sin and cos written into one complex array.

    out, if given, is a complex array of x's shape that receives the result,
    so a caller can fill a larger buffer slice by slice. x may be out.real:
    sin is taken first, into out.imag, and cos last, so a caller can put the
    angles in the real part of the array that keeps their phasors.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty(x.shape, dtype=complex)
    np.sin(x, out=out.imag)
    np.cos(x, out=out.real)
    return out


def far_field_distance(aperture_m, lambda_m):
    """Fraunhofer distance 2*D^2/lambda separating near and far field, a finite float."""
    if not 0 < aperture_m < np.inf:
        raise ValueError(f"aperture must be finite and positive, got {aperture_m}")
    if not 0 < lambda_m < np.inf:
        raise ValueError(f"wavelength must be finite and positive, got {lambda_m}")
    try:
        d_f = 2.0 * aperture_m**2 / lambda_m
    except OverflowError:  # a Python float's power past the float range
        d_f = np.inf
    if not d_f < np.inf:
        raise ValueError(f"far-field distance of aperture {aperture_m} m is not a finite float")
    return d_f


def _centered_offsets(count, spacing):
    return (np.arange(count) - (count - 1) / 2.0) * spacing


def _validate_grid(n_a, n_b, d_a, d_b):
    if n_a < 1 or n_b < 1:
        raise ValueError(f"element counts must be >= 1, got ({n_a}, {n_b})")
    if d_a <= 0 or d_b <= 0:
        raise ValueError(f"spacings must be positive, got ({d_a}, {d_b})")


@dataclass(frozen=True)
class RisGeometry:
    """Planar RIS in the y-z plane.

    Parameters
    ----------
    center : array-like of 3 floats
        Surface center position (meters).
    q_y, q_z : int
        Element counts along y and z.
    d_y, d_z : float
        Inter-element spacings (meters).

    Element order is row-major in (q_y, q_z): flat index n = q_y*q_z_count + q_z.
    Every phase vector in the package uses this order.
    """

    center: np.ndarray
    q_y: int
    q_z: int
    d_y: float
    d_z: float

    def __post_init__(self):
        _validate_grid(self.q_y, self.q_z, self.d_y, self.d_z)
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    @property
    def q(self):
        return self.q_y * self.q_z

    @property
    def aperture(self):
        """(L_y, L_z) edge-to-edge grid span counting one cell per element."""
        return self.q_y * self.d_y, self.q_z * self.d_z

    def axes(self):
        """(x, ys, zs): the elements' common x, and their q_y y and q_z z values."""
        return (self.center[0], self.center[1] + _centered_offsets(self.q_y, self.d_y),
                self.center[2] + _centered_offsets(self.q_z, self.d_z))

    def element_positions(self):
        """All Q element positions, shape (Q, 3), canonical order."""
        x, ys, zs = self.axes()
        yy, zz = np.meshgrid(ys, zs, indexing="ij")
        out = np.empty((self.q, 3))
        out[:, 0] = x
        out[:, 1] = yy.ravel()
        out[:, 2] = zz.ravel()
        return out

    def distances(self, points, out=None):
        """Distance from each of the (P, 3) points to each element, shape (P, Q).

        Equals distance(points[:, None], element_positions()[None]) bit for
        bit: the squared x and y differences are summed on a (P, q_y) grid,
        then the squared z differences of a (P, q_z) grid are added, in
        `hypot3`'s order, so only that sum and the root are taken per pair.
        out, if given, is a (P, Q) float array, such as a complex array's
        .real, that receives the distances and is returned; else one is made.
        """
        p = np.asarray(points, dtype=float)
        if out is None:
            out = np.empty((len(p), self.q))
        x, ys, zs = self.axes()
        dx = p[:, 0, None] - x
        dy = p[:, 1, None] - ys
        dz = p[:, 2, None] - zs
        s = dx * dx + dy * dy
        grid = out.reshape(len(p), self.q_y, self.q_z)  # splits one axis: a view, never a copy
        np.add(s[:, :, None], (dz * dz)[:, None, :], out=grid)
        np.sqrt(grid, out=grid)
        return out


def ris_from_aperture(center, size_y_m, size_z_m, d_y, d_z):
    """RIS grid fitting a physical aperture: Q per axis = floor(size/spacing)."""
    q_y = int(np.floor(size_y_m / d_y))
    q_z = int(np.floor(size_z_m / d_z))
    return RisGeometry(center=center, q_y=q_y, q_z=q_z, d_y=d_y, d_z=d_z)


@dataclass(frozen=True)
class PlanarArrayGeometry:
    """Antenna array in the x-z plane (BS side), same grid conventions as the RIS."""

    center: np.ndarray
    n_x: int
    n_z: int
    d_x: float
    d_z: float

    def __post_init__(self):
        _validate_grid(self.n_x, self.n_z, self.d_x, self.d_z)
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    @property
    def n(self):
        return self.n_x * self.n_z

    def element_positions(self):
        """All N element positions, shape (N, 3), row-major in (n_x, n_z)."""
        ox = _centered_offsets(self.n_x, self.d_x)
        oz = _centered_offsets(self.n_z, self.d_z)
        xx, zz = np.meshgrid(ox, oz, indexing="ij")
        out = np.tile(self.center, (self.n, 1))
        out[:, 0] += xx.ravel()
        out[:, 2] += zz.ravel()
        return out
