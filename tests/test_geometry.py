import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearris.geometry import (
    C,
    PlanarArrayGeometry,
    RisGeometry,
    cis,
    distance,
    far_field_distance,
    ris_from_aperture,
    wavelength,
)

LAM28 = 0.0107068735  # c / 28 GHz


def test_wavelength_known_values():
    assert wavelength(28e9) == pytest.approx(LAM28, rel=1e-9)
    assert wavelength(C) == 1.0
    assert wavelength(1e9) == pytest.approx(0.299792458, rel=0, abs=0)


def test_wavelength_rejects_nonpositive():
    with pytest.raises(ValueError):
        wavelength(0.0)
    with pytest.raises(ValueError):
        wavelength(-1e9)


def test_distance_equals_norm_under_broadcasting():
    rng = np.random.default_rng(6)
    pts = rng.uniform(-60.0, 60.0, (7, 3))
    grid = rng.uniform(-0.3, 0.3, (1, 40, 3)) + [0.0, 40.0, 5.0]
    for a, b in [(pts[:, None, :], grid), (pts, pts[0]), (pts[0], pts), (pts[2], pts[5])]:
        got = distance(a, b)
        expect = np.linalg.norm(np.asarray(a) - np.asarray(b), axis=-1)
        assert got.shape == expect.shape
        np.testing.assert_array_equal(got, expect)
    assert distance([0, 0, 0], (3, 4, 12)) == 13.0


def test_cis_matches_complex_exponential():
    # the phases a trial meets reach k * (tens of meters), |x| ~ 4e4 rad
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.uniform(-4e4, 4e4, 20000), rng.uniform(-10.0, 10.0, 1000),
                        [0.0, -0.0, np.pi, -4e4, 4e4]])
    got = cis(x)
    assert got.dtype == complex and got.shape == x.shape
    np.testing.assert_allclose(got, np.exp(1j * x), rtol=1e-15, atol=0)
    assert cis(x.reshape(5, -1)).shape == (5, len(x) // 5)


def test_cis_in_place_on_its_real_part_keeps_the_bits():
    # sin reads x before cos overwrites it, so the angles may sit in out.real
    rng = np.random.default_rng(13)
    x = rng.uniform(-4e4, 4e4, (4, 257))
    expect = cis(x.copy())
    buf = np.empty(x.shape, dtype=complex)
    buf.real = x
    assert cis(buf.real, out=buf) is buf
    np.testing.assert_array_equal(buf, expect)


def test_far_field_distance_values():
    # diagonal of a 0.5 m square aperture at 28 GHz
    d = np.sqrt(2.0) * 0.5
    assert far_field_distance(d, LAM28) == pytest.approx(93.3979466554826, rel=1e-9)
    assert far_field_distance(0.1, wavelength(28e9)) == pytest.approx(1.8679589331, rel=1e-9)
    # 2*(2*lam)^2/lam = 8*lam
    assert far_field_distance(2.0, 1.0) == 8.0


def test_far_field_distance_rejects_bad_args():
    nan, inf = float("nan"), float("inf")
    for aperture, lam in [(0.0, 1.0), (1.0, -0.5), (nan, 1.0), (inf, 1.0), (1.0, nan),
                          (1.0, inf)]:
        with pytest.raises(ValueError, match="finite and positive"):
            far_field_distance(aperture, lam)
    # the square overflows (OverflowError for a float), or the quotient does
    for aperture, lam in [(1e200, 1.0), (1e154, 1e-10)]:
        with pytest.raises(ValueError, match="not a finite float"):
            far_field_distance(aperture, lam)


def test_ris_from_aperture_reference_grid():
    d = LAM28 / 2
    geom = ris_from_aperture((0.0, 40.0, 5.0), 0.5, 0.5, d, d)
    assert geom.q_y == 93 and geom.q_z == 93
    assert geom.q == 8649


def test_single_element_sits_at_center():
    geom = RisGeometry(center=(1.0, 2.0, 3.0), q_y=1, q_z=1, d_y=0.01, d_z=0.01)
    pos = geom.element_positions()
    assert pos.shape == (1, 3)
    np.testing.assert_allclose(pos[0], [1.0, 2.0, 3.0])


def test_two_element_pair_is_symmetric():
    geom = RisGeometry(center=(0.0, 0.0, 0.0), q_y=2, q_z=1, d_y=0.01, d_z=0.01)
    pos = geom.element_positions()
    np.testing.assert_allclose(sorted(pos[:, 1]), [-0.005, 0.005])
    np.testing.assert_allclose(pos[:, [0, 2]], 0.0)


def test_grid_is_centered_on_declared_center():
    geom = RisGeometry(center=(3.0, -1.0, 7.5), q_y=5, q_z=8, d_y=0.02, d_z=0.03)
    pos = geom.element_positions()
    assert pos.shape == (40, 3)
    np.testing.assert_allclose(pos.mean(axis=0), [3.0, -1.0, 7.5], atol=1e-9)


def test_ris_element_order_is_row_major_y_then_z():
    geom = RisGeometry(center=(0.0, 0.0, 0.0), q_y=3, q_z=4, d_y=0.1, d_z=0.2)
    pos = geom.element_positions()
    # z index varies fastest
    np.testing.assert_allclose(pos[1] - pos[0], [0.0, 0.0, 0.2], atol=1e-12)
    # stepping one full z row advances y by one spacing
    np.testing.assert_allclose(pos[4] - pos[0], [0.0, 0.1, 0.0], atol=1e-12)
    assert np.all(pos[:, 0] == 0.0)


def test_ris_aperture_counts_one_cell_per_element():
    geom = RisGeometry(center=(0, 0, 0), q_y=10, q_z=4, d_y=0.01, d_z=0.02)
    assert geom.aperture == pytest.approx((0.1, 0.08))


_coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(center=st.tuples(_coord, _coord, _coord), q_y=st.integers(1, 12), q_z=st.integers(1, 12),
       d_y=st.floats(1e-4, 0.2), d_z=st.floats(1e-4, 0.2),
       points=st.lists(st.tuples(_coord, _coord, _coord), min_size=0, max_size=6))
def test_grid_distances_equal_distance_bit_for_bit(center, q_y, q_z, d_y, d_z, points):
    # the per-axis sums of RisGeometry.distances give distance's bits, and its
    # element order is element_positions', on any grid and any points
    geom = RisGeometry(center=center, q_y=q_y, q_z=q_z, d_y=d_y, d_z=d_z)
    p = np.array(points, dtype=float).reshape(-1, 3)
    got = geom.distances(p)
    assert got.shape == (len(p), geom.q)
    np.testing.assert_array_equal(got, distance(p[:, None], geom.element_positions()[None]))


def test_grid_distances_into_a_callers_buffer_keep_the_bits():
    # a float array, or a complex array's real part, receives distances()'s bits
    geom = RisGeometry(center=(0.0, 40.0, 5.0), q_y=7, q_z=5, d_y=0.006, d_z=0.004)
    p = np.random.default_rng(14).uniform(-60.0, 60.0, (6, 3))
    expect = geom.distances(p)
    flat = np.empty((len(p), geom.q))
    assert geom.distances(p, out=flat) is flat
    np.testing.assert_array_equal(flat, expect)
    legs = np.zeros((len(p), geom.q), dtype=complex)
    real = legs.real
    assert geom.distances(p, out=real) is real
    np.testing.assert_array_equal(legs.real, expect)
    assert not legs.imag.any()


def test_element_positions_are_the_axes_grid():
    geom = RisGeometry(center=(0.5, -2.0, 3.0), q_y=3, q_z=4, d_y=0.1, d_z=0.2)
    x, ys, zs = geom.axes()
    pos = geom.element_positions()
    assert np.all(pos[:, 0] == x)
    np.testing.assert_array_equal(pos[:, 1], np.repeat(ys, 4))
    np.testing.assert_array_equal(pos[:, 2], np.tile(zs, 3))


def test_planar_array_lives_in_xz_plane():
    geom = PlanarArrayGeometry(center=(40.0, 0.0, 10.0), n_x=8, n_z=8, d_x=0.005, d_z=0.005)
    pos = geom.element_positions()
    assert geom.n == 64 and pos.shape == (64, 3)
    assert np.all(pos[:, 1] == 0.0)
    np.testing.assert_allclose(pos[1] - pos[0], [0.0, 0.0, 0.005], atol=1e-12)
    np.testing.assert_allclose(pos[8] - pos[0], [0.005, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(pos.mean(axis=0), [40.0, 0.0, 10.0], atol=1e-9)


def test_geometry_validation_errors():
    with pytest.raises(ValueError):
        RisGeometry(center=(0, 0, 0), q_y=0, q_z=1, d_y=0.01, d_z=0.01)
    with pytest.raises(ValueError):
        RisGeometry(center=(0, 0, 0), q_y=1, q_z=1, d_y=0.0, d_z=0.01)
    with pytest.raises(ValueError):
        PlanarArrayGeometry(center=(0, 0, 0), n_x=2, n_z=2, d_x=0.01, d_z=-0.01)
