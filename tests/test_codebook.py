import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import phase_levels
from nearris.beam_mgmt import hierarchical_search
from nearris.codebook import (
    Codebook,
    check_levels,
    children,
    focusing_phases,
    unit_cell_factor,
    wide_illumination_phases,
)
from nearris.geometry import RisGeometry, distance, ris_from_aperture, wavelength
from oracle import build_hierarchy, grcs, mapping

LAM = wavelength(28e9)
P_I = np.array([40.0, 0.0, 10.0])
P_B = np.array([20.0, 40.0, 1.0])
R_X = R_Y = 16.0


def book(geom, levels, alpha):
    """The `Codebook` of levels and alpha over geom, on the 16 m x 16 m area centered at
    P_B, with the source at P_I."""
    return Codebook(levels=levels, alpha=alpha, p_b=P_B, r_x=R_X, r_y=R_Y, geom=geom,
                    p_i=P_I, lambda_m=LAM)


def small_geom(q=7):
    d = LAM / 2
    return RisGeometry(center=(0.0, 40.0, 5.0), q_y=q, q_z=q, d_y=d, d_z=d)


# --- unit cell gain and GRCS ----------------------------------------------


def test_unit_cell_factor_is_pi_at_half_wavelength():
    assert unit_cell_factor(small_geom(), LAM) == pytest.approx(np.pi, rel=1e-12)


def test_grcs_single_element_phase_cancellation():
    geom = small_geom(q=1)
    g = unit_cell_factor(geom, LAM)
    k = 2 * np.pi / LAM
    d = np.linalg.norm(P_I - geom.center) + np.linalg.norm(P_B - geom.center)
    val = grcs(P_I, P_B, np.array([-k * d]), geom, LAM)
    assert val == pytest.approx(g + 0j, rel=1e-9)


def test_grcs_matches_direct_summation():
    geom = small_geom(q=3)
    rng = np.random.default_rng(5)
    omega = rng.uniform(0, 2 * np.pi, geom.q)
    pn = geom.element_positions()
    k = 2 * np.pi / LAM
    d = np.linalg.norm(P_I - pn, axis=1) + np.linalg.norm(P_B - pn, axis=1)
    expect = unit_cell_factor(geom, LAM) * np.sum(np.exp(1j * (k * d + omega)))
    assert grcs(P_I, P_B, omega, geom, LAM) == pytest.approx(expect, rel=1e-12)


def test_grcs_rejects_wrong_length():
    with pytest.raises(ValueError):
        grcs(P_I, P_B, np.zeros(5), small_geom(q=3), LAM)


def test_focusing_phases_attain_g_times_q():
    geom = small_geom(q=9)
    omega = focusing_phases(P_I, P_B, geom, LAM)
    g = unit_cell_factor(geom, LAM)
    assert abs(grcs(P_I, P_B, omega, geom, LAM)) == pytest.approx(g * geom.q, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=2 * np.pi), min_size=9, max_size=9))
def test_grcs_magnitude_bounded_by_g_q(phases):
    geom = small_geom(q=3)
    g = unit_cell_factor(geom, LAM)
    mag = abs(grcs(P_I, P_B, np.array(phases), geom, LAM))
    assert mag <= g * geom.q * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0, max_value=2 * np.pi), min_size=9, max_size=9),
    st.floats(min_value=-10, max_value=10),
)
def test_grcs_global_phase_equivariance(phases, c):
    geom = small_geom(q=3)
    base = grcs(P_I, P_B, np.array(phases), geom, LAM)
    shifted = grcs(P_I, P_B, np.array(phases) + c, geom, LAM)
    assert shifted == pytest.approx(base * np.exp(1j * c), rel=1e-9, abs=1e-9)


# --- cell mapping ----------------------------------------------------------


def reference_geom():
    d = LAM / 2
    return ris_from_aperture((0.0, 40.0, 5.0), 0.5, 0.5, d, d)


def test_mapping_cell_centers_reference_partition():
    geom = reference_geom()
    cb = book(geom, [(4, 4)], 0.8)
    # 4x4 partition of the 16 m x 16 m area: cell pitch 4 m, centers offset
    # by half a cell from the area edge
    np.testing.assert_allclose(mapping(geom.center, cb, 0, 0, 0), [14.0, 34.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(mapping(geom.center, cb, 0, 3, 1), [26.0, 38.0, 1.0], atol=1e-9)


def test_mapping_footprint_spread_matches_alpha():
    geom = reference_geom()
    cb = book(geom, [(4, 4)], 0.8)
    ly, lz = geom.aperture
    hi_z = mapping(geom.center + [0, 0, lz / 2], cb, 0, 0, 0)
    lo_z = mapping(geom.center + [0, 0, -lz / 2], cb, 0, 0, 0)
    assert hi_z[0] - lo_z[0] == pytest.approx(3.2, rel=1e-9)  # alpha * r_x / W_x
    hi_y = mapping(geom.center + [0, ly / 2, 0], cb, 0, 0, 0)
    lo_y = mapping(geom.center + [0, -ly / 2, 0], cb, 0, 0, 0)
    assert hi_y[1] - lo_y[1] == pytest.approx(3.2, rel=1e-9)


def test_mapping_single_cell_alpha_zero_collapses_to_area_center():
    geom = reference_geom()
    img = mapping(geom.center + [0.0, 0.2, -0.1], book(geom, [(1, 1)], 0.0), 0, 0, 0)
    np.testing.assert_allclose(img, P_B, atol=1e-12)


def test_mapping_batch_matches_single():
    geom = small_geom(q=4)
    cb = book(geom, [(4, 4)], 0.8)
    pn = geom.element_positions()
    batch = mapping(pn, cb, 0, 2, 1)
    for row, p in zip(batch, pn):
        np.testing.assert_allclose(mapping(p, cb, 0, 2, 1), row, atol=1e-12)


def test_mapping_stays_in_plane_and_validates():
    geom = small_geom()
    cb = book(geom, [(4, 4)], 0.8)
    img = mapping(geom.element_positions(), cb, 0, 1, 3)
    np.testing.assert_allclose(img[:, 2], P_B[2])
    with pytest.raises(ValueError):
        mapping(geom.center, cb, 0, 4, 0)
    with pytest.raises(ValueError):
        mapping(geom.center, book(geom, [(4, 4)], -0.1), 0, 0, 0)
    with pytest.raises(ValueError):
        mapping(geom.center, cb, 0, np.array([0, 4]), 0)


def test_codebook_rejects_non_positive_extents():
    with pytest.raises(ValueError, match="extents must be positive"):
        Codebook(levels=((4, 4),), alpha=0.8, p_b=P_B, r_x=0.0, r_y=16.0, geom=small_geom(),
                 p_i=P_I, lambda_m=LAM)


# --- wide illumination codewords -------------------------------------------


def test_wide_illumination_single_cell_alpha_zero_equals_focusing():
    # alpha -> 0 with one cell degenerates to focusing on the area center,
    # up to a constant phase, so the GRCS magnitude attains g*Q
    geom = small_geom(q=7)
    omega = wide_illumination_phases(book(geom, [(1, 1)], 0.0), 0, 0, 0)
    g = unit_cell_factor(geom, LAM)
    assert abs(grcs(P_I, P_B, omega, geom, LAM)) == pytest.approx(g * geom.q, rel=1e-9)


def test_wide_illumination_codeword_shape():
    geom = small_geom(q=5)
    omega = wide_illumination_phases(book(geom, [(4, 4)], 0.8), 0, 1, 2)
    assert omega.shape == (geom.q,)
    assert np.all(np.isfinite(omega))


# --- hierarchy -------------------------------------------------------------


def test_children_reference_sets():
    assert children((4, 4), (8, 8), (2, 1)) == [(4, 2), (4, 3), (5, 2), (5, 3)]
    assert children((8, 16), (8, 32), (4, 3)) == [(4, 6), (4, 7)]


def test_children_counts_along_reference_level_list():
    shapes = [(4, 4), (8, 8), (8, 16), (8, 32)]
    counts = [len(children(a, b, (0, 0))) for a, b in zip(shapes, shapes[1:])]
    assert counts == [4, 2, 2]


@settings(max_examples=40, deadline=None)
@given(
    pwx=st.integers(1, 4),
    pwy=st.integers(1, 4),
    rx=st.integers(1, 3),
    ry=st.integers(1, 3),
)
def test_children_partition_child_grid(pwx, pwy, rx, ry):
    parent = (pwx, pwy)
    child = (pwx * rx, pwy * ry)
    seen = set()
    for wx in range(pwx):
        for wy in range(pwy):
            kids = children(parent, child, (wx, wy))
            assert kids == sorted(kids)
            kids = set(kids)
            assert len(kids) == rx * ry
            assert not seen & kids
            seen |= kids
    assert seen == {(a, b) for a in range(child[0]) for b in range(child[1])}


def test_children_errors():
    with pytest.raises(ValueError):
        children((4, 4), (6, 8), (0, 0))
    with pytest.raises(ValueError):
        children((4, 4), (8, 8), (4, 0))


def test_build_hierarchy_reference_sizes():
    geom = small_geom(q=4)
    cb = build_hierarchy(book(geom, [(4, 4), (8, 8), (8, 16), (8, 32)], 0.8))
    assert len(cb) == 4
    assert [lev.shape for lev in cb] == [
        (4, 4, geom.q), (8, 8, geom.q), (8, 16, geom.q), (8, 32, geom.q)
    ]
    assert cb[0][1, 2].shape == (geom.q,)


def test_build_hierarchy_matches_single_cell_codewords():
    # every row-at-a-time level equals the single-cell formula, bit for bit,
    # on a non-square surface and non-square level shapes
    d = LAM / 2
    geom = RisGeometry(center=(0.0, 40.0, 5.0), q_y=4, q_z=6, d_y=d, d_z=d)
    shapes = [(1, 2), (2, 4), (2, 8), (6, 8)]
    cb = book(geom, shapes, 0.8)
    for depth, ((wx_count, wy_count), lev) in enumerate(zip(shapes, build_hierarchy(cb))):
        assert lev.shape == (wx_count, wy_count, geom.q)
        for wx, wy in np.ndindex(wx_count, wy_count):
            np.testing.assert_array_equal(lev[wx, wy], wide_illumination_phases(cb, depth, wx, wy))


def _image_point_array_phases(geom, w_x, w_y, big_w_x, big_w_y, alpha):
    """The codeword formula, on `book`'s area, source and wavelength, over an S + (Q, 3)
    array of image points, each floating-point operation in the order
    `wide_illumination_phases` keeps."""
    pn = geom.element_positions()
    w_x, w_y = np.broadcast_arrays(w_x, w_y)
    l_y, l_z = geom.aperture
    t_x = (w_x[..., None] + 0.5) * R_X / big_w_x - R_X / 2.0
    t_y = (w_y[..., None] + 0.5) * R_Y / big_w_y - R_Y / 2.0
    m = np.broadcast_to(P_B, w_x.shape + pn.shape).copy()
    m[..., 0] += alpha * R_X / big_w_x / l_z * (pn[:, 2] - geom.center[2]) + t_x
    m[..., 1] += alpha * R_Y / big_w_y / l_y * (pn[:, 1] - geom.center[1]) + t_y

    def dist(a, b):
        x0, x1, x2 = (a[..., i] - b[..., i] for i in range(3))
        return np.sqrt(x0 * x0 + x1 * x1 + x2 * x2)

    d = dist(m, pn)
    d -= dist(m, geom.center)
    d += dist(P_I, pn)
    return -(2 * np.pi / LAM) * d


@pytest.mark.parametrize("q_y, q_z", [(93, 93), (4, 6)])
def test_codewords_equal_image_point_array_formula(q_y, q_z):
    # the plane-wise formula equals the (Q, 3)-image-point one bit for bit,
    # on the reference 93x93 RIS and a non-square one: every level of the
    # reference hierarchy as built row by row, plus a 16-cell index array
    d = LAM / 2
    geom = RisGeometry(center=(0.0, 40.0, 5.0), q_y=q_y, q_z=q_z, d_y=d, d_z=d)
    shapes = [(4, 4), (8, 8), (8, 16), (8, 32)]
    cb = book(geom, shapes, 0.8)
    for shape, lev in zip(shapes, build_hierarchy(cb)):
        for wx in range(shape[0]):
            expect = _image_point_array_phases(geom, wx, np.arange(shape[1]), *shape, 0.8)
            np.testing.assert_array_equal(lev[wx], expect)
    w_x, w_y = np.array(list(np.ndindex(4, 4))).T
    np.testing.assert_array_equal(wide_illumination_phases(cb, 0, w_x, w_y),
                                  _image_point_array_phases(geom, w_x, w_y, 4, 4, 0.8))


def _mapped_formula_phases(codebook, depth, w_x, w_y):
    """The codeword formula, at `book`'s source and wavelength, written through `mapping`
    and `distance` on element positions."""
    geom = codebook.geom
    pn = geom.element_positions()
    m = mapping(pn, codebook, depth, w_x, w_y)
    d = distance(m, pn)
    d -= distance(m, geom.center)
    d += distance(P_I, pn)
    return -(2 * np.pi / LAM) * d


@pytest.mark.parametrize("size, shapes, alpha", [
    ((0.5, 0.5), [(4, 4), (8, 8), (8, 16), (8, 32)], 0.8),  # the reference RIS and hierarchy
    ((0.13, 0.07), [(1, 2), (2, 4), (6, 8)], 0.3),
])
def test_codewords_equal_mapping_formula_at_every_level(size, shapes, alpha):
    # the per-axis image planes give the bits of the formula over the
    # (Q, 3) image points of `mapping`, cell by cell at every level
    geom = ris_from_aperture((0.0, 40.0, 5.0), *size, LAM / 2, LAM / 2)
    cb = book(geom, shapes, alpha)
    for depth, (shape, lev) in enumerate(zip(shapes, build_hierarchy(cb))):
        for wx in range(shape[0]):
            expect = _mapped_formula_phases(cb, depth, wx, np.arange(shape[1]))
            np.testing.assert_array_equal(lev[wx], expect)


def test_build_hierarchy_single_cell():
    geom = small_geom(q=2)
    cb = build_hierarchy(book(geom, [(1, 1)], 0.8))
    assert cb[0].shape == (1, 1, geom.q)


def test_build_hierarchy_level_indices_row_major():
    geom = small_geom(q=2)
    cb = build_hierarchy(book(geom, [(2, 3)], 0.8))
    d, a = np.zeros(1), np.ones((1, geom.q), dtype=complex)
    trace = hierarchical_search(d, a, *phase_levels(cb))
    assert trace.levels[0].candidates == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_check_levels_validation():
    # the scenario's check of a hierarchy, which the oracle's build makes too
    with pytest.raises(ValueError):
        check_levels([], 0.8)
    with pytest.raises(ValueError):
        check_levels([(4, 4), (2, 8)], 0.8)
    with pytest.raises(ValueError):
        check_levels([(4, 4), (6, 8)], 0.8)
    with pytest.raises(ValueError):
        check_levels([(4, 4), (4, 4)], 0.8)
    with pytest.raises(ValueError):
        check_levels([(2, 2)], 0.0)
    with pytest.raises(ValueError):
        check_levels([(2, 2)], 1.6)
    with pytest.raises(ValueError, match="positive integers"):
        check_levels([(0, 2)], 0.8)
    with pytest.raises(ValueError, match="positive integers"):
        check_levels([(2, 2.5)], 0.8)
    with pytest.raises(ValueError, match="pairs of positive integers"):
        check_levels([4, 4], 0.8)
    with pytest.raises(ValueError, match="positive integers"):
        check_levels([(True, True), (2, 2)], 0.8)
    with pytest.warns(UserWarning):
        check_levels([(2, 2)], 1.2)
    with pytest.raises(ValueError, match="refine"):
        build_hierarchy(book(small_geom(q=2), [(4, 4), (6, 8)], 0.8))


def test_level_one_covers_whole_area():
    # pointwise best of the four coarsest codewords stays within a bounded
    # margin of its peak everywhere on the blockage rectangle
    d = LAM / 2
    geom = ris_from_aperture((0.0, 40.0, 5.0), 0.15, 0.15, d, d)
    cb = build_hierarchy(book(geom, [(2, 2)], 0.8))
    xs = P_B[0] + np.linspace(-8, 8, 9)
    ys = P_B[1] + np.linspace(-8, 8, 9)
    comp = np.full((9, 9), -np.inf)
    for w in cb[0].reshape(-1, geom.q):
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                m = abs(grcs(P_I, np.array([x, y, P_B[2]]), w, geom, LAM))
                comp[i, j] = max(comp[i, j], 20 * np.log10(m))
    assert comp.max() - comp.min() < 17.0
