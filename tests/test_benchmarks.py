import numpy as np
import pytest

from nearris.beam_mgmt import effective_cascade, mu_combiners, received_snr
from nearris.benchmarks import (
    B1_FULL_CODEBOOK,
    B2_FULL_FOCUSING,
    B3_FULL_CSI,
    SchemeResult,
    benchmark1_full_search,
    benchmark2_full_focusing,
    benchmark3_full_csi,
)
from nearris.channel import ChannelSet, LOS, LinkPaths, Path, assemble_channel, free_space_amplitude
from nearris.codebook import build_hierarchy, BlockageArea, unit_cell_factor
from nearris.geometry import RisGeometry, wavelength

LAM = wavelength(28e9)
P_I = np.array([40.0, 0.0, 10.0])
P_B = np.array([20.0, 40.0, 1.0])
AREA = BlockageArea(center=P_B, r_x=16.0, r_y=16.0)


def test_scheme_result_db_conversion():
    assert SchemeResult("x", 100.0, "c").snr_db == pytest.approx(20.0)


def test_benchmark1_equals_measurement_on_single_codeword():
    geom = RisGeometry(center=(0.0, 40.0, 5.0), q_y=3, q_z=3, d_y=LAM / 2, d_z=LAM / 2)
    cb = build_hierarchy([(1, 1)], 0.8, AREA, geom, P_I, LAM)
    rng = np.random.default_rng(4)
    ch = ChannelSet(
        h=np.zeros((1, 2), dtype=complex),
        h1=rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2)),
        h2=rng.normal(size=(1, 9)) + 1j * rng.normal(size=(1, 9)),
    )
    d, a = effective_cascade(ch, np.array([0.2, 0.1j]), unit_cell_factor(geom, LAM))
    res = benchmark1_full_search(d, a, cb.levels[0], mu_combiners(1), 1e-6)
    direct = received_snr(d, a, cb.levels[0].codewords[(0, 0)], mu_combiners(1), 1e-6)
    assert res.scheme == B1_FULL_CODEBOOK
    assert res.snr_linear == pytest.approx(direct, rel=1e-12)
    assert res.cost == "1 pilots"


def test_benchmark1_cost_names_level_size():
    geom = RisGeometry(center=(0.0, 40.0, 5.0), q_y=2, q_z=2, d_y=LAM / 2, d_z=LAM / 2)
    cb = build_hierarchy([(4, 8)], 0.8, AREA, geom, P_I, LAM)
    ch = ChannelSet(
        h=np.zeros((1, 1), dtype=complex),
        h1=np.ones((4, 1), dtype=complex),
        h2=np.ones((1, 4), dtype=complex),
    )
    d, a = effective_cascade(ch, np.array([1.0]), unit_cell_factor(geom, LAM))
    res = benchmark1_full_search(d, a, cb.levels[0], mu_combiners(1), 1.0)
    assert res.cost == "32 pilots"


def test_benchmark2_scalar_closed_form():
    # one BS antenna, one RIS element, LOS only: focusing on the exact MU
    # position turns the cascade into g*PL1*PL2*sqrt(P)
    geom = RisGeometry(center=(0.0, 40.0, 5.0), q_y=1, q_z=1, d_y=LAM / 2, d_z=LAM / 2)
    g = unit_cell_factor(geom, LAM)
    p_mu = np.array([22.0, 41.0, 1.0])
    p = 0.1
    sigma2 = 1e-12

    def los(a, b):
        d = float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float)))
        return LinkPaths(
            link="t", paths=(Path(kind=LOS, amplitude_pathloss=free_space_amplitude(d, LAM)),)
        )

    h1 = assemble_channel(los(P_I, geom.center), P_I[None, :], geom.element_positions(), LAM, +1)
    h2 = assemble_channel(los(geom.center, p_mu), geom.element_positions(), p_mu[None, :], LAM, +1)
    ch = ChannelSet(h=np.zeros((1, 1), dtype=complex), h1=h1, h2=h2)
    d, a = effective_cascade(ch, np.array([np.sqrt(p)], dtype=complex), g)
    res = benchmark2_full_focusing(d, a, p_mu, geom, P_I, mu_combiners(1), sigma2, LAM)
    pl1 = free_space_amplitude(float(np.linalg.norm(P_I - geom.center)), LAM)
    pl2 = free_space_amplitude(float(np.linalg.norm(p_mu - geom.center)), LAM)
    expect = p * (g * pl1 * pl2) ** 2 / sigma2
    assert res.scheme == B2_FULL_FOCUSING
    assert res.snr_linear == pytest.approx(expect, rel=1e-9)


def cascade_pair(h1, h2, h_direct, g):
    """(d, A) of a single-antenna MU whose BS-RIS channel is already precoded to h1."""
    return np.array([h_direct], dtype=complex), (g * h1 * h2)[None, :]


def test_benchmark3_all_ones_cascade():
    h1 = np.ones(4, dtype=complex)
    h2 = np.ones(4, dtype=complex)
    res, omega, cascade = benchmark3_full_csi(*cascade_pair(h1, h2, 0.0, np.pi), 1.0)
    assert cascade == pytest.approx(4 * np.pi, rel=1e-12)
    assert res.snr_linear == pytest.approx((4 * np.pi) ** 2, rel=1e-12)
    assert res.scheme == B3_FULL_CSI
    assert res.cost == "8 channel coefficients"
    np.testing.assert_allclose(omega, 0.0, atol=1e-12)


def test_benchmark3_aligns_every_term():
    rng = np.random.default_rng(12)
    q = 6
    h1 = rng.normal(size=q) + 1j * rng.normal(size=q)
    h2 = rng.normal(size=q) + 1j * rng.normal(size=q)
    g = np.pi
    res, omega, cascade = benchmark3_full_csi(*cascade_pair(h1, h2, 0.0, g), 1e-6)
    assert cascade == pytest.approx(g * np.sum(np.abs(h1 * h2)), rel=1e-12)
    # the aligned profile beats any random profile
    rand = rng.uniform(0, 2 * np.pi, size=(1000, q))
    vals = np.abs(g * (np.exp(1j * rand) * (h1 * h2)[None, :]).sum(axis=1)) ** 2 / 1e-6
    assert res.snr_linear >= vals.max()
    # and evaluating the returned profile reproduces the reported SNR
    direct = np.abs(g * np.sum(h1 * np.exp(1j * omega) * h2)) ** 2 / 1e-6
    assert direct == pytest.approx(res.snr_linear, rel=1e-9)


def test_benchmark3_adds_direct_channel_as_is():
    h1 = np.ones(2, dtype=complex)
    h2 = np.ones(2, dtype=complex)
    h_d = 0.5 + 0.0j
    res, _, cascade = benchmark3_full_csi(*cascade_pair(h1, h2, h_d, 1.0), 2.0)
    assert res.snr_linear == pytest.approx(abs(h_d + cascade) ** 2 / 2.0, rel=1e-12)


def test_benchmark3_rejects_matrices():
    # a two-antenna MU, and a cascade that is not one row per MU antenna
    with pytest.raises(ValueError):
        benchmark3_full_csi(np.zeros(2), np.ones((2, 2)), 1.0)
    with pytest.raises(ValueError):
        benchmark3_full_csi(np.zeros(1), np.ones(3), 1.0)
