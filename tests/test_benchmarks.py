import numpy as np
import pytest

from conftest import on_fixed_cascade, projected
from nearris.beam_mgmt import mu_combiners
from nearris.benchmarks import (
    benchmark1_full_search,
    benchmark2_full_focusing,
    benchmark3_full_csi,
)
from nearris.channel import ChannelSet, LinkPaths, assemble_channel, free_space_amplitude
from nearris.codebook import (
    Codebook,
    cell_phasors,
    focusing_phases,
    unit_cell_factor,
)
from nearris.geometry import RisGeometry, cis, wavelength
from oracle import build_hierarchy, formula_snr, reduce_cascade

LAM = wavelength(28e9)
P_I = np.array([40.0, 0.0, 10.0])
P_B = np.array([20.0, 40.0, 1.0])


def test_benchmark1_equals_measurement_on_single_codeword():
    geom = RisGeometry(center=(0.0, 40.0, 5.0), q_y=3, q_z=3, d_y=LAM / 2, d_z=LAM / 2)
    book = Codebook(levels=((1, 1),), alpha=0.8, p_b=P_B, r_x=16.0, r_y=16.0, geom=geom,
                    p_i=P_I, lambda_m=LAM)
    cb = build_hierarchy(book)
    rng = np.random.default_rng(4)
    ch = ChannelSet(
        h=np.zeros((1, 2), dtype=complex),
        h1=rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2)),
        h2=rng.normal(size=(1, 9)) + 1j * rng.normal(size=(1, 9)),
    )
    d, a = reduce_cascade(*projected(ch, np.array([0.2, 0.1j])), unit_cell_factor(geom, LAM),
                          mu_combiners(1).conj(), np.sqrt(1e-6))
    table = cell_phasors(book, 0)
    res = on_fixed_cascade(benchmark1_full_search, d, a, table)
    direct = formula_snr(d, a, cis(cb[0][0, 0]))
    assert res == pytest.approx(direct, rel=1e-12)


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
        return LinkPaths(amplitude=[free_space_amplitude(d, LAM)], fading=[1.0], scatterers=())

    h1 = assemble_channel(los(P_I, geom.center), P_I[None, :], geom.element_positions(), LAM, +1)
    h2 = assemble_channel(los(geom.center, p_mu), geom.element_positions(), p_mu[None, :], LAM, +1)
    ch = ChannelSet(h=np.zeros((1, 1), dtype=complex), h1=h1, h2=h2)
    d, a = reduce_cascade(*projected(ch, np.array([np.sqrt(p)], dtype=complex)), g,
                          mu_combiners(1).conj(), np.sqrt(sigma2))
    res = on_fixed_cascade(benchmark2_full_focusing, d, a,
                           cis(focusing_phases(P_I, p_mu, geom, LAM))[None])
    pl1 = free_space_amplitude(float(np.linalg.norm(P_I - geom.center)), LAM)
    pl2 = free_space_amplitude(float(np.linalg.norm(p_mu - geom.center)), LAM)
    expect = p * (g * pl1 * pl2) ** 2 / sigma2
    assert res == pytest.approx(expect, rel=1e-9)


def cascade_pair(h1, h2, h_direct, g, sigma2):
    """(d, A) in noise units of a single-antenna MU whose BS-RIS channel is precoded to h1."""
    sigma = np.sqrt(sigma2)
    return np.array([h_direct], dtype=complex) / sigma, (g * h1 * h2)[None, :] / sigma


def test_benchmark3_all_ones_cascade():
    h1 = np.ones(4, dtype=complex)
    h2 = np.ones(4, dtype=complex)
    res = benchmark3_full_csi(*cascade_pair(h1, h2, 0.0, np.pi, 1.0))
    assert res == pytest.approx((4 * np.pi) ** 2, rel=1e-12)


def test_benchmark3_aligns_every_term():
    rng = np.random.default_rng(12)
    q = 6
    h1 = rng.normal(size=q) + 1j * rng.normal(size=q)
    h2 = rng.normal(size=q) + 1j * rng.normal(size=q)
    g = np.pi
    d, a = cascade_pair(h1, h2, 0.0, g, 1e-6)
    res = benchmark3_full_csi(d, a)
    assert res == pytest.approx((g * np.sum(np.abs(h1 * h2))) ** 2 / 1e-6, rel=1e-12)
    # the aligned profile beats any random profile
    rand = rng.uniform(0, 2 * np.pi, size=(1000, q))
    vals = np.abs(g * (np.exp(1j * rand) * (h1 * h2)[None, :]).sum(axis=1)) ** 2 / 1e-6
    assert res >= vals.max()
    # and evaluating the conjugate profile -angle(A) reproduces the reported SNR
    omega = -np.angle(a[0])
    direct = np.abs(g * np.sum(h1 * np.exp(1j * omega) * h2)) ** 2 / 1e-6
    assert direct == pytest.approx(res, rel=1e-9)


def test_benchmark3_adds_direct_channel_as_is():
    h1 = np.ones(2, dtype=complex)
    h2 = np.ones(2, dtype=complex)
    h_d = 0.5 + 0.0j
    res = benchmark3_full_csi(*cascade_pair(h1, h2, h_d, 1.0, 2.0))
    cascade = np.sum(np.abs(h1 * h2))
    assert res == pytest.approx(abs(h_d + cascade) ** 2 / 2.0, rel=1e-12)


def test_benchmark3_rejects_matrices():
    # a two-antenna MU, and a cascade that is not one row per MU antenna
    with pytest.raises(ValueError):
        benchmark3_full_csi(np.zeros(2), np.ones((2, 2)))
    with pytest.raises(ValueError):
        benchmark3_full_csi(np.zeros(1), np.ones(3))
