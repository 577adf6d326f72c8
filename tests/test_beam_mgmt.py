import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import los_only_scenario, small_scenario
from nearris.beam_mgmt import (
    bs_precoder_focus_ris,
    effective_cascade,
    hierarchical_search,
    mu_combiners,
    received_snr,
)
from nearris.benchmarks import benchmark1_full_search, benchmark3_full_csi
from nearris.channel import ChannelSet, LinkPaths, assemble_channel, free_space_amplitude
from nearris.codebook import mapping, unit_cell_factor
from nearris.harness import build_trial_channels

G_PI = np.pi


def scalar_channels(h=0.0, h1=1.0, h2=1.0):
    return ChannelSet(
        h=np.array([[h]], dtype=complex),
        h1=np.array([[h1]], dtype=complex),
        h2=np.array([[h2]], dtype=complex),
    )


# --- precoder, combiners -----------------------------------------------------


def test_precoder_single_antenna_carries_power():
    p_ris = np.array([0.0, 40.0, 5.0])
    v = bs_precoder_focus_ris(np.array([[40.0, 0.0, 10.0]]), p_ris, 0.0107068735, 0.1)
    assert abs(v[0]) == pytest.approx(np.sqrt(0.1), rel=1e-12)


def test_precoder_norm_and_coherent_gain():
    rng = np.random.default_rng(11)
    bs = rng.random((64, 3)) * 0.05 + [40.0, 0.0, 10.0]
    p_ris = np.array([0.0, 40.0, 5.0])
    lam = 0.0107068735
    p = 0.1
    v = bs_precoder_focus_ris(bs, p_ris, lam, p)
    assert np.linalg.norm(v) ** 2 == pytest.approx(p, rel=1e-12)
    k = 2 * np.pi / lam
    a = np.exp(1j * k * np.linalg.norm(bs - p_ris, axis=1))
    # all antenna contributions add in phase at the RIS center
    assert abs(a @ v) == pytest.approx(np.sqrt(p * 64), rel=1e-12)


def test_mu_combiners_are_unit_norm_orthogonal():
    assert mu_combiners(1).shape == (1, 1) and mu_combiners(4).shape == (4, 4)
    np.testing.assert_allclose(mu_combiners(1)[0], [1.0], atol=1e-12)
    combs = mu_combiners(4)
    for i, u in enumerate(combs):
        assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12)
        for w in combs[i + 1 :]:
            assert abs(np.vdot(u, w)) < 1e-12
    with pytest.raises(ValueError):
        mu_combiners(0)


# --- SNR measurement --------------------------------------------------------


def test_received_snr_scalar_oracle():
    # y = g*sqrt(P) through unit cascade: SNR = g^2 * P / sigma2
    d, a = effective_cascade(scalar_channels(), np.array([np.sqrt(2.0)]), G_PI,
                             np.array([[1.0 + 0j]]), 0.5)
    snr = received_snr(d, a, np.zeros(1))
    assert snr == pytest.approx(4 * np.pi**2, rel=1e-12)


def matrix_oracle_snr(ch, omega, v, combiners, sigma2, g):
    """max_u |u^H (H + H2 diag(g e^{j omega}) H1) v|^2 / sigma2 from the full matrices."""
    y = (ch.h + ch.h2 @ np.diag(g * np.exp(1j * omega)) @ ch.h1) @ v
    return max(abs(np.vdot(u, y)) ** 2 for u in combiners) / sigma2


@pytest.mark.parametrize("n_mu", [1, 4])
def test_received_snr_matches_full_matrix_oracle(n_mu):
    # multipath channels from assemble_channel, direct link on, random and
    # codebook profiles: the (d, A) reduction must not change the SNR
    s = small_scenario(n_mu=n_mu, codebook_levels=((2, 2),))
    cb = s.build_codebook()
    lam = s.lambda_m
    v = bs_precoder_focus_ris(s.bs_geometry().element_positions(), s.ris_center, lam,
                              s.p_bs_watts)
    g = unit_cell_factor(s.ris_geometry(), lam)
    combiners = mu_combiners(n_mu)
    rng = np.random.default_rng(5)
    for trial in range(3):
        ch, _ = build_trial_channels(s, 10.0, trial)
        assert np.any(ch.h != 0)
        d, a = s.cascade(ch)
        assert d.shape == (n_mu,) and a.shape == (n_mu, s.ris_geometry().q)
        q = a.shape[1]
        profiles = np.vstack(
            [rng.uniform(0, 2 * np.pi, (1, q)), cb[0].reshape(-1, q)]
        )
        singles = []
        for omega in profiles:
            expect = matrix_oracle_snr(ch, omega, v, combiners, s.sigma2, g)
            singles.append(received_snr(d, a, omega))
            assert np.ndim(singles[-1]) == 0
            assert singles[-1] == pytest.approx(expect, rel=1e-9)
        # one stacked (K, Q) call scores every profile as the single calls do
        stacked = received_snr(d, a, profiles)
        assert stacked.shape == (len(profiles),)
        np.testing.assert_allclose(stacked, singles, rtol=1e-12)
        if n_mu == 1:
            # B3's profile -angle(A), put through the full matrices, gives its SNR
            expect = matrix_oracle_snr(ch, -np.angle(a[0]), v, combiners, s.sigma2, g)
            assert benchmark3_full_csi(d, a) == pytest.approx(expect, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-10, max_value=10))
def test_received_snr_invariant_to_global_codeword_phase(c):
    # with no direct link, shifting every RIS phase by c leaves |y| unchanged
    rng = np.random.default_rng(2)
    q = 6
    ch = ChannelSet(
        h=np.zeros((1, 2), dtype=complex),
        h1=(rng.normal(size=(q, 2)) + 1j * rng.normal(size=(q, 2))),
        h2=(rng.normal(size=(1, q)) + 1j * rng.normal(size=(1, q))),
    )
    d, a = effective_cascade(ch, np.array([0.3, 0.4 - 0.2j]), G_PI, np.array([[1.0 + 0j]]),
                             1e-3)
    omega = rng.uniform(0, 2 * np.pi, q)
    s1 = received_snr(d, a, omega)
    s2 = received_snr(d, a, omega + c)
    assert s2 == pytest.approx(s1, rel=1e-9)


def test_received_snr_invariant_to_combiner_phase():
    rng = np.random.default_rng(8)
    q, n = 5, 3
    ch = ChannelSet(
        h=rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)),
        h1=rng.normal(size=(q, 2)) + 1j * rng.normal(size=(q, 2)),
        h2=rng.normal(size=(n, q)) + 1j * rng.normal(size=(n, q)),
    )
    omega = rng.uniform(0, 2 * np.pi, q)
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    u /= np.linalg.norm(u)
    v = np.array([0.1, 0.2j])
    s1 = received_snr(*effective_cascade(ch, v, G_PI, u[None, :], 1e-3), omega)
    turned = u[None, :] * np.exp(1j * 0.7)
    s2 = received_snr(*effective_cascade(ch, v, G_PI, turned, 1e-3), omega)
    assert s2 == pytest.approx(s1, rel=1e-12)


def test_effective_cascade_validation():
    with pytest.raises(ValueError):
        effective_cascade(scalar_channels(), np.array([1.0]), G_PI, np.empty((0, 1)), 1.0)
    for sigma2 in (0.0, np.nan):
        with pytest.raises(ValueError):
            effective_cascade(scalar_channels(), np.array([1.0]), G_PI, np.ones((1, 1)), sigma2)


# --- selection ---------------------------------------------------------------


def duplicate_row_level(best_cells, q=6):
    """A 2x2 level on a unit cascade: the cells in best_cells hold the
    all-zero profile, which attains |Q|^2, and the others random phases."""
    rng = np.random.default_rng(3)
    words = rng.uniform(0, 2 * np.pi, (2, 2, q))
    for c in best_cells:
        words[c] = 0.0
    return words, np.zeros(1), np.ones((1, q), dtype=complex)


def sounded(level, d, a):
    """The one-level search's record on level, and its SNRs keyed by cell."""
    rec = hierarchical_search(d, a, (level,)).levels[0]
    return rec, dict(zip(rec.candidates, rec.snrs))


def test_block_winner_is_argmax():
    level, d, a = duplicate_row_level([(1, 0)])
    rec, snr = sounded(level, d, a)
    assert rec.winner == (1, 0)
    assert snr[(1, 0)] == pytest.approx(36.0, rel=1e-12)
    assert rec.snrs.max() == snr[(1, 0)]
    assert benchmark1_full_search(d, a, level) == snr[(1, 0)]


def test_block_winner_ties_go_to_lowest_index():
    level, d, a = duplicate_row_level([(1, 0), (0, 1)])
    rec, snr = sounded(level, d, a)
    assert snr[(1, 0)] == snr[(0, 1)]
    assert rec.winner == (0, 1)
    assert benchmark1_full_search(d, a, level) == snr[(0, 1)]


# --- hierarchical search ------------------------------------------------------


def test_search_pilot_budget_small_hierarchy():
    s = los_only_scenario()
    ch, _ = build_trial_channels(s, 10.0, 0)
    trace = hierarchical_search(*s.cascade(ch), s.build_codebook())
    assert trace.pilots_per_level() == [4, 4, 2]
    assert trace.pilot_count == 10


def test_search_single_level_equals_exhaustive():
    s = small_scenario(codebook_levels=((4, 8),))
    cb = s.build_codebook()
    d, a = s.cascade(build_trial_channels(s, 10.0, 3)[0])
    trace = hierarchical_search(d, a, cb)
    r1 = benchmark1_full_search(d, a, cb[0])
    assert trace.levels[-1].snrs.max() == pytest.approx(r1, rel=1e-12)


def test_search_never_beats_exhaustive():
    s = small_scenario()
    cb = s.build_codebook()
    for trial in range(6):
        d, a = s.cascade(build_trial_channels(s, 10.0, trial)[0])
        trace = hierarchical_search(d, a, cb)
        prop = trace.levels[-1].snrs.max()
        r1 = benchmark1_full_search(d, a, cb[-1])
        assert prop <= r1 * (1 + 1e-12)


def test_search_finds_cell_center_users_exactly():
    # noiseless LOS channels with the MU parked on a finest-level cell
    # center: the descent must land on that exact cell
    s = los_only_scenario()
    cb = s.build_codebook()
    lam = s.lambda_m
    geom = s.ris_geometry()
    area = s.blockage_area()
    finest = cb[-1].shape[:2]
    bs_pos = s.bs_geometry().element_positions()
    ris_pos = geom.element_positions()

    def los(a, b):
        d = float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float)))
        return LinkPaths(amplitude=[free_space_amplitude(d, lam)], fading=[1.0], scatterers=())

    for cell in [(0, 0), (1, 2), (2, 5), (3, 7)]:
        p_mu = mapping(np.asarray(s.ris_center), area, geom, *cell, *finest, 0.0)
        mu_pos = p_mu[None, :]
        ch = ChannelSet(
            h=assemble_channel(los(s.bs_center, p_mu), bs_pos, mu_pos, lam, -1) * 0.1,
            h1=assemble_channel(los(s.bs_center, s.ris_center), bs_pos, ris_pos, lam, +1),
            h2=assemble_channel(los(s.ris_center, p_mu), ris_pos, mu_pos, lam, +1),
        )
        trace = hierarchical_search(*s.cascade(ch), cb)
        assert trace.levels[-1].winner == cell


def test_search_descent_rarely_degrades():
    # refinement usually improves the winner SNR level over level; alpha < 1
    # leaves small coverage gaps between sibling beams, so a bounded
    # fraction of descents may lose ground
    s = los_only_scenario()
    cb = s.build_codebook()
    monotone = 0
    trials = 40
    for trial in range(trials):
        ch, _ = build_trial_channels(s, 10.0, trial)
        trace = hierarchical_search(*s.cascade(ch), cb)
        ws = [rec.snrs.max() for rec in trace.levels]
        if all(b >= a * (1 - 1e-12) for a, b in zip(ws, ws[1:])):
            monotone += 1
    assert monotone / trials >= 0.70

