import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import los_only_scenario, small_scenario
from nearris.beam_mgmt import (
    best_index,
    bs_precoder_focus_ris,
    effective_cascade,
    hierarchical_search,
    mu_combiners,
    received_snr,
)
from nearris.benchmarks import benchmark1_full_search, benchmark3_full_csi
from nearris.channel import ChannelSet, LOS, LinkPaths, Path, assemble_channel, free_space_amplitude
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
    assert len(mu_combiners(1)) == 1
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
    d, a = effective_cascade(scalar_channels(), np.array([np.sqrt(2.0)]), G_PI)
    snr = received_snr(d, a, np.zeros(1), [np.array([1.0 + 0j])], 0.5)
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
    cb, v, g = search_setup(s)
    combiners = mu_combiners(n_mu)
    rng = np.random.default_rng(5)
    for trial in range(3):
        ch, _ = build_trial_channels(s, 10.0, trial)
        assert np.any(ch.h != 0)
        d, a = effective_cascade(ch, v, g)
        assert d.shape == (n_mu,) and a.shape == (n_mu, s.ris_geometry().q)
        profiles = [rng.uniform(0, 2 * np.pi, a.shape[1])] + list(cb.levels[0].codewords.values())
        for omega in profiles:
            expect = matrix_oracle_snr(ch, omega, v, combiners, s.sigma2, g)
            assert received_snr(d, a, omega, combiners, s.sigma2) == pytest.approx(
                expect, rel=1e-9
            )
        if n_mu == 1:
            # B3's own profile, put through the full matrices, gives its SNR
            r3, omega, _ = benchmark3_full_csi(d, a, s.sigma2)
            expect = matrix_oracle_snr(ch, omega, v, combiners, s.sigma2, g)
            assert r3.snr_linear == pytest.approx(expect, rel=1e-9)


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
    d, a = effective_cascade(ch, np.array([0.3, 0.4 - 0.2j]), G_PI)
    omega = rng.uniform(0, 2 * np.pi, q)
    u = [np.array([1.0 + 0j])]
    s1 = received_snr(d, a, omega, u, 1e-3)
    s2 = received_snr(d, a, omega + c, u, 1e-3)
    assert s2 == pytest.approx(s1, rel=1e-9)


def test_received_snr_invariant_to_combiner_phase():
    rng = np.random.default_rng(8)
    q, n = 5, 3
    ch = ChannelSet(
        h=rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)),
        h1=rng.normal(size=(q, 2)) + 1j * rng.normal(size=(q, 2)),
        h2=rng.normal(size=(n, q)) + 1j * rng.normal(size=(n, q)),
    )
    d, a = effective_cascade(ch, np.array([0.1, 0.2j]), G_PI)
    omega = rng.uniform(0, 2 * np.pi, q)
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    u /= np.linalg.norm(u)
    s1 = received_snr(d, a, omega, [u], 1e-3)
    s2 = received_snr(d, a, omega, [u * np.exp(1j * 0.7)], 1e-3)
    assert s2 == pytest.approx(s1, rel=1e-12)


def test_received_snr_measurement_noise_controls():
    d, c = effective_cascade(scalar_channels(), np.array([1.0]), G_PI)
    u = [np.array([1.0 + 0j])]
    exact = received_snr(d, c, np.zeros(1), u, 1e-4)
    a = received_snr(d, c, np.zeros(1), u, 1e-4,
                     rng=np.random.default_rng(1), meas_noise_reps=64)
    b = received_snr(d, c, np.zeros(1), u, 1e-4,
                     rng=np.random.default_rng(1), meas_noise_reps=64)
    assert a == b  # same rng state, bit-identical
    assert a == pytest.approx(exact, rel=0.2)  # averaged pilots stay close
    with pytest.raises(ValueError):
        received_snr(d, c, np.zeros(1), u, 1e-4, meas_noise_reps=4)


def test_received_snr_validation():
    d, a = effective_cascade(scalar_channels(), np.array([1.0]), G_PI)
    with pytest.raises(ValueError):
        received_snr(d, a, np.zeros(1), [], 1.0)
    with pytest.raises(ValueError):
        received_snr(d, a, np.zeros(1), [np.array([1.0])], 0.0)


# --- selection ---------------------------------------------------------------


def test_best_index_picks_argmax():
    snrs = {(0, 0): 1.0, (0, 1): 3.0, (1, 0): 2.0}
    assert best_index(snrs, [(0, 0), (0, 1), (1, 0)]) == (0, 1)


def test_best_index_breaks_ties_toward_lowest_index():
    snrs = {(1, 0): 2.0, (0, 1): 2.0, (0, 0): 1.0}
    assert best_index(snrs, [(1, 0), (0, 1), (0, 0)]) == (0, 1)


def test_best_index_errors():
    with pytest.raises(ValueError):
        best_index({}, [])
    with pytest.raises(ValueError):
        best_index({(0, 0): 1.0}, [(0, 0), (0, 1)])


# --- hierarchical search ------------------------------------------------------


def search_setup(scenario):
    cb = scenario.build_codebook()
    lam = scenario.lambda_m
    v = bs_precoder_focus_ris(
        scenario.bs_geometry().element_positions(), scenario.ris_center, lam, scenario.p_bs_watts
    )
    g = unit_cell_factor(scenario.ris_geometry(), lam)
    return cb, v, g


def test_search_pilot_budget_small_hierarchy():
    s = los_only_scenario()
    cb, v, g = search_setup(s)
    ch, _ = build_trial_channels(s, 10.0, 0)
    trace = hierarchical_search(*effective_cascade(ch, v, g), cb, mu_combiners(1), s.sigma2)
    assert trace.pilots_per_level() == [4, 4, 2]
    assert trace.pilot_count == 10


def test_search_single_level_equals_exhaustive():
    s = small_scenario(codebook_levels=((4, 8),))
    cb, v, g = search_setup(s)
    d, a = effective_cascade(build_trial_channels(s, 10.0, 3)[0], v, g)
    trace = hierarchical_search(d, a, cb, mu_combiners(1), s.sigma2)
    r1 = benchmark1_full_search(d, a, cb.levels[0], mu_combiners(1), s.sigma2)
    assert trace.levels[-1].snrs[trace.levels[-1].winner] == pytest.approx(
        r1.snr_linear, rel=1e-12
    )


def test_search_never_beats_exhaustive():
    s = small_scenario()
    cb, v, g = search_setup(s)
    for trial in range(6):
        d, a = effective_cascade(build_trial_channels(s, 10.0, trial)[0], v, g)
        trace = hierarchical_search(d, a, cb, mu_combiners(1), s.sigma2)
        prop = trace.levels[-1].snrs[trace.levels[-1].winner]
        r1 = benchmark1_full_search(d, a, cb.levels[-1], mu_combiners(1), s.sigma2)
        assert prop <= r1.snr_linear * (1 + 1e-12)


def test_search_finds_cell_center_users_exactly():
    # noiseless LOS channels with the MU parked on a finest-level cell
    # center: the descent must land on that exact cell
    s = los_only_scenario()
    cb, v, g = search_setup(s)
    lam = s.lambda_m
    geom = s.ris_geometry()
    area = s.blockage_area()
    lev = cb.levels[-1]
    bs_pos = s.bs_geometry().element_positions()
    ris_pos = geom.element_positions()

    def los(a, b):
        d = float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float)))
        return LinkPaths(
            link="t", paths=(Path(kind=LOS, amplitude_pathloss=free_space_amplitude(d, lam)),)
        )

    for cell in [(0, 0), (1, 2), (2, 5), (3, 7)]:
        p_mu = mapping(np.asarray(s.ris_center), area, geom, *cell, lev.big_w_x, lev.big_w_y, 0.0)
        mu_pos = p_mu[None, :]
        ch = ChannelSet(
            h=assemble_channel(los(s.bs_center, p_mu), bs_pos, mu_pos, lam, -1) * 0.1,
            h1=assemble_channel(los(s.bs_center, s.ris_center), bs_pos, ris_pos, lam, +1),
            h2=assemble_channel(los(s.ris_center, p_mu), ris_pos, mu_pos, lam, +1),
        )
        trace = hierarchical_search(*effective_cascade(ch, v, g), cb, mu_combiners(1), s.sigma2)
        assert trace.levels[-1].winner == cell


def test_search_descent_rarely_degrades():
    # refinement usually improves the winner SNR level over level; alpha < 1
    # leaves small coverage gaps between sibling beams, so a bounded
    # fraction of descents may lose ground
    s = los_only_scenario()
    cb, v, g = search_setup(s)
    monotone = 0
    trials = 40
    for trial in range(trials):
        ch, _ = build_trial_channels(s, 10.0, trial)
        trace = hierarchical_search(*effective_cascade(ch, v, g), cb, mu_combiners(1), s.sigma2)
        ws = [rec.snrs[rec.winner] for rec in trace.levels]
        if all(b >= a * (1 - 1e-12) for a, b in zip(ws, ws[1:])):
            monotone += 1
    assert monotone / trials >= 0.70

