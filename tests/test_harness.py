import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nearris as nr
from conftest import los_only_scenario, point_source_losses, small_scenario
from nearris import benchmarks as bm
from nearris.channel import LinkPaths, assemble_channel, free_space_amplitude
from nearris.codebook import grcs, unit_cell_factor
from nearris.harness import (
    _FIELD_CHUNK,
    Aggregate,
    Scenario,
    TrialResult,
    _beta_total_db,
    _field_snr_db,
    aggregate,
    build_trial_channels,
    draw_mu_position,
    farfield_table,
    focusing_cut,
    heatmap,
    mu_antenna_positions,
    run_campaign,
    run_trial,
    sweep_beta,
)

SCHEMES = (bm.PROPOSED, bm.B1_FULL_CODEBOOK, bm.B2_FULL_FOCUSING, bm.B3_FULL_CSI)


# --- scenario -----------------------------------------------------------------


def test_reference_scenario_derived_quantities(reference_scenario):
    s = reference_scenario
    geom = s.ris_geometry()
    assert geom.q_y == 93 and geom.q_z == 93 and geom.q == 8649
    assert s.bs_geometry().n == 64
    assert s.lambda_m == pytest.approx(0.0107068735, rel=1e-9)
    assert s.p_bs_watts == pytest.approx(0.1, rel=1e-12)
    assert s.sigma2 == pytest.approx(1e-12, rel=1e-9)
    cb_sizes = [wx * wy for wx, wy in s.codebook_levels]
    assert cb_sizes == [16, 64, 128, 256]


def test_scenario_validation_messages():
    cases = [
        (dict(trials=0), "trials"),
        (dict(master_seed=-1), "master_seed"),
        (dict(codebook_alpha=0.0), "alpha"),
        (dict(beta_semantics="weird"), "beta_semantics"),
        (dict(average="median"), "average"),
        (dict(n_mu=0), "n_mu"),
        (dict(bandwidth_hz=-1.0), "bandwidth"),
        (dict(scatterer_box_min=(0, 0, 5), scatterer_box_max=(1, 1, 1)), "box"),
        (dict(bs_center=(40.0, 0.0)), "bs_center needs 3 values"),
        (dict(ris_center=(0.0, 40.0, 5.0, 1.0)), "ris_center needs 3 values"),
        (dict(blockage_center=20.0), "blockage_center needs 3 values"),
        (dict(scatterer_box_min=(0, 0)), "scatterer_box_min needs 3 values"),
        (dict(scatterer_box_max=((60, 60, 10),)), "scatterer_box_max needs 3 values"),
        (dict(trials=2.5), "trials must be an integer"),
        (dict(bs_n_z=True), "bs_n_z must be an integer"),
        (dict(carrier_hz=True), "carrier_hz must be a finite real number"),
        (dict(p_bs_dbm=float("nan")), "p_bs_dbm must be a finite real number"),
        (dict(blockage_center=(20.0, 40.0, float("inf"))), "blockage_center must be a finite"),
        (dict(beta_list_db=()), "beta_list_db must be a non-empty list of distinct values"),
        (dict(beta_list_db=(1.0, 1.0)), "beta_list_db must be a non-empty list of distinct"),
        (dict(ris_size_z_m=0.001), "ris size over spacing must give a finite grid"),
        (dict(ris_size_y_m=1e300, ris_spacing_wl=1e-10), "ris size over spacing must give"),
    ]
    for overrides, word in cases:
        with pytest.raises(ValueError, match=word):
            Scenario(**overrides)


def test_scenario_round_trips_through_dict(reference_scenario):
    d = reference_scenario.to_dict()
    assert d["carrier_hz"] == 28e9
    assert d["codebook_levels"] == [[4, 4], [8, 8], [8, 16], [8, 32]]
    assert isinstance(d["beta_list_db"], list)


def test_beta_semantics_conversion():
    s_total = small_scenario(beta_semantics="total")
    s_per = small_scenario()  # per-path default
    link = LinkPaths(amplitude=[1.0] + [0.1] * 20, fading=np.ones(21),
                     scatterers=[(i, 0, 0) for i in range(20)])
    assert _beta_total_db(s_total, link, 10.0) == pytest.approx(10.0)
    assert _beta_total_db(s_per, link, 10.0) == pytest.approx(10.0 - 10 * np.log10(20), rel=1e-12)


# --- random draws ---------------------------------------------------------------


def test_draw_mu_position_stays_in_blockage_area():
    s = small_scenario()
    for trial in range(50):
        p = draw_mu_position(s, trial)
        assert abs(p[0] - s.blockage_center[0]) <= s.blockage_r_x / 2
        assert abs(p[1] - s.blockage_center[1]) <= s.blockage_r_y / 2
        assert p[2] == s.blockage_center[2]
    np.testing.assert_array_equal(draw_mu_position(s, 3), draw_mu_position(s, 3))
    assert not np.array_equal(draw_mu_position(s, 3), draw_mu_position(s, 4))


def test_mu_antenna_positions_layout():
    s = small_scenario()
    p = np.array([20.0, 40.0, 1.0])
    single = mu_antenna_positions(s, p)
    assert single.shape == (1, 3)
    np.testing.assert_array_equal(single[0], p)
    s3 = small_scenario(n_mu=3)
    arr = mu_antenna_positions(s3, p)
    assert arr.shape == (3, 3)
    np.testing.assert_allclose(arr.mean(axis=0), p, atol=1e-12)
    d = s3.mu_spacing_wl * s3.lambda_m
    np.testing.assert_allclose(np.diff(arr[:, 1]), d, rtol=1e-12)


# --- channel realization ----------------------------------------------------------


def test_build_trial_channels_shapes_and_determinism():
    s = small_scenario()
    ch, p_mu = build_trial_channels(s, 10.0, 0)
    q = s.ris_geometry().q
    assert ch.h.shape == (1, 64)
    assert ch.h1.shape == (q, 64)
    assert ch.h2.shape == (1, q)
    ch2, p_mu2 = build_trial_channels(s, 10.0, 0)
    np.testing.assert_array_equal(ch.h, ch2.h)
    np.testing.assert_array_equal(ch.h1, ch2.h1)
    np.testing.assert_array_equal(ch.h2, ch2.h2)
    np.testing.assert_array_equal(p_mu, p_mu2)


def test_direct_link_carries_blockage_loss():
    s = los_only_scenario()
    ch, p_mu = build_trial_channels(s, 10.0, 0)
    lam = s.lambda_m
    d = float(np.linalg.norm(np.asarray(s.bs_center) - p_mu))
    link = LinkPaths(amplitude=[free_space_amplitude(d, lam)], fading=[1.0], scatterers=())
    bs_pos = s.bs_geometry().element_positions()
    unblocked = assemble_channel(link, bs_pos, p_mu[None, :], lam, -1)
    np.testing.assert_allclose(ch.h, 0.1 * unblocked, rtol=1e-12)


# --- trials and campaigns -----------------------------------------------------------


def test_run_trial_reports_all_schemes():
    s = small_scenario()
    r = run_trial(s, 10.0, 0)
    assert isinstance(r, TrialResult)
    assert set(r.snr_db) == set(SCHEMES)
    assert r.pilots == 10
    assert len(r.winners) == 3
    assert all(np.isfinite(v) for v in r.snr_db.values())


def test_run_trial_deterministic():
    s = small_scenario()
    a = run_trial(s, 5.0, 2)
    b = run_trial(s, 5.0, 2)
    assert a.snr_db == b.snr_db
    assert a.mu_position == b.mu_position
    assert a.winners == b.winners


def test_run_trial_multi_antenna_mu_drops_b3():
    s = small_scenario(n_mu=2)
    r = run_trial(s, 10.0, 0)
    assert bm.B3_FULL_CSI not in r.snr_db
    assert set(r.snr_db) == {bm.PROPOSED, bm.B1_FULL_CODEBOOK, bm.B2_FULL_FOCUSING}


def test_campaign_dominance_and_sorting():
    s = small_scenario(trials=4, beta_list_db=(0.0, 10.0))
    results = run_campaign(s)
    assert [(r.beta_db, r.trial) for r in results] == [
        (b, t) for b in (0.0, 10.0) for t in range(4)
    ]
    for r in results:
        assert r.snr_db[bm.PROPOSED] <= r.snr_db[bm.B1_FULL_CODEBOOK] + 1e-9
        assert r.snr_db[bm.B3_FULL_CSI] >= r.snr_db[bm.B2_FULL_FOCUSING] - 1e-9


_CAMPAIGN_SCRIPT = """
import json
import nearris as nr
s = nr.Scenario(ris_size_y_m=0.15, ris_size_z_m=0.15, codebook_levels=((2, 2), (4, 4)),
                trials=3, beta_list_db=(0.0, 10.0), n_mu={n_mu})
print(json.dumps([[r.snr_db, r.mu_position, r.winners] for r in nr.run_campaign(s)]))
"""


@pytest.mark.parametrize("n_mu", [1, 4])
def test_campaign_identical_across_blas_threads(n_mu):
    # the NLOS sums, the cascade products and (n_mu > 1) the combiner
    # product run in BLAS; a second BLAS thread must not change a single
    # bit of the results
    src = str(Path(nr.__file__).resolve().parents[1])
    script = _CAMPAIGN_SCRIPT.format(n_mu=n_mu)
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True, timeout=300)
        runs.append(json.loads(proc.stdout))
    assert len(runs[0]) == 6
    assert runs[0] == runs[1]


def test_aggregate_single_trial_passthrough():
    r = TrialResult(trial=0, beta_db=10.0, mu_position=(0, 0, 0),
                    snr_db={"proposed": 12.5}, pilots=10, winners=[])
    rows = aggregate([r])
    assert rows == [Aggregate(scheme="proposed", beta_db=10.0, mean_snr_db=12.5,
                              std_snr_db=0.0, n_trials=1)]


def test_aggregate_db_versus_linear_mean():
    rs = [
        TrialResult(trial=0, beta_db=0.0, mu_position=(0, 0, 0),
                    snr_db={"proposed": 0.0}, pilots=0, winners=[]),
        TrialResult(trial=1, beta_db=0.0, mu_position=(0, 0, 0),
                    snr_db={"proposed": 20.0}, pilots=0, winners=[]),
    ]
    db = aggregate(rs, average="db_mean")[0]
    lin = aggregate(rs, average="linear_mean")[0]
    assert db.mean_snr_db == pytest.approx(10.0)
    assert lin.mean_snr_db == pytest.approx(10 * np.log10((1 + 100) / 2), rel=1e-12)
    assert db.n_trials == 2


def test_sweep_beta_genie_scheme_is_stable():
    # full focusing does not depend on the codebook and barely on beta: its
    # mean varies well under 2 dB across the grid
    s = small_scenario()
    results, rows = sweep_beta(s)
    assert len(results) == s.trials * len(s.beta_list_db)
    assert len(rows) == 4 * len(s.beta_list_db)
    b2 = sorted(
        (a.beta_db, a.mean_snr_db) for a in rows if a.scheme == bm.B2_FULL_FOCUSING
    )
    means = [m for _, m in b2]
    assert max(means) - min(means) < 2.0
    for a in rows:
        assert a.n_trials == s.trials


def test_full_scale_focusing_matches_closed_form():
    # LOS-only: B2's matrix SNR against N*P*(PL1*PL2*g*Q)^2/sigma2
    s = Scenario(paths_direct=1, paths_bs_ris=1, paths_ris_mu=1)
    geom = s.ris_geometry()
    lam = s.lambda_m
    g = unit_cell_factor(geom, lam)
    for trial in range(2):
        ch, p_mu = build_trial_channels(s, 10.0, trial)
        res = bm.benchmark2_full_focusing(*s.cascade(ch), p_mu, geom, s.bs_center, lam)
        pl1 = free_space_amplitude(float(np.linalg.norm(np.asarray(s.bs_center) -
                                                        np.asarray(s.ris_center))), lam)
        pl2 = free_space_amplitude(float(np.linalg.norm(p_mu - np.asarray(s.ris_center))), lam)
        closed = 10 * np.log10(64 * s.p_bs_watts * (pl1 * pl2 * g * geom.q) ** 2 / s.sigma2)
        assert 10 * np.log10(res) == pytest.approx(closed, abs=0.1)


def test_codebook_gaps_match_point_source_losses():
    # LOS-only: B1 and the proposed scheme fall short of B2 by their
    # codewords' point-source losses; the direct link and the BS array's
    # gain ripple over the RIS leave a few tenths of a dB
    s = los_only_scenario()
    codebook = s.build_codebook()
    results = [run_trial(s, 10.0, trial, codebook) for trial in range(s.trials)]
    loss_b1, loss_prop = point_source_losses(s, codebook, [r.mu_position for r in results])
    for r, l1, lp in zip(results, loss_b1, loss_prop):
        b2 = r.snr_db[bm.B2_FULL_FOCUSING]
        assert b2 - r.snr_db[bm.B1_FULL_CODEBOOK] == pytest.approx(l1, abs=0.5)
        assert b2 - r.snr_db[bm.PROPOSED] == pytest.approx(lp, abs=0.5)


# --- illumination pipeline -----------------------------------------------------------


def test_field_kernel_matches_grcs_oracle():
    # random points around the area and random profiles, more points than
    # one chunk: every entry equals the direct-summation GRCS in the
    # point-source budget
    s = small_scenario()
    geom = s.ris_geometry()
    lam = s.lambda_m
    rng = np.random.default_rng(9)
    points = np.asarray(s.blockage_center) + rng.uniform(-8.0, 8.0, (_FIELD_CHUNK + 5, 3))
    profiles = rng.uniform(0, 2 * np.pi, (3, geom.q))
    got = _field_snr_db(s, points, profiles)
    assert got.shape == (len(points), len(profiles))
    pl1 = free_space_amplitude(
        float(np.linalg.norm(np.asarray(s.bs_center) - np.asarray(s.ris_center))), lam
    )
    for i, p in enumerate(points):
        pl2 = free_space_amplitude(float(np.linalg.norm(p - np.asarray(s.ris_center))), lam)
        for j, omega in enumerate(profiles):
            mag = abs(grcs(s.bs_center, p, omega, geom, lam))
            expect = 10 * np.log10(s.illum_reference_power_w * (pl1 * pl2 * mag) ** 2 / s.sigma2)
            assert got[i, j] == pytest.approx(expect, rel=1e-9)


def test_focusing_cut_center_equals_analytic_peak():
    s = small_scenario()
    geom = s.ris_geometry()
    g = unit_cell_factor(geom, s.lambda_m)
    pl1 = free_space_amplitude(
        float(np.linalg.norm(np.asarray(s.bs_center) - np.asarray(s.ris_center))), s.lambda_m
    )
    pl2 = free_space_amplitude(
        float(np.linalg.norm(np.asarray(s.blockage_center) - np.asarray(s.ris_center))),
        s.lambda_m,
    )
    peak = 10 * np.log10(
        s.illum_reference_power_w * (pl1 * pl2 * g * geom.q) ** 2 / s.sigma2
    )
    for axis in ("x", "y"):
        deltas, snr = focusing_cut(s, axis, half_range_m=2.0, steps=41)
        assert deltas.shape == snr.shape == (41,)
        mid = 20
        assert deltas[mid] == 0.0
        assert snr[mid] == pytest.approx(peak, rel=1e-9)
        # a small aperture focuses loosely along depth, so points nearer the
        # RIS can edge past the focus by their pathloss advantage, never more
        assert snr.max() - snr[mid] <= 1.0


def test_focusing_cut_rejects_bad_axis():
    with pytest.raises(ValueError):
        focusing_cut(small_scenario(), "z")


def test_heatmap_composite_is_pointwise_max():
    s = small_scenario(illum_grid=8)
    hm = heatmap(s, 0)
    assert hm.level == 1
    assert hm.xs.shape == hm.ys.shape == (8,)
    assert hm.per_cell.shape == (2, 2, 8, 8)
    stack = hm.per_cell.reshape(4, 8, 8)
    np.testing.assert_array_equal(hm.composite, stack.max(axis=0))
    assert hm.per_cell[0, 1].shape == (8, 8)


@pytest.mark.parametrize("level_index", [-1, 3])
def test_heatmap_rejects_level_outside_the_hierarchy(level_index):
    # small_scenario has 3 levels: valid indices are 0..2
    with pytest.raises(ValueError, match=r"out of range 0\.\.2"):
        heatmap(small_scenario(illum_grid=2), level_index)


def test_farfield_table_reference_row():
    rows = farfield_table(28e9, [0.1, 0.5, 1.0])
    for size, d_ap, d_f in rows:
        assert d_ap == pytest.approx(np.sqrt(2) * size, rel=1e-12)
    assert rows[1][2] == pytest.approx(93.3979466554826, rel=1e-9)
    assert rows[0][2] < rows[1][2] < rows[2][2]
