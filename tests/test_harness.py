import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import nearris as nr
from conftest import (
    codewords,
    draw_cascade,
    los_only_scenario,
    on_fixed_cascade,
    point_source_losses,
    run_python,
    small_scenario,
)
from nearris import benchmarks as bm
from nearris import harness
from nearris.beam_mgmt import basis_products, hierarchical_search, received_snr
from nearris.channel import LinkPaths, assemble_channel, free_space_amplitude, leg_phasors
from nearris.cli import main as cli_main
from nearris.cli import save_scenario
from nearris.codebook import focusing_phases, unit_cell_factor
from nearris.harness import (
    _FIELD_CHUNK,
    Aggregate,
    Scenario,
    TrialResult,
    _beta_total_db,
    _field_snr_db,
    _ris_legs,
    aggregate,
    at_beta,
    build_trial_channels,
    draw_mu_position,
    draw_trial_links,
    farfield_table,
    focusing_cut,
    heatmap,
    mu_antenna_positions,
    run_campaign,
    run_trial,
    search_snr,
    sweep_beta,
    trial_draw,
)
from oracle import cascade, formula_snr, grcs, phase_codebook

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
        (dict(p_bs_dbm=4000.0), "p_bs_dbm must give a finite p_bs_watts > 0 W"),
        (dict(p_bs_dbm=-4000.0), "p_bs_dbm must give a finite p_bs_watts > 0 W"),
        (dict(noise_psd_dbm_hz=-4000.0), "noise_figure_db must give a finite sigma2 > 0 W"),
        (dict(noise_psd_dbm_hz=4000.0), "noise_figure_db must give a finite sigma2 > 0 W"),
        (dict(bandwidth_hz=1e300, noise_figure_db=1e4), "must give a finite sigma2 > 0 W"),
        (dict(blockage_loss_db=-100000.0), "blockage_loss_db must give a finite amplitude"),
        (dict(n_mu=4, mu_spacing_wl=0.0), "mu_spacing_wl must be positive"),
        (dict(beta_list_db=(0.0, -1e300)), "beta_list_db must give a finite power ratio"),
        (dict(beta_list_db=(1e300,), beta_semantics="total"), "must give a finite power ratio"),
    ]
    for overrides, word in cases:
        with pytest.raises(ValueError, match=word):
            Scenario(**overrides)


def test_scenario_warns_of_alpha_past_one():
    # every command builds a Scenario, so each one warns for the same file
    with pytest.warns(UserWarning, match=r"alpha=1\.2 > 1"):
        small_scenario(codebook_alpha=1.2)


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


def test_draw_mu_position_stays_in_the_blockage_rectangle():
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


@pytest.mark.parametrize("overrides, beta_db, trial", [
    (dict(), 10.0, 0),
    (dict(n_mu=4), -10.0, 1),
    (dict(paths_bs_ris=1), 20.0, 2),
    (dict(n_mu=4, paths_bs_ris=1, beta_semantics="total"), 0.0, 3),
    (None, 10.0, 5),
    (dict(paths_direct=1), 5.0, 4),
    (dict(n_mu=2, paths_ris_mu=1), -5.0, 6),
])
def test_link_cascade_matches_full_matrix_oracle(overrides, beta_db, trial):
    # trials reduce the links without H1: (d, A) at every reference beta of
    # one cached trial_draw's basis must be Scenario.cascade of the full
    # assemble_channel matrices at that beta, a link without NLOS paths
    # included, and B2's products those of the focusing codeword of the
    # drawn MU position; None is the reference scenario. The draw holds
    # arrays only, no link: d is of degree 1 in s = 10^(-beta/20), and
    # beta = 0 dB checks the sum of the basis itself. The draw is read, never
    # written: beta_db, read first, gives the same pair again at the end.
    s = Scenario() if overrides is None else small_scenario(**overrides)
    draw = trial_draw(s, trial)
    parts = (draw.p_mu, draw.d, draw.c, draw.b1, draw.b2)
    assert all(isinstance(x, np.ndarray) for x in parts)
    assert not np.any(draw.d[2])
    first = draw_cascade(draw, beta_db)
    for b in Scenario().beta_list_db:
        d, a = draw_cascade(trial_draw(s, trial), b)
        ch, p_mu = build_trial_channels(s, b, trial)
        d0, a0 = cascade(s, ch)
        assert d.shape == d0.shape == (s.n_mu,)
        assert a.shape == a0.shape == (s.n_mu, s.ris_geometry().q)
        assert np.linalg.norm(d - d0) <= 1e-12 * np.linalg.norm(d0)
        assert np.linalg.norm(a - a0) <= 1e-12 * np.linalg.norm(a0)
    assert trial_draw(s, trial) is draw
    for got, want in zip(draw_cascade(draw, beta_db), first):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(draw.p_mu, p_mu)
    focus = nr.cis(focusing_phases(s.bs_center, p_mu, s.ris_geometry(), s.lambda_m))
    np.testing.assert_array_equal(draw.b2, basis_products(focus[None], draw.d, draw.c))


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


def test_trial_draws_are_shared_by_every_beta():
    # trial_draw rests on this: the seed streams are labeled (master seed,
    # trial, component), so a trial index's draw has no beta in it, and
    # at_beta scales the NLOS amplitudes only, then the direct link by the
    # blockage loss, without touching the drawn links
    s = small_scenario(beta_list_db=(-10.0, 0.0, 10.0, 20.0))
    for trial in range(3):
        links, _ = draw_trial_links(s, trial)
        drawn = [link.amplitude.copy() for link in links]
        for beta_db in s.beta_list_db:
            for link, first, loss in zip(at_beta(s, links, beta_db), links, (0.1, 1.0, 1.0)):
                np.testing.assert_array_equal(link.scatterers, first.scatterers)
                np.testing.assert_array_equal(link.fading, first.fading)
                assert link.amplitude[0] == pytest.approx(loss * first.amplitude[0], rel=1e-15)
                power = np.sum(link.amplitude[1:] ** 2) / loss ** 2
                assert 10 * np.log10(first.amplitude[0] ** 2 / power) == pytest.approx(
                    _beta_total_db(s, first, beta_db), abs=1e-9)
        for link, amplitude in zip(links, drawn):
            np.testing.assert_array_equal(link.amplitude, amplitude)
    assert not np.array_equal(draw_trial_links(s, 0)[1], draw_trial_links(s, 1)[1])


def test_campaign_draws_each_trial_index_once():
    # the campaign builds the statics once and reads every beta of a trial
    # index from one draw
    s = small_scenario(trials=4)
    Scenario.statics.cache_clear()
    trial_draw.cache_clear()
    run_campaign(s)
    assert Scenario.statics.cache_info().misses == 1
    draws = trial_draw.cache_info()
    assert draws.misses == s.trials
    assert draws.hits == s.trials * (len(s.beta_list_db) - 1)


def test_run_trial_does_not_depend_on_the_cache_state():
    # trials read from caches warmed by other betas, trial indices, master
    # seeds and scenarios equal the same trials run on cleared caches
    s = small_scenario(n_mu=2)
    other_seed = dataclasses.replace(s, master_seed=5)
    other_levels = small_scenario(codebook_levels=((2, 2), (4, 4)))
    calls = [(s, 0.0, 1), (s, 20.0, 1), (s, 10.0, 4), (other_seed, 20.0, 1), (s, 0.0, 4),
             (other_levels, 10.0, 1), (s, 20.0, 1), (other_seed, 0.0, 1), (s, 10.0, 1)]
    warmed = [run_trial(*call) for call in calls]
    for call, result in zip(calls, warmed):
        Scenario.statics.cache_clear()  # the codeword blocks go with the statics
        trial_draw.cache_clear()
        assert run_trial(*call) == result


@pytest.fixture
def block_calls(monkeypatch):
    """(level shape, cells) of every codeword block computed from here on, one per computation.

    A block cache asks for a tuple of cells, its key; the statics record's one build of the
    finest level's table passes a list and is not counted.
    """
    calls = []

    def counted(*args, f=harness.cell_phasors):
        if isinstance(args[-1], tuple):
            calls.append((args[0].levels[args[1]], args[-1]))
        return f(*args)
    monkeypatch.setattr(harness, "cell_phasors", counted)
    Scenario.statics.cache_clear()  # later statics records wrap the counting function
    yield calls
    Scenario.statics.cache_clear()


def test_rerun_trial_computes_no_codeword_block(block_calls):
    # the search's blocks of the coarser levels come from their caches when a
    # trial is run again, whatever the hierarchy's depth, and the result is
    # the cold run's
    levels = ((2, 2), (4, 4), (4, 8), (8, 8), (8, 16))
    s = small_scenario(codebook_levels=levels)
    trial_draw.cache_clear()
    cold = run_trial(s, 10.0, 3)
    assert len(block_calls) == len(levels) - 1
    assert run_trial(s, 10.0, 3) == cold
    assert len(block_calls) == len(levels) - 1


def test_level_one_block_is_computed_once_per_campaign(block_calls):
    # level 1's block never changes key, and each other coarser level keeps
    # its last block for the next betas of the same trial index: 67 of the
    # 280 blocks asked are computed, where a cache shared by the levels and
    # smaller than their count would compute the 210 of levels 2 to 4
    s = small_scenario(codebook_levels=((2, 2), (4, 4), (4, 8), (8, 8), (8, 16)), trials=10,
                       beta_list_db=Scenario().beta_list_db)
    run_campaign(s)
    assert block_calls.count(((2, 2), tuple(np.ndindex(2, 2)))) == 1
    assert len(block_calls) <= 67


def test_ris_legs_equal_leg_phasors_bit_for_bit(reference_scenario):
    # the grid's distances, scaled and turned into phasors in one complex
    # array, give the bits of the per-pair formula of the other links
    ris, lam = reference_scenario.ris_geometry(), reference_scenario.lambda_m
    pts = np.random.default_rng(15).uniform(0.0, 60.0, (5, 3))
    got = _ris_legs(ris, pts, lam)
    assert got.shape == (5, ris.q) and got.flags.c_contiguous
    np.testing.assert_array_equal(got, leg_phasors(pts, ris.element_positions(), lam, +1))


def test_trial_draw_holds_about_one_ris_leg_array(reference_scenario):
    # each RIS leg array is made once, in the array that keeps it: a trial
    # index peaks near one (paths - 1, Q) complex leg array, not two
    s = reference_scenario
    s.statics()
    trial_draw.cache_clear()
    trial_draw(s, 1)  # a first draw imports numpy's random module
    trial_draw.cache_clear()
    leg_bytes = (s.paths_bs_ris - 1) * s.ris_geometry().q * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        trial_draw(s, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        trial_draw.cache_clear()
    assert peak <= 1.5 * leg_bytes


def test_trial_makes_no_element_positions_call(monkeypatch):
    # positions come from the statics record, B2's focusing codeword included
    s = small_scenario()
    s.statics()
    trial_draw.cache_clear()
    calls = []
    for cls in (nr.RisGeometry, nr.PlanarArrayGeometry):
        monkeypatch.setattr(cls, "element_positions",
                            lambda self, f=cls.element_positions: calls.append(self) or f(self))
    run_trial(s, 10.0, 7)
    assert calls == []


def test_warm_trial_builds_no_link(monkeypatch):
    # beta enters a trial as one scalar: a trial on a warm draw scales the
    # draw's terms and constructs no LinkPaths at its beta
    s = small_scenario()
    run_trial(s, 0.0, 2)
    built = []
    monkeypatch.setattr(LinkPaths, "__post_init__",
                        lambda self, f=LinkPaths.__post_init__: built.append(self) or f(self))
    run_trial(s, 10.0, 2)
    assert built == []


def test_run_trial_multi_antenna_mu_drops_b3():
    s = small_scenario(n_mu=2)
    r = run_trial(s, 10.0, 0)
    assert bm.B3_FULL_CSI not in r.snr_db
    assert set(r.snr_db) == {bm.PROPOSED, bm.B1_FULL_CODEBOOK, bm.B2_FULL_FOCUSING}


# --- campaign-static codewords: the finest-level table and on-demand levels ---------


_CODEWORD_CASES = ["reference", "small_n_mu_4", "small_one_level"]


def _codeword_case(case, request):
    """(scenario, phase codebook, [(beta, trial), ...]) of one oracle case."""
    if case == "reference":
        return (request.getfixturevalue("reference_scenario"),
                request.getfixturevalue("reference_codebook"), [(10.0, 0)])
    one_level = {"codebook_levels": ((4, 8),)}
    s = small_scenario(**({"n_mu": 4} if case == "small_n_mu_4" else one_level))
    return s, phase_codebook(s), [(0.0, 1), (10.0, 2), (20.0, 3)]


def _phase_array_search(d, a, codebook):
    """The coarse-to-fine search over phase arrays, one product per level:
    [(candidates, SNRs, winner)] per level."""
    records = []
    for depth, level in enumerate(codebook):
        if depth == 0:
            cands = [(wx, wy) for wx in range(level.shape[0]) for wy in range(level.shape[1])]
        else:
            (px, py), parent = winner, codebook[depth - 1].shape
            r_x, r_y = level.shape[0] // parent[0], level.shape[1] // parent[1]
            cands = [(px * r_x + i, py * r_y + j) for i in range(r_x) for j in range(r_y)]
        snrs = formula_snr(d, a, nr.cis(level[tuple(zip(*cands))]))
        winner = cands[int(np.argmax(snrs))]
        records.append((cands, snrs, winner))
    return records


@pytest.mark.parametrize("case", _CODEWORD_CASES)
def test_b1_from_table_equals_row_by_row_phase_scoring(case, request):
    # a trial index takes B1's products with the whole table once; scoring
    # each row of cells of the phase array through the same basis gives the
    # same bits at every beta
    s, codebook, draws = _codeword_case(case, request)
    statics = s.statics()
    assert statics.finest.shape == (codebook[-1].shape[0] * codebook[-1].shape[1],
                                    s.ris_geometry().q)
    for beta_db, trial in draws:
        draw, scale = trial_draw(s, trial), 10.0 ** (-beta_db / 20.0)
        rows = [received_snr(basis_products(nr.cis(row), draw.d, draw.c), scale)
                for row in codebook[-1]]
        assert bm.benchmark1_full_search(draw.b1, scale) == np.max(rows)


@pytest.mark.parametrize("case", _CODEWORD_CASES)
def test_trial_codewords_equal_codebook_cells(case, request):
    # the finest level is tabled in the statics, the coarser levels computed
    # from its recorded RIS positions; every level is asked whole, as the
    # search asks level 1, and one grid row of cells at a time
    s, codebook, _ = _codeword_case(case, request)
    statics, q = s.statics(), s.ris_geometry().q
    assert len(statics.blocks) == len(codebook) - 1
    np.testing.assert_array_equal(statics.finest, nr.cis(codebook[-1].reshape(-1, q)))
    for depth, level in enumerate(codebook):
        whole = codewords(s, depth, list(np.ndindex(*level.shape[:2])))
        np.testing.assert_array_equal(whole, nr.cis(level.reshape(-1, q)))
        for wx in range(level.shape[0]):
            cells = [(wx, wy) for wy in range(level.shape[1])]
            words = codewords(s, depth, cells)
            assert words.shape == (len(cells), q)
            for cell, word in zip(cells, words):
                np.testing.assert_array_equal(word, nr.cis(level[cell]))


def test_codeword_blocks_equal_codebook_cells_on_a_warm_cache():
    # each block of a coarser level, asked right after the same cells of other
    # scenarios and then right after other cells of its level and cells of
    # every coarser level, equals the codebook's cells through cis and an
    # uncached computation, bit for bit
    levels = ((2, 2), (4, 4), (4, 8), (8, 16))
    s = small_scenario(codebook_levels=levels)
    others = [small_scenario(codebook_levels=levels, codebook_alpha=0.5),
              small_scenario(codebook_levels=levels, ris_center=(0.0, 41.0, 5.0))]
    codebook = phase_codebook(s)
    assert len(s.statics().blocks) == len(levels) - 1
    for depth, level in enumerate(codebook[:-1]):
        for wx in range(level.shape[0]):
            cells = [(wx, wy) for wy in range(level.shape[1])]
            expect = nr.cis(level[wx])
            for other in others:
                codewords(other, depth, cells)
            np.testing.assert_array_equal(codewords(s, depth, cells), expect)
            codewords(s, depth, [((wx + 1) % level.shape[0], 0)])
            for warm, (n_x, n_y) in enumerate(levels[:-1]):
                codewords(s, warm, [(x % n_x, y % n_y) for x, y in cells])
            block = codewords(s, depth, cells)
            np.testing.assert_array_equal(block, expect)
            np.testing.assert_array_equal(
                block, s.statics().blocks[depth].__wrapped__(tuple(cells)))


def test_codeword_blocks_are_read_only():
    s = small_scenario()
    block = codewords(s, 1, [(0, 0), (0, 1)])
    assert block is codewords(s, 1, [(0, 0), (0, 1)])
    for phasors in (block, s.statics().finest):
        with pytest.raises(ValueError, match="read-only"):
            phasors[0, 0] = 0.0


def test_only_campaigns_import_numpy_random():
    # numpy imports numpy.random on first use; a campaign process does so
    # before its first trial, and importing the CLI, as the rasters do, not
    script = ("import sys; import nearris.cli; from nearris import harness; "
              "before = 'numpy.random' in sys.modules; "
              "harness._before_trials(harness.Scenario(ris_size_y_m=0.05, ris_size_z_m=0.05, "
              "codebook_levels=((1, 1), (1, 2)))); "
              "print(before, 'numpy.random' in sys.modules)")
    assert run_python(script).split() == ["False", "True"]


_POOL_SCRIPT = """
import concurrent.futures, json, sys
from nearris import harness

class Pool:  # records what the parent had imported when it built the pool, and forks nothing
    seen = []

    def __init__(self, max_workers, initializer, initargs):
        self.seen.append([m in sys.modules for m in ("numpy.random", "_hashlib")])
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)

concurrent.futures.ProcessPoolExecutor = Pool
before = "numpy.random" in sys.modules
harness.run_campaign(harness.Scenario(ris_size_y_m=0.05, ris_size_z_m=0.05, trials=2, workers=2,
                                      codebook_levels=((1, 1), (1, 2)), beta_list_db=(10.0,)))
print(json.dumps([before, Pool.seen]))
"""


def test_pool_is_built_after_its_parent_imports_numpy_random():
    # numpy.random imports secrets and hmac, and with them OpenSSL's
    # libcrypto; imported in the parent before the fork, the workers
    # inherit them rather than each mapping its own
    assert json.loads(run_python(_POOL_SCRIPT)) == [False, [[True, True]]]


def _trial_search(s, beta_db, trial):
    """The trace of `run_trial`'s search of (beta_db, trial)."""
    draw, scale = trial_draw(s, trial), 10.0 ** (-beta_db / 20.0)
    return hierarchical_search(s.codebook_levels,
                               lambda depth, cells: search_snr(s, draw, scale, depth, cells))


@pytest.mark.parametrize("case", _CODEWORD_CASES)
def test_search_equals_search_over_phase_arrays(case, request):
    # the search reads a coarser level's blocks and the finest level's cells
    # through their products with the draw's basis; (d, A) at beta times the
    # phase arrays' cells sounds the same cells and picks the same winners,
    # and the products move the SNRs in their last bits only
    s, codebook, draws = _codeword_case(case, request)
    for beta_db, trial in draws:
        trace = _trial_search(s, beta_db, trial)
        expect = _phase_array_search(*draw_cascade(trial_draw(s, trial), beta_db), codebook)
        assert len(trace.levels) == len(expect)
        for rec, (cands, snrs, winner) in zip(trace.levels, expect):
            assert rec.candidates == cands
            np.testing.assert_allclose(rec.snrs, snrs, rtol=1e-12)
            assert rec.winner == winner


@pytest.mark.parametrize("n_mu", [1, 4])
def test_search_ending_on_b1s_best_cell_scores_b1s_bits(n_mu):
    # the finest level's candidates are columns of B1's products, so a search
    # that ends on B1's best cell reports B1's SNR bit for bit
    s = small_scenario(n_mu=n_mu, beta_list_db=Scenario().beta_list_db)
    hits = 0
    for trial in range(10):
        for beta_db in s.beta_list_db:
            r = run_trial(s, beta_db, trial)
            b1 = received_snr(trial_draw(s, trial).b1, 10.0 ** (-beta_db / 20.0))
            if r.winners[-1] == divmod(int(np.argmax(b1)), s.codebook_levels[-1][1]):
                hits += 1
                assert r.snr_db[bm.PROPOSED] == r.snr_db[bm.B1_FULL_CODEBOOK]
    assert hits >= 20


def test_search_products_are_taken_once_per_trial_index(monkeypatch):
    # every beta of a trial index reads the products of the coarser blocks
    # its searches sound from the draw, which takes each block's once; the
    # next index's draw starts with none
    s = small_scenario(codebook_levels=((2, 2), (4, 4), (4, 8), (8, 8)),
                       beta_list_db=Scenario().beta_list_db)
    calls = []
    monkeypatch.setattr(harness, "basis_products",
                        lambda *args, f=harness.basis_products: calls.append(args) or f(*args))
    trial_draw.cache_clear()
    blocks = 0
    for trial in range(4):
        calls.clear()
        draw = trial_draw(s, trial)
        assert draw.products == {} and len(calls) == 2  # B1's and B2's
        calls.clear()
        for beta_db in s.beta_list_db:
            run_trial(s, beta_db, trial)
        sounded = {(depth, tuple(rec.candidates))
                   for beta_db in s.beta_list_db
                   for depth, rec in enumerate(_trial_search(s, beta_db, trial).levels[:-1])}
        assert set(draw.products) == sounded and len(calls) == len(sounded)
        blocks += len(sounded)
    assert blocks > 4 * (len(s.codebook_levels) - 1)  # some betas of an index part ways


@pytest.mark.parametrize("workers", [1, 2])
def test_campaign_order_and_results_equal_standalone_trials(workers):
    # a campaign runs trial index by trial index, every beta of an index in
    # one job; its results come back in (beta order, trial) order, each the
    # standalone run_trial of its coordinates
    s = small_scenario(trials=5, beta_list_db=(20.0, 0.0, 10.0), workers=workers,
                       codebook_levels=((2, 2), (4, 4)))
    results = run_campaign(s)
    assert [(r.beta_db, r.trial) for r in results] == [
        (b, t) for b in s.beta_list_db for t in range(s.trials)
    ]
    for r in results:
        assert r == run_trial(s, r.beta_db, r.trial)


def _blas_threads_set(monkeypatch, **env):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)


def test_campaign_forks_no_more_workers_than_trial_indices(monkeypatch):
    # every pool process builds the statics, so a pool larger than the
    # trial count would build them for nothing; the results are the
    # 1-worker campaign's. BLAS is pinned, so the cores are not what caps it
    _blas_threads_set(monkeypatch, OPENBLAS_NUM_THREADS="1")
    pools = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers, f=concurrent.futures.ProcessPoolExecutor, **kw:
                        pools.append(max_workers) or f(max_workers, **kw))
    s = small_scenario(trials=2, workers=4, codebook_levels=((2, 2), (4, 4)))
    results = run_campaign(s)
    assert pools == [min(2, harness.usable_cores())]
    assert results == run_campaign(dataclasses.replace(s, workers=1))


class _InProcessPool:
    """A stand-in for ProcessPoolExecutor that records its size and starts no process."""

    sizes = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_campaign_pool_is_capped_at_the_core_count(monkeypatch, tmp_path):
    # a workers value far past the usable cores asks for one pool process
    # per core this process may run on, not per host core, and gives the
    # 1-worker campaign's results; the manifest records the workers asked for
    _blas_threads_set(monkeypatch, OPENBLAS_NUM_THREADS="1")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    s = small_scenario(trials=5, workers=10**6, codebook_levels=((2, 2), (4, 4)),
                       beta_list_db=(10.0,))
    results = run_campaign(s)
    assert _InProcessPool.sizes == [3]
    assert results == run_campaign(dataclasses.replace(s, workers=1))
    save_scenario(s, tmp_path / "s.scn")
    assert cli_main(["sweep-beta", "--config", str(tmp_path / "s.scn"),
                     "--out-dir", str(tmp_path / "o")]) == 0
    assert _InProcessPool.sizes == [3, 3]
    assert json.loads((tmp_path / "o" / "manifest.json").read_text())["workers"] == 10**6


@pytest.mark.parametrize("env, size", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)])
def test_campaign_pool_takes_the_cores_blas_leaves(monkeypatch, env, size):
    # each pool process runs its products on every BLAS thread: unpinned
    # BLAS takes all 4 cores, which leaves room for one process, and 2 BLAS
    # threads for two; the stand-in starts no process
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(harness, "usable_cores", lambda: 4)
    _blas_threads_set(monkeypatch, **env)
    s = small_scenario(trials=5, workers=4, codebook_levels=((2, 2), (4, 4)),
                       beta_list_db=(10.0,))
    results = run_campaign(s)
    assert _InProcessPool.sizes == [size]
    assert results == run_campaign(dataclasses.replace(s, workers=1))


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
s = nr.Scenario({scenario})
print(json.dumps([[r.snr_db, r.mu_position, r.winners] for r in nr.run_campaign(s)]))
"""
_SMALL_CAMPAIGN = ("ris_size_y_m=0.15, ris_size_z_m=0.15, codebook_levels=((2, 2), (4, 4)), "
                   "trials=3, beta_list_db=(0.0, 10.0), ")


@pytest.mark.parametrize("scenario, count", [
    pytest.param(_SMALL_CAMPAIGN + "n_mu=1", 6, id="1"),
    pytest.param(_SMALL_CAMPAIGN + "n_mu=4", 6, id="4"),
    pytest.param("n_mu=4, trials=3", 21, id="reference-4"),  # the reference RIS and betas
])
def test_campaign_identical_across_blas_threads(scenario, count):
    # the NLOS sums, the cascade products, B1's products with its 256-row
    # table and (n_mu > 1) the combiner product run in BLAS; a second BLAS
    # thread must not change a single bit of the results
    src = str(Path(nr.__file__).resolve().parents[1])
    script = _CAMPAIGN_SCRIPT.format(scenario=scenario)
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True, timeout=300)
        runs.append(json.loads(proc.stdout))
    assert len(runs[0]) == count
    assert runs[0] == runs[1]


def test_rasters_written_identical_across_blas_threads(tmp_path):
    # a second BLAS thread moves the low bits of about a quarter of the
    # level-4 heatmap's values in memory (at most 1e-12 dB on the reference
    # RIS); the 6-digit CSVs of the rasters must keep every byte, whatever
    # number of kernel threads each BLAS setting leaves
    src = str(Path(nr.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for args in (["heatmap", "--level", "4", "--grid", "16", "--cells", "all"],
                     ["focus-cut", "--axis", "both", "--steps", "201"]):
            subprocess.run([sys.executable, "-m", "nearris.cli", *args, "--out-dir", str(out)],
                           env=env, capture_output=True, check=True, timeout=300)
        runs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
    assert len(runs[0]) == 256 + 1 + 2
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
        res = on_fixed_cascade(bm.benchmark2_full_focusing, *cascade(s, ch),
                               nr.cis(focusing_phases(s.bs_center, p_mu, geom, lam))[None])
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
    results = [run_trial(s, 10.0, trial) for trial in range(s.trials)]
    loss_b1, loss_prop = point_source_losses(s, phase_codebook(s), [r.mu_position for r in results])
    for r, l1, lp in zip(results, loss_b1, loss_prop):
        b2 = r.snr_db[bm.B2_FULL_FOCUSING]
        assert b2 - r.snr_db[bm.B1_FULL_CODEBOOK] == pytest.approx(l1, abs=0.5)
        assert b2 - r.snr_db[bm.PROPOSED] == pytest.approx(lp, abs=0.5)


# --- illumination pipeline -----------------------------------------------------------


def point_source_snr_db(s, p, omega):
    """The illumination budget of phase profile omega at point p, its GRCS summed directly."""
    lam, p_ris = s.lambda_m, np.asarray(s.ris_center)
    pl1 = free_space_amplitude(float(np.linalg.norm(np.asarray(s.bs_center) - p_ris)), lam)
    pl2 = free_space_amplitude(float(np.linalg.norm(p - p_ris)), lam)
    mag = abs(grcs(s.bs_center, p, omega, s.ris_geometry(), lam))
    return 10 * np.log10(s.illum_reference_power_w * (pl1 * pl2 * mag) ** 2 / s.sigma2)


def test_field_kernel_matches_grcs_oracle():
    # random points around the area and random profiles, more points than
    # one chunk: every entry equals the direct-summation GRCS in the
    # point-source budget
    s = small_scenario()
    rng = np.random.default_rng(9)
    points = np.asarray(s.blockage_center) + rng.uniform(-8.0, 8.0, (_FIELD_CHUNK + 5, 3))
    profiles = rng.uniform(0, 2 * np.pi, (3, s.ris_geometry().q))
    got = _field_snr_db(s, points, nr.cis(profiles))
    assert got.shape == (len(points), len(profiles))
    for i, p in enumerate(points):
        for j, omega in enumerate(profiles):
            assert got[i, j] == pytest.approx(point_source_snr_db(s, p, omega), rel=1e-9)


def test_rasters_have_the_same_bits_for_any_thread_count(monkeypatch):
    # 81 raster points make two full blocks and a partial one, a 101-step cut
    # four blocks and the random points four, so three threads share them;
    # each block gets the same GEMM on any thread, and no thread outlives
    # the call
    _blas_threads_set(monkeypatch, OPENBLAS_NUM_THREADS="1")
    s = small_scenario(illum_grid=9)
    rng = np.random.default_rng(5)
    points = np.asarray(s.blockage_center) + rng.uniform(-4.0, 4.0, (3 * _FIELD_CHUNK + 7, 3))
    profiles = nr.cis(rng.uniform(0, 2 * np.pi, (3, s.ris_geometry().q)))
    threads = threading.active_count()
    runs = []
    for cores in (1, 3):
        monkeypatch.setattr(harness, "usable_cores", lambda c=cores: c)
        hm = heatmap(s, 2)
        runs.append([_field_snr_db(s, points, profiles), hm.per_cell, hm.composite,
                     *(focusing_cut(s, axis, 2.0, steps=101)[1] for axis in "xy")])
        assert threading.active_count() == threads
    for one, three in zip(*runs):
        assert one.tobytes() == three.tobytes()


class _InlineThreads:
    """A stand-in for ThreadPoolExecutor that records its size and runs every job in the
    calling thread."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("cores, env, sizes", [
    (1, {"OPENBLAS_NUM_THREADS": "1"}, [1, 1]),
    (2, {"OPENBLAS_NUM_THREADS": "1"}, [2, 2]),
    (7, {"OPENBLAS_NUM_THREADS": "1"}, [2, 5]),
    (7, {"OMP_NUM_THREADS": "2"}, [2, 3]),
    (7, {"MKL_NUM_THREADS": "4"}, [1, 1]),
    (4, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2,1"}, [1, 1]),  # neither counts
    (4, {}, [1, 1]),  # unpinned BLAS takes every core
])
def test_field_kernel_takes_the_cores_blas_leaves_and_at_most_one_per_block(
        monkeypatch, cores, env, sizes):
    # a 7 x 7 raster is 2 blocks and a cut of 5 blocks' points is 5; the
    # stand-in starts no thread and gives the threaded kernel's results
    s = small_scenario(illum_grid=7)
    expected = heatmap(s, 0).per_cell, focusing_cut(s, "x", 2.0, 5 * _FIELD_CHUNK)[1]
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _InlineThreads)
    monkeypatch.setattr(_InlineThreads, "sizes", [])
    monkeypatch.setattr(harness, "usable_cores", lambda: cores)
    _blas_threads_set(monkeypatch, **env)
    threads = threading.active_count()
    got = heatmap(s, 0).per_cell, focusing_cut(s, "x", 2.0, 5 * _FIELD_CHUNK)[1]
    assert _InlineThreads.sizes == sizes
    assert threading.active_count() == threads
    for a, b in zip(expected, got):
        assert a.tobytes() == b.tobytes()


def test_field_threads_count_the_kernels_blocks(monkeypatch):
    # 33 points are one block, its tail of one joined to it, so one thread
    # scores them; four cores cap 200 points' seven blocks
    monkeypatch.setattr(harness, "usable_cores", lambda: 4)
    _blas_threads_set(monkeypatch, OPENBLAS_NUM_THREADS="1")
    assert _FIELD_CHUNK == 32
    assert [harness.field_threads(n) for n in (1, 32, 33, 64, 65, 97, 200)] == [1, 1, 1, 2, 2, 3, 4]


def test_field_kernel_bits_do_not_depend_on_its_block_size(monkeypatch):
    # 65 random points are one block at 128 points, 64 + 1 at 64 and 32 + 32
    # + 1 at 32, and an 801-step cut is 25 blocks of 32 and one point; numpy
    # scores a lone point with its vector product, so a tail of one joins the
    # block before it and every point gets the same GEMM row in any block
    s = small_scenario()
    rng = np.random.default_rng(3)
    points = np.asarray(s.blockage_center) + rng.uniform(-4.0, 4.0, (65, 3))
    profiles = nr.cis(rng.uniform(0, 2 * np.pi, (3, s.ris_geometry().q)))
    runs = []
    for chunk in (128, 64, 32):
        monkeypatch.setattr(harness, "_FIELD_CHUNK", chunk)
        runs.append((_field_snr_db(s, points, profiles).tobytes(),
                     focusing_cut(s, "x", 8.0, 801)[1].tobytes()))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_field_kernel_thread_holds_one_32_point_block(monkeypatch, reference_scenario):
    # on one kernel thread, 200 points of 8 profiles on the reference RIS
    # allocate one (32, Q) block of path phasors and its 4-point sub-blocks'
    # distances beyond the output; 64-point blocks would take twice that
    monkeypatch.setattr(harness, "usable_cores", lambda: 1)
    s = reference_scenario
    rng = np.random.default_rng(8)
    points = np.asarray(s.blockage_center) + rng.uniform(-4.0, 4.0, (200, 3))
    profiles = nr.cis(rng.uniform(0, 2 * np.pi, (8, s.ris_geometry().q)))
    _field_snr_db(s, points[:2], profiles)  # imports the thread pool
    block_bytes = 32 * s.ris_geometry().q * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        out = _field_snr_db(s, points, profiles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 1.5 * block_bytes


def test_field_kernel_blocks_run_under_the_callers_error_state(monkeypatch):
    # every point of three blocks is far enough that its squared distances
    # overflow; a worker thread starts from numpy's default error state,
    # which warns, so each block must take the caller's, and the kernel then
    # rejects the non-finite SNRs
    monkeypatch.setattr(harness, "usable_cores", lambda: 3)
    _blas_threads_set(monkeypatch, OPENBLAS_NUM_THREADS="1")
    s = small_scenario()
    far = 1e160 * np.linspace(1.0, 2.0, 3 * _FIELD_CHUNK)
    points = np.asarray(s.blockage_center) + far[:, None] * np.array([1.0, 0, 0])
    phasors = nr.cis(np.zeros((1, s.ris_geometry().q)))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        _field_snr_db(s, points, phasors)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite points or SNRs"):
            _field_snr_db(s, points, phasors)


def test_heatmap_cells_match_grcs_oracle():
    # every cell's raster, at a few points, is the point-source budget of
    # that cell's phase codeword: the cell order of the level's phasors is
    # the order of the per_cell axes
    s = small_scenario(illum_grid=5)
    level = 1
    hm = heatmap(s, level)
    words = phase_codebook(s)[level]
    assert hm.per_cell.shape == (*words.shape[:2], 5, 5)
    for ix, iy in [(0, 0), (1, 3), (4, 2), (3, 4)]:
        p = np.array([hm.xs[ix], hm.ys[iy], s.blockage_center[2]])
        for wx, wy in np.ndindex(*words.shape[:2]):
            assert hm.per_cell[wx, wy, ix, iy] == pytest.approx(
                point_source_snr_db(s, p, words[wx, wy]), rel=1e-9)


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
