"""Shared fixtures plus the acceptance-criteria summary hook.

Desk-scale scenario builders live here so module tests stay fast; the
full-size reference scenario is session-scoped because its codebook and
campaigns are the expensive parts of the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nearris as nr
from nearris.beam_mgmt import at_scale, basis_products
from nearris.codebook import children
from oracle import phase_codebook

_ACCEPTANCE_LINES = []


def run_python(script, *args):
    """The stdout of `python -c script args...` in a fresh interpreter that imports this
    package from the same source tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(nr.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


@pytest.fixture
def record_criterion():
    """One printable pass/fail line per acceptance criterion."""

    def rec(num, ok, detail):
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
        _ACCEPTANCE_LINES.append(line)
        assert ok, line

    return rec


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def default_scenario_path():
    """The bundled reference scenario file, which spells out `Scenario()`."""
    return Path(nr.__file__).parent / "scenarios" / "reference.scn"


def small_scenario(**overrides):
    """Reduced-aperture scenario (Q = 784) for fast module tests."""
    base = dict(
        ris_size_y_m=0.15,
        ris_size_z_m=0.15,
        codebook_levels=((2, 2), (4, 4), (4, 8)),
        trials=12,
        beta_list_db=(0.0, 10.0, 20.0),
    )
    base.update(overrides)
    return nr.Scenario(**base)


def los_only_scenario(**overrides):
    """Same but multipath disabled: one LOS path per link."""
    return small_scenario(paths_direct=1, paths_bs_ris=1, paths_ris_mu=1, **overrides)


def projected(channels, v):
    """(H v, H1 v, H2) of full matrices: the channel arguments of `oracle.reduce_cascade`."""
    return channels.h @ v, channels.h1 @ v, channels.h2


def on_fixed_cascade(scheme, d, a, phasors):
    """B1's or B2's SNR of a (d, A) that no beta scales, over (K, Q) phasors.

    Its basis is (d, 0, 0) and (A, 0, 0), so at s = 0 the scheme reads the
    products phasors A^T + d alone.
    """
    basis = (np.stack([x, np.zeros_like(x), np.zeros_like(x)]) for x in (d, a))
    return scheme(basis_products(phasors, *basis), 0.0)


def draw_cascade(draw, beta_db):
    """(d, A) at beta_db of a `trial_draw`, as `run_trial` forms them."""
    s = 10.0 ** (-beta_db / 20.0)
    return at_scale(draw.d, s), at_scale(draw.c, s)


def phase_levels(codebook):
    """`hierarchical_search`'s level shapes and codewords over phase arrays.

    The codewords callable exponentiates each asked cell of its level array.
    """
    def codewords(depth, cells):
        return nr.cis(codebook[depth][tuple(zip(*cells))])
    return [level.shape[:2] for level in codebook], codewords


@pytest.fixture(scope="session")
def reference_scenario():
    return nr.Scenario()


@pytest.fixture(scope="session")
def reference_codebook(reference_scenario):
    return phase_codebook(reference_scenario)


def point_source_losses(scenario, codebook, mu_positions):
    """Codebook losses in dB against full focusing, seen from a point source.

    With the BS reduced to a point source at its center p_i, codeword c
    reaches MU position p_mu with amplitude
    |sum_n exp(j(k(|p_i - p_n| + |p_mu - p_n|) + omega_c,n))|, which full
    focusing raises to Q; the loss is -20*log10 of that amplitude over Q.
    Returns two arrays with one value per position: the loss of the best
    finest-level codeword (where exhaustive search lands) and that of the
    codeword on which a noise-free hierarchical search ends, using the same
    `children` rule and smallest-index tie break as the trial search.
    """
    geom = scenario.ris_geometry()
    pn = geom.element_positions()
    k = 2.0 * np.pi / scenario.lambda_m
    mus = np.atleast_2d(np.asarray(mu_positions, dtype=float))
    to_mu = np.exp(1j * k * np.linalg.norm(mus[:, None, :] - pn[None, :, :], axis=2))
    phase_in = k * np.linalg.norm(np.asarray(scenario.bs_center, dtype=float) - pn, axis=1)
    amps = []  # per level: cell -> amplitude ratio at each position
    for level in codebook:
        cells = list(np.ndindex(level.shape[:2]))
        w = np.exp(1j * (phase_in + level.reshape(len(cells), -1)))
        amps.append(dict(zip(cells, (np.abs(to_mu @ w.T) / geom.q).T)))
    finest = np.max(np.stack(list(amps[-1].values())), axis=0)
    searched = np.empty(len(mus))
    for t in range(len(mus)):
        cands = list(amps[0])
        for depth, amp in enumerate(amps):
            if depth:
                cands = children(codebook[depth - 1].shape[:2], codebook[depth].shape[:2], winner)
            winner = max(sorted(cands), key=lambda c: amp[c][t])
        searched[t] = amps[-1][winner][t]
    return -20.0 * np.log10(finest), -20.0 * np.log10(searched)
