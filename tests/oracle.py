"""Slow, obviously correct pieces: the oracles of the codebook, the field kernel, the
channel reduction and `run_trial`.

`build_hierarchy` holds a whole hierarchy as phase arrays, one
(W_x, W_y, Q) array per level, and `phase_codebook` builds a scenario's;
the package computes codewords only a row of cells at a time, and the
tests compare those rows, `codebook dump` and the trial path with these
arrays. `mapping` gives the image points of elements as (..., 3) arrays.

`grcs` sums the reflection coefficient over element positions with
`np.exp`, the oracle of the field kernel's `cis` and grid distances.
`reduce_cascade` reduces one realization to (d, A) by the formula, and
`cascade` applies it to full channel matrices: the oracle of `trial_draw`'s
basis, which `beam_mgmt.cascade_basis` reduces term by term.

`slow_trial` builds the full channel matrices with `build_trial_channels`
at no blockage and attenuates the direct matrix itself, reduces them with
`cascade`, then scores every codeword of `phase_codebook` on its own with
`np.exp`: a search over those arrays, B1 over the finest level, B2 from
`focusing_phases` and B3 by its formula. No basis, table, block or cache
of the trial path is read.
"""

import dataclasses

import numpy as np

from nearris import benchmarks as bm
from nearris.beam_mgmt import bs_precoder_focus_ris, mu_combiners
from nearris.codebook import (
    _image_planes,
    check_levels,
    focusing_phases,
    unit_cell_factor,
    wide_illumination_phases,
)
from nearris.geometry import distance
from nearris.harness import build_trial_channels


def grcs(p_i, p_r, omega, geom, lambda_m):
    """Complex aggregate reflection coefficient between p_i and p_r.

    g * sum_n exp(+j*k*(|p_i - p_n| + |p_r - p_n|)) * exp(j*omega_n);
    its magnitude is bounded by g*Q for any phase vector.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (geom.q,):
        raise ValueError(f"omega must have length Q={geom.q}, got shape {omega.shape}")
    pn = geom.element_positions()
    k = 2.0 * np.pi / lambda_m
    d = distance(p_i, pn)
    d += distance(p_r, pn)
    g = unit_cell_factor(geom, lambda_m)
    return g * np.sum(np.exp(1j * (k * d + omega)))


def reduce_cascade(hv, h1v, h2, g, uh, sigma):
    """(d, A) in noise-amplitude units of hv = H v, h1v = H1 v and h2 = H2 under the
    conjugated combiner rows uh: row i of d + A exp(j*omega) is
    u_i^H (H + H2 diag(g*exp(j*omega)) H1) v / sigma."""
    return uh @ hv / sigma, uh @ (g * h2 * h1v) / sigma


def cascade(scenario, channels):
    """(d, A) of a trial's full channel matrices: the oracle of `trial_draw`'s basis."""
    v = bs_precoder_focus_ris(scenario.bs_geometry().element_positions(), scenario.ris_center,
                              scenario.lambda_m, scenario.p_bs_watts)
    return reduce_cascade(channels.h @ v, channels.h1 @ v, channels.h2,
                          unit_cell_factor(scenario.ris_geometry(), scenario.lambda_m),
                          mu_combiners(scenario.n_mu).conj(), np.sqrt(scenario.sigma2))


def mapping(p_n, codebook, depth, w_x, w_y):
    """Image point(s) in the blockage plane of RIS element position(s) for cell (w_x, w_y)
    of level depth.

    Accepts a single (3,) position or an (n, 3) batch, and integer-array
    cell indices broadcasting to a shape S: the result is S + (3,) or S + (n, 3).
    """
    p = np.asarray(p_n, dtype=float)
    single = p.ndim == 1
    p = np.atleast_2d(p)
    x, y = _image_planes(p[:, 1], p[:, 2], codebook, depth, w_x, w_y)
    out = np.empty(x.shape + (3,))
    out[..., 0] = x
    out[..., 1] = y
    out[..., 2] = codebook.p_b[2]
    return out[..., 0, :] if single else out


def build_hierarchy(codebook):
    """All codewords of a `Codebook` whose levels and alpha pass `check_levels`: one
    (big_w_x, big_w_y, Q) array per level, coarsest first, filled a row of cells at a time."""
    check_levels(codebook.levels, codebook.alpha)
    levels = []
    for depth, shape in enumerate(codebook.levels):
        words = np.empty((*shape, codebook.geom.q))
        for wx in range(shape[0]):
            # the last row stays bound while the next is computed: freeing it first lets
            # the heap shrink and fault back in at every row, a first build ~15% slower
            row = wide_illumination_phases(codebook, depth, wx, np.arange(shape[1]))
            words[wx] = row
        levels.append(words)
    return tuple(levels)


def phase_codebook(scenario):
    """The scenario's hierarchy as `build_hierarchy` phase arrays, coarsest first."""
    return build_hierarchy(scenario.codebook())


@dataclasses.dataclass
class SlowTrial:
    snr: dict       # scheme -> linear SNR
    pilots: int
    winners: list   # per level, the first maximum in row-major cell order
    margins: list   # per level, (best - second best) / best of the sounded SNRs; inf alone


def _snr(d, a, omega):
    """max_u |d_u + sum_q A_uq exp(j omega_q)|^2 of one phase profile."""
    return float(np.max(np.abs(d + a @ np.exp(1j * omega)) ** 2))


def slow_trial(scenario, beta_db, trial):
    """Every scheme's linear SNR, the search's pilots, winners and per-level margins."""
    channels, p_mu = build_trial_channels(
        dataclasses.replace(scenario, blockage_loss_db=0.0), beta_db, trial)
    # the blockage loss attenuates the direct link alone
    channels = dataclasses.replace(
        channels, h=channels.h * 10.0 ** (-scenario.blockage_loss_db / 20.0))
    d, a = cascade(scenario, channels)
    codebook = phase_codebook(scenario)

    winners, margins, pilots = [], [], 0
    for depth, level in enumerate(codebook):
        w_x, w_y = level.shape[:2]
        if depth == 0:
            cells = [(x, y) for x in range(w_x) for y in range(w_y)]
        else:
            (px, py), (pw_x, pw_y) = winners[-1], codebook[depth - 1].shape[:2]
            r_x, r_y = w_x // pw_x, w_y // pw_y
            cells = [(px * r_x + i, py * r_y + j) for i in range(r_x) for j in range(r_y)]
        snrs = [_snr(d, a, level[cell]) for cell in cells]
        best = max(snrs)
        winners.append(cells[snrs.index(best)])
        rest = sorted(snrs)[:-1]
        margins.append((best - rest[-1]) / best if rest else np.inf)
        pilots += len(cells)

    finest = codebook[-1]
    snr = {
        bm.PROPOSED: _snr(d, a, finest[winners[-1]]),
        bm.B1_FULL_CODEBOOK: max(_snr(d, a, finest[cell])
                                 for cell in np.ndindex(*finest.shape[:2])),
        bm.B2_FULL_FOCUSING: _snr(d, a, focusing_phases(scenario.bs_center, p_mu,
                                                        scenario.ris_geometry(),
                                                        scenario.lambda_m)),
    }
    if scenario.n_mu == 1:
        snr[bm.B3_FULL_CSI] = float(np.abs(d[0] + np.sum(np.abs(a[0]))) ** 2)
    return SlowTrial(snr=snr, pilots=pilots, winners=winners, margins=margins)
