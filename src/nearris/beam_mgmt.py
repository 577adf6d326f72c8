"""Transceiver side: precoder, combiner set, SNR measurement, hierarchical search.

The BS applies one fixed power-carrying precoder focused on the RIS
center; the MU maximizes over a small unit-norm combiner set. Both are
fixed, so a realization reduces once to a direct term d and an effective
cascade A, one row per combiner, in noise-amplitude units: the SNR under
RIS phases omega is max_i |d_i + A_i exp(j*omega)|^2. One "pilot" is one
SNR measurement under one RIS codeword. Every scheme that sounds
codewords scores a block of them, one profile per row, in one call, and
takes the first maximum in row-major cell order, so ties go to the lowest
cell index. The hierarchical search sounds the full first codebook level,
then only the children of each level's winner.
"""

from dataclasses import dataclass, field

import numpy as np

from .codebook import children


def bs_precoder_focus_ris(bs_positions, p_ris, lambda_m, p_bs_watts):
    """Near-field conjugate precoder toward the RIS center, carrying the
    transmit power: v = sqrt(P) * conj(a)/|a| with steering phases
    +k*|p_m - p_ris|, so the fields of all BS antennas add in phase at the
    RIS through the advance-convention channel. ||v||^2 = P exactly.
    """
    bs_positions = np.asarray(bs_positions, dtype=float)
    k = 2.0 * np.pi / lambda_m
    d = np.linalg.norm(bs_positions - np.asarray(p_ris, dtype=float)[None, :], axis=1)
    a = np.exp(1j * k * d)
    return np.sqrt(p_bs_watts) * a.conj() / np.linalg.norm(a)


def mu_combiners(n_mu):
    """Unit-norm combiner set, one per row of an (n_mu, n_mu) array.

    Row i is DFT beam i over the MU array; [[1]] when n_mu = 1.
    """
    if n_mu < 1:
        raise ValueError("n_mu must be >= 1")
    f = np.fft.fft(np.eye(n_mu)) / np.sqrt(n_mu)
    return np.ascontiguousarray(f.T)


def effective_cascade(channels, v, g, combiners, sigma2):
    """Reduce one realization under precoder v to (d, A) in noise-amplitude units.

    With combiner rows U (N_u, N_mu) and sigma = sqrt(sigma2), d = conj(U) H v / sigma
    is (N_u,) and A = conj(U) (g * H2 (.) (H1 v)) / sigma is (N_u, Q), so row i
    of d + A exp(j*omega) is u_i^H (H + H2 diag(g*exp(j*omega)) H1) v / sigma.
    """
    u = np.asarray(combiners)
    if u.size == 0:
        raise ValueError("combiner set is empty")
    if not sigma2 > 0:  # also rejects NaN
        raise ValueError("sigma2 must be positive")
    uh, sigma = u.conj(), np.sqrt(sigma2)
    return uh @ (channels.h @ v) / sigma, uh @ (g * channels.h2 * (channels.h1 @ v)) / sigma


def received_snr(d, a, omega):
    """Linear SNR max_i |d_i + A_i exp(j*omega)|^2 of a (d, A) pair in noise units.

    omega holds one profile per row, shape (..., Q), and the result has
    shape (...): a 1-D profile gives a scalar.
    """
    y = np.exp(1j * np.asarray(omega, dtype=float)) @ a.T + d
    return np.max(np.abs(y) ** 2, axis=-1)


@dataclass
class LevelRecord:
    candidates: list    # sounded cells (w_x, w_y)
    snrs: np.ndarray    # linear SNR of each candidate, in the same order
    winner: tuple


@dataclass
class SearchTrace:
    levels: list = field(default_factory=list)

    @property
    def pilot_count(self):
        return sum(len(rec.candidates) for rec in self.levels)

    def pilots_per_level(self):
        return [len(rec.candidates) for rec in self.levels]


def hierarchical_search(d, a, codebook):
    """Coarse-to-fine codeword selection over the hierarchy's level arrays.

    Sounds every cell of level 1, then per level only the children of the
    previous winner, all candidates of a level in one `received_snr` call;
    the winner is the first maximum in row-major order. Returns the trace,
    whose last level holds the final winner. Total pilots = |level 1| +
    sum of refinement-ratio products.
    """
    trace = SearchTrace()
    for depth, level in enumerate(codebook):
        if depth == 0:
            cands = list(np.ndindex(level.shape[:2]))
        else:
            cands = children(codebook[depth - 1].shape[:2], level.shape[:2], winner)
        snrs = received_snr(d, a, level[tuple(zip(*cands))])
        winner = cands[int(np.argmax(snrs))]
        trace.levels.append(LevelRecord(cands, snrs, winner))
    return trace
