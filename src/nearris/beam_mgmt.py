"""Transceiver side: precoder, combiner set, SNR measurement, hierarchical search.

The BS applies one fixed power-carrying precoder focused on the RIS
center; the MU maximizes over a small unit-norm combiner set. Because the
precoder is fixed, a channel realization reduces once to the direct term
d = H v and the effective cascade A = g * H2 (.) (H1 v), and the receive
vector under RIS phases omega is y = d + A exp(j*omega). One "pilot" is
one SNR measurement under one RIS codeword. The hierarchical search
sounds the full first codebook level, then only the children of each
level's winner.
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
    """Unit-norm combiner set: DFT beams over the MU array; {[1]} when n_mu = 1."""
    if n_mu < 1:
        raise ValueError("n_mu must be >= 1")
    f = np.fft.fft(np.eye(n_mu)) / np.sqrt(n_mu)
    return [f[:, i].copy() for i in range(n_mu)]


def effective_cascade(channels, v, g):
    """Reduce one realization under precoder v to (d, A).

    d = H v has shape (N_mu,); A = g * H2 (.) (H1 v), row-wise, has shape
    (N_mu, Q). For any RIS phase vector omega the receive vector
    (H + H2 diag(g*exp(j*omega)) H1) v equals d + A exp(j*omega).
    """
    return channels.h @ v, g * channels.h2 * (channels.h1 @ v)


def received_snr(d, a, omega, combiners, sigma2, rng=None, meas_noise_reps=0):
    """Eq.-style linear SNR: max over combiners of |u^H (d + A exp(j*omega))|^2 / sigma2.

    With meas_noise_reps > 0 the measurement is emulated from that many
    AWGN-corrupted pilot repetitions (requires rng); default is the exact
    noiseless evaluation.
    """
    if not combiners:
        raise ValueError("combiner set is empty")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    y = d + a @ np.exp(1j * np.asarray(omega, dtype=float))
    best = 0.0
    for u in combiners:
        z = np.vdot(u, y)
        if meas_noise_reps > 0:
            if rng is None:
                raise ValueError("measurement noise requires an rng")
            n = rng.normal(size=meas_noise_reps) + 1j * rng.normal(size=meas_noise_reps)
            z = np.mean(z + np.sqrt(sigma2 / 2.0) * n)
        best = max(best, abs(z) ** 2 / sigma2)
    return best


def best_index(snrs, candidates):
    """Argmax over the candidate set; ties broken by the smallest index."""
    candidates = sorted(candidates)
    if not candidates:
        raise ValueError("candidate set is empty")
    missing = [c for c in candidates if c not in snrs]
    if missing:
        raise ValueError(f"no measurement for candidates {missing}")
    best = candidates[0]
    for c in candidates[1:]:
        if snrs[c] > snrs[best]:
            best = c
    return best


@dataclass
class LevelRecord:
    candidates: list
    snrs: dict          # index -> linear SNR
    winner: tuple


@dataclass
class SearchTrace:
    levels: list = field(default_factory=list)

    @property
    def pilot_count(self):
        return sum(len(rec.candidates) for rec in self.levels)

    def pilots_per_level(self):
        return [len(rec.candidates) for rec in self.levels]


def hierarchical_search(d, a, codebook, combiners, sigma2, rng=None, meas_noise_reps=0):
    """Coarse-to-fine codeword selection over the hierarchy.

    Sounds every cell of level 1, then per level only the children of the
    previous winner; returns the trace, whose last level holds the final
    winner. Total pilots = |level 1| + sum of refinement-ratio products.
    """
    trace = SearchTrace()
    winner = None
    for depth, level in enumerate(codebook.levels):
        if depth == 0:
            cands = level.indices()
        else:
            prev = codebook.levels[depth - 1]
            cands = sorted(
                children((prev.big_w_x, prev.big_w_y), (level.big_w_x, level.big_w_y), winner)
            )
        snrs = {
            c: received_snr(d, a, level.codewords[c], combiners, sigma2,
                            rng=rng, meas_noise_reps=meas_noise_reps)
            for c in cands
        }
        winner = best_index(snrs, cands)
        trace.levels.append(LevelRecord(candidates=list(cands), snrs=snrs, winner=winner))
    return trace
