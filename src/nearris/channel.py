"""Ray-based near-field channel synthesis.

Each link (BS-RIS, RIS-MU, BS-MU) is a `LinkPaths`: three arrays over
one LOS path plus zero or more single-bounce scattered paths.
A channel matrix entry is the coherent sum over paths of
pathloss * fading * exp(sign * j * k * distance), where the distance is
the exact per-antenna-pair path length (spherical wavefront, no planar
approximation). The per-path pathloss is a single amplitude factor
computed from array-center distances.

`sum_paths` gives a link's LOS and scattered terms at its amplitudes, and
`assemble_channel` adds them into the full matrix H, the trials' oracle.
"""

from dataclasses import dataclass, replace

import numpy as np

from .geometry import cis, distance

_FOUR_PI = 4.0 * np.pi


def free_space_amplitude(d_m, lambda_m):
    """Amplitude-domain Friis factor lambda/(4*pi*d), elementwise for arrays."""
    if np.any(np.asarray(d_m) <= 0):
        raise ValueError(f"distance must be positive, got {d_m}")
    return lambda_m / (_FOUR_PI * d_m)


@dataclass(frozen=True)
class LinkPaths:
    """One link's n paths as arrays; row 0 is the LOS path.

    amplitude (n,) holds the real pathloss amplitudes (>= 0), fading (n,)
    the complex gains, and scatterers (n-1, 3) the bounce point of each
    scattered path: row i-1 belongs to path i.
    """

    amplitude: np.ndarray
    fading: np.ndarray
    scatterers: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitude, dtype=float)
        fad = np.asarray(self.fading, dtype=complex)
        scat = np.asarray(self.scatterers, dtype=float)
        if scat.size == 0:
            scat = scat.reshape(0, 3)
        if amp.ndim != 1 or amp.size < 1:
            raise ValueError("a link needs at least the LOS path")
        if fad.shape != amp.shape:
            raise ValueError(f"fading must have shape {amp.shape}, got {fad.shape}")
        if scat.shape != (amp.size - 1, 3):
            raise ValueError(
                f"scatterers must have shape {(amp.size - 1, 3)} (none for the LOS path at "
                f"index 0), got {scat.shape}"
            )
        if np.any(amp < 0):
            raise ValueError("amplitude pathloss must be >= 0")
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "fading", fad)
        object.__setattr__(self, "scatterers", scat)

    def __len__(self):
        return self.amplitude.size


@dataclass(frozen=True)
class ChannelSet:
    """The three channel matrices of one realization."""

    h: np.ndarray   # (N_mu, N_bs) direct
    h1: np.ndarray  # (Q, N_bs)    BS to RIS
    h2: np.ndarray  # (N_mu, Q)    RIS to MU


def noise_power(psd_dbm_per_hz, bandwidth_hz, noise_figure_db):
    """Noise power in watts: psd + 10*log10(B) + NF, converted from dBm."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    if noise_figure_db < 0:
        raise ValueError("noise figure must be >= 0 dB")
    total_dbm = psd_dbm_per_hz + 10.0 * np.log10(bandwidth_hz) + noise_figure_db
    return 10.0 ** ((total_dbm - 30.0) / 10.0)


def generate_scatterers(box_min, box_max, count, rng):
    """count i.i.d. uniform positions inside the axis-aligned box, shape (count, 3)."""
    if count < 0:
        raise ValueError("scatterer count must be >= 0")
    lo = np.asarray(box_min, dtype=float)
    hi = np.asarray(box_max, dtype=float)
    if np.any(hi < lo):
        raise ValueError("box_max must dominate box_min componentwise")
    return lo + (hi - lo) * rng.random((count, 3))


def leg_phasors(a, b, lambda_m, sign):
    """exp(sign*j*k*|a_m - b_n|) for (m, n), shape (len(a), len(b)).

    The distances are scaled by sign*k in place, then turned into phasors."""
    d = distance(a[:, None, :], b[None, :, :])
    d *= sign * (2.0 * np.pi / lambda_m)
    return cis(d)


def assemble_channel(link, tx_positions, rx_positions, lambda_m, sign):
    """Channel matrix of shape (n_rx, n_tx) for one link.

    Entry (r, t) = sum_i PL_i * gamma_i * exp(sign * 1j * k * d_i(t, r))
    with d_i the exact per-pair path length. `sign` is +1 or -1 and fixes
    the propagation phase convention for this link. A bounce length splits
    into a tx and an rx leg, so the scattered paths sum as one product of
    the (n_rx, n-1) and (n-1, n_tx) leg phasors (`sum_paths`).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    tx = np.asarray(tx_positions, dtype=float)
    rx = np.asarray(rx_positions, dtype=float)
    if tx.ndim != 2 or rx.ndim != 2 or tx.shape[1] != 3 or rx.shape[1] != 3:
        raise ValueError("positions must be (n, 3) arrays")
    s = link.scatterers
    return np.add(*sum_paths(link, leg_phasors(rx, tx, lambda_m, sign),
                             leg_phasors(rx, s, lambda_m, sign),
                             leg_phasors(tx, s, lambda_m, sign)))


def sum_paths(link, los, rx_legs, tx_legs):
    """A link's (LOS, scattered) terms w_0 los and (rx_legs * w[1:]) tx_legs^T, w = PL * gamma.

    Given E v and the 1-D E_tx^T v for its LOS and tx phasors, they sum to H v.
    The path weights are applied to rx_legs in place, so it is consumed:
    every caller passes an array made for this call."""
    w = link.amplitude * link.fading
    rx_legs *= w[1:]
    return w[0] * los, rx_legs @ tx_legs.T


def apply_beta(link, beta_db):
    """Rescale NLOS pathlosses by one factor, so PL_0^2 / sum_i PL_i^2 = 10^(beta_db/10).

    The factor, proportional to 10^(-beta_db/20), preserves the relative
    NLOS profile; the LOS path is untouched. Power-domain ratio, exact.
    """
    if len(link) < 2:
        raise ValueError("a beta needs at least one NLOS path")
    p_nlos = np.sum(link.amplitude[1:] ** 2)
    if p_nlos == 0:
        raise ValueError("all NLOS pathlosses are zero, ratio undefined")
    target = link.amplitude[0] ** 2 / 10.0 ** (beta_db / 10.0)
    amplitude = link.amplitude.copy()
    amplitude[1:] *= np.sqrt(target / p_nlos)
    return replace(link, amplitude=amplitude)


def blockage_attenuation(link, loss_db):
    """Multiply every path amplitude by 10^(-loss_db/20) (power loss of loss_db)."""
    return replace(link, amplitude=link.amplitude * 10.0 ** (-loss_db / 20.0))
