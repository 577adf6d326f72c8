"""Ray-based near-field channel synthesis.

Each link (BS-RIS, RIS-MU, BS-MU) is an explicit list of propagation
paths: one LOS path plus zero or more single-bounce scattered paths.
A channel matrix entry is the coherent sum over paths of
pathloss * fading * exp(sign * j * k * distance), where the distance is
the exact per-antenna-pair path length (spherical wavefront, no planar
approximation). The per-path pathloss is a single amplitude factor
computed from array-center distances.
"""

from dataclasses import dataclass, replace

import numpy as np

LOS = "LOS"
NLOS = "NLOS"

_FOUR_PI = 4.0 * np.pi


def free_space_amplitude(d_m, lambda_m):
    """Amplitude-domain Friis factor lambda/(4*pi*d), elementwise for arrays."""
    if np.any(np.asarray(d_m) <= 0):
        raise ValueError(f"distance must be positive, got {d_m}")
    return lambda_m / (_FOUR_PI * d_m)


@dataclass(frozen=True)
class Path:
    """One propagation path. LOS paths have no scatterer and unit fading."""

    kind: str
    amplitude_pathloss: float
    fading: complex = 1.0 + 0.0j
    scatterer: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (LOS, NLOS):
            raise ValueError(f"unknown path kind {self.kind!r}")
        if self.kind == NLOS and self.scatterer is None:
            raise ValueError("NLOS path requires a scatterer position")
        if self.kind == LOS and self.scatterer is not None:
            raise ValueError("LOS path must not carry a scatterer")
        if self.amplitude_pathloss < 0:
            raise ValueError("amplitude pathloss must be >= 0")
        if self.scatterer is not None:
            object.__setattr__(self, "scatterer", np.asarray(self.scatterer, dtype=float))


@dataclass(frozen=True)
class LinkPaths:
    """Ordered path list for one link; index 0 is the LOS path."""

    link: str
    paths: tuple

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        if not self.paths:
            raise ValueError("a link needs at least the LOS path")
        if self.paths[0].kind != LOS:
            raise ValueError("path index 0 is reserved for the LOS path")
        if any(p.kind == LOS for p in self.paths[1:]):
            raise ValueError("only one LOS path allowed, at index 0")

    def __len__(self):
        return len(self.paths)


@dataclass(frozen=True)
class ChannelSet:
    """The three channel matrices of one realization."""

    h: np.ndarray   # (N_mu, N_bs) direct
    h1: np.ndarray  # (Q, N_bs)    BS to RIS
    h2: np.ndarray  # (N_mu, Q)    RIS to MU


@dataclass(frozen=True)
class NoiseModel:
    psd_dbm_per_hz: float
    bandwidth_hz: float
    noise_figure_db: float = 0.0

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        if self.noise_figure_db < 0:
            raise ValueError("noise figure must be >= 0 dB")


def noise_power(model):
    """Noise power in watts: psd + 10*log10(B) + NF, converted from dBm."""
    total_dbm = model.psd_dbm_per_hz + 10.0 * np.log10(model.bandwidth_hz) + model.noise_figure_db
    return 10.0 ** ((total_dbm - 30.0) / 10.0)


def path_length(a, path, b):
    """Geometric length a->b (LOS) or a->scatterer->b (NLOS) in meters."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if path.kind == LOS:
        return float(np.linalg.norm(a - b))
    s = path.scatterer
    return float(np.linalg.norm(a - s) + np.linalg.norm(s - b))


def generate_scatterers(box_min, box_max, count, rng):
    """count i.i.d. uniform positions inside the axis-aligned box, shape (count, 3)."""
    if count < 0:
        raise ValueError("scatterer count must be >= 0")
    lo = np.asarray(box_min, dtype=float)
    hi = np.asarray(box_max, dtype=float)
    if np.any(hi < lo):
        raise ValueError("box_max must dominate box_min componentwise")
    return lo + (hi - lo) * rng.random((count, 3))


def assemble_channel(link, tx_positions, rx_positions, lambda_m, sign):
    """Channel matrix of shape (n_rx, n_tx) for one link.

    Entry (r, t) = sum_i PL_i * gamma_i * exp(sign * 1j * k * d_i(t, r))
    with d_i the exact per-pair path length. `sign` is +1 or -1 and fixes
    the propagation phase convention for this link.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    tx = np.asarray(tx_positions, dtype=float)
    rx = np.asarray(rx_positions, dtype=float)
    if tx.ndim != 2 or rx.ndim != 2 or tx.shape[1] != 3 or rx.shape[1] != 3:
        raise ValueError("positions must be (n, 3) arrays")
    k = 2.0 * np.pi / lambda_m
    out = np.zeros((rx.shape[0], tx.shape[0]), dtype=np.complex128)
    for p in link.paths:
        w = p.amplitude_pathloss * p.fading
        if w == 0:
            continue
        if p.kind == LOS:
            d = np.linalg.norm(rx[:, None, :] - tx[None, :, :], axis=2)
            out += w * np.exp(sign * 1j * k * d)
        else:
            # bounce length separates per endpoint: rank-1 contribution
            d_tx = np.linalg.norm(tx - p.scatterer[None, :], axis=1)
            d_rx = np.linalg.norm(rx - p.scatterer[None, :], axis=1)
            out += w * np.outer(np.exp(sign * 1j * k * d_rx), np.exp(sign * 1j * k * d_tx))
    return out


def apply_beta(link, beta_db):
    """Rescale NLOS pathlosses so PL_0^2 / sum_i PL_i^2 = 10^(beta_db/10).

    The common factor preserves the relative NLOS profile; the LOS path is
    untouched. Power-domain ratio, exact.
    """
    nlos = [p for p in link.paths[1:]]
    if not nlos:
        raise ValueError("apply_beta needs at least one NLOS path")
    p_los = link.paths[0].amplitude_pathloss ** 2
    p_nlos = sum(p.amplitude_pathloss**2 for p in nlos)
    if p_nlos == 0:
        raise ValueError("all NLOS pathlosses are zero, ratio undefined")
    target = p_los / 10.0 ** (beta_db / 10.0)
    scale = float(np.sqrt(target / p_nlos))
    new_paths = [link.paths[0]] + [
        replace(p, amplitude_pathloss=p.amplitude_pathloss * scale) for p in nlos
    ]
    return LinkPaths(link=link.link, paths=tuple(new_paths))


def blockage_attenuation(link, loss_db):
    """Multiply every path amplitude by 10^(-loss_db/20) (power loss of loss_db)."""
    f = 10.0 ** (-loss_db / 20.0)
    return LinkPaths(
        link=link.link,
        paths=tuple(replace(p, amplitude_pathloss=p.amplitude_pathloss * f) for p in link.paths),
    )
