"""Reference schemes the hierarchical search is compared against.

B1 exhaustively sounds the finest codebook level; B2 focuses on the exact
MU position; B3 phase-conjugates the cascaded per-element channel from
full CSI. All read the trial's direct term d and effective cascade A (see
`beam_mgmt.effective_cascade`) and return the same linear SNR as the
proposed scheme, direct link included.
"""

import numpy as np

from .beam_mgmt import received_snr
from .codebook import focusing_phases

B1_FULL_CODEBOOK = "B1_full_codebook"
B2_FULL_FOCUSING = "B2_full_focusing"
B3_FULL_CSI = "B3_full_csi"
PROPOSED = "proposed"


def benchmark1_full_search(d, a, level, combiners, sigma2):
    """Exhaustive search over one (W_x, W_y, Q) level, scored one grid row per call.

    Costs W_x * W_y pilots.
    """
    return np.stack([received_snr(d, a, row, combiners, sigma2) for row in level]).max()


def benchmark2_full_focusing(d, a, p_mu, geom, p_i, combiners, sigma2, lambda_m):
    """Genie-aided focusing on the exact MU position."""
    omega = focusing_phases(p_i, p_mu, geom, lambda_m)
    return received_snr(d, a, omega, combiners, sigma2)


def benchmark3_full_csi(d, a, sigma2):
    """Per-element phase conjugation from full CSI, single-antenna MU only.

    omega_q = -angle(A_q) aligns every cascaded term, so the RIS path
    contributes sum_q |A_q| = g * sum_q |(H1 v)_q h2_q| exactly; the direct
    term d is added as-is (the phase profile optimizes the cascade alone).
    Costs the 2Q channel coefficients of H1 v and h2.
    """
    d = np.asarray(d)
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != 1 or d.shape != (1,):
        raise ValueError("benchmark3 expects d of shape (1,) and A of shape (1, Q) (N_mu = 1)")
    return float(np.abs(d[0] + np.sum(np.abs(a[0]))) ** 2 / sigma2)
