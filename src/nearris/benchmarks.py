"""Reference schemes the hierarchical search is compared against.

B1 exhaustively sounds the finest codebook level; B2 focuses on the exact
MU position; B3 phase-conjugates the cascaded per-element channel from
full CSI. All read only the trial's (d, A) from `beam_mgmt.effective_cascade`
and return the same linear SNR as the proposed scheme, direct link included.
"""

import numpy as np

from .beam_mgmt import received_snr
from .codebook import focusing_phases

B1_FULL_CODEBOOK = "B1_full_codebook"
B2_FULL_FOCUSING = "B2_full_focusing"
B3_FULL_CSI = "B3_full_csi"
PROPOSED = "proposed"


def benchmark1_full_search(d, a, level):
    """Exhaustive search over one (W_x, W_y, Q) level, scored one grid row per call.

    Costs W_x * W_y pilots.
    """
    return np.stack([received_snr(d, a, row) for row in level]).max()


def benchmark2_full_focusing(d, a, p_mu, geom, p_i, lambda_m):
    """Genie-aided focusing on the exact MU position."""
    omega = focusing_phases(p_i, p_mu, geom, lambda_m)
    return received_snr(d, a, omega)


def benchmark3_full_csi(d, a):
    """Per-element phase conjugation from full CSI, single-antenna MU only.

    omega_q = -angle(A_q) aligns every cascaded term, so the RIS path
    contributes sum_q |A_q| exactly, and the direct term d is added as-is
    (the profile optimizes the cascade alone). Costs the 2Q channel
    coefficients of H1 v and h2.
    """
    if a.ndim != 2 or a.shape[0] != 1 or d.shape != (1,):
        raise ValueError("benchmark3 expects d of shape (1,) and A of shape (1, Q) (N_mu = 1)")
    return float(np.abs(d[0] + np.sum(np.abs(a[0]))) ** 2)
