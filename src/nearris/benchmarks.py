"""Reference schemes the hierarchical search is compared against.

B1 exhaustively sounds the finest `Codebook` level, the rows of its
`cell_phasors` table `Scenario.statics().finest`; B2 focuses on the exact
MU position. Neither reads the table or the codeword at a beta: a trial
index's `harness.trial_draw` takes their `beam_mgmt.basis_products` with the
basis of its (d, A) once, and a beta then costs O(W_x * W_y * N_mu) for B1
and O(N_mu) for B2. B3 phase-conjugates the cascaded per-element channel
from full CSI, from the trial's (d, A). All three return the same linear
SNR as the proposed scheme, direct link included.
"""

import numpy as np

from .beam_mgmt import basis_snr

B1_FULL_CODEBOOK = "B1_full_codebook"
B2_FULL_FOCUSING = "B2_full_focusing"
B3_FULL_CSI = "B3_full_csi"
PROPOSED = "proposed"


def benchmark1_full_search(y, s):
    """Exhaustive search over the finest level at s = 10^(-beta/20).

    y is the (3, N_mu, W_x * W_y) `basis_products` of the level's phasors
    (`codebook.cell_phasors`), and the result max |table A^T + d|^2 over
    every cell and combiner; costs W_x * W_y pilots.
    """
    return basis_snr(y, s)


def benchmark2_full_focusing(y, s):
    """Genie-aided focusing on the exact MU position: y is the (3, N_mu, 1)
    `basis_products` of its phasors, read at s as B1's."""
    return basis_snr(y, s)


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
