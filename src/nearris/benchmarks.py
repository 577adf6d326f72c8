"""Reference schemes the hierarchical search is compared against.

B1 exhaustively sounds the finest codebook level, read from its
`cell_phasors` table, `Scenario.statics().finest`; B2 focuses on the exact MU
position, with the phasors that `harness.trial_draw` builds once per trial
index; B3 phase-conjugates the cascaded per-element channel from full
CSI. All read only the trial's (d, A) from `beam_mgmt.reduce_cascade`
and their own codewords, and return the same linear SNR as the proposed
scheme, direct link included.
"""

import numpy as np

from .beam_mgmt import received_snr

B1_FULL_CODEBOOK = "B1_full_codebook"
B2_FULL_FOCUSING = "B2_full_focusing"
B3_FULL_CSI = "B3_full_csi"
PROPOSED = "proposed"


def benchmark1_full_search(d, a, table):
    """Exhaustive search over the finest level, scored as one block.

    table is the level's (W_x * W_y, Q) phasors (`codebook.cell_phasors`),
    and the result max |table A^T + d|^2; costs W_x * W_y pilots.
    """
    return received_snr(d, a, table).max()


def benchmark2_full_focusing(d, a, focus):
    """Genie-aided focusing on the exact MU position: focus is its (Q,) phasors."""
    return received_snr(d, a, focus)


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
