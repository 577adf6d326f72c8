"""One beam-training run, narrated level by level.

Draws a single multipath realization of the bundled scenario, walks the
hierarchical codebook search over it, and prints every level's sounded
cells with the winner. The search spends 24 pilots; the exhaustive
baseline spends 256 for (usually) a similar SNR, and the two genie
baselines bound it from above.

Runtime: under a minute (full 8649-element surface).
"""

import numpy as np

import nearris as nr
from nearris import benchmarks as bm
from nearris.beam_mgmt import (
    bs_precoder_focus_ris,
    effective_cascade,
    hierarchical_search,
    mu_combiners,
)
from nearris.codebook import unit_cell_factor


def main():
    s = nr.Scenario()
    beta_db = 10.0
    trial = 7

    print("building codebook (16 + 64 + 128 + 256 codewords)...")
    codebook = s.build_codebook()
    channels, p_mu = nr.build_trial_channels(s, beta_db, trial)
    print(f"user drawn at ({p_mu[0]:.2f}, {p_mu[1]:.2f}, {p_mu[2]:.2f}) m, "
          f"beta = {beta_db:g} dB\n")

    lam = s.lambda_m
    g = unit_cell_factor(s.ris_geometry(), lam)
    v = bs_precoder_focus_ris(s.bs_geometry().element_positions(), s.ris_center, lam,
                              s.p_bs_watts)
    combiners = mu_combiners(s.n_mu)
    d, a = effective_cascade(channels, v, g)

    trace = hierarchical_search(d, a, codebook, combiners, s.sigma2)
    for depth, rec in enumerate(trace.levels):
        lev = codebook.levels[depth]
        print(f"level {depth + 1} ({lev.big_w_x}x{lev.big_w_y} cells): "
              f"sounded {len(rec.candidates)} pilots")
        for c in rec.candidates:
            tag = "  <- winner" if c == rec.winner else ""
            print(f"    cell {c}: {10 * np.log10(rec.snrs[c]):7.2f} dB{tag}")
    prop = trace.levels[-1].snrs[trace.levels[-1].winner]
    print(f"\ntotal pilots: {trace.pilot_count} "
          f"(per level {trace.pilots_per_level()})")

    r1 = bm.benchmark1_full_search(d, a, codebook.levels[-1], combiners, s.sigma2)
    r2 = bm.benchmark2_full_focusing(d, a, p_mu, s.ris_geometry(), s.bs_center,
                                     combiners, s.sigma2, lam)
    r3, _, _ = bm.benchmark3_full_csi(d, a, s.sigma2)

    print(f"\n{'scheme':>28s} {'SNR (dB)':>9s}   cost")
    print(f"{'hierarchical search':>28s} {10 * np.log10(prop):9.2f}   "
          f"{trace.pilot_count} pilots")
    for r in (r1, r2, r3):
        print(f"{r.scheme:>28s} {r.snr_db:9.2f}   {r.cost}")


if __name__ == "__main__":
    main()
