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
from nearris.beam_mgmt import hierarchical_search


def main():
    s = nr.Scenario()
    beta_db = 10.0
    trial = 7

    print("building codebook (16 + 64 + 128 + 256 codewords)...")
    codebook = s.build_codebook()
    channels, p_mu = nr.build_trial_channels(s, beta_db, trial)
    print(f"user drawn at ({p_mu[0]:.2f}, {p_mu[1]:.2f}, {p_mu[2]:.2f}) m, "
          f"beta = {beta_db:g} dB\n")

    d, a = s.cascade(channels)

    trace = hierarchical_search(d, a, codebook)
    for depth, rec in enumerate(trace.levels):
        w_x, w_y = codebook[depth].shape[:2]
        print(f"level {depth + 1} ({w_x}x{w_y} cells): sounded {len(rec.candidates)} pilots")
        for c, snr in zip(rec.candidates, rec.snrs):
            tag = "  <- winner" if c == rec.winner else ""
            print(f"    cell {c}: {10 * np.log10(snr):7.2f} dB{tag}")
    print(f"\ntotal pilots: {trace.pilot_count} "
          f"(per level {trace.pilots_per_level()})")

    finest = codebook[-1]
    rows = [
        ("hierarchical search", trace.levels[-1].snrs.max(), f"{trace.pilot_count} pilots"),
        (bm.B1_FULL_CODEBOOK, bm.benchmark1_full_search(d, a, finest),
         f"{finest.shape[0] * finest.shape[1]} pilots"),
        (bm.B2_FULL_FOCUSING, bm.benchmark2_full_focusing(d, a, p_mu, s.ris_geometry(),
                                                          s.bs_center, s.lambda_m),
         "exact MU position"),
        (bm.B3_FULL_CSI, bm.benchmark3_full_csi(d, a),
         f"{2 * a.shape[1]} channel coefficients"),
    ]
    print(f"\n{'scheme':>28s} {'SNR (dB)':>9s}   cost")
    for name, snr, cost in rows:
        print(f"{name:>28s} {10 * np.log10(snr):9.2f}   {cost}")


if __name__ == "__main__":
    main()
