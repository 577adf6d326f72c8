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
from nearris.beam_mgmt import at_scale


def main():
    s = nr.Scenario()
    beta_db = 10.0
    trial = 7

    print("building the campaign statics (the finest level's phasor table)...")
    table = s.statics().finest
    # (d, A) as polynomials in s = 10^(-beta/20)
    draw = nr.trial_draw(s, trial)
    p_mu, scale = draw.p_mu, 10.0 ** (-beta_db / 20.0)
    print(f"user drawn at ({p_mu[0]:.2f}, {p_mu[1]:.2f}, {p_mu[2]:.2f}) m, "
          f"beta = {beta_db:g} dB\n")

    d, a = at_scale(draw.d, scale), at_scale(draw.c, scale)

    trace = s.search(d, a)
    for depth, rec in enumerate(trace.levels):
        w_x, w_y = s.codebook_levels[depth]
        print(f"level {depth + 1} ({w_x}x{w_y} cells): sounded {len(rec.candidates)} pilots")
        for c, snr in zip(rec.candidates, rec.snrs):
            tag = "  <- winner" if c == rec.winner else ""
            print(f"    cell {c}: {10 * np.log10(snr):7.2f} dB{tag}")
    print(f"\ntotal pilots: {trace.pilot_count} "
          f"(per level {trace.pilots_per_level()})")

    # every scheme's SNR as the campaign scores it, from the same cached draw
    snr_db = nr.run_trial(s, beta_db, trial).snr_db
    rows = [
        ("hierarchical search", bm.PROPOSED, f"{trace.pilot_count} pilots"),
        (bm.B1_FULL_CODEBOOK, bm.B1_FULL_CODEBOOK, f"{len(table)} pilots"),
        (bm.B2_FULL_FOCUSING, bm.B2_FULL_FOCUSING, "exact MU position"),
        (bm.B3_FULL_CSI, bm.B3_FULL_CSI, f"{2 * a.shape[1]} channel coefficients"),
    ]
    print(f"\n{'scheme':>28s} {'SNR (dB)':>9s}   cost")
    for name, scheme, cost in rows:
        print(f"{name:>28s} {snr_db[scheme]:9.2f}   {cost}")


if __name__ == "__main__":
    main()
