"""`run_trial` against the slow whole-trial oracle over generated small scenarios."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nearris import Scenario, run_trial
from oracle import slow_trial

_REFINE = ((1, 2), (2, 1), (2, 2))


@st.composite
def trial_cases(draw):
    """(scenario, beta_db, trial) of a small RIS, any side ratio, drawn hierarchy and links."""
    first = draw(st.sampled_from(((1, 1), (1, 2), (2, 1), (2, 2), (2, 3))))
    levels = [first]
    for _ in range(draw(st.integers(1, 4))):
        r_x, r_y = draw(st.sampled_from(_REFINE))
        levels.append((levels[-1][0] * r_x, levels[-1][1] * r_y))
    scenario = Scenario(
        ris_size_y_m=draw(st.floats(0.01, 0.12)),
        ris_size_z_m=draw(st.floats(0.01, 0.12)),
        n_mu=draw(st.integers(1, 4)),
        paths_direct=draw(st.integers(1, 5)),
        paths_bs_ris=draw(st.integers(1, 5)),
        paths_ris_mu=draw(st.integers(1, 5)),
        codebook_levels=tuple(levels),
        codebook_alpha=draw(st.floats(0.05, 1.0)),
        beta_semantics=draw(st.sampled_from(("per_path", "total"))),
        blockage_loss_db=draw(st.floats(0.0, 40.0)),
        trials=1)
    return scenario, draw(st.floats(-20.0, 30.0)), draw(st.integers(0, 10_000))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(trial_cases())
def test_run_trial_equals_slow_trial(case):
    # every scheme's SNR to relative 1e-9 and the same pilots; the search's
    # winners wherever the oracle's best two candidates of a level are more
    # than 1e-9 apart, relative, and its SNR while no level came closer
    scenario, beta_db, trial = case
    fast, slow = run_trial(scenario, beta_db, trial), slow_trial(scenario, beta_db, trial)
    assert set(fast.snr_db) == set(slow.snr)
    assert fast.pilots == slow.pilots
    decided = True
    for got, want, margin in zip(fast.winners, slow.winners, slow.margins):
        decided = decided and margin > 1e-9
        if decided:
            assert got == want
    for scheme, snr in slow.snr.items():
        if scheme != "proposed" or decided:
            assert np.isclose(10.0 ** (fast.snr_db[scheme] / 10.0), snr, rtol=1e-9, atol=0), scheme
