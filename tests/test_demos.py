"""Smoke test: the quick demos run to completion against the current API.

`focusing_and_spreading.py` is left out; it takes about ten seconds.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "script", ["one_shot_beam_training.py", "beta_sweep_quicklook.py", "farfield_regimes.py"]
)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # beta_sweep_quicklook writes demo_out/ into the cwd
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out
