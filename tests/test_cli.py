import json

import numpy as np
import pytest
import yaml

import nearris as nr
from nearris.channel import ChannelSet
from nearris.cli import (
    default_scenario_path,
    load_scenario,
    main,
    read_channel_set,
    save_scenario,
    scenario_hash,
    write_channel_set,
)


def tiny_scenario(**overrides):
    base = dict(
        ris_size_y_m=0.08,
        ris_size_z_m=0.08,
        codebook_levels=((2, 2), (4, 4)),
        paths_direct=5,
        paths_bs_ris=5,
        paths_ris_mu=5,
        trials=2,
        beta_list_db=(0.0, 10.0),
        illum_grid=6,
    )
    base.update(overrides)
    return nr.Scenario(**base)


def tiny_file(tmp_path, **overrides):
    s = tiny_scenario(**overrides)
    p = tmp_path / "tiny.scn"
    save_scenario(s, p)
    return p, s


# --- scenario files -----------------------------------------------------------


def test_bundled_scenario_matches_defaults():
    s = load_scenario(default_scenario_path())
    assert s.to_dict() == nr.Scenario().to_dict()


def test_save_load_round_trip(tmp_path):
    s = tiny_scenario(trials=7, master_seed=123, blockage_loss_db=17.5)
    p = tmp_path / "x.scn"
    save_scenario(s, p)
    assert load_scenario(p).to_dict() == s.to_dict()


def test_load_rejects_missing_required_key(tmp_path):
    p = tmp_path / "bad.scn"
    p.write_text("rf:\n  bandwidth_hz: 1e8\n")
    with pytest.raises(ValueError, match="carrier_ghz"):
        load_scenario(p)


def test_load_rejects_unknown_keys_strict(tmp_path):
    p = tmp_path / "bad.scn"
    p.write_text("carrier_ghz: 28.0\nnonsense: 1\n")
    with pytest.raises(ValueError, match="unknown scenario key: nonsense"):
        load_scenario(p)
    p2 = tmp_path / "bad2.scn"
    p2.write_text("carrier_ghz: 28.0\nrf:\n  gain_db: 3\n")
    with pytest.raises(ValueError, match="unknown scenario key: rf.gain_db"):
        load_scenario(p2)


def test_load_lax_warns_and_continues(tmp_path):
    p = tmp_path / "odd.scn"
    p.write_text("carrier_ghz: 28.0\nnonsense: 1\n")
    with pytest.warns(UserWarning, match="nonsense"):
        s = load_scenario(p, strict=False)
    assert s.carrier_hz == 28e9


def test_load_propagates_validation_errors(tmp_path):
    p = tmp_path / "neg.scn"
    p.write_text("carrier_ghz: 28.0\nrf:\n  bandwidth_hz: -1.0\n")
    with pytest.raises(ValueError, match="bandwidth"):
        load_scenario(p)


def test_load_rejects_non_mapping(tmp_path):
    p = tmp_path / "list.scn"
    p.write_text("- 1\n- 2\n")
    with pytest.raises(ValueError, match="not a mapping"):
        load_scenario(p)


def test_scenario_hash_tracks_content():
    a = tiny_scenario()
    b = tiny_scenario()
    c = tiny_scenario(master_seed=2)
    assert scenario_hash(a) == scenario_hash(b)
    assert scenario_hash(a) != scenario_hash(c)
    assert len(scenario_hash(a)) == 64


def test_bundled_scenario_is_valid_yaml():
    with open(default_scenario_path()) as fh:
        doc = yaml.safe_load(fh)
    assert doc["format_version"] == 1
    assert doc["carrier_ghz"] == 28.0


# --- channel container ----------------------------------------------------------


def test_channel_set_npz_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    ch = ChannelSet(
        h=rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4)),
        h1=rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4)),
        h2=rng.normal(size=(1, 6)) + 1j * rng.normal(size=(1, 6)),
    )
    p = tmp_path / "ch.npz"
    write_channel_set(p, ch)
    back = read_channel_set(p)
    np.testing.assert_array_equal(back.h, ch.h)
    np.testing.assert_array_equal(back.h1, ch.h1)
    np.testing.assert_array_equal(back.h2, ch.h2)


# --- subcommands ------------------------------------------------------------------


def test_simulate_writes_outputs_and_is_reproducible(tmp_path):
    cfg, _ = tiny_file(tmp_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out1),
                 "--dump-channels"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out2)]) == 0
    t1 = (out1 / "trials.csv").read_bytes()
    t2 = (out2 / "trials.csv").read_bytes()
    assert t1 == t2
    assert (out1 / "aggregates.csv").read_bytes() == (out2 / "aggregates.csv").read_bytes()
    assert (out1 / "channels_trial0.npz").exists()
    header = t1.decode().splitlines()
    assert header[0] == "# format_version=1"
    assert header[1] == "trial,beta_db,scheme,snr_db,mu_x,mu_y,mu_z,pilots,winners"
    # 2 trials x 4 schemes data rows
    assert len(header) == 2 + 2 * 4


def test_simulate_manifest_contents(tmp_path):
    cfg, s = tiny_file(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                 "--seed", "99", "--beta", "5"]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["format_version"] == 1
    assert man["tool"].startswith("nearris ")
    assert man["subcommand"] == "simulate"
    assert man["beta_db"] == 5.0
    assert man["master_seed"] == 99
    assert len(man["scenario_sha256"]) == 64
    assert man["command_line"][0] == "nearris"
    # the seed override is part of the hashed scenario
    assert man["scenario_sha256"] != scenario_hash(s)


def test_sweep_beta_outputs_all_schemes(tmp_path):
    cfg, s = tiny_file(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep-beta", "--config", str(cfg), "--out-dir", str(out)]) == 0
    rows = (out / "aggregates.csv").read_text().splitlines()[2:]
    assert len(rows) == 4 * len(s.beta_list_db)
    schemes = {line.split(",")[0] for line in rows}
    assert schemes == {"proposed", "B1_full_codebook", "B2_full_focusing", "B3_full_csi"}


def test_heatmap_command_writes_rasters(tmp_path):
    cfg, _ = tiny_file(tmp_path)
    out = tmp_path / "hm"
    assert main(["heatmap", "--config", str(cfg), "--out-dir", str(out),
                 "--level", "1", "--grid", "5", "--cells", "0,0;1,1"]) == 0
    comp = (out / "heatmap_level1_composite.csv").read_text().splitlines()
    assert comp[1] == "x_m,y_m,snr_db"
    assert len(comp) == 2 + 25
    assert (out / "heatmap_level1_cell_0_0.csv").exists()
    assert (out / "heatmap_level1_cell_1_1.csv").exists()
    assert main(["heatmap", "--config", str(cfg), "--out-dir", str(out),
                 "--level", "9"]) == 2  # out of range


def test_focus_cut_command(tmp_path):
    cfg, _ = tiny_file(tmp_path)
    out = tmp_path / "cut"
    assert main(["focus-cut", "--config", str(cfg), "--out-dir", str(out),
                 "--axis", "x", "--range", "2", "--steps", "21"]) == 0
    lines = (out / "focus_cut_x.csv").read_text().splitlines()
    assert lines[1] == "displacement_m,snr_db"
    assert len(lines) == 2 + 21
    assert not (out / "focus_cut_y.csv").exists()


def test_codebook_dump_command(tmp_path):
    cfg, s = tiny_file(tmp_path)
    out = tmp_path / "cb"
    assert main(["codebook", "dump", "--config", str(cfg), "--out-dir", str(out),
                 "--level", "1"]) == 0
    doc = json.loads((out / "codebook.json").read_text())
    assert doc["format_version"] == 1
    assert len(doc["levels"]) == 1
    lev = doc["levels"][0]
    assert lev["shape"] == [2, 2]
    q = s.ris_geometry().q
    for phases in lev["codewords"].values():
        assert len(phases) == q
        assert all(0 <= p < 2 * np.pi for p in phases)


def test_farfield_command(tmp_path):
    out = tmp_path / "ff"
    assert main(["farfield", "--out-dir", str(out), "--sizes", "0.1,0.5"]) == 0
    lines = (out / "farfield.csv").read_text().splitlines()
    assert lines[1] == "size_L_m,aperture_D_m,far_field_distance_m"
    row = dict(zip(["L", "D", "dF"], lines[3].split(",")))
    assert float(row["L"]) == 0.5
    assert float(row["dF"]) == pytest.approx(93.4, abs=0.1)


@pytest.mark.parametrize(
    "flag, value, field",
    [("--trials", "0", "trials"), ("--trials", "-3", "trials"),
     ("--workers", "0", "workers"), ("--seed", "-1", "master_seed")],
)
def test_cli_overrides_are_validated(tmp_path, capsys, flag, value, field):
    cfg, _ = tiny_file(tmp_path)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out), flag, value]) == 2
    assert f"scenario: {field} must be" in capsys.readouterr().err
    assert not (out / "trials.csv").exists()


def test_cli_error_paths_return_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "missing.scn")]) == 2
    bad = tmp_path / "bad.scn"
    bad.write_text("carrier_ghz: 28.0\nwhatever: 3\n")
    assert main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
