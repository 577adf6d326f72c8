import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import nearris as nr
from nearris.channel import ChannelSet
from nearris.cli import (
    _SCHEMA,
    default_scenario_path,
    load_scenario,
    main,
    save_scenario,
    scenario_hash,
    write_aggregates_csv,
    write_channel_set,
    write_cut_csv,
    write_farfield_csv,
    write_raster_csv,
    write_trials_csv,
)

NAN = float("nan")
INF = float("inf")


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


# --- CSV writers -------------------------------------------------------------

_TRIAL = nr.TrialResult(trial=3, beta_db=-5.0, mu_position=(20.123456789, 39.5, 1.0),
                        snr_db={"proposed": 26.4567891, "B1_full_codebook": 1234567.0},
                        pilots=24, winners=[(1, 2), (3, 4)])
_AGGREGATES = [nr.Aggregate("B1_full_codebook", -10.0, 28.0, 0.0012345678, 100),
               nr.Aggregate("proposed", 2.5, -3.21987654, 1.5, 7)]


@pytest.mark.parametrize("write, expected", [
    pytest.param(lambda p: write_trials_csv(p, [_TRIAL]),
                 "trial,beta_db,scheme,snr_db,mu_x,mu_y,mu_z,pilots,winners\n"
                 "3,-5,B1_full_codebook,1.23457e+06,20.1235,39.5,1,,\n"
                 "3,-5,proposed,26.4568,20.1235,39.5,1,24,1,2|3,4\n", id="trials"),
    pytest.param(lambda p: write_aggregates_csv(p, _AGGREGATES),
                 "scheme,beta_db,mean_snr_db,std_snr_db,n_trials\n"
                 "B1_full_codebook,-10,28,0.00123457,100\n"
                 "proposed,2.5,-3.21988,1.5,7\n", id="aggregates"),
    pytest.param(lambda p: write_raster_csv(p, np.array([1.0, 2.5]), np.array([-0.1, 1 / 3]),
                                            np.array([[1.0, 2.0], [3.1234567, -4e-7]])),
                 "x_m,y_m,snr_db\n1,-0.1,1\n1,0.333333,2\n2.5,-0.1,3.12346\n"
                 "2.5,0.333333,-4e-07\n", id="raster"),
    pytest.param(lambda p: write_cut_csv(p, np.array([-8.0, 0.5]), np.array([12.3456789, 1e-7])),
                 "displacement_m,snr_db\n-8,12.3457\n0.5,1e-07\n", id="cut"),
    pytest.param(lambda p: write_farfield_csv(p, [(0.5, 0.70710678, 93.3333333)]),
                 "size_L_m,aperture_D_m,far_field_distance_m\n0.5,0.707107,93.3333\n",
                 id="farfield"),
])
def test_csv_writers_format_rows(tmp_path, write, expected):
    p = tmp_path / "x.csv"
    write(p)
    assert p.read_text() == "# format_version=1\n" + expected


# --- scenario files -----------------------------------------------------------


def test_bundled_scenario_matches_defaults():
    s = load_scenario(default_scenario_path())
    assert s.to_dict() == nr.Scenario().to_dict()


def test_save_load_round_trip(tmp_path):
    s = nr.Scenario(
        carrier_hz=30e9, bs_center=(41.0, 1.0, 11.0), bs_n_x=4, bs_n_z=2, bs_spacing_wl=0.6,
        ris_center=(1.0, 41.0, 6.0), ris_size_y_m=0.09, ris_size_z_m=0.07,
        ris_spacing_wl=0.55, blockage_center=(21.0, 41.0, 1.5), blockage_r_x=12.0,
        blockage_r_y=10.0, blockage_loss_db=17.5, n_mu=2, mu_spacing_wl=0.4, paths_direct=3,
        paths_bs_ris=4, paths_ris_mu=5, scatterer_box_min=(1.0, 2.0, 0.5),
        scatterer_box_max=(50.0, 55.0, 9.0), beta_semantics="total", p_bs_dbm=23.0,
        noise_psd_dbm_hz=-174.0, bandwidth_hz=2e8, noise_figure_db=7.0,
        codebook_levels=((2, 2), (4, 4)), codebook_alpha=0.6, beta_list_db=(3.0, -1.5),
        trials=7, master_seed=123, workers=2, average="linear_mean",
        illum_reference_power_w=2.0, illum_grid=6,
    )
    default = nr.Scenario()
    assert all(getattr(s, f.name) != getattr(default, f.name) for f in dataclasses.fields(s))
    p = tmp_path / "x.scn"
    save_scenario(s, p)
    back = load_scenario(p)
    assert back == s
    assert back.to_dict() == s.to_dict()


def test_save_rejects_a_carrier_that_does_not_load_back(tmp_path):
    # (f / 1e9) * 1e9 != f: the GHz value in the file would load as another carrier
    s = nr.Scenario(carrier_hz=134597072568.60112)
    p = tmp_path / "x.scn"
    with pytest.raises(ValueError, match="carrier_hz"):
        save_scenario(s, p)
    assert not p.exists()


def test_schema_names_every_field_once():
    targets = []
    for spec in _SCHEMA.values():
        for target in spec.values() if isinstance(spec, dict) else [spec]:
            targets.extend(target if isinstance(target, tuple) else [target])
    assert sorted(targets) == sorted(f.name for f in dataclasses.fields(nr.Scenario))


SMALL_POOL = Path(__file__).parents[1] / "perfbench" / "scenarios" / "small_pool.scn"


@pytest.mark.parametrize("path", [default_scenario_path(), SMALL_POOL])
def test_bundled_scenario_files_load(path):
    s = load_scenario(path)
    assert s.carrier_hz == 28e9
    assert s.bandwidth_hz == 1e8


@pytest.mark.parametrize("text", ["1.0e8", "1e8", "1E+8", "100_000_000.0"])
def test_exponent_floats_load_as_floats(tmp_path, text):
    p = tmp_path / "e.scn"
    p.write_text(f"carrier_ghz: 28.0\nris:\n  size_m: [{text}, 0.5]\n"
                 f"rf:\n  bandwidth_hz: {text}\n")
    s = load_scenario(p)
    assert s.bandwidth_hz == 1e8
    assert s.ris_size_y_m == 1e8


def test_scenario_is_frozen():
    s = tiny_scenario()
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.trials = 3


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
    # a value its converter cannot take is a scenario error too, not a TypeError
    p.write_text("carrier_ghz: 28.0\ncampaign:\n  beta_list_db: 10.0\n")
    with pytest.raises(ValueError, match="beta_list_db"):
        load_scenario(p)


def test_load_rejects_non_mapping(tmp_path):
    p = tmp_path / "list.scn"
    p.write_text("- 1\n- 2\n")
    with pytest.raises(ValueError, match="not a mapping"):
        load_scenario(p)


def test_malformed_scenario_file_exits_2_before_any_output(tmp_path, capsys):
    p = tmp_path / "broken.scn"
    p.write_text("carrier_ghz: [28\n")
    out = tmp_path / "o"
    assert main(["sweep-beta", "--config", str(p), "--out-dir", str(out)]) == 2
    assert f"error: scenario file {p}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("version", [7, True, "1", 1.0])
@pytest.mark.parametrize("lax", [[], ["--lax"]])
def test_format_version_other_than_1_exits_2_before_any_output(tmp_path, capsys, version, lax):
    cfg = _edited_file(tmp_path, None, "format_version", version)
    out = tmp_path / "o"
    assert main(["farfield", "--config", str(cfg), "--out-dir", str(out), *lax]) == 2
    assert (f"error: scenario file {cfg}: format_version must be 1, got {version!r}"
            in capsys.readouterr().err)
    assert not out.exists()


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
    with np.load(p) as back:
        np.testing.assert_array_equal(back["h"], ch.h)
        np.testing.assert_array_equal(back["h1"], ch.h1)
        np.testing.assert_array_equal(back["h2"], ch.h2)


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
    # how the campaign ran
    assert man["numpy_version"] == np.__version__
    assert man["workers"] == s.workers
    assert man["trials"] == s.trials
    assert man["campaign_wall_s"] > 0
    assert man["trials_per_s"] == pytest.approx(man["trials"] / man["campaign_wall_s"])


def test_sweep_beta_outputs_all_schemes(tmp_path):
    cfg, s = tiny_file(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep-beta", "--config", str(cfg), "--out-dir", str(out)]) == 0
    rows = (out / "aggregates.csv").read_text().splitlines()[2:]
    assert len(rows) == 4 * len(s.beta_list_db)
    schemes = {line.split(",")[0] for line in rows}
    assert schemes == {"proposed", "B1_full_codebook", "B2_full_focusing", "B3_full_csi"}
    man = json.loads((out / "manifest.json").read_text())
    assert man["trials"] == s.trials * len(s.beta_list_db)
    assert {"numpy_version", "workers", "campaign_wall_s", "trials_per_s"} <= set(man)


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


@pytest.mark.parametrize("cells, message", [
    pytest.param(cells, message, id=cells) for cells, message in [
        ("9,9", "outside the level's 2x2 grid"),
        ("-1,0", "outside the level's 2x2 grid"),
        ("0,0;2,0", "outside the level's 2x2 grid"),
        ("a,b", "--cells: 'a,b' is not wx,wy"),
        ("1,", "--cells: '1,' is not wx,wy"),
        ("1;2", "--cells: '1' is not wx,wy"),
    ]
])
def test_heatmap_rejects_cells_outside_level(tmp_path, capsys, cells, message):
    cfg, _ = tiny_file(tmp_path)
    out = tmp_path / "hm"
    assert main(["heatmap", "--config", str(cfg), "--out-dir", str(out),
                 "--level", "1", "--grid", "2", f"--cells={cells}"]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("hm/*cell_*.csv"))


def test_focus_cut_command(tmp_path):
    cfg, _ = tiny_file(tmp_path)
    out = tmp_path / "cut"
    assert main(["focus-cut", "--config", str(cfg), "--out-dir", str(out),
                 "--axis", "x", "--range", "2", "--steps", "21"]) == 0
    lines = (out / "focus_cut_x.csv").read_text().splitlines()
    assert lines[1] == "displacement_m,snr_db"
    assert len(lines) == 2 + 21
    assert not (out / "focus_cut_y.csv").exists()


@pytest.mark.parametrize("flags", [["--steps", "0"], ["--steps", "1"], ["--range", "0"],
                                   ["--range", "-2"], ["--range", "nan"]])
def test_focus_cut_rejects_degenerate_cuts(tmp_path, capsys, flags):
    cfg, _ = tiny_file(tmp_path)
    assert main(["focus-cut", "--config", str(cfg), "--out-dir", str(tmp_path / "cut"),
                 *flags]) == 2
    assert "focus cut needs steps >= 2 and a finite half range > 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("cut/focus_cut_*.csv"))


@pytest.mark.parametrize("half_range", ["1e160", "1e308"])
def test_focus_cut_rejects_ranges_past_float_range(tmp_path, capsys, half_range):
    # the far points' distances overflow, and at 1e308 the displacements too
    cfg, _ = tiny_file(tmp_path)
    assert main(["focus-cut", "--config", str(cfg), "--out-dir", str(tmp_path / "cut"),
                 "--steps", "3", "--range", half_range]) == 2
    assert "non-finite points or SNRs" in capsys.readouterr().err
    assert not list(tmp_path.glob("cut/focus_cut_*.csv"))


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


@pytest.mark.parametrize("command", [["codebook", "dump"], ["heatmap"]])
@pytest.mark.parametrize("level", ["0", "-1", "9"])
def test_level_outside_the_hierarchy_exits_2_before_any_output(tmp_path, capsys, command, level):
    cfg, _ = tiny_file(tmp_path)
    out = tmp_path / "o"
    assert main([*command, "--config", str(cfg), "--out-dir", str(out),
                 f"--level={level}"]) == 2
    assert f"level {level} out of range 1..2" in capsys.readouterr().err
    assert not (out / "codebook.json").exists()
    assert not out.exists()


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


def _edited_file(tmp_path, section, key, value):
    """The tiny scenario file with one key (a top-level one for section None) replaced."""
    cfg, _ = tiny_file(tmp_path)
    doc = yaml.safe_load(cfg.read_text())
    (doc if section is None else doc[section])[key] = value
    cfg.write_text(yaml.safe_dump(doc))
    return cfg


def test_codebook_levels_are_checked_at_load(tmp_path, capsys):
    # a bad level list fails before any pool starts
    cases = [
        ([[4, 4], [6, 8]], "scenario: codebook level (6,8) does not refine (4,4)"),
        ([4, 4], "scenario: codebook levels must be pairs of positive integers, got 4"),
        ([[True, True], [2, 2]],
         "scenario: codebook levels must be pairs of positive integers, got [True, True]"),
    ]
    for levels, message in cases:
        cfg = _edited_file(tmp_path, "codebook", "levels", levels)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                     "--trials", "1", "--workers", "2"]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "trials.csv").exists()


@pytest.mark.parametrize(
    "section, key, value, field",
    [("campaign", "trials", 1.5, "trials"), ("bs", "array", [8.5, 8], "bs_n_x"),
     ("mu", "antennas", 2.0, "n_mu"), ("paths", "per_link", [5, 5, 4.5], "paths_ris_mu"),
     ("campaign", "master_seed", 1.5, "master_seed"), ("campaign", "workers", 1.5, "workers"),
     ("illumination", "grid", 6.5, "illum_grid")],
)
def test_integer_keys_are_not_truncated(tmp_path, capsys, section, key, value, field):
    cfg = _edited_file(tmp_path, section, key, value)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert f"scenario: {field} must be an integer" in capsys.readouterr().err
    assert not (out / "trials.csv").exists()


@pytest.mark.parametrize("sizes", ["nan,0.5", "0.5,inf", "0"])
def test_farfield_rejects_sizes_that_are_not_finite_and_positive(tmp_path, capsys, sizes):
    out = tmp_path / "ff"
    assert main(["farfield", "--out-dir", str(out), "--sizes", sizes]) == 2
    assert "aperture must be finite and positive" in capsys.readouterr().err
    assert not (out / "farfield.csv").exists()


def test_farfield_rejects_sizes_past_float_range(tmp_path, capsys):
    out = tmp_path / "ff"
    assert main(["farfield", "--out-dir", str(out), "--sizes", "0.5,1e200"]) == 2
    assert "is not a finite float" in capsys.readouterr().err
    assert not (out / "farfield.csv").exists()


@pytest.mark.parametrize(
    "edit, command, message",
    [
        (("rf", "transmit_power_dbm", "20.0"), ["sweep-beta"], "p_bs_dbm must be a finite real"),
        (("rf", "transmit_power_dbm", True), ["sweep-beta"], "p_bs_dbm must be a finite real"),
        ((None, "carrier_ghz", True), ["sweep-beta"], "carrier_hz must be a finite real"),
        ((None, "carrier_ghz", 0.0), ["sweep-beta"], "carrier_hz must be positive"),
        (("rf", "transmit_power_dbm", NAN), ["sweep-beta"], "p_bs_dbm must be a finite real"),
        (("ris", "spacing_wavelengths", INF), ["sweep-beta"], "ris_spacing_wl must be a finite"),
        (("rf", "noise_figure_db", INF), ["sweep-beta"], "noise_figure_db must be a finite"),
        (("ris", "size_m", [INF, 0.5]), ["sweep-beta"], "ris_size_y_m must be a finite real"),
        (("campaign", "beta_list_db", []), ["sweep-beta"],
         "beta_list_db must be a non-empty list of distinct values"),
        (("campaign", "beta_list_db", [10.0, 10.0]), ["sweep-beta"],
         "beta_list_db must be a non-empty list of distinct values"),
        (("campaign", "beta_list_db", [0.0, NAN]), ["sweep-beta"],
         "beta_list_db must be a finite real"),
        (("ris", "size_m", [0.001, 0.5]), ["sweep-beta"],
         "ris size over spacing must give a finite grid"),
        (("ris", "size_m", ["a", 0.5]), ["sweep-beta"], "ris_size_y_m must be a finite real"),
        (("bs", "center", [40.0, "a", 10.0]), ["sweep-beta"], "bs_center must be a finite real"),
        (None, ["simulate", "--beta", "nan"], "beta_list_db must be a finite real"),
        (None, ["heatmap", "--level", "1", "--grid", "1"], "illum_grid must be >= 2"),
        (("rf", "noise_psd_dbm_per_hz", -4000.0), ["simulate"],
         "noise_psd_dbm_hz, bandwidth_hz and noise_figure_db must give a finite sigma2 > 0 W"),
        (("rf", "transmit_power_dbm", 4000.0), ["simulate"],
         "p_bs_dbm must give a finite p_bs_watts > 0 W"),
        (("blockage", "loss_db", -100000.0), ["simulate"],
         "blockage_loss_db must give a finite amplitude factor"),
        (("mu", "spacing_wavelengths", 0), ["simulate"], "mu_spacing_wl must be positive"),
        (("campaign", "beta_list_db", [0.0, -1e300]), ["sweep-beta"],
         "beta_list_db must give a finite power ratio 10^(beta_db/10) > 0, got -1e+300"),
        (("paths", "beta_semantics", "total"), ["simulate", "--beta=1e300"],
         "beta_list_db must give a finite power ratio 10^(beta_db/10) > 0, got 1e+300"),
    ],
)
def test_bad_input_exits_2_before_any_output(tmp_path, capsys, edit, command, message):
    cfg = _edited_file(tmp_path, *edit) if edit else tiny_file(tmp_path)[0]
    assert main([*command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert f"scenario: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("o/*.csv"))


def test_beta_too_far_for_float_snrs_exits_2_before_any_output(tmp_path, capsys):
    # 10^(beta/10) is a float at -3000 dB, but the NLOS amplitudes it sets
    # overflow the SNRs of the reference scenario; the trial rejects them
    # without a numpy overflow warning
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", "--trials", "1", "--beta=-3000", "--out-dir", str(out)]) == 2
    assert "trial 0 at beta -3000 dB gives a non-finite SNR" in capsys.readouterr().err
    assert not (out / "trials.csv").exists()


def test_cli_error_paths_return_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "missing.scn")]) == 2
    bad = tmp_path / "bad.scn"
    bad.write_text("carrier_ghz: 28.0\nwhatever: 3\n")
    assert main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
