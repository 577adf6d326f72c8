import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearris.channel import (
    LOS,
    NLOS,
    LinkPaths,
    NoiseModel,
    Path,
    apply_beta,
    assemble_channel,
    blockage_attenuation,
    free_space_amplitude,
    generate_scatterers,
    noise_power,
    path_length,
)

LAM28 = 0.0107068735


def los_link(pl=1.0, fading=1.0 + 0j):
    return LinkPaths(link="t", paths=(Path(kind=LOS, amplitude_pathloss=pl, fading=fading),))


# --- pathloss -------------------------------------------------------------


def test_free_space_amplitude_unity_distance():
    lam = 2.0
    assert free_space_amplitude(lam / (4 * np.pi), lam) == pytest.approx(1.0, rel=1e-12)


def test_free_space_amplitude_halving_distance_doubles():
    a1 = free_space_amplitude(10.0, LAM28)
    a2 = free_space_amplitude(5.0, LAM28)
    assert a2 == pytest.approx(2 * a1, rel=1e-12)


def test_free_space_amplitude_reference_value():
    assert free_space_amplitude(40.0, LAM28) == pytest.approx(2.130064803230778e-05, rel=1e-9)


def test_free_space_amplitude_rejects_nonpositive():
    with pytest.raises(ValueError):
        free_space_amplitude(0.0, LAM28)
    with pytest.raises(ValueError):
        free_space_amplitude(-3.0, LAM28)
    with pytest.raises(ValueError):
        free_space_amplitude(np.array([5.0, 0.0]), LAM28)


# --- paths ----------------------------------------------------------------


def test_path_length_los_and_bounce():
    los = Path(kind=LOS, amplitude_pathloss=1.0)
    assert path_length((0, 0, 0), los, (3, 4, 0)) == pytest.approx(5.0)
    nlos = Path(kind=NLOS, amplitude_pathloss=1.0, scatterer=(3, 0, 0))
    assert path_length((0, 0, 0), nlos, (3, 4, 0)) == pytest.approx(7.0)


def test_path_validation():
    with pytest.raises(ValueError):
        Path(kind="bounce", amplitude_pathloss=1.0)
    with pytest.raises(ValueError):
        Path(kind=NLOS, amplitude_pathloss=1.0)  # scatterer missing
    with pytest.raises(ValueError):
        Path(kind=LOS, amplitude_pathloss=1.0, scatterer=(0, 0, 0))
    with pytest.raises(ValueError):
        Path(kind=LOS, amplitude_pathloss=-0.1)


def test_link_paths_reserve_index_zero_for_los():
    nlos = Path(kind=NLOS, amplitude_pathloss=1.0, scatterer=(1, 1, 1))
    with pytest.raises(ValueError):
        LinkPaths(link="t", paths=(nlos,))
    with pytest.raises(ValueError):
        LinkPaths(link="t", paths=())
    los = Path(kind=LOS, amplitude_pathloss=1.0)
    with pytest.raises(ValueError):
        LinkPaths(link="t", paths=(los, los))
    assert len(LinkPaths(link="t", paths=(los, nlos))) == 2


# --- scatterers -----------------------------------------------------------


def test_generate_scatterers_count_and_bounds():
    rng = np.random.default_rng(7)
    s = generate_scatterers((0, 0, 0), (60, 60, 10), 20, rng)
    assert s.shape == (20, 3)
    assert np.all(s >= [0, 0, 0]) and np.all(s <= [60, 60, 10])
    assert generate_scatterers((0, 0, 0), (1, 1, 1), 0, rng).shape == (0, 3)


def test_generate_scatterers_deterministic_per_seed():
    a = generate_scatterers((0, 0, 0), (1, 2, 3), 5, np.random.default_rng(42))
    b = generate_scatterers((0, 0, 0), (1, 2, 3), 5, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_generate_scatterers_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate_scatterers((0, 0, 0), (1, 1, 1), -1, rng)
    with pytest.raises(ValueError):
        generate_scatterers((0, 0, 2), (1, 1, 1), 3, rng)


# --- channel assembly -----------------------------------------------------


def test_assemble_channel_full_turn_phase():
    # distance of exactly one wavelength: entry is +PL
    link = los_link(pl=1.0)
    h = assemble_channel(link, [[0, 0, 0]], [[LAM28, 0, 0]], LAM28, sign=+1)
    assert h.shape == (1, 1)
    assert h[0, 0] == pytest.approx(1.0 + 0j, abs=1e-9)


def test_assemble_channel_half_turn_phase():
    link = los_link(pl=0.5)
    h = assemble_channel(link, [[0, 0, 0]], [[LAM28 / 2, 0, 0]], LAM28, sign=+1)
    assert h[0, 0] == pytest.approx(-0.5 + 0j, abs=1e-9)


def test_assemble_channel_two_path_cancellation():
    # LOS at d = lambda (phase 0) plus a bounce of 1.5*lambda (phase pi): sum 0
    lam = LAM28
    y = lam * np.sqrt(0.3125)
    scat = (0.0, y, lam / 2)
    link = LinkPaths(
        link="t",
        paths=(
            Path(kind=LOS, amplitude_pathloss=1.0),
            Path(kind=NLOS, amplitude_pathloss=1.0, scatterer=scat),
        ),
    )
    h = assemble_channel(link, [[0, 0, 0]], [[0, 0, lam]], lam, sign=+1)
    assert abs(h[0, 0]) < 1e-9


def test_assemble_channel_linearity_and_fading():
    link1 = los_link(pl=1.0)
    link2 = los_link(pl=2.0)
    link3 = los_link(pl=1.0, fading=1j)
    tx, rx = [[0, 0, 0]], [[0, 3.7, 0]]
    h1 = assemble_channel(link1, tx, rx, LAM28, sign=-1)
    h2 = assemble_channel(link2, tx, rx, LAM28, sign=-1)
    h3 = assemble_channel(link3, tx, rx, LAM28, sign=-1)
    assert h2[0, 0] == pytest.approx(2 * h1[0, 0], rel=1e-12)
    assert h3[0, 0] == pytest.approx(1j * h1[0, 0], rel=1e-12)


def test_assemble_channel_sign_conjugates():
    rng = np.random.default_rng(3)
    tx = rng.random((4, 3)) * 10
    rx = rng.random((2, 3)) * 10 + 20
    scat = rng.random((1, 3)) * 5
    link = LinkPaths(
        link="t",
        paths=(
            Path(kind=LOS, amplitude_pathloss=1.0),
            Path(kind=NLOS, amplitude_pathloss=0.3, scatterer=scat[0]),
        ),
    )
    hp = assemble_channel(link, tx, rx, LAM28, sign=+1)
    hm = assemble_channel(link, tx, rx, LAM28, sign=-1)
    np.testing.assert_allclose(hp, np.conj(hm), rtol=1e-12)


def test_assemble_channel_matrix_shape_and_errors():
    link = los_link()
    h = assemble_channel(link, np.zeros((5, 3)) + [1, 0, 0], np.zeros((2, 3)), LAM28, sign=+1)
    assert h.shape == (2, 5)
    with pytest.raises(ValueError):
        assemble_channel(link, np.zeros((5, 3)), np.zeros((2, 3)), LAM28, sign=0)
    with pytest.raises(ValueError):
        assemble_channel(link, np.zeros((5, 2)), np.zeros((2, 3)), LAM28, sign=+1)


# --- power ratio ----------------------------------------------------------


def _multi_link(nlos_pls):
    paths = [Path(kind=LOS, amplitude_pathloss=1.0)]
    for i, pl in enumerate(nlos_pls):
        paths.append(Path(kind=NLOS, amplitude_pathloss=pl, scatterer=(i, 1.0, 2.0)))
    return LinkPaths(link="t", paths=tuple(paths))


def test_apply_beta_hits_requested_total_ratio():
    link = _multi_link([0.1, 0.2, 0.3, 0.4])
    out = apply_beta(link, 10.0)
    total = sum(p.amplitude_pathloss**2 for p in out.paths[1:])
    assert total == pytest.approx(0.1, rel=1e-9)
    assert out.paths[0].amplitude_pathloss == 1.0
    out0 = apply_beta(link, 0.0)
    assert sum(p.amplitude_pathloss**2 for p in out0.paths[1:]) == pytest.approx(1.0, rel=1e-9)


def test_apply_beta_preserves_relative_profile_and_is_idempotent():
    link = _multi_link([0.5, 1.0, 2.0])
    out = apply_beta(link, 7.0)
    ratios = [p.amplitude_pathloss for p in out.paths[1:]]
    assert ratios[1] / ratios[0] == pytest.approx(2.0, rel=1e-12)
    again = apply_beta(out, 7.0)
    for a, b in zip(out.paths, again.paths):
        assert a.amplitude_pathloss == pytest.approx(b.amplitude_pathloss, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    beta=st.floats(min_value=-30, max_value=30),
    pls=st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=1, max_size=8),
)
def test_apply_beta_ratio_property(beta, pls):
    out = apply_beta(_multi_link(pls), beta)
    p_los = out.paths[0].amplitude_pathloss ** 2
    p_nlos = sum(p.amplitude_pathloss**2 for p in out.paths[1:])
    assert 10 * np.log10(p_los / p_nlos) == pytest.approx(beta, abs=1e-9)


def test_apply_beta_errors():
    with pytest.raises(ValueError):
        apply_beta(los_link(), 10.0)
    with pytest.raises(ValueError):
        apply_beta(_multi_link([0.0, 0.0]), 10.0)


# --- blockage and noise ---------------------------------------------------


def test_blockage_attenuation_scales_amplitudes():
    link = _multi_link([0.5])
    out = blockage_attenuation(link, 20.0)
    assert out.paths[0].amplitude_pathloss == pytest.approx(0.1, rel=1e-12)
    assert out.paths[1].amplitude_pathloss == pytest.approx(0.05, rel=1e-12)
    same = blockage_attenuation(link, 0.0)
    assert same.paths[0].amplitude_pathloss == 1.0


def test_noise_power_reference_values():
    # -176 dBm/Hz + 10*log10(100 MHz) + 6 dB NF = -90 dBm = 1e-12 W
    assert noise_power(NoiseModel(-176.0, 1e8, 6.0)) == pytest.approx(1e-12, rel=1e-9)
    assert noise_power(NoiseModel(-174.0, 1e6)) == pytest.approx(3.9810717055e-15, rel=1e-9)
    base = noise_power(NoiseModel(-174.0, 1e6, 0.0))
    plus3 = noise_power(NoiseModel(-174.0, 1e6, 3.0102999566398))
    assert plus3 == pytest.approx(2 * base, rel=1e-9)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(-174.0, 0.0)
    with pytest.raises(ValueError):
        NoiseModel(-174.0, 1e6, -1.0)
