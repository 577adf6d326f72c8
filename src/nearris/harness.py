"""Scenario description and Monte Carlo campaigns.

Two SNR pipelines coexist and are kept separate on purpose:

* illumination maps (focusing cuts, codebook heatmaps) treat the BS as a
  point source at p_i and score P_ref * (PL1 * PL2 * |g_ris|)^2 / sigma2
  on the LOS geometry only, with a configurable reference power; both
  reduce to one field kernel, (points, phasor profiles) -> SNR dB, which
  takes its point-to-element distances on the RIS grid's axes
  (`RisGeometry.distances`) and scores its 64-point blocks on one thread
  per usable core that BLAS leaves (`blas_slots`), with the same bits
  for any thread count, and the heatmap reads its level's phasors from
  the scenario's `Codebook` (`Scenario.codebook`) with `cell_phasors`;
* link-level trials draw each link as arrays of path amplitudes, fadings
  and bounce points. A beta scales every link's scattered term at 0 dB by
  one scalar s = 10^(-beta/20), so a trial's direct term d and effective
  cascade A, in noise-amplitude units and one row per MU combiner, are
  polynomials in s: d = D_0 + s D_1 and A = C_0 + s C_1 + s^2 C_2. Each
  trial index reduces H v, H1 v and H2 once, matrix-free and with every
  RIS leg's distances taken on the grid, to that basis (`trial_draw`).
  Every scheme scores max_u |d_u + A_u exp(j*omega)|^2 (combiner and
  direct link included) from the phasors exp(j*omega). The search and B3
  form (d, A) at each beta, O(N_mu Q), and the search sounds the codewords
  of a coarser level as one cached block (`Scenario.codewords`) and the
  finest level's from its table. B1 and B2 read the table and their
  codeword once per trial index, as the products E C_k^T + D_k
  (`basis_products`), so a beta costs them O(W_x W_y N_mu). No level of
  phases is held whole: whole-level phase arrays are the tests' oracle of
  the trials and the rasters. `build_trial_channels` forms the full
  matrices with `assemble_channel`; the tests reduce them to (d, A) as the
  oracle of the channel reduction, and `simulate --dump-channels` writes
  them.

The module imports what every command runs. The process pool is imported
by a campaign of more than one worker alone (`run_campaign`), the thread
pool by the field kernel alone, and numpy.random by a campaign process
before its first trial, so a raster imports neither numpy.random nor,
through its `secrets` import, OpenSSL's libcrypto.

Trials are pure functions of (scenario, beta, trial index). Every random
draw comes from a seed sequence labeled (master seed, trial, component),
so all betas of a trial index share its links up to the NLOS amplitudes
(`at_beta`). Two one-slot caches hold what a trial reads beyond its beta:
`Scenario.statics()`, of the scenario alone, which keeps the last searched
block of each coarser level, and `trial_draw(scenario, trial)`. A
campaign runs index by index, so it builds the statics and level 1's
block once per process, each index's basis and B1 and B2 products once
for all its betas, and each block of children once per winner path that
its betas follow.
"""

import os
import sys
from contextlib import suppress
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from numbers import Real

import numpy as np

from . import benchmarks as bm
from .beam_mgmt import (
    at_scale,
    basis_products,
    bs_precoder_focus_ris,
    cascade_basis,
    hierarchical_search,
    mu_combiners,
)
from .channel import (
    ChannelSet,
    LinkPaths,
    apply_beta,
    assemble_channel,
    blockage_attenuation,
    free_space_amplitude,
    generate_scatterers,
    leg_phasors,
    noise_power,
    sum_paths,
)
from .codebook import (
    Codebook,
    cell_phasors,
    check_levels,
    focusing_phases,
    unit_cell_factor,
)
from .geometry import (
    PlanarArrayGeometry,
    RisGeometry,
    cis,
    distance,
    far_field_distance,
    ris_from_aperture,
    wavelength,
)

PER_PATH = "per_path"
TOTAL = "total"
DB_MEAN = "db_mean"
LINEAR_MEAN = "linear_mean"

# Scenario field annotations other than int, float and str; _checked reads all of them
Point = tuple[float, float, float]
BetaList = tuple[float, ...]
LevelShapes = tuple[tuple[int, int], ...]

# seed-stream labels: one sub-stream per random component of a trial
_SEED_MU = 0
_SEED_SCATTER = 1
_SEED_FADING = 2


def is_finite_real(v):
    """True for a real number (not a bool) that is neither infinite nor NaN."""
    return isinstance(v, Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _checked(name, kind, v):
    """v stored as its field's annotation reads it; a ValueError names the field."""
    if kind is int:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"scenario: {name} must be an integer, got {v!r}")
        return int(v)
    if kind is float:
        if not is_finite_real(v):
            raise ValueError(f"scenario: {name} must be a finite real number, got {v!r}")
        return float(v)
    if kind == Point:
        if not isinstance(v, (list, tuple)) or len(v) != 3:
            raise ValueError(f"scenario: {name} needs 3 values (x, y, z), got {v!r}")
        return tuple(_checked(name, float, x) for x in v)
    if kind == BetaList:
        values = tuple(_checked(name, float, x) for x in v) if isinstance(v, (list, tuple)) else ()
        if not values or len(set(values)) != len(values):
            raise ValueError(f"scenario: {name} must be a non-empty list of distinct values, "
                             f"got {v!r}")
        return values
    return v  # str fields and the level shapes are checked by value in __post_init__


@dataclass(frozen=True)
class Scenario:
    """Complete experiment description. Defaults reproduce the reference setup.

    Construction checks every field, by its annotation and then by value,
    and raises a ValueError that starts with "scenario:".
    """

    carrier_hz: float = 28e9
    # BS: square array on the x-z plane
    bs_center: Point = (40.0, 0.0, 10.0)
    bs_n_x: int = 8
    bs_n_z: int = 8
    bs_spacing_wl: float = 0.5
    # RIS: physical aperture on the y-z plane; grid counts = floor(size/spacing)
    ris_center: Point = (0.0, 40.0, 5.0)
    ris_size_y_m: float = 0.5
    ris_size_z_m: float = 0.5
    ris_spacing_wl: float = 0.5
    # blockage area (MU region, direct-link attenuation)
    blockage_center: Point = (20.0, 40.0, 1.0)
    blockage_r_x: float = 16.0
    blockage_r_y: float = 16.0
    blockage_loss_db: float = 20.0
    # MU
    n_mu: int = 1
    mu_spacing_wl: float = 0.5
    # multipath: per-link path counts (1 LOS + rest NLOS) and scatterer volume
    paths_direct: int = 21
    paths_bs_ris: int = 21
    paths_ris_mu: int = 21
    scatterer_box_min: Point = (0.0, 0.0, 0.0)
    scatterer_box_max: Point = (60.0, 60.0, 10.0)
    beta_semantics: str = PER_PATH
    # RF
    p_bs_dbm: float = 20.0
    noise_psd_dbm_hz: float = -176.0
    bandwidth_hz: float = 1e8
    noise_figure_db: float = 6.0
    # codebook
    codebook_levels: LevelShapes = ((4, 4), (8, 8), (8, 16), (8, 32))
    codebook_alpha: float = 0.8
    # campaign
    beta_list_db: BetaList = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    trials: int = 100
    master_seed: int = 1
    workers: int = 1
    average: str = DB_MEAN
    # illumination pipeline
    illum_reference_power_w: float = 1.0
    illum_grid: int = 64

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _checked(f.name, f.type, getattr(self, f.name)))
        checks = [
            (self.carrier_hz > 0, "carrier_hz must be positive"),
            (self.bs_n_x >= 1 and self.bs_n_z >= 1, "bs array counts must be >= 1"),
            (self.bs_spacing_wl > 0, "bs_spacing_wl must be positive"),
            (self.ris_size_y_m > 0 and self.ris_size_z_m > 0, "ris size must be positive"),
            (self.ris_spacing_wl > 0, "ris_spacing_wl must be positive"),
            (self.blockage_r_x > 0 and self.blockage_r_y > 0, "blockage extents must be positive"),
            (self.n_mu >= 1, "n_mu must be >= 1"),
            (self.mu_spacing_wl > 0, "mu_spacing_wl must be positive"),
            (self.paths_direct >= 1 and self.paths_bs_ris >= 1 and self.paths_ris_mu >= 1,
             "each link needs at least the LOS path"),
            (self.beta_semantics in (PER_PATH, TOTAL),
             f"beta_semantics must be '{PER_PATH}' or '{TOTAL}'"),
            (self.bandwidth_hz > 0, "bandwidth_hz must be positive"),
            (self.noise_figure_db >= 0, "noise_figure_db must be >= 0"),
            (self.trials >= 1, "trials must be >= 1"),
            (self.master_seed >= 0, "master_seed must be >= 0"),
            (self.workers >= 1, "workers must be >= 1"),
            (self.average in (DB_MEAN, LINEAR_MEAN),
             f"average must be '{DB_MEAN}' or '{LINEAR_MEAN}'"),
            (self.illum_reference_power_w > 0, "illum_reference_power_w must be positive"),
            (self.illum_grid >= 2, "illum_grid must be >= 2"),
            (all(lo <= hi for lo, hi in zip(self.scatterer_box_min, self.scatterer_box_max)),
             "scatterer box min must not exceed max"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ValueError(f"scenario: {msg}")
        try:
            check_levels(self.codebook_levels, self.codebook_alpha)
        except ValueError as exc:
            raise ValueError(f"scenario: {exc}") from None
        object.__setattr__(self, "codebook_levels",
                           tuple((int(x), int(y)) for x, y in self.codebook_levels))
        try:  # runs after the carrier and spacing checks, which the grid rule divides by
            self.ris_geometry()
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"scenario: ris size over spacing must give a finite grid of "
                             f">= 1 element per axis: {exc}") from None
        try:  # the direct link's amplitude factor, as `blockage_attenuation` computes it
            10.0 ** (-self.blockage_loss_db / 20.0)
        except OverflowError:
            raise ValueError("scenario: blockage_loss_db must give a finite amplitude factor "
                             "10^(-loss_db/20)") from None
        with np.errstate(over="ignore"):  # dB to linear: inf past ~3080 dB, 0 below ~-3230
            for inputs, linear, value in (
                    ("p_bs_dbm", "p_bs_watts > 0 W", self.p_bs_watts),
                    ("noise_psd_dbm_hz, bandwidth_hz and noise_figure_db", "sigma2 > 0 W",
                     self.sigma2),
                    *(("beta_list_db", f"power ratio 10^(beta_db/10) > 0, got {b!r}",
                       np.power(10.0, b / 10.0)) for b in self.beta_list_db)):
                if not 0 < value < np.inf:
                    raise ValueError(f"scenario: {inputs} must give a finite {linear}")

    # --- derived pieces -------------------------------------------------

    @property
    def lambda_m(self):
        return wavelength(self.carrier_hz)

    @property
    def p_bs_watts(self):
        return np.power(10.0, (self.p_bs_dbm - 30.0) / 10.0)  # inf, not OverflowError, past range

    @property
    def sigma2(self):
        return noise_power(self.noise_psd_dbm_hz, self.bandwidth_hz, self.noise_figure_db)

    def ris_geometry(self):
        d = self.ris_spacing_wl * self.lambda_m
        return ris_from_aperture(
            np.asarray(self.ris_center, dtype=float), self.ris_size_y_m, self.ris_size_z_m, d, d
        )

    def bs_geometry(self):
        d = self.bs_spacing_wl * self.lambda_m
        return PlanarArrayGeometry(
            center=np.asarray(self.bs_center, dtype=float),
            n_x=self.bs_n_x, n_z=self.bs_n_z, d_x=d, d_z=d,
        )

    @lru_cache(maxsize=1)  # on the class, so a pickled scenario carries no tables
    def statics(self):
        """The record of what trials read of this scenario alone, kept for the last scenario."""
        lam, cb = self.lambda_m, self.codebook()
        ris, bs_pos = cb.geom, self.bs_geometry().element_positions()
        v = bs_precoder_focus_ris(bs_pos, self.ris_center, lam, self.p_bs_watts)
        finest = len(cb.levels) - 1
        return CampaignStatics(
            bs_pos=bs_pos, ris=ris, v=v, g=unit_cell_factor(ris, lam),
            uh=mu_combiners(self.n_mu).conj(), sigma=np.sqrt(self.sigma2),
            los=v @ _ris_legs(ris, bs_pos, lam),
            finest=cell_phasors(cb, finest),
            blocks=tuple(lru_cache(maxsize=1)(partial(cell_phasors, cb, depth))
                         for depth in range(finest)))

    def codebook(self):
        """The `Codebook` every codeword of this scenario is computed from."""
        return Codebook(levels=self.codebook_levels, alpha=self.codebook_alpha,
                        p_b=self.blockage_center, r_x=self.blockage_r_x,
                        r_y=self.blockage_r_y, geom=self.ris_geometry(), p_i=self.bs_center,
                        lambda_m=self.lambda_m)

    def codewords(self, depth, cells):
        """Phasors of cells [(w_x, w_y), ...] of level depth (0-based), one row each.

        The finest level's rows come from its table in the statics; a coarser
        level's are one read-only block, kept until that level is asked other cells.
        """
        st = self.statics()
        if depth < len(st.blocks):
            return st.blocks[depth](tuple(cells))
        w_x, w_y = np.array(cells).T
        return st.finest[w_x * self.codebook_levels[depth][1] + w_y]

    def search(self, d, a):
        """`hierarchical_search` of (d, A) over this scenario's hierarchy."""
        return hierarchical_search(d, a, self.codebook_levels, self.codewords)

    def to_dict(self):
        """Field name -> value, every tuple (nested ones too) as a list."""

        def plain(v):
            return [plain(x) for x in v] if isinstance(v, tuple) else v
        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True, eq=False)
class CampaignStatics:
    """`Scenario.statics()`: the BS positions, the RIS geometry, v, g, conj(U), sigma, the
    LOS projection E v, and the read-only phasors that `codebook.cell_phasors` reads from
    the scenario's `Codebook`: the finest level's (W_x * W_y, Q) table, and per coarser
    level a one-slot cache of its blocks of the cells asked."""

    bs_pos: np.ndarray
    ris: RisGeometry
    v: np.ndarray
    g: float
    uh: np.ndarray
    sigma: float
    los: np.ndarray
    finest: np.ndarray
    blocks: tuple


@dataclass
class TrialResult:
    trial: int
    beta_db: float
    mu_position: tuple
    snr_db: dict        # scheme id -> dB
    pilots: int         # proposed scheme's pilot total
    winners: list       # proposed scheme's per-level winning cell indices


@dataclass
class Aggregate:
    scheme: str
    beta_db: float
    mean_snr_db: float
    std_snr_db: float
    n_trials: int


def _trial_rng(master_seed, trial, label):
    return np.random.default_rng(np.random.SeedSequence((master_seed, trial, label)))


def _draw_link(tx_center, rx_center, count, box_min, box_max, lambda_m, rng_scatter, rng_fading):
    """One link: LOS plus count-1 scattered paths.

    Per-path pathloss is the Friis amplitude of the center-to-center bounce
    length; fading is CN(0,1) on NLOS paths and 1 on the LOS path. The LOS
    path enters the length expression as a bounce at the transmitter.
    """
    tx = np.asarray(tx_center, dtype=float)
    rx = np.asarray(rx_center, dtype=float)
    n_nlos = count - 1
    scat = generate_scatterers(box_min, box_max, n_nlos, rng_scatter)
    fad = (rng_fading.standard_normal(n_nlos) + 1j * rng_fading.standard_normal(n_nlos)) / np.sqrt(2.0)
    via = np.vstack([tx, scat])
    lengths = distance(tx, via) + distance(via, rx)
    return LinkPaths(amplitude=free_space_amplitude(lengths, lambda_m),
                     fading=np.concatenate([[1.0], fad]), scatterers=scat)


def _beta_total_db(scenario, link, beta_db):
    """Translate the scenario's beta convention to the total-power target."""
    if scenario.beta_semantics == TOTAL:
        return beta_db
    n_nlos = len(link) - 1
    return beta_db - 10.0 * np.log10(n_nlos)


def mu_antenna_positions(scenario, p_mu):
    """MU antenna positions: a y-axis line array centred on p_mu (p_mu itself if n_mu = 1)."""
    d = scenario.mu_spacing_wl * scenario.lambda_m
    offs = (np.arange(scenario.n_mu) - (scenario.n_mu - 1) / 2.0) * d
    out = np.tile(np.asarray(p_mu, dtype=float), (scenario.n_mu, 1))
    out[:, 1] += offs
    return out


def draw_mu_position(scenario, trial):
    rng = _trial_rng(scenario.master_seed, trial, _SEED_MU)
    c = np.asarray(scenario.blockage_center, dtype=float)
    x = c[0] + (rng.random() - 0.5) * scenario.blockage_r_x
    y = c[1] + (rng.random() - 0.5) * scenario.blockage_r_y
    return np.array([x, y, c[2]])


def draw_trial_links(scenario, trial):
    """Draw one trial index: the MU position and the (direct, BS-RIS, RIS-MU) links.

    Each link is a `LinkPaths` at its free-space amplitudes, before beta
    (`at_beta`). Returns ((direct, bs_ris, ris_mu), p_mu).
    """
    p_mu = draw_mu_position(scenario, trial)
    rng_s = _trial_rng(scenario.master_seed, trial, _SEED_SCATTER)
    rng_f = _trial_rng(scenario.master_seed, trial, _SEED_FADING)
    # (tx center, rx center, path count) per link; this fixed draw order
    # keeps every link's randomness reproducible
    specs = (
        (scenario.bs_center, p_mu, scenario.paths_direct),
        (scenario.bs_center, scenario.ris_center, scenario.paths_bs_ris),
        (scenario.ris_center, p_mu, scenario.paths_ris_mu),
    )
    return tuple(_draw_link(tx_c, rx_c, count, scenario.scatterer_box_min,
                            scenario.scatterer_box_max, scenario.lambda_m, rng_s, rng_f)
                 for tx_c, rx_c, count in specs), p_mu


def at_beta(scenario, links, beta_db):
    """The drawn links at beta: each link's NLOS amplitudes scaled to beta,
    then the blockage loss, which attenuates the direct link only."""
    out = []
    for link, loss_db in zip(links, (scenario.blockage_loss_db, 0.0, 0.0)):
        if len(link) > 1:
            link = apply_beta(link, _beta_total_db(scenario, link, beta_db))
        out.append(blockage_attenuation(link, loss_db))
    return tuple(out)


def _ris_legs(ris, points, lambda_m):
    """exp(+j*k*|p - p_n|) from each of the (P, 3) points to each RIS element, shape (P, Q):
    `leg_phasors` of the RIS links from the grid's distances (`RisGeometry.distances`).

    The one (P, Q) complex array is the only one made: the distances go into
    its real part, are scaled by k there, and `cis` turns them into phasors
    in place, with the bits of `leg_phasors`."""
    legs = np.empty((len(points), ris.q), dtype=complex)
    d = ris.distances(points, out=legs.real)
    d *= 2.0 * np.pi / lambda_m
    return cis(d, out=legs)


@dataclass(frozen=True, eq=False)
class TrialDraw:
    """`trial_draw(scenario, trial)`: what every beta of a trial index reads.

    Each (3, ...) array is a basis in s = 10^(-beta_db/20) that `at_scale`
    reads at one beta: d and c give the trial's (d, A) (`cascade_basis`),
    b1 and b2 their `basis_products` with B1's finest-level table and B2's
    focusing phasors.
    """

    p_mu: np.ndarray  # (3,) MU position
    d: np.ndarray     # (3, N_mu)
    c: np.ndarray     # (3, N_mu, Q)
    b1: np.ndarray    # (3, N_mu, W_x * W_y)
    b2: np.ndarray    # (3, N_mu, 1)


@lru_cache(maxsize=1)
def trial_draw(scenario, trial):
    """The beta-free part of a trial, kept for the last (scenario, trial) asked.

    A beta scales every link's scattered term at 0 dB by one scalar
    s = 10^(-beta_db/20), under both beta semantics: `apply_beta`'s factor
    is proportional to 10^(-b/20), and b is beta_db plus a per-link offset
    free of beta. So (d, A) at beta is a polynomial in s of degree 1 and 2.
    This reduces the (LOS, scattered) pairs (`sum_paths`) of H v, H1 v and H2
    of the links at beta = 0 dB, blockage included (`at_beta`), to that
    basis, in the conventions of `build_trial_channels` but without an
    (n_rx, N_bs) matrix; every RIS leg's distances come from the RIS grid.
    It then reads B1's 256-row table, in row blocks sized for `blas_threads()`,
    and B2's codeword once for all betas: one matrix-vector product per basis
    term, combiner row and block each.
    Returns a `TrialDraw`.
    """
    st, lam = scenario.statics(), scenario.lambda_m
    links, p_mu = draw_trial_links(scenario, trial)
    bs_pos, ris, v, mu_pos = st.bs_pos, st.ris, st.v, mu_antenna_positions(scenario, p_mu)
    direct, bs_ris, ris_mu = at_beta(scenario, links, 0.0)
    s_h, s_1, s_2 = (link.scatterers for link in links)
    d, c = cascade_basis(
        sum_paths(direct, leg_phasors(mu_pos, bs_pos, lam, -1) @ v,
                  leg_phasors(mu_pos, s_h, lam, -1), leg_phasors(bs_pos, s_h, lam, -1).T @ v),
        sum_paths(bs_ris, st.los, _ris_legs(ris, s_1, lam).T,
                  leg_phasors(bs_pos, s_1, lam, +1).T @ v),
        sum_paths(ris_mu, _ris_legs(ris, mu_pos, lam),
                  leg_phasors(mu_pos, s_2, lam, +1), _ris_legs(ris, s_2, lam).T),
        st.g, st.uh, st.sigma)
    focus = cis(focusing_phases(scenario.bs_center, p_mu, ris, lam))
    return TrialDraw(p_mu=p_mu, d=d, c=c, b1=basis_products(st.finest, d, c, blas_threads()),
                     b2=basis_products(focus[None], d, c))


def build_trial_channels(scenario, beta_db, trial):
    """One realization's full channel matrices and MU position.

    The BS-RIS and RIS-MU matrices use the phase-advance convention (+j)
    consistently with the reflection model behind the codebook; the direct
    matrix uses the opposite sign. Trials reduce the same links without
    these matrices (`trial_draw`); this form serves as their oracle and for
    `simulate --dump-channels`.
    """
    lam = scenario.lambda_m
    links, p_mu = draw_trial_links(scenario, trial)
    direct, bs_ris, ris_mu = at_beta(scenario, links, beta_db)
    bs_pos = scenario.bs_geometry().element_positions()
    ris_pos = scenario.ris_geometry().element_positions()
    mu_pos = mu_antenna_positions(scenario, p_mu)
    return ChannelSet(h=assemble_channel(direct, bs_pos, mu_pos, lam, -1),
                      h1=assemble_channel(bs_ris, bs_pos, ris_pos, lam, +1),
                      h2=assemble_channel(ris_mu, ris_pos, mu_pos, lam, +1)), p_mu


def run_trial(scenario, beta_db, trial):
    """All schemes on one realization; deterministic in (scenario, beta, trial).

    Reads the cached `scenario.statics()` and `trial_draw(scenario, trial)`,
    which the other betas of the trial index share, at s = 10^(-beta_db/20):
    the search and B3 form (d, A) from the draw's basis, O(N_mu Q), and B1
    and B2 read their basis products, O(W_x W_y N_mu). A non-finite SNR
    raises a ValueError, with no overflow warning first.
    """
    draw = trial_draw(scenario, trial)
    s = 10.0 ** (-beta_db / 20.0)
    with np.errstate(over="ignore"):  # an overflow gives an infinite SNR, rejected below
        d, a = at_scale(draw.d, s), at_scale(draw.c, s)
        trace = scenario.search(d, a)
        snr = {
            bm.PROPOSED: trace.levels[-1].snrs.max(),
            bm.B1_FULL_CODEBOOK: bm.benchmark1_full_search(draw.b1, s),
            bm.B2_FULL_FOCUSING: bm.benchmark2_full_focusing(draw.b2, s),
        }
        if scenario.n_mu == 1:
            snr[bm.B3_FULL_CSI] = bm.benchmark3_full_csi(d, a)
    snr_db = {scheme: 10.0 * np.log10(x) for scheme, x in snr.items()}
    if not all(map(is_finite_real, snr_db.values())):
        raise ValueError(f"trial {trial} at beta {beta_db:g} dB gives a non-finite SNR")
    return TrialResult(
        trial=trial,
        beta_db=beta_db,
        mu_position=tuple(float(x) for x in draw.p_mu),
        snr_db=snr_db,
        pilots=trace.pilot_count,
        winners=[tuple(rec.winner) for rec in trace.levels],
    )


# --- campaign execution --------------------------------------------------

def _every_beta(scenario, trial):
    return [run_trial(scenario, b, trial) for b in scenario.beta_list_db]


def run_campaign(scenario):
    """Monte Carlo over (beta, trial); results in (beta order, trial) order.

    Runs scenario.trials trial indices in this process at 1 worker, else on
    a pool of scenario.workers processes, capped at one per index and at
    `blas_slots()`, the usable cores per BLAS thread; a job is one index at
    every beta of scenario.beta_list_db, sharing its draw. Every process
    builds the statics and imports numpy.random before its first trial
    (`_before_trials`); the pool's parent imports numpy.random, and with it
    OpenSSL's libcrypto, before it forks, so the workers inherit both, and
    only this branch imports the process pool. Output is bit-identical for
    any worker count: each trial is a pure function of its coordinates, and
    the pool returns results in job order.
    """
    trials, job = range(scenario.trials), partial(_every_beta, scenario)
    if scenario.workers == 1:
        _before_trials(scenario)
        rows = list(map(job, trials))
    else:
        # each process builds the statics, and each runs its products on every BLAS
        # thread, so more processes than BLAS-thread teams the cores hold only queue
        workers = min(scenario.workers, scenario.trials, blas_slots())
        # numpy.random imports secrets, hmac and OpenSSL's libcrypto: imported before the
        # fork, the workers inherit them rather than each mapping its own
        import numpy.random  # noqa: F401
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_before_trials,
                                 initargs=(scenario,)) as ex:
            rows = list(ex.map(job, trials))
    return [r for per_beta in zip(*rows) for r in per_beta]


def usable_cores():
    """The cores this process may run on (its CPU affinity, which taskset or a
    cpuset narrows), or the host's count where the OS reports no affinity."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _before_trials(scenario):
    """A campaign process's set-up: the statics, then numpy.random, which numpy imports
    on first use (about 8 ms) and the rasters never use. A ValueError of the statics is
    left to the first trial, which raises it again: a pool passes on a job's error but
    breaks on its initializer's."""
    with suppress(ValueError):
        scenario.statics()
    import numpy.random  # noqa: F401


def aggregate(results, average=DB_MEAN):
    """Per (scheme, beta) mean and dispersion over trials."""
    keys = {}
    for r in results:
        for scheme, val in r.snr_db.items():
            keys.setdefault((scheme, r.beta_db), []).append(val)
    rows = []
    for (scheme, beta_db), vals in sorted(keys.items()):
        arr = np.asarray(vals)
        if average == LINEAR_MEAN:
            mean = 10.0 * np.log10(np.mean(10.0 ** (arr / 10.0)))
        else:
            mean = float(np.mean(arr))
        rows.append(Aggregate(scheme=scheme, beta_db=beta_db, mean_snr_db=float(mean),
                              std_snr_db=float(np.std(arr)), n_trials=len(vals)))
    return rows


def sweep_beta(scenario):
    """Full campaign over the scenario's beta grid plus its aggregate table."""
    results = run_campaign(scenario)
    return results, aggregate(results, scenario.average)


# --- illumination pipeline (point-source GRCS maps) ----------------------

# Points per block of the field kernel, and per sub-block of its phases.
# A block is one (points, Q) complex buffer of path phasors and one GEMM
# with the profiles; its distances and phases are computed _FIELD_SUB
# points at a time into the buffer, so the peak grows with threads x block:
# one 8.9 MB buffer per thread on the reference RIS. A block's GEMM
# operands do not depend on the thread count, so neither do the output's
# bits. On the reference RIS (2-core host, BLAS on 1 thread), a process
# that draws a level-4 heatmap peaks at 93 MB on one kernel thread and
# 103 MB on two with 4-point sub-blocks; 8, 16 and 64 points take two
# threads to 104, 106 and 111 MB.
_FIELD_CHUNK = 64
_FIELD_SUB = 4


def blas_threads():
    """The BLAS threads the environment asks for: the first of OPENBLAS_NUM_THREADS,
    OMP_NUM_THREADS and MKL_NUM_THREADS set to a positive integer, else one per
    usable core, as OpenBLAS takes when none is set."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(name, "")
        if value.isdecimal() and int(value) > 0:
            return int(value)
    return usable_cores()


def blas_slots():
    """The usable cores per BLAS thread, at least one: how many threads or processes
    that each call BLAS on all its threads run side by side without contending for
    the cores. A campaign pool and the field kernel take at most this many.

    On a 2-core host with BLAS unpinned (2 threads), 2 kernel threads draw a
    level-4 heatmap in about 2.4 s, against 2.0 s on one, and a 2-process
    `sweep-beta --trials 30` runs 91-102 trials/s, against 156-164 on one.
    """
    return max(1, usable_cores() // blas_threads())


def field_threads(n_points):
    """Threads of the field kernel over n_points points: `blas_slots()`, and at most
    one per _FIELD_CHUNK-point block."""
    return min(blas_slots(), -(-n_points // _FIELD_CHUNK))


def _field_snr_db(scenario, points, phasors):
    """Point-source illumination SNR in dB of each profile at each point, shape (P, K).

    points is (P, 3); phasors is (K, Q), one profile exp(j*omega) per row, as
    `codebook.cell_phasors` builds them. The BS is a point source at p_i, and
    each entry is 10*log10(P_ref * (PL1 * PL2 * |GRCS(p_i, p, omega)|)^2 / sigma2),
    with PL1 and PL2 the Friis amplitudes over the BS-RIS and RIS-point center
    distances. Points are evaluated _FIELD_CHUNK at a time, their distances to
    the elements taken on the RIS grid (`RisGeometry.distances`); each block's path
    phasors exp(j*k*(|p_i - p_n| + |p - p_n|)) carry both legs, so the
    profiles are read as given. The blocks run on `field_threads(P)` threads,
    each under the caller's numpy error state and writing only its own rows,
    and the threads end before the call returns; numpy's cos, sin and the
    GEMM release the interpreter lock, and the result has the same bits for
    any thread count. The thread pool is imported here, by its one user. A
    non-finite point or SNR raises a ValueError.
    """
    geom = scenario.ris_geometry()
    lam = scenario.lambda_m
    k = 2.0 * np.pi / lam
    g = unit_cell_factor(geom, lam)
    p_i = np.asarray(scenario.bs_center, dtype=float)
    p_ris = np.asarray(scenario.ris_center, dtype=float)
    pl1 = free_space_amplitude(float(np.linalg.norm(p_i - p_ris)), lam)
    d_i = geom.distances([p_i])[0]
    out = np.empty((len(points), len(phasors)))
    err = dict(np.geterr(), call=np.geterrcall())  # a new thread starts from numpy's defaults
    from concurrent.futures import ThreadPoolExecutor

    def block(s):
        with np.errstate(**err):
            p_r = points[s:s + _FIELD_CHUNK]
            paths = np.empty((len(p_r), geom.q), dtype=complex)
            for t in range(0, len(p_r), _FIELD_SUB):
                d = geom.distances(p_r[t:t + _FIELD_SUB])
                d += d_i
                d *= k
                cis(d, out=paths[t:t + _FIELD_SUB])
            mags = np.abs(paths @ phasors.T) * g
            pl2 = free_space_amplitude(distance(p_r, p_ris), lam)
            snr = 10.0 * np.log10(
                scenario.illum_reference_power_w * (pl1 * pl2[:, None] * mags) ** 2
                / scenario.sigma2)
        if not np.isfinite(snr).all():  # a block at a time: a whole-output mask adds 1 MB of peak
            raise ValueError(f"field kernel: non-finite points or SNRs at reference power "
                             f"{scenario.illum_reference_power_w!r} W, past float range")
        out[s:s + _FIELD_CHUNK] = snr

    with ThreadPoolExecutor(max_workers=field_threads(len(points))) as ex:
        list(ex.map(block, range(0, len(points), _FIELD_CHUNK)))  # re-raises a block's error
    return out


def focusing_cut(scenario, axis, half_range_m=8.0, steps=801):
    """SNR vs displacement from the blockage center under full focusing.

    The RIS focuses on p_b; the observation point moves along the chosen
    axis over steps >= 2 points. Returns (displacements, snr_db); a non-finite
    point or SNR, from a range too large for floats, raises a ValueError.
    """
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    if steps < 2 or not 0 < half_range_m < np.inf:
        raise ValueError(f"focus cut needs steps >= 2 and a finite half range > 0, "
                         f"got steps={steps}, half range={half_range_m} m")
    p_b = np.asarray(scenario.blockage_center, dtype=float)
    omega = focusing_phases(scenario.bs_center, p_b, scenario.ris_geometry(), scenario.lambda_m)
    unit = np.array([1.0, 0, 0]) if axis == "x" else np.array([0, 1.0, 0])
    with np.errstate(all="ignore"):  # overflows give non-finite SNRs, which the kernel rejects
        deltas = np.linspace(-half_range_m, half_range_m, steps)
        snr = _field_snr_db(scenario, p_b + deltas[:, None] * unit, cis(omega)[None, :])[:, 0]
    return deltas, snr


@dataclass
class HeatmapResult:
    level: int          # 1-based level number
    xs: np.ndarray
    ys: np.ndarray
    per_cell: np.ndarray  # (W_x, W_y, len(xs), len(ys)): SNR dB grid of each cell
    composite: np.ndarray


def heatmap(scenario, level_index):
    """Rasterized illumination SNR over the blockage area for one level.

    level_index is 0-based into the codebook levels, and a ValueError
    names the valid range; the raster has scenario.illum_grid points per
    axis. Builds that level's phasors alone (`cell_phasors`, row
    w_x * W_y + w_y) and returns the grid of every codeword of the level
    and their pointwise-max composite; a non-finite value raises a ValueError.
    """
    levels = scenario.codebook_levels
    if not 0 <= level_index < len(levels):
        raise ValueError(f"level_index {level_index} out of range 0..{len(levels) - 1}")
    level = cell_phasors(scenario.codebook(), level_index)
    n = scenario.illum_grid

    p_b = np.asarray(scenario.blockage_center, dtype=float)
    xs = p_b[0] + np.linspace(-scenario.blockage_r_x / 2, scenario.blockage_r_x / 2, n)
    ys = p_b[1] + np.linspace(-scenario.blockage_r_y / 2, scenario.blockage_r_y / 2, n)
    grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")
    points = np.column_stack([grid_x.ravel(), grid_y.ravel(), np.full(n * n, p_b[2])])
    with np.errstate(all="ignore"):  # overflows give non-finite SNRs, which the kernel rejects
        flat = _field_snr_db(scenario, points, level)
    per_cell = flat.T.reshape(*levels[level_index], n, n)
    return HeatmapResult(level=level_index + 1, xs=xs, ys=ys,
                         per_cell=per_cell, composite=per_cell.max(axis=(0, 1)))


def farfield_table(f_hz, sizes_m):
    """Rows (L, D, d_F) for square apertures of side L: D = sqrt(2)*L."""
    lam = wavelength(f_hz)
    rows = []
    for size in sizes_m:
        d_ap = float(np.sqrt(2.0) * size)
        rows.append((float(size), d_ap, far_field_distance(d_ap, lam)))
    return rows
