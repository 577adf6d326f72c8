"""Scenario description and Monte Carlo campaigns.

Two SNR pipelines coexist and are kept separate on purpose:

* illumination maps (focusing cuts, codebook heatmaps) treat the BS as a
  point source at p_i and score P_ref * (PL1 * PL2 * |g_ris|)^2 / sigma2
  on the LOS geometry only, with a configurable reference power; both
  reduce to one field kernel, (points, phasor profiles) -> SNR dB, and
  the heatmap reads its level's phasors from `cell_phasors`;
* link-level trials draw each link as arrays of path amplitudes, fadings
  and bounce points. Each trial index reduces H v, H1 v and H2 once,
  matrix-free, to a LOS and a scattered term each at 0 dB (`trial_draw`);
  a beta scales every scattered term by one scalar and sums them to a
  direct term d and an effective cascade A in noise-amplitude units, one
  row per MU combiner (`Scenario.link_cascade`). Every scheme reads that pair
  alone and scores max_u |d_u + A_u exp(j*omega)|^2 (combiner and direct
  link included) from the phasors exp(j*omega): the finest level's from
  its table, the codewords of a coarser level that a search sounds as one
  cached block (`Scenario.codewords`). The phase arrays of
  `Scenario.build_codebook` serve the codebook dump, and are the tests'
  oracle of the trials and the rasters. `build_trial_channels` and
  `Scenario.cascade` form the full matrices with `assemble_channel` and
  are the oracle of the channel reduction.

Trials are pure functions of (scenario, beta, trial index). Every random
draw comes from a seed sequence labeled (master seed, trial, component),
so all betas of a trial index share its links up to the NLOS amplitudes
(`at_beta`). Two one-slot caches hold what a trial reads beyond its beta:
`Scenario.statics()`, of the scenario alone, which keeps the last searched
block of each coarser level, and `trial_draw(scenario, trial)`. A
campaign runs index by index, so it builds the statics and level 1's
block once per process, each index's link terms and B2 codeword once for
all its betas, and each block of children once per winner path that its
betas follow.
"""

import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from numbers import Real

import numpy as np

from . import benchmarks as bm
from .beam_mgmt import bs_precoder_focus_ris, hierarchical_search, mu_combiners, reduce_cascade
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
    BlockageArea,
    build_hierarchy,
    cell_phasors,
    check_levels,
    focusing_phases,
    unit_cell_factor,
)
from .geometry import (
    PlanarArrayGeometry,
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
        lam = self.lambda_m
        bs_pos = self.bs_geometry().element_positions()
        ris_pos = self.ris_geometry().element_positions()
        v = bs_precoder_focus_ris(bs_pos, self.ris_center, lam, self.p_bs_watts)
        (*coarser, finest), *args = self._codebook_args()
        return CampaignStatics(
            bs_pos=bs_pos, ris_pos=ris_pos, v=v, g=unit_cell_factor(self.ris_geometry(), lam),
            uh=mu_combiners(self.n_mu).conj(), sigma=np.sqrt(self.sigma2),
            los=leg_phasors(ris_pos, bs_pos, lam, +1) @ v,
            finest=cell_phasors(finest, *args, ris_pos, list(np.ndindex(*finest))),
            blocks=tuple(lru_cache(maxsize=1)(partial(cell_phasors, shape, *args, ris_pos))
                         for shape in coarser))

    def cascade(self, channels):
        """(d, A) of a trial's full channel matrices: the oracle of `link_cascade`."""
        v = bs_precoder_focus_ris(self.bs_geometry().element_positions(), self.ris_center,
                                  self.lambda_m, self.p_bs_watts)
        return reduce_cascade(channels.h @ v, channels.h1 @ v, channels.h2,
                              unit_cell_factor(self.ris_geometry(), self.lambda_m),
                              mu_combiners(self.n_mu).conj(), np.sqrt(self.sigma2))

    def link_cascade(self, draw, beta_db):
        """(d, A) at beta of a trial index's `trial_draw`, without the (Q, N_bs) H1.

        Each of H v, H1 v and H2 is its link's LOS term plus its scattered
        term at 0 dB times s = 10^(-beta_db/20), one scalar for every link
        (all-zero for a link without NLOS paths). That is `at_beta` under
        both beta semantics: `apply_beta`'s factor is proportional to
        10^(-b/20), and b is beta_db plus a per-link offset free of beta.
        """
        st = self.statics()
        s = 10.0 ** (-beta_db / 20.0)
        hv, h1v, h2 = (los + s * scattered for los, scattered in draw[1])
        return reduce_cascade(hv, h1v, h2, st.g, st.uh, st.sigma)

    def blockage_area(self):
        return BlockageArea(
            center=np.asarray(self.blockage_center, dtype=float),
            r_x=self.blockage_r_x, r_y=self.blockage_r_y,
        )

    def _codebook_args(self):
        return (self.codebook_levels, self.codebook_alpha, self.blockage_area(),
                self.ris_geometry(), np.asarray(self.bs_center, dtype=float), self.lambda_m)

    def build_codebook(self):
        """The hierarchy: one (W_x, W_y, Q) codeword array per level, coarsest first.

        `codebook dump` and the tests read it; trials read the phasors of
        `statics()` and `codewords`, and the heatmap those of `cell_phasors`.
        """
        return build_hierarchy(*self._codebook_args())

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
    """`Scenario.statics()`: positions, v, g, conj(U), sigma, the LOS projection E v, and
    the read-only phasors of `codebook.cell_phasors`: the finest level's (W_x * W_y, Q)
    table, and per coarser level a one-slot cache of its blocks of the cells asked."""

    bs_pos: np.ndarray
    ris_pos: np.ndarray
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


@lru_cache(maxsize=1)
def trial_draw(scenario, trial):
    """The beta-free part of a trial, kept for the last (scenario, trial) asked.

    Returns (p_mu, terms, focus): terms are the (LOS, scattered) pairs
    (`sum_paths`) of H v, H1 v and H2 of the links at beta = 0 dB, blockage
    included (`at_beta`), in the conventions of `build_trial_channels`,
    without an (n_rx, N_bs) matrix; focus is B2's phasors.
    """
    st, lam = scenario.statics(), scenario.lambda_m
    links, p_mu = draw_trial_links(scenario, trial)
    bs_pos, ris_pos, v, mu_pos = st.bs_pos, st.ris_pos, st.v, mu_antenna_positions(scenario, p_mu)
    direct, bs_ris, ris_mu = at_beta(scenario, links, 0.0)
    s_h, s_1, s_2 = (link.scatterers for link in links)
    terms = (sum_paths(direct, leg_phasors(mu_pos, bs_pos, lam, -1) @ v,
                       leg_phasors(mu_pos, s_h, lam, -1), leg_phasors(bs_pos, s_h, lam, -1).T @ v),
             sum_paths(bs_ris, st.los, leg_phasors(ris_pos, s_1, lam, +1),
                       leg_phasors(bs_pos, s_1, lam, +1).T @ v),
             sum_paths(ris_mu, leg_phasors(mu_pos, ris_pos, lam, +1),
                       leg_phasors(mu_pos, s_2, lam, +1), leg_phasors(ris_pos, s_2, lam, +1)))
    focus = cis(focusing_phases(scenario.bs_center, p_mu, scenario.ris_geometry(), lam, ris_pos))
    return p_mu, terms, focus


def build_trial_channels(scenario, beta_db, trial):
    """One realization's full channel matrices and MU position.

    The BS-RIS and RIS-MU matrices use the phase-advance convention (+j)
    consistently with the reflection model behind the codebook; the direct
    matrix uses the opposite sign. Trials reduce the same links without
    these matrices (`Scenario.link_cascade`); this form serves as their
    oracle and for `simulate --dump-channels`.
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
    which the other betas of the trial index share. A non-finite SNR raises
    a ValueError, with no overflow warning first.
    """
    p_mu, _, focus = draw = trial_draw(scenario, trial)
    with np.errstate(over="ignore"):  # an overflow gives an infinite SNR, rejected below
        d, a = scenario.link_cascade(draw, beta_db)
        trace = scenario.search(d, a)
        snr = {
            bm.PROPOSED: trace.levels[-1].snrs.max(),
            bm.B1_FULL_CODEBOOK: bm.benchmark1_full_search(d, a, scenario.statics().finest),
            bm.B2_FULL_FOCUSING: bm.benchmark2_full_focusing(d, a, focus),
        }
        if scenario.n_mu == 1:
            snr[bm.B3_FULL_CSI] = bm.benchmark3_full_csi(d, a)
    snr_db = {scheme: 10.0 * np.log10(x) for scheme, x in snr.items()}
    if not all(map(is_finite_real, snr_db.values())):
        raise ValueError(f"trial {trial} at beta {beta_db:g} dB gives a non-finite SNR")
    return TrialResult(
        trial=trial,
        beta_db=beta_db,
        mu_position=tuple(float(x) for x in p_mu),
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
    a pool of scenario.workers processes, or of one per index when there
    are fewer; a job is one index at every beta of scenario.beta_list_db,
    sharing its draw. Every process builds the statics and imports
    numpy.random before its first trial (`_before_trials`). Output is
    bit-identical for any worker count: each trial is a pure function of
    its coordinates, and the pool returns results in job order.
    """
    trials, job = range(scenario.trials), partial(_every_beta, scenario)
    if scenario.workers == 1:
        _before_trials(scenario)
        rows = list(map(job, trials))
    else:
        workers = min(scenario.workers, scenario.trials)  # each one builds the statics
        with ProcessPoolExecutor(max_workers=workers, initializer=_before_trials,
                                 initargs=(scenario,)) as ex:
            rows = list(ex.map(job, trials))
    return [r for per_beta in zip(*rows) for r in per_beta]


def _before_trials(scenario):
    """A campaign process's set-up: the statics, then numpy.random, which numpy imports
    on first use (about 8 ms) and the rasters never use."""
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

# Points per block of the field kernel. It bounds the (points, Q)
# temporaries: on the reference RIS, a process that draws a level-4 heatmap
# peaks at 87, 104 and 134 MB at 32, 64 and 128 points per block, and all
# three take 2.3-3.9 s, the same within the noise of a 2-core host.
_FIELD_CHUNK = 64


def _field_snr_db(scenario, points, phasors):
    """Point-source illumination SNR in dB of each profile at each point, shape (P, K).

    points is (P, 3); phasors is (K, Q), one profile exp(j*omega) per row, as
    `codebook.cell_phasors` builds them. The BS is a point source at p_i, and
    each entry is 10*log10(P_ref * (PL1 * PL2 * |grcs(p_i, p, omega)|)^2 / sigma2),
    with PL1 and PL2 the Friis amplitudes over the BS-RIS and RIS-point center
    distances. Points are evaluated _FIELD_CHUNK at a time; each block's path
    phasors exp(j*k*(|p_i - p_n| + |p - p_n|)) carry both legs, so the
    profiles are read as given.
    """
    geom = scenario.ris_geometry()
    lam = scenario.lambda_m
    k = 2.0 * np.pi / lam
    g = unit_cell_factor(geom, lam)
    p_i = np.asarray(scenario.bs_center, dtype=float)
    p_ris = np.asarray(scenario.ris_center, dtype=float)
    pn = geom.element_positions()
    pl1 = free_space_amplitude(float(np.linalg.norm(p_i - p_ris)), lam)
    d_i = distance(p_i, pn)

    out = np.empty((len(points), len(phasors)))
    for s in range(0, len(points), _FIELD_CHUNK):
        p_r = points[s:s + _FIELD_CHUNK]
        d = distance(p_r[:, None, :], pn[None, :, :])
        d += d_i
        mags = np.abs(cis(k * d) @ phasors.T) * g
        pl2 = free_space_amplitude(distance(p_r, p_ris), lam)
        out[s:s + _FIELD_CHUNK] = 10.0 * np.log10(
            scenario.illum_reference_power_w * (pl1 * pl2[:, None] * mags) ** 2 / scenario.sigma2
        )
    return out


def focusing_cut(scenario, axis, half_range_m=8.0, steps=801):
    """SNR vs displacement from the blockage center under full focusing.

    The RIS focuses on p_b; the observation point moves along the chosen
    axis over steps >= 2 points. Returns (displacements, snr_db), and a
    ValueError if a range too large for floats makes any of them not finite.
    """
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    if steps < 2 or not 0 < half_range_m < np.inf:
        raise ValueError(f"focus cut needs steps >= 2 and a finite half range > 0, "
                         f"got steps={steps}, half range={half_range_m} m")
    p_b = np.asarray(scenario.blockage_center, dtype=float)
    omega = focusing_phases(scenario.bs_center, p_b, scenario.ris_geometry(), scenario.lambda_m)
    unit = np.array([1.0, 0, 0]) if axis == "x" else np.array([0, 1.0, 0])
    with np.errstate(all="ignore"):  # overflows are rejected below
        deltas = np.linspace(-half_range_m, half_range_m, steps)
        snr = _field_snr_db(scenario, p_b + deltas[:, None] * unit, cis(omega)[None, :])[:, 0]
    if not (np.isfinite(deltas).all() and np.isfinite(snr).all()):
        raise ValueError(f"focus cut: half range {half_range_m} m gives non-finite points or SNRs")
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
    and their pointwise-max composite.
    """
    levels, *args = scenario._codebook_args()
    if not 0 <= level_index < len(levels):
        raise ValueError(f"level_index {level_index} out of range 0..{len(levels) - 1}")
    shape = levels[level_index]  # args is (alpha, area, RIS geometry, p_i, lambda_m)
    level = cell_phasors(shape, *args, args[2].element_positions(), list(np.ndindex(*shape)))
    n = scenario.illum_grid

    p_b = np.asarray(scenario.blockage_center, dtype=float)
    xs = p_b[0] + np.linspace(-scenario.blockage_r_x / 2, scenario.blockage_r_x / 2, n)
    ys = p_b[1] + np.linspace(-scenario.blockage_r_y / 2, scenario.blockage_r_y / 2, n)
    grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")
    points = np.column_stack([grid_x.ravel(), grid_y.ravel(), np.full(n * n, p_b[2])])
    flat = _field_snr_db(scenario, points, level)
    per_cell = flat.T.reshape(*shape, n, n)
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
