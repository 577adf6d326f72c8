"""Near-field RIS link simulator.

Hierarchical illumination codebooks for a reconfigurable intelligent
surface, low-overhead beam management, benchmark schemes, and a
reproducible Monte Carlo harness.
"""

__version__ = "0.1.0"

from .geometry import (
    C,
    PlanarArrayGeometry,
    RisGeometry,
    cis,
    distance,
    far_field_distance,
    ris_from_aperture,
    wavelength,
)
from .channel import (
    ChannelSet,
    LinkPaths,
    apply_beta,
    assemble_channel,
    blockage_attenuation,
    free_space_amplitude,
    generate_scatterers,
    noise_power,
)
from .codebook import (
    Codebook,
    children,
    focusing_phases,
    unit_cell_factor,
    wide_illumination_phases,
)
from .beam_mgmt import (
    SearchTrace,
    at_scale,
    basis_products,
    bs_precoder_focus_ris,
    cascade_basis,
    hierarchical_search,
    mu_combiners,
    received_snr,
)
from .benchmarks import (
    benchmark1_full_search,
    benchmark2_full_focusing,
    benchmark3_full_csi,
)
from .harness import (
    Aggregate,
    Scenario,
    TrialResult,
    aggregate,
    at_beta,
    build_trial_channels,
    draw_trial_links,
    farfield_table,
    focusing_cut,
    heatmap,
    run_campaign,
    run_trial,
    sweep_beta,
    trial_draw,
)
