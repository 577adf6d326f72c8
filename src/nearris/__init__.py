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
    far_field_distance,
    ris_from_aperture,
    wavelength,
)
from .channel import (
    ChannelSet,
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
from .codebook import (
    BlockageArea,
    CodebookLevel,
    HierarchicalCodebook,
    build_hierarchy,
    children,
    focusing_phases,
    grcs,
    mapping,
    unit_cell_factor,
    wide_illumination_phases,
)
from .beam_mgmt import (
    SearchTrace,
    best_index,
    bs_precoder_focus_ris,
    effective_cascade,
    hierarchical_search,
    mu_combiners,
    received_snr,
)
from .benchmarks import (
    SchemeResult,
    benchmark1_full_search,
    benchmark2_full_focusing,
    benchmark3_full_csi,
)
from .harness import (
    Aggregate,
    Scenario,
    TrialResult,
    aggregate,
    build_trial_channels,
    farfield_table,
    focusing_cut,
    heatmap,
    run_campaign,
    run_trial,
    sweep_beta,
)
