"""Scalable-aperture array simulation and two-stage mixed-field localization.

A uniform linear array whose spacing scales by a software-controlled
factor is simulated with exact spherical-wavefront propagation and
configurable mutual coupling; estimators recover source angles and ranges
by combining a coupling-robust compressed-aperture MUSIC scan with an
extended-aperture joint refinement.  The harness turns scenarios described
in YAML into reproducible spectra, Monte-Carlo RMSE curves and
Cramer-Rao-bound overlays, all as CSV data files.
"""

__version__ = "0.1.0"

from .coupling import (
    CouplingModel,
    coupling_coefficient,
    coupling_matrix,
    decoupling_residual,
    gamma_matrix,
    selection_matrix,
)
from .crb import CrbResult, FisherBlock, crb, crb_for_scenario, fisher_information, steering_jacobian
from .estimators import (
    DegenerateSubspaceError,
    EstimatorSettings,
    LocalizationEstimate,
    SpectrumGrid,
    SubspaceDecomposition,
    UnderResolutionError,
    baseline_ff_music,
    decompose,
    find_spectrum_peaks,
    mc_music_refine,
    mc_music_spectrum,
    oracle_2d_music,
    pair_estimates,
    stage1_music,
    stage2_range_search,
    stage2_refine,
    two_stage_localize,
)
from .geometry import (
    ArrayConfig,
    SourceTruth,
    array_center,
    element_positions,
    esg_distance,
    esg_manifold_centered,
    esg_steering,
    esg_steering_centered,
    ff_steering,
    fresnel_lower_bound,
    fresnel_steering,
    rayleigh_distance,
)
from .harness import (
    Campaign,
    RmseRecord,
    ScenarioFileError,
    dump_scenario,
    load_scenario,
    run_campaign,
    run_single_shot,
    validate_scenario,
)
from .simulate import (
    CovarianceEstimate,
    Scenario,
    SnapshotBlock,
    draw_covariance,
    generate_snapshots_compressed,
    generate_snapshots_extended,
    load_snapshot_block,
    sample_covariance,
    save_snapshot_block,
)
