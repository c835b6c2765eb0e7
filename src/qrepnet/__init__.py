"""Entanglement-routing simulator for repeater networks with mixed-quality nodes."""

from .fidelity import (
    MIN_LINK_FIDELITY,
    MIN_NOISE_RATE,
    NoiseClass,
    end_to_end_fidelity,
    iterate_swaps,
    swap_noise_factor,
    two_class_fidelity,
    werner_fidelity,
    werner_parameter,
)
from .topology import (
    CYLINDER,
    GRID,
    TOPOLOGIES,
    NetworkGraph,
    NodeKind,
    assign_classes,
    build_network,
    to_edge_list,
)
from .routing import (
    BlockReason,
    PathAllocation,
    RoutingRequest,
    WeightMapping,
    allocate_batch,
    noise_aware_mapping,
    noise_unaware_mapping,
    path_composition,
    shortest_path,
    shuffle_requests,
)
from .experiment import (
    AWARE,
    COARSE_XI_GRID,
    DEFAULT_ETA_L_VALUES,
    DEFAULT_F_BAR_VALUES,
    DEFAULT_SEED,
    MAPPINGS,
    UNAWARE,
    BlockingPoint,
    RequestOutcome,
    ExperimentConfig,
    SampleStats,
    SweepSummary,
    ThetaProfile,
    TrialRecord,
    XiSummary,
    default_xi_grid,
    draw_pairing,
    run_trial,
    study_blocking,
    study_noise_awareness,
    sweep_eta_l,
    sweep_xi,
)

__version__ = "0.1.0"
