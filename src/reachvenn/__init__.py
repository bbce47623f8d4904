"""Reach Venn diagram estimation: consistency checks, LP bounds, and a
conditional-independence model for the reach of unobserved subsets.

The names below are the public API (README.md, "Public API").  The fit and
LP machinery stays in its modules and is imported from them, for example
``from reachvenn.model import fit_segments``.
"""

from .bounds import (
    BoundsSolver,
    ConsistencyReport,
    PrefixBound,
    check_consistency,
    incremental_curve_bounds,
    repair_dataset,
    subset_bounds,
)
from .core import (
    BoundInterval,
    InconsistencyError,
    ReachDataset,
    ReachObservation,
    ReachVennError,
    RegionAllocation,
    SubsetMask,
    UnavailableError,
    basic_masks,
    enumerate_masks,
)
from .experiment import ExperimentReport, run_experiment
from .model import CiModel, estimate_universe
from .pipeline import (
    Estimate,
    EstimateOptions,
    SelectionState,
    Session,
    d_grid,
    error_bar,
    estimate_subset,
    select_next_point,
    tune_d,
)
from .synth import (
    GeneratorSpec,
    GroundTruth,
    add_measurement_noise,
    generate,
    independent_truth,
    true_dataset,
    true_reach,
)

__all__ = [
    "BoundInterval",
    "BoundsSolver",
    "CiModel",
    "ConsistencyReport",
    "Estimate",
    "EstimateOptions",
    "ExperimentReport",
    "GeneratorSpec",
    "GroundTruth",
    "InconsistencyError",
    "PrefixBound",
    "ReachDataset",
    "ReachObservation",
    "ReachVennError",
    "RegionAllocation",
    "SelectionState",
    "Session",
    "SubsetMask",
    "UnavailableError",
    "add_measurement_noise",
    "basic_masks",
    "check_consistency",
    "d_grid",
    "enumerate_masks",
    "error_bar",
    "estimate_subset",
    "estimate_universe",
    "generate",
    "incremental_curve_bounds",
    "independent_truth",
    "repair_dataset",
    "run_experiment",
    "select_next_point",
    "subset_bounds",
    "true_dataset",
    "true_reach",
    "tune_d",
]
