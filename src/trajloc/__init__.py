"""Trajectory localization of moving DOA sources.

Grid-based (TL-CBF, TL-SBL, TL-OMP) and gridless (TL-SFW, TL-NOMP)
estimators for polynomial and bandlimited DOA trajectories observed by a
uniform linear array, with narrowband and wideband variants, plus the
metrics and Monte Carlo harness used to benchmark them.
"""

from .gridalgos import PeakSet, Spectrum, find_peaks, tl_cbf_spectrum, tl_omp, tl_sbl
from .gridless import RunTrace, tl_nomp, tl_sfw
from .grids import ParamGrid, build_grid, grid_point
from .harness import (
    ScenarioConfig,
    TrialReport,
    TrialRow,
    builtin_experiments,
    emit_results,
    load_config,
    run_scenario,
)
from .metrics import Assignment, detection_stats, min_grid_rmse, ospa_assign, trajectory_rmse
from .model import (
    ArrayConfig,
    GroundTruth,
    ObservationBlock,
    SourceEstimate,
    TrajectoryModel,
    TrajectoryParams,
    doa_at_snapshot,
    doas,
    steering_vector,
    synthesize_block,
    trajectory_steering_matrix,
)
from .optim import (
    Bounds,
    NumericsWarning,
    OptimReport,
    amplitudes_ls,
    joint_refine,
    maximize_local,
    newton_step,
    objective,
    objective_grad_hess,
)

__all__ = [
    "ArrayConfig",
    "Assignment",
    "Bounds",
    "GroundTruth",
    "NumericsWarning",
    "ObservationBlock",
    "OptimReport",
    "ParamGrid",
    "PeakSet",
    "RunTrace",
    "ScenarioConfig",
    "SourceEstimate",
    "Spectrum",
    "TrajectoryModel",
    "TrajectoryParams",
    "TrialReport",
    "TrialRow",
    "amplitudes_ls",
    "build_grid",
    "builtin_experiments",
    "detection_stats",
    "doa_at_snapshot",
    "doas",
    "emit_results",
    "find_peaks",
    "grid_point",
    "joint_refine",
    "load_config",
    "maximize_local",
    "min_grid_rmse",
    "newton_step",
    "objective",
    "objective_grad_hess",
    "ospa_assign",
    "run_scenario",
    "steering_vector",
    "synthesize_block",
    "tl_cbf_spectrum",
    "tl_nomp",
    "tl_omp",
    "tl_sbl",
    "tl_sfw",
    "trajectory_rmse",
    "trajectory_steering_matrix",
]
