"""Numerical laboratory for 2D inhomogeneous incompressible MHD boundary
layers: weighted conormal norms, calculus-inequality checks, compatibility
sources, a semi-implicit solver with runtime monitors, good-unknown
cancellation diagnostics, energy functionals, and trajectory experiments.

The symbolic helpers, blmhd.manufactured.ManufacturedSolution and
blmhd.experiments.matching_check, need the optional sympy and are not
re-exported here, so that importing the package does not load sympy.
"""

__version__ = "0.1.0"

from .cancellation import (
    GoodUnknowns,
    HFloorError,
    cancellation_residual,
    good_unknowns,
    norm_equivalence_check,
)
from .config import ConfigError, RunConfig, load_config, parse_config
from .energy import EnergyReport, instantaneous_functionals, trajectory_report
from .experiments import (
    DiffGoodUnknowns,
    StabilityResult,
    SweepResult,
    diff_good_unknowns,
    eps_sweep,
    stability_pair,
)
from .grid import Field, GridError, GridSpec, field_from_function, zero_field
from .inequalities import (
    HeatProblem,
    InequalityReport,
    hardy_check,
    heat_bound_check,
    heat_solve,
    moser_check,
    sobolev_check,
)
from .io import RunManifest, read_snapshot, write_csv, write_json, write_snapshot
from .norms import NormSpec, b_norms, conormal_linf, conormal_norm, weighted_l2, weighted_linf
from .pde import DensityFloorError, Physics, TimeTower, pde_rhs, time_derivative_via_pde
from .solver import (
    MonitorStatus,
    SolverConfig,
    SolverError,
    Trajectory,
    monitor,
    pde_residual,
    run,
    step,
)
from .sources import SourceBundle, bootstrap_time_derivatives
from .state import MultiIndex, State, initial_state

__all__ = [
    "ConfigError",
    "DensityFloorError",
    "DiffGoodUnknowns",
    "EnergyReport",
    "Field",
    "GoodUnknowns",
    "GridError",
    "GridSpec",
    "HFloorError",
    "HeatProblem",
    "InequalityReport",
    "MonitorStatus",
    "MultiIndex",
    "NormSpec",
    "Physics",
    "RunConfig",
    "RunManifest",
    "SolverConfig",
    "SolverError",
    "SourceBundle",
    "StabilityResult",
    "State",
    "SweepResult",
    "TimeTower",
    "Trajectory",
    "b_norms",
    "bootstrap_time_derivatives",
    "cancellation_residual",
    "conormal_linf",
    "conormal_norm",
    "diff_good_unknowns",
    "eps_sweep",
    "field_from_function",
    "good_unknowns",
    "hardy_check",
    "heat_bound_check",
    "heat_solve",
    "initial_state",
    "instantaneous_functionals",
    "load_config",
    "monitor",
    "moser_check",
    "norm_equivalence_check",
    "parse_config",
    "pde_residual",
    "pde_rhs",
    "read_snapshot",
    "run",
    "sobolev_check",
    "stability_pair",
    "step",
    "time_derivative_via_pde",
    "trajectory_report",
    "weighted_l2",
    "weighted_linf",
    "write_csv",
    "write_json",
    "write_snapshot",
    "zero_field",
]
