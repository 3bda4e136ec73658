"""Closed-form solver and verification oracles for the 1-D damped wave equation.

The damped wave (telegrapher's) equation u_tt + k u_t = c^2 u_xx is solved
on the whole line through its explicit light-cone kernel: modified Bessel
convolutions for function data, exact atoms-plus-density mixed measures for
point-mass data.  Three oracles (finite differences, persistent random walk
Monte Carlo and the Duhamel fixed-point residual, which calls the solver)
cross-check every route, and a batch CLI exposes kernels, solutions,
measures and validation suites as CSV/JSON tables.
"""

from .errors import DomainError, UsageError
from .fields import (MassBreakdown, MixedMeasure, SampledField, SpaceGrid,
                     from_function, l2_norm, derivative_x, zeros)
from .kernel import MediumParams, fundamental_solution, time_derivative_regular
from .oracles import (DuhamelConfig, FDConfig, ValidationReport, WalkConfig,
                      binned_tv_distance, duhamel_residual, expected_never_flip,
                      fd_config_for, fd_solve, rel_l2_error, simulate_walk,
                      walk_config_for)
from .semigroup import NormRow, StatePair, evolve, norm_report
from .solver import (convolve_measure, point_source_solution, solve,
                     solve_rescaled, velocity)

__version__ = "0.1.0"

__all__ = [
    "DomainError", "DuhamelConfig", "FDConfig", "MassBreakdown",
    "MediumParams", "MixedMeasure", "NormRow", "SampledField", "SpaceGrid",
    "StatePair", "UsageError", "ValidationReport", "WalkConfig",
    "binned_tv_distance", "convolve_measure", "derivative_x",
    "duhamel_residual", "expected_never_flip", "fd_config_for", "fd_solve",
    "from_function", "fundamental_solution", "l2_norm", "norm_report",
    "point_source_solution", "rel_l2_error", "simulate_walk", "solve",
    "solve_rescaled", "time_derivative_regular", "evolve", "velocity",
    "walk_config_for", "zeros",
]
