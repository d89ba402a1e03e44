"""Fite-type zero-spacing bounds for sequential fractional differential
equations.

The package solves the weakly singular Volterra system equivalent to
D^alpha(D^alpha f) + P f = 0 with alpha in (1/2, 1), locates zeros of the
solution and of its fractional derivative, computes the explicit constant
chain behind the lower bound on the interval length, and sweeps scenario
grids to confirm that no numerical counterexample to the bound exists.
"""

from .errors import AuditFailure, ConfigError, ConvergenceError
from .specfn import beta_fn, gamma_fn
from .weighted import (GradedGrid, Order, WeightedFn, build_grid, eval_reg,
                       from_samples)
from .rlops import kernel_integral, kernel_matrix
from .sfde import SolveReport, residual, solve_fite
from .zeros import find_zeros, first_zero_pair
from .bounds import (AuditReport, BoundReport, audit_estimates,
                     best_min_length, big_C, big_D, big_E, bound_report,
                     fite_lhs, fite_rhs, holder_params, min_length, small_c)
from .verify import (CellReport, CoefficientSpec, Scenario, SweepReport,
                     SweepSpec, run_scenario, sweep)

__version__ = "0.1.0"

__all__ = [
    "AuditFailure", "AuditReport", "BoundReport", "CellReport",
    "CoefficientSpec", "ConfigError", "ConvergenceError", "GradedGrid",
    "Order", "Scenario", "SolveReport", "SweepReport", "SweepSpec",
    "WeightedFn", "audit_estimates", "best_min_length", "beta_fn",
    "big_C", "big_D", "big_E", "bound_report", "build_grid", "eval_reg",
    "find_zeros", "first_zero_pair", "fite_lhs", "fite_rhs",
    "from_samples", "gamma_fn", "holder_params", "kernel_integral",
    "kernel_matrix", "min_length", "residual",
    "run_scenario", "small_c", "solve_fite", "sweep",
]
