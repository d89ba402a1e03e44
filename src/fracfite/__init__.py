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
from .sfde import SolveReport
from .zeros import first_zero_pair
from .bounds import (AuditReport, audit_estimates, best_min_length, big_C,
                     big_D, big_E, fite_lhs, fite_rhs, holder_params,
                     min_length, small_c)
from .verify import (CellReport, CoefficientSpec, Scenario, SweepReport,
                     SweepSpec, sweep)

__version__ = "0.1.0"

__all__ = [
    "AuditFailure", "AuditReport", "CellReport", "CoefficientSpec",
    "ConfigError", "ConvergenceError", "GradedGrid", "Order", "Scenario",
    "SolveReport", "SweepReport", "SweepSpec", "WeightedFn",
    "audit_estimates", "best_min_length", "beta_fn", "big_C", "big_D",
    "big_E", "build_grid", "eval_reg", "first_zero_pair", "fite_lhs",
    "fite_rhs", "from_samples", "gamma_fn", "holder_params",
    "kernel_integral", "kernel_matrix", "min_length", "small_c", "sweep",
]
