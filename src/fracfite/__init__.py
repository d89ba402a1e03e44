"""Fite-type zero-spacing bounds for sequential fractional differential
equations.

The package solves the weakly singular Volterra system equivalent to
D^alpha(D^alpha f) + P f = 0 with alpha in (1/2, 1), locates zeros of the
solution and of its fractional derivative, computes the explicit constant
chain behind the lower bound on the interval length, and sweeps scenario
grids to confirm that no numerical counterexample to the bound exists.
"""

from .errors import AuditFailure, ConfigError, ConvergenceError
from .specfn import beta_fn, gamma_fn, log_gamma
from .weighted import (GradedGrid, Order, WeightedFn, build_grid, eval_raw,
                       eval_reg, from_callable, from_samples, norm_full,
                       norm_window)
from .rlops import kernel_integral, kernel_matrix, q_operator
from .sfde import (CoefficientSet, SolveReport, residual, solve_fite,
                   solve_relax_osc, solve_system)
from .zeros import ZeroSet, find_zeros, first_zero_pair, zero_set
from .bounds import (AuditReport, BoundReport, ConstantChain, HolderParams,
                     audit_estimates, best_min_length, big_C, big_D, big_E,
                     bound_report, constant_chain, fite_lhs, fite_rhs,
                     holder_params, min_length, small_c)
from .verify import (CoefficientSpec, Scenario, SweepReport, SweepSpec,
                     VerifyReport, run_scenario, sweep)

__version__ = "0.1.0"

__all__ = [
    "AuditFailure", "AuditReport", "BoundReport", "CoefficientSet",
    "CoefficientSpec", "ConfigError", "ConstantChain", "ConvergenceError",
    "GradedGrid", "HolderParams", "Order", "Scenario", "SolveReport",
    "SweepReport", "SweepSpec", "VerifyReport", "WeightedFn", "ZeroSet",
    "audit_estimates", "best_min_length", "beta_fn", "big_C", "big_D",
    "big_E", "bound_report", "build_grid", "constant_chain", "eval_raw", "eval_reg", "find_zeros",
    "first_zero_pair", "fite_lhs", "fite_rhs", "from_callable", "from_samples",
    "gamma_fn", "holder_params", "kernel_integral", "kernel_matrix",
    "log_gamma", "min_length", "norm_full", "norm_window", "q_operator",
    "residual", "run_scenario", "small_c", "solve_fite", "solve_relax_osc",
    "solve_system", "sweep", "zero_set",
]
