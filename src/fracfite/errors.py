"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """A solve failed: a singular marching step, non-finite samples, a
    non-finite residual, or (in the test oracle's Picard iteration) an
    iteration that did not reach its stopping criterion."""


class AuditFailure(RuntimeError):
    """A numerically audited inequality was violated.

    Carries the inequality label, the audit seed and the failing trial:
    trial k of seed S draws from window k of default_rng(S)'s doubles, so
    `fracfite audit --seed S --trials k+1` (same alpha and p) reproduces it.
    """

    def __init__(self, inequality: str, seed: int, trial: int, detail: str = ""):
        self.inequality = inequality
        self.seed = seed
        self.trial = trial
        msg = (f"inequality {inequality} violated at trial {trial} of seed {seed}"
               f" (reproduce with --seed {seed} --trials {trial + 1})")
        if detail:
            msg += ": " + detail
        super().__init__(msg)


class ConfigError(ValueError):
    """Invalid run configuration; `field` names the offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")
