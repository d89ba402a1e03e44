"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """An iterative computation failed to reach its stopping criterion."""


class AuditFailure(RuntimeError):
    """A numerically audited inequality was violated.

    Carries the inequality label and the per-trial seed so the failing
    instance can be reproduced exactly.
    """

    def __init__(self, inequality: str, trial_seed: int, detail: str = ""):
        self.inequality = inequality
        self.trial_seed = trial_seed
        msg = f"inequality {inequality} violated (trial seed {trial_seed})"
        if detail:
            msg += ": " + detail
        super().__init__(msg)


class ConfigError(ValueError):
    """Invalid run configuration; `field` names the offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")
