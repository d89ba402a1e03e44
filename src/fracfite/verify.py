"""Scenario harness: solve, locate zeros, check the bound, sweep.

A scenario solves the homogeneous equation D^alpha(D^alpha f) + P f = 0
(or its forced constant-coefficient variant) on [a, c], looks for a zero
of f and a zero of D^alpha f inside the window [b, c], and, when such a
pair exists, evaluates the Fite-type inequality with m = max(1, sup P)
and length c - a at the optimized exponent. The possible verdicts:

    BOUND_HOLDS     zero pair found and the inequality is satisfied
    NO_ZERO_PAIR    hypothesis not met (nothing to check)
    COUNTEREXAMPLE  zero pair from a nontrivial solution, inequality fails
    SOLVER_FAILED   the solve failed (sweeps keep going)

The bound being a proved statement, any COUNTEREXAMPLE is evidence of
an implementation bug; the sweep exists to hunt for exactly that.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bounds import best_min_length, bound_report
from .errors import ConvergenceError
from .sfde import (DEFAULT_MAX_ITER, DEFAULT_TOL, SCHEMES, SolveReport,
                   solve_fite, solve_relax_osc)
from .weighted import Order, build_grid, norm_full
from .zeros import first_zero_pair

_TRIVIAL_NORM = 1e-8

BOUND_HOLDS = "BOUND_HOLDS"
NO_ZERO_PAIR = "NO_ZERO_PAIR"
COUNTEREXAMPLE = "COUNTEREXAMPLE"
SOLVER_FAILED = "SOLVER_FAILED"
VERDICTS = (BOUND_HOLDS, NO_ZERO_PAIR, COUNTEREXAMPLE, SOLVER_FAILED)


@dataclass(frozen=True)
class CoefficientSpec:
    """Serializable coefficient: constant, polynomial in (t - a), or an
    interpolation table [[t, v], ...]."""

    kind: str
    data: tuple

    def __post_init__(self):
        if self.kind not in ("const", "poly", "table"):
            raise ValueError(f"unknown coefficient kind {self.kind!r}")

    @classmethod
    def const(cls, value: float) -> "CoefficientSpec":
        return cls("const", (float(value),))

    @classmethod
    def poly(cls, coeffs) -> "CoefficientSpec":
        return cls("poly", tuple(float(c) for c in coeffs))

    @classmethod
    def table(cls, points) -> "CoefficientSpec":
        pts = tuple((float(t), float(v)) for t, v in points)
        if len(pts) < 2:
            raise ValueError("table needs at least two points")
        if any(t2 <= t1 for (t1, _), (t2, _) in zip(pts, pts[1:])):
            raise ValueError("table abscissae must be strictly increasing")
        return cls("table", pts)

    @classmethod
    def from_obj(cls, obj) -> "CoefficientSpec":
        if not isinstance(obj, dict) or len(obj) != 1:
            raise ValueError(
                "coefficient must be one of {'const': x}, {'poly': [...]}, "
                "{'table': [[t, v], ...]}")
        kind, data = next(iter(obj.items()))
        if kind == "const":
            return cls.const(data)
        if kind == "poly":
            return cls.poly(data)
        if kind == "table":
            return cls.table(data)
        raise ValueError(f"unknown coefficient kind {kind!r}")

    def to_obj(self):
        if self.kind == "const":
            return {"const": self.data[0]}
        if self.kind == "poly":
            return {"poly": list(self.data)}
        return {"table": [list(p) for p in self.data]}

    def as_callable(self, a: float):
        """The coefficient as a function of a node array, as sfde takes it."""
        if self.kind == "const":
            v = self.data[0]
            return lambda t: np.full(np.shape(t), v)
        if self.kind == "poly":
            coeffs = self.data
            return lambda t: sum(ck * (t - a) ** k for k, ck in enumerate(coeffs))
        ts = np.asarray([p[0] for p in self.data])
        vs = np.asarray([p[1] for p in self.data])
        return lambda t: np.interp(t, ts, vs)

    def range_on(self, a: float, c: float, samples: int = 2049) -> tuple[float, float]:
        """(min, max) over [a, c]; exact for const, sampled otherwise.
        Raises ValueError if a table does not cover [a, c] or a value is
        not finite."""
        if self.kind == "table":
            lo, hi = self.data[0][0], self.data[-1][0]
            if lo > a or hi < c:
                raise ValueError(
                    f"coefficient table covers [{lo}, {hi}], needs [{a}, {c}]")
        vals = self.as_callable(a)(np.linspace(a, c, samples))
        lo, hi = float(np.min(vals)), float(np.max(vals))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"must be finite on [{a}, {c}], range is [{lo}, {hi}]")
        return lo, hi


def _range_of(name: str, spec: CoefficientSpec, a: float, c: float):
    """spec.range_on(a, c), with any error reported under the field name."""
    try:
        return spec.range_on(a, c)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class Scenario:
    """One solvable instance plus the window for the zero search."""

    order: Order
    a: float
    b: float
    c: float
    p_coeff: CoefficientSpec
    f_a: float
    g_a: float
    v_coeff: CoefficientSpec | None = None  # present => relaxation-oscillation
    n: int = 512
    r: float = 2.0
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    scheme: str = "marching"
    label: str = ""
    p_sup: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n: need at least 2 grid cells, got {self.n!r}")
        if not (self.r >= 1.0):
            raise ValueError(f"grading: must be >= 1, got {self.r!r}")
        if not (self.tol > 0.0):
            raise ValueError(f"tol: must be positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter: must be >= 1, got {self.max_iter!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme: must be one of {SCHEMES}, got {self.scheme!r}")
        for name in ("a", "b", "c", "f_a", "g_a"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be finite, got {getattr(self, name)!r}")
        if not (self.a < self.b < self.c):
            raise ValueError(
                f"need a < b < c, got a={self.a!r}, b={self.b!r}, c={self.c!r}")
        if self.f_a == 0.0 and self.g_a == 0.0:
            raise ValueError("trivial data: (f_a, g_a) must not be (0, 0)")
        p_min, p_max = _range_of("P", self.p_coeff, self.a, self.c)
        if p_min < 0.0:
            raise ValueError(f"coefficient P must be nonnegative, min is {p_min!r}")
        if self.v_coeff is not None:
            _range_of("V", self.v_coeff, self.a, self.c)
            if self.p_coeff.kind != "const":
                raise ValueError("forced scenarios require a constant P")
            if p_max <= 0.0:
                raise ValueError("forced scenarios require P > 0")
        object.__setattr__(self, "p_sup", p_max)

    @property
    def length(self) -> float:
        return self.c - self.a


@dataclass(frozen=True)
class VerifyReport:
    scenario: Scenario
    verdict: str
    residual: float = math.nan
    solver_method: str = ""
    zero_pair: tuple[float, float] | None = None
    m: float = math.nan
    p_star: float = math.nan
    min_len: float = math.nan
    lhs: float = math.nan
    rhs: float = math.nan
    detail: str = ""

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs else math.nan


def solve_scenario(s: Scenario) -> SolveReport:
    """Solve the scenario's equation on its graded grid."""
    grid = build_grid(s.a, s.c, s.n, s.r)
    if s.v_coeff is None:
        return solve_fite(s.p_coeff.as_callable(s.a), s.order, s.f_a, s.g_a,
                          grid, tol=s.tol, max_iter=s.max_iter, scheme=s.scheme)
    return solve_relax_osc(s.p_coeff.data[0], s.v_coeff.as_callable(s.a),
                           s.order, s.f_a, s.g_a, grid, tol=s.tol,
                           max_iter=s.max_iter, scheme=s.scheme)


def run_scenario(s: Scenario, rhs_scale: float = 1.0) -> VerifyReport:
    """Solve one scenario and classify it.

    rhs_scale multiplies the bound's right side; it exists purely as a
    fault-injection hook for negative-path tests of the harness.
    """
    try:
        report = solve_scenario(s)
    except (ConvergenceError, FloatingPointError, OverflowError) as exc:
        return VerifyReport(scenario=s, verdict=SOLVER_FAILED, detail=str(exc))

    m = max(1.0, s.p_sup)
    p_star, min_len = best_min_length(s.order, m)
    pair = first_zero_pair(report.f, report.g, s.b, s.c)
    bound = bound_report(s.order, p_star, m, s.length)
    lhs = bound.lhs
    rhs = bound.rhs * rhs_scale
    common = dict(scenario=s, residual=report.residual,
                  solver_method=report.method, zero_pair=pair, m=m,
                  p_star=p_star, min_len=min_len, lhs=lhs, rhs=rhs)
    if pair is None:
        return VerifyReport(verdict=NO_ZERO_PAIR, **common)
    if lhs >= rhs:
        return VerifyReport(verdict=BOUND_HOLDS, **common)
    if norm_full(report.f) > _TRIVIAL_NORM:
        return VerifyReport(verdict=COUNTEREXAMPLE, **common)
    return VerifyReport(verdict=NO_ZERO_PAIR, detail="trivial solution", **common)


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian scenario grid; initial data are unit-circle directions."""

    alphas: tuple[float, ...]
    p_infs: tuple[float, ...]
    lengths: tuple[float, ...]
    directions: int = 8
    seed: int = 0
    a: float = 0.0
    b_fraction: float = 0.01
    n: int = 512
    r: float = 2.0
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    random_directions: bool = False

    def __post_init__(self):
        for name in ("alphas", "p_infs", "lengths"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name}: must not be empty")
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name}: must be finite, got {list(values)!r}")
        if self.directions < 1:
            raise ValueError(f"directions: must be >= 1, got {self.directions!r}")
        if not 0.0 < self.b_fraction < 1.0:
            raise ValueError(f"b_fraction: must lie in (0, 1), got {self.b_fraction!r}")

    def direction_angles(self) -> np.ndarray:
        if self.random_directions:
            rng = np.random.default_rng(self.seed)
            return rng.uniform(0.0, 2.0 * math.pi, self.directions)
        return 2.0 * math.pi * np.arange(self.directions) / self.directions

    def scenarios(self) -> list[Scenario]:
        out = []
        for alpha in self.alphas:
            for p_inf in self.p_infs:
                for length in self.lengths:
                    for k, theta in enumerate(self.direction_angles()):
                        out.append(Scenario(
                            order=Order(alpha),
                            a=self.a,
                            b=self.a + self.b_fraction * length,
                            c=self.a + length,
                            p_coeff=CoefficientSpec.const(p_inf),
                            f_a=math.cos(theta), g_a=math.sin(theta),
                            n=self.n, r=self.r, tol=self.tol,
                            max_iter=self.max_iter,
                            label=f"alpha={alpha},P={p_inf},L={length},dir={k}",
                        ))
        return out


@dataclass(frozen=True)
class SweepReport:
    spec: SweepSpec
    counts: dict[str, int]
    reports: tuple[VerifyReport, ...]
    counterexamples: tuple[VerifyReport, ...]
    min_ratio: float = math.nan  # smallest lhs/rhs among zero-pair scenarios

    @property
    def verdicts(self) -> tuple[str, ...]:
        return tuple(r.verdict for r in self.reports)


def _run_one(args) -> VerifyReport:
    scenario, rhs_scale = args
    return run_scenario(scenario, rhs_scale=rhs_scale)


def sweep(spec: SweepSpec, workers: int = 1, rhs_scale: float = 1.0) -> SweepReport:
    """Run the full scenario grid; deterministic for a given spec and seed
    regardless of worker count (scenario order is fixed up front)."""
    scenarios = spec.scenarios()
    jobs = [(s, rhs_scale) for s in scenarios]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_one, jobs, chunksize=4))
    else:
        reports = [_run_one(j) for j in jobs]
    counts = {v: 0 for v in VERDICTS}
    for rep in reports:
        counts[rep.verdict] += 1
    ratios = [rep.ratio for rep in reports if rep.zero_pair is not None
              and math.isfinite(rep.ratio)]
    return SweepReport(
        spec=spec,
        counts=counts,
        reports=tuple(reports),
        counterexamples=tuple(r for r in reports if r.verdict == COUNTEREXAMPLE),
        min_ratio=min(ratios) if ratios else math.nan,
    )
