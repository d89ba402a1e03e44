"""Scenario harness: solve, locate zeros, check the bound, sweep.

A scenario solves the equation D^alpha(D^alpha f) + P f = 0 on [a, c],
looks for a zero of f and a zero of D^alpha f inside the window [b, c],
and, when such a pair exists, evaluates the Fite-type inequality with
m = max(1, sup P) and length c - a at the optimized exponent. The
possible verdicts:

    BOUND_HOLDS     zero pair found and the inequality is satisfied
    NO_ZERO_PAIR    hypothesis not met (nothing to check)
    COUNTEREXAMPLE  zero pair found, inequality fails
    SOLVER_FAILED   the solve failed (sweeps keep going)

The initial data are never (0, 0) and the equation is linear and
homogeneous, so every solved scenario is a nontrivial solution. The
bound being a proved statement, any COUNTEREXAMPLE is evidence of an
implementation bug; the sweep exists to hunt for exactly that.
"""

from __future__ import annotations

import copy
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from itertools import product

import numpy as np
from numpy.polynomial import polynomial as npoly

from .bounds import best_min_length, fite_lhs, fite_rhs
from .errors import ConfigError, ConvergenceError
from .rlops import node_scale
from .sfde import SolveReport, solve_batch
from .weighted import GradedGrid, Order, build_grid
from .zeros import first_zero_pair

_MAX_N = 16383  # a plain bound; the kernel's blocks take 64 MiB at n = 16383
# Bytes a sweep may hold: it keeps every scenario to the end and solves one
# cell (the directions of one (alpha, P, L)) at a time.
_MAX_SWEEP_BYTES = 2 * 1024**3
# Bytes the process running a sweep keeps per scenario until it returns: the
# Scenario copy with its label and the VerifyReport with its zero pair, about
# 600 in one process; a pool's main process also holds the reports unpickled,
# about 1,360 at its peak (tracemalloc, 27 cells of 4,000 directions, n = 16).
_SCENARIO_BYTES = 1536
# Columns of n+1 doubles a cell's batched solve holds per direction: in
# _marching wf, wg, the 2-column history and the 2-column far-field
# accumulator of its blocks; in _defect the 2-column stack, its 2-column
# product and the two defects; the copies of f and g in the reports.
_COLUMNS_PER_DIRECTION = 14
# Bytes of Python objects a cell's solve holds per direction besides those
# columns: the SolveReport with its two WeightedFns and their array headers.
# A cell's solve peaks at about 610 bytes per direction at n = 2 (336 of them
# charged as columns) and 1,340 at n = 16 (tracemalloc, 4,000 directions).
_SOLVE_BYTES_PER_DIRECTION = 512

BOUND_HOLDS = "BOUND_HOLDS"
NO_ZERO_PAIR = "NO_ZERO_PAIR"
COUNTEREXAMPLE = "COUNTEREXAMPLE"
SOLVER_FAILED = "SOLVER_FAILED"
VERDICTS = (BOUND_HOLDS, NO_ZERO_PAIR, COUNTEREXAMPLE, SOLVER_FAILED)


# JSON value types of the config schema. Parsing is strict: a bool is not a
# number, an integer must be integral, and JSON ints go through float() for
# real fields, so a config echoes back with the values it was read as.

def _json(types, what, convert=None):
    def parse(v):
        if not isinstance(v, types) or isinstance(v, bool) and types is not bool:
            raise TypeError(f"must be {what}, got {v!r}")
        return convert(v) if convert else v
    return parse


def _integral(v) -> int:
    if v != int(v):
        raise TypeError(f"must be an integer, got {v!r}")
    return int(v)


_real = _json((int, float), "a number", float)
_int = _json((int, float), "an integer", _integral)
_bool = _json(bool, "true or false")
_list = _json((list, tuple), "a list")
_reals = _json((list, tuple), "a list of numbers", lambda v: tuple(map(_real, v)))


def _key(key: str, parse, default=MISSING):
    """A config field: its JSON key, the parser of its JSON value and its
    default (MISSING: the config must give the key)."""
    return field(default=default, metadata={"key": key, "parse": parse})


class _Config:
    """from_obj/to_obj for a dataclass whose _key fields, in field order,
    are the keys of its config object (named _WHERE in errors)."""

    @classmethod
    def from_obj(cls, obj, **overrides):
        """Parse, default and validate a config object; overrides that are
        not None replace its values. Every failure is a ConfigError naming
        the key."""
        if not isinstance(obj, dict):
            raise ConfigError(cls._WHERE, f"must be a JSON object, got {obj!r}")
        obj = {**obj, **{k: v for k, v in overrides.items() if v is not None}}
        keyed = [f for f in fields(cls) if "key" in f.metadata]
        known = [f.metadata["key"] for f in keyed]
        for key in obj:
            if key not in known:
                raise ConfigError(key, f"unknown key; expected one of {known}")
        values = {}
        for f in keyed:
            key = f.metadata["key"]
            if key in obj:
                try:
                    values[f.name] = f.metadata["parse"](obj[key])
                except ConfigError:
                    raise
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ConfigError(key, str(exc)) from None
            elif f.default is MISSING:
                raise ConfigError(key, "missing required field")
        return cls(**values)

    def to_obj(self) -> dict:
        """The config object of this instance; from_obj gives it back."""
        obj = {}
        for f in fields(self):
            if "key" not in f.metadata:
                continue
            value = getattr(self, f.name)
            if isinstance(value, Order):
                value = value.alpha
            elif isinstance(value, CoefficientSpec):
                value = value.to_obj()
            elif isinstance(value, tuple):
                value = list(value)
            obj[f.metadata["key"]] = value
        return obj


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
        make = {"const": lambda d: cls.const(_real(d)),
                "poly": lambda d: cls.poly(_reals(d)),
                "table": lambda d: cls.table(map(_reals, _list(d)))}
        if not isinstance(obj, dict) or len(obj) != 1 or next(iter(obj)) not in make:
            raise ValueError(
                "coefficient must be one of {'const': x}, {'poly': [...]}, "
                f"{{'table': [[t, v], ...]}}, got {obj!r}")
        (kind, data), = obj.items()
        try:
            return make[kind](data)
        except TypeError as exc:
            raise ValueError(f"{kind}: {exc}") from None

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

    def range_on(self, a: float, c: float) -> tuple[float, float]:
        """(min, max) over [a, c], exact: a piecewise linear table takes its
        extremes at its knots inside (a, c) or at a and c, a poly at a, at
        c or at a stationary point inside (candidates at the real parts of
        its derivative's roots; extra points in [a, c] cannot hurt).
        Raises ValueError if a table does not cover [a, c] or a value is
        not finite."""
        if self.kind == "table":
            lo, hi = self.data[0][0], self.data[-1][0]
            if lo > a or hi < c:
                raise ValueError(
                    f"coefficient table covers [{lo}, {hi}], needs [{a}, {c}]")
            t = np.array([a, *(s for s, _ in self.data if a < s < c), c])
        elif self.kind == "poly":
            u = np.empty(0)  # offsets t - a of the stationary points
            if len(self.data) > 2:
                slope = npoly.polyder(self.data)
                if not np.isfinite(slope).all():
                    raise ValueError(f"must be finite, derivative is {slope.tolist()}")
                u = npoly.polyroots(slope).real
            t = np.array([a, *(a + u[(u > 0.0) & (u < c - a)]), c])
        else:
            t = np.array([a, c])
        vals = self.as_callable(a)(t)
        lo, hi = float(np.min(vals)), float(np.max(vals))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"must be finite on [{a}, {c}], range is [{lo}, {hi}]")
        return lo, hi


def _check_direction(f_a: float, g_a: float) -> None:
    """The checks on a scenario's initial data: finite and nontrivial."""
    for name, value in (("f_a", f_a), ("g_a", g_a)):
        if not math.isfinite(value):
            raise ConfigError(name, f"must be finite, got {value!r}")
    if f_a == 0.0 and g_a == 0.0:
        raise ConfigError("f_a", "trivial data: (f_a, g_a) must not be (0, 0)")


def _range_of(name: str, spec: CoefficientSpec, a: float, c: float):
    """spec.range_on(a, c), with any error reported under the field name."""
    try:
        return spec.range_on(a, c)
    except ValueError as exc:
        raise ConfigError(name, str(exc)) from None


@dataclass(frozen=True)
class Scenario(_Config):
    """One solvable instance plus the window for the zero search. Its tol
    is read by no solve (the marching solve has no tolerance); it is
    checked to be > 0 and echoed, for the configs that carry it."""

    _WHERE = "config"

    order: Order = _key("alpha", lambda v: Order(_real(v)))
    a: float = _key("a", _real)
    c: float = _key("c", _real)
    p_coeff: CoefficientSpec = _key("P", CoefficientSpec.from_obj)
    b: float = _key("b", _real, None)  # None: a + 0.01 (c - a)
    f_a: float = _key("f_a", _real, 1.0)
    g_a: float = _key("g_a", _real, 0.0)
    n: int = _key("n", _int, 512)
    r: float = _key("grading", _real, 2.0)
    tol: float = _key("tol", _real, 1e-10)
    label: str = ""
    p_sup: float = field(init=False, repr=False, compare=False)
    grid: GradedGrid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.b is None:
            object.__setattr__(self, "b", self.a + 0.01 * (self.c - self.a))
        if self.n < 2:
            raise ConfigError("n", f"need at least 2 grid cells, got {self.n!r}")
        if self.n > _MAX_N:
            raise ConfigError("n", f"must be at most {_MAX_N}, got {self.n!r}")
        if not (self.r >= 1.0):
            raise ConfigError("grading", f"must be >= 1, got {self.r!r}")
        if not (self.tol > 0.0):
            raise ConfigError("tol", f"must be positive, got {self.tol!r}")
        for name in ("a", "b", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(name, f"must be finite, got {getattr(self, name)!r}")
        _check_direction(self.f_a, self.g_a)
        if not (self.a < self.b < self.c):
            raise ConfigError(
                "c" if self.a >= self.c else "b", "need 'a' < 'b' < 'c', got "
                f"a={self.a!r}, b={self.b!r}, c={self.c!r}")
        try:
            object.__setattr__(self, "grid", build_grid(self.a, self.c, self.n, self.r))
            node_scale(self.n, self.r)  # the kernel matrix's nodes j^r must not overflow
        except ValueError as exc:
            raise ConfigError("grading", f"{exc}; lower the grading or n") from None
        p_min, p_max = _range_of("P", self.p_coeff, self.a, self.c)
        if p_min < 0.0:
            raise ConfigError("P", f"must be nonnegative, min is {p_min!r}")
        object.__setattr__(self, "p_sup", p_max)

    @property
    def length(self) -> float:
        return self.c - self.a

    def with_direction(self, f_a: float, g_a: float, label: str = "") -> Scenario:
        """This scenario with initial data (f_a, g_a) and label; it shares
        the grid and P range validated here and checks only the new data."""
        _check_direction(f_a, g_a)
        other = copy.copy(self)
        for name, value in (("f_a", f_a), ("g_a", g_a), ("label", label)):
            object.__setattr__(other, name, value)
        return other

    def cells(self) -> tuple[tuple[Scenario]]:
        """A single scenario runs as a sweep of one cell of one."""
        return ((self,),)


@dataclass(frozen=True)
class VerifyReport:
    scenario: Scenario
    verdict: str
    residual: float = math.nan
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


def solve_cell(cell: tuple[Scenario, ...]) -> tuple[SolveReport, ...]:
    """Solve the scenarios of a cell, which differ only in f_a, g_a and
    label, in one batched solve on the graded grid they validated."""
    s = cell[0]
    if any(s.with_direction(c.f_a, c.g_a, c.label) != c for c in cell):
        raise ValueError("the scenarios of a cell may differ only in f_a, g_a and label")
    return solve_batch(s.p_coeff.as_callable(s.a), s.order, [c.f_a for c in cell],
                       [c.g_a for c in cell], s.grid)


def run_cell(cell: tuple[Scenario, ...], rhs_scale: float = 1.0) -> list[VerifyReport]:
    """Solve a cell (see solve_cell) once and classify each of its scenarios;
    the bound (m, p*, minimal length, lhs, rhs) is the cell's. A failed
    solve fails every scenario of the cell with the same detail.

    rhs_scale multiplies the bound's right side; it exists purely as a
    fault-injection hook for negative-path tests of the harness.
    """
    try:
        solves = solve_cell(cell)
    except ConvergenceError as exc:
        return [VerifyReport(scenario=c, verdict=SOLVER_FAILED, detail=str(exc))
                for c in cell]

    s = cell[0]
    m = max(1.0, s.p_sup)
    p_star, min_len = best_min_length(s.order, m)
    lhs = fite_lhs(s.order, p_star, m, s.length)
    rhs = fite_rhs(s.order) * rhs_scale
    reports = []
    for c, report in zip(cell, solves):
        pair = first_zero_pair(report.f, report.g, c.b, c.c)
        if pair is None:
            verdict = NO_ZERO_PAIR
        elif lhs >= rhs:
            verdict = BOUND_HOLDS
        else:
            verdict = COUNTEREXAMPLE
        reports.append(VerifyReport(
            scenario=c, verdict=verdict, residual=report.residual, zero_pair=pair,
            m=m, p_star=p_star, min_len=min_len, lhs=lhs, rhs=rhs))
    return reports


def run_scenario(s: Scenario, rhs_scale: float = 1.0) -> VerifyReport:
    """Solve one scenario and classify it: a cell of one."""
    return run_cell((s,), rhs_scale)[0]


@dataclass(frozen=True)
class SweepSpec(_Config):
    """Cartesian scenario grid; initial data are unit-circle directions."""

    _WHERE = "sweep"  # the object under a config's "sweep" key

    alphas: tuple[float, ...] = _key("alphas", _reals)
    p_infs: tuple[float, ...] = _key("p_infs", _reals)
    lengths: tuple[float, ...] = _key("lengths", _reals)
    directions: int = _key("directions", _int, 8)
    seed: int = _key("seed", _int, 0)
    a: float = _key("a", _real, 0.0)
    b_fraction: float = _key("b_fraction", _real, 0.01)
    n: int = _key("n", _int, 512)
    r: float = _key("grading", _real, 2.0)
    random_directions: bool = _key("random_directions", _bool, False)
    # ((alpha, P, L), validated scenario of that cell at direction 0)
    _cells: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("alphas", "p_infs", "lengths"):
            if not getattr(self, name):
                raise ConfigError(name, "must not be empty")
        if self.directions < 1:
            raise ConfigError("directions", f"must be >= 1, got {self.directions!r}")
        if self.seed < 0:
            raise ConfigError("seed", f"must be >= 0, got {self.seed!r}")
        if not 0.0 < self.b_fraction < 1.0:
            raise ConfigError("b_fraction",
                              f"must lie in (0, 1), got {self.b_fraction!r}")
        # The direction moves only (f_a, g_a) on the unit circle, so one
        # scenario per cell validates the grid and P, and the cell's
        # directions share them; errors name the sweep's key.
        cells = []
        for cell in product(self.alphas, self.p_infs, self.lengths):
            alpha, p_inf, length = cell
            try:
                cells.append((cell, Scenario(
                    order=Order(alpha), a=self.a, b=self.a + self.b_fraction * length,
                    c=self.a + length, p_coeff=CoefficientSpec.const(p_inf),
                    n=self.n, r=self.r)))
            except ConfigError as exc:
                key = {"alpha": "alphas", "P": "p_infs", "b": "lengths",
                       "c": "lengths"}.get(exc.field, exc.field)
                raise ConfigError(key, f"{exc.message} (alpha, P, L = {cell})") from None
        per = (len(cells) * _SCENARIO_BYTES + (self.n + 1) * 8 * _COLUMNS_PER_DIRECTION
               + _SOLVE_BYTES_PER_DIRECTION)
        if self.directions * per > _MAX_SWEEP_BYTES:
            raise ConfigError(
                "directions", f"a sweep of {len(cells)} cells of {self.directions} "
                f"directions needs {self.directions * per} bytes at n={self.n}, "
                f"above the {_MAX_SWEEP_BYTES}-byte cap "
                f"(directions <= {_MAX_SWEEP_BYTES // per})")
        object.__setattr__(self, "_cells", tuple(cells))

    def direction_angles(self) -> np.ndarray:
        if self.random_directions:
            rng = np.random.default_rng(self.seed)
            return rng.uniform(0.0, 2.0 * math.pi, self.directions)
        return 2.0 * math.pi * np.arange(self.directions) / self.directions

    def cells(self) -> list[tuple[Scenario, ...]]:
        """The scenarios, one per direction, grouped by (alpha, P, L) cell
        in sweep order."""
        angles = list(enumerate(self.direction_angles()))
        return [tuple(s.with_direction(math.cos(theta), math.sin(theta),
                                       f"alpha={alpha},P={p_inf},L={length},dir={k}")
                      for k, theta in angles)
                for (alpha, p_inf, length), s in self._cells]


def parse_config(obj, n=None, grading=None, seed=None) -> Scenario | SweepSpec:
    """{"sweep": {...}} is a SweepSpec, any other config a Scenario; n,
    grading and (for sweeps) seed override the config when not None."""
    if isinstance(obj, dict) and set(obj) == {"sweep"}:
        return SweepSpec.from_obj(obj["sweep"], n=n, grading=grading, seed=seed)
    return Scenario.from_obj(obj, n=n, grading=grading)


@dataclass(frozen=True)
class SweepReport:
    spec: Scenario | SweepSpec
    counts: dict[str, int]
    reports: tuple[VerifyReport, ...]
    counterexamples: tuple[VerifyReport, ...]
    min_ratio: float = math.nan  # smallest lhs/rhs among zero-pair scenarios

    @property
    def verdicts(self) -> tuple[str, ...]:
        return tuple(r.verdict for r in self.reports)


def sweep(spec: Scenario | SweepSpec, workers: int = 1,
          rhs_scale: float = 1.0) -> SweepReport:
    """Run every scenario of a parsed config (a Scenario is a sweep of one),
    one cell (the directions of one (alpha, P, L)) at a time; deterministic
    for a given spec and seed regardless of worker count (cell and scenario
    order are fixed up front). The pool has at most one worker per cell."""
    if not (math.isfinite(rhs_scale) and rhs_scale > 0.0):
        raise ConfigError("rhs_scale", f"must be finite and > 0, got {rhs_scale!r}")
    if workers < 1:
        raise ConfigError("workers", f"must be >= 1, got {workers!r}")
    cells = spec.cells()
    run = partial(run_cell, rhs_scale=rhs_scale)
    if workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
            done = list(pool.map(run, cells))
    else:
        done = list(map(run, cells))
    reports = [rep for cell in done for rep in cell]
    counts = {v: sum(rep.verdict == v for rep in reports) for v in VERDICTS}
    ratios = [rep.ratio for rep in reports if rep.zero_pair is not None
              and math.isfinite(rep.ratio)]
    return SweepReport(
        spec=spec,
        counts=counts,
        reports=tuple(reports),
        counterexamples=tuple(r for r in reports if r.verdict == COUNTEREXAMPLE),
        min_ratio=min(ratios) if ratios else math.nan,
    )
