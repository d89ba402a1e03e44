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

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from itertools import groupby, product

import numpy as np
from numpy.polynomial import polynomial as npoly

from .bounds import best_min_length, fite_lhs, fite_rhs
from .errors import ConfigError, ConvergenceError
from .rlops import node_scale
from .sfde import solve_cells
from .weighted import GradedGrid, Order, build_grid, from_samples, interpolate
from .zeros import first_zero_pair

_MAX_N = 16383  # a plain bound; the kernel's blocks take 64 MiB at n = 16383
# Plain bounds on a sweep, which holds at most 2 GiB within them at n = _MAX_N:
_MAX_DIRECTIONS = 512  # a cell's solve and search, 83 bytes per direction and node
_MAX_CELLS = 2048  # each cell keeps its validated grid, 129 KiB at n = _MAX_N
_MAX_MARCH = 64  # cells per march; a group holds 198 bytes per cell and node
_MAX_SCENARIOS = 2**17  # cells x directions; each is kept, 5.2 KiB in `verify`

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
    def from_obj(cls, obj, n=None):
        """Parse, default and validate a config object; n, when not None,
        replaces its "n". Every failure is a ConfigError naming the key."""
        if not isinstance(obj, dict):
            raise ConfigError(cls._WHERE, f"must be a JSON object, got {obj!r}")
        if n is not None:
            obj = {**obj, "n": n}
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
        if not all(math.isfinite(x) for p in pts for x in p):
            raise ValueError("table knots and values must be finite")
        # a gap that overflows would make the interpolant constant on it
        if not all(0.0 < t2 - t1 < math.inf for (t1, _), (t2, _) in zip(pts, pts[1:])):
            raise ValueError("table abscissae must be strictly increasing, "
                             "with finite gaps")
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
        """The coefficient as a function of a node array, as sfde takes it;
        a constant is the polynomial of degree 0."""
        if self.kind != "table":
            coeffs = self.data
            return lambda t: sum(ck * (t - a) ** k for k, ck in enumerate(coeffs))
        ts, vs = np.array(self.data).T
        return lambda t: interpolate(ts, vs, t)

    def range_on(self, a: float, c: float) -> tuple[float, float]:
        """(min, max) over [a, c], exact: a piecewise linear table takes its
        extremes at its knots inside (a, c) or at a and c, a poly at a, at
        c or at a stationary point inside (candidates at the real parts of
        its derivative's roots; extra points in [a, c] cannot hurt).
        Raises ValueError if a table does not cover [a, c], or a value or
        a stationary point is not finite."""
        if self.kind == "table":
            lo, hi = self.data[0][0], self.data[-1][0]
            if lo > a or hi < c:
                raise ValueError(
                    f"coefficient table covers [{lo}, {hi}], needs [{a}, {c}]")
            t = np.array([a, *(s for s, _ in self.data if a < s < c), c])
        else:  # a poly; a const is the poly of degree 0
            u = np.empty(0)  # offsets t - a of the stationary points
            if len(self.data) > 2:
                with np.errstate(all="ignore"):  # overflows are checked below
                    slope = npoly.polyder(self.data)
                    if not np.isfinite(slope).all():
                        raise ValueError(f"must be finite, derivative is {slope.tolist()}")
                    try:  # a root that overflows to +-inf lies outside (0, c - a)
                        u = npoly.polyroots(slope).real
                    except np.linalg.LinAlgError:  # its companion matrix overflows
                        raise ValueError("its stationary points are not finite, "
                                         f"derivative is {slope.tolist()}") from None
            t = np.array([a, *(a + u[(u > 0.0) & (u < c - a)]), c])
        with np.errstate(all="ignore"):  # a non-finite value is checked below
            vals = self.as_callable(a)(t)
        lo, hi = float(np.min(vals)), float(np.max(vals))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"must be finite on [{a}, {c}], range is [{lo}, {hi}]")
        return lo, hi


@dataclass(frozen=True)
class Scenario(_Config):
    """One solvable instance plus the window for the zero search. Its tol
    is read by no solve (the marching solve has no tolerance): it is checked
    to be finite and > 0 and echoed, and the key stays because the echo is
    read (perfbench/worker.py's solve_large check wants residual <= 10 tol)."""

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
    p_sup: float = field(init=False, repr=False, compare=False)
    grid: GradedGrid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("a", "b", "c", "f_a", "g_a"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(name, f"must be finite, got {value!r}")
        if not math.isfinite(self.c - self.a):
            raise ConfigError("c", f"the length c - a must be finite, got "
                              f"a={self.a!r}, c={self.c!r}")
        if self.b is None:
            object.__setattr__(self, "b", self.a + 0.01 * (self.c - self.a))
        if self.n < 2:
            raise ConfigError("n", f"need at least 2 grid cells, got {self.n!r}")
        if self.n > _MAX_N:
            raise ConfigError("n", f"must be at most {_MAX_N}, got {self.n!r}")
        if not (self.r >= 1.0):
            raise ConfigError("grading", f"must be >= 1, got {self.r!r}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ConfigError("tol", f"must be finite and positive, got {self.tol!r}")
        if self.f_a == 0.0 and self.g_a == 0.0:
            raise ConfigError("f_a", "trivial data: (f_a, g_a) must not be (0, 0)")
        if not (self.a < self.b < self.c):
            raise ConfigError(
                "c" if self.a >= self.c else "b", "need 'a' < 'b' < 'c', got "
                f"a={self.a!r}, b={self.b!r}, c={self.c!r}")
        try:
            object.__setattr__(self, "grid", build_grid(self.a, self.c, self.n, self.r))
            node_scale(self.n, self.r)  # the kernel matrix's nodes j^r must not overflow
        except ValueError as exc:
            raise ConfigError("grading", f"{exc}; lower the grading or n") from None
        try:
            p_min, p_max = self.p_coeff.range_on(self.a, self.c)
        except ValueError as exc:
            raise ConfigError("P", str(exc)) from None
        if p_min < 0.0:
            raise ConfigError("P", f"must be nonnegative, min is {p_min!r}")
        object.__setattr__(self, "p_sup", p_max)

    @property
    def length(self) -> float:
        return self.c - self.a

    def cells(self) -> tuple[Cell]:
        """A single scenario runs as a sweep of one cell of one direction."""
        return ((self, ((self.f_a, self.g_a, ""),)),)


# one validated scenario and its directions (f_a, g_a, label), which share it
Cell = tuple[Scenario, tuple[tuple[float, float, str], ...]]


@dataclass(frozen=True)
class CellReport:
    """One cell's run: its validated Scenario and directions (f_a, g_a,
    label), per direction the residual and first zero pair, and the cell's
    bound. A failed solve keeps its detail, NaN residuals and no pairs."""

    scenario: Scenario
    directions: tuple[tuple[float, float, str], ...]
    residuals: tuple[float, ...]
    zero_pairs: tuple[tuple[float, float] | None, ...]
    m: float = math.nan
    p_star: float = math.nan
    min_len: float = math.nan
    lhs: float = math.nan
    rhs: float = math.nan
    detail: str | None = None  # the failed solve's message; None when solved

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs else math.nan

    @property
    def verdicts(self) -> tuple[str, ...]:
        """Each direction's verdict (see the module docstring)."""
        if self.detail is not None:
            return (SOLVER_FAILED,) * len(self.directions)
        paired = BOUND_HOLDS if self.lhs >= self.rhs else COUNTEREXAMPLE
        return tuple(NO_ZERO_PAIR if pair is None else paired for pair in self.zero_pairs)


def _problem(cell: Cell):
    """A cell as sfde solves it: (P, f_a, g_a, grid) of its directions."""
    s, directions = cell
    f_a, g_a, _ = zip(*directions)
    return s.p_coeff.as_callable(s.a), f_a, g_a, s.grid


def run_group(cells: list[Cell]) -> list[CellReport]:
    """Solve cells that share (order, n, r) in one march (sfde.solve_cells),
    then report each cell from one zero search over its columns
    (zeros.first_zero_pair) and one bound. A cell whose solve fails is
    reported with the detail its own solve gives."""
    order = cells[0][0].order
    if any(s.order != order for s, _ in cells):
        raise ValueError("the cells of one march need one order")
    reports = []
    for (s, directions), solved in zip(cells, solve_cells(order, map(_problem, cells))):
        if isinstance(solved, ConvergenceError):
            k = len(directions)
            reports.append(CellReport(s, directions, (math.nan,) * k, (None,) * k,
                                      detail=str(solved)))
            continue
        wf, wg, res = solved
        pairs = first_zero_pair(from_samples(wf, order.gamma, s.grid),
                                from_samples(wg, order.gamma, s.grid), s.b, s.c)
        m = max(1.0, s.p_sup)
        p_star, min_len = best_min_length(s.order, m)
        reports.append(CellReport(
            s, directions, tuple(map(float, res)), tuple(pairs), m, p_star, min_len,
            fite_lhs(s.order, p_star, m, s.length), fite_rhs(s.order)))
    return reports


def run_scenario(s: Scenario) -> CellReport:
    """Solve one scenario and report it: its cell of one direction."""
    return run_group(s.cells())[0]


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
        if not 1 <= self.directions <= _MAX_DIRECTIONS:
            raise ConfigError("directions", f"must lie in [1, {_MAX_DIRECTIONS}], "
                              f"got {self.directions!r}")
        count = len(self.alphas) * len(self.p_infs) * len(self.lengths)
        if count > _MAX_CELLS:
            raise ConfigError("sweep", f"alphas x p_infs x lengths must be at most "
                              f"{_MAX_CELLS} cells, got {count}")
        if count * self.directions > _MAX_SCENARIOS:
            raise ConfigError("directions", f"{count} cells of {self.directions} "
                              f"directions exceed {_MAX_SCENARIOS} scenarios")
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
        object.__setattr__(self, "_cells", tuple(cells))

    def direction_angles(self) -> np.ndarray:
        if self.random_directions:
            rng = np.random.default_rng(self.seed)
            return rng.uniform(0.0, 2.0 * math.pi, self.directions)
        return 2.0 * math.pi * np.arange(self.directions) / self.directions

    def cells(self) -> list[Cell]:
        """One cell per (alpha, P, L), in sweep order: its validated
        scenario and its directions, one per angle."""
        angles = list(enumerate(self.direction_angles()))
        return [(s, tuple((math.cos(theta), math.sin(theta),
                           f"alpha={alpha},P={p_inf},L={length},dir={k}")
                          for k, theta in angles))
                for (alpha, p_inf, length), s in self._cells]


def parse_config(obj, n=None) -> Scenario | SweepSpec:
    """{"sweep": {...}} is a SweepSpec, any other config a Scenario; n
    overrides the config's when not None."""
    if isinstance(obj, dict) and set(obj) == {"sweep"}:
        return SweepSpec.from_obj(obj["sweep"], n=n)
    return Scenario.from_obj(obj, n=n)


@dataclass(frozen=True)
class SweepReport:
    """A run's cells in sweep order; every tally derives from them."""

    spec: Scenario | SweepSpec
    cells: tuple[CellReport, ...]

    @property
    def verdicts(self) -> tuple[str, ...]:
        return tuple(v for cell in self.cells for v in cell.verdicts)

    @property
    def counts(self) -> dict[str, int]:
        return dict(zip(VERDICTS, map(self.verdicts.count, VERDICTS)))

    @property
    def counterexamples(self) -> tuple:  # (cell, direction) of each, in sweep order
        return tuple((cell, d) for cell in self.cells for d, v
                     in zip(cell.directions, cell.verdicts) if v == COUNTEREXAMPLE)

    @property
    def min_ratio(self) -> float:  # the least finite lhs/rhs of a cell with a zero pair
        return min((cell.ratio for cell in self.cells if math.isfinite(cell.ratio)
                    and any(pair is not None for pair in cell.zero_pairs)), default=math.nan)


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _groups(cells: list[Cell]) -> list[list[Cell]]:
    """The marches of a sweep: runs of consecutive cells that share (order,
    n, r), in sweep order, cut into groups of at most _MAX_MARCH cells."""
    groups = []
    for _, run in groupby(cells, key=lambda cell: (cell[0].order, cell[0].n, cell[0].r)):
        run = list(run)
        groups += [run[i:i + _MAX_MARCH] for i in range(0, len(run), _MAX_MARCH)]
    return groups


def sweep(spec: Scenario | SweepSpec, workers: int = 1) -> SweepReport:
    """Run every cell of a parsed config (a Scenario is a sweep of one), one
    group of cells (see _groups) per march; deterministic for a given spec
    and seed regardless of worker count (groups, cell and direction order
    are fixed up front). The pool has at most one worker per group and per
    CPU the process may run on; with one, the run stays in-process."""
    if workers < 1:
        raise ConfigError("workers", f"must be >= 1, got {workers!r}")
    groups = _groups(spec.cells())
    # the fork start method launches all max_workers processes at once
    workers = min(workers, len(groups), _cpu_count())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(run_group, groups))
    else:
        done = list(map(run_group, groups))
    return SweepReport(spec=spec, cells=tuple(rep for group in done for rep in group))
