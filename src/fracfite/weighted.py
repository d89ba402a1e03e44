"""Weighted-space function representation on graded grids.

A function f that is continuous on (a, c] but may blow up like
(t-a)^{-gamma} at the left endpoint is stored through its regularized
part W(t) = (t-a)^gamma f(t), together with the limit value
w_0 = lim_{t->a+} W(t). All norms and estimates downstream are phrased in
terms of W, which stays bounded; f itself is reconstructed on demand.

Grids are polynomially graded toward a, t_j = a + (c-a) (j/n)^r, so that
the (t-a)^{alpha-1} solution singularity is resolved by piecewise-linear
interpolation of W.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Order:
    """Fractional order alpha in (1/2, 1); the weight exponent is 1 - alpha."""

    alpha: float

    def __post_init__(self):
        if not (0.5 < self.alpha < 1.0):
            raise ConfigError("alpha", f"must lie in (1/2, 1), got {self.alpha!r}")

    @property
    def gamma(self) -> float:
        return 1.0 - self.alpha


@dataclass(frozen=True, eq=False)
class GradedGrid:
    """Nodes t_j = a + (c-a) (j/n)^r, j = 0..n; r = 1 is the uniform grid."""

    a: float
    c: float
    n: int
    r: float
    nodes: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.nodes.setflags(write=False)

    @property
    def length(self) -> float:
        return self.c - self.a


def graded_nodes(a, c, n: int, r: float) -> np.ndarray:
    """The nodes a + (c-a) (j/n)^r, j = 0..n, with the ends a and c exact.
    a and c are floats, or (T, 1) arrays for T intervals at once, whose
    nodes are the rows of a (T, n+1) array. Unchecked: build_grid validates."""
    j = np.arange(n + 1, dtype=float)
    nodes = a + (c - a) * (j / n) ** r
    nodes[..., :1], nodes[..., -1:] = a, c
    return nodes


def build_grid(a: float, c: float, n: int, r: float) -> GradedGrid:
    """Graded grid on [a, c] with n cells and grading exponent r >= 1."""
    if not (np.isfinite(a) and np.isfinite(c)) or a >= c:
        raise ValueError(f"invalid interval: need a < c, got a={a!r}, c={c!r}")
    if n < 2:
        raise ValueError(f"need n >= 2 cells, got {n!r}")
    if r < 1.0:
        raise ValueError(f"grading exponent must be >= 1, got {r!r}")
    nodes = graded_nodes(a, c, n, r)
    up = nodes[1:] > nodes[:-1]
    if not up.all():
        k = int(np.argmin(up))
        raise ValueError(
            f"nodes not strictly increasing: t_{k + 1} = t_{k} = "
            f"{float(nodes[k])!r} with n={n}, r={r} on [{a}, {c}]")
    return GradedGrid(a=float(a), c=float(c), n=int(n), r=float(r), nodes=nodes)


@dataclass(frozen=True, eq=False)
class WeightedFn:
    """Samples of the regularized part W(t_j) = (t_j-a)^gamma f(t_j).

    reg_samples[0] holds the limit value w_0 (= f_a for weight gamma); the
    interpolant of the samples is the piecewise-linear W used everywhere.
    Samples of shape (n+1, k) are k functions on one grid, one per column.
    """

    gamma: float
    grid: GradedGrid
    reg_samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"weight exponent must lie in [0, 1), got {self.gamma!r}")
        if self.reg_samples.shape[:1] != self.grid.nodes.shape:
            raise ValueError("one regularized sample per grid node required")
        if not np.all(np.isfinite(self.reg_samples)):
            raise ValueError("regularized samples must be finite")
        self.reg_samples.setflags(write=False)


def from_samples(samples, gamma: float, grid: GradedGrid) -> WeightedFn:
    """Wrap precomputed regularized samples (samples[0] = limit value)."""
    return WeightedFn(gamma=float(gamma), grid=grid,
                      reg_samples=np.array(samples, dtype=float))


def interpolate(x: np.ndarray, y: np.ndarray, t) -> np.ndarray | float:
    """Piecewise-linear interpolant of the points (x_j, y_j) at t, x strictly
    increasing: (1 - u) y_j + u y_{j+1} on the cell [x_j, x_{j+1}] holding t,
    with u = (t - x_j) / (x_{j+1} - x_j) clamped to [0, 1], so constant past
    the ends like np.interp (inside [x_0, x_n] rounding is monotone and the
    clamp never acts). Up to rounding the value lies between the cell's two
    values, so it stays finite where the slope (y_{j+1} - y_j) / (x_{j+1} -
    x_j) of a short cell overflows, and at a knot it is that knot's value
    exactly. y of shape (x.size, k) gives the k columns' values, of shape
    np.shape(t) + (k,)."""
    j = np.searchsorted(x[1:-1], t, side="right")  # t lies in cell j
    u = np.clip((t - x[j]) / (x[j + 1] - x[j]), 0.0, 1.0)
    u = np.reshape(u, np.shape(u) + (1,) * (y.ndim - 1))  # one u for all columns
    return (1.0 - u) * y[j] + u * y[j + 1]


def eval_reg(w: WeightedFn, t) -> np.ndarray | float:
    """Piecewise-linear interpolant of the regularized samples at t in [a, c]
    (see interpolate); samples of shape (n+1, k) give the k columns' values,
    of shape np.shape(t) + (k,)."""
    return interpolate(w.grid.nodes, w.reg_samples, t)
