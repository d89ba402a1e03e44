"""Zero localization for weighted functions on a window [b, c].

Zeros of f on (a, c] coincide with zeros of its regularized part W, since
the weight (t-a)^gamma is positive there; W is piecewise linear, so every
sign change of the samples brackets exactly one zero of the interpolant.
Consecutive search points (b, the interior nodes, c_w) lie in one grid
cell, where W is linear, so the zero in a bracket is the exact root of
that line; there is no bisection. Tangential zeros (no sign change) are not
detected, which is the conservative direction for the verification
harness: a missed tangency reads as "no zero found".
"""

from __future__ import annotations

import numpy as np

from .weighted import WeightedFn, eval_reg

_MERGE_REL = 1e-12  # of the grid length


def _candidates(w: WeightedFn, b: float, c_w: float):
    """Zero candidates of each column's interpolated regularized part inside
    [b, c_w]: the search points where it is exactly 0 and the root of each
    bracket, as their columns (1-D samples are column 0) and positions."""
    grid = w.grid
    if not (grid.a < b < c_w <= grid.c):
        raise ValueError(
            f"window [{b!r}, {c_w!r}] not inside ({grid.a}, {grid.c}]")
    inner = (grid.nodes > b) & (grid.nodes < c_w)
    pts = np.concatenate([[b], grid.nodes[inner], [c_w]])
    ends = np.reshape(eval_reg(w, pts[[0, -1]]), (2, -1))  # at a node, its sample
    W = w.reg_samples.reshape(grid.n + 1, -1)  # one column per function
    vals = np.concatenate([ends[:1], W[inner], ends[1:]])
    i, col = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0)
    lo, hi, flo, fhi = pts[i], pts[i + 1], vals[i, col], vals[i + 1, col]
    # flo / (fhi - flo) lies in [-1, 0], so no product overflows on a long window
    roots = np.clip(lo - flo / (fhi - flo) * (hi - lo), lo, hi)
    exact_i, exact_col = np.nonzero(vals == 0.0)
    return np.concatenate([exact_col, col]), np.concatenate([pts[exact_i], roots])


def find_zeros(w: WeightedFn, b: float, c_w: float) -> np.ndarray:
    """Sorted zeros of the interpolated regularized part of a one-column w
    inside [b, c_w]."""
    if w.reg_samples.ndim != 1:
        raise ValueError("find_zeros searches one function; first_zero_pair, columns")
    merged: list[float] = []
    for z in np.sort(_candidates(w, b, c_w)[1]):
        if not merged or z - merged[-1] > _MERGE_REL * w.grid.length:
            merged.append(z)
    return np.asarray(merged)


def first_zero_pair(f: WeightedFn, g: WeightedFn, b: float,
                    c_w: float) -> list[tuple[float, float] | None]:
    """Per column j of f and g (one grid; 1-D samples are one column), the
    earliest zero of f_j and of g_j inside [b, c_w], each find_zeros' first
    of the column, or None if either has none there; the two may coincide."""
    first = np.full((2, f.reg_samples[0].size), np.inf)
    for row, w in zip(first, (f, g)):
        np.fmin.at(row, *_candidates(w, b, c_w))
    return [(float(zf), float(zg)) if max(zf, zg) < np.inf else None
            for zf, zg in first.T]
