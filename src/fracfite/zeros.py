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


def first_zero_pair(f: WeightedFn, g: WeightedFn, b: float,
                    c_w: float) -> list[tuple[float, float] | None]:
    """Per column j of f and g (one grid; 1-D samples are one column), the
    earliest zero of f_j and of g_j inside [b, c_w], or None if either has
    none there; the two may coincide. A column's zeros are the search points
    where its interpolated regularized part is exactly 0 and the root of
    each bracket of opposite signs."""
    grid = f.grid
    if not (grid.a < b < c_w <= grid.c):
        raise ValueError(
            f"window [{b!r}, {c_w!r}] not inside ({grid.a}, {grid.c}]")
    inner = (grid.nodes > b) & (grid.nodes < c_w)
    pts = np.concatenate([[b], grid.nodes[inner], [c_w]])
    first = np.full((2, f.reg_samples[0].size), np.inf)
    for row, w in zip(first, (f, g)):
        ends = np.reshape(eval_reg(w, pts[[0, -1]]), (2, -1))  # at a node, its sample
        W = w.reg_samples.reshape(grid.n + 1, -1)  # one column per function
        vals = np.concatenate([ends[:1], W[inner], ends[1:]])
        exact_i, exact_col = np.nonzero(vals == 0.0)
        np.fmin.at(row, exact_col, pts[exact_i])
        i, col = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0)
        lo, hi, flo, fhi = pts[i], pts[i + 1], vals[i, col], vals[i + 1, col]
        # flo / (fhi - flo) lies in [-1, 0], so no product overflows on a long window
        np.fmin.at(row, col, np.clip(lo - flo / (fhi - flo) * (hi - lo), lo, hi))
    return [(float(zf), float(zg)) if max(zf, zg) < np.inf else None
            for zf, zg in first.T]
