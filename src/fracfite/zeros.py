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


def find_zeros(w: WeightedFn, b: float, c_w: float) -> np.ndarray:
    """Sorted zeros of the interpolated regularized part inside [b, c_w]."""
    grid = w.grid
    if not (grid.a < b < c_w <= grid.c):
        raise ValueError(
            f"window [{b!r}, {c_w!r}] not inside ({grid.a}, {grid.c}]")
    inner = grid.nodes[(grid.nodes > b) & (grid.nodes < c_w)]
    pts = np.concatenate([[b], inner, [c_w]])
    vals = np.asarray(eval_reg(w, pts), dtype=float)
    k = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0)
    lo, hi, flo, fhi = pts[k], pts[k + 1], vals[k], vals[k + 1]
    # flo / (fhi - flo) lies in [-1, 0], so no product overflows on a long window
    roots = np.clip(lo - flo / (fhi - flo) * (hi - lo), lo, hi)
    found = np.sort(np.concatenate([pts[vals == 0.0], roots]))
    merged: list[float] = []
    for z in found:
        if not merged or z - merged[-1] > _MERGE_REL * grid.length:
            merged.append(z)
    return np.asarray(merged)


def first_zero_pair(f: WeightedFn, g: WeightedFn, b: float,
                    c_w: float) -> tuple[float, float] | None:
    """Earliest zero of f and earliest zero of g inside [b, c_w], or None
    if either function has no zero there. The two points may coincide."""
    zf = find_zeros(f, b, c_w)
    zg = find_zeros(g, b, c_w)
    if zf.size == 0 or zg.size == 0:
        return None
    return float(zf[0]), float(zg[0])

