"""Per-layer spans for a traced benchmark pass, installed from outside the package.

Each public function at a layer boundary is replaced by a wrapper that
records a span (name, parent span, start, end). The package imports its
functions by name (``from .rlops import kernel_matrix``), which copies the
binding into the caller module, so a wrapper is installed on every
fracfite module that holds the original function, not only on the module
that defines it. Nothing under ``src/`` changes.

Spans are kept in memory and written out once the pass ends. Calls are
synchronous and single-threaded, so the direct children of a span never
overlap and a span's self time is its duration minus their summed
durations.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter

MODULES = ("cli", "verify", "bounds", "sfde", "rlops", "zeros", "weighted", "specfn")

# Layer boundaries recorded as spans. specfn is a leaf: its cost shows in its
# callers' self time. cli.main is entered by the benchmark through Tracer.call.
SPANNED = (
    ("verify", "sweep"), ("verify", "run_scenario"),
    ("bounds", "audit_estimates"), ("bounds", "best_min_length"),
    ("bounds", "bound_report"), ("bounds", "min_length"),
    ("rlops", "kernel_integral"),
    ("sfde", "residual"),
    ("zeros", "first_zero_pair"),
    ("weighted", "build_grid"),
)

_F64 = 8  # bytes per matrix entry

# name -> unit of every metric layer_metrics() can report
UNITS = {
    "bounds.min_length.calls": "count",
    "bounds.min_length.self_s": "s",
    "bounds.best_min_length.self_s": "s",
    "bounds.audit_estimates.self_s": "s",
    "rlops.kernel_matrix.builds": "count",
    "rlops.kernel_matrix.hits": "count",
    "rlops.kernel_matrix.hit_ratio": "ratio",
    "rlops.kernel_matrix.self_s": "s",
    "rlops.kernel_matrix.bytes_built": "bytes",
    "rlops.kernel_matrix.distinct_keys": "count",
    "rlops.kernel_integral.calls": "count",
    "rlops.kernel_integral.self_s": "s",
    "sfde.solve_fite.calls": "count",
    "sfde.solve_fite.self_s": "s",
    "sfde.picard_iterations": "count",
    "sfde.wasted_picard_iterations": "count",
    "sfde.method.picard": "count",
    "sfde.method.marching": "count",
    "sfde.matvec_bytes": "bytes",
    "sfde.residual.self_s": "s",
    "zeros.first_zero_pair.self_s": "s",
    "zeros.eval_reg.calls": "count",
    "verify.run_scenario.self_s": "s",
    "verify.run_scenario.p50_s": "s",
    "verify.run_scenario.p95_s": "s",
    "cli.main.self_s": "s",
    "weighted.build_grid.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def _dense_bytes(n: int) -> int:
    """Computed size of one (n+1) x (n+1) float64 kernel matrix."""
    return (n + 1) ** 2 * _F64


class Tracer:
    """Span recorder and counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self.kernel_keys: set = set()
        self._stack: list[int] = []
        self._cache_info = None

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _kernel_matrix(self, fn):
        @functools.wraps(fn)
        def traced(grid, *args, **kwargs):
            self.kernel_keys.add((grid.a, grid.c, grid.n, grid.r)
                                 + tuple(float(x) for x in args))
            if self._cache_info is None:
                return self.call("rlops.kernel_matrix", fn, grid, *args, **kwargs)
            before = self._cache_info()
            out = self.call("rlops.kernel_matrix", fn, grid, *args, **kwargs)
            after = self._cache_info()
            built = after.misses - before.misses
            self.counts["kernel.builds"] += built
            self.counts["kernel.hits"] += after.hits - before.hits
            self.counts["kernel.bytes_built"] += built * _dense_bytes(grid.n)
            return out
        return traced

    def _solve_fite(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rep = self.call("sfde.solve_fite", fn, *args, **kwargs)
            n = rep.f.grid.n
            self.counts[f"method.{rep.method}"] += 1
            # SolveReport.iterations counts Picard iterations, also those
            # spent before a fallback to marching
            self.counts["picard"] += rep.iterations
            self.counts["matvec_bytes"] += 2 * rep.iterations * _dense_bytes(n)
            if rep.method == "marching":
                self.counts["wasted_picard"] += rep.iterations
                # two dot products over the strictly lower triangle
                self.counts["matvec_bytes"] += n * (n + 1) * _F64
            return rep
        return traced

    def _residual(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call("sfde.residual", fn, *args, **kwargs)
            report = args[-1] if args else kwargs["report"]
            self.counts["matvec_bytes"] += 2 * _dense_bytes(report.f.grid.n)
            return out
        return traced

    def _counted(self, key: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Replace the boundary functions in every fracfite module for the
        rest of the process; a traced pass runs in a process of its own."""
        mods = [importlib.import_module(f"fracfite.{m}") for m in MODULES]
        by_name = dict(zip(MODULES, mods))
        cache = getattr(by_name["rlops"], "_matrix_cached", None)
        self._cache_info = getattr(cache, "cache_info", None)

        def patch(module: str, fname: str, wrapper) -> None:
            orig = getattr(by_name[module], fname)
            for mod in mods:
                if getattr(mod, fname, None) is orig:
                    setattr(mod, fname, wrapper)

        for module, fname in SPANNED:
            patch(module, fname,
                  self._span(f"{module}.{fname}", getattr(by_name[module], fname)))
        patch("rlops", "kernel_matrix", self._kernel_matrix(by_name["rlops"].kernel_matrix))
        patch("sfde", "solve_fite", self._solve_fite(by_name["sfde"].solve_fite))
        patch("sfde", "residual", self._residual(by_name["sfde"].residual))
        zeros = by_name["zeros"]
        zeros.eval_reg = self._counted("eval_reg", zeros.eval_reg)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_s,end_s\n")
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{t0!r},{t1!r}\n")

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the pass; wall_s is its traced wall time."""
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: Counter = Counter()
        self_s: Counter = Counter()
        top = 0.0
        scenario_s = []
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[i]
            if parent < 0:
                top += t1 - t0
            if name == "verify.run_scenario":
                scenario_s.append(t1 - t0)
        c = self.counts
        out = {
            "bounds.min_length.calls": calls["bounds.min_length"],
            "rlops.kernel_matrix.distinct_keys": len(self.kernel_keys),
            "rlops.kernel_integral.calls": calls["rlops.kernel_integral"],
            "sfde.solve_fite.calls": calls["sfde.solve_fite"],
            "sfde.picard_iterations": c["picard"],
            "sfde.wasted_picard_iterations": c["wasted_picard"],
            "sfde.method.picard": c["method.picard"],
            "sfde.method.marching": c["method.marching"],
            "sfde.matvec_bytes": c["matvec_bytes"],
            "zeros.eval_reg.calls": c["eval_reg"],
            "verify.run_scenario.p50_s": _percentile(scenario_s, 50),
            "verify.run_scenario.p95_s": _percentile(scenario_s, 95),
            "trace.coverage": top / wall_s,
        }
        for name in ("bounds.min_length", "bounds.best_min_length",
                     "bounds.audit_estimates", "rlops.kernel_matrix",
                     "rlops.kernel_integral", "sfde.solve_fite", "sfde.residual",
                     "zeros.first_zero_pair", "verify.run_scenario", "cli.main",
                     "weighted.build_grid"):
            out[f"{name}.self_s"] = self_s[name]
        # without the LRU cache there is nothing to read builds and hits from
        if self._cache_info is not None:
            builds, hits = c["kernel.builds"], c["kernel.hits"]
            out["rlops.kernel_matrix.builds"] = builds
            out["rlops.kernel_matrix.hits"] = hits
            out["rlops.kernel_matrix.hit_ratio"] = hits / max(1, builds + hits)
            out["rlops.kernel_matrix.bytes_built"] = c["kernel.bytes_built"]
        return out


def _percentile(samples: list[float], pct: int) -> float:
    """Inclusive percentile; 0.0 when the layer was never entered."""
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
