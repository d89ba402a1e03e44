"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion (a failed assertion surfaces as the usual pytest FAILED line).
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

import mpmath as mp

from fracfite import (Order, SweepSpec, audit_estimates, best_min_length,
                      beta_fn, big_C, big_E, build_grid, fite_rhs, gamma_fn,
                      min_length, sweep)
from fracfite.cli import main
from fracfite.sfde import solve_batch
from oracles import (classical_fite_check, from_callable, picard_reference,
                     q_operator)

ORDER = Order(0.75)


def report(k, name):
    print(f"\nACCEPTANCE {k} ({name}): PASS")


def test_criterion_1_special_function_identities():
    start = time.time()
    for x in np.arange(0.1, 10.0 + 1e-9, 0.15):
        x = float(x)
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-10)
    for x in np.arange(0.05, 0.951, 0.05):
        x = float(x)
        assert beta_fn(x, 1.0 - x) == pytest.approx(
            math.pi / math.sin(math.pi * x), rel=1e-10)
    elapsed = time.time() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    report(1, "special functions")


def test_criterion_2_quadrature_sharp_case():
    start = time.time()
    a, c, n = 0.0, 1.0, 2048
    g = build_grid(a, c, n, 2.0)
    for beta, gamma in ((0.25, 0.25), (0.4, 0.35)):
        w = from_callable(lambda t: 1.0, 1.0, gamma, g)
        q = q_operator(w, lambda s: 1.0, beta)
        t = g.nodes[1:]
        exact = (t - a) ** (1.0 - beta - gamma) * beta_fn(1.0 - gamma, 1.0 - beta)
        rel = np.abs(q.reg_samples[1:] - exact) / exact
        mask = t >= a + 0.01 * (c - a)
        assert rel[mask].max() <= 1e-4, f"(beta,gamma)=({beta},{gamma})"
    elapsed = time.time() - start
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s"
    report(2, "quadrature sharp case")


def test_criterion_3_solver_oracle():
    start = time.time()
    g = build_grid(0.0, 1.0, 2048, 2.0)
    P = lambda s: -1.0  # with f_a = g_a, f = f_a (t-a)^{alpha-1} + I^alpha f
    pic = picard_reference(P, ORDER, 1.0, 1.0, g)
    mar = solve_batch(P, ORDER, 1.0, 1.0, g)[0]
    with mp.workdps(30):
        exact = float(mp.gamma("0.75")
                      * mp.nsum(lambda k: 1.0 / mp.gamma(0.75 * k + 0.75),
                                [0, mp.inf]))
    assert pic.f.reg_samples[-1] == pytest.approx(exact, rel=1e-4)
    agree = max(np.abs(pic.f.reg_samples - mar.f.reg_samples).max(),
                np.abs(pic.g.reg_samples - mar.g.reg_samples).max())
    assert agree <= 1e-6
    elapsed = time.time() - start
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s"
    report(3, "solver oracle")


def test_criterion_4_constant_chain():
    for alpha in np.arange(0.55, 0.951, 0.05):
        order = Order(float(alpha))
        ga = order.gamma
        p_max = 0.5 / ga
        for frac in (0.05, 0.25, 0.5, 0.75, 0.95):
            p = 1.0 + frac * (p_max - 1.0)
            assert big_C(order, p) < 2.0 ** (2.0 * (2.0 - float(alpha)))
    with mp.workdps(40):
        a = mp.mpf("0.75")
        rhs_ref = float(mp.gamma(a) / (mp.mpf(2) ** (2 * (2 - a)) + mp.beta(a, a)))
    assert abs(fite_rhs(ORDER) - rhs_ref) <= 1e-8
    assert abs(min_length(ORDER, 1.0, 1.5) - fite_rhs(ORDER) ** 1.5) <= 1e-6
    p_star, _ = best_min_length(ORDER, 1.0)
    assert abs(p_star - 4.0 / 3.0) <= 1e-4
    report(4, "constant chain")


def test_criterion_5_inequality_audit():
    start = time.time()
    result = audit_estimates(ORDER, 1.5, 1000, 42)
    assert all(v == 1000 for v in result.passes.values()), result.passes
    elapsed = time.time() - start
    assert elapsed < 300.0, f"runtime {elapsed:.2f}s"
    report(5, "inequality audit")


def test_criterion_6_counterexample_sweep():
    start = time.time()
    spec = SweepSpec(alphas=(0.6, 0.75, 0.9), p_infs=(0.5, 1.0, 2.0),
                     lengths=(0.05, 0.5, 5.0), directions=8, seed=42, n=512)
    coarse = sweep(spec)
    assert coarse.counts["COUNTEREXAMPLE"] == 0, coarse.counterexamples
    fine = sweep(dataclasses.replace(spec, n=1024))
    assert fine.counts["COUNTEREXAMPLE"] == 0
    assert coarse.verdicts == fine.verdicts, "verdicts changed under refinement"
    elapsed = time.time() - start
    assert elapsed < 900.0, f"runtime {elapsed:.2f}s"
    report(6, "counterexample sweep")


def test_criterion_7_contraction():
    length = 0.04
    p = 4.0 / 3.0
    m = 1.0
    E = big_E(ORDER, p, length)
    assert E * m < 0.5
    g = build_grid(0.0, length, 512, 2.0)
    rep = picard_reference(lambda t: 1.0, ORDER, 1.0, 0.3, g)
    incs = rep.increment_norms
    ratios = [incs[k + 1] / incs[k] for k in range(1, len(incs) - 1)
              if incs[k] > 0.0]
    assert ratios, "need at least one ratio after the second iteration"
    assert max(ratios) <= E * m + 0.1
    report(7, "contraction regime")


def test_criterion_8_classical_oracle():
    checked = 0
    for P in np.linspace(0.1, 10.0, 10):
        for width in np.linspace(0.2, 8.0, 10):
            assert classical_fite_check(float(P), 1.0, 1.0 + float(width))
            checked += 1
    assert checked == 100
    report(8, "classical oracle")


def test_criterion_9_cli_determinism(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "sweep": {"alphas": [0.6, 0.75], "p_infs": [1.0],
                  "lengths": [0.1, 2.0], "directions": 4,
                  "seed": 42, "n": 96}
    }))
    solve_cfg = tmp_path / "solve.json"
    solve_cfg.write_text(json.dumps({
        "alpha": 0.75, "a": 0.0, "b": 0.01, "c": 1.0,
        "P": {"const": 1.0}, "f_a": 0.0, "g_a": 1.0, "n": 128,
    }))
    blobs = []
    for k, workers in enumerate(("1", "1", "2")):
        out = tmp_path / f"v{k}"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == 0
        blobs.append((out / "verify.json").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    traces = []
    for k in range(2):
        out = tmp_path / f"s{k}"
        assert main(["solve", "--config", str(solve_cfg), "--out", str(out)]) == 0
        traces.append((out / "trace.csv").read_bytes()
                      + (out / "summary.json").read_bytes())
    assert traces[0] == traces[1]
    report(9, "determinism")
