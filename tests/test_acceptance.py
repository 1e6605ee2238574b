"""Acceptance criteria, one test per criterion with a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines and timings.
"""

import math
import os
import time
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog

from wrongexit import (
    GapRule,
    IndependentModel,
    MvNormalModel,
    Normal,
    ShiftedExponential,
    SiegmundRule,
    SumIntersectionRule,
    exchangeable_mvnormal,
    homogeneous_profile,
    rearrangement_min,
    solve_gamma_single,
)
from wrongexit.engine import RunConfig, decay_scan, estimate_wrong_exit, plain_mc
from wrongexit.proposals import (
    build_gap,
    build_siegmund,
    build_sum_intersection,
    direct_certificate,
)
from wrongexit.solvers import (
    beta_program,
    gamma_pair_program,
    gap_pair_program,
    gap_quad_program,
    si_s_program,
    si_z_program,
)
from si_reference import solve

LOG2 = math.log(2.0)


def report(num, desc, t0, limit):
    elapsed = time.perf_counter() - t0
    print(f"\n[acceptance {num:02d}] PASS  {desc}  ({elapsed:.1f}s, "
          f"limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_closed_form_tilts():
    t0 = time.perf_counter()
    for u in (1.0, 0.5, 2.0):
        rule = SiegmundRule(1.0, u)
        for i in range(10):
            rho = i / 10
            model = exchangeable_mvnormal(50, -0.5, rho)
            uz = solve_gamma_single(0, rule, model).value
            s = solve(gamma_pair_program(0, 1, rule, model)).value
            assert uz == pytest.approx(u, abs=1e-8)
            assert s == pytest.approx(2 * u / (1 + rho), abs=1e-8)
    report(1, "u z_k = u and s_kk' = 2u/(1+rho) across the rho grid", t0, 1.0)


def test_criterion_02_table_reproduction():
    t0 = time.perf_counter()
    expected = {
        "H1": [0.61, 0.57, 0.45, 0.25, 0.09],
        "H2": [0.67, 0.64, 0.54, 0.39, 0.26],
        "direct": [0.61, 0.58, 0.50, 0.39, 0.32],
    }
    u_values = [3.0, 2.0, 1.0, 0.5, 1 / 3]
    got = {"H1": [], "H2": [], "direct": []}
    for u in u_values:
        rule = SiegmundRule(1.0, u)
        best = {"H1": None, "H2": None, "direct": None}
        for i in range(91):
            rho = round(i / 100, 2)
            model = exchangeable_mvnormal(50, -0.5, rho)
            r = solve(beta_program([0], rule, model)).value
            s = solve(gamma_pair_program(0, 1, rule, model)).value
            uz = solve_gamma_single(0, rule, model).value
            if uz + s >= 2 * r - 1e-12:
                best["H1"] = rho
            if 2 * s >= 2 * r - 1e-12:
                best["H2"] = rho
            if direct_certificate([model], 1.0, [u]).holds[0]:
                best["direct"] = rho
        for key in got:
            got[key].append(best[key])
    assert got == expected, got
    report(2, "all 15 maximal-rho table entries match", t0, 120.0)


def test_criterion_03_exponential_solver_values():
    t0 = time.perf_counter()
    comp = ShiftedExponential(2.0, -LOG2)
    from wrongexit import siegmund_root
    assert siegmund_root(comp) == pytest.approx(1.0, abs=1e-12)
    assert -comp.mean == pytest.approx(0.1931, abs=1e-3)
    drift = IndependentModel([comp]).cgf_grad_rows([[1.0]])[0, 0]
    assert drift == pytest.approx(0.307, abs=1e-3)
    vp, vm, _ = homogeneous_profile(comp, 400, 1.0, 1.0)
    assert vp[1] == pytest.approx(0.8718, abs=1e-4)
    assert vm[1] == pytest.approx(-4.1194e-4, abs=1e-4)
    report(3, "z1 = 1, kappas, and the d = 400 singleton tilt components",
           t0, 10.0)


def test_criterion_04_gap_si_closed_forms_and_hsi_boundaries():
    t0 = time.perf_counter()
    # gap closed forms for independent normals
    d, m = 10, 5
    gap = GapRule(m)
    for v in (0.3, 1.0, 4.0):
        comps = [Normal(0.5, 1.0)] * m + [Normal(-0.5, v)] * (d - m)
        model = IndependentModel(comps)
        assert solve(gap_pair_program(0, m, gap, model)).value == \
            pytest.approx(2 / (1 + v), abs=1e-8)
        assert solve(gap_quad_program(0, 1, m, m + 1, gap, model)).value == \
            pytest.approx(4 / (1 + v), abs=1e-8)
    # sum-intersection closed forms for exchangeable normals
    for L, rho in [(2, 0.1), (3, 0.4), (2, 0.7)]:
        rule = SumIntersectionRule(L)
        model = exchangeable_mvnormal(50, -0.5, rho)
        assert solve(si_z_program(range(L), rule, model)).value == \
            pytest.approx(1 / (rho * L + 1 - rho), abs=1e-8)
        assert solve(si_s_program(range(L + 1), rule, model)).value == \
            pytest.approx((L + 1) / (L * (rho * (L + 1) + 1 - rho)), abs=1e-8)
    # (H-SI) boundaries on the 0.01 grid at d = 50
    for L, expect in [(2, 0.23), (3, 0.14)]:
        rule = SumIntersectionRule(L)
        best = None
        for i in range(91):
            rho = round(i / 100, 2)
            model = exchangeable_mvnormal(50, -0.5, rho)
            rA = solve(beta_program(list(range(L)), rule, model)).value
            zA = solve(si_z_program(list(range(L)), rule, model)).value
            sB = solve(si_s_program(list(range(L + 1)), rule, model)).value
            if zA + sB >= 2 * rA - 1e-12:
                best = rho
        assert best == expect, (L, best)
    report(4, "gap/SI closed forms and (H-SI) boundaries 0.23 / 0.14",
           t0, 60.0)


def test_criterion_05_unbiasedness_oracle():
    t0 = time.perf_counter()
    cases = []
    model = IndependentModel([Normal(-0.5, 1.0)] * 2)
    prop, _ = build_siegmund("theta1", model, 1.0, 1.0)
    cases.append(("siegmund d=2", model, prop, SiegmundRule(1, 1), 5.0))
    gmodel = MvNormalModel(np.array([0.5, 0.5, -0.5, -0.5]), np.eye(4))
    gprop, _ = build_gap("t0", gmodel, 2)
    cases.append(("gap d=4", gmodel, gprop, GapRule(2), 4.5))
    simodel = exchangeable_mvnormal(3, -0.5, 0.0)
    siprop, _ = build_sum_intersection(simodel, 2)
    cases.append(("SI d=3", simodel, siprop, SumIntersectionRule(2), 4.5))
    for name, model, prop, rule, b in cases:
        mix = estimate_wrong_exit(model, prop, rule,
                                  RunConfig(b=b, n_paths=100_000, seed=71))
        plain = plain_mc(model, rule,
                         RunConfig(b=b, n_paths=1_000_000, seed=72))
        assert 1e-3 <= plain.mean <= 2e-2, (name, plain.mean)
        z = (mix.mean - plain.mean) / math.hypot(mix.std_error,
                                                 plain.std_error)
        assert abs(z) <= 3.0, (name, mix.mean, plain.mean, z)
        assert mix.truncation_count == 0 and plain.truncation_count == 0
    report(5, "mixture within 3 SE of 1e6-path plain MC on all families",
           t0, 300.0)


def test_criterion_06_decay_slope():
    t0 = time.perf_counter()
    comp = ShiftedExponential(2.0, -LOG2)
    model = IndependentModel([comp] * 20)
    prop, rep = build_siegmund("theta0", model, 1.0, 1.0)
    grid = [20.0, 23.0, 26.0, 29.0, 32.0, 35.0]
    rows = decay_scan(model, prop, SiegmundRule(1, 1), grid, 10_000, 11)
    assert all(r["truncation_count"] == 0 for r in rows)
    bs = np.array([r["b"] for r in rows])
    ls = np.array([-math.log(r["p_hat"]) for r in rows])
    slope = float(np.polyfit(bs, ls, 1)[0])
    assert abs(slope - rep.r_star) / rep.r_star <= 0.05, (slope, rep.r_star)
    report(6, f"decay slope {slope:.4f} within 5% of r* = {rep.r_star:.4f}",
           t0, 120.0)


def test_criterion_07_relative_error_desk_scale():
    t0 = time.perf_counter()
    runs = []
    comp = ShiftedExponential(2.0, -LOG2)
    model = IndependentModel([comp] * 20)
    prop, _ = build_siegmund("theta0", model, 1.0, 1.0)
    runs.append(("siegmund", model, prop, SiegmundRule(1, 1), 18.0, 30_000))
    mean = np.array([0.5] * 5 + [-0.5] * 5)
    cov = 0.9 * np.eye(10) + 0.1 * np.ones((10, 10))
    gmodel = MvNormalModel(mean, cov)
    gprop, _ = build_gap("t0", gmodel, 5)
    runs.append(("gap", gmodel, gprop, GapRule(5), 17.0, 30_000))
    simodel = exchangeable_mvnormal(10, -0.5, 0.1)
    siprop, _ = build_sum_intersection(simodel, 2)
    runs.append(("sum-intersection", simodel, siprop,
                 SumIntersectionRule(2), 20.0, 100_000))
    for name, model, prop, rule, b, n in runs:
        assert n <= 100_000
        run = estimate_wrong_exit(model, prop, rule,
                                  RunConfig(b=b, n_paths=n, seed=12))
        assert run.mean <= 1e-8, (name, run.mean)
        assert run.relative_error <= 0.05, (name, run.relative_error)
        assert run.truncation_count == 0, name
    report(7, "rel. error <= 5% at p <= 1e-8 with zero truncations "
              "(all three problems)", t0, 600.0)


def test_criterion_08_rearrangement_lp_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    for _ in range(500):
        d = int(rng.integers(2, 7))
        L = int(rng.integers(1, min(4, d) + 1))
        theta = rng.uniform(0, 5, size=d) * rng.choice([-1.0, 1.0], size=d)
        got = rearrangement_min(theta, L)
        rows = []
        for B in combinations(range(d), L):
            row = np.zeros(d)
            row[list(B)] = -1.0
            rows.append(row)
        res = linprog(np.abs(theta), A_ub=np.array(rows),
                      b_ub=-np.ones(len(rows)), bounds=[(0, None)] * d,
                      method="highs")
        assert res.success
        assert got == pytest.approx(res.fun, abs=1e-9)
    report(8, "500 random rearrangement LPs match the brute-force oracle",
           t0, 10.0)


def test_criterion_09_invariant_suites(monkeypatch):
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    # CGF gradient vs central differences
    for model in (exchangeable_mvnormal(4, -0.5, 0.3),
                  IndependentModel([ShiftedExponential(2.0, -LOG2),
                                    Normal(-0.5, 1.0)])):
        for _ in range(5):
            th = rng.normal(scale=0.4, size=model.dim)
            grad = model.cgf_grad_rows([th])[0]
            for k in range(model.dim):
                e = np.zeros(model.dim)
                e[k] = 1e-6
                fd = (model.cgf(th + e) - model.cgf(th - e)) / 2e-6
                assert fd == pytest.approx(grad[k], rel=1e-5, abs=1e-8)
    # change-of-measure identity, n = 3, d = 2
    model = exchangeable_mvnormal(2, -0.5, 0.3)
    theta = np.array([0.6, -0.1])
    lam = model.cgf(theta)
    n_rep = 200_000
    tilted = model.tilted_sampler(theta)(rng, n_rep * 3).reshape(n_rep, 3, 2)
    s = tilted.sum(axis=1)
    w = np.exp(-(s @ theta) + 3 * lam) * np.tanh(s.sum(axis=1))
    base = model.tilted_sampler(np.zeros(2))(rng, n_rep * 3)
    base = base.reshape(n_rep, 3, 2)
    v = np.tanh(base.sum(axis=1).sum(axis=1))
    se = math.hypot(w.std(ddof=1) / math.sqrt(n_rep),
                    v.std(ddof=1) / math.sqrt(n_rep))
    assert abs(w.mean() - v.mean()) <= 4 * se
    # homogeneous ordering
    vp, vm, _ = homogeneous_profile(ShiftedExponential(2.0, -LOG2), 10,
                                    1.0, 1.0)
    assert np.all(np.diff(vp[1:]) >= -1e-10)
    assert np.all(np.diff(-vm[1:10]) >= -1e-10)
    assert vp[1] >= 9 * (-vm[1]) - 1e-10
    # dominance chains
    model = exchangeable_mvnormal(5, -0.5, 0.4)
    rule = SiegmundRule(1.0, 1.0)
    uz = solve_gamma_single(0, rule, model).value
    s = solve(gamma_pair_program(0, 1, rule, model)).value
    assert uz <= s + 1e-12
    comps = [Normal(0.5, 1.0)] * 2 + [Normal(-0.5, 2.0)] * 3
    gm = IndependentModel(comps)
    zt = solve(gap_pair_program(0, 2, GapRule(2), gm)).value
    st = solve(gap_quad_program(0, 1, 2, 3, GapRule(2), gm)).value
    assert zt <= st + 1e-12
    # determinism under worker-count changes; three workers are allowed
    # whatever the machine's core count
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    model = exchangeable_mvnormal(3, -0.5, 0.2)
    prop, _ = build_siegmund("theta1", model, 1.0, 1.0)
    runs = [estimate_wrong_exit(model, prop, rule,
                                RunConfig(b=4.0, n_paths=2000, seed=9,
                                          workers=w)) for w in (1, 3)]
    assert runs[0].mean == runs[1].mean
    assert runs[0].exit_tally == runs[1].exit_tally
    report(9, "gradient/FD, change of measure, orderings, dominance, "
              "worker determinism", t0, 120.0)


def test_criterion_10_figure3_rates():
    t0 = time.perf_counter()
    vp, vm, r = homogeneous_profile(Normal(-0.5, 1.0), 50, 1.0, 0.004)
    assert r[1] == pytest.approx(0.2507, abs=1e-3)
    assert r[50] == pytest.approx(0.2, abs=1e-9)
    report(10, "r_1 = 0.2507 (1e-3) and r_[d] = 0.2 (1e-9) at u = 0.004",
           t0, 30.0)
