"""Solver correctness: paper closed forms, cross-path agreement, KKT
certificates, and independent oracles for the optimization machinery."""

import math
from itertools import combinations
import os
from pathlib import Path
import subprocess
import sys
import warnings

from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
import numpy as np
import pytest

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
from wrongexit.active_set import block_solve
from wrongexit.models import TiltDomainError, siegmund_root
from wrongexit.regions import Region
from wrongexit.solvers import (
    beta_program,
    gamma_pair_program,
    gap_pair_program,
    gap_quad_program,
    si_s_program,
    si_z_program,
    siegmund_profiles,
)
from si_reference import (
    _independent_kkt,
    _ray_radius,
    _restrict_model,
    _si_box_search,
    _si_dual_program,
    _symmetric_si_beta,
    domain_sup,
    positive_root,
    shifted_program,
    solve,
    support_value,
    v_lower_bound,
    v_lower_bounds,
)

LOG2 = math.log(2.0)
RULE11 = SiegmundRule(1.0, 1.0)


def check_certificate(sol, model, region, rule, tol=1e-8):
    """Shared invariants: active CGF constraint, sign feasibility, and
    agreement between the optimal value and the support value."""
    assert sol.converged
    assert abs(model.cgf(sol.tilt)) <= 1e-10
    sup = support_value(rule, sol.tilt, region)
    assert sup == pytest.approx(sol.value, abs=tol)


def local_max_probe(sol, model, rule, region, rng, n_dirs=20):
    """Feasible perturbations of size 1e-4 must not improve the objective
    by more than 1e-6."""
    d = model.dim
    base = support_value(rule, sol.tilt, region)
    for _ in range(n_dirs):
        step = 1e-4 * rng.normal(size=d)
        cand = sol.tilt + step
        if isinstance(rule, GapRule):
            cand -= cand.sum() / d
        if model.cgf(cand) > 0:
            continue  # infeasible direction
        val = support_value(rule, cand, region)
        assert val <= base + 1e-6


class TestSiegmundSolvers:
    def test_exchangeable_closed_forms(self):
        # u z_k = u and s_{k,k'} = 2u/(1+rho), any rho
        for u in (1.0, 0.4):
            rule = SiegmundRule(1.0, u)
            for rho in (0.0, 0.3, 0.6, 0.9):
                model = exchangeable_mvnormal(6, -0.5, rho)
                assert solve_gamma_single(2, rule, model).value == \
                    pytest.approx(u, abs=1e-12)
                got = solve(gamma_pair_program(1, 4, rule, model)).value
                assert got == pytest.approx(2 * u / (1 + rho), abs=1e-10)

    def test_gamma_pair_independence_limit(self):
        model = exchangeable_mvnormal(4, -0.5, 0.0)
        program = gamma_pair_program(0, 1, SiegmundRule(1.0, 2.0), model)
        assert solve(program).value == pytest.approx(4.0, abs=1e-10)

    def test_figure3_rates(self):
        vp, vm, r = homogeneous_profile(Normal(-0.5, 1.0), 50, 1.0, 0.004)
        assert r[1] == pytest.approx(0.2507, abs=1e-3)
        assert r[50] == pytest.approx(0.2, abs=1e-9)

    def test_exponential_singleton_components(self):
        comp = ShiftedExponential(2.0, -LOG2)
        vp, vm, r = homogeneous_profile(comp, 400, 1.0, 1.0)
        assert vp[1] == pytest.approx(0.8718, abs=1e-4)
        assert vm[1] == pytest.approx(-4.1194e-4, abs=1e-7)

    def test_homogeneous_monotonicity(self):
        # v1+ <= ... <= vd+ = z1,  -v1- <= -v2- <= ..., v1+ >= (d-1)(-v1-)
        for comp, d in [(ShiftedExponential(2.0, -LOG2), 12),
                        (Normal(-0.5, 1.0), 8)]:
            for ell, u in [(1.0, 1.0), (1.0, 0.25), (0.5, 1.0)]:
                vp, vm, r = homogeneous_profile(comp, d, ell, u)
                z1 = vp[d]
                assert np.all(np.diff(vp[1:]) >= -1e-10)
                assert vp[d] == pytest.approx(
                    -2 * comp.mean if isinstance(comp, Normal) else 1.0,
                    abs=1e-10)
                neg = -vm[1:d]
                assert np.all(np.diff(neg) >= -1e-10)
                assert vp[1] >= (d - 1) * (-vm[1]) - 1e-10

    def test_beta_paths_agree_independent_vs_mvnormal(self):
        # diagonal-normal model through both solution paths
        mus = np.array([-0.4, -0.8, -0.6, -1.1])
        sig = np.array([1.0, 2.0, 0.5, 1.5])
        indep = IndependentModel([Normal(m, s) for m, s in zip(mus, sig)])
        mv = MvNormalModel(mus, np.diag(sig))
        rule = SiegmundRule(0.8, 1.2)
        for A in ([0], [1, 3], [0, 1, 2, 3]):
            s1 = solve(beta_program(A, rule, indep))
            s2 = solve(beta_program(A, rule, mv))
            assert s1.value == pytest.approx(s2.value, abs=1e-7)
            np.testing.assert_allclose(s1.tilt, s2.tilt, atol=1e-6)
        for k, kp in ((0, 1), (1, 3), (2, 3)):
            s1 = solve(gamma_pair_program(k, kp, rule, indep))
            s2 = solve(gamma_pair_program(k, kp, rule, mv))
            assert s1.value == pytest.approx(s2.value, abs=1e-7)
            np.testing.assert_allclose(s1.tilt, s2.tilt, atol=1e-6)
            assert s1.multipliers.shape == s2.multipliers.shape == (5,)
            np.testing.assert_allclose(s1.multipliers, s2.multipliers,
                                       atol=1e-6)

    def test_beta_iid_path_agrees_with_profile(self):
        for comp, d, rule in (
                (ShiftedExponential(2.0, -LOG2), 6, RULE11),
                # the off-region bound binds: v- = 0, positive multipliers
                (Normal(-0.5, 2.0), 5, SiegmundRule(0.5, 1.0))):
            model = IndependentModel([comp] * d)
            v_plus, v_minus, r = homogeneous_profile(comp, d, rule.ell,
                                                     rule.u)
            for A in ([0], [1, 2], list(range(d))):
                sol = solve(beta_program(A, rule, model))
                a = len(A)
                tilt = np.full(d, v_minus[a] if a < d else 0.0)
                tilt[A] = v_plus[a]
                assert sol.method == "siegmund/active-set"
                assert sol.value == pytest.approx(r[a], abs=1e-9)
                np.testing.assert_allclose(sol.tilt, tilt, atol=1e-9)
                # KKT: c + signs * mu = lambda_0 grad Lambda(beta), mu >= 0
                in_A = np.isin(np.arange(d), A)
                c = np.where(in_A, rule.u, -rule.ell)
                lam0, mu = sol.multipliers[0], sol.multipliers[1:]
                assert lam0 > 0 and np.all(mu >= -1e-12)
                np.testing.assert_allclose(
                    c + np.where(in_A, 1.0, -1.0) * mu,
                    lam0 * model.cgf_grad_rows([sol.tilt])[0], atol=1e-8)

    def test_paper_scale_profile_matches_block_solves(self):
        comp, d = ShiftedExponential(2.0, -LOG2), 400
        model = IndependentModel([comp] * d)
        v_plus, v_minus, r = homogeneous_profile(comp, d, 1.0, 1.0)
        sizes = (1, 2, 200, 399, 400)
        sols = block_solve([beta_program(range(a), RULE11, model)
                            for a in sizes])
        for a, sol in zip(sizes, sols):
            tilt = np.full(d, v_minus[a] if a < d else 0.0)
            tilt[:a] = v_plus[a]
            assert sol.value == pytest.approx(r[a], abs=1e-9)
            np.testing.assert_allclose(sol.tilt, tilt, atol=1e-9)

    @pytest.mark.parametrize("mu, d, ell, u, match", [
        (-0.5, 3, 1.0, -1.0, "positive and finite"),
        (-0.5, 3, 0.0, 1.0, "positive and finite"),
        (-0.5, 3, math.nan, 1.0, "positive and finite"),
        (-0.5, 3, 1.0, math.inf, "positive and finite"),
        (-0.5, 0, 1.0, 1.0, "positive integer"),
        (-0.5, 2.5, 1.0, 1.0, "positive integer"),
        (0.5, 3, 1.0, 1.0, "negative mean"),
    ])
    def test_profile_rejects_bad_input(self, mu, d, ell, u, match):
        with pytest.raises(ValueError, match=match):
            homogeneous_profile(Normal(mu, 1.0), d, ell, u)

    def test_exchangeable_active_set_matches_profile(self):
        model = exchangeable_mvnormal(7, -0.5, 0.35)
        rule = SiegmundRule(1.0, 0.7)
        v_plus, v_minus, r = (x[0] for x in siegmund_profiles(
            [model], rule.ell, [rule.u])[:3])
        for A in ([2], [0, 4], [1, 2, 3, 4, 5]):
            sol = solve(beta_program(A, rule, model))
            assert sol.method == "siegmund/active-set"
            tilt = np.full(7, v_minus[len(A)])
            tilt[A] = v_plus[len(A)]
            assert sol.value == pytest.approx(r[len(A)], abs=1e-9)
            np.testing.assert_allclose(sol.tilt, tilt, atol=1e-8)

    def test_active_set_releases_a_pinned_coordinate(self):
        # the first iterations pin a coordinate whose multiplier then comes
        # out negative, so the active set releases it before it certifies
        cov = np.array([[1.0, -0.8, -0.8], [-0.8, 1.0, 0.4],
                        [-0.8, 0.4, 1.0]])
        model = MvNormalModel(np.full(3, -0.5), cov)
        rule = SiegmundRule(1.0, 3.0)
        sol = solve(beta_program([1], rule, model))
        assert sol.converged
        assert np.all(sol.multipliers >= -1e-10)
        ref = shifted_program([1], np.zeros(3), rule, model)
        assert abs(sol.value - ref) <= 1e-12

    def test_certificates_and_local_max(self):
        rng = np.random.default_rng(10)
        model = exchangeable_mvnormal(5, -0.5, 0.25)
        for A in ([0], [1, 3], [0, 1, 2, 3, 4]):
            sol = solve(beta_program(A, RULE11, model))
            region = Region(True, tuple(A))
            check_certificate(sol, model, region, RULE11)
            local_max_probe(sol, model, RULE11, region, rng)
            assert 0 < sol.value < math.inf

    def test_rate_positive_everywhere(self):
        for model in (exchangeable_mvnormal(4, -0.5, 0.5),
                      IndependentModel([ShiftedExponential(2.0, -LOG2)] * 4)):
            for size in (1, 2, 4):
                sol = solve(beta_program(list(range(size)), RULE11, model))
                assert 0 < sol.value < math.inf

    def test_dominance_uz_le_s(self):
        for model in (exchangeable_mvnormal(5, -0.5, 0.4),
                      IndependentModel([Normal(-0.3, 1.0), Normal(-0.9, 2.0),
                                        ShiftedExponential(2.0, -LOG2),
                                        Normal(-0.5, 0.7),
                                        ShiftedExponential(1.5, -1.0)])):
            for k, kp in combinations(range(5), 2):
                uz = solve_gamma_single(k, RULE11, model).value
                s = solve(gamma_pair_program(k, kp, RULE11, model)).value
                assert uz <= s + 1e-10

    def test_gamma_pair_geq_sum_of_roots_indep(self):
        model = IndependentModel([ShiftedExponential(2.0, -LOG2),
                                  Normal(-0.5, 1.0)])
        z0 = siegmund_root(model.marginal(0))
        z1 = siegmund_root(model.marginal(1))
        s = solve(gamma_pair_program(0, 1, RULE11, model)).value
        assert s >= z0 + z1 - 1e-12
        # equality in the iid case by symmetry
        iid = IndependentModel([ShiftedExponential(2.0, -LOG2)] * 2)
        s = solve(gamma_pair_program(0, 1, RULE11, iid)).value
        assert s == pytest.approx(2.0, abs=1e-9)

    def test_singleton_equivalence_lemma(self):
        # beta^{k} = gamma^k iff (ell/u) kappa_k(1) <= kappa_{k'}(0) forall k'
        comp = ShiftedExponential(2.0, -LOG2)  # kappa0=.193 < kappa1=.307
        model = IndependentModel([comp] * 3)
        beta = solve(beta_program([0], RULE11, model))
        gam = solve_gamma_single(0, RULE11, model)
        assert np.max(np.abs(beta.tilt - gam.tilt)) > 1e-3  # iff fails
        # non-i.i.d. coordinates where the condition holds for both k: the
        # KKT path lands on the single-root tilt
        mixed = IndependentModel([comp, ShiftedExponential(3.0, -0.5)])
        rule = SiegmundRule(1.0, 3.0)
        for k in (0, 1):
            beta = solve(beta_program([k], rule, mixed))
            gam = solve_gamma_single(k, rule, mixed)
            assert beta.method == "siegmund/active-set"
            assert beta.value == pytest.approx(gam.value, abs=1e-12)
            np.testing.assert_allclose(beta.tilt, gam.tilt, atol=1e-12)
            check_certificate(beta, mixed, Region(True, (k,)), rule)
            assert beta.multipliers[0] > 0
            assert np.all(beta.multipliers[1:] >= 0)
        # normal iid with ell = u: equality case, tilts coincide exactly
        modeln = IndependentModel([Normal(-0.5, 1.0)] * 3)
        beta = solve(beta_program([0], RULE11, modeln))
        gam = solve_gamma_single(0, RULE11, modeln)
        np.testing.assert_array_equal(beta.tilt, gam.tilt)
        # u large enough makes the condition hold for the exponential too:
        # (ell/u) kappa1 <= kappa0  <=>  u >= kappa1/kappa0
        z = 1.0
        kap1, kap0 = comp.lin + comp.k1(z), -comp.mean
        rule = SiegmundRule(1.0, kap1 / kap0 + 0.1)
        beta = solve(beta_program([0], rule, model))
        gam = solve_gamma_single(0, rule, model)
        np.testing.assert_allclose(beta.tilt, gam.tilt, atol=1e-12)


SIEGMUND4 = exchangeable_mvnormal(4, -0.5, 0.2)
GAP4 = IndependentModel([Normal(0.5, 1.0)] * 2 + [Normal(-0.5, 1.0)] * 2)


OUT, REPEAT = "region indices out of range", "indices must be distinct"


@pytest.mark.parametrize("build, match", [
    (lambda: beta_program([-1], RULE11, SIEGMUND4), OUT),
    (lambda: solve_gamma_single(-1, RULE11, SIEGMUND4), OUT),
    (lambda: gamma_pair_program(-1, 0, RULE11, SIEGMUND4), OUT),
    (lambda: gamma_pair_program(0, 4, RULE11, SIEGMUND4), OUT),
    (lambda: si_z_program((-1, 0), SumIntersectionRule(2), SIEGMUND4), OUT),
    (lambda: si_s_program((-1, 0, 1), SumIntersectionRule(2), SIEGMUND4),
     OUT),
    (lambda: gap_pair_program(-3, 3, GapRule(2), GAP4), OUT),
    (lambda: gap_quad_program(-4, 1, 2, 3, GapRule(2), GAP4), OUT),
    (lambda: beta_program([1, 1], GapRule(2), GAP4), REPEAT),
    (lambda: gamma_pair_program(1, 1, RULE11, SIEGMUND4), REPEAT),
    (lambda: si_z_program((1, 1), SumIntersectionRule(2), SIEGMUND4), REPEAT),
    (lambda: gap_quad_program(0, 0, 2, 3, GapRule(2), GAP4), REPEAT),
], ids=["beta", "gamma-single", "gamma-pair", "gamma-pair-high", "si-z",
        "si-s", "gap-pair", "gap-quad", "beta-repeat", "gamma-pair-repeat",
        "si-z-repeat", "gap-quad-repeat"])
def test_program_indices_are_checked(build, match):
    with pytest.raises(ValueError, match=match):
        build()


class TestGapSolvers:
    def test_pair_closed_form_independent_normals(self):
        for v in (0.5, 1.0, 3.0):
            comps = [Normal(0.5, 1.0)] * 3 + [Normal(-0.5, v)] * 3
            model = IndependentModel(comps)
            rule = GapRule(3)
            zt = solve(gap_pair_program(0, 3, rule, model))
            assert zt.value == pytest.approx(2 / (1 + v), abs=1e-10)
            st = solve(gap_quad_program(0, 1, 3, 4, rule, model))
            assert st.value == pytest.approx(4 / (1 + v), abs=1e-8)
            assert zt.value <= st.value + 1e-10  # dominance chain

    @pytest.mark.parametrize("comps", [
        [ShiftedExponential(2.0, 0.0)] * 2
        + [ShiftedExponential(2.0, -LOG2)] * 3,
        [ShiftedExponential(2.0, 0.1), ShiftedExponential(1.5, -0.2),
         ShiftedExponential(3.0, -0.5), ShiftedExponential(1.2, -1.0),
         ShiftedExponential(2.5, -LOG2)],
    ], ids=["per-side-iid", "heterogeneous"])
    def test_pair_exponential_is_the_gap_direction_root(self, comps):
        # the two-index tilt is t (e_lp - e_l), t the positive zero of
        # t -> Lambda(t (e_lp - e_l)) below the rate of coordinate lp
        model = IndependentModel(comps)
        rule = GapRule(2)
        for l, lp in ((0, 2), (1, 3), (0, 4)):
            v = np.zeros(5)
            v[l], v[lp] = -1.0, 1.0
            t = positive_root(lambda r: model.cgf(r * v),
                              upper=domain_sup(comps[lp]))
            zt = solve(gap_pair_program(l, lp, rule, model))
            assert zt.converged
            assert zt.value == pytest.approx(t, abs=1e-12)
            np.testing.assert_allclose(zt.tilt, t * v, rtol=0, atol=1e-12)

    def test_exchangeable_two_index_tilt(self):
        mu_p, mu_m, s2, rho = 0.7, -0.4, 1.3, 0.25
        d, m = 8, 4
        mean = np.array([mu_p] * m + [mu_m] * (d - m))
        cov = s2 * ((1 - rho) * np.eye(d) + rho * np.ones((d, d)))
        model = MvNormalModel(mean, cov)
        rule = GapRule(m)
        t_expect = (mu_p - mu_m) / (s2 * (1 - rho))
        zt = solve(gap_pair_program(1, 5, rule, model))
        assert zt.value == pytest.approx(t_expect, abs=1e-10)
        # beta^A for the swap set equals the two-index tilt
        A = sorted(set(range(m)) - {1} | {5})
        beta = solve(beta_program(A, rule, model))
        assert beta.value == pytest.approx(t_expect, abs=1e-8)
        np.testing.assert_allclose(beta.tilt, zt.tilt, atol=1e-7)

    def test_gap_beta_paths_agree(self):
        comps = [Normal(0.5, 1.0), Normal(0.3, 2.0), Normal(-0.5, 1.5),
                 Normal(-0.8, 0.7), Normal(-0.4, 1.2)]
        indep = IndependentModel(comps)
        mv = MvNormalModel(np.array([c.mu for c in comps]),
                           np.diag([c.sigma2 for c in comps]))
        rule = GapRule(2)
        for A in ([0, 2], [1, 4], [2, 3]):
            s1 = solve(beta_program(A, rule, indep))
            s2 = solve(beta_program(A, rule, mv))
            assert s1.value == pytest.approx(s2.value, abs=1e-7)
            np.testing.assert_allclose(s1.tilt, s2.tilt, atol=1e-6)
            assert abs(s1.tilt.sum()) <= 1e-9
        for idx in ((0, 1, 2, 4), (1, 0, 3, 4)):
            s1 = solve(gap_quad_program(*idx, rule, indep))
            s2 = solve(gap_quad_program(*idx, rule, mv))
            assert s1.value == pytest.approx(s2.value, abs=1e-7)
            np.testing.assert_allclose(s1.tilt, s2.tilt, atol=1e-6)
            assert abs(s1.tilt.sum()) <= 1e-9
            assert s1.multipliers.shape == s2.multipliers.shape == (6,)
            np.testing.assert_allclose(s1.multipliers, s2.multipliers,
                                       atol=1e-6)
            assert s1.eq_multiplier == pytest.approx(s2.eq_multiplier,
                                                     abs=1e-6)

    def test_gap_certificates(self):
        rng = np.random.default_rng(20)
        mean = np.array([0.5, 0.6, -0.5, -0.7, -0.4])
        a = rng.normal(size=(5, 5)) * 0.2
        cov = a @ a.T + np.eye(5)
        model = MvNormalModel(mean, cov)
        rule = GapRule(2)
        for A in ([0, 2], [3, 4]):
            if A == [3, 4]:
                continue  # not a valid swap pattern check; keep single swap
            sol = solve(beta_program(A, rule, model))
            region = Region(True, tuple(A))
            check_certificate(sol, model, region, rule)
            local_max_probe(sol, model, rule, region, rng)

    def test_quad_specializations(self):
        comps = [Normal(0.5, 1.0)] * 2 + [Normal(-0.5, 1.0)] * 2
        model = IndependentModel(comps)
        rule = GapRule(2)
        st = solve(gap_quad_program(0, 1, 2, 3, rule, model))
        assert st.value == pytest.approx(2.0, abs=1e-9)
        zt = solve(gap_pair_program(0, 2, rule, model))
        assert zt.value == pytest.approx(1.0, abs=1e-10)

    def test_gap_index_validation(self):
        model = IndependentModel([Normal(0.5, 1.0)] * 2 +
                                 [Normal(-0.5, 1.0)] * 2)
        rule = GapRule(2)
        with pytest.raises(ValueError):
            solve(gap_pair_program(2, 3, rule, model))
        with pytest.raises(ValueError):
            solve(gap_quad_program(0, 1, 2, 2, rule, model))


class TestSumIntersectionSolvers:
    def test_closed_forms(self):
        for L, rho in [(2, 0.0), (2, 0.3), (3, 0.1), (4, 0.5)]:
            model = exchangeable_mvnormal(10, -0.5, rho)
            rule = SumIntersectionRule(L)
            z = solve(si_z_program(range(L), rule, model)).value
            s = solve(si_s_program(range(L + 1), rule, model)).value
            assert z == pytest.approx(1 / (rho * L + 1 - rho), abs=1e-10)
            assert s == pytest.approx(
                (L + 1) / (L * (rho * (L + 1) + 1 - rho)), abs=1e-10)
        # i.i.d. independent coordinates: every coordinate of z_A sits at
        # the marginal Siegmund root, -2 mu / sigma2 for a normal
        for comp in (Normal(-0.5, 2.0), ShiftedExponential(2.0, -LOG2)):
            root = (-2 * comp.mu / comp.sigma2 if isinstance(comp, Normal)
                    else siegmund_root(comp))
            model = IndependentModel([comp] * 6)
            for L in (2, 3):
                sol = solve(si_z_program(range(L), SumIntersectionRule(L),
                                         model))
                assert sol.method == "si/z-active-set"
                assert sol.value == pytest.approx(root, abs=1e-12)
                np.testing.assert_allclose(sol.tilt[:L], root, atol=1e-12)
                assert not sol.tilt[L:].any()

    def test_z_grid_oracle_general_cov(self):
        rng = np.random.default_rng(8)
        d, L = 3, 2
        a = rng.normal(size=(d, d)) * 0.4
        cov = a @ a.T + np.eye(d)
        model = MvNormalModel(np.array([-0.5, -0.8, -0.6]), cov)
        rule = SumIntersectionRule(L)
        sol = solve(si_z_program((0, 1), rule, model))
        # dense oracle over the support simplex (tilts p*(cos, sin) on A)
        best = 0.0
        for phi in np.linspace(0, math.pi / 2, 20001):
            v = np.array([math.cos(phi), math.sin(phi), 0.0])
            drift = model.mean @ v
            if drift >= 0:
                continue
            R = -2 * drift / (v @ cov @ v)
            best = max(best, min(R * v[0], R * v[1]))
        assert sol.value == pytest.approx(best, abs=1e-4)

    def test_s_oracle_general_cov(self):
        rng = np.random.default_rng(9)
        d, L = 4, 2
        a = rng.normal(size=(d, d)) * 0.3
        cov = a @ a.T + np.eye(d)
        model = MvNormalModel(-0.4 - rng.random(d), cov)
        rule = SumIntersectionRule(L)
        B = (0, 1, 3)
        sol = solve(si_s_program(B, rule, model))

        def objective(th3):
            srt = np.sort(th3)[::-1]
            return min(srt[1] + srt[2], (srt[0] + srt[1] + srt[2]) / 2)

        best = 0.0
        for _ in range(200000):
            v = rng.random(3)
            v /= np.linalg.norm(v)
            full = np.zeros(d)
            full[list(B)] = v
            drift = model.mean @ full
            if drift >= 0:
                continue
            R = -2 * drift / (full @ cov @ full)
            best = max(best, objective(R * v))
        assert sol.value >= best - 1e-4
        assert sol.value <= best + 0.01  # random search is a lower envelope

    def test_beta_ray_vs_general_path(self):
        model = exchangeable_mvnormal(5, -0.5, 0.15)
        rule = SumIntersectionRule(2)
        ray = _symmetric_si_beta(model, (0, 1), 2)
        exact = solve(beta_program([0, 1], rule, model))
        assert exact.method == "sum_intersection/active-set"
        assert exact.value == pytest.approx(ray.value, abs=1e-7)
        assert exact.value >= ray.value - 1e-12
        region = Region(True, (0, 1))
        check_certificate(exact, model, region, rule)
        rng = np.random.default_rng(30)
        local_max_probe(exact, model, rule, region, rng)

    @pytest.mark.parametrize("comp", [Normal(-0.5, 2.0),
                                      ShiftedExponential(2.0, -LOG2)])
    def test_iid_programs_match_ray_and_box_references(self, comp):
        # the i.i.d. reference paths: ray search (beta^A), box search (z_A)
        # and the ray through 1_B (s_B = t (L + 1) / L)
        d = 5
        model = IndependentModel([comp] * d)
        for L in (2, 3):
            rule = SumIntersectionRule(L)
            A, B = tuple(range(L)), tuple(range(L + 1))
            cases = [(solve(si_z_program(A, rule, model)),
                      _si_box_search(model, A)[0]),
                     (solve(si_s_program(B, rule, model)), _ray_radius(
                         model, np.isin(np.arange(d), B) * 1.0) * (L + 1) / L)]
            cases += [(solve(beta_program(R, rule, model)),
                       _symmetric_si_beta(model, R, L).value)
                      for R in (A, B, tuple(range(1, d)))]
            for sol, ref in cases:
                assert sol.converged and sol.method.endswith("active-set")
                assert sol.value >= ref - 1e-8

    def test_beta_value_is_rearrangement_min(self):
        model = exchangeable_mvnormal(6, -0.5, 0.2)
        rule = SumIntersectionRule(2)
        # |A| > L also allowed
        sol = solve(beta_program([0, 1, 2], rule, model))
        assert sol.value == pytest.approx(
            rearrangement_min(sol.tilt, 2), abs=1e-9)

    def test_si_input_validation(self):
        model = exchangeable_mvnormal(5, -0.5, 0.1)
        rule = SumIntersectionRule(2)
        with pytest.raises(ValueError):
            solve(si_z_program([0, 1, 2], rule, model))
        with pytest.raises(ValueError):
            solve(si_s_program([0, 1], rule, model))
        with pytest.raises(ValueError):
            solve(beta_program([0], rule, model))


@st.composite
def si_programs(draw):
    """A model with negative drift, L, and one sum-intersection program:
    beta^A, z_A or s_B.  The model is normal (a random SPD covariance, or
    an exchangeable one with rho down to -0.9/(d-1)) or independent
    (normal, shifted-exponential or mixed components, i.i.d. or not)."""
    d = draw(st.integers(3, 8))
    L = draw(st.integers(2, d - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    family = draw(st.sampled_from(["exchangeable", "general", "normal",
                                   "exponential", "mixed"]))
    if family == "exchangeable":
        model = exchangeable_mvnormal(d, -rng.uniform(0.1, 1.5),
                                      rng.uniform(-0.9 / (d - 1), 0.9),
                                      rng.uniform(0.5, 2.0))
    elif family == "general":
        a = rng.normal(size=(d, d)) * rng.uniform(0.1, 1.0)
        model = MvNormalModel(-rng.uniform(0.1, 1.5, size=d),
                              a @ a.T + rng.uniform(0.05, 1.0) * np.eye(d))
    else:
        def component(kind):
            if kind == "normal":
                return Normal(-rng.uniform(0.1, 1.5), rng.uniform(0.5, 2.0))
            rate = rng.uniform(0.5, 3.0)
            return ShiftedExponential(rate,
                                      -1.0 / rate - rng.uniform(0.1, 1.5))

        kinds = [family] * d if family != "mixed" else list(
            rng.choice(["normal", "exponential"], size=d))
        comps = ([component(kinds[0])] * d if draw(st.booleans())
                 else [component(k) for k in kinds])
        model = IndependentModel(comps)
    kind = draw(st.sampled_from(["beta", "z", "s"]))
    size = {"z": L, "s": L + 1}.get(kind) or draw(st.integers(L, d))
    return model, SumIntersectionRule(L), kind, sorted(
        draw(st.permutations(range(d)))[:size])


class TestExactSumIntersection:
    @settings(max_examples=120, deadline=None)
    @given(si_programs())
    def test_certificate_and_slsqp_comparison(self, case):
        model, rule, kind, idx = case
        d, L = model.dim, rule.L
        program = {"beta": beta_program, "z": si_z_program,
                   "s": si_s_program}
        sol = solve(program[kind](idx, rule, model))
        support = np.array(idx) if kind in ("z", "s") else np.arange(d)
        signs = np.where(np.isin(support, idx), 1.0, -1.0)
        assert sol.converged and sol.method.endswith("active-set")
        assert abs(model.cgf(sol.tilt)) <= 1e-10
        assert np.all(np.delete(sol.tilt, support) == 0)
        assert np.all(signs * sol.tilt[support] >= 0)
        assert abs(sol.value - rearrangement_min(sol.tilt, L)) <= 1e-12
        # KKT signs: CGF multiplier, functional weights, sign multipliers
        assert sol.multipliers[0] > 0
        assert np.all(sol.multipliers[1:] >= -1e-10)
        assert np.all(sol.weights >= -1e-10)
        assert abs(sol.weights.sum() - 1.0) <= 1e-12
        # the SLSQP program on the same support never does better; on an
        # exponential coordinate it may step outside the CGF domain
        sub = _restrict_model(model, support)
        try:
            th = _si_dual_program(
                sub, signs, list(combinations(range(support.size), L)))[0]
        except TiltDomainError:
            assert isinstance(model, IndependentModel)
            return
        if sub.cgf(th) <= 0 and np.all(signs * th >= 0):
            assert sol.value >= rearrangement_min(th, L) - 1e-9

    def test_general_build_does_not_depend_on_blas_threads(self):
        script = (
            "import numpy as np\n"
            "from wrongexit import MvNormalModel\n"
            "from wrongexit.proposals import build_sum_intersection\n"
            "a = np.random.default_rng(5).normal(0.0, 0.3, size=(10, 10))\n"
            "cov = 0.8 * np.eye(10) + 0.1 + a @ a.T / 10\n"
            "model = MvNormalModel(np.full(10, -0.5), cov)\n"
            "prop, _ = build_sum_intersection(model, 2)\n"
            "print(len(prop), prop.thetas.tobytes().hex())\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")])}
            outs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert outs[0].split()[0] == "90"
        assert outs[0] == outs[1]

    def test_near_pole_program_certifies(self):
        # the optimum puts coordinate 4 about 7e-5 below its rate, where
        # Lambda'' is about 2e8: the stationarity residual is measured in
        # units of the curvature there, not in absolute terms
        pairs = [(2.4112046916976184, -1.6209344038914475),
                 (2.1501298446626667, -1.1514962836694111),
                 (2.5385349932483545, -1.7265604996697137),
                 (2.372119282091573, -1.8428937889829002),
                 (1.3820872770986854, -1.763727567768258),
                 (0.9861834397480527, -1.97738938048795),
                 (2.7374346149532442, -1.421698800921902)]
        model = IndependentModel([ShiftedExponential(r, s) for r, s in pairs])
        sol = solve(si_z_program([0, 1, 2, 3, 4, 6], SumIntersectionRule(6),
                                 model))
        assert 0 < pairs[4][0] - sol.tilt[4] < 1e-4
        assert sol.converged and sol.residual <= 1e-10
        assert abs(model.cgf(sol.tilt)) <= 1e-10
        assert sol.multipliers[0] > 0


@st.composite
def sign_programs(draw):
    """An independent model and one linear-objective program with the
    arguments of its ``_independent_kkt`` reference: a Siegmund beta^A, a
    gamma^{k,k'}, a gap single swap or general beta^A, or a four-index gap
    tilt.  Components are normal, shifted-exponential or mixed, i.i.d. (per
    side, for the gap rule) or not; gap heads may be exponentials with a
    positive shift."""
    kind = draw(st.sampled_from(["siegmund", "pair", "swap", "gap", "quad"]))
    gap = kind in ("swap", "gap", "quad")
    d = draw(st.integers(4 if kind == "quad" else 2, 8))
    m = (draw(st.integers(2, d - 2)) if kind == "quad" else
         draw(st.integers(1, d - 1)) if gap else 0)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    family = draw(st.sampled_from(["normal", "exponential", "mixed"]))
    kinds = [family] * d if family != "mixed" else list(
        rng.choice(["normal", "exponential"], size=d))

    def component(kind, head):
        if kind == "normal":
            mu = rng.uniform(0.1, 1.5)
            return Normal(mu if head else -mu, rng.uniform(0.5, 2.0))
        rate = rng.uniform(0.5, 3.0)
        return ShiftedExponential(rate, rng.uniform(-0.9 / rate, 1.5) if head
                                  else -1.0 / rate - rng.uniform(0.1, 1.5))

    if draw(st.booleans()):
        head, tail = component(kinds[0], True), component(kinds[-1], False)
        comps = [head] * m + [tail] * (d - m)
    else:
        comps = [component(kinds[k], k < m) for k in range(d)]
    model = IndependentModel(comps)
    perm = draw(st.permutations(range(d)))
    if kind == "pair":
        rule = SiegmundRule(1.0, rng.uniform(0.2, 3.0))
        k, kp = sorted(perm[:2])
        return (model, solve(gamma_pair_program(k, kp, rule, model)), [k, kp],
                np.full(2, rule.u), np.ones(2), False)
    if kind == "quad":
        idx = ([k for k in perm if k < m][:2]
               + [k for k in perm if k >= m][:2])
        return (model, solve(gap_quad_program(*idx, GapRule(m), model)), idx,
                np.array([0.0, 0.0, 1.0, 1.0]),
                np.array([-1.0, -1.0, 1.0, 1.0]), True)
    if not gap:
        rule = SiegmundRule(rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0))
        A = sorted(perm[:draw(st.integers(1, d))])
    elif kind == "gap":
        rule = GapRule(m)
        A = sorted(perm[:m])
        assume(A != list(range(m)))
    else:
        rule = GapRule(m)
        A = sorted(set(range(m)) - {draw(st.integers(0, m - 1))}
                   | {draw(st.integers(m, d - 1))})
    in_A = np.isin(np.arange(d), A)
    c = in_A * 1.0 if gap else np.where(in_A, rule.u, -rule.ell)
    return (model, solve(beta_program(A, rule, model)), list(range(d)), c,
            np.where(in_A, 1.0, -1.0), gap)


class TestIndependentSignPrograms:
    @settings(max_examples=150, deadline=None)
    @given(sign_programs())
    def test_certificate_and_kkt_reference(self, case):
        model, sol, support, c, signs, zero_sum = case
        assert sol.converged and sol.method.endswith(
            ("active-set", "gamma-pair", "quad"))
        assert sol.multipliers[0] > 0
        assert np.all(sol.multipliers[1:] >= -1e-10)
        assert abs(model.cgf(sol.tilt)) <= 1e-10
        ref = _independent_kkt(
            [model.components[k] for k in support], c, signs, zero_sum)
        assert abs(sol.value - ref[1]) <= 1e-9

    def test_non_finite_newton_step_ends_the_search(self):
        # a near-singular Newton system returns a -inf step (no LinAlgError)
        # at an iterate with s ~ 6e18; the line search must not evaluate
        # the residuals along it
        model = IndependentModel(
            [ShiftedExponential(1.1180190275267863, 0.8162472947629029)]
            + [ShiftedExponential(2.629515696326864, -1.661657114145941)] * 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(beta_program([1], GapRule(1), model))
        assert sol.converged
        assert abs(sol.value - 2.6283509263196367) <= 1e-12


def test_normal_model_work_imports_no_scipy():
    # numpy is the only runtime dependency: in a fresh interpreter where any
    # scipy import fails, build all three families on normal and
    # independent models (the exponential sum-intersection build included)
    # and run a small estimate
    script = """
import sys
sys.modules["scipy"] = None
import numpy as np
import wrongexit.cli
from wrongexit import (IndependentModel, MvNormalModel, Normal,
                       ShiftedExponential, SiegmundRule, SumIntersectionRule)
from wrongexit.engine import RunConfig, estimate_wrong_exit
from wrongexit.proposals import build_gap, build_siegmund, build_sum_intersection

a = np.random.default_rng(3).normal(0.0, 0.3, size=(5, 5))
cov = 0.8 * np.eye(5) + a @ a.T / 5
general = MvNormalModel(np.linspace(-0.4, -0.8, 5), cov)
build_siegmund("theta0", general, 1.0, 1.0)
build_gap("t1", MvNormalModel(np.array([0.5, 0.5, -0.5, -0.5, -0.5]), cov), 2)
build_sum_intersection(general, 2)
iid = IndependentModel([Normal(-0.5, 1.0)] * 2)
prop, _ = build_siegmund("theta1", iid, 1.0, 1.0)
run = estimate_wrong_exit(iid, prop, SiegmundRule(1.0, 1.0),
                          RunConfig(b=3.0, n_paths=20, seed=1))
assert run.n == 20
build_gap("t2", IndependentModel([Normal(0.5, 1.0)] * 2
                                 + [Normal(-0.5, 1.0)] * 3), 2)
exp = IndependentModel([ShiftedExponential(1.0, -1.5),
                        ShiftedExponential(2.0, -1.0),
                        ShiftedExponential(1.5, -1.2)])
prop, rep = build_sum_intersection(exp, 2)
run = estimate_wrong_exit(exp, prop, SumIntersectionRule(2),
                          RunConfig(b=3.0, n_paths=20, seed=1))
assert run.n == 20
print(len(prop), rep.condition)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[1] == "H-SI"


class TestVBounds:
    def test_witness_bounds_siegmund(self):
        model = exchangeable_mvnormal(5, -0.5, 0.3)
        gam_k = solve_gamma_single(0, RULE11, model)
        gam_kk = solve(gamma_pair_program(0, 1, RULE11, model))
        A = [0, 1, 3]
        bound, feasible = v_lower_bound(A, gam_k.tilt,
                                        gam_k.tilt + gam_kk.tilt, RULE11,
                                        model)
        assert feasible
        assert bound == pytest.approx(gam_k.value + gam_kk.value, abs=1e-8)
        bound2, feasible2 = v_lower_bound(A, gam_kk.tilt, 2 * gam_kk.tilt,
                                          RULE11, model)
        assert feasible2
        assert bound2 == pytest.approx(2 * gam_kk.value, abs=1e-8)

    def test_infeasible_witness(self):
        model = exchangeable_mvnormal(3, -0.5, 0.0)
        gam = solve_gamma_single(0, RULE11, model)
        bad = gam.tilt.copy()
        bad[1] = +0.5  # wrong sign for A = {0}
        bound, feasible = v_lower_bound([0], gam.tilt, bad + gam.tilt,
                                        RULE11, model)
        assert not feasible and bound == -math.inf

    def test_exact_program_dominates_witness(self):
        model = exchangeable_mvnormal(6, -0.5, 0.3)
        beta1 = solve(beta_program([0], RULE11, model))
        for m in (2, 4, 6):
            A = list(range(m))
            betaA = solve(beta_program(A, RULE11, model))
            wit, _ = v_lower_bound(A, beta1.tilt, betaA.tilt + beta1.tilt,
                                   RULE11, model)
            exact = shifted_program(A, beta1.tilt, RULE11, model)
            assert exact >= wit - 1e-9

    def test_gap_vbound_witness(self):
        mean = np.array([0.5, 0.5, -0.5, -0.5, -0.5])
        model = MvNormalModel(mean, np.eye(5))
        rule = GapRule(2)
        zt = solve(gap_pair_program(0, 2, rule, model))
        st = solve(gap_quad_program(0, 1, 2, 3, rule, model))
        A = [2, 3]  # differs from [m] in two swaps
        bound, feasible = v_lower_bound(A, zt.tilt, zt.tilt + st.tilt, rule,
                                        model)
        assert feasible
        assert bound == pytest.approx(zt.value + st.value, abs=1e-8)
        exact = shifted_program(A, zt.tilt, rule, model)
        assert exact >= bound - 1e-9


GRID = st.integers(-16, 16).map(lambda k: k / 8)


@st.composite
def certificate_stacks(draw):
    """A model, a Siegmund rule, gamma and a stack of (region, witness)
    rows.  gamma is t beta^{0} (so Lambda(gamma) <= 0) or a grid vector
    that may break Lambda(gamma) <= 0.  A row's witness is gamma + t beta^A
    (feasible, and of the right signs when gamma = 0) or a grid vector with
    or without the region's sign pattern."""
    d = draw(st.integers(2, 5))
    model = draw(st.sampled_from([
        exchangeable_mvnormal(d, -0.5, 0.0),
        exchangeable_mvnormal(d, -0.5, 0.4),
        IndependentModel([ShiftedExponential(2.0, -LOG2)] * d),
        IndependentModel([Normal(-0.5, 1.0)] * d)]))
    rule = SiegmundRule(draw(st.sampled_from([0.5, 1.0])),
                        draw(st.sampled_from([1.0, 2.0])))
    t = st.integers(0, 8).map(lambda k: k / 8)
    kind = draw(st.sampled_from(["zero", "scaled", "grid"]))
    if kind == "grid":
        gamma = draw(arrays(np.float64, d, elements=GRID))
    else:
        gamma = np.zeros(d)
        if kind == "scaled":
            gamma = draw(t) * solve(beta_program([0], rule, model)).tilt
    sets, witnesses = [], []
    for _ in range(draw(st.integers(1, 6))):
        members = draw(st.permutations(range(d)))[:draw(st.integers(1, d))]
        in_A = np.isin(np.arange(d), members)
        row = draw(st.sampled_from(["feasible", "signed", "grid"]))
        if row == "feasible":
            beta = solve(beta_program(members, rule, model))
            w = gamma + draw(t) * beta.tilt
        else:
            w = draw(arrays(np.float64, d, elements=GRID))
            if row == "signed":
                w = np.where(in_A, np.abs(w), -np.abs(w))
        sets.append(in_A)
        witnesses.append(w)
    return model, rule, gamma, np.array(sets), np.array(witnesses)


class TestBatchedVBounds:
    @settings(max_examples=150, deadline=None)
    @given(certificate_stacks())
    def test_matches_v_lower_bound_row_by_row(self, case):
        model, rule, gamma, sets, witnesses = case
        if model.cgf(gamma) > 1e-10:
            with pytest.raises(ValueError, match="Lambda\\(gamma\\) <= 0"):
                v_lower_bounds(sets, gamma, witnesses, rule, model)
            with pytest.raises(ValueError, match="Lambda\\(gamma\\) <= 0"):
                v_lower_bound(np.flatnonzero(sets[0]), gamma, witnesses[0],
                              rule, model)
            return
        got = v_lower_bounds(sets, gamma, witnesses, rule, model)
        assert got.shape == (len(sets),)
        for i, (in_A, w) in enumerate(zip(sets, witnesses)):
            bound, feasible = v_lower_bound(np.flatnonzero(in_A), gamma, w,
                                            rule, model)
            assert np.isfinite(got[i]) == feasible
            assert (got[i] == -math.inf) == (bound == -math.inf)
            if feasible:
                assert abs(got[i] - bound) <= 1e-12

    def test_rows_must_be_rare_siegmund_regions(self):
        model = exchangeable_mvnormal(3, -0.5, 0.0)
        sets = np.array([[True, False, False], [False, False, False]])
        with pytest.raises(ValueError, match="nonempty A"):
            v_lower_bounds(sets, np.zeros(3), np.zeros((2, 3)), RULE11,
                           model)
        with pytest.raises(ValueError, match="shape"):
            v_lower_bounds(sets[:1], np.zeros(3), np.zeros((2, 3)), RULE11,
                           model)
        with pytest.raises(ValueError, match="Siegmund rule only"):
            v_lower_bounds(sets[:1], np.zeros(3), np.zeros((1, 3)),
                           GapRule(1), model)
