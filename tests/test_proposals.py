"""Mixture assembly, condition boundaries, and manifest round-trips."""

from itertools import combinations
import json
import math

import numpy as np
import pytest

from wrongexit import (
    IndependentModel,
    MvNormalModel,
    Normal,
    ShiftedExponential,
    SiegmundRule,
    exchangeable_mvnormal,
)
import wrongexit.proposals as proposals
from wrongexit.proposals import (
    MixtureProposal,
    build_gap,
    build_siegmund,
    build_sum_intersection,
    check_direct_siegmund_homogeneous,
    direct_certificate,
)
from wrongexit.solvers import (
    CGF_TOL,
    SolverError,
    TiltSolution,
    beta_program,
    siegmund_profiles,
)
from si_reference import (_independent_kkt, solve, v_lower_bound,
                          v_lower_bounds)

LOG2 = math.log(2.0)


def tilt_rows(prop):
    return {tuple(np.round(t, 10)) for t in prop.thetas}


def per_side_normal(d, m, rho):
    mean = np.array([0.5] * m + [-0.5] * (d - m))
    return MvNormalModel(mean, (1 - rho) * np.eye(d) + rho * np.ones((d, d)))


def random_normal(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) * 0.2
    return MvNormalModel(-0.5 - 0.1 * np.arange(d), a @ a.T + np.eye(d))


def symmetry_off(monkeypatch):
    """Make every model look asymmetric: one block per coordinate."""
    monkeypatch.setattr(proposals, "_symmetry_cuts",
                        lambda model, m=0: list(range(model.dim + 1)))


def reference_beta(A, rule, model):
    """The solved ``beta_program``, except that an independent model takes
    the KKT root search of ``si_reference``, the root search of
    homogeneous_profile."""
    if not isinstance(model, IndependentModel):
        return solve(beta_program(A, rule, model))
    in_A = np.isin(np.arange(model.dim), A)
    th, val = _independent_kkt(model.components,
                               np.where(in_A, rule.u, -rule.ell),
                               np.where(in_A, 1.0, -1.0))[:2]
    return TiltSolution(val, th, True, 0.0, "reference")


def direct_reference(model, ell, u):
    """The direct check one size at a time: reference_beta and
    v_lower_bound for A = {0..m-1}, m = 2..d.  Returns (betas by size, lhs,
    rhs, margins)."""
    rule = SiegmundRule(ell, u)
    d = model.dim
    betas = [None] + [reference_beta(list(range(a)), rule, model)
                      for a in range(1, d + 1)]
    beta1 = betas[1].tilt
    rhs = 2 * betas[1].value
    vals = {}
    for m in range(2, d + 1):
        bound, feasible = v_lower_bound(list(range(m)), beta1,
                                        betas[m].tilt + beta1, rule, model)
        vals[f"m={m}"] = bound if feasible else -math.inf
    lhs = min(vals.values())
    return betas, lhs, rhs, {k: v - rhs for k, v in vals.items()}


class TestSiegmundBuilders:
    def test_variant_nesting_and_sizes(self):
        model = exchangeable_mvnormal(6, -0.5, 0.3)
        p0, _ = build_siegmund("theta0", model, 1.0, 1.0)
        p1, _ = build_siegmund("theta1", model, 1.0, 1.0)
        p2, _ = build_siegmund("theta2", model, 1.0, 1.0)
        assert len(p0) == 6
        assert len(p1) <= 2 * 6
        assert len(p2) <= 6 * 7 // 2
        assert tilt_rows(p0) <= tilt_rows(p1)
        assert tilt_rows(p0) <= tilt_rows(p2)

    def test_h1_boundary_rho(self):
        for rho, expect in [(0.45, True), (0.46, False)]:
            model = exchangeable_mvnormal(50, -0.5, rho)
            _, rep = build_siegmund("theta1", model, 1.0, 1.0)
            assert rep.condition == "H1"
            assert rep.holds is expect

    def test_h2_boundary_rho(self):
        for rho, expect in [(0.54, True), (0.55, False)]:
            model = exchangeable_mvnormal(50, -0.5, rho)
            _, rep = build_siegmund("theta2", model, 1.0, 1.0)
            assert rep.condition == "H2"
            assert rep.holds is expect

    def test_h1_implies_h2(self):
        for rho in (0.0, 0.2, 0.4, 0.5, 0.6, 0.8):
            model = exchangeable_mvnormal(12, -0.5, rho)
            _, r1 = build_siegmund("theta1", model, 1.0, 1.0)
            _, r2 = build_siegmund("theta2", model, 1.0, 1.0)
            if r1.holds:
                assert r2.holds

    def test_failed_condition_keeps_proposal_with_warning(self):
        model = exchangeable_mvnormal(20, -0.5, 0.8)
        prop, rep = build_siegmund("theta1", model, 1.0, 1.0)
        assert not rep.holds
        assert rep.warning is not None
        assert len(prop) > 0

    def test_exchangeability_collapse(self):
        # per-k solves agree with the permuted representative to 1e-9
        model = exchangeable_mvnormal(7, -0.5, 0.35)
        prop, _ = build_siegmund("theta0", model, 1.0, 1.0)
        rule = SiegmundRule(1.0, 1.0)
        for k in (0, 3, 6):
            direct = solve(beta_program([k], rule, model))
            row = prop.thetas[k]
            np.testing.assert_allclose(row, direct.tilt, atol=1e-9)

    def test_dedup_iid_normal(self):
        # ell = u = 1 iid normal: beta^{k} = gamma^k, so theta1 shrinks to d
        model = IndependentModel([Normal(-0.5, 1.0)] * 5)
        p1, _ = build_siegmund("theta1", model, 1.0, 1.0)
        assert len(p1) == 5
        assert all("beta" in lab and "gamma" in lab for lab in p1.provenance)

    def test_exponential_no_dedup(self):
        model = IndependentModel([ShiftedExponential(2.0, -LOG2)] * 5)
        p1, _ = build_siegmund("theta1", model, 1.0, 1.0)
        assert len(p1) == 10

    def test_d1_classical_case(self):
        model = MvNormalModel(np.array([-0.5]), np.array([[1.0]]))
        prop, rep = build_siegmund("theta0", model, 1.0, 1.0)
        assert len(prop) == 1
        assert rep.holds
        assert prop.thetas[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_direct_check_iid_theorem(self):
        # d >= 2 + 2 ell/u implies the direct condition holds
        comp = ShiftedExponential(2.0, -LOG2)
        for d, ell, u in [(4, 1.0, 1.0), (6, 1.0, 1.0), (3, 1.0, 2.0),
                          (8, 1.0, 0.5)]:
            if d >= 2 + 2 * ell / u:
                model = IndependentModel([comp] * d)
                rep = check_direct_siegmund_homogeneous(model, ell, u)
                assert rep.holds, (d, ell, u)

    def test_direct_check_rejects_non_exchangeable(self):
        model = IndependentModel([Normal(-0.5, 1.0), Normal(-0.9, 2.0)])
        with pytest.raises(ValueError):
            check_direct_siegmund_homogeneous(model, 1.0, 1.0)

    def test_direct_check_matches_per_size_reference(self):
        branches = set()
        for d in (2, 3, 7, 20):
            for rho in (-0.9 / (d - 1), 0.0, 0.85):
                model = exchangeable_mvnormal(d, -0.5, rho)
                for u in (0.2, 1.0, 3.0):
                    for ell in (0.5, 1.0, 4.0):
                        case = (d, rho, u, ell)
                        betas, lhs, rhs, margins = direct_reference(
                            model, ell, u)
                        rep = check_direct_siegmund_homogeneous(model, ell, u)
                        assert rep.holds == (lhs >= rhs - 1e-12), case
                        assert rep.lhs == pytest.approx(lhs, abs=1e-9), case
                        assert rep.rhs == pytest.approx(rhs, abs=1e-9), case
                        assert rep.margins.keys() == margins.keys(), case
                        for key, ref in margins.items():
                            got = rep.margins[key]
                            assert np.isneginf(got) == np.isneginf(ref), case
                            if math.isfinite(ref):
                                assert got == pytest.approx(ref, abs=1e-9)
                        vp, vm, r = (x[0] for x in siegmund_profiles(
                            [model], ell, [u])[:3])
                        for a in range(1, d + 1):
                            tilt = np.where(np.arange(d) < a, vp[a], vm[a])
                            np.testing.assert_allclose(
                                tilt, betas[a].tilt, rtol=0, atol=1e-9)
                            assert r[a] == pytest.approx(betas[a].value,
                                                         abs=1e-9)
                            if a < d:
                                branches.add("pinned" if vm[a] == 0.0
                                             else "free")
        assert branches == {"pinned", "free"}

    def test_direct_check_iid_matches_per_size_reference(self):
        model = IndependentModel([ShiftedExponential(2.0, -LOG2)] * 6)
        for ell, u in [(1.0, 1.0), (1.0, 0.2), (4.0, 3.0), (0.5, 1.0)]:
            _, lhs, rhs, margins = direct_reference(model, ell, u)
            rep = check_direct_siegmund_homogeneous(model, ell, u)
            assert (rep.lhs, rep.rhs, rep.margins) == (lhs, rhs, margins)
            assert rep.holds == (lhs >= rhs - 1e-12)

    @pytest.mark.parametrize("model", [
        exchangeable_mvnormal(12, -0.5, 0.3),
        IndependentModel([ShiftedExponential(2.0, -LOG2)] * 12)],
        ids=["normal", "iid-exponential"])
    def test_direct_check_is_one_batched_certificate(self, monkeypatch,
                                                     model):
        """The check is one stacked certificate over one cell, and no
        CGF is evaluated over a (d-1) x d witness stack; ``cmd_table``
        makes one stacked call for all its cells
        (``test_table_certifies_all_cells_in_one_stacked_call``)."""
        calls = {"direct_certificate": 0, "cgf": 0, "witness_rows": 0}
        certify = proposals.direct_certificate
        cgf, cgf_rows = type(model).cgf, type(model).cgf_rows

        def counted(*args):
            calls["direct_certificate"] += 1
            return certify(*args)

        def counted_cgf(self, theta):
            calls["cgf"] += 1
            return cgf(self, theta)

        def counted_rows(self, thetas):
            calls["witness_rows"] += np.shape(thetas) == (11, 12)
            return cgf_rows(self, thetas)

        monkeypatch.setattr(proposals, "direct_certificate", counted)
        monkeypatch.setattr(type(model), "cgf", counted_cgf)
        monkeypatch.setattr(type(model), "cgf_rows", counted_rows)
        rep = check_direct_siegmund_homogeneous(model, 1.0, 1.0)
        assert calls == {"direct_certificate": 1, "cgf": 0, "witness_rows": 0}
        assert list(rep.margins) == [f"m={m}" for m in range(2, 13)]

    def test_margins_beyond_the_cap_are_counted(self):
        model = exchangeable_mvnormal(203, -0.5, 0.3)
        rep = check_direct_siegmund_homogeneous(model, 1.0, 1.0)
        assert len(rep.margins) == 200 and rep.margins_dropped == 2
        assert set(rep.margins) < {f"m={m}" for m in range(2, 204)}
        prop, built = build_siegmund("theta0", model, 1.0, 1.0)
        assert built.margins_dropped == 2
        man = json.loads(json.dumps(prop.to_manifest(built)))
        assert man["report"]["margins_dropped"] == 2
        assert proposals.EfficiencyReport(**man["report"]).as_dict() \
            == built.as_dict()
        del man["report"]["margins_dropped"]  # a manifest from before
        assert proposals.EfficiencyReport(
            **man["report"]).margins_dropped == 0
        small = check_direct_siegmund_homogeneous(
            exchangeable_mvnormal(20, -0.5, 0.3), 1.0, 1.0)
        assert small.as_dict()["margins_dropped"] == 0

    def test_theta0_on_non_exchangeable_model_is_not_checked(self):
        model = IndependentModel([Normal(-0.5, 1.0), Normal(-0.9, 2.0)])
        _, rep = build_siegmund("theta0", model, 1.0, 1.0)
        assert rep.condition == "direct" and not rep.holds
        assert "not checked" in rep.warning
        assert "not exchangeable" in rep.warning

    def test_theta0_propagates_direct_check_errors(self, monkeypatch):
        import wrongexit.proposals as proposals

        def broken(model, ell, u):
            raise ValueError("broken direct check")

        monkeypatch.setattr(proposals, "check_direct_siegmund_homogeneous",
                            broken)
        model = exchangeable_mvnormal(4, -0.5, 0.2)
        with pytest.raises(ValueError, match="broken direct check"):
            build_siegmund("theta0", model, 1.0, 1.0)

    def test_direct_boundary_u1(self):
        for rho, expect in [(0.50, True), (0.51, False)]:
            model = exchangeable_mvnormal(50, -0.5, rho)
            rep = check_direct_siegmund_homogeneous(model, 1.0, 1.0)
            assert rep.holds is expect


def direct_cells():
    """Cells (model, u) by (d, ell) on the reference grids of
    ``test_direct_check_matches_per_size_reference`` (negative rho
    included) and of the i.i.d. test, with i.i.d. cells added to each
    group: exponential ones and normal ones whose off-region bound binds
    for some sizes."""
    exp6 = IndependentModel([ShiftedExponential(2.0, -LOG2)] * 6)
    groups = {(6, 1.0): [(exp6, 1.0), (exp6, 0.2)], (6, 4.0): [(exp6, 3.0)],
              (6, 0.5): [(exp6, 1.0)]}
    for d in (2, 3, 7, 20):
        iid = [IndependentModel([ShiftedExponential(2.0, -LOG2)] * d),
               IndependentModel([Normal(-0.5, 2.0)] * d)]
        for ell in (0.5, 1.0, 4.0):
            groups[(d, ell)] = [
                (exchangeable_mvnormal(d, -0.5, rho), u)
                for rho in (-0.9 / (d - 1), 0.0, 0.85)
                for u in (0.2, 1.0, 3.0)] + [
                (model, u) for model in iid for u in (0.2, 1.0)]
    return groups


class TestDirectCertificate:
    @pytest.mark.parametrize("per_slice", [None, 1, 2],
                             ids=["one-slice", "slices-of-1", "slices-of-2"])
    def test_stacked_cells_match_each_cell_alone(self, monkeypatch,
                                                 per_slice):
        branches, outcomes = set(), set()
        for (d, ell), cells in direct_cells().items():
            alone = [direct_certificate([model], ell, [u])
                     for model, u in cells]
            if per_slice is not None:  # slices of per_slice cells
                monkeypatch.setattr(proposals, "BLOCK_VALUES",
                                    4 * d * d * per_slice)
            models, us = zip(*cells)
            stacked = direct_certificate(list(models), ell, us)
            for j, (model, u) in enumerate(cells):
                one = alone[j]
                assert stacked.vals[j].tobytes() == one.vals[0].tobytes()
                assert stacked.r_star[j].tobytes() == \
                    one.r_star[0].tobytes()
                assert stacked.holds[j] == one.holds[0]
                rep = check_direct_siegmund_homogeneous(model, ell, u)
                assert (rep.holds, rep.lhs, rep.rhs, rep.r_star) == (
                    one.holds[0], one.lhs[0], one.rhs[0], one.r_star[0])
                vm = siegmund_profiles([model], ell, [u])[1][0, 1:d]
                branches.update(np.where(vm == 0.0, "pinned", "free"))
                outcomes.add(bool(one.holds[0]))
        assert branches == {"pinned", "free"}
        assert outcomes == {True, False}

    def test_two_block_feasibility_matches_explicit_cgf_rows(self):
        """On the reference grids the two-block CGF values of the profile
        tilts match ``cgf_rows`` over the explicit tilts, the feasibility
        flags match those of the explicit shifted witnesses, and every
        cell's bounds are bit for bit those of the row-wise oracle."""
        for (d, ell), cells in direct_cells().items():
            models, us = zip(*cells)
            vp, vm, _, lam = siegmund_profiles(models, ell, us)
            sets = np.arange(d) < np.arange(1, d + 1)[:, None]
            for j, (model, u) in enumerate(cells):
                betas = np.where(sets, vp[j, 1:, None], vm[j, 1:, None])
                np.testing.assert_allclose(lam[j, 1:], model.cgf_rows(betas),
                                           rtol=0, atol=1e-12)
                witnesses = betas[1:] + betas[0]
                explicit = model.cgf_rows(witnesses - betas[0]) <= CGF_TOL
                np.testing.assert_array_equal(lam[j, 2:] <= CGF_TOL, explicit)
                ref = v_lower_bounds(sets[1:], betas[0], witnesses,
                                     SiegmundRule(ell, u), model)
                got = direct_certificate([model], ell, [u]).vals[0]
                assert got.tobytes() == ref.tobytes(), (d, ell, j)

    def test_cells_must_share_one_dimension(self):
        models = [exchangeable_mvnormal(3, -0.5, 0.0),
                  exchangeable_mvnormal(4, -0.5, 0.0)]
        with pytest.raises(ValueError, match="dimensions 3 and 4"):
            direct_certificate(models, 1.0, [1.0, 1.0])
        with pytest.raises(ValueError, match="dimensions 3 and 4"):
            siegmund_profiles(models, 1.0, [1.0, 1.0])


class TestGapBuilders:
    def exchangeable_gap_model(self, d=10, m=5, rho=0.1):
        mean = np.array([0.5] * m + [-0.5] * (d - m))
        cov = (1 - rho) * np.eye(d) + rho * np.ones((d, d))
        return MvNormalModel(mean, cov)

    def test_sizes_and_nesting(self):
        model = self.exchangeable_gap_model()
        t0, _ = build_gap("t0", model, 5)
        t1, _ = build_gap("t1", model, 5)
        t2, _ = build_gap("t2", model, 5)
        assert len(t0) == 25
        assert len(t1) <= 2 * 25
        assert len(t2) <= 25 + math.comb(5, 2) * math.comb(5, 2)
        assert tilt_rows(t0) <= tilt_rows(t1)
        assert tilt_rows(t0) <= tilt_rows(t2)

    def test_exchangeable_t0_equals_t1(self):
        # swap tilts coincide with the two-index tilts: Theta~0 = Theta~1
        model = self.exchangeable_gap_model()
        t0, rep0 = build_gap("t0", model, 5)
        t1, _ = build_gap("t1", model, 5)
        assert rep0.holds
        assert len(t1) == len(t0)

    def test_h1p_implies_h2p_indep_normals(self):
        d, m = 8, 4
        for v in (0.2, 1.0, 3.0, 8.0):
            comps = [Normal(0.5, 1.0)] * m + [Normal(-0.5, v)] * (d - m)
            model = IndependentModel(comps)
            _, r1 = build_gap("t1", model, m)
            _, r2 = build_gap("t2", model, m)
            if r1.holds:
                assert r2.holds

    def test_indep_normal_v_window_d50(self):
        # paper window: (H1') holds on v in (0.15, 6.95), (H2') on
        # (0.071, 14.15); exact crossings are slightly wider
        from wrongexit.solvers import gap_pair_program, gap_quad_program
        d, m = 50, 25
        rule_checks = {}
        for v in (0.13, 0.16, 6.9, 7.1, 0.065, 0.08, 14.0, 14.4):
            comps = [Normal(0.5, 1.0)] * m + [Normal(-0.5, v)] * (d - m)
            model = IndependentModel(comps)
            from wrongexit.regions import GapRule
            rule = GapRule(m)
            A = sorted(set(range(m)) - {0} | {m})
            r = solve(beta_program(A, rule, model)).value
            zt = solve(gap_pair_program(0, m, rule, model)).value
            st = solve(gap_quad_program(0, 1, m, m + 1, rule, model)).value
            rule_checks[v] = (zt + st >= 2 * r - 1e-12,
                              2 * st >= 2 * r - 1e-12)
        assert not rule_checks[0.13][0] and rule_checks[0.16][0]
        assert rule_checks[6.9][0] and not rule_checks[7.1][0]
        assert not rule_checks[0.065][1] and rule_checks[0.08][1]
        assert rule_checks[14.0][1] and not rule_checks[14.4][1]

    def test_t0_names_why_h1p_was_not_checked(self, monkeypatch):
        model = IndependentModel([Normal(0.5, 1.0)] * 4
                                 + [Normal(-0.5, 2.0)] * 4)
        _, rep = build_gap("t0", model, 4)
        assert not rep.holds and rep.lhs == -math.inf
        assert rep.margins == {"theta0 != theta1": -math.inf}
        assert rep.warning.startswith("(H1') not checked")
        assert "theta0 != theta1" in rep.warning
        # without symmetry, 190 * 190 representative quads exceed the cap
        symmetry_off(monkeypatch)
        _, rep = build_gap("t0", per_side_normal(40, 20, 0.1), 20)
        assert not rep.holds
        assert rep.margins == {"check skipped": -math.inf}
        assert rep.warning == ("(H1') not checked: 36100 four-index "
                               "programs, above the cap 20000")

    def test_gap_m_bounds(self):
        model = self.exchangeable_gap_model(6, 2)
        with pytest.raises(ValueError):
            build_gap("t0", MvNormalModel(np.array([0.5, -0.5, -0.5]),
                                          np.eye(3)), 1)


class TestSumIntersectionBuilder:
    def test_sizes_paper_counts(self):
        model = exchangeable_mvnormal(50, -0.5, 0.1)
        prop, rep = build_sum_intersection(model, 2)
        assert len(prop) == 2450
        assert rep.holds
        prop3, _ = build_sum_intersection(model, 3)
        assert len(prop3) == 39200

    def test_hsi_boundaries(self):
        for L, rho, expect in [(2, 0.23, True), (2, 0.24, False),
                               (3, 0.14, True), (3, 0.15, False)]:
            model = exchangeable_mvnormal(50, -0.5, rho)
            _, rep = build_sum_intersection(model, L)
            assert rep.holds is expect, (L, rho)

    def test_component_cap(self, monkeypatch):
        monkeypatch.setattr(proposals, "SI_COMPONENT_CAP", 30000)
        model = exchangeable_mvnormal(50, -0.5, 0.1)
        with pytest.raises(SolverError, match="39200"):
            build_sum_intersection(model, 3)

    def test_general_model_small_d(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4)) * 0.2
        cov = a @ a.T + np.eye(4)
        model = MvNormalModel(np.array([-0.5, -0.7, -0.6, -0.9]), cov)
        prop, rep = build_sum_intersection(model, 2)
        # coinciding beta/gamma tilts may merge; the set never exceeds 2C(d,L)
        assert math.comb(4, 2) <= len(prop) <= 2 * math.comb(4, 2)
        assert math.isfinite(rep.lhs)
        assert np.all(prop.lambdas <= 1e-8)


class TestOrbitSolves:
    def test_symmetry_cuts(self):
        cuts = proposals._symmetry_cuts
        assert cuts(exchangeable_mvnormal(5, -0.5, 0.3)) == [0, 5]
        assert cuts(per_side_normal(6, 3, 0.1), 3) == [0, 3, 6]
        assert cuts(per_side_normal(6, 3, 0.1)) == list(range(7))
        per_side = IndependentModel([Normal(0.5, 1.0)] * 3
                                    + [Normal(-0.5, 2.0)] * 2)
        assert cuts(per_side, 3) == [0, 3, 5]
        assert cuts(per_side, 2) == list(range(6))
        assert cuts(random_normal(4, 1)) == list(range(5))

    def test_m0_accepts_exactly_the_exchangeable_models(self):
        def exchangeable(model):
            if isinstance(model, MvNormalModel):
                return model.exchangeable_parameters() is not None
            return model.is_iid()

        base = exchangeable_mvnormal(4, -0.5, 0.2)
        models = [base, random_normal(4, 2),
                  IndependentModel([Normal(-0.5, 1.0)] * 3),
                  IndependentModel([Normal(-0.5, 1.0), Normal(-0.5, 2.0)])]
        for eps in (1e-13, 1e-9):
            models.append(MvNormalModel(base.mean + [0, 0, 0, eps], base.cov))
            cov = base.cov.copy()
            cov[0, 1] = cov[1, 0] = cov[0, 1] + eps
            models.append(MvNormalModel(base.mean, cov))
        got = [len(proposals._symmetry_cuts(mod)) == 2 for mod in models]
        assert got == [exchangeable(mod) for mod in models]
        assert got.count(True) == 4

    def test_symmetry_off_equivalence(self, monkeypatch):
        sieg = exchangeable_mvnormal(5, -0.5, 0.3)
        gap = IndependentModel([Normal(0.5, 1.0)] * 3
                               + [Normal(-0.5, 2.0)] * 3)
        builds = [(build_siegmund, (v, sieg, 1.0, 1.0))
                  for v in ("theta0", "theta1", "theta2")]
        builds += [(build_gap, (v, gap, 3)) for v in ("t0", "t1", "t2")]
        builds.append((build_sum_intersection,
                       (exchangeable_mvnormal(5, -0.5, 0.1), 2)))
        reduced = [build(*args) for build, args in builds]
        symmetry_off(monkeypatch)
        for (build, args), (p1, r1) in zip(builds, reduced):
            p2, r2 = build(*args)
            assert p1.provenance == p2.provenance, args[0]
            np.testing.assert_allclose(p1.thetas, p2.thetas, rtol=0,
                                       atol=1e-9)
            np.testing.assert_allclose(p1.lambdas, p2.lambdas, rtol=0,
                                       atol=1e-9)
            if args[0] == "theta0":
                # the direct check needs exchangeability
                assert "not checked" in r2.warning
                continue
            assert r1.holds == r2.holds, args[0]
            assert r1.lhs == pytest.approx(r2.lhs, abs=1e-9)
            assert r1.rhs == pytest.approx(r2.rhs, abs=1e-9)

    def test_zero_sign_does_not_split_components(self, monkeypatch):
        # with symmetry off, beta[{1,2,4}] and gap_pair[0,4] of this model
        # differ by 4e-16, and one has -0.0 where the other has 0.0
        model = per_side_normal(6, 3, 0.1)
        symmetric, _ = build_gap("t1", model, 3)
        symmetry_off(monkeypatch)
        general, _ = build_gap("t1", model, 3)
        assert len(general) == len(symmetric) == 9
        assert "beta[{1,2,4}]=gap_pair[0,4]" in general.provenance

    def test_one_solve_per_si_s_program(self, monkeypatch):
        calls = []
        program = proposals.si_s_program

        def counted(B, rule, model):
            calls.append(tuple(B))
            return program(B, rule, model)

        monkeypatch.setattr(proposals, "si_s_program", counted)
        build_sum_intersection(random_normal(5, 3), 2)
        assert sorted(calls) == list(combinations(range(5), 3))


    def test_non_converged_solve_is_an_error(self, monkeypatch):
        from wrongexit import active_set

        model = random_normal(4, 3)
        solve = active_set.block_solve

        def stalled(programs):
            sols = solve(programs)
            for sol in sols:
                if sol.method == "si/s-active-set":
                    sol.converged, sol.residual = False, 3e-6
            return sols

        monkeypatch.setattr(active_set, "block_solve", stalled)
        with pytest.raises(SolverError) as err:
            build_sum_intersection(model, 2)
        msg = str(err.value)
        assert msg.startswith("s program on pattern (0, 1, 2): ")
        assert "si/s-active-set did not converge (residual 3.000e-06)" in msg

    def test_raised_solve_error_names_its_pattern(self, monkeypatch):
        """A SolverError raised for one program of a builder's block names
        that program's pattern."""
        from wrongexit import active_set

        solve, failed = active_set._si_active_set, []

        def second_z_fails(block):
            out = solve(block)
            if block[0].method == "si/z-active-set" and len(block) > 1:
                failed.append(tuple(block[1].support.tolist()))
                out[1] = SolverError("si/z-active-set: degenerate working set")
            return out

        monkeypatch.setattr(active_set, "_si_active_set", second_z_fails)
        with pytest.raises(SolverError) as err:
            build_sum_intersection(random_normal(5, 3), 2)
        assert str(err.value) == (f"z program on pattern {failed[0]}: "
                                  "si/z-active-set: degenerate working set")


class TestMixtureProposal:
    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            MixtureProposal(np.ones((1, 2)), np.array([0.5]), ["x"],
                            {"kind": "siegmund"})

    def test_manifest_roundtrip_bitwise(self):
        model = exchangeable_mvnormal(8, -0.5, 0.25)
        prop, rep = build_siegmund("theta1", model, 1.0, 1.0)
        man = prop.to_manifest(rep)
        blob = json.dumps(man)
        back = MixtureProposal.from_manifest(json.loads(blob))
        assert np.array_equal(back.lambdas, prop.lambdas)
        assert np.array_equal(back.thetas, prop.thetas)
        assert back.provenance == prop.provenance
        assert back.check_lambdas(model) <= 1e-10

    def test_no_duplicates_after_dedup(self):
        thetas = np.array([[1.0, 0.0], [1.0, 1e-13], [0.0, 1.0]])
        prop = MixtureProposal(thetas, np.zeros(3) - 1e-12,
                               ["a", "b", "c"], {"kind": "x"})
        assert len(prop) == 2
        assert prop.provenance[0] == "a=b"

    def test_all_lambdas_nonpositive(self):
        model = exchangeable_mvnormal(6, -0.5, 0.2)
        for variant in ("theta0", "theta1", "theta2"):
            prop, _ = build_siegmund(variant, model, 1.0, 1.0)
            assert np.all(prop.lambdas <= 1e-10)
