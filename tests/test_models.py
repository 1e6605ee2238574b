"""CGF correctness, tilted sampling, and change-of-measure checks."""

import math

import numpy as np
import pytest

from wrongexit import (
    IndependentModel,
    MvNormalModel,
    Normal,
    ShiftedExponential,
    TiltDomainError,
    exchangeable_mvnormal,
    siegmund_root,
)

LOG2 = math.log(2.0)


def models_under_test():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3))
    cov = a @ a.T + 1.5 * np.eye(3)
    return [
        exchangeable_mvnormal(2, -0.5, 0.0),
        exchangeable_mvnormal(4, -0.5, 0.3),
        MvNormalModel(np.array([-0.4, -1.2, -0.7]), cov),
        IndependentModel([Normal(-0.5, 1.0), Normal(-1.0, 2.0)]),
        IndependentModel([ShiftedExponential(2.0, -LOG2),
                          Normal(-0.5, 1.0),
                          ShiftedExponential(3.0, -1.0)]),
    ]


def interior_tilt(model, rng):
    if isinstance(model, IndependentModel):
        hi = np.array([min(c.domain_sup, 2.0) for c in model.components])
        return rng.uniform(-1.0, 0.8) * 0.5 + rng.uniform(-0.5, 0.5, model.dim) * 0.3 * hi
    return rng.normal(scale=0.6, size=model.dim)


class TestCgfValues:
    def test_cgf_zero_at_origin_and_gradient_is_mean(self):
        for model in models_under_test():
            z = np.zeros(model.dim)
            assert abs(model.cgf(z)) <= 1e-12
            np.testing.assert_allclose(model.cgf_grad(z), model.mean,
                                       atol=1e-12)

    def test_mvnormal_origin(self):
        model = exchangeable_mvnormal(2, -0.5, 0.0)
        assert model.cgf(np.zeros(2)) == 0.0

    def test_shifted_exponential_root_value(self):
        comp = ShiftedExponential(2.0, -LOG2)
        assert abs(comp.cgf(1.0)) <= 1e-15

    def test_exchangeable_quadratic_by_hand(self):
        # -1'theta/2 + theta'Sigma theta/2 at theta=(1,1), rho=0.5: -1 + 3/2
        model = exchangeable_mvnormal(2, -0.5, 0.5)
        assert abs(model.cgf(np.ones(2)) - 0.5) <= 1e-14

    def test_exchangeable_gradient_formula(self):
        model = exchangeable_mvnormal(5, -0.5, 0.3)
        rng = np.random.default_rng(0)
        th = rng.normal(size=5)
        expect = -0.5 + model.cov @ th
        np.testing.assert_allclose(model.cgf_grad(th), expect, atol=1e-14)

    def test_exponential_tilted_mean(self):
        comp = ShiftedExponential(2.0, -LOG2)
        assert comp.cgf_prime(1.0) == pytest.approx(1.0 - LOG2, abs=1e-15)
        # paper values for this component
        assert -comp.cgf_prime(0.0) == pytest.approx(0.1931, abs=1e-4)
        assert comp.cgf_prime(1.0) == pytest.approx(0.307, abs=1e-3)

    def test_domain_boundary_is_infinite(self):
        model = IndependentModel([ShiftedExponential(2.0, -LOG2)])
        assert model.cgf(np.array([2.0])) == math.inf
        assert model.cgf(np.array([2.5])) == math.inf
        with pytest.raises(TiltDomainError):
            model.cgf_grad(np.array([2.0]))
        with pytest.raises(TiltDomainError):
            model.tilted_sampler(np.array([2.0]))(np.random.default_rng(0), 1)

    def test_dimension_mismatch(self):
        model = exchangeable_mvnormal(3, -0.5, 0.1)
        with pytest.raises(ValueError):
            model.cgf(np.zeros(2))
        with pytest.raises(ValueError):
            model.cgf_grad(np.zeros(4))


class TestCgfRows:
    @pytest.mark.parametrize("model", models_under_test(), ids=repr)
    def test_rows_match_cgf(self, model):
        rng = np.random.default_rng(8)
        thetas = np.array([interior_tilt(model, rng) for _ in range(7)])
        got = model.cgf_rows(thetas)
        want = [model.cgf(th) for th in thetas]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("model", models_under_test(), ids=repr)
    def test_grad_rows_match_cgf_grad(self, model):
        rng = np.random.default_rng(9)
        thetas = np.array([interior_tilt(model, rng) for _ in range(7)])
        got = model.cgf_grad_rows(thetas)
        want = [model.cgf_grad(th) for th in thetas]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    def test_grad_rows_outside_domain_raise(self):
        model = IndependentModel([Normal(-0.5, 1.0),
                                  ShiftedExponential(2.0, -LOG2)])
        with pytest.raises(TiltDomainError):
            model.cgf_grad_rows(np.array([[0.1, 0.5], [0.1, 2.0]]))

    def test_rows_outside_domain_are_infinite(self):
        model = IndependentModel([Normal(-0.5, 1.0),
                                  ShiftedExponential(2.0, -LOG2)])
        thetas = np.array([[0.1, 0.5], [0.1, 2.0], [-3.0, 2.5]])
        got = model.cgf_rows(thetas)
        assert got[0] == pytest.approx(model.cgf(thetas[0]), abs=1e-15)
        assert list(got[1:]) == [math.inf, math.inf]

    def test_rows_shape_and_finiteness(self):
        model = exchangeable_mvnormal(3, -0.5, 0.1)
        with pytest.raises(ValueError, match="expected"):
            model.cgf_rows(np.zeros(3))
        with pytest.raises(ValueError, match="expected"):
            model.cgf_rows(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="non-finite"):
            model.cgf_rows(np.array([[0.0, np.nan, 0.0]]))
        assert model.cgf_rows(np.zeros((0, 3))).shape == (0,)


class TestConvexityAndGradients:
    def test_convexity_spot_check(self):
        rng = np.random.default_rng(7)
        for model in models_under_test():
            for _ in range(25):
                t1 = interior_tilt(model, rng)
                t2 = interior_tilt(model, rng)
                lam = rng.uniform(0.05, 0.95)
                mid = lam * t1 + (1 - lam) * t2
                lhs = model.cgf(mid)
                rhs = lam * model.cgf(t1) + (1 - lam) * model.cgf(t2)
                assert lhs <= rhs + 1e-10

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for model in models_under_test():
            for _ in range(5):
                th = interior_tilt(model, rng)
                grad = model.cgf_grad(th)
                for k in range(model.dim):
                    e = np.zeros(model.dim)
                    e[k] = h
                    fd = (model.cgf(th + e) - model.cgf(th - e)) / (2 * h)
                    assert fd == pytest.approx(grad[k], rel=1e-5, abs=1e-8)


class TestSiegmundRoot:
    def test_normal_closed_form(self):
        assert siegmund_root(Normal(-0.5, 1.0)) == 1.0
        assert siegmund_root(Normal(-1.0, 1.0)) == 2.0

    def test_exponential_root(self):
        z = siegmund_root(ShiftedExponential(2.0, -LOG2))
        assert z == pytest.approx(1.0, abs=1e-12)

    def test_root_requires_negative_mean(self):
        with pytest.raises(ValueError):
            siegmund_root(ShiftedExponential(2.0, 1.0))

    def test_root_is_cgf_zero(self):
        comp = ShiftedExponential(1.3, -1.7)
        z = siegmund_root(comp)
        assert z > 0
        assert abs(comp.cgf(z)) <= 1e-12


class TestModelValidation:
    def test_zero_drift_rejected(self):
        with pytest.raises(ValueError):
            MvNormalModel(np.array([-0.5, 0.0]), np.eye(2))
        with pytest.raises(ValueError):
            Normal(0.0, 1.0)

    def test_non_pd_cov_rejected(self):
        with pytest.raises(ValueError):
            MvNormalModel(np.array([-1.0, -1.0]),
                          np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError):
            MvNormalModel(np.array([-1.0, -1.0]),
                          np.array([[1.0, 0.5], [0.4, 1.0]]))

    def test_exchangeable_detection(self):
        assert exchangeable_mvnormal(4, -0.5, 0.3).exchangeable_parameters() \
            == pytest.approx((-0.5, 1.0, 0.3))
        m = MvNormalModel(np.array([-0.5, -0.6]), np.eye(2))
        assert m.exchangeable_parameters() is None
        assert MvNormalModel([-0.5], [[2.0]]).exchangeable_parameters() \
            == (-0.5, 2.0, 0.0)
        for step, expect in ((5e-13, True), (2e-12, False)):
            cov = 0.7 * np.eye(4) + 0.3
            cov[1, 3] += step
            cov[3, 1] += step
            m = MvNormalModel(np.full(4, -0.5), cov)
            assert (m.exchangeable_parameters() is not None) is expect

    @pytest.mark.parametrize("mean, cov", [
        ([math.nan, -0.5], np.eye(2)),
        ([-math.inf, -0.5], np.eye(2)),
        ([-0.5, -0.5], [[math.inf, 0.0], [0.0, 1.0]]),
        ([-0.5, -0.5], [[1.0, math.nan], [math.nan, 1.0]]),
    ], ids=["nan-mean", "inf-mean", "inf-variance", "nan-covariance"])
    def test_non_finite_input_rejected(self, mean, cov):
        with pytest.raises(ValueError, match="non-finite"):
            MvNormalModel(mean, cov)

    def test_symmetry_test_matches_allclose(self):
        """The elementwise symmetry test accepts exactly the finite
        matrices that np.allclose(cov, cov.T, atol=1e-12) accepts."""
        rng = np.random.default_rng(3)
        seen = set()
        for scale in (1e-3, 1.0, 1e8):
            a = rng.normal(size=(4, 4))
            base = scale * (a @ a.T + 4 * np.eye(4))
            for step in (0.0, 5e-13, 2e-12, 1e-9, 1e-6, 1e-4):
                cov = base.copy()
                cov[0, 2] += step * scale
                want = np.allclose(cov, cov.T, atol=1e-12)
                try:
                    MvNormalModel(np.full(4, -0.5), cov)
                    got = True
                except ValueError as exc:
                    assert "symmetric" in str(exc)
                    got = False
                assert got == want, (scale, step)
                seen.add(got)
        assert seen == {True, False}


class TestTiltedSampling:
    @pytest.mark.parametrize("model,theta", [
        (exchangeable_mvnormal(3, -0.5, 0.4), np.array([0.8, -0.2, 0.1])),
        (IndependentModel([ShiftedExponential(2.0, -LOG2),
                           Normal(-0.5, 1.0)]), np.array([0.8718, -0.3])),
    ])
    def test_empirical_mean_matches_gradient(self, model, theta):
        rng = np.random.default_rng(42)
        n = 1_000_000
        draws = model.tilted_sampler(theta)(rng, n)
        want = model.cgf_grad(theta)
        got = draws.mean(axis=0)
        sd = draws.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(got - want) <= 4 * sd)

    def test_zero_tilt_is_base_distribution(self):
        model = IndependentModel([ShiftedExponential(2.0, -LOG2)])
        rng = np.random.default_rng(1)
        draws = model.tilted_sampler(np.zeros(1))(rng, 200_000)[:, 0]
        assert draws.min() >= -LOG2
        assert draws.mean() == pytest.approx(0.5 - LOG2, abs=4 * 0.5 / math.sqrt(200_000))

    def test_tilted_exponential_is_rate_shifted(self):
        # tilting Exp(2)+c by t gives Exp(2-t)+c: check the empirical rate
        t = 0.8718
        comp = ShiftedExponential(2.0, -LOG2)
        rng = np.random.default_rng(2)
        draw = IndependentModel([comp]).tilted_sampler([t])
        draws = draw(rng, 400_000)[:, 0] + LOG2
        assert draws.mean() == pytest.approx(1.0 / (2.0 - t), rel=0.01)

    def test_single_draw_shape(self):
        model = exchangeable_mvnormal(3, -0.5, 0.2)
        x = model.tilted_sampler(np.zeros(3))(np.random.default_rng(0), 1)[0]
        assert x.shape == (3,)

    def test_batch_sampler_matches_per_component_reference(self):
        comps = [Normal(-0.5, 2.0), ShiftedExponential(2.0, -LOG2),
                 Normal(0.3, 0.5), ShiftedExponential(1.5, -1.0)]
        model = IndependentModel(comps)
        rng = np.random.default_rng(5)
        thetas = rng.uniform(-1.0, 1.4, size=(6, 4))
        comp = rng.integers(0, 6, size=9)
        got = model.batch_sampler(thetas)(np.random.default_rng(1), comp, 3)
        # per-component loop: loc + scale * Z, Z drawn family by family
        draw = np.random.default_rng(1)
        want = np.empty((3, 9, 4))
        want[..., [0, 2]] = draw.standard_normal((3, 9, 2))
        want[..., [1, 3]] = draw.standard_exponential((3, 9, 2))
        for k, c in enumerate(comps):
            t = thetas[comp, k]
            if isinstance(c, Normal):
                want[..., k] *= math.sqrt(c.sigma2)
                want[..., k] += c.mu + c.sigma2 * t
            else:
                want[..., k] *= 1.0 / (c.rate - t)
                want[..., k] += c.shift
        assert np.array_equal(got, want)
        thetas[4, 3] = 1.5  # the exponential rate: outside the domain
        with pytest.raises(TiltDomainError):
            model.batch_sampler(thetas)


class TestChangeOfMeasure:
    @pytest.mark.parametrize("model,theta,n", [
        (exchangeable_mvnormal(2, -0.5, 0.3), np.array([0.6, -0.1]), 4),
        (IndependentModel([ShiftedExponential(2.0, -LOG2),
                           Normal(-0.5, 1.0),
                           Normal(-1.0, 0.5)]),
         np.array([0.5, 0.4, -0.2]), 3),
    ])
    def test_identity_on_bounded_functional(self, model, theta, n):
        """E_theta[exp(-theta.S_n + n Lambda(theta)) g(S_n)] = E[g(S_n)]."""
        n_rep = 400_000
        lam = model.cgf(theta)

        def g(s):
            return np.tanh(s.sum(axis=1))

        rng = np.random.default_rng(11)
        tilted = model.tilted_sampler(theta)(rng, n_rep * n)
        tilted = tilted.reshape(n_rep, n, model.dim)
        s_tilted = tilted.sum(axis=1)
        w = np.exp(-(s_tilted @ theta) + n * lam) * g(s_tilted)

        base = model.tilted_sampler(np.zeros(model.dim))(rng, n_rep * n)
        base = base.reshape(n_rep, n, model.dim)
        v = g(base.sum(axis=1))

        se = math.hypot(w.std(ddof=1) / math.sqrt(n_rep),
                        v.std(ddof=1) / math.sqrt(n_rep))
        assert abs(w.mean() - v.mean()) <= 4 * se
