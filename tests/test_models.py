"""CGF correctness, tilted sampling, and change-of-measure checks."""

import math
import re

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from wrongexit import proposals
from wrongexit.models import FAMILIES
from wrongexit.rootfind import RootError
from wrongexit import (
    IndependentModel,
    MvNormalModel,
    Normal,
    ShiftedExponential,
    TiltDomainError,
    exchangeable_mvnormal,
    siegmund_root,
)
from si_reference import cgf, cgf_prime, cgf_second

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
        hi = np.array([min(c.sup(), 2.0) for c in model.components])
        return rng.uniform(-1.0, 0.8) * 0.5 + rng.uniform(-0.5, 0.5, model.dim) * 0.3 * hi
    return rng.normal(scale=0.6, size=model.dim)


class TestCgfValues:
    def test_cgf_zero_at_origin_and_gradient_is_mean(self):
        for model in models_under_test():
            z = np.zeros(model.dim)
            assert abs(model.cgf(z)) <= 1e-12
            np.testing.assert_allclose(model.cgf_grad_rows([z])[0], model.mean,
                                       atol=1e-12)

    def test_mvnormal_origin(self):
        model = exchangeable_mvnormal(2, -0.5, 0.0)
        assert model.cgf(np.zeros(2)) == 0.0

    def test_shifted_exponential_root_value(self):
        comp = ShiftedExponential(2.0, -LOG2)
        assert abs(comp.lin * 1.0 + comp.k(1.0)) <= 1e-15

    def test_exchangeable_quadratic_by_hand(self):
        # -1'theta/2 + theta'Sigma theta/2 at theta=(1,1), rho=0.5: -1 + 3/2
        model = exchangeable_mvnormal(2, -0.5, 0.5)
        assert abs(model.cgf(np.ones(2)) - 0.5) <= 1e-14

    def test_exchangeable_gradient_formula(self):
        model = exchangeable_mvnormal(5, -0.5, 0.3)
        rng = np.random.default_rng(0)
        th = rng.normal(size=5)
        expect = -0.5 + model.cov @ th
        np.testing.assert_allclose(model.cgf_grad_rows([th])[0], expect,
                                   atol=1e-14)

    def test_exponential_tilted_mean(self):
        comp = ShiftedExponential(2.0, -LOG2)
        drift = IndependentModel([comp]).cgf_grad_rows([[1.0]])[0, 0]
        assert drift == pytest.approx(1.0 - LOG2, abs=1e-15)
        # paper values for this component
        assert -comp.mean == pytest.approx(0.1931, abs=1e-4)
        assert drift == pytest.approx(0.307, abs=1e-3)

    def test_domain_boundary_is_infinite(self):
        model = IndependentModel([ShiftedExponential(2.0, -LOG2)])
        assert model.cgf(np.array([2.0])) == math.inf
        assert model.cgf(np.array([2.5])) == math.inf
        with pytest.raises(TiltDomainError):
            model.cgf_grad_rows([np.array([2.0])])
        with pytest.raises(TiltDomainError):
            model.tilted_sampler(np.array([2.0]))(np.random.default_rng(0), 1)
        model = IndependentModel([ShiftedExponential(2.0, -0.69)])
        for t in (2.0, 3.0):
            assert model.cgf([t]) == math.inf
            with pytest.raises(TiltDomainError):
                model.cgf_grad_rows([[t]])

    def test_dimension_mismatch(self):
        model = exchangeable_mvnormal(3, -0.5, 0.1)
        with pytest.raises(ValueError):
            model.cgf(np.zeros(2))
        with pytest.raises(ValueError):
            model.cgf_grad_rows([np.zeros(4)])


class TestCgfRows:
    @pytest.mark.parametrize("model", models_under_test(), ids=repr)
    def test_rows_match_cgf(self, model):
        rng = np.random.default_rng(8)
        thetas = np.array([interior_tilt(model, rng) for _ in range(7)])
        got = model.cgf_rows(thetas)
        if isinstance(model, IndependentModel):
            want = [sum(cgf(c, t) for c, t in zip(model.components, th))
                    for th in thetas]
        else:
            want = [model.mean @ th + th @ model.cov @ th / 2 for th in thetas]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("model", models_under_test(), ids=repr)
    def test_marginal_is_the_law_of_a_coordinate(self, model):
        for k in range(model.dim):
            comp = model.marginal(k)
            assert comp.mean == model.mean[k]
            for t in (-0.3, 0.4):
                th = np.where(np.arange(model.dim) == k, t, 0.0)
                assert comp.lin * t + comp.k(t) == pytest.approx(
                    model.cgf(th), abs=1e-15)

    @pytest.mark.parametrize("model", models_under_test(), ids=repr)
    def test_marginal_rejects_a_coordinate_outside_the_model(self, model):
        # a negative k would read another coordinate's law from the end
        for k in (-1, -model.dim, model.dim, model.dim + 1):
            with pytest.raises(ValueError, match=f"coordinate {k} outside"):
                model.marginal(k)

    @pytest.mark.parametrize("model", models_under_test(), ids=repr)
    def test_grad_rows_match_cgf_grad(self, model):
        rng = np.random.default_rng(9)
        thetas = np.array([interior_tilt(model, rng) for _ in range(7)])
        got = model.cgf_grad_rows(thetas)
        want = [model.cgf_grad_rows([th])[0] for th in thetas]
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
        want = sum(cgf(c, t) for c, t in zip(model.components, thetas[0]))
        assert got[0] == pytest.approx(want, abs=1e-15)
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
                grad = model.cgf_grad_rows([th])[0]
                for k in range(model.dim):
                    e = np.zeros(model.dim)
                    e[k] = h
                    fd = (model.cgf(th + e) - model.cgf(th - e)) / (2 * h)
                    assert fd == pytest.approx(grad[k], rel=1e-5, abs=1e-8)


# one interior example per row of the family table: a new row needs one
EXAMPLES = {Normal: Normal(-0.5, 2.0),
            ShiftedExponential: ShiftedExponential(2.0, -LOG2)}


class TestFamilyTable:
    def test_every_family_has_an_example(self):
        assert set(EXAMPLES) == set(FAMILIES)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_row_formulas_agree(self, family):
        comp, h = EXAMPLES[family], 1e-5
        sup = comp.sup()
        lam = lambda t: comp.lin * t + comp.k(t)
        prime = lambda t: comp.lin + comp.k1(t)
        ts = np.linspace(-1.5, min(1.5, 0.8 * sup), 7)
        for t in ts:
            fd1 = (lam(t + h) - lam(t - h)) / (2 * h)
            assert fd1 == pytest.approx(prime(t), rel=1e-7)
            fd2 = (prime(t + h) - prime(t - h)) / (2 * h)
            assert fd2 == pytest.approx(comp.k2(t), rel=1e-7)
            t_inv, second = comp.k1_inverse(comp.k1(t))
            assert t_inv == pytest.approx(t, rel=1e-12, abs=1e-12)
            assert second == pytest.approx(comp.k2(t_inv), rel=1e-12)
            assert comp.k1(t) > comp.floor
        # the columns of the vectorised path give the scalar values
        cols, tc = IndependentModel([comp]).columns, ts[:, None]
        np.testing.assert_allclose(cols.cgf(tc), [cgf(comp, t) for t in ts],
                                   rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(cols.prime(tc)[:, 0],
                                   [cgf_prime(comp, t) for t in ts],
                                   rtol=1e-15)
        np.testing.assert_allclose(cols.row("k2", tc)[:, 0],
                                   [cgf_second(comp, t) for t in ts],
                                   rtol=1e-15)
        t_inv, second = cols.row("k1_inverse", cols.prime(tc) - cols.lin)
        np.testing.assert_allclose(t_inv[:, 0], ts, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(second, cols.row("k2", t_inv), rtol=1e-12)
        if math.isfinite(sup):
            for t in (sup, sup + 0.5):
                assert cols.cgf(np.array([[t]]))[0] == math.inf
                with pytest.raises(TiltDomainError):
                    IndependentModel([comp]).cgf_grad_rows([[t]])
        # the tilted draw has mean Lambda'(t)
        n, t = 400_000, ts[-2]
        x = IndependentModel([comp]).tilted_sampler([t])(
            np.random.default_rng(3), n)[:, 0]
        assert abs(x.mean() - prime(t)) <= 4 * x.std() / math.sqrt(n)


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

    def test_root_stays_inside_the_domain(self):
        # about 9e-13 below the rate: still a float inside the domain
        z = siegmund_root(ShiftedExponential(10.0, -3.0))
        assert 10.0 - 1e-11 < z < 10.0
        # about 2e-21 below it: the root rounds onto the rate
        comp = ShiftedExponential(10.0, -5.0)
        with pytest.raises(RootError, match=re.escape(repr(comp))):
            siegmund_root(comp)

    def test_root_is_cgf_zero(self):
        comp = ShiftedExponential(1.3, -1.7)
        z = siegmund_root(comp)
        assert z > 0
        assert abs(cgf(comp, z)) <= 1e-12


class TestModelValidation:
    def test_zero_drift_rejected(self):
        with pytest.raises(ValueError):
            MvNormalModel(np.array([-0.5, 0.0]), np.eye(2))
        with pytest.raises(ValueError):
            Normal(0.0, 1.0)

    @pytest.mark.parametrize("build, message", [
        (lambda: Normal(-0.5, math.nan), "sigma2"),
        (lambda: Normal(-0.5, math.inf), "sigma2"),
        (lambda: Normal(math.nan, 1.0), "mu"),
        (lambda: Normal(-math.inf, 1.0), "mu"),
        (lambda: ShiftedExponential(math.nan, -1.0), "rate"),
        (lambda: ShiftedExponential(math.inf, -1.0), "rate"),
        (lambda: ShiftedExponential(1.0, math.nan), "shift"),
        (lambda: ShiftedExponential(1.0, -math.inf), "shift"),
    ], ids=["normal-nan-sigma2", "normal-inf-sigma2", "normal-nan-mu",
            "normal-inf-mu", "exp-nan-rate", "exp-inf-rate",
            "exp-nan-shift", "exp-inf-shift"])
    def test_non_finite_component_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("components, index", [
        ([1.0], 0), ([Normal(-0.5, 1.0), "x"], 1)])
    def test_entry_that_is_no_component_is_a_type_error(self, components,
                                                        index):
        with pytest.raises(TypeError, match=rf"component {index} is .*"
                           r"\['Normal', 'ShiftedExponential'\]"):
            IndependentModel(components)

    def test_independent_model_arrays_are_read_only(self):
        model = IndependentModel([Normal(-0.5, 1.0),
                                  ShiftedExponential(2.0, -LOG2)])
        assert model.mean is model.mean
        assert list(model.mean) == [-0.5, 0.5 - LOG2]
        for a in (model.mean, *model.columns):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

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


def dense_exchangeable(mean, sigma2, rho):
    """The exchangeable model through the dense checks of ``__init__``."""
    d = len(mean)
    return MvNormalModel(
        mean, sigma2 * ((1.0 - rho) * np.eye(d) + rho * np.ones((d, d))))


def bits(x):
    return None if x is None else np.asarray(x, dtype=float).tobytes()


def flags(a):
    return {k: getattr(a.flags, k) for k in (
        "c_contiguous", "f_contiguous", "owndata", "writeable", "aligned")}


def near_boundary(d):
    """The rho probes of the boundary table: rounding margins of 1 and of
    -1/(d-1), then two interior values."""
    return [1 - 2 ** -52, 1 - 2 ** -50, 1 - 1e-14, -1 / (d - 1) + 1e-16,
            -1 / (d - 1) + 1e-14, -(1 - 1e-15) / (d - 1), 0.0, 0.9]


@st.composite
def exchangeable_inputs(draw):
    d = draw(st.integers(1, 12))
    entry = st.floats(-3.0, 3.0).filter(lambda x: x != 0.0)
    mean = (np.full(d, draw(entry)) if draw(st.booleans())
            else np.array(draw(st.lists(entry, min_size=d, max_size=d))))
    sigma2 = draw(st.sampled_from([1.0, 0.7, 3.0])
                  | st.floats(1e-3, 1e3, exclude_min=True))
    if d == 1:
        return mean, sigma2, draw(st.sampled_from([0.0, -0.0]))
    rho = draw(st.floats(-1 / (d - 1), 1.0, exclude_min=True, exclude_max=True)
               | st.sampled_from(near_boundary(d) + [-0.0]))
    return mean, sigma2, rho


class TestClosedFormExchangeable:
    @settings(max_examples=200, deadline=None)
    @given(exchangeable_inputs())
    def test_matches_the_dense_model_bitwise(self, case):
        mean, sigma2, rho = case
        try:
            want = dense_exchangeable(mean, sigma2, rho)
        except ValueError:
            with pytest.raises(ValueError):
                MvNormalModel.exchangeable(mean, sigma2, rho)
            return
        got = MvNormalModel.exchangeable(mean, sigma2, rho)
        d = len(mean)
        for a, b in ((got.mean, want.mean), (got.cov, want.cov)):
            assert a.tobytes() == b.tobytes() and flags(a) == flags(b)
        assert bits(got.exchangeable_parameters()) \
            == bits(want.exchangeable_parameters())
        thetas = np.random.default_rng(d).normal(scale=0.5, size=(4, d))
        for rows in ("cgf_rows", "cgf_grad_rows"):
            assert bits(getattr(got, rows)(thetas)) \
                == bits(getattr(want, rows)(thetas))
        comp = np.array([0, 3, 1, 3, 2])
        draws = [model.batch_sampler(thetas)(np.random.default_rng(7), comp, 3)
                 for model in (got, want)]
        assert bits(draws[0]) == bits(draws[1])
        for m in {0, d // 2}:
            assert proposals._symmetry_cuts(got, m) \
                == proposals._symmetry_cuts(want, m)

    # the dense Cholesky check rejects these 7 of the 72 probes
    REJECTED = {(10, 1.0, 1 - 2 ** -52), (10, 0.7, 1 - 2 ** -52),
                *((50, s2, 1 - 2 ** -52) for s2 in (1.0, 0.7, 3.0)),
                (50, 0.7, 1 - 2 ** -50), (50, 3.0, 1 - 2 ** -50)}

    @pytest.mark.parametrize("d", [2, 10, 50])
    @pytest.mark.parametrize("sigma2", [1.0, 0.7, 3.0])
    def test_boundary_probes_accept_what_the_dense_path_does(self, d, sigma2):
        for rho in near_boundary(d):
            try:
                dense_exchangeable(np.full(d, -0.5), sigma2, rho)
                dense = True
            except ValueError:
                dense = False
            try:
                model = exchangeable_mvnormal(d, -0.5, rho, sigma2)
                assert bits(model.exchangeable_parameters()) == bits(
                    dense_exchangeable(model.mean, sigma2, rho)
                    .exchangeable_parameters())
                got = True
            except ValueError as exc:
                assert str(exc) == (f"rho = {rho}: cov must be positive "
                                    "definite")
                got = False
            assert got is dense is ((d, sigma2, rho) not in self.REJECTED), \
                rho

    def test_input_ranges(self):
        mean = np.full(3, -0.5)
        for sigma2, rho, message in (
                (0.0, 0.2, "sigma2 = 0.0 is not positive and finite"),
                (math.inf, 0.2, "sigma2 = inf is not positive"),
                (1.0, 1.0, r"rho = 1.0 is outside \(-1/\(d-1\), 1\) = "
                           r"\(-0.5, 1\)"),
                (1.0, -0.5, "rho = -0.5 is outside"),
                (1.0, math.nan, "rho = nan is outside")):
            with pytest.raises(ValueError, match=message):
                MvNormalModel.exchangeable(mean, sigma2, rho)
        with pytest.raises(ValueError,
                           match=r"rho = 0.5 is outside \{0\} at d = 1"):
            MvNormalModel.exchangeable([-0.5], 1.0, 0.5)
        with pytest.raises(ValueError, match="strictly signed"):
            MvNormalModel.exchangeable([-0.5, 0.0], 1.0, 0.2)
        model = MvNormalModel.exchangeable([-0.5, -0.7, -0.5], 2.0, 0.3)
        assert model.exchangeable_parameters() is None
        assert np.array_equal(model.mean, [-0.5, -0.7, -0.5])


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
        want = model.cgf_grad_rows([theta])[0]
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

    @pytest.mark.parametrize("cov", [
        np.eye(4), np.diag([0.5, 2.0, 1.0, 3.7]),
        np.diag([0.5, 2.0, 1.0, 3.7]) + 0.3 * np.ones((4, 4))])
    def test_mvnormal_block_is_the_cholesky_product(self, cov):
        # a diagonal factor scales the normals, or leaves them for unit
        # variances, and gives the bits of the product by the factor
        model = MvNormalModel(np.full(4, -0.5), cov)
        rng = np.random.default_rng(9)
        thetas = rng.uniform(-0.5, 0.5, size=(3, 4))
        comp = rng.integers(0, 3, size=7)
        got = model.batch_sampler(thetas)(np.random.default_rng(2), comp, 5)
        chol_t = np.ascontiguousarray(np.linalg.cholesky(cov).T)
        z = np.random.default_rng(2).standard_normal((5 * 7, 4))
        want = (z @ chol_t).reshape(5, 7, 4)
        want += (model.mean + thetas @ cov.T)[comp]
        assert got.tobytes() == want.tobytes()

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
