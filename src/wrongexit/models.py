"""Increment-distribution families with exact cumulant generating functions.

Every family exposes the cumulant generating function (CGF)

    Lambda(theta) = log E[exp(theta . X_1)],

its gradient grad Lambda(theta) = E_theta[X_1], a domain test, and sampling
from the exponentially tilted law

    d mu_theta / d mu (x) = exp(theta . x - Lambda(theta)).

Two families are shipped:

* ``MvNormalModel``:  X_1 ~ N(mean, cov) with Lambda(theta) =
  mean.theta + theta' cov theta / 2 on all of R^d; tilting by theta shifts
  the mean to mean + cov theta and leaves the covariance unchanged.
* ``IndependentModel``: independent scalar coordinates, each Normal or
  shifted exponential, with Lambda(theta) = sum_k Lambda_k(theta_k).

Models are immutable after construction and safe to share across threads.
Random streams are always passed in by the caller and never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Sequence, Union

import numpy as np

from .rootfind import positive_root

__all__ = [
    "TiltDomainError",
    "Normal",
    "ShiftedExponential",
    "MvNormalModel",
    "IndependentModel",
    "CgfModel",
    "siegmund_root",
]


class TiltDomainError(ValueError):
    """Tilt parameter outside the open domain of the CGF."""


def _check_dim(theta: np.ndarray, dim: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (dim,):
        raise ValueError(f"tilt has shape {theta.shape}, expected ({dim},)")
    if not np.all(np.isfinite(theta)):
        raise ValueError("tilt has non-finite entries")
    return theta


def _check_rows(thetas, dim: int) -> np.ndarray:
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2:
        raise ValueError(f"tilts have shape {thetas.shape}, expected "
                         f"(n, {dim})")
    if thetas.shape[1] != dim:
        raise ValueError(f"tilt has shape {thetas.shape[1:]}, expected "
                         f"({dim},)")
    if not np.all(np.isfinite(thetas)):
        raise ValueError("tilt has non-finite entries")
    return thetas


# ---------------------------------------------------------------------------
# Scalar components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Normal:
    """Scalar normal component N(mu, sigma2)."""

    mu: float
    sigma2: float

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        if self.mu == 0.0:
            raise ValueError("component drift must be strictly signed")

    @property
    def mean(self) -> float:
        return self.mu

    # open upper end of dom(Lambda); +inf for normal
    @property
    def domain_sup(self) -> float:
        return math.inf

    def cgf(self, t: float) -> float:
        return self.mu * t + 0.5 * self.sigma2 * t * t

    def cgf_prime(self, t: float) -> float:
        return self.mu + self.sigma2 * t

    def cgf_second(self, t: float) -> float:
        return self.sigma2

    def prime_inverse(self, y: float) -> float:
        return (y - self.mu) / self.sigma2


@dataclass(frozen=True)
class ShiftedExponential:
    """Scalar component distributed as Exponential(rate) + shift.

    Tilting by t < rate gives Exponential(rate - t) + shift.
    """

    rate: float
    shift: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.mean == 0.0:
            raise ValueError("component drift must be strictly signed")

    @property
    def mean(self) -> float:
        return 1.0 / self.rate + self.shift

    @property
    def domain_sup(self) -> float:
        return self.rate

    def cgf(self, t: float) -> float:
        if t >= self.rate:
            return math.inf
        return math.log(self.rate / (self.rate - t)) + self.shift * t

    def cgf_prime(self, t: float) -> float:
        if t >= self.rate:
            raise TiltDomainError(f"tilt {t} outside domain (-inf, {self.rate})")
        return 1.0 / (self.rate - t) + self.shift

    def cgf_second(self, t: float) -> float:
        return (self.rate - t) ** -2

    def prime_inverse(self, y: float) -> float:
        if y <= self.shift:
            return -math.inf
        return self.rate - 1.0 / (y - self.shift)


ScalarFamily = Union[Normal, ShiftedExponential]


def siegmund_root(component: ScalarFamily) -> float:
    """Unique z > 0 with Lambda(z) = 0 for a scalar family with negative mean.

    Closed form -2 mu / sigma2 for normal components; bracketed bisection
    with Newton polish for shifted exponentials.
    """
    if component.mean >= 0:
        raise ValueError("Siegmund root requires negative mean")
    if isinstance(component, Normal):
        return -2.0 * component.mu / component.sigma2
    return positive_root(
        component.cgf, component.cgf_prime, upper=component.domain_sup
    )


# ---------------------------------------------------------------------------
# Multivariate models
# ---------------------------------------------------------------------------

class _TiltedSampling:
    """Shared by the models: each model supplies ``cgf_grad_rows`` and
    ``batch_sampler``, and the single-tilt gradient and sampler are their
    one-row cases."""

    def cgf_grad(self, theta) -> np.ndarray:
        return self.cgf_grad_rows([theta])[0]

    def tilted_sampler(self, theta):
        """Closure drawing (k, d) blocks from the tilted law; the tilt
        parameters are resolved once, outside the sampling loop."""
        draw = self.batch_sampler(np.asarray(theta, dtype=float)[None])
        one = np.zeros(1, dtype=np.intp)

        def draw_one(rng: np.random.Generator, k: int) -> np.ndarray:
            return draw(rng, one, k)[:, 0]

        return draw_one

    def _tilts(self, thetas) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if not self.in_domain(thetas):
            raise TiltDomainError("tilt outside domain")
        return thetas


class MvNormalModel(_TiltedSampling):
    """Multivariate normal increments N(mean, cov), cov strictly PD."""

    def __init__(self, mean, cov):
        mean = np.asarray(mean, dtype=float).copy()
        cov = np.asarray(cov, dtype=float).copy()
        if mean.ndim != 1 or not mean.size:
            raise ValueError("mean must be a nonempty vector")
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise ValueError(f"cov has shape {cov.shape}, expected ({d}, {d})")
        for name, x in (("mean", mean), ("cov", cov)):
            if not np.all(np.isfinite(x)):
                raise ValueError(f"{name} has non-finite entries")
        # np.allclose(cov, cov.T, atol=1e-12) on finite entries, at half cost
        if not np.all(np.abs(cov - cov.T) <= 1e-12 + 1e-5 * np.abs(cov.T)):
            raise ValueError("cov must be symmetric")
        if np.any(mean == 0.0):
            raise ValueError("all drift entries must be strictly signed")
        try:
            np.linalg.cholesky(cov)  # the factor is formed where it is used
        except np.linalg.LinAlgError as exc:
            raise ValueError("cov must be positive definite") from exc
        mean.flags.writeable = False
        cov.flags.writeable = False
        self.mean = mean
        self.cov = cov

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def in_domain(self, theta) -> bool:
        return bool(np.all(np.isfinite(theta)))

    def cgf(self, theta) -> float:
        theta = _check_dim(theta, self.dim)
        return float(self.mean @ theta + 0.5 * theta @ (self.cov @ theta))

    def cgf_rows(self, thetas) -> np.ndarray:
        """Lambda of each row of an (n, d) tilt array."""
        thetas = _check_rows(thetas, self.dim)
        quad = np.einsum("ij,ij->i", thetas @ self.cov, thetas)
        return thetas @ self.mean + 0.5 * quad

    def cgf_grad_rows(self, thetas) -> np.ndarray:
        """Gradient of Lambda (the tilted drift) at each row of an (n, d)
        tilt array."""
        thetas = _check_rows(thetas, self.dim)
        return self.mean + thetas @ self.cov

    def batch_sampler(self, thetas):
        """Closure drawing (k, n, d) blocks for n paths, path i under the
        tilt ``thetas[comp[i]]``: N(mean + cov theta, cov) increments."""
        loc = self.mean + self._tilts(thetas) @ self.cov.T
        chol_t = np.ascontiguousarray(np.linalg.cholesky(self.cov).T)
        d = self.dim

        def draw(rng: np.random.Generator, comp: np.ndarray,
                 k: int) -> np.ndarray:
            out = rng.standard_normal((k * comp.size, d)) @ chol_t
            out = out.reshape(k, comp.size, d)
            out += loc[comp]
            return out

        return draw

    def exchangeable_parameters(self, tol: float = 1e-12):
        """(m, sigma2, rho) when the model is exchangeable, else None."""
        m = self.mean[0]
        if not np.all(np.abs(self.mean - m) <= tol * max(1.0, abs(m))):
            return None
        diag = np.diag(self.cov)
        s2 = diag[0]
        if not np.all(np.abs(diag - s2) <= tol * max(1.0, abs(s2))):
            return None
        if self.dim == 1:
            return float(m), float(s2), 0.0
        r = self.cov[0, 1]
        off = np.abs(self.cov - r)  # off-diagonal deviations from r
        np.fill_diagonal(off, 0.0)
        if not np.all(off <= tol * max(1.0, abs(s2))):
            return None
        return float(m), float(s2), float(r / s2)

    def marginal_root(self, k: int) -> float:
        """Positive zero of the k-th diagonal restriction t -> Lambda(t e_k)."""
        if self.mean[k] >= 0:
            raise ValueError("Siegmund root requires negative drift in coordinate")
        return -2.0 * self.mean[k] / self.cov[k, k]

    def __repr__(self):
        return f"MvNormalModel(dim={self.dim})"


def separable_cgf(normal, lin, par, thetas) -> np.ndarray:
    """Row sums of Lambda_k(thetas[:, k]) for independent coordinates whose
    family (``normal``) and parameters (``lin``, ``par``) broadcast against
    the (n, d) ``thetas``: mu t + sigma2 t^2 / 2 for a normal column,
    log(rate / (rate - t)) + shift t for an exponential one; +inf on a row
    outside the domain."""
    outside = ~normal & (thetas >= par)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(normal, 0.5 * par * thetas * thetas,
                         np.log(par / (par - thetas)))
    terms += lin * thetas
    terms[outside] = math.inf
    return terms.sum(axis=1)


def separable_grad(normal, lin, par, thetas) -> np.ndarray:
    """Lambda_k'(thetas[:, k]) for the columns of ``separable_cgf``: mu +
    sigma2 t or 1 / (rate - t) + shift, unchecked against the domain."""
    with np.errstate(divide="ignore"):
        return np.where(normal, lin + par * thetas,
                        1.0 / (par - thetas) + lin)


class IndependentModel(_TiltedSampling):
    """Independent scalar coordinates; Lambda(theta) = sum_k Lambda_k(theta_k)."""

    def __init__(self, components: Sequence[ScalarFamily]):
        components = tuple(components)
        if not components:
            raise ValueError("need at least one component")
        self.components = components
        # column k: mu and sigma2 of a normal, shift and rate of an
        # exponential component
        self._normal = np.array([isinstance(c, Normal) for c in components])
        self._lin = np.array([c.mu if n else c.shift
                              for c, n in zip(components, self._normal)])
        self._par = np.array([c.sigma2 if n else c.rate
                              for c, n in zip(components, self._normal)])
        self._sup = np.where(self._normal, math.inf, self._par)

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def mean(self) -> np.ndarray:
        return np.array([c.mean for c in self.components])

    def in_domain(self, theta) -> bool:
        """Whether a tilt, or every row of a stack of tilts, lies in the
        open domain: below the rate on each exponential coordinate."""
        return bool(np.all(np.asarray(theta, dtype=float) < self._sup))

    def cgf(self, theta) -> float:
        theta = _check_dim(theta, self.dim)
        return sum(c.cgf(t) for c, t in zip(self.components, theta))

    def cgf_rows(self, thetas) -> np.ndarray:
        """Lambda of each row of an (n, d) tilt array; +inf on a row
        outside the domain.  Column k is mu t + sigma2 t^2 / 2 for a normal
        component and log(rate / (rate - t)) + shift t for an exponential
        one."""
        return separable_cgf(self._normal, self._lin, self._par,
                             _check_rows(thetas, self.dim))

    def cgf_grad_rows(self, thetas) -> np.ndarray:
        """Gradient of Lambda at each row of an (n, d) tilt array: column k
        is mu + sigma2 t or 1 / (rate - t) + shift.  Raises TiltDomainError
        when a row leaves the domain."""
        thetas = _check_rows(thetas, self.dim)
        if np.any(~self._normal & (thetas >= self._par)):
            raise TiltDomainError("tilt outside domain")
        return separable_grad(self._normal, self._lin, self._par, thetas)

    def batch_sampler(self, thetas):
        """Closure drawing (k, n, d) blocks for n paths, path i under the
        tilt ``thetas[comp[i]]``.  Every coordinate is loc + scale * Z with Z
        standard normal or standard exponential; columns of one family are
        drawn in one call."""
        thetas = self._tilts(thetas)
        d = self.dim
        normal, lin, par = self._normal, self._lin, self._par
        # a normal column: mu + sigma2 t and sqrt(sigma2); an exponential
        # one: shift and 1 / (rate - t)
        loc = np.where(normal, lin + par * thetas, lin)
        with np.errstate(divide="ignore"):
            scale = np.where(normal, np.sqrt(par), 1.0 / (par - thetas))
        norm_cols = np.flatnonzero(normal)
        exp_cols = np.flatnonzero(~normal)

        def draw(rng: np.random.Generator, comp: np.ndarray,
                 k: int) -> np.ndarray:
            n = comp.size
            out = np.empty((k, n, d))
            out[..., norm_cols] = rng.standard_normal((k, n, norm_cols.size))
            out[..., exp_cols] = rng.standard_exponential(
                (k, n, exp_cols.size))
            out *= scale[comp]
            out += loc[comp]
            return out

        return draw

    def is_iid(self) -> bool:
        return all(c == self.components[0] for c in self.components)

    def marginal_root(self, k: int) -> float:
        return siegmund_root(self.components[k])

    def __repr__(self):
        return f"IndependentModel(dim={self.dim})"


CgfModel = Union[MvNormalModel, IndependentModel]


def exchangeable_mvnormal(dim: int, mean: float = -0.5, rho: float = 0.0,
                          sigma2: float = 1.0) -> MvNormalModel:
    """Exchangeable normal model: common mean, unit-pattern covariance
    sigma2 * ((1 - rho) I + rho 11')."""
    if dim > 1:
        if not -1.0 / (dim - 1) < rho < 1.0:
            raise ValueError("rho outside the positive-definite range")
    elif rho != 0.0:
        raise ValueError("rho must be 0 for dim 1")
    cov = sigma2 * ((1.0 - rho) * np.eye(dim) + rho * np.ones((dim, dim)))
    return MvNormalModel(np.full(dim, mean), cov)
