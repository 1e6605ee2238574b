"""Increment-distribution families with exact cumulant generating functions.

Every model exposes the cumulant generating function (CGF)

    Lambda(theta) = log E[exp(theta . X_1)],

its gradient grad Lambda(theta) = E_theta[X_1], a domain test, and sampling
from the exponentially tilted law

    d mu_theta / d mu (x) = exp(theta . x - Lambda(theta)).

Two models are shipped:

* ``MvNormalModel``:  X_1 ~ N(mean, cov) with Lambda(theta) =
  mean.theta + theta' cov theta / 2 on all of R^d; tilting by theta shifts
  the mean to mean + cov theta and leaves the covariance unchanged.
* ``IndependentModel``: independent scalar coordinates with Lambda(theta) =
  sum_k Lambda_k(theta_k), each coordinate of one family of the table
  ``FAMILIES`` (``Normal``, ``ShiftedExponential``).  A family is one row:
  a class holding its config type and keys, its two parameter columns and
  its formulas, vectorised over columns (``ColumnLaws``).  A new family is
  one more row.

Models are immutable after construction and safe to share across threads.
Random streams are always passed in by the caller and never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math
from typing import NamedTuple, Sequence, Union

import numpy as np

from .rootfind import lockstep_roots

__all__ = [
    "TiltDomainError",
    "Normal",
    "ShiftedExponential",
    "MvNormalModel",
    "IndependentModel",
    "CgfModel",
    "FAMILIES",
    "siegmund_root",
]


class TiltDomainError(ValueError):
    """Tilt parameter outside the open domain of the CGF."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
# Scalar families: one row of the table each
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarFamily:
    """A scalar law with Lambda(t) = lin t + K(par, t), one row of the table
    ``FAMILIES``: its config ``name`` and keys (its fields), the fields that
    are its ``columns`` (lin, par), and its formulas, each a function of a
    column c (an instance, or arrays of columns with ``lin`` and ``par``)
    and of numpy arrays or floats t: K (``k``), K', K'', the inverse of K'
    above its infimum ``floor`` with K'' there, the domain's open upper end
    ``sup``, the (loc, scale) of the tilted ``draw`` loc + scale * Z, Z from
    the Generator method ``variate``, and the Siegmund ``root``.  The
    formulas are unchecked: the domain is t < sup."""

    def __post_init__(self):
        lin, par = self.columns
        if not 0 < getattr(self, par) < math.inf:
            raise ValueError(f"{par} must be positive and finite")
        if not math.isfinite(getattr(self, lin)):
            raise ValueError(f"{lin} must be finite")
        # plain attributes, set once, as the row formulas read them
        object.__setattr__(self, "lin", getattr(self, lin))
        object.__setattr__(self, "par", getattr(self, par))
        if self.mean == 0.0:
            raise ValueError("component drift must be strictly signed")

    mean = property(lambda self: self.lin + self.k1(0.0))

    def root(self) -> float:
        """The positive zero of Lambda by lockstep bisection, where a row
        has no closed form."""
        z = lockstep_roots(lambda t: self.lin * t + self.k(t),
                           lambda t: self.lin + self.k1(t), self.sup(),
                           f"Siegmund root of {self!r}")
        return float(z[0])


@dataclass(frozen=True)
class Normal(ScalarFamily):
    """Scalar normal component N(mu, sigma2): K = sigma2 t^2 / 2 on all of
    R; tilting by t gives N(mu + sigma2 t, sigma2)."""

    mu: float
    sigma2: float

    name, columns, floor = "normal", ("mu", "sigma2"), -math.inf
    k = lambda c, t: 0.5 * c.par * t * t
    k1 = lambda c, t: c.par * t
    k2 = lambda c, t: c.par
    k1_inverse = lambda c, v: (v / c.par, c.par)
    sup = lambda c: math.inf
    variate = "standard_normal"
    draw = lambda c, t: (c.lin + c.par * t, np.sqrt(c.par))
    root = lambda c: -2.0 * c.lin / c.par


@dataclass(frozen=True)
class ShiftedExponential(ScalarFamily):
    """Scalar component distributed as Exponential(rate) + shift: K =
    log(rate / (rate - t)) for t < rate; tilting by t gives
    Exponential(rate - t) + shift."""

    rate: float
    shift: float

    name, columns, floor = "shifted_exponential", ("shift", "rate"), 0.0
    k = lambda c, t: np.log(c.par / (c.par - t))
    k1 = lambda c, t: 1.0 / (c.par - t)
    k2 = lambda c, t: (c.par - t) ** -2
    k1_inverse = lambda c, v: (c.par - 1.0 / v, v * v)
    sup = lambda c: c.par
    variate = "standard_exponential"
    draw = lambda c, t: (c.lin, 1.0 / (c.par - t))


FAMILIES = (Normal, ShiftedExponential)


def siegmund_root(component: ScalarFamily) -> float:
    """Unique z > 0 with Lambda(z) = 0 for a scalar family with negative
    mean: -2 mu / sigma2 for a normal, else by lockstep bisection."""
    if component.mean >= 0:
        raise ValueError("Siegmund root requires negative mean")
    return component.root()


class ColumnLaws:
    """Independent scalar coordinates as the arrays ``fam`` (each column's
    index in ``FAMILIES``), ``lin`` and ``par``, broadcasting against the
    tilts t; each column takes its own family's value of a formula."""

    def row(self, name: str, *args):
        """Formula or constant ``name`` of each column's family, unchecked:
        a formula is evaluated with numpy's warnings off."""
        if not callable(getattr(FAMILIES[0], name)):
            return self._row(name)
        with np.errstate(all="ignore"):
            return self._row(name, *args)

    def _row(self, name, *args):
        vals = [getattr(f, name) for f in FAMILIES]
        vals = [v(self, *args) if callable(v) else v for v in vals]
        if isinstance(vals[0], tuple):
            return tuple(map(self._pick, zip(*vals)))
        return self._pick(vals)

    def _pick(self, vals):  # np.where: half np.choose's cost on small stacks
        out = vals[0]
        for i in range(1, len(FAMILIES)):
            out = np.where(self.fam == i, vals[i], out)
        return out

    def cgf(self, t) -> np.ndarray:
        """Sums over the last axis of Lambda_k(t_k), +inf past a domain."""
        with np.errstate(all="ignore"):  # once for both formulas
            k, sup = self._row("k", t), self._row("sup")
        terms = self.lin * t + k
        terms[t >= sup] = math.inf
        return terms.sum(axis=-1)

    def prime(self, t) -> np.ndarray:
        return self.lin + self.row("k1", t)


class Columns(ColumnLaws, NamedTuple("_ColumnFields", [
        ("fam", np.ndarray), ("lin", np.ndarray), ("par", np.ndarray)])):
    """The read-only columns of an ``IndependentModel``."""


# ---------------------------------------------------------------------------
# Multivariate models
# ---------------------------------------------------------------------------

class _TiltedSampling:
    """Shared by the models: each model supplies ``cgf_rows`` and
    ``batch_sampler``, and the single-tilt CGF and sampler are their
    one-row cases."""

    @cached_property
    def positive_drifts(self) -> int:
        """p when the first p coordinates drift up and the rest down (no
        drift is zero), else -1: the sign pattern the stopping rules
        check, read once per model."""
        up = self.mean > 0
        p = int(np.count_nonzero(up))
        return p if up[:p].all() else -1

    def _coordinate(self, k: int) -> int:
        """k itself when it names a coordinate, else ValueError: a
        negative k would index from the end."""
        if not 0 <= k < self.dim:
            raise ValueError(f"coordinate {k} outside [0, {self.dim})")
        return k

    def cgf(self, theta) -> float:
        """Lambda(theta) of one (d,) tilt; +inf outside the domain."""
        return float(self.cgf_rows(np.asarray(theta, dtype=float)[None])[0])

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

    def __init__(self, mean, cov, _exchangeable: bool = False):
        """``_exchangeable``, set by ``exchangeable`` only, trusts cov."""
        mean = np.asarray(mean, dtype=float).copy()
        cov = np.asarray(cov, dtype=float).copy()
        if mean.ndim != 1 or not mean.size:
            raise ValueError("mean must be a nonempty vector")
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean has non-finite entries")
        if np.any(mean == 0.0):
            raise ValueError("all drift entries must be strictly signed")
        d = mean.shape[0]
        self._form = None
        if _exchangeable:  # (m, sigma2, rho) as exchangeable_form reads them
            s2, r = cov[0, 0], (cov[0, 1] if d > 1 else 0.0)
            self._form = float(mean[0]), float(s2), float(r / s2)
        elif cov.shape != (d, d):
            raise ValueError(f"cov has shape {cov.shape}, expected ({d}, {d})")
        elif not np.all(np.isfinite(cov)):
            raise ValueError("cov has non-finite entries")
        # np.allclose(cov, cov.T, atol=1e-12) on finite entries, at half cost
        elif not np.all(np.abs(cov - cov.T) <= 1e-12 + 1e-5 * np.abs(cov.T)):
            raise ValueError("cov must be symmetric")
        else:
            try:
                np.linalg.cholesky(cov)  # the factor is formed where used
            except np.linalg.LinAlgError as exc:
                raise ValueError("cov must be positive definite") from exc
        self.mean, self.cov = _frozen(mean), _frozen(cov)

    @classmethod
    def exchangeable(cls, mean, sigma2: float, rho: float) -> "MvNormalModel":
        """N(mean, sigma2 ((1 - rho) I + rho 11')): positive definite iff
        sigma2 > 0 and -1/(d-1) < rho < 1 (rho = 0 at d = 1).  Cholesky
        succeeds once min(1 - rho, 1 + (d - 1) rho) > ~d^2 2^-53, so the
        dense checks decide only nearer that edge or at an extreme sigma2."""
        d = np.size(mean)
        if not 0.0 < sigma2 < math.inf:
            raise ValueError(f"sigma2 = {sigma2} is not positive and finite")
        if not (-1.0 / (d - 1) < rho < 1.0 if d > 1 else rho == 0.0):
            raise ValueError(f"rho = {rho} is outside " + (
                f"(-1/(d-1), 1) = ({-1.0 / (d - 1):g}, 1)" if d > 1
                else "{0} at d = 1"))
        cov = sigma2 * ((1.0 - rho) * np.eye(d) + rho * np.ones((d, d)))
        model = cls(mean, cov, _exchangeable=True)
        if (min(1.0 - rho, 1.0 + (d - 1) * rho) <= 1e-12 * d * d
                or not 1e-150 < sigma2 < 1e150):
            try:
                cls(mean, cov)
            except ValueError as exc:
                raise ValueError(f"rho = {rho}: {exc}") from exc
        return model

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def in_domain(self, theta) -> bool:
        return bool(np.all(np.isfinite(theta)))

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
        tilt ``thetas[comp[i]]``: N(mean + cov theta, cov) increments, the
        paths' means gathered by ``take`` (faster than fancy indexing).

        Standard normals Z are multiplied by the Cholesky factor's
        transpose, unless the factor is diagonal: then Z is scaled by its
        diagonal, or left as it is for unit variances.  Those are the same
        bits, since every off-diagonal term of ``Z @ chol.T`` adds an exact
        zero, and they skip a 13-14 us product per 16k-value block."""
        loc = self.mean + self._tilts(thetas) @ self.cov.T
        chol = np.linalg.cholesky(self.cov)
        scale = np.diagonal(chol).copy()
        dense = bool(np.tril(chol, -1).any())
        unit = not dense and bool((scale == 1.0).all())
        chol_t = np.ascontiguousarray(chol.T)
        d = self.dim

        def draw(rng: np.random.Generator, comp: np.ndarray,
                 k: int) -> np.ndarray:
            out = rng.standard_normal((k * comp.size, d))
            if dense:
                out = out @ chol_t
            elif not unit:
                out *= scale
            out = out.reshape(k, comp.size, d)
            out += loc.take(comp, axis=0)
            return out

        return draw

    def exchangeable_parameters(self):
        """(m, sigma2, rho) when the model is exchangeable, else None."""
        return exchangeable_form(self.mean, self.cov, self._form)

    def marginal(self, k: int) -> Normal:
        """The law N(mean[k], cov[k, k]) of coordinate k, 0 <= k < d."""
        k = self._coordinate(k)
        return Normal(float(self.mean[k]), float(self.cov[k, k]))

    def __repr__(self):
        return f"MvNormalModel(dim={self.dim})"


class IndependentModel(_TiltedSampling):
    """Independent scalar coordinates; Lambda(theta) = sum_k Lambda_k(theta_k)."""

    def __init__(self, components: Sequence[ScalarFamily]):
        components = tuple(components)
        if not components:
            raise ValueError("need at least one component")
        for i, c in enumerate(components):
            if type(c) not in FAMILIES:
                raise TypeError(f"component {i} is {c!r}, not one of the "
                                f"families {[f.__name__ for f in FAMILIES]}")
        self.components = components
        self.columns = Columns(*(_frozen(np.array(a)) for a in zip(*(
            (FAMILIES.index(type(c)), c.lin, c.par) for c in components))))
        self.mean = _frozen(np.array([c.mean for c in components]))
        self._sup = _frozen(self.columns.row("sup"))

    @property
    def dim(self) -> int:
        return len(self.components)

    def in_domain(self, theta) -> bool:
        """Whether a tilt, or each row of a stack, is inside the domain."""
        return bool(np.all(np.asarray(theta, dtype=float) < self._sup))

    def cgf_rows(self, thetas) -> np.ndarray:
        """Lambda of each row of an (n, d) tilt array; +inf off the domain."""
        return self.columns.cgf(_check_rows(thetas, self.dim))

    def cgf_grad_rows(self, thetas) -> np.ndarray:
        """Gradient of Lambda at each row of an (n, d) tilt array.  Raises
        TiltDomainError when a row leaves the domain."""
        return self.columns.prime(self._tilts(_check_rows(thetas, self.dim)))

    def batch_sampler(self, thetas):
        """Closure drawing (k, n, d) blocks for n paths, path i under the
        tilt ``thetas[comp[i]]``.  Every coordinate is loc + scale * Z with Z
        its family's standard variate; the columns of one family are drawn
        in one call, family by family in ``FAMILIES`` order, into a slice
        when contiguous, and the paths' rows of loc and scale are gathered
        by ``take`` (faster than fancy indexing)."""
        loc, scale = self.columns.row("draw", self._tilts(thetas))
        d, groups = self.dim, []
        for i, f in enumerate(FAMILIES):
            cols = np.flatnonzero(self.columns.fam == i)
            m = cols.size
            if m and cols[-1] - cols[0] == m - 1:  # contiguous: a slice
                groups.append((f.variate, m, slice(cols[0], cols[-1] + 1)))
            elif m:
                groups.append((f.variate, m, cols))

        def draw(rng: np.random.Generator, comp: np.ndarray,
                 k: int) -> np.ndarray:
            n = comp.size
            out = np.empty((k, n, d))
            for variate, m, cols in groups:
                out[..., cols] = getattr(rng, variate)((k, n, m))
            out *= scale.take(comp, axis=0)
            out += loc.take(comp, axis=0)
            return out

        return draw

    def is_iid(self) -> bool:
        return all(c == self.components[0] for c in self.components)

    def marginal(self, k: int) -> ScalarFamily:
        """The law of coordinate k, 0 <= k < d."""
        return self.components[self._coordinate(k)]

    def __repr__(self):
        return f"IndependentModel(dim={self.dim})"


CgfModel = Union[MvNormalModel, IndependentModel]


def exchangeable_form(mean, cov, form=None):
    """(m, sigma2, rho) when N(mean, cov) is exchangeable to within a
    relative 1e-12, else None; given the ``form`` of a known exchangeable
    cov, checks mean."""
    m = mean[0]
    if not np.all(np.abs(mean - m) <= 1e-12 * max(1.0, abs(m))):
        return None
    if form is not None:
        return form
    s2, r = cov[0, 0], (cov[0, 1] if len(mean) > 1 else 0.0)
    dev = np.abs(cov - r)  # deviations from r off and from s2 on the diagonal
    np.fill_diagonal(dev, np.abs(np.diag(cov) - s2))
    if not np.all(dev <= 1e-12 * max(1.0, abs(s2))):
        return None
    return float(m), float(s2), float(r / s2)


def exchangeable_mvnormal(dim: int, mean: float = -0.5, rho: float = 0.0,
                          sigma2: float = 1.0) -> MvNormalModel:
    """Exchangeable normal model: common mean, unit-pattern covariance
    sigma2 * ((1 - rho) I + rho 11')."""
    return MvNormalModel.exchangeable(np.full(dim, mean), sigma2, rho)
