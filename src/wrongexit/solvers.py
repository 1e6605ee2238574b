"""Rate/tilt solvers for the exit-region optimization problems.

Every quantity computed here is the optimal value and maximizer of a convex
program of the form

    maximize    <linear or concave positively-homogeneous objective>(theta)
    subject to  Lambda(theta) <= 0,  sign constraints,
                optionally  sum_i theta_i = 0,

where Lambda is the CGF of the increment distribution.  theta = 0 is
feasible for every program, so none is infeasible.  The CGF constraint is
active at every optimum of the shipped problems, so solutions carry
|Lambda(tilt)| <= 1e-10 and a KKT certificate.

Solver stack, cheapest applicable path first:

1. closed forms (Siegmund roots and the Siegmund tilts of every region
   size of an exchangeable model in one pass);
2. ``_sign_program``, the one routine for every program with a linear
   objective (the Siegmund and gap beta^A, gamma^{k,k'} and the two- and
   four-index gap tilts): max c.theta under a sign pattern on a support,
   the CGF constraint and an optional zero sum, by the active set
   ``_qclp_active_set`` on every model;
3. ``_si_active_set`` for every sum-intersection program (beta^A, z_A and
   s_B) of every model: the active set extended to the concave objective
   rearrangement_min over the vertex functionals of its LP.

Each active set runs once, from one deterministic start.  Both take the
constraint from ``_constraint`` and solve the subproblem of a fixed active
set exactly: in closed form (``_subsolve``, through ``np.linalg.cholesky``
factors) for a normal model, and for independent coordinates by Newton on
the KKT multipliers, which inverts the scalar CGF derivatives coordinate by
coordinate and starts from ``_subsolve`` on the second-order Taylor model.

No program is reduced by symmetry here; the proposal builders solve one
program per symmetry orbit instead.  Everything here needs only numpy.

Lower bounds on the variance-decay exponents v_A(gamma) are certified by
weak duality: a witness feasible for the shifted program (the constraint
Lambda(theta - gamma) <= 0) bounds v_A(gamma) by its support value, so that
program is never solved.  ``v_lower_bounds`` certifies a stack of Siegmund
regions at one gamma in one vectorised pass, which is how the direct
condition is checked for every region size at once.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Optional, Tuple

import numpy as np

from .models import CgfModel, IndependentModel, MvNormalModel, siegmund_root
from .regions import (
    GapRule,
    SiegmundRule,
    SumIntersectionRule,
    rearrangement_min,
)
from .rootfind import positive_root

__all__ = [
    "TiltSolution",
    "SolverError",
    "solve_beta",
    "solve_gamma_single",
    "solve_gamma_pair",
    "solve_gap_pair",
    "solve_gap_quad",
    "solve_si_z",
    "solve_si_s",
    "v_lower_bounds",
    "homogeneous_profile",
    "siegmund_profile",
    "validate_drifts",
]

CGF_TOL = 1e-10
KKT_TOL = 1e-8
ACTIVE_SET_MAX_ITER = 200


class SolverError(RuntimeError):
    pass


@dataclass
class TiltSolution:
    """Optimal value and tilt of one program, with its KKT certificate.

    ``multipliers`` holds [lambda_0, lambda_1, ..., lambda_d]: the CGF
    multiplier followed by one bound multiplier per coordinate (zero on free
    coordinates).  ``eq_multiplier`` is the zero-sum multiplier for gap
    programs; ``weights`` are the vertex-functional weights of an exact
    sum-intersection solve.  The two active sets fill in the certificate
    for every program they solve on every model: ``_sign_program`` (every
    Siegmund and gap beta^A, gamma^{k,k'} and four-index gap tilt) and
    the sum-intersection active set (every beta^A, z_A and s_B program);
    the closed forms leave it empty.  ``residual`` is the largest of |g|,
    the sign and zero-sum violations and the stationarity residuals, the
    last divided by max(1, Lambda_k'') on independent coordinates.
    """

    value: float
    tilt: np.ndarray
    converged: bool
    residual: float
    method: str
    multipliers: Optional[np.ndarray] = None
    eq_multiplier: Optional[float] = None
    weights: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# Drift validation
# ---------------------------------------------------------------------------

def validate_drifts(rule, model: CgfModel) -> None:
    """Reject models whose drift signs do not match the stopping rule."""
    mean = np.asarray(model.mean)
    if isinstance(rule, GapRule):
        if not (np.all(mean[: rule.m] > 0) and np.all(mean[rule.m:] < 0)):
            raise ValueError(
                "gap rule requires positive drift on the first m coordinates "
                "and negative drift on the rest"
            )
    else:
        if not np.all(mean < 0):
            raise ValueError(f"{rule.kind} rule requires negative drift in "
                             "every coordinate")


# ---------------------------------------------------------------------------
# Active sets over the CGF constraint, with exact subproblems
# ---------------------------------------------------------------------------

@dataclass
class _Quad:
    """q(x) = kappa + b.x + x' Sigma x / 2, Sigma positive definite."""

    kappa: float
    b: np.ndarray
    sigma: np.ndarray

    def value(self, x):
        return self.kappa + self.b @ x + 0.5 * x @ (self.sigma @ x)

    def grad(self, x):
        return self.b + self.sigma @ x

    def taylor(self, x):
        return self

    def scale(self, x):
        return 1.0

    def subsolve(self, c, eq, pinned, x):
        return _subsolve(c, self, eq, pinned)


def _cholesky_solver(a):
    """v -> a^{-1} v for a symmetric positive definite ``a``: its lower
    Cholesky factor is inverted once and applied as L^{-T} (L^{-1} v).
    Raises np.linalg.LinAlgError when ``a`` is not positive definite."""
    inv = np.linalg.inv(np.linalg.cholesky(a))
    return lambda v: inv.T @ (inv @ v)


def _subsolve(c, quad, eq, pinned):
    """Exact maximizer of c.x over {q(x) <= 0, x_pinned = 0, eq x = 0}.

    ``eq`` is None, one row, or a (k, n) stack of rows.  Returns (x, s, t)
    with s = 1/lambda_0 and t = nu/lambda_0 (one entry per row of a stack),
    or None when the pinned subspace misses the feasible set, the rows are
    dependent on the free coordinates or the objective direction
    degenerates.  The free block of Sigma and the Gram matrix of a stack of
    rows are each factored once with ``np.linalg.cholesky`` and solved
    through the inverse factor (``_cholesky_solver``).
    """
    free = ~pinned
    n = c.size
    if not free.any():
        if quad.kappa <= CGF_TOL:
            return np.zeros(n), 0.0, 0.0
        return None
    try:
        solve = _cholesky_solver(quad.sigma[np.ix_(free, free)])
        if eq is not None:
            g = eq[..., free]
            gram = g @ solve(g.T)
            if g.ndim == 1:
                if gram <= 1e-300:
                    return None
                div = lambda v: v / gram
            else:
                div = _cholesky_solver(gram)
    except np.linalg.LinAlgError:
        return None
    bf = quad.b[free]
    cf = c[free]
    if eq is not None:
        gc, gb = g @ solve(cf), g @ solve(bf)
        chat = cf - np.dot(div(gc), g)
        bhat = bf - np.dot(div(gb), g)
    else:
        chat = cf
        bhat = bf
    Bch = solve(chat)
    Bbh = solve(bhat)
    num = bhat @ Bbh - 2.0 * quad.kappa
    den = chat @ Bch
    if num < -1e-12 * max(1.0, abs(quad.kappa)):
        return None
    if den <= 1e-300:
        return None
    s = math.sqrt(max(num, 0.0) / den)
    if eq is not None:
        t = div(s * gc - gb)
        xf = solve(s * cf - np.dot(t, g) - bf)
    else:
        t = 0.0
        xf = solve(s * cf - bf)
    x = np.zeros(n)
    x[free] = xf
    return x, s, t


def _qclp_active_set(c, con, signs, eq=None):
    """Maximize c.x s.t. g(x) <= 0 and signs*x >= 0 (and optionally eq.x = 0)
    for a constraint ``con`` (a ``_Quad`` or a ``_Separable``) with g(0) = 0.

    Active-set iteration from nothing pinned: pin every sign-violating
    coordinate at zero, else release the pinned coordinate with the most
    negative multiplier, else certify; each subproblem is solved exactly
    (``con.subsolve``, from the last subproblem's solution).  x = 0 lies in
    every pinned subspace, so a subproblem without a solution is
    degenerate.  A pinned set met twice would cycle; both raise SolverError.
    """
    n = c.size
    pinned, x, seen = np.zeros(n, dtype=bool), None, set()
    for _ in range(ACTIVE_SET_MAX_ITER):
        key = pinned.tobytes()
        if key in seen:
            raise SolverError("active-set iteration revisited a pinned set")
        seen.add(key)
        sol = con.subsolve(c, eq, pinned, x)
        if sol is None:
            raise SolverError("degenerate active-set subproblem")
        x, s, t = sol
        scale = max(1.0, float(np.max(np.abs(x))))
        slack = signs * x
        viol = (~pinned) & (slack < -1e-12 * scale)
        if viol.any():
            pinned = pinned | viol
            continue
        grad = con.grad(x)
        shift = t * eq if eq is not None else 0.0
        reduced = signs * (grad + shift - s * c)  # = s * lambda_k on pinned
        neg = pinned & (reduced < -1e-10 * max(1.0, s))
        if neg.any():
            pinned = pinned.copy()
            pinned[np.where(neg, reduced, np.inf).argmin()] = False
            continue
        mults = np.zeros(n)
        if s > 0:
            mults[pinned] = reduced[pinned] / s
        lam0 = math.inf if s == 0 else 1.0 / s
        stat_resid = 0.0 if not (~pinned).any() else float(
            np.max(np.abs((reduced / con.scale(x))[~pinned]))
        )
        resid = max(
            abs(con.value(x)),
            float(max(0.0, -slack.min())) if n else 0.0,
            abs(eq @ x) if eq is not None else 0.0,
            stat_resid,
        )
        nu = lam0 * t if s > 0 else None
        return x, float(c @ x), np.concatenate([[lam0], mults]), nu, resid
    raise SolverError(f"active-set iteration did not converge in "
                      f"{ACTIVE_SET_MAX_ITER} steps")


def _constraint(model, S, signs):
    """g(y) = Lambda(theta) in y = signs * theta_S, theta = 0 off S: a
    ``_Quad`` for a normal model, a ``_Separable`` for an independent one.
    Each gives its value, gradient, Taylor model and exact subsolve."""
    if isinstance(model, MvNormalModel):
        return _Quad(0.0, signs * model.mean[S],
                     model.cov[np.ix_(S, S)] * np.outer(signs, signs))
    return _Separable(model, S, signs)


class _Separable:
    """g(y) = sum_k Lambda_k(signs_k y_k) over the support of an
    independent model, from its column parameters: Lambda_k(t) is
    mu t + sigma2 t^2 / 2 or log(rate / (rate - t)) + shift t."""

    def __init__(self, model: IndependentModel, S, signs):
        self.model = IndependentModel([model.components[k] for k in S])
        self.signs = signs

    def value(self, y):
        return float(self.model.cgf_rows([self.signs * y])[0])

    def grad(self, y):
        return self.signs * self.model.cgf_grad_rows([self.signs * y])[0]

    def curvature(self, y):
        """Lambda_k'' at signs_k y_k, coordinate by coordinate."""
        m = self.model
        with np.errstate(divide="ignore"):
            return np.where(m._normal, m._par,
                            (m._par - self.signs * y) ** -2.0)

    def scale(self, y):
        """Divisors of the stationarity residuals: near an exponential rate
        Lambda_k' is only known to its rounding level times Lambda_k''."""
        return np.maximum(1.0, self.curvature(y))

    def taylor(self, y):
        """The second-order Taylor model of g at a feasible y."""
        g, h = self.grad(y), self.curvature(y)
        return _Quad(self.value(y) - g @ y + 0.5 * y @ (h * y), g - h * y,
                     np.diag(h))

    def subsolve(self, c, eq, pinned, y):
        """``_subsolve`` for g: with s and t the multipliers as there,
        stationarity Lambda_k'(signs_k x_k) = signs_k (s c - t eq)_k is
        inverted coordinate by coordinate, leaving g(x) = 0 and eq x = 0 in
        (s, t).  Newton on them starts from the Taylor model's subsolve at y
        (skipped when y is None or outside the domain), else at 0, and
        backtracks on the residual of those equations."""
        for y0 in (y, np.zeros(c.size)):
            if y0 is not None and math.isfinite(self.value(y0)):
                sol = self._newton(c, eq, pinned, y0)
                if sol is not None:
                    return sol
        return None

    def _newton(self, c, eq, pinned, y):
        sol = _subsolve(c, self.taylor(y), eq, pinned)
        if sol is None:
            return None
        free = ~pinned
        m = self.model
        normal, lin, par = m._normal[free], m._lin[free], m._par[free]
        signs, cf = self.signs[free], c[free]
        g = (np.zeros((0, cf.size)) if eq is None
             else np.atleast_2d(eq)[:, free])

        def point(z):  # x, the residuals, h = s c - t g and the curvatures
            h = z[0] * cf - z[1:] @ g
            v = signs * h - lin  # Lambda_k' less mu or shift
            if z[0] <= 0 or np.any(~normal & (v <= 0)):
                return None
            with np.errstate(divide="ignore"):
                t = np.where(normal, v / par, par - 1.0 / v)
            x = np.zeros(c.size)
            x[free] = signs * t
            res = np.append(self.value(x), g @ x[free])
            return x, res, h, np.where(normal, par, v * v)

        z = np.append(sol[1], np.reshape(sol[2], -1)[:len(g)])
        # every Lambda_k' must exceed its shift: h -> 0 does that when the
        # shifts are negative.  A zero-sum row (1-D eq, all ones with unit
        # signs) instead lowers t, which raises every h_k, until each
        # exponential Lambda_k' is at least its value at 0
        for i in range(64):
            cur = point(z)
            if cur is not None:
                break
            if i == 0 and eq is not None and eq.ndim == 1:
                z[1] = min(z[1], np.min((z[0] * cf - lin - 1.0 / par)[~normal],
                                        initial=np.inf))
            else:
                z = 0.5 * z
        else:
            return None
        for _ in range(ACTIVE_SET_MAX_ITER):
            _, res, h, w = cur
            if np.max(np.abs(res)) <= 1e-14:
                break
            jac = np.empty((z.size, z.size))  # d(res) / d(s, t)
            jac[0, 0], jac[0, 1:] = h @ (cf / w), -(g / w) @ h
            jac[1:, 0], jac[1:, 1:] = g @ (cf / w), -(g / w) @ g.T
            try:
                step = np.linalg.solve(jac, -res)
            except np.linalg.LinAlgError:
                return None
            norm, alpha = np.linalg.norm(res), 1.0
            while alpha > 1e-12:
                new = point(z + alpha * step)
                if new is not None and (np.linalg.norm(new[1])
                                        <= (1.0 - 1e-4 * alpha) * norm):
                    break
                alpha *= 0.5
            else:
                break  # no decrease left at rounding level
            z, cur = z + alpha * step, new
        x, res, h = cur[:3]  # rounding x moves g by up to eps |h|.|x|
        if np.max(np.abs(res)) > CGF_TOL * max(1.0, abs(h) @ abs(x[free])):
            return None
        if eq is None:
            return x, z[0], 0.0
        return x, z[0], (z[1] if eq.ndim == 1 else z[1:])


def _si_active_set(model, S, signs, L, method) -> TiltSolution:
    """max rearrangement_min(theta, L) s.t. Lambda(theta) <= 0 and
    signs*theta >= 0 on the coordinates S and theta = 0 off S.  In
    y = signs*theta_S: max t s.t. y >= 0 and l.y >= t for the rearrangement
    LP's vertex functionals l = 1_T / k (|T| = |S| - L + k, k = 1..L).

    The constraint g(y) = Lambda(theta) comes from ``_constraint``.

    Primal active set.  The working set holds functionals kept equal to the
    level (the rows l_j - l_0 of the subsolve) and pinned coordinates.
    It starts on the Taylor model q of g at 0, at the deepest point of a
    ray d > 0 with b.d < 0, halved into the constraint.  From a feasible y
    at a positive level, each step moves towards the working set's optimum
    until a coordinate reaches 0 (it is pinned) or a functional, found by
    one sort, falls to the level (it joins).  At the optimum, a constraint
    with a negative multiplier leaves.  The working subspace always holds
    y, so the subproblem is never empty.
    """
    n = len(S)
    con = _constraint(model, S, signs)

    def cut(y):  # the level of y and a functional attaining it
        order = np.argsort(y, kind="stable")
        vals = np.cumsum(y[order])[n - L:] / np.arange(1, L + 1)
        k = int(np.argmin(vals))
        ell = np.zeros(n)
        ell[order[:n - L + k + 1]] = 1.0 / (k + 1)
        return vals[k], ell

    q = con.taylor(np.zeros(n))
    neg = q.b < 0
    d = np.where(neg, 1.0, min(1.0, -0.5 * q.b[neg].sum()
                               / max(q.b[~neg].sum(), 1e-300)))
    y = np.maximum(-(q.b @ d) / max(d @ q.sigma @ d, 1e-300) * d, 0.0)
    for _ in range(64):
        if con.value(y) <= CGF_TOL:
            break
        y = 0.5 * y
    if not (con.value(y) <= CGF_TOL and cut(y)[0] > 0):
        raise SolverError(f"{method}: no feasible tilt at a positive level")
    work, pinned = [cut(y)[1]], y <= 0
    for _ in range(ACTIVE_SET_MAX_ITER * n):
        F = np.array(work)
        G = F[1:] - F[0] if len(F) > 1 else None
        sol = con.subsolve(F[0], G, pinned, y)
        if sol is None:
            raise SolverError(f"{method}: degenerate working set")
        dy = sol[0] - y
        tol = 1e-9 * max(1.0, np.max(np.abs(y)))
        ratio = np.where(dy < -tol, y, np.inf) / np.where(dy < -tol, -dy, 1.0)
        k = int(np.argmin(ratio))
        alpha, enter = min(1.0, ratio[k]), (k if ratio[k] < 1 else None)
        # shorten the step to where the first functional meets the level;
        while np.max(np.abs(dy)) > tol:  # a null step is at the optimum
            val, ell = cut(y + alpha * dy)
            gap = ell - F[0]
            if gap @ (y + alpha * dy) >= -1e-12 * max(1.0, val):
                break
            alpha, enter = max(0.0, gap @ y / -(gap @ dy)), ell
        if enter is None:
            y, s, t = sol
            w = np.reshape(t, -1)[:len(F) - 1] / -s
            w = np.append(1.0 - w.sum(), w)
            reduced = con.grad(y) - s * F[0] + (0.0 if G is None else t @ G)
            mults = np.append(w, reduced[pinned] / s)  # reduced = s mu
            drop = int(np.argmin(mults))
            if mults[drop] >= -1e-10:
                break
            if drop < len(F):
                del work[drop]
            else:
                pinned[np.flatnonzero(pinned)[drop - len(F)]] = False
        elif isinstance(enter, int):
            y, pinned[enter] = np.maximum(y + alpha * dy, 0.0), True
        else:
            y = np.maximum(y + alpha * dy, 0.0)
            work.append(enter)
    else:
        raise SolverError(f"{method}: no convergence in "
                          f"{ACTIVE_SET_MAX_ITER * n} iterations")
    y = np.maximum(y, 0.0)  # rounding leaves free zeros at -1e-16
    theta, mu = np.zeros(model.dim), np.zeros(model.dim)
    theta[S], mu[S] = signs * y, np.where(pinned, reduced / s, 0.0)
    resid = max(abs(con.value(y)), float(np.max(
        np.abs((reduced / con.scale(y))[~pinned]), initial=0.0)))
    return TiltSolution(rearrangement_min(theta, L), theta, resid <= KKT_TOL,
                        resid, method, np.append(1.0 / s, mu), weights=w)


def homogeneous_profile(component, d: int, ell: float, u: float):
    """Per-size Siegmund tilt components for i.i.d. coordinates.

    For |A| = a the optimal tilt has value v_plus[a] on A and v_minus[a] off
    A, solving  a Lambda(v+) + (d-a) Lambda(v-) = 0  together with the
    multiplier condition -(1/ell) Lambda'(v-) = (1/u) Lambda'(v+) (with v- = 0
    when the corresponding bound binds).  Entry a = d has v_minus = -inf by
    convention.  Also returns r[a] = u a v+ + ell (d-a) (-v-).
    """
    z1 = siegmund_root(component)
    v_plus, v_minus, r = np.zeros(d + 1), np.zeros(d + 1), np.zeros(d + 1)
    v_minus[d] = -math.inf
    if -component.cgf_prime(0.0) / ell >= component.cgf_prime(z1) / u:
        # the off-region bound binds for every size: v+ = z_1, v- = 0 exactly
        v_plus[1:] = z1
        r[1:] = u * np.arange(1, d + 1) * z1
        return v_plus, v_minus, r
    for a in range(1, d + 1):
        def g(s):
            val = a * component.cgf(component.prime_inverse(u * s))
            if a < d:
                vm = min(0.0, component.prime_inverse(-ell * s))
                val += (d - a) * (component.cgf(vm) if math.isfinite(vm)
                                  else math.inf)
            return val

        def gprime(s):
            vp = component.prime_inverse(u * s)
            val = a * u * u * s / component.cgf_second(vp)
            if a < d:
                vm = component.prime_inverse(-ell * s)
                if math.isfinite(vm) and vm < 0.0:
                    val += (d - a) * ell * ell * s / component.cgf_second(vm)
            return val

        s = positive_root(g, gprime)
        vp = component.prime_inverse(u * s)
        v_plus[a], r[a] = vp, u * a * vp
        if a < d:
            v_minus[a] = min(0.0, component.prime_inverse(-ell * s))
            r[a] += ell * (d - a) * (-v_minus[a])
    return v_plus, v_minus, r


def siegmund_profile(model: CgfModel, ell: float, u: float):
    """The arrays of ``homogeneous_profile`` for any exchangeable model.

    Normal models solve the two-orbit program of ``_subsolve`` (v+ on A, v-
    off A) in closed form for every a together; where v- comes out positive,
    or a = d, it is pinned at 0, leaving the root v+ = -2 mu a / s11.
    """
    if isinstance(model, IndependentModel) and model.is_iid():
        return homogeneous_profile(model.components[0], model.dim, ell, u)
    ex = isinstance(model, MvNormalModel) and model.exchangeable_parameters()
    if not ex:
        raise ValueError("the size profile requires an exchangeable model")
    mu, s2, rho = ex
    a = np.arange(1.0, model.dim + 1)
    n = model.dim - a
    # orbit-reduced covariance [[s11, s12], [s12, s22]] of the split (A, A^c)
    s11, s22 = s2 * a * (1 - rho + rho * a), s2 * n * (1 - rho + rho * n)
    s12 = s2 * rho * a * n
    det = s11 * s22 - s12 * s12
    with np.errstate(divide="ignore", invalid="ignore"):
        form = lambda x, y: (s22 * x * x - 2 * s12 * x * y + s11 * y * y) / det
        s = np.sqrt(form(mu * a, mu * n) / form(u * a, -ell * n))
        w1, w2 = (s * u - mu) * a, -(s * ell + mu) * n
        vp, vm = (s22 * w1 - s12 * w2) / det, (s11 * w2 - s12 * w1) / det
    free = vm <= 0.0  # False where v- > 0, and at a = d (det = 0, nan)
    vp, vm = np.where(free, vp, -2.0 * mu * a / s11), np.where(free, vm, 0.0)
    r = u * a * vp - ell * n * vm
    vm[-1] = -math.inf
    return tuple(np.concatenate([[0.0], x]) for x in (vp, vm, r))


# ---------------------------------------------------------------------------
# Public solvers
# ---------------------------------------------------------------------------

def _check_region(rule, d, A) -> Tuple[int, ...]:
    A = tuple(sorted(int(k) for k in A))
    if any(k < 0 or k >= d for k in A):
        raise ValueError("region indices out of range")
    if isinstance(rule, SiegmundRule):
        if not A:
            raise ValueError("Siegmund rare regions have nonempty A")
    elif isinstance(rule, GapRule):
        if len(A) != rule.m:
            raise ValueError(f"gap regions have |A| = m = {rule.m}")
        if A == tuple(range(rule.m)):
            raise ValueError("A = [m] is the reference region")
    elif isinstance(rule, SumIntersectionRule):
        if len(A) < rule.L:
            raise ValueError(f"sum-intersection rare regions have |A| >= {rule.L}")
    return A


def _sign_program(model, support, c, signs, zero_sum,
                  method) -> TiltSolution:
    """max c.theta s.t. signs*theta >= 0 on ``support``, theta = 0 off it,
    Lambda(theta) <= 0 and, when ``zero_sum``, sum theta = 0.

    ``c`` and ``signs`` run over ``support``.  The active set takes the
    constraint on the support with unit signs and keeps the sign pattern
    itself.
    """
    d = model.dim
    sup = np.asarray(support)
    eq = np.ones(sup.size) if zero_sum else None
    con = _constraint(model, sup, np.ones(sup.size))
    x, val, mults, nu, resid = _qclp_active_set(c, con, signs, eq)
    th, full_m = np.zeros(d), np.zeros(d + 1)
    th[sup] = x
    full_m[0], full_m[1 + sup] = mults[0], mults[1:]
    return TiltSolution(val, th, resid <= KKT_TOL, resid, method, full_m,
                        nu if zero_sum else None)


def solve_beta(A, rule, model: CgfModel) -> TiltSolution:
    """Rate r_A and optimal tilt beta^A for the rare region W^A.

    Siegmund and gap programs, i.i.d. ones included, go through
    ``_sign_program`` and sum-intersection programs through
    ``_si_active_set``; both carry their KKT certificate.
    """
    d = model.dim
    A = _check_region(rule, d, A)
    validate_drifts(rule, model)

    in_A = np.zeros(d, dtype=bool)
    in_A[list(A)] = True
    signs = np.where(in_A, 1.0, -1.0)
    if isinstance(rule, SumIntersectionRule):
        return _si_active_set(model, np.arange(d), signs, rule.L,
                              "sum_intersection/active-set")
    siegmund = isinstance(rule, SiegmundRule)
    c = np.where(in_A, rule.u, -rule.ell) if siegmund else in_A.astype(float)
    return _sign_program(model, np.arange(d), c, signs, not siegmund,
                         rule.kind + "/active-set")


def solve_gamma_single(k: int, rule: SiegmundRule, model: CgfModel) -> TiltSolution:
    """Single-coordinate tilt gamma^k: k-th entry is the Siegmund root of the
    k-th marginal CGF restriction, other entries zero; value u z_k."""
    validate_drifts(rule, model)
    z = model.marginal_root(k)
    th = np.zeros(model.dim)
    th[k] = z
    resid = abs(model.cgf(th))
    return TiltSolution(rule.u * z, th, resid <= CGF_TOL, resid,
                        "siegmund/gamma-root")


def solve_gamma_pair(k: int, kp: int, rule: SiegmundRule,
                     model: CgfModel) -> TiltSolution:
    """Two-coordinate tilt gamma^{k,k'} maximizing u(theta_k + theta_k')."""
    if k == kp:
        raise ValueError("indices must differ")
    validate_drifts(rule, model)
    return _sign_program(model, sorted((k, kp)), np.full(2, rule.u),
                         np.ones(2), False, "siegmund/gamma-pair")


def solve_gap_pair(l: int, lp: int, rule: GapRule, model: CgfModel) -> TiltSolution:
    """Two-index gap tilt t (e_lp - e_l): maximize theta_lp under the
    zero-sum and sign constraints on {l, lp}, so that t is the positive
    root of t -> Lambda(t (e_lp - e_l))."""
    if not (l < rule.m <= lp):
        raise ValueError("need l in [m] and lp outside [m]")
    validate_drifts(rule, model)
    return _sign_program(model, (l, lp), np.array([0.0, 1.0]),
                         np.array([-1.0, 1.0]), True, "gap/pair")


def solve_gap_quad(l1: int, l2: int, lp1: int, lp2: int, rule: GapRule,
                   model: CgfModel) -> TiltSolution:
    """Four-index gap tilt: maximize theta_lp1 + theta_lp2 under the zero-sum
    and sign constraints with all other coordinates pinned to zero."""
    idx = (l1, l2, lp1, lp2)
    if len(set(idx)) != 4:
        raise ValueError("indices must be distinct")
    if not (l1 < rule.m and l2 < rule.m and lp1 >= rule.m and lp2 >= rule.m):
        raise ValueError("need l1,l2 in [m] and lp1,lp2 outside [m]")
    validate_drifts(rule, model)
    return _sign_program(model, idx, np.array([0.0, 0.0, 1.0, 1.0]),
                         np.array([-1.0, -1.0, 1.0, 1.0]), True, "gap/quad")


def solve_si_z(A, rule: SumIntersectionRule, model: CgfModel) -> TiltSolution:
    """z_A and gamma^A: maximize |theta|_(L) over tilts supported and
    nonnegative on A with |A| = L."""
    validate_drifts(rule, model)
    A = tuple(sorted(A))
    if len(A) != rule.L:
        raise ValueError("solve_si_z needs |A| = L")
    return _si_active_set(model, list(A), np.ones(rule.L), rule.L,
                          "si/z-active-set")


def solve_si_s(B, rule: SumIntersectionRule, model: CgfModel) -> TiltSolution:
    """s_B and the auxiliary tilt on |B| = L + 1 coordinates."""
    validate_drifts(rule, model)
    B = tuple(sorted(B))
    if len(B) != rule.L + 1:
        raise ValueError("solve_si_s needs |B| = L + 1")
    return _si_active_set(model, list(B), np.ones(rule.L + 1), rule.L,
                          "si/s-active-set")


def v_lower_bounds(sets, gamma, witnesses, rule: SiegmundRule,
                   model: CgfModel) -> np.ndarray:
    """Certified lower bounds on v_{A_i}(gamma) for a stack of Siegmund
    regions at one gamma.

    Row i checks that witnesses[i] is feasible for the shifted program
    (Lambda(witnesses[i] - gamma) <= 0), which bounds v_{A_i}(gamma) by the
    support value of witnesses[i] over the region with member mask
    ``sets[i]``.  Each row must be a rare region, and Lambda(gamma) <= 0 is
    checked once; the CGFs of the shifted witnesses and their support values
    are evaluated for all rows at once.  Returns the bounds, -inf on each
    row whose witness is infeasible or breaks the sign pattern of its
    region.
    """
    if not isinstance(rule, SiegmundRule):
        raise ValueError("batched certificates cover the Siegmund rule only")
    sets = np.asarray(sets, dtype=bool)
    witnesses = np.asarray(witnesses, dtype=float)
    if sets.ndim != 2 or sets.shape != witnesses.shape:
        raise ValueError(f"region masks {sets.shape} and witnesses "
                         f"{witnesses.shape} are not (n, d) arrays of one "
                         "shape")
    if not rule.rare_mask(sets).all():
        raise ValueError("Siegmund rare regions have nonempty A")
    gamma = np.asarray(gamma, dtype=float)
    if model.cgf(gamma) > CGF_TOL:
        raise ValueError("gamma must satisfy Lambda(gamma) <= 0")
    feasible = model.cgf_rows(witnesses - gamma) <= CGF_TOL
    return np.where(feasible, rule.support_rows(witnesses, sets), -math.inf)
