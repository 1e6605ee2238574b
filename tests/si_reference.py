"""Reference solvers for the tilt programs, kept for the tests.

The package solves every tilt program with one exact active set.  These
are the earlier paths it replaced: for the sum-intersection programs, a
ray search over the angle of theta = (p on A, -q off A) for i.i.d.
models, SLSQP on the paper's LP-dual formulation, and a box search for z_A
on independent coordinates; for the linear-objective (Siegmund and gap)
programs on independent coordinates, nested scalar root finding on the
KKT multipliers.  The tests compare the active set against them.  On a
normal model, ``shifted_program`` solves the linear-objective programs
exactly by enumerating their pinned sets, shifted or not.

It also keeps three certificate oracles: ``support_value``, the
closed-form support value of a rare region of each rule; ``v_lower_bound``,
the one-region certificate; and ``v_lower_bounds``, its row-wise form over
a stack of Siegmund regions at one gamma, whose explicit ``cgf_rows``
feasibility test checks the two-block one of
``proposals.direct_certificate``.  ``solve`` solves one program record as a
block of one.

The scalar laws' K, K', K'', the inverse of K' and domain end, and the
scalar root search (``positive_root``, ``refine_root``) are written out
here, apart from the package's family rows and lockstep root finder.
"""

from itertools import product
import math

import numpy as np

from wrongexit import (
    GapRule,
    IndependentModel,
    MvNormalModel,
    Normal,
    Region,
    ShiftedExponential,
    SiegmundRule,
    TiltDomainError,
    rearrangement_min,
)
from wrongexit.active_set import block_solve
from wrongexit.regions import SIGN_TOL
from wrongexit.rootfind import RootError
from wrongexit.constraints import _Quad, _subsolve
from wrongexit.solvers import (
    CGF_TOL,
    SolverError,
    TiltSolution,
    _check_region,
)

ZERO_SUM_TOL = 1e-9


# ---------------------------------------------------------------------------
# Scalar laws and scalar root finding
# ---------------------------------------------------------------------------

def domain_sup(c) -> float:
    """The open upper end of the domain of Lambda of a scalar law."""
    return c.rate if isinstance(c, ShiftedExponential) else math.inf


def cgf(c, t: float) -> float:
    """Lambda(t) of a scalar law, +inf outside the domain."""
    if t >= domain_sup(c):
        return math.inf
    if isinstance(c, Normal):
        return c.mu * t + 0.5 * c.sigma2 * t * t
    return c.shift * t + math.log(c.rate / (c.rate - t))


def _check_domain(c, t: float) -> None:
    if t >= domain_sup(c):
        raise TiltDomainError(f"tilt {t} outside domain (-inf, "
                              f"{domain_sup(c)})")


def cgf_prime(c, t: float) -> float:
    _check_domain(c, t)
    if isinstance(c, Normal):
        return c.mu + c.sigma2 * t
    return c.shift + 1.0 / (c.rate - t)


def cgf_second(c, t: float) -> float:
    _check_domain(c, t)
    return c.sigma2 if isinstance(c, Normal) else (c.rate - t) ** -2


def prime_inverse(c, y: float) -> float:
    """The t with Lambda'(t) = y; -inf below the range of Lambda'."""
    if isinstance(c, Normal):
        return (y - c.mu) / c.sigma2
    v = y - c.shift
    return -math.inf if v <= 0.0 else c.rate - 1.0 / v


BISECT_XTOL = 1e-15


def positive_root(f, fprime=None, upper: float = math.inf,
                  start: float = 1.0) -> float:
    """Unique root of ``f`` on (0, upper) for f with f(0+) <= 0: bracket by
    doubling (halving the distance to a finite ``upper``), then
    ``refine_root``."""
    lo = 0.0
    hi = min(start, upper / 2 if math.isfinite(upper) else start)
    for _ in range(200):
        val = f(hi)
        if math.isnan(val):
            raise RootError("function returned NaN while bracketing")
        if val > 0.0:
            break
        lo = hi
        hi = (hi + upper) / 2 if math.isfinite(upper) else hi * 2
    else:
        raise RootError("failed to bracket a positive root")
    return refine_root(f, lo, hi, fprime)


def refine_root(f, lo: float, hi: float, fprime=None) -> float:
    """Root on a bracket [lo, hi] with f(lo) <= 0 < f(hi): bisection to
    the float resolution, then one guarded Newton (or central-difference
    secant) step, kept only when it lowers |f|."""
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if hi - lo <= BISECT_XTOL * max(1.0, abs(mid)):
            break
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    x = 0.5 * (lo + hi)
    fx = f(x)
    if fx == 0.0:
        return x
    if fprime is not None:
        slope = fprime(x)
    else:
        h = 1e-7 * max(1.0, abs(x))
        try:
            slope = (f(x + h) - f(x - h)) / (2 * h)
        except (ValueError, OverflowError, ZeroDivisionError):
            slope = 0.0
    if slope and math.isfinite(slope):
        cand = x - fx / slope
        width = hi - lo
        if lo - width <= cand <= hi + width:
            try:
                f_cand = f(cand)
            except (ValueError, OverflowError, ZeroDivisionError):
                f_cand = math.inf
            if abs(f_cand) < abs(fx):
                return cand
    return x


def solve(program) -> TiltSolution:
    """The solution of one program record, solved as a block of one."""
    return block_solve([program])[0]


def support_value(rule, theta, region: Region) -> float:
    """inf over closure(W^A) of theta.x for a rare region A of ``rule``:
    -inf off the sign pattern of A (and, for the gap rule, when theta does
    not sum to zero), else u theta_A.1 - ell theta_{A^c}.1 (Siegmund),
    theta_A.1 (gap) or rearrangement_min(theta, L) (sum-intersection)."""
    if not region.rare:
        raise ValueError("support value is defined for rare regions")
    theta = np.asarray(theta, dtype=float)
    in_A = np.zeros(theta.size, dtype=bool)
    in_A[list(region.members)] = True
    if isinstance(rule, SiegmundRule):
        return float(rule.support_rows(theta[None], in_A[None])[0])
    if isinstance(rule, GapRule) and abs(theta.sum()) > ZERO_SUM_TOL:
        return -math.inf
    if np.any(theta[in_A] < -SIGN_TOL) or np.any(theta[~in_A] > SIGN_TOL):
        return -math.inf
    if isinstance(rule, GapRule):
        return float(theta[in_A].sum())
    return rearrangement_min(theta, rule.L)


def v_lower_bound(A, gamma, witness, rule, model):
    """Certify v_A(gamma) >= support_value(witness, A) by checking that the
    witness is feasible for the shifted program.  Returns the bound and
    whether it is certified; a witness that is infeasible or breaks the
    sign pattern of A gives (-inf, False)."""
    gamma = np.asarray(gamma, dtype=float)
    witness = np.asarray(witness, dtype=float)
    region = Region(rare=True, members=_check_region(rule, model.dim, A))
    if model.cgf(gamma) > CGF_TOL:
        raise ValueError("gamma must satisfy Lambda(gamma) <= 0")
    if model.cgf(witness - gamma) > CGF_TOL:
        return -math.inf, False
    bound = support_value(rule, witness, region)
    return (bound, True) if math.isfinite(bound) else (-math.inf, False)


def v_lower_bounds(sets, gamma, witnesses, rule: SiegmundRule,
                   model) -> np.ndarray:
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


def shifted_program(A, gamma, rule, model: MvNormalModel) -> float:
    """max c.theta s.t. Lambda(theta - gamma) <= 0 and the sign pattern of
    the Siegmund or gap region A (and sum theta = 0 for the gap rule), on a
    normal model with d <= 6: the optimal value, whose weak dual certifies
    v_A(gamma).  The constraint is the quadratic kappa + b.theta +
    theta' Sigma theta / 2 with kappa = Lambda(-gamma) and b = mu - Sigma
    gamma.  Every pinned set is solved exactly by ``_subsolve``; the
    optimum is the best sign-feasible one, as the maximizer of the pinned
    set of its zeros is the maximizer of the program."""
    d = model.dim
    assert d <= 6
    gamma = np.asarray(gamma, dtype=float)
    in_A = np.isin(np.arange(d), A)
    siegmund = isinstance(rule, SiegmundRule)
    c = np.where(in_A, rule.u, -rule.ell) if siegmund else in_A * 1.0
    signs = np.where(in_A, 1.0, -1.0)
    quad = _Quad(np.array([model.cgf(-gamma)]),
                 (model.mean - model.cov @ gamma)[None], model.cov[None])
    eq = None if siegmund else np.ones((1, d))
    best = -math.inf
    for pinned in product((False, True), repeat=d):
        x, _, _, ok = _subsolve(c[None], quad, eq, np.array([pinned]))
        if ok[0] and np.all(signs * x[0] >= -1e-12):
            best = max(best, float(c @ x[0]))
    return best


def _ray_radius(model, direction) -> float:
    """Largest r >= 0 with Lambda(r * direction) <= 0; on an independent
    model Lambda is the sum of the scalar laws' ``cgf`` above."""
    if isinstance(model, MvNormalModel):
        drift = float(model.mean @ direction)
        curv = float(direction @ (model.cov @ direction))
        return max(0.0, -2.0 * drift / curv)
    laws = list(zip(model.components, direction.tolist()))
    if sum(cgf_prime(c, 0.0) * u for c, u in laws) >= 0:
        return 0.0
    caps = [domain_sup(c) / u for c, u in laws
            if u > 0 and math.isfinite(domain_sup(c))]
    upper = min(caps) if caps else math.inf
    return positive_root(lambda rr: sum(cgf(c, rr * u) for c, u in laws),
                         upper=upper)


def _symmetric_si_beta(model, A, L):
    """max rearrangement_min(theta, L) over Lambda <= 0 with the sign pattern
    of A, for i.i.d. independent models only (normal models take the exact
    active set): reduces to theta = (p on A, -q off A) and a quasiconcave
    one-dimensional search over the ray angle.
    """
    d = model.dim
    in_A = np.zeros(d, dtype=bool)
    in_A[list(A)] = True

    def value_at_angle(phi):
        direction = np.where(in_A, math.cos(phi), -math.sin(phi))
        R = _ray_radius(model, direction)
        if R <= 0:
            return 0.0, np.zeros(d)
        th = R * direction
        return rearrangement_min(th, L), th

    grid = np.linspace(0.0, math.pi / 2, 513)
    vals = [value_at_angle(p)[0] for p in grid]
    i = int(np.argmax(vals))
    a, b = grid[max(0, i - 1)], grid[min(len(grid) - 1, i + 1)]
    # golden-section polish on the quasiconcave profile
    invphi = (math.sqrt(5) - 1) / 2
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = value_at_angle(x1)[0], value_at_angle(x2)[0]
    for _ in range(80):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = value_at_angle(x2)[0]
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = value_at_angle(x1)[0]
    phi = 0.5 * (a + b)
    val, th = value_at_angle(phi)
    return TiltSolution(float(val), th, True, abs(model.cgf(th)),
                        "si/symmetric-ray-search")


def _si_dual_program(model, signs, subsets):
    """Paper formulation of the sum-intersection programs: maximize
    sum_C lambda_C over (theta, lambda) with lambda >= 0,
    sum_{C: k in C} lambda_C <= signs_k * theta_k and Lambda(theta) <= 0.

    Solved with SLSQP (small instances only; the builders guard sizes), then
    polished radially onto the CGF boundary, which is exact because the
    objective is positively homogeneous.
    """
    from scipy.optimize import minimize

    d, nC = model.dim, len(subsets)
    # sum_{C owns k} lambda_C <= signs_k theta_k   (rows indexed by k)
    lin = np.zeros((d, d + nC))
    lin[:, :d] = np.diag(signs.astype(float))
    for i, C in enumerate(subsets):
        lin[list(C), d + i] = -1.0
    cons = [
        {"type": "ineq", "fun": lambda z: -model.cgf(z[:d]),
         "jac": lambda z: np.concatenate(
             [-model.cgf_grad_rows([z[:d]])[0], np.zeros(nC)])},
        {"type": "ineq", "fun": lambda z: lin @ z, "jac": lambda z: lin},
    ]
    bounds = ([(0.0, None) if sk > 0 else (None, 0.0) for sk in signs]
              + [(0.0, None)] * nC)
    start = np.concatenate([signs * 0.1, np.full(nC, 0.1 / max(1, nC))])
    res = minimize(
        lambda z: -z[d:].sum(), start,
        jac=lambda z: np.concatenate([np.zeros(d), np.full(nC, -1.0)]),
        constraints=cons, bounds=bounds, method="SLSQP",
        options={"maxiter": 400, "ftol": 1e-14})
    th, lam = res.x[:d], res.x[d:]
    cur = model.cgf(th)
    if cur > 0 or cur < 0 and np.linalg.norm(th) > 0:
        # radial polish: scale to the CGF boundary (objective is homogeneous)
        rho = positive_root(lambda rr: model.cgf(rr * th),
                            start=1.0 if cur < 0 else 0.5)
        th, lam = rho * th, rho * lam
    resid = abs(model.cgf(th))
    return th, lam, resid, res.success


def _restrict_model(model, idx):
    idx = list(idx)
    if isinstance(model, MvNormalModel):
        return MvNormalModel(model.mean[idx], model.cov[np.ix_(idx, idx)])
    return IndependentModel([model.components[i] for i in idx])


def _si_box_search(model: IndependentModel, A):
    """max t with min{Lambda(theta): theta_A >= t, theta = 0 off A} <= 0 for
    independent coordinates, where each coordinate's minimum is its own."""
    A = list(A)
    comps = [model.components[k] for k in A]
    floors = [prime_inverse(c, 0.0) for c in comps]
    box = lambda t: np.maximum(t, floors)
    psi = lambda t: sum(cgf(c, x) for c, x in zip(comps, box(t)))
    hi = 1.0
    for _ in range(200):
        if psi(hi) > 0:
            break
        hi *= 2
    t_star = refine_root(psi, 0.0, hi)
    th_full = np.zeros(model.dim)
    th_full[A] = box(t_star)  # the witness at the boundary
    return t_star, th_full


def _indep_theta(comp, sign, y):
    """Stationarity-consistent coordinate value, clamped to its sign."""
    raw = prime_inverse(comp, y)
    val = raw if math.isfinite(raw) else -math.inf
    if sign > 0:
        return max(0.0, val)
    return min(0.0, val)


def _indep_term(comp, theta_k):
    if not math.isfinite(theta_k):
        return math.inf
    return cgf(comp, theta_k)


def _independent_kkt(components, c, signs, with_eq=False):
    """Solve max c.theta s.t. sum_k Lambda_k(theta_k) <= 0 + signs
    (+ zero sum when ``with_eq``) by root finding on the KKT multipliers.

    With s = 1/lambda_0 and t = nu/lambda_0, stationarity pins
    (Lambda_k)'(theta_k) = s c_k - t on unclamped coordinates; the
    CGF sum is strictly increasing in s, and (for gap problems) the
    coordinate sum is strictly decreasing in t, so both levels of the nested
    search are monotone scalar root-finding problems.
    """
    n = len(components)

    def theta_vec(s, t):
        return [
            _indep_theta(components[k], signs[k], s * c[k] - t)
            for k in range(n)
        ]

    def coord_sum(s, t):
        th = theta_vec(s, t)
        return -math.inf if any(not math.isfinite(v) for v in th) else sum(th)

    def solve_t(s):
        # bracket the zero-sum equation; coordinate sum decreases in t
        lo, hi = -1.0, 1.0
        for _ in range(200):
            if coord_sum(s, lo) > 0:
                break
            lo *= 2
        for _ in range(200):
            if coord_sum(s, hi) <= 0:
                break
            hi *= 2
        return refine_root(lambda t: -coord_sum(s, t), lo, hi)

    def cgf_sum(s):
        t = solve_t(s) if with_eq else 0.0
        th = theta_vec(s, t)
        return sum(_indep_term(components[k], th[k]) for k in range(n)), t

    g0, _ = cgf_sum(0.0)
    if g0 > CGF_TOL:
        return None  # no sign-feasible point satisfies the CGF constraint
    g = lambda s: cgf_sum(s)[0]

    def gprime(s):
        # envelope derivative: s [sum c^2/w - (sum c/w)^2 / sum 1/w] over
        # the unclamped coordinates, w_k the shifted CGF curvature
        t = solve_t(s) if with_eq else 0.0
        th = theta_vec(s, t)
        sum_c2w = sum_cw = sum_1w = 0.0
        for k in range(n):
            if not math.isfinite(th[k]) or th[k] == 0.0:
                continue
            w = cgf_second(components[k], th[k])
            sum_c2w += c[k] * c[k] / w
            sum_cw += c[k] / w
            sum_1w += 1.0 / w
        val = sum_c2w
        if with_eq and sum_1w > 0:
            val -= sum_cw * sum_cw / sum_1w
        return s * val

    try:
        s_star = positive_root(g, gprime)
    except RootError as exc:
        raise SolverError(f"independent KKT root search failed: {exc}") from exc
    t_star = solve_t(s_star) if with_eq else 0.0
    th = np.array(theta_vec(s_star, t_star))
    resid = abs(g(s_star)) + (abs(th.sum()) if with_eq else 0.0)
    mults = np.zeros(n)
    for k in range(n):
        if th[k] == 0.0:
            mk = signs[k] * (
                cgf_prime(components[k], 0.0) + t_star - s_star * c[k]
            )
            mults[k] = mk / s_star if s_star > 0 else math.nan
    lam0 = 1.0 / s_star
    nu = t_star * lam0 if with_eq else None
    return th, float(c @ th), np.concatenate([[lam0], mults]), nu, resid
