"""Rate/tilt programs for the exit-region optimization problems.

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

1. closed forms and lockstep scalar roots (Siegmund roots, and the
   Siegmund tilts of every region size of an exchangeable model in one
   pass);
2. ``_sign_program``, the one record for every program with a linear
   objective (the Siegmund and gap beta^A, gamma^{k,k'} and the two- and
   four-index gap tilts): max c.theta under a sign pattern on a support,
   the CGF constraint and an optional zero sum;
3. ``_si_program`` for every sum-intersection program (beta^A, z_A and
   s_B): the concave objective rearrangement_min over the vertex
   functionals of its LP.

The records (``beta_program`` and its siblings) go to
``active_set.block_solve``, which solves any number of them in lockstep,
in slices of at most ``active_set.BLOCK_VALUES`` stacked matrix entries;
a program's result is bit for bit the one it gets in a block of its own.
The product solves go through its checked gate, ``checked_block_solve``.
The one closed-form solve, ``solve_gamma_single``, needs no record.

No program is reduced by symmetry here; the proposal builders solve one
program per symmetry orbit instead.  Everything here needs only numpy.

``siegmund_profiles`` gives the Siegmund tilts of every region size of a
stack of exchangeable models (a list of one for a single model), with their
CGF values in two-block form; the direct condition
(``proposals.direct_certificate``) is certified from them by weak duality,
so its shifted programs are never solved.
"""

from __future__ import annotations

import math
import numbers
from typing import Tuple

import numpy as np

from .active_set import Program, SolverError, TiltSolution
from .constraints import CGF_TOL, _constraint
from .models import CgfModel, IndependentModel, MvNormalModel, siegmund_root
from .regions import GapRule, SiegmundRule, SumIntersectionRule
from .rootfind import lockstep_roots

__all__ = [
    "TiltSolution",
    "SolverError",
    "beta_program",
    "gamma_pair_program",
    "gap_pair_program",
    "gap_quad_program",
    "si_z_program",
    "si_s_program",
    "solve_gamma_single",
    "homogeneous_profile",
    "siegmund_profiles",
    "validate_drifts",
]

# ---------------------------------------------------------------------------
# Drift validation
# ---------------------------------------------------------------------------

def validate_drifts(rule, model: CgfModel) -> None:
    """Reject models whose drift signs do not match the stopping rule."""
    if isinstance(rule, GapRule):
        # the first min(m, d) drifts positive and the rest negative
        if model.positive_drifts != min(rule.m, model.dim):
            raise ValueError(
                "gap rule requires positive drift on the first m coordinates "
                "and negative drift on the rest"
            )
    elif model.positive_drifts:
        raise ValueError(f"{rule.kind} rule requires negative drift in "
                         "every coordinate")


def homogeneous_profile(component, d: int, ell: float, u: float):
    """Per-size Siegmund tilt components for i.i.d. coordinates.

    For |A| = a the optimal tilt has value v_plus[a] on A and v_minus[a] off
    A: Lambda'(v+) = u s and Lambda'(v-) = -ell s, v- clamped at 0, at the
    s > 0 where a Lambda(v+) + (d-a) Lambda(v-) = 0, solved for every size
    in lockstep through the component's row formulas.  Entry a = d has
    v_minus = -inf by convention.  Also returns r[a] = u a v+ + ell (d-a)
    (-v-).
    """
    if not (isinstance(d, numbers.Integral) and d > 0):
        raise ValueError("d must be a positive integer")
    SiegmundRule(ell, u)  # ell and u must be positive and finite
    if component.mean >= 0:
        raise ValueError("Siegmund profile requires negative mean")
    c, a = component, np.arange(1.0, d + 1)
    n = d - a
    off, slopes = n > 0, np.array([[u], [-ell]])

    def tilts(s):  # v+ and v- (clamped); -inf below the range of Lambda'
        v = slopes * s - c.lin
        t = np.where(v <= c.floor, -math.inf, c.k1_inverse(v)[0])
        return t[0], np.minimum(0.0, t[1])

    def lam(t):
        return np.where(t > -math.inf, c.lin * t + c.k(t), math.inf)

    def g(s):
        vp, vm = tilts(s)
        return a * lam(vp) + np.where(off, n * lam(vm), 0.0)

    def gprime(s):
        vp, vm = tilts(s)
        free = off & (vm < 0.0) & (vm > -math.inf)
        return (a * u * u * s / c.k2(vp)
                + np.where(free, n * ell * ell * s / c.k2(vm), 0.0))

    s = lockstep_roots(g, gprime, np.full(d, math.inf),
                       f"the i.i.d. profile of {c!r}")
    out = np.zeros((3, d + 1))
    with np.errstate(all="ignore"):  # v- may be -inf at a = d
        vp, vm = tilts(s)
        out[:, 1:] = (vp, np.where(off, vm, -math.inf),
                      u * a * vp + np.where(off, ell * n * -vm, 0.0))
    return tuple(out)


def siegmund_profiles(models, ell: float, us):
    """Per-size Siegmund tilts of a stack of cells (models[i], us[i]): one
    ell and exchangeable models of one dimension d.

    Returns (n, d + 1) arrays v+, v- and r, row i as ``homogeneous_profile``
    gives them for cell i, and lam, where lam[i, a] is Lambda of the tilt
    v+ on a coordinates and v- on the rest, in two-block form (O(d) per
    cell, no d x d product).  i.i.d. cells take ``homogeneous_profile``.
    The normal cells share one broadcast of the closed form of the
    two-orbit program of ``_subsolve`` (v+ on A, v- off A); where v- comes
    out positive, or a = d, it is pinned at 0, leaving the root v+ = -2 mu a
    / s11.
    """
    d = models[0].dim
    us = np.asarray(us, dtype=float)
    vp, vm, r, lam = (np.zeros((len(models), d + 1)) for _ in range(4))
    a = np.arange(d + 1.0)
    normal = []
    for i, model in enumerate(models):
        if model.dim != d:
            raise ValueError(f"the cells have dimensions {d} and {model.dim}")
        if isinstance(model, IndependentModel) and model.is_iid():
            comp = model.components[0]
            vp[i], vm[i], r[i] = homogeneous_profile(comp, d, ell, us[i])
            one = lambda t: comp.lin * t + comp.k(t)  # Lambda of a coordinate
            lam[i] = a * one(vp[i]) + (d - a) * one(np.where(a < d, vm[i], 0))
            continue
        ex = isinstance(model, MvNormalModel) and model.exchangeable_parameters()
        if not ex:
            raise ValueError("the size profile requires an exchangeable model")
        normal.append((i, *ex))
    if not normal:
        return vp, vm, r, lam
    idx, mu, s2, rho = (np.array(x)[:, None] for x in zip(*normal))
    idx = idx[:, 0]
    u = us[idx, None]
    a = a[1:]
    n = d - a
    # orbit-reduced covariance [[s11, s12], [s12, s22]] of the split (A, A^c)
    s11, s22 = s2 * a * (1 - rho + rho * a), s2 * n * (1 - rho + rho * n)
    s12 = s2 * rho * a * n
    det = s11 * s22 - s12 * s12
    with np.errstate(divide="ignore", invalid="ignore"):
        form = lambda x, y: (s22 * x * x - 2 * s12 * x * y + s11 * y * y) / det
        s = np.sqrt(form(mu * a, mu * n) / form(u * a, -ell * n))
        w1, w2 = (s * u - mu) * a, -(s * ell + mu) * n
        p, m = (s22 * w1 - s12 * w2) / det, (s11 * w2 - s12 * w1) / det
    free = m <= 0.0  # False where v- > 0, and at a = d (det = 0, nan)
    p, m = np.where(free, p, -2.0 * mu * a / s11), np.where(free, m, 0.0)
    vp[idx, 1:], vm[idx, 1:], r[idx, 1:] = p, m, u * a * p - ell * n * m
    # Lambda = mu 1.theta + s2 ((1 - rho) |theta|^2 + rho (1.theta)^2) / 2
    total, square = a * p + n * m, a * p * p + n * m * m
    lam[idx, 1:] = mu * total + 0.5 * s2 * ((1 - rho) * square
                                            + rho * total * total)
    vm[idx, -1] = -math.inf
    return vp, vm, r, lam


# ---------------------------------------------------------------------------
# Public solvers
# ---------------------------------------------------------------------------

def _check_indices(d, idx) -> Tuple[int, ...]:
    idx = tuple(map(int, idx))
    if idx and not 0 <= min(idx) <= max(idx) < d:
        raise ValueError("region indices out of range")
    if len(set(idx)) < len(idx):
        raise ValueError("indices must be distinct")
    return idx


def _check_region(rule, d, A) -> Tuple[int, ...]:
    A = tuple(sorted(_check_indices(d, A)))
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


def _sign_program(model, support, c, signs, zero_sum, method) -> Program:
    """The record of max c.theta s.t. signs*theta >= 0 on ``support``,
    theta = 0 off it, Lambda(theta) <= 0 and, when ``zero_sum``, sum theta
    = 0.  ``c`` and ``signs`` run over ``support``; the constraint takes
    unit signs and the active set keeps the sign pattern itself."""
    sup = np.asarray(support)
    return Program(c, _constraint(model, sup, np.ones(sup.size)), signs,
                   np.ones(sup.size) if zero_sum else None, None, method,
                   sup, model.dim)


def _si_program(model, S, signs, L, method) -> Program:
    S = np.asarray(S)
    return Program(None, _constraint(model, S, signs), signs, None, L, method,
                   S, model.dim)


def beta_program(A, rule, model: CgfModel) -> Program:
    """The record of the program of r_A and the optimal tilt beta^A for the
    rare region W^A: a sign program for the Siegmund and gap rules, i.i.d.
    models included, and a sum-intersection program otherwise."""
    d = model.dim
    A = _check_region(rule, d, A)
    validate_drifts(rule, model)

    in_A = np.zeros(d, dtype=bool)
    in_A[list(A)] = True
    signs = np.where(in_A, 1.0, -1.0)
    if isinstance(rule, SumIntersectionRule):
        return _si_program(model, np.arange(d), signs, rule.L,
                           "sum_intersection/active-set")
    siegmund = isinstance(rule, SiegmundRule)
    c = np.where(in_A, rule.u, -rule.ell) if siegmund else in_A.astype(float)
    return _sign_program(model, np.arange(d), c, signs, not siegmund,
                         rule.kind + "/active-set")


def gamma_pair_program(k: int, kp: int, rule: SiegmundRule,
                       model: CgfModel) -> Program:
    """The record of the two-coordinate tilt gamma^{k,k'}: maximize
    u(theta_k + theta_k')."""
    k, kp = _check_indices(model.dim, (k, kp))
    validate_drifts(rule, model)
    return _sign_program(model, sorted((k, kp)), np.full(2, rule.u),
                         np.ones(2), False, "siegmund/gamma-pair")


def gap_pair_program(l: int, lp: int, rule: GapRule,
                     model: CgfModel) -> Program:
    """The record of the two-index gap tilt t (e_lp - e_l): maximize
    theta_lp under the zero-sum and sign constraints on {l, lp}, so that t
    is the positive root of t -> Lambda(t (e_lp - e_l))."""
    l, lp = _check_indices(model.dim, (l, lp))
    if not (l < rule.m <= lp):
        raise ValueError("need l in [m] and lp outside [m]")
    validate_drifts(rule, model)
    return _sign_program(model, (l, lp), np.array([0.0, 1.0]),
                         np.array([-1.0, 1.0]), True, "gap/pair")


def gap_quad_program(l1: int, l2: int, lp1: int, lp2: int, rule: GapRule,
                     model: CgfModel) -> Program:
    """The record of the four-index gap tilt: maximize theta_lp1 +
    theta_lp2 under the zero-sum and sign constraints with all other
    coordinates pinned to zero."""
    idx = _check_indices(model.dim, (l1, l2, lp1, lp2))
    if not (l1 < rule.m and l2 < rule.m and lp1 >= rule.m and lp2 >= rule.m):
        raise ValueError("need l1,l2 in [m] and lp1,lp2 outside [m]")
    validate_drifts(rule, model)
    return _sign_program(model, idx, np.array([0.0, 0.0, 1.0, 1.0]),
                         np.array([-1.0, -1.0, 1.0, 1.0]), True, "gap/quad")


def si_z_program(A, rule: SumIntersectionRule, model: CgfModel) -> Program:
    """The record of z_A and gamma^A: maximize |theta|_(L) over tilts
    supported and nonnegative on A with |A| = L."""
    validate_drifts(rule, model)
    A = tuple(sorted(_check_indices(model.dim, A)))
    if len(A) != rule.L:
        raise ValueError("z_A needs |A| = L")
    return _si_program(model, list(A), np.ones(rule.L), rule.L,
                       "si/z-active-set")


def si_s_program(B, rule: SumIntersectionRule, model: CgfModel) -> Program:
    """The record of s_B and the auxiliary tilt on |B| = L + 1
    coordinates."""
    validate_drifts(rule, model)
    B = tuple(sorted(_check_indices(model.dim, B)))
    if len(B) != rule.L + 1:
        raise ValueError("s_B needs |B| = L + 1")
    return _si_program(model, list(B), np.ones(rule.L + 1), rule.L,
                       "si/s-active-set")


def solve_gamma_single(k: int, rule: SiegmundRule, model: CgfModel) -> TiltSolution:
    """Single-coordinate tilt gamma^k: k-th entry is the Siegmund root z_k
    of the law of coordinate k, other entries zero; value u z_k."""
    (k,) = _check_indices(model.dim, (k,))
    validate_drifts(rule, model)
    marginal = model.marginal(k)
    z = siegmund_root(marginal)
    th = np.zeros(model.dim)
    th[k] = z
    resid = abs(marginal.lin * z + marginal.k(z))
    return TiltSolution(float(rule.u * z), th, bool(resid <= CGF_TOL),
                        float(resid), "siegmund/gamma-root")
