"""Mixture-proposal assembly and sufficient-condition checks.

A proposal is a finite set of tilt vectors Theta sampled uniformly by the
engine.  The builders put in Theta the optimal tilts of the candidate rare
regions (singletons for the two-barrier problem, single swaps for the gap
rule, size-L sets for the sum-intersection rule) plus auxiliary tilts that
control the estimator variance over all remaining regions at once, and
report whether the corresponding sufficient condition for asymptotic
efficiency holds:

    (H1)   min_{k != k'} (u z_k + s_{k,k'})        >= 2 min_k r_{k}
    (H2)   min_{k != k'}  2 s_{k,k'}               >= 2 min_k r_{k}
    (H1')  min (ztilde_{l1,l1'} + stilde_{l1,l2,l1',l2'}) >= 2 min_A r_A
    (H2')  min  2 stilde_{l1,l2,l1',l2'}           >= 2 min_A r_A
    (H-SI) min_{A, k not in A} (z_A + s_{A u {k}}) >= 2 min_A r_A

plus the direct per-region condition v_A(beta^{j}) >= 2 r for homogeneous
two-barrier models, certified by the feasible witness beta^A + beta^{j}.

A failed condition leaves the proposal usable (estimates stay unbiased);
efficiency is then unproven, not disproven, and the report carries a
warning instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
import math
from typing import List, Optional, Tuple

import numpy as np

from .models import CgfModel, IndependentModel, MvNormalModel
from .regions import GapRule, SiegmundRule, SumIntersectionRule
from .solvers import (
    SolverError,
    siegmund_profile,
    solve_beta,
    solve_gamma_pair,
    solve_gamma_single,
    solve_gap_pair,
    solve_gap_quad,
    solve_si_s,
    solve_si_z,
    v_lower_bound,
    validate_drifts,
)

__all__ = [
    "MixtureProposal",
    "EfficiencyReport",
    "build_siegmund",
    "check_direct_siegmund_homogeneous",
    "build_gap",
    "build_sum_intersection",
]

DEDUP_TOL = 1e-12
CGF_TOL = 1e-10


@dataclass
class EfficiencyReport:
    """Outcome of one sufficient-condition check.

    ``lhs`` is the smallest variance-control bound over uncovered regions,
    ``rhs`` = 2 r_C the required level, ``r_star`` the certified decay rate
    (meaningful as r_* only when ``holds``).  ``margins`` maps the checked
    index combinations to lhs_item - rhs; only the binding entries are kept
    when the table is huge.
    """

    condition: str
    holds: bool
    lhs: float
    rhs: float
    r_star: float
    margins: dict = field(default_factory=dict)
    warning: Optional[str] = None

    def __post_init__(self):
        self.holds = bool(self.holds)
        self.lhs = float(self.lhs)
        self.rhs = float(self.rhs)
        self.r_star = float(self.r_star)

    def as_dict(self) -> dict:
        return {
            "condition": self.condition,
            "holds": bool(self.holds),
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "r_star": float(self.r_star),
            "margins": {k: float(v) for k, v in self.margins.items()},
            "warning": self.warning,
        }


class MixtureProposal:
    """Finite tilt set with precomputed CGF values and provenance labels.

    Tilts are deduplicated to 1e-12 (the mixture is a set); merged entries
    keep all labels joined with '='.
    """

    def __init__(self, thetas, lambdas, provenance, problem: dict,
                 variant: str = ""):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        lambdas = np.asarray(lambdas, dtype=float)
        if not (thetas.shape[0] == lambdas.shape[0] == len(provenance)):
            raise ValueError("inconsistent proposal table lengths")
        keep_t, keep_l, keep_p = _dedup(thetas, lambdas, list(provenance))
        self.thetas = keep_t
        self.lambdas = keep_l
        self.provenance = keep_p
        self.problem = dict(problem)
        self.variant = variant
        if np.any(self.lambdas > CGF_TOL):
            bad = int(np.argmax(self.lambdas))
            raise ValueError(
                f"component {self.provenance[bad]} has Lambda(theta) = "
                f"{self.lambdas[bad]:.3e} > 0"
            )

    def __len__(self) -> int:
        return self.thetas.shape[0]

    @property
    def dim(self) -> int:
        return self.thetas.shape[1]

    def to_manifest(self, report: Optional[EfficiencyReport] = None,
                    solutions: Optional[list] = None) -> dict:
        man = {
            "schema": "wrongexit-proposal-1",
            "problem": self.problem,
            "variant": self.variant,
            "size": len(self),
            "thetas": self.thetas.tolist(),
            "lambdas": self.lambdas.tolist(),
            "provenance": list(self.provenance),
        }
        if report is not None:
            man["report"] = report.as_dict()
            man["r_star"] = report.r_star
        if solutions is not None:
            man["solutions"] = solutions
        return man

    @classmethod
    def from_manifest(cls, man: dict) -> "MixtureProposal":
        prop = cls(
            np.array(man["thetas"], dtype=float),
            np.array(man["lambdas"], dtype=float),
            man["provenance"],
            man["problem"],
            man.get("variant", ""),
        )
        return prop

    def check_lambdas(self, model: CgfModel, tol: float = CGF_TOL) -> float:
        """Largest |Lambda(theta_i) - lambdas[i]|; raises above ``tol``."""
        worst = max(
            abs(model.cgf(self.thetas[i]) - self.lambdas[i])
            for i in range(len(self))
        )
        if worst > tol:
            raise ValueError(f"stored CGF values off by {worst:.3e}")
        return worst


def _dedup(thetas, lambdas, provenance):
    d = thetas.shape[1]
    groups: dict = {}
    order: List[int] = []
    merged: List[List[int]] = []
    rounded = np.round(thetas, 9)
    for i in range(thetas.shape[0]):
        key = rounded[i].tobytes()
        hit = None
        for j in groups.get(key, []):
            if np.max(np.abs(thetas[i] - thetas[j])) <= DEDUP_TOL:
                hit = j
                break
        if hit is None:
            groups.setdefault(key, []).append(i)
            order.append(i)
            merged.append([i])
        else:
            merged[order.index(hit)].append(i)
    keep_t = thetas[order]
    keep_l = lambdas[order]
    keep_p = ["=".join(provenance[j] for j in grp) for grp in merged]
    return keep_t, keep_l, keep_p


def _set_label(A) -> str:
    return "{" + ",".join(map(str, sorted(A))) + "}"


# ---------------------------------------------------------------------------
# Symmetry detection and pattern expansion
# ---------------------------------------------------------------------------

def _is_exchangeable(model: CgfModel) -> bool:
    if isinstance(model, MvNormalModel):
        return model.exchangeable_parameters() is not None
    return model.is_iid()


def _per_side_symmetric(model: CgfModel, m: int) -> bool:
    """Invariance under permutations fixing the split {[m], rest}."""
    d = model.dim
    if isinstance(model, IndependentModel):
        head, tail = model.components[:m], model.components[m:]
        return all(c == head[0] for c in head) and all(c == tail[0] for c in tail)
    mean, cov = model.mean, model.cov
    for grp in (range(m), range(m, d)):
        g = list(grp)
        if np.ptp(mean[g]) > 1e-12:
            return False
        if np.ptp(np.diag(cov)[g]) > 1e-12:
            return False
    for ga in (list(range(m)), list(range(m, d))):
        for gb in (list(range(m)), list(range(m, d))):
            block = cov[np.ix_(ga, gb)]
            if ga == gb:
                off = block[~np.eye(len(ga), dtype=bool)]
                if off.size and np.ptp(off) > 1e-12:
                    return False
            elif np.ptp(block) > 1e-12:
                return False
    return True


# ---------------------------------------------------------------------------
# Multidimensional two-barrier (Siegmund) proposals
# ---------------------------------------------------------------------------

def _siegmund_singletons(model, rule):
    """(tilts (d,d), rates (d,), residual) for beta^{k}, k = 0..d-1."""
    d = model.dim
    if _is_exchangeable(model) and d > 1:
        sol = solve_beta([0], rule, model)
        v_plus, v_minus = sol.tilt[0], sol.tilt[1]
        tilts = np.full((d, d), v_minus)
        np.fill_diagonal(tilts, v_plus)
        return tilts, np.full(d, sol.value), sol.residual
    tilts = np.zeros((d, d))
    rates = np.zeros(d)
    resid = 0.0
    for k in range(d):
        sol = solve_beta([k], rule, model)
        tilts[k] = sol.tilt
        rates[k] = sol.value
        resid = max(resid, sol.residual)
    return tilts, rates, resid


def build_siegmund(variant: str, model: CgfModel, ell: float, u: float,
                   ) -> Tuple[MixtureProposal, EfficiencyReport]:
    """Assemble Theta^(0), Theta^(1) or Theta^(2) and check (H1) / (H2).

    Theta^(0) holds the optimal tilts of the d singleton regions;
    Theta^(1) adds the d single-coordinate root tilts; Theta^(2) adds the
    d(d-1)/2 pair tilts instead.
    """
    variant = variant.lower()
    if variant not in ("theta0", "theta1", "theta2"):
        raise ValueError(f"unknown Siegmund variant {variant!r}")
    rule = SiegmundRule(ell, u)
    validate_drifts(rule, model)
    d = model.dim
    problem = {"kind": "siegmund", "ell": ell, "u": u, "d": d}

    beta_tilts, rates, resid = _siegmund_singletons(model, rule)
    r_min = float(rates.min())
    thetas = [beta_tilts[k] for k in range(d)]
    labels = [f"beta[{_set_label([k])}]" for k in range(d)]

    if d == 1:
        # classical one-dimensional exit problem: the single tilt is optimal
        prop = MixtureProposal(thetas, [model.cgf(t) for t in thetas],
                               labels, problem, variant)
        rep = EfficiencyReport("H1", True, math.inf, 2 * r_min, r_min,
                               {"d=1": math.inf})
        return prop, rep

    symmetric = _is_exchangeable(model)
    z_vals = np.array([model.marginal_root(k) for k in range(d)])

    # pair values s_{k,k'}; one representative suffices under exchangeability
    if symmetric:
        pair_sol = solve_gamma_pair(0, 1, rule, model)
        s_of = lambda k, kp: pair_sol.value
        pair_items = [((0, 1), pair_sol)]
    else:
        pair_table = {}
        for k, kp in combinations(range(d), 2):
            pair_table[(k, kp)] = solve_gamma_pair(k, kp, rule, model)
        s_of = lambda k, kp: pair_table[tuple(sorted((k, kp)))].value
        pair_items = list(pair_table.items())

    rhs = 2 * r_min
    warning = ("sufficient condition failed: estimates remain unbiased but "
               "asymptotic efficiency is unproven")
    if variant == "theta1":
        condition = "H1"
        lhs = math.inf
        margins = {}
        pairs = [(0, 1)] if symmetric else combinations(range(d), 2)
        for k, kp in pairs:
            for a, b in ((k, kp), (kp, k)):
                val = u * z_vals[a] + s_of(a, b)
                lhs = min(lhs, val)
                margins[f"z[{a}]+s[{a},{b}]"] = val - rhs
        for k in range(d):
            sol = solve_gamma_single(k, rule, model)
            thetas.append(sol.tilt)
            labels.append(f"gamma[{k}]")
    elif variant == "theta2":
        condition = "H2"
        lhs = math.inf
        margins = {}
        items = pair_items if not symmetric else [((0, 1), pair_items[0][1])]
        for (k, kp), sol in items:
            val = 2 * sol.value
            lhs = min(lhs, val)
            margins[f"2s[{k},{kp}]"] = val - rhs
        if symmetric:
            rep_tilt = pair_items[0][1].tilt
            for k, kp in combinations(range(d), 2):
                th = np.zeros(d)
                th[k] = rep_tilt[0]
                th[kp] = rep_tilt[1]
                thetas.append(th)
                labels.append(f"gamma_pair[{k},{kp}]")
        else:
            for (k, kp), sol in pair_items:
                thetas.append(sol.tilt)
                labels.append(f"gamma_pair[{k},{kp}]")
    elif symmetric:
        condition = "direct"
        rep = check_direct_siegmund_homogeneous(model, ell, u)
        lhs, margins = rep.lhs, rep.margins
    else:
        condition, lhs, margins = "direct", -math.inf, {}
        warning = "direct condition not checked: model is not exchangeable"

    holds = lhs >= rhs - 1e-12
    rep = EfficiencyReport(condition, holds, float(lhs), float(rhs), r_min,
                           _clip_margins(margins), None if holds else warning)
    lam = [model.cgf(t) for t in thetas]
    prop = MixtureProposal(thetas, lam, labels, problem, variant)
    return prop, rep


def check_direct_siegmund_homogeneous(model: CgfModel, ell: float, u: float
                                      ) -> EfficiencyReport:
    """Direct condition v_A(beta^{0}) >= 2 min_k r_{k} for homogeneous
    models, reduced to A = {0..m-1}, m = 2..d, and certified through the
    feasible witness beta^A + beta^{0} of the shifted program."""
    rule = SiegmundRule(ell, u)
    validate_drifts(rule, model)
    d = model.dim
    v_plus, v_minus, rates = siegmund_profile(model, ell, u)
    beta = lambda a: np.where(np.arange(d) < a, v_plus[a], v_minus[a])
    beta1, r = beta(1), rates[1]
    rhs = 2 * r
    lhs = math.inf
    margins = {}
    for m in range(2, d + 1):
        A = list(range(m))
        vb = v_lower_bound(A, beta1, beta(m) + beta1, rule, model)
        val = vb.lower_bound if vb.feasible else -math.inf
        lhs = min(lhs, val)
        margins[f"m={m}"] = val - rhs
    holds = lhs >= rhs - 1e-12
    warning = None if holds else "direct condition failed for some region size"
    return EfficiencyReport("direct", holds, float(lhs), float(rhs),
                            float(r), _clip_margins(margins), warning)


# ---------------------------------------------------------------------------
# Gap-rule proposals
# ---------------------------------------------------------------------------

def _gap_swap_sets(d, m):
    for l in range(m):
        for lp in range(m, d):
            yield l, lp, tuple(sorted(set(range(m)) - {l} | {lp}))


def _gap_betas(model, rule, m):
    """beta^A for all single-swap sets; one solve under side symmetry."""
    d = model.dim
    if _per_side_symmetric(model, m):
        l0, lp0 = 0, m
        sol = solve_beta(sorted(set(range(m)) - {l0} | {lp0}), rule, model)
        # orbit values: on [m] \ {l}, on {l}, on {l'}, elsewhere
        v_keep = sol.tilt[1] if m > 1 else 0.0
        v_out = sol.tilt[l0]
        v_in = sol.tilt[lp0]
        v_rest = sol.tilt[m + 1] if d - m > 1 else 0.0
        out = []
        for l, lp, A in _gap_swap_sets(d, m):
            th = np.empty(d)
            th[:m] = v_keep
            th[m:] = v_rest
            th[l] = v_out
            th[lp] = v_in
            out.append((l, lp, A, th, sol.value))
        return out, sol.residual
    out = []
    resid = 0.0
    for l, lp, A in _gap_swap_sets(d, m):
        sol = solve_beta(A, rule, model)
        out.append((l, lp, A, sol.tilt, sol.value))
        resid = max(resid, sol.residual)
    return out, resid


def build_gap(variant: str, model: CgfModel, m: int, quad_cap: int = 250000
              ) -> Tuple[MixtureProposal, EfficiencyReport]:
    """Assemble the gap-rule mixtures and check (H1') / (H2').

    ``t0`` holds the m(d-m) single-swap optimal tilts; ``t1`` adds the
    two-index tilts; ``t2`` adds the four-index tilts.
    """
    variant = variant.lower()
    if variant not in ("t0", "t1", "t2"):
        raise ValueError(f"unknown gap variant {variant!r}")
    d = model.dim
    if not 2 <= m <= d - 2:
        raise ValueError("gap rule needs 2 <= m <= d-2")
    rule = GapRule(m)
    validate_drifts(rule, model)
    problem = {"kind": "gap", "m": m, "d": d}
    symmetric = _per_side_symmetric(model, m)

    betas, resid = _gap_betas(model, rule, m)
    r_min = min(v for *_, v in betas)
    rhs = 2 * r_min
    thetas = [th for _, _, _, th, _ in betas]
    labels = [f"beta[{_set_label(A)}]" for _, _, A, _, _ in betas]

    def pair_value(l, lp):
        return solve_gap_pair(l, lp, rule, model)

    def quad_value(l1, l2, lp1, lp2):
        return solve_gap_quad(l1, l2, lp1, lp2, rule, model)

    margins = {}
    if variant == "t1":
        condition = "H1'"
        if symmetric:
            zt = pair_value(0, m).value
            st = quad_value(0, 1, m, m + 1).value
            lhs = zt + st
            margins["z~[0,%d]+s~[0,1,%d,%d]" % (m, m, m + 1)] = lhs - rhs
        else:
            z_table = {(l, lp): pair_value(l, lp).value
                       for l in range(m) for lp in range(m, d)}
            lhs = math.inf
            for l1, l2 in combinations(range(m), 2):
                for lp1, lp2 in combinations(range(m, d), 2):
                    st = quad_value(l1, l2, lp1, lp2).value
                    for a, b in ((l1, lp1), (l2, lp2)):
                        val = z_table[(a, b)] + st
                        if val < lhs:
                            lhs = val
                            margins = {f"z~[{a},{b}]+s~[{l1},{l2},{lp1},{lp2}]":
                                       val - rhs}
        for l in range(m):
            for lp in range(m, d):
                sol = pair_value(l, lp)
                thetas.append(sol.tilt)
                labels.append(f"gap_pair[{l},{lp}]")
    elif variant == "t2":
        condition = "H2'"
        n_quads = math.comb(m, 2) * math.comb(d - m, 2)
        if n_quads + m * (d - m) > quad_cap:
            raise SolverError(
                f"gap variant t2 needs {n_quads} four-index tilts, above the "
                f"cap {quad_cap}"
            )
        if symmetric:
            sol = quad_value(0, 1, m, m + 1)
            lhs = 2 * sol.value
            margins["2s~[0,1,%d,%d]" % (m, m + 1)] = lhs - rhs
            v_lo = sol.tilt[0]
            v_hi = sol.tilt[m]
            for l1, l2 in combinations(range(m), 2):
                for lp1, lp2 in combinations(range(m, d), 2):
                    th = np.zeros(d)
                    th[[l1, l2]] = v_lo
                    th[[lp1, lp2]] = v_hi
                    thetas.append(th)
                    labels.append(f"gap_quad[{l1},{l2},{lp1},{lp2}]")
        else:
            lhs = math.inf
            for l1, l2 in combinations(range(m), 2):
                for lp1, lp2 in combinations(range(m, d), 2):
                    sol = quad_value(l1, l2, lp1, lp2)
                    thetas.append(sol.tilt)
                    labels.append(f"gap_quad[{l1},{l2},{lp1},{lp2}]")
                    val = 2 * sol.value
                    if val < lhs:
                        lhs = val
                        margins = {f"2s~[{l1},{l2},{lp1},{lp2}]": val - rhs}
    else:
        # t0 is covered by (H1') when the swap tilts already coincide with
        # the two-index tilts, so that Theta~0 = Theta~1
        condition = "H1'"
        if symmetric:
            zt = pair_value(0, m)
            same = np.max(np.abs(zt.tilt - betas[0][3])) <= 1e-9
            if same:
                st = quad_value(0, 1, m, m + 1)
                lhs = zt.value + st.value
                margins["z~+s~"] = lhs - rhs
            else:
                lhs = -math.inf
                margins["theta0 != theta1"] = -math.inf
        else:
            n_quads = math.comb(m, 2) * math.comb(d - m, 2)
            same = True
            z_table = {}
            for l, lp, A, th, _ in betas:
                zt = pair_value(l, lp)
                z_table[(l, lp)] = zt.value
                if np.max(np.abs(zt.tilt - th)) > 1e-9:
                    same = False
                    break
            if not same or n_quads > 20000:
                lhs = -math.inf
                margins["theta0 != theta1" if not same else "check skipped"] \
                    = -math.inf
            else:
                lhs = math.inf
                for l1, l2 in combinations(range(m), 2):
                    for lp1, lp2 in combinations(range(m, d), 2):
                        st = quad_value(l1, l2, lp1, lp2).value
                        for a, b in ((l1, lp1), (l2, lp2)):
                            val = z_table[(a, b)] + st
                            if val < lhs:
                                lhs = val
                                margins = {
                                    f"z~[{a},{b}]+s~[{l1},{l2},{lp1},{lp2}]":
                                    val - rhs
                                }

    holds = lhs >= rhs - 1e-12
    warning = None if holds else (
        "sufficient condition failed: estimates remain unbiased but "
        "asymptotic efficiency is unproven"
    )
    rep = EfficiencyReport(condition, holds, float(lhs), float(rhs),
                           float(r_min), _clip_margins(margins), warning)
    lam = [model.cgf(t) for t in thetas]
    prop = MixtureProposal(thetas, lam, labels, problem, variant)
    return prop, rep


# ---------------------------------------------------------------------------
# Sum-intersection proposals
# ---------------------------------------------------------------------------

def build_sum_intersection(model: CgfModel, L: int,
                           component_cap: int = 100000
                           ) -> Tuple[MixtureProposal, EfficiencyReport]:
    """Assemble Theta^(SI) = {beta^A} U {gamma^A} over |A| = L and check
    (H-SI).  Refuses to enumerate when 2 C(d, L) exceeds ``component_cap``.
    """
    d = model.dim
    if not 2 <= L <= d - 1:
        raise ValueError("sum-intersection rule needs 2 <= L <= d-1")
    rule = SumIntersectionRule(L)
    validate_drifts(rule, model)
    needed = 2 * math.comb(d, L)
    if needed > component_cap:
        raise SolverError(
            f"sum-intersection proposal needs {needed} components, above "
            f"the cap {component_cap}"
        )
    problem = {"kind": "sum_intersection", "L": L, "d": d}
    symmetric = _is_exchangeable(model)

    subsets = list(combinations(range(d), L))
    thetas = []
    labels = []
    if symmetric:
        rep_A = tuple(range(L))
        beta = solve_beta(rep_A, rule, model)
        p, q = beta.tilt[0], beta.tilt[L] if d > L else 0.0
        z_sol = solve_si_z(rep_A, rule, model)
        s_sol = solve_si_s(tuple(range(L + 1)), rule, model)
        r_min = beta.value
        lhs = z_sol.value + s_sol.value
        margins = {f"z[{_set_label(rep_A)}]+s[{_set_label(range(L + 1))}]":
                   lhs - 2 * r_min}
        for A in subsets:
            th = np.full(d, q)
            th[list(A)] = p
            thetas.append(th)
            labels.append(f"beta[{_set_label(A)}]")
        for A in subsets:
            th = np.zeros(d)
            th[list(A)] = z_sol.tilt[list(rep_A)]
            thetas.append(th)
            labels.append(f"si_z[{_set_label(A)}]")
    else:
        r_min = math.inf
        z_table = {}
        for A in subsets:
            beta = solve_beta(A, rule, model)
            r_min = min(r_min, beta.value)
            thetas.append(beta.tilt)
            labels.append(f"beta[{_set_label(A)}]")
        for A in subsets:
            z = solve_si_z(A, rule, model)
            z_table[A] = z.value
            thetas.append(z.tilt)
            labels.append(f"si_z[{_set_label(A)}]")
        lhs = math.inf
        margins = {}
        for A in subsets:
            for k in range(d):
                if k in A:
                    continue
                B = tuple(sorted(A + (k,)))
                val = z_table[A] + solve_si_s(B, rule, model).value
                if val < lhs:
                    lhs = val
                    margins = {f"z[{_set_label(A)}]+s[{_set_label(B)}]":
                               val - 2 * r_min}

    rhs = 2 * r_min
    holds = lhs >= rhs - 1e-12
    warning = None if holds else (
        "sufficient condition failed: estimates remain unbiased but "
        "asymptotic efficiency is unproven"
    )
    rep = EfficiencyReport("H-SI", holds, float(lhs), float(rhs),
                           float(r_min), _clip_margins(margins), warning)
    lam = [model.cgf(t) for t in thetas]
    prop = MixtureProposal(thetas, lam, labels, problem, "si")
    return prop, rep


def _clip_margins(margins: dict, cap: int = 200) -> dict:
    if len(margins) <= cap:
        return margins
    worst = sorted(margins.items(), key=lambda kv: kv[1])[:cap]
    return dict(worst)
