"""Mixture-proposal assembly and sufficient-condition checks.

A proposal is a finite set of tilt vectors Theta, which the engine samples
uniformly or with a tuned share for each of its two groups
(``MixtureProposal.groups``).  The builders put in Theta the optimal tilts
of the candidate rare regions (singletons for the two-barrier problem,
single swaps for the gap rule, size-L sets for the sum-intersection rule)
plus auxiliary tilts that control the estimator variance over all remaining
regions at once, and report whether the corresponding sufficient condition
for asymptotic efficiency holds:

    (H1)   min_{k != k'} (u z_k + s_{k,k'})        >= 2 min_k r_{k}
    (H2)   min_{k != k'}  2 s_{k,k'}               >= 2 min_k r_{k}
    (H1')  min (ztilde_{l1,l1'} + stilde_{l1,l2,l1',l2'}) >= 2 min_A r_A
    (H2')  min  2 stilde_{l1,l2,l1',l2'}           >= 2 min_A r_A
    (H-SI) min_{A, k not in A} (z_A + s_{A u {k}}) >= 2 min_A r_A

plus the direct per-region condition v_A(beta^{j}) >= 2 r for homogeneous
two-barrier models, certified by the feasible witness beta^A + beta^{j}
(``direct_certificate``, which theta0 reads at its one cell).

A failed condition leaves the proposal usable (estimates stay unbiased);
efficiency is then unproven, not disproven, and the report, which one tail
(``_finish``) makes for every builder, carries a warning instead.

Orbit solves: the model's symmetry blocks ([m] and the rest for the gap
rule, all of range(d) for an exchangeable model, else one per coordinate)
split each program's index patterns into orbits.  Each builder solves one
canonical pattern per orbit, moves its tilt onto the other patterns, and
checks its condition over one pattern per orbit; without symmetry, each
distinct program is still solved once.  The records of all uncached
canonical patterns of one program kind go through one checked block solve
(``active_set.checked_block_solve``).  The candidate regions and their
tilts beta^A come from one block, ``candidate_betas``, which every builder
and the ``solve`` audit start from; given one ``solve_cache``, the audit
reads the builder's solves instead of repeating them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import combinations, islice
import math
from typing import Optional, Tuple

import numpy as np

from .active_set import BLOCK_VALUES, checked_block_solve
from .models import CgfModel, IndependentModel, exchangeable_form
from .regions import GapRule, SiegmundRule, SumIntersectionRule
from .solvers import (
    CGF_TOL,
    SolverError,
    beta_program,
    gamma_pair_program,
    gap_pair_program,
    gap_quad_program,
    si_s_program,
    si_z_program,
    siegmund_profiles,
    solve_gamma_single,
    validate_drifts,
)

__all__ = [
    "MixtureProposal",
    "EfficiencyReport",
    "build_siegmund",
    "direct_certificate",
    "build_gap",
    "build_sum_intersection",
    "candidate_betas",
    "plain_proposal",
    "problem_record",
    "solve_cache",
]

DEDUP_TOL = 1e-12
GAP_QUAD_CAP = 250000  # t2 components: four-index plus single-swap tilts
SI_COMPONENT_CAP = 100000  # sum-intersection components: 2 C(d, L)
MARGIN_CAP = 200  # margins a report keeps, the smallest first
VARIANTS = {"siegmund": ("theta0", "theta1", "theta2"),  # by problem kind
            "gap": ("t0", "t1", "t2"), "sum_intersection": ("si",)}


@dataclass
class EfficiencyReport:
    """Outcome of one sufficient-condition check.

    ``lhs`` is the smallest variance-control bound over uncovered regions,
    ``rhs`` = 2 r_C the required level, ``r_star`` the certified decay rate
    (meaningful as r_* only when ``holds``).  ``margins`` maps the checked
    index combinations to lhs_item - rhs; only the binding entries are kept
    when the table is huge, and ``margins_dropped`` counts the others.
    """

    condition: str
    holds: bool
    lhs: float
    rhs: float
    r_star: float
    margins: dict = field(default_factory=dict)
    warning: Optional[str] = None
    margins_dropped: int = 0

    def __post_init__(self):
        self.holds = bool(self.holds)
        self.lhs = float(self.lhs)
        self.rhs = float(self.rhs)
        self.r_star = float(self.r_star)
        self.margins = {k: float(v) for k, v in dict(self.margins).items()}

    def as_dict(self) -> dict:
        return asdict(self)


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
        bad = ~(np.isfinite(self.lambdas) & (self.lambdas <= CGF_TOL))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError(
                f"component {self.provenance[i]} has Lambda(theta) = "
                f"{self.lambdas[i]:.3e}, not a finite value <= 0"
            )

    def __len__(self) -> int:
        return self.thetas.shape[0]

    @property
    def dim(self) -> int:
        return self.thetas.shape[1]

    @cached_property
    def groups(self) -> Tuple[np.ndarray, np.ndarray]:
        """Masks of the components in the candidate group (the optimal
        tilts, labelled ``beta[...]``) and in the auxiliary group (every
        other label).  A component merged across the groups is in both."""
        parts = [label.split("=") for label in self.provenance]
        return (np.array([any(p.startswith("beta[") for p in ps)
                          for ps in parts]),
                np.array([not all(p.startswith("beta[") for p in ps)
                          for ps in parts]))

    def share_weights(self, s: float) -> np.ndarray:
        """Component weights alpha_j(s) = s [j in beta] / K_beta +
        (1 - s) [j in aux] / K_aux, which give the candidate group the share
        s of the draws; a component in both groups gets the sum.  Needs
        both groups nonempty."""
        beta, aux = self.groups
        return s * beta / beta.sum() + (1.0 - s) * aux / aux.sum()

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
        return cls(
            np.array(man["thetas"], dtype=float),
            np.array(man["lambdas"], dtype=float),
            man["provenance"],
            man["problem"],
            man.get("variant", ""),
        )

    def check_lambdas(self, model: CgfModel) -> float:
        """Largest |Lambda(theta_i) - lambdas[i]|; raises unless <= CGF_TOL."""
        worst = float(np.max(np.abs(model.cgf_rows(self.thetas)
                                    - self.lambdas)))
        if not worst <= CGF_TOL:
            raise ValueError(f"stored CGF values off by {worst:.3e}")
        return worst


def _dedup(thetas, lambdas, provenance):
    groups: dict = {}
    merged: dict = {}  # kept row -> the rows merged into it, kept row first
    rounded = np.round(thetas, 9) + 0.0  # -0.0 and 0.0 hash alike
    for i in range(thetas.shape[0]):
        key = rounded[i].tobytes()
        hit = None
        for j in groups.get(key, []):
            if np.max(np.abs(thetas[i] - thetas[j])) <= DEDUP_TOL:
                hit = j
                break
        if hit is None:
            groups.setdefault(key, []).append(i)
            merged[i] = [i]
        else:
            merged[hit].append(i)
    order = list(merged)
    keep_t = thetas[order]
    keep_l = lambdas[order]
    keep_p = ["=".join(provenance[j] for j in grp) for grp in merged.values()]
    return keep_t, keep_l, keep_p


def problem_record(rule, d: int) -> dict:
    """The ``problem`` entry of a proposal for ``rule`` in dimension d: the
    rule's kind and parameters and d."""
    names = {"siegmund": ("ell", "u"), "gap": ("m",),
             "sum_intersection": ("L",)}[rule.kind]
    return {"kind": rule.kind, **{k: getattr(rule, k) for k in names},
            "d": d}


def plain_proposal(rule, d: int) -> MixtureProposal:
    """The one-component proposal theta = 0: plain Monte Carlo."""
    return MixtureProposal(np.zeros((1, d)), np.zeros(1), ["plain[0]"],
                           problem_record(rule, d), "plain")


def _set_label(A) -> str:
    return "{" + ",".join(map(str, sorted(A))) + "}"


# ---------------------------------------------------------------------------
# Orbit solves and the shared report tail
# ---------------------------------------------------------------------------

FAILED = ("sufficient condition failed: estimates remain unbiased but "
          "asymptotic efficiency is unproven")


def _symmetry_cuts(model: CgfModel, m: int = 0) -> list:
    """Bounds 0 = c_0 < ... < c_n = d of the coordinate blocks the model is
    invariant under permuting within: [m] and the rest (all of range(d)
    when m = 0 or [m] covers it) if it is, else one block per coordinate."""
    d = model.dim
    cuts = [0, m, d] if 0 < m < d else [0, d]
    spans = list(zip(cuts, cuts[1:]))
    if isinstance(model, IndependentModel):
        comps = model.components
        ok = all(c == comps[a] for a, b in spans for c in comps[a:b])
    else:
        mean, cov = model.mean, model.cov
        ok = all(exchangeable_form(mean[a:b], cov[a:b, a:b]) is not None
                 for a, b in spans) and all(
            np.ptp(cov[a:b, c:e]) <= 1e-12
            for (a, b), (c, e) in combinations(spans, 2))
    return cuts if ok else list(range(d + 1))


class _Orbits:
    """Solve cache over the model's symmetry blocks.

    A program is named by a key and an index pattern.  Permuting coordinates
    within blocks carries one pattern's program onto another's, so a
    pattern is canonicalised (the i-th index that falls in a block goes to
    that block's i-th coordinate) and each canonical pattern is solved once.
    A representative's tilt is constant on each block's unused coordinates;
    that fill is kept with it, so moving the tilt onto a pattern copies only
    the pattern's entries.
    """

    def __init__(self, model: CgfModel, m: int = 0):
        cuts = _symmetry_cuts(model, m)
        self.symmetric = len(cuts) < model.dim + 1
        self._spans = list(zip(cuts, cuts[1:]))
        sizes = np.diff(cuts)
        self._start = np.repeat(cuts[:-1], sizes)
        self._end = np.repeat(cuts[1:], sizes)
        self._cache: dict = {}

    def heads(self, n: int) -> list:
        """The first n coordinates of each block: patterns over them meet
        every orbit of patterns with at most n indices in each block."""
        return [j for a, b in self._spans for j in range(a, min(a + n, b))]

    def solve(self, key: str, patterns, program):
        """Values (n,), tilts (n, d) and residuals (n,) of program ``key`` on
        n index patterns; ``program(canonical pattern)`` gives its
        ``Program`` record or its closed-form TiltSolution.  The patterns
        not yet cached go through ``checked_block_solve``, once per chunk
        of at most BLOCK_VALUES tilt entries (one call unless there are
        thousands), each named "{key} program on pattern {rep}" in the
        SolverError of a failed or unconverged solve."""
        idx = np.array(patterns, dtype=np.intp).reshape(len(patterns), -1)
        start = self._start[idx]
        canon = start.copy()  # block start + rank among the block's indices
        for i in range(1, idx.shape[1]):
            canon[:, i] += (start[:, :i] == start[:, i:i + 1]).sum(axis=1)
        reps, inv = np.unique(canon, axis=0, return_inverse=True)
        reps = list(map(tuple, reps.tolist()))
        new = [rep for rep in reps if (key, rep) not in self._cache]
        d = self._start.size
        step = max(1, BLOCK_VALUES // d)
        for part in (new[i:i + step] for i in range(0, len(new), step)):
            sols = checked_block_solve(
                lambda i: f"{key} program on pattern {part[i]}",
                (program(rep) for rep in part))
            rows, tilts = np.array(part), np.array([sol.tilt for sol in sols])
            # a block's unused coordinates take its first unused one's entry
            used = np.zeros((len(part), d), dtype=np.intp)
            for j in range(rows.shape[1]):
                used[np.arange(len(part)), self._start[rows[:, j]]] += 1
            fill = self._start + used[:, self._start]
            fill = np.where(fill < self._end, fill, np.arange(d))
            self._cache.update(zip(((key, rep) for rep in part), zip(
                (sol.value for sol in sols),
                np.take_along_axis(tilts, fill, axis=1),
                np.take_along_axis(tilts, rows, axis=1),
                (sol.residual for sol in sols))))
        hits = [self._cache[(key, rep)] for rep in reps]
        inv = inv.reshape(-1)
        tilts = np.array([h[1] for h in hits])[inv]
        tilts[np.arange(idx.shape[0])[:, None], idx] = \
            np.array([h[2] for h in hits])[inv]
        return (np.array([h[0] for h in hits])[inv], tilts,
                np.array([h[3] for h in hits])[inv])


def solve_cache(rule, model: CgfModel) -> _Orbits:
    """An empty orbit solve cache for the programs of ``rule`` on
    ``model``; a builder and the ``solve`` audit that share one solve each
    candidate program once between them."""
    return _Orbits(model, rule.m if isinstance(rule, GapRule) else 0)


def candidate_betas(rule, model: CgfModel, n: Optional[int] = None,
                    cache: Optional[_Orbits] = None):
    """The candidate regions of ``rule`` with their rates r_A, tilts beta^A
    and residuals, solved once per orbit, and the orbit cache.

    The regions are the Siegmund singletons, the gap swaps [m] \\ {l} u {l'}
    (l in [m], l' outside it) or the sum-intersection L-sets, in
    lexicographic order of their index patterns; the first ``n`` of them
    when ``n`` is given.  The cache (``cache``, a ``solve_cache`` of the
    rule and model, else a new one) holds the solves under the key "beta".
    """
    d = model.dim
    gap = isinstance(rule, GapRule)
    orb = cache or solve_cache(rule, model)
    if gap:
        patterns = _gap_patterns(range(d), rule.m, 1)
        region = lambda q: _swap_set(rule.m, *q)
    else:
        size = 1 if isinstance(rule, SiegmundRule) else rule.L
        patterns, region = combinations(range(d), size), lambda q: q
    patterns = list(islice(patterns, n))
    rates, betas, resid = orb.solve(
        "beta", patterns, lambda q: beta_program(region(q), rule, model))
    return [region(q) for q in patterns], rates, betas, resid, orb


def _finish(model, thetas, labels, problem, variant, condition, lhs, rhs,
            r_star, margins, warning=FAILED):
    """The report (with ``warning`` when the condition fails), its margins
    clipped to the MARGIN_CAP smallest, and the proposal over the stacked
    tilt blocks, with their CGF values."""
    holds = lhs >= rhs - 1e-12
    kept, dropped = _clip_margins(margins)
    rep = EfficiencyReport(condition, holds, lhs, rhs, r_star, kept,
                           None if holds else warning, dropped)
    thetas = np.concatenate(thetas)
    prop = MixtureProposal(thetas, model.cgf_rows(thetas), labels, problem,
                           variant)
    return prop, rep


def _clip_margins(margins: dict) -> Tuple[dict, int]:
    """The MARGIN_CAP smallest margins and the number of margins dropped."""
    if len(margins) <= MARGIN_CAP:
        return margins, 0
    worst = sorted(margins.items(), key=lambda kv: kv[1])[:MARGIN_CAP]
    return dict(worst), len(margins) - MARGIN_CAP


# ---------------------------------------------------------------------------
# Multidimensional two-barrier (Siegmund) proposals
# ---------------------------------------------------------------------------

def build_siegmund(variant: str, model: CgfModel, ell: float, u: float,
                   cache: Optional[_Orbits] = None
                   ) -> Tuple[MixtureProposal, EfficiencyReport]:
    """Assemble Theta^(0), Theta^(1) or Theta^(2) and check (H1) / (H2).

    Theta^(0) holds the optimal tilts of the d singleton regions;
    Theta^(1) adds the d single-coordinate root tilts; Theta^(2) adds the
    d(d-1)/2 pair tilts instead.  Programs are solved through ``cache``
    (see ``candidate_betas``).
    """
    variant = variant.lower()
    if variant not in VARIANTS["siegmund"]:
        raise ValueError(f"unknown Siegmund variant {variant!r}")
    rule = SiegmundRule(ell, u)
    validate_drifts(rule, model)
    d = model.dim
    problem = problem_record(rule, d)
    singletons, rates, betas, _, orb = candidate_betas(rule, model,
                                                       cache=cache)
    r_min = rates.min()
    rhs = 2 * r_min
    thetas = [betas]
    labels = [f"beta[{_set_label(A)}]" for A in singletons]

    if d == 1:
        # classical one-dimensional exit problem: the single tilt is optimal
        return _finish(model, thetas, labels, problem, variant, "H1",
                       math.inf, rhs, r_min, {"d=1": math.inf})

    warning = FAILED
    lhs, margins = math.inf, {}
    rep_pairs = list(combinations(orb.heads(2), 2))
    pair_prog = lambda q: gamma_pair_program(*q, rule, model)
    if variant == "theta1":
        condition = "H1"
        s = orb.solve("pair", rep_pairs, pair_prog)[0]
        z, gammas, _ = orb.solve(
            "single", singletons,
            lambda q: solve_gamma_single(q[0], rule, model))
        for (k, kp), s_kk in zip(rep_pairs, s):
            for a, b in ((k, kp), (kp, k)):
                val = z[a] + s_kk
                lhs = min(lhs, val)
                margins[f"z[{a}]+s[{a},{b}]"] = val - rhs
        thetas.append(gammas)
        labels += [f"gamma[{k}]" for k in range(d)]
    elif variant == "theta2":
        condition = "H2"
        s = orb.solve("pair", rep_pairs, pair_prog)[0]
        for (k, kp), s_kk in zip(rep_pairs, s):
            lhs = min(lhs, 2 * s_kk)
            margins[f"2s[{k},{kp}]"] = 2 * s_kk - rhs
        pairs = list(combinations(range(d), 2))
        thetas.append(orb.solve("pair", pairs, pair_prog)[1])
        labels += [f"gamma_pair[{k},{kp}]" for k, kp in pairs]
    elif orb.symmetric:
        condition = "direct"
        cert = direct_certificate([model], ell, [u])
        lhs, rhs, r_min = cert.lhs[0], cert.rhs[0], cert.r_star[0]
        margins = dict(zip((f"m={m}" for m in range(2, d + 1)),
                           (cert.vals[0] - rhs).tolist()))
    else:
        condition, lhs = "direct", -math.inf
        warning = "direct condition not checked: model is not exchangeable"
    return _finish(model, thetas, labels, problem, variant, condition, lhs,
                   rhs, r_min, margins, warning)


@dataclass
class DirectCertificate:
    """The direct condition at a stack of cells: ``vals[i, m - 2]`` is the
    certified lower bound on v_A(beta^{0}) for A = {0..m-1} at cell i (-inf
    where it is not certified), and ``r_star[i]`` the singleton rate r_{0};
    cell i holds when its smallest bound ``lhs[i]`` reaches ``rhs[i]`` =
    2 r_star[i].
    """

    vals: np.ndarray
    r_star: np.ndarray
    rhs: np.ndarray = field(init=False)
    lhs: np.ndarray = field(init=False)
    holds: np.ndarray = field(init=False)

    def __post_init__(self):
        self.rhs = 2 * self.r_star
        self.lhs = self.vals.min(axis=1, initial=math.inf)
        self.holds = self.lhs >= self.rhs - 1e-12


def direct_certificate(models, ell: float, us) -> DirectCertificate:
    """Direct condition v_A(beta^{0}) >= 2 r_{0} at the cells (models[i],
    us[i]): one ell and exchangeable models of one dimension d.

    Each cell is reduced to A = {0..m-1}, m = 2..d, and certified by the
    witnesses beta^A + beta^{0} of the shifted programs.  A witness is
    feasible when Lambda(beta^A) <= CGF_TOL, and Lambda(beta^{0}) <=
    CGF_TOL must hold; both are read from the two-block CGF values of
    ``siegmund_profiles``.  The support values of the explicit witness rows
    come from ``SiegmundRule.support_rows``.  The cells of one u are
    certified together, in slices of at most BLOCK_VALUES values, so memory
    does not grow with the number of cells.
    """
    us = np.asarray(us, dtype=float)
    d = models[0].dim
    for model, u in zip(models, us):
        validate_drifts(SiegmundRule(ell, u), model)
        if model.dim != d:
            raise ValueError(f"the cells have dimensions {d} and {model.dim}")
    vals, r_star = np.empty((us.size, d - 1)), np.empty(us.size)
    sets = np.arange(d) < np.arange(2, d + 1)[:, None]  # row m-2: |A| = m
    # cells of one slice: its witness rows and the temporaries of
    # support_rows, about four arrays of their shape, hold at most
    # BLOCK_VALUES values
    per = max(1, BLOCK_VALUES // (4 * d * d))
    for u in dict.fromkeys(us.tolist()):
        cells = np.flatnonzero(us == u)
        for i in np.split(cells, range(per, cells.size, per)):
            v_plus, v_minus, rates, lam = siegmund_profiles(
                [models[c] for c in i], ell, us[i])
            if np.any(lam[:, 1] > CGF_TOL):
                raise ValueError("gamma must satisfy Lambda(gamma) <= 0")
            beta0 = np.where(np.arange(d) == 0, v_plus[:, 1:2], v_minus[:, 1:2])
            rows = np.where(sets, v_plus[:, 2:, None], v_minus[:, 2:, None])
            rows += beta0[:, None]
            vals[i] = np.where(lam[:, 2:] <= CGF_TOL,
                               SiegmundRule(ell, u).support_rows(rows, sets),
                               -math.inf)
            r_star[i] = rates[:, 1]
    return DirectCertificate(vals, r_star)


# ---------------------------------------------------------------------------
# Gap-rule proposals
# ---------------------------------------------------------------------------

def _swap_set(m, l, lp):
    """The single-swap region [m] \\ {l} u {lp}."""
    return sorted(set(range(m)) - {l} | {lp})


def _gap_patterns(cols, m, n):
    """Patterns (l_1..l_n, l'_1..l'_n) over ``cols``: increasing l_i in [m]
    and increasing l'_i outside [m]."""
    inside = [j for j in cols if j < m]
    outside = [j for j in cols if j >= m]
    return [ls + lps for ls in combinations(inside, n)
            for lps in combinations(outside, n)]


def build_gap(variant: str, model: CgfModel, m: int,
              cache: Optional[_Orbits] = None
              ) -> Tuple[MixtureProposal, EfficiencyReport]:
    """Assemble the gap-rule mixtures and check (H1') / (H2').

    ``t0`` holds the m(d-m) single-swap optimal tilts; ``t1`` adds the
    two-index tilts; ``t2`` adds the four-index tilts.  ``cache`` is as
    for ``build_siegmund``.
    """
    variant = variant.lower()
    if variant not in VARIANTS["gap"]:
        raise ValueError(f"unknown gap variant {variant!r}")
    d = model.dim
    if not 2 <= m <= d - 2:
        raise ValueError("gap rule needs 2 <= m <= d-2")
    rule = GapRule(m)
    validate_drifts(rule, model)
    problem = problem_record(rule, d)
    pair_prog = lambda q: gap_pair_program(*q, rule, model)
    quad_prog = lambda q: gap_quad_program(*q, rule, model)

    regions, rates, betas, _, orb = candidate_betas(rule, model,
                                                    cache=cache)
    swaps = _gap_patterns(range(d), m, 1)
    r_min = rates.min()
    rhs = 2 * r_min
    thetas = [betas]
    labels = [f"beta[{_set_label(A)}]" for A in regions]

    warning = FAILED
    lhs, margins = -math.inf, {}
    if variant == "t2":
        condition = "H2'"
        n_quads = math.comb(m, 2) * math.comb(d - m, 2)
        if n_quads + m * (d - m) > GAP_QUAD_CAP:
            raise SolverError(
                f"gap variant t2 needs {n_quads} four-index tilts, above the "
                f"cap {GAP_QUAD_CAP}"
            )
        quads = _gap_patterns(range(d), m, 2)
        s, tilts, _ = orb.solve("quad", quads, quad_prog)
        i = int(np.argmin(s))
        lhs = 2 * s[i]
        margins["2s~[%d,%d,%d,%d]" % quads[i]] = lhs - rhs
        thetas.append(tilts)
        labels += ["gap_quad[%d,%d,%d,%d]" % q for q in quads]
    else:
        condition = "H1'"
        heads = orb.heads(2)
        n_rep = (math.comb(sum(j < m for j in heads), 2)
                 * math.comb(sum(j >= m for j in heads), 2))
        pairs = orb.solve("pair", swaps, pair_prog)[1]
        if variant == "t0" and np.max(np.abs(pairs - betas)) > 1e-9:
            # (H1') covers t0 only when Theta~0 = Theta~1
            margins["theta0 != theta1"] = -math.inf
            warning = ("(H1') not checked: the swap tilts differ from the "
                       "two-index tilts, so theta0 != theta1")
        elif variant == "t0" and n_rep > 20000:
            margins["check skipped"] = -math.inf
            warning = (f"(H1') not checked: {n_rep} four-index programs, "
                       "above the cap 20000")
        else:
            quads = _gap_patterns(heads, m, 2)
            q = np.array(quads)
            s = orb.solve("quad", quads, quad_prog)[0]
            vals = np.stack([orb.solve("pair", q[:, j::2], pair_prog)[0] + s
                             for j in (0, 1)], axis=1).ravel()
            i = int(np.argmin(vals))
            q4, j = quads[i // 2], i % 2
            lhs = vals[i]
            margins["z~[%d,%d]+s~[%d,%d,%d,%d]" % (q4[j], q4[j + 2], *q4)] \
                = lhs - rhs
        if variant == "t1":
            thetas.append(pairs)
            labels += ["gap_pair[%d,%d]" % s for s in swaps]
    return _finish(model, thetas, labels, problem, variant, condition, lhs,
                   rhs, r_min, margins, warning)


# ---------------------------------------------------------------------------
# Sum-intersection proposals
# ---------------------------------------------------------------------------

def build_sum_intersection(model: CgfModel, L: int,
                           cache: Optional[_Orbits] = None
                           ) -> Tuple[MixtureProposal, EfficiencyReport]:
    """Assemble Theta^(SI) = {beta^A} U {gamma^A} over |A| = L and check
    (H-SI).  Refuses to enumerate when 2 C(d, L) exceeds SI_COMPONENT_CAP.
    ``cache`` is as for ``build_siegmund``.
    """
    d = model.dim
    if not 2 <= L <= d - 1:
        raise ValueError("sum-intersection rule needs 2 <= L <= d-1")
    rule = SumIntersectionRule(L)
    validate_drifts(rule, model)
    needed = 2 * math.comb(d, L)
    if needed > SI_COMPONENT_CAP:
        raise SolverError(
            f"sum-intersection proposal needs {needed} components, above "
            f"the cap {SI_COMPONENT_CAP}"
        )
    problem = problem_record(rule, d)
    z_prog = lambda q: si_z_program(q, rule, model)

    subsets, rates, betas, _, orb = candidate_betas(rule, model,
                                                    cache=cache)
    r_min = rates.min()
    rhs = 2 * r_min
    thetas = [betas, orb.solve("z", subsets, z_prog)[1]]
    labels = ([f"beta[{_set_label(A)}]" for A in subsets]
              + [f"si_z[{_set_label(A)}]" for A in subsets])

    heads = orb.heads(L + 1)
    reps = [(A, tuple(sorted(A + (k,)))) for A in combinations(heads, L)
            for k in heads if k not in A]
    vals = (orb.solve("z", [A for A, _ in reps], z_prog)[0]
            + orb.solve("s", [B for _, B in reps],
                        lambda q: si_s_program(q, rule, model))[0])
    i = int(np.argmin(vals))
    lhs = vals[i]
    A, B = reps[i]
    margins = {f"z[{_set_label(A)}]+s[{_set_label(B)}]": lhs - rhs}
    return _finish(model, thetas, labels, problem, "si", "H-SI", lhs, rhs,
                   r_min, margins)
