"""Block solves: the active sets of the tilt programs, run in lockstep over
blocks of programs.

A program travels as a ``Program`` record: objective, CGF constraint on its
support (``constraints``), signs, optional zero-sum row, L, method label,
support and d; ``solvers`` builds them.  ``block_solve`` takes any number
of records.  The programs of one kind, support size and constraint family
advance together through one active set: ``_qclp_active_set`` for the
linear objectives, ``_si_active_set`` for the sum-intersection objective
rearrangement_min.  Each iteration solves the subproblems of all programs
still iterating at once (the constraint's ``subsolve``, one stack per
count of free coordinates, and per working-set size), with per-program
masks for pins, releases, entering functionals and backtracking.  Both
store their results through ``_solutions``, which forms each program's
KKT certificate and ``TiltSolution``.  A program's result is bit for bit
the one it gets in a block of its own.
Records are drawn and stacked in slices of at most ``BLOCK_VALUES`` matrix
entries, so the memory of a block solve is bounded whatever its number of
programs.  ``checked_block_solve``, the one gate of the product solves,
also takes closed forms and names the entry of a failed or unconverged one.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import NamedTuple, Optional

import numpy as np

from .constraints import (ACTIVE_SET_MAX_ITER, CGF_TOL, _counts, _dot,
                          _scatter, _vm)
from .regions import rearrangement_min

KKT_TOL = 1e-8
# stacked matrix entries of one block slice: n^2 per program on n coordinates
BLOCK_VALUES = 1 << 18


class SolverError(RuntimeError):
    index = None  # a block solve's input position of the failing program


@dataclass
class TiltSolution:
    """Optimal value and tilt of one program, with its KKT certificate.

    ``multipliers`` holds [lambda_0, lambda_1, ..., lambda_d]: the CGF
    multiplier followed by one bound multiplier per coordinate (zero on free
    coordinates).  ``eq_multiplier`` is the zero-sum multiplier for gap
    programs; ``weights`` are the vertex-functional weights of an exact
    sum-intersection solve.  The two active sets fill in the certificate
    for every program they solve on every model: ``_qclp_active_set`` (every
    Siegmund and gap beta^A, gamma^{k,k'} and four-index gap tilt) and
    ``_si_active_set`` (every sum-intersection beta^A, z_A and s_B
    program); the closed forms leave it empty.  ``residual`` is the largest
    of |g|, the sign and zero-sum violations and the stationarity residuals,
    the last divided by max(1, Lambda_k'') on independent coordinates.  The
    scalar fields are plain Python ``float`` and ``bool`` values.
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
# Program records and block solves
# ---------------------------------------------------------------------------

class Program(NamedTuple):
    """One tilt program, as a block solve takes it.

    With ``L`` None: max c.theta s.t. signs*theta >= 0 on ``support``,
    theta = 0 off it, Lambda(theta) <= 0 and, with a row ``eq``, eq.theta =
    0; ``c``, ``signs`` and ``eq`` run over the support and ``con`` is the
    CGF there with unit signs.  With ``L`` set: max rearrangement_min(theta,
    L) under the same sign and support constraints, in y = signs*theta_S
    (``con`` is the CGF in y and ``c`` is None).  ``d`` is the model's
    dimension and ``method`` the label of the solution.
    """

    c: Optional[np.ndarray]
    con: object
    signs: np.ndarray
    eq: Optional[np.ndarray]
    L: Optional[int]
    method: str
    support: np.ndarray
    d: int


def _slices(programs):
    """Consecutive runs of ``programs`` of at most BLOCK_VALUES stacked
    matrix entries, n^2 for a program on n coordinates (one program at
    least); each record is drawn when its run is formed."""
    part, used = [], 0
    for p in programs:
        size = p.signs.size ** 2
        if part and used + size > BLOCK_VALUES:
            yield part
            part, used = [], 0
        part.append(p)
        used += size
    if part:
        yield part


def block_solve(programs) -> list:
    """The TiltSolutions of an iterable of ``Program`` records, in order.

    The programs of each slice (``_slices``) that share a kind, a support
    size, a constraint family and the presence of a zero-sum row run in
    lockstep through one active set, ``_qclp_active_set`` or
    ``_si_active_set``.  Each result is bit for bit the one its program gets
    in a block of its own.  Raises the SolverError of the first failing
    program in input order, with that program's input position as its
    ``index``.
    """
    out = []
    for part in _slices(programs):
        sols, groups = [None] * len(part), {}
        for i, p in enumerate(part):
            key = (p.L, type(p.con), p.signs.size, p.eq is None, p.d)
            groups.setdefault(key, []).append(i)
        for idx in groups.values():
            block = [part[i] for i in idx]
            solve = _qclp_active_set if block[0].L is None else _si_active_set
            for i, sol in zip(idx, solve(block)):
                sols[i] = sol
        for i, sol in enumerate(sols):
            if isinstance(sol, SolverError):
                sol.index = len(out) + i
                raise sol
        out += sols
    return out


def checked_block_solve(name, entries) -> list:
    """The TiltSolutions of ``entries``: ``Program`` records, drawn as one
    ``block_solve`` needs them, and closed-form TiltSolutions, passed
    through.  A SolverError raised there comes out as "{name(i)}: {msg}"
    for the failing entry i; else the first solution i that did not
    converge raises "{name(i)}: {method} did not converge (residual r)"."""
    out = []  # the closed forms, and None for each record: none is held

    def records():
        for entry in entries:
            if isinstance(entry, TiltSolution):
                out.append(entry)
            else:
                out.append(None)
                yield entry

    try:
        solved = iter(block_solve(records()))
    except SolverError as exc:
        pos = [i for i, sol in enumerate(out) if sol is None][exc.index]
        raise SolverError(f"{name(pos)}: {exc}") from exc
    sols = [next(solved) if sol is None else sol for sol in out]
    for i, sol in enumerate(sols):
        if not sol.converged:
            raise SolverError(f"{name(i)}: {sol.method} did not converge "
                              f"(residual {sol.residual:.3e})")
    return sols


def _stacked(block):
    """The block's constraint, signs, zero-sum rows (or None) and supports,
    stacked."""
    con = block[0].con.concat([p.con for p in block])
    eq = None if block[0].eq is None else np.array([p.eq for p in block])
    return (con, np.array([p.signs for p in block]), eq,
            np.array([p.support for p in block]))


def _solutions(block, out, rows, con, support, x, s, pinned, reduced, tilts,
               values=None, viol=(), t=None, weights=None):
    """Store in ``out`` the TiltSolutions of the programs ``rows`` of a
    block at their optima x of ``con`` (their constraints, stacked), with
    s = 1/lambda_0, the pinned coordinates, the reduced gradients (s
    lambda_k where pinned) and the tilts on the supports.  ``values`` are
    the objective values (None: rearrangement_min of the tilts), ``viol``
    further residual terms, ``t`` the zero-sum rows' nu/lambda_0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        mults = np.where(pinned & (s > 0)[:, None], reduced / s[:, None], 0.0)
        lam0 = np.where(s == 0, math.inf, 1.0 / s)
        stat = np.where(pinned, 0.0, np.abs(reduced / con.scale(x)))
        nu = None if t is None else (lam0 * t).tolist()
    resid = np.maximum(np.abs(con.value(x)), stat.max(axis=1))
    for part in viol:
        resid = np.maximum(resid, part)
    tilts = _scatter(support, block[0].d, tilts)
    full = _scatter(support, block[0].d, mults, lam0)
    if values is None:
        values = rearrangement_min(tilts, block[0].L)
    for j, (i, val, res, pos) in enumerate(zip(
            rows, values.tolist(), resid.tolist(), (s > 0).tolist())):
        out[i] = TiltSolution(val, tilts[j], res <= KKT_TOL, res,
                              block[i].method, full[j],
                              nu[j] if nu is not None and pos else None,
                              None if weights is None else weights[j])


def _qclp_active_set(block) -> list:
    """Maximize c.x s.t. g(x) <= 0 and signs*x >= 0 (and optionally eq.x = 0)
    for each program of a block of linear programs of one size, with g(0) =
    0, in lockstep; a TiltSolution or a SolverError per program.

    Active-set iteration from nothing pinned: pin every sign-violating
    coordinate at zero, else release the pinned coordinate with the most
    negative multiplier, else certify; each subproblem is solved exactly
    (``con.subsolve``, from the last subproblem's solution), for all the
    programs still iterating at once.  x = 0 lies in every pinned subspace,
    so a subproblem without a solution is degenerate.  A pinned set met
    twice would cycle; both are SolverErrors.
    """
    k, n = len(block), block[0].signs.size
    con, signs, eq, support = _stacked(block)
    c = np.array([p.c for p in block])
    out = [None] * k
    live, pinned = np.arange(k), np.zeros((k, n), dtype=bool)
    x, seen = None, []
    for _ in range(ACTIVE_SET_MAX_ITER):
        fail = np.zeros(live.size, dtype=bool)
        for old in seen:
            fail |= (old == pinned).all(axis=1)
        seen.append(pinned.copy())
        xs, s, t, ok = con.subsolve(c, eq, pinned, x)
        if not ok.all() or fail.any():
            for i, again in zip(live[fail | ~ok], fail[fail | ~ok]):
                out[i] = SolverError(
                    "active-set iteration revisited a pinned set" if again
                    else "degenerate active-set subproblem")
            fail |= ~ok
        scale = np.maximum(1.0, np.abs(xs).max(axis=1))
        slack = signs * xs
        viol = ~pinned & (slack < -1e-12 * scale[:, None])
        hit = viol.any(axis=1)
        shift = 0.0 if eq is None else t[:, None] * eq
        reduced = signs * (con.grad(xs) + shift - s[:, None] * c)  # s lambda_k
        neg = pinned & (reduced < -1e-10 * np.maximum(1.0, s)[:, None])
        free = ~hit & neg.any(axis=1)
        done = ~(fail | hit | free)
        if hit.any():
            pinned |= viol
        if free.any():
            rows = np.flatnonzero(free)
            pinned[rows, np.where(neg[rows], reduced[rows], np.inf).argmin(
                axis=1)] = False
        if done.any():
            xd = xs[done]
            _solutions(block, out, live[done], con.take(done), support[done],
                       xd, s[done], pinned[done], reduced[done], xd,
                       _dot(c[done], xd),
                       (np.maximum(0.0, -slack[done].min(axis=1)),
                        0.0 if eq is None else np.abs(_dot(eq[done], xd))),
                       None if eq is None else t[done])
        keep = ~(done | fail)
        if not keep.any():
            return out
        if not keep.all():
            live, pinned, xs, c, signs, support = (
                a[keep] for a in (live, pinned, xs, c, signs, support))
            con, eq = con.take(keep), None if eq is None else eq[keep]
            seen = [old[keep] for old in seen]
        x = xs
    for i in live:
        out[i] = SolverError(f"active-set iteration did not converge in "
                             f"{ACTIVE_SET_MAX_ITER} steps")
    return out


def _si_active_set(block) -> list:
    """max rearrangement_min(theta, L) s.t. Lambda(theta) <= 0 and
    signs*theta >= 0 on the coordinates S and theta = 0 off S, for each
    program of a block of one size and one L, in lockstep; a TiltSolution or
    a SolverError per program.  In y = signs*theta_S: max t s.t. y >= 0 and
    l.y >= t for the rearrangement LP's vertex functionals l = 1_T / k
    (|T| = |S| - L + k, k = 1..L).

    Primal active set.  The working set holds functionals kept equal to the
    level (the rows l_j - l_0 of the subsolve) and pinned coordinates.
    It starts on the Taylor model q of g at 0, at the deepest point of a
    ray d > 0 with b.d < 0, halved into the constraint.  From a feasible y
    at a positive level, each step moves towards the working set's optimum
    until a coordinate reaches 0 (it is pinned) or a functional, found by
    one sort, falls to the level (it joins).  At the optimum, a constraint
    with a negative multiplier leaves.  The working subspace always holds
    y, so the subproblem is never empty.  Each iteration solves the
    subproblems of the programs with equal working-set sizes together.
    """
    k, n, L = len(block), block[0].signs.size, block[0].L
    con, signs, _, support = _stacked(block)
    out, ar, levels = [None] * k, np.arange(max(k, n)), np.arange(1, L + 1)

    def cut(y):  # the levels of y and functionals attaining them
        order, rows = np.argsort(y, axis=1, kind="stable"), ar[:len(y), None]
        vals = np.cumsum(y[rows, order], axis=1)[:, n - L:] / levels
        j = vals.argmin(axis=1)
        ell = np.zeros_like(y)
        ell[rows, order] = np.where(ar[:n] < (n - L + j + 1)[:, None],
                                    (1.0 / (j + 1))[:, None], 0.0)
        return vals[rows[:, 0], j], ell

    def fail(rows, msg):
        for i in rows:
            out[i] = SolverError(f"{block[i].method}: {msg}")

    q = con.taylor(np.zeros((k, n)))
    neg = q.b < 0
    down, up = (np.where(m, q.b, 0.0).sum(axis=1) for m in (neg, ~neg))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = -0.5 * down / np.maximum(up, 1e-300)
        d = np.where(neg, 1.0, np.where(ratio < 1.0, ratio, 1.0)[:, None])
        y = np.maximum((-_dot(q.b, d) / np.maximum(
            _dot(_vm(d, q.sigma), d), 1e-300))[:, None] * d, 0.0)
    high = ~(con.value(y) <= CGF_TOL)
    for _ in range(64):
        if not high.any():
            break
        y[high] = 0.5 * y[high]
        high[high] = ~(con.take(high).value(y[high]) <= CGF_TOL)
    level, ell = cut(y)
    start = (con.value(y) <= CGF_TOL) & (level > 0)
    fail(np.flatnonzero(~start), "no feasible tilt at a positive level")
    work, size = np.zeros((k, n + 1, n)), np.ones(k, dtype=int)
    work[:, 0], pinned = ell, y <= 0
    live = np.flatnonzero(start)
    for _ in range(ACTIVE_SET_MAX_ITER * n):
        if not live.size:
            break
        m = live.size
        sol, s = np.zeros((m, n)), np.zeros(m)
        t = np.zeros((m, work.shape[1]))
        ok = np.zeros(m, dtype=bool)
        for r in _counts(size[live] - 1):
            sel = np.flatnonzero(size[live] == r + 1)
            rows = live[sel]
            rhs = work[rows, 1:r + 1] - work[rows, :1] if r else None
            sol[sel], s[sel], ts, ok[sel] = con.take(rows).subsolve(
                work[rows, 0], rhs, pinned[rows], y[rows])
            t[sel, :r] = ts[:, :r] if r else 0.0
        fail(live[~ok], "degenerate working set")
        live, sol, s, t = live[ok], sol[ok], s[ok], t[ok]
        yl, m = y[live], live.size
        dy = sol - yl
        tol = 1e-9 * np.maximum(1.0, np.abs(yl).max(axis=1))
        down = dy < -tol[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(down, yl, np.inf) / np.where(down, -dy, 1.0)
        j = ratio.argmin(axis=1)
        rj = ratio[np.arange(m), j]
        alpha = np.where(rj < 1.0, rj, 1.0)
        pin_at = np.where(rj < 1, j, -1)
        joins, entering = np.zeros(m, dtype=bool), np.zeros((m, n))
        # shorten the step to where the first functional meets the level;
        # a null step is at the optimum
        search = np.abs(dy).max(axis=1) > tol
        while search.any():
            sel = np.flatnonzero(search)
            ys = yl[sel] + alpha[sel, None] * dy[sel]
            val, ell = cut(ys)
            gap = ell - work[live[sel], 0]
            stop = _dot(gap, ys) >= -1e-12 * np.maximum(1.0, val)
            search[sel[stop]] = False
            sel, gap = sel[~stop], gap[~stop]
            with np.errstate(divide="ignore", invalid="ignore"):
                a = _dot(gap, yl[sel]) / -_dot(gap, dy[sel])
            alpha[sel] = np.where(a > 0.0, a, 0.0)
            joins[sel], entering[sel] = True, ell[~stop]
        opt = ~joins & (pin_at < 0)
        step = ~opt
        y[live[step]] = np.maximum(yl[step] + alpha[step, None] * dy[step],
                                   0.0)
        pinning = ~joins & (pin_at >= 0)
        pinned[live[pinning], pin_at[pinning]] = True
        rows = live[joins]
        if size[rows].max(initial=0) == work.shape[1]:
            work = np.concatenate([work, np.zeros_like(work)], axis=1)
        work[rows, size[rows]] = entering[joins]
        size[rows] += 1
        finished = np.zeros(m, dtype=bool)
        for r in _counts(size[live[opt]] - 1):
            sel = np.flatnonzero(opt & (size[live] == r + 1))
            rows = live[sel]
            ys, ss, ts = sol[sel], s[sel], t[sel, :r]
            y[rows] = ys
            with np.errstate(divide="ignore", invalid="ignore"):
                w = ts / -ss[:, None]
                w = np.concatenate([1.0 - w.sum(axis=1)[:, None], w], axis=1)
                reduced = con.take(rows).grad(ys) - ss[:, None] * work[rows, 0]
                reduced = reduced + (_vm(ts, work[rows, 1:r + 1]
                                         - work[rows, :1]) if r else 0.0)
                mults = np.concatenate(
                    [w, np.where(pinned[rows], reduced / ss[:, None], np.inf)],
                    axis=1)
            drop = mults.argmin(axis=1)
            end = mults[np.arange(sel.size), drop] >= -1e-10
            finished[sel[end]] = True
            if end.any():
                fin = rows[end]
                yf = np.maximum(ys[end], 0.0)  # rounding leaves -1e-16 zeros
                _solutions(block, out, fin, con.take(fin), support[fin], yf,
                           ss[end], pinned[fin], reduced[end], signs[fin] * yf,
                           weights=w[end])
            lose = ~end & (drop < r + 1)
            lr, ld = rows[lose], drop[lose]
            keep = np.arange(work.shape[1])
            work[lr] = work[lr[:, None], np.minimum(
                keep + (keep >= ld[:, None]), work.shape[1] - 1)]
            size[lr] -= 1
            unpin = ~end & (drop >= r + 1)
            pinned[rows[unpin], drop[unpin] - r - 1] = False
        live = live[~finished]
    fail(live, f"no convergence in {ACTIVE_SET_MAX_ITER * n} iterations")
    return out

