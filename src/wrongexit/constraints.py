"""CGF constraints over stacks of tilt programs, with exact subproblems.

A constraint holds one program per row: ``_Quad`` (a normal model's
quadratic CGF) or ``_Separable`` (independent coordinates).  Each gives
its value, gradient, Taylor model and exact subsolve: the maximizer of a
linear objective over the constraint with some coordinates pinned at zero
and optional equality rows, for every program of the stack at once.  The
programs are taken in groups of equal free counts, so every group is one
stack of equal-size systems.

Every stacked call runs on each program one BLAS or LAPACK routine on one
memory layout, whatever the stack's size (``_dot``, ``_mv``, ``_vm``,
``_columns``), so a program's result is bit for bit the one it gets in a
stack of its own.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .models import MvNormalModel, separable_cgf, separable_grad

CGF_TOL = 1e-10
ACTIVE_SET_MAX_ITER = 200


# ---------------------------------------------------------------------------
# Stacked linear algebra: each call runs, on every program of a stack, one
# BLAS or LAPACK routine on one memory layout, whatever the stack's size
# ---------------------------------------------------------------------------

def _dot(a, b):
    """a_i . b_i for two (k, n) stacks, each the dot of a_i @ b_i."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _mv(m, v):
    """m_i @ v_i for (k, p, n) matrices and (k, n) vectors."""
    return (m @ v[:, :, None])[:, :, 0]


def _vm(v, m):
    """v_i @ m_i for (k, p) vectors and (k, p, n) matrices."""
    return (v[:, None, :] @ m)[:, 0, :]


def _each(fn, *args):
    """fn over stacks of matrices, and the mask of the programs on which it
    succeeds.  When one matrix of the stack is singular, fn runs on one
    program at a time and each failure comes out as zeros; fn's output has
    the shape of its last argument."""
    ok = np.ones(len(args[-1]), dtype=bool)
    try:
        return fn(*args), ok
    except np.linalg.LinAlgError:
        out = np.zeros_like(args[-1])
        for i in range(len(out)):
            try:
                out[i] = fn(*(a[i:i + 1] for a in args))[0]
            except np.linalg.LinAlgError:
                ok[i] = False
        return out, ok


def _inverse_factor(a):
    return np.linalg.inv(np.linalg.cholesky(a))


def _solver(inv):
    """v -> a_i^{-1} v_i through inverse lower Cholesky factors L_i^{-1}
    of a stack: L^{-T} (L^{-1} v), for (k, n) vectors or (k, n, p)
    matrices."""
    inv_t = np.swapaxes(inv, 1, 2)

    def solve(v):
        if v.ndim == 2:
            return (inv_t @ (inv @ v[:, :, None]))[:, :, 0]
        return inv_t @ (inv @ v)

    return solve


def _counts(values):
    """The distinct values of an array of counts, in increasing order
    (``np.unique`` would import ``numpy.ma``, a megabyte, on first use)."""
    return np.flatnonzero(np.bincount(values))


def _free_groups(pinned, live=None):
    """For each count nf >= 1 of free coordinates, the programs (rows of
    ``pinned``, among ``live`` when given) with nf free coordinates and
    those coordinates in increasing order, a (rows, nf) array; None for
    the one group of every program when nothing is pinned."""
    if (live is None or live.all()) and pinned.size and not pinned.any():
        yield np.arange(len(pinned)), None
        return
    rows = np.arange(len(pinned)) if live is None else np.flatnonzero(live)
    nfree = (~pinned[rows]).sum(axis=1)
    for nf in _counts(nfree[nfree > 0]):
        sel = rows[nfree == nf]
        yield sel, np.nonzero(~pinned[sel])[1].reshape(sel.size, nf)


def _columns(eq, rows, cols):
    """The (r, nf) blocks eq_i[:, cols_i] of a (k, r, n) stack of rows (all
    columns when ``cols`` is None), each in Fortran order, the order the
    indexed blocks come out in: so a program's rows reach BLAS on one
    layout (which sets its transposed path and rounding) whether or not its
    stack takes the all-free shortcut."""
    if cols is None:
        return np.swapaxes(np.swapaxes(eq[rows], 1, 2).copy(), 1, 2)
    r = eq.shape[1]
    return np.swapaxes(eq[rows[:, None, None], np.arange(r), cols[:, :, None]],
                       1, 2)


def _pick(a, rows, cols):
    """a_i[cols_i] for the programs ``rows`` of a (k, n) stack, or a_i[cols_i,
    cols_i] of a (k, n, n) stack: the stack itself when ``cols`` is None."""
    if cols is None:
        return a
    ri = rows[:, None]
    if a.ndim == 2:
        return a[ri, cols]
    return a[ri[:, :, None], cols[:, :, None], cols[:, None, :]]


# ---------------------------------------------------------------------------
# Constraints over a stack of programs, with exact subproblems
# ---------------------------------------------------------------------------

class _Stack:
    """Array fields (a named tuple's) stacked along axis 0, one entry per
    program."""

    def take(self, rows):
        return type(self)(*(f[rows] for f in self))

    def concat(self, stacks):
        return type(self)(*map(np.concatenate, zip(*stacks)))


class _Quad(_Stack, NamedTuple("_QuadFields", [("kappa", np.ndarray),
                                                ("b", np.ndarray),
                                                ("sigma", np.ndarray)])):
    """q_i(x) = kappa_i + b_i.x + x' Sigma_i x / 2 for a stack of programs,
    each Sigma_i positive definite: kappa (k,), b (k, n), sigma (k, n, n)."""

    def value(self, x):
        return self.kappa + _dot(self.b, x) + 0.5 * _dot(x, _mv(self.sigma, x))

    def grad(self, x):
        return self.b + _mv(self.sigma, x)

    def taylor(self, x):
        return self

    def scale(self, x):
        return 1.0

    def subsolve(self, c, eq, pinned, x):
        return _subsolve(c, self, eq, pinned)


def _subsolve(c, quad, eq, pinned):
    """Exact maximizer of c_i.x over {q_i(x) <= 0, x_pinned = 0, eq_i x = 0}
    for each program i of a stack.

    ``eq`` is None, one row per program (k, n), or (k, r, n) stacks of r
    rows.  Returns x (k, n), s = 1/lambda_0 (k,), t = nu/lambda_0 ((k,), or
    (k, r) for stacks of rows) and the mask of the programs solved; a
    program fails when the pinned subspace misses the feasible set, the
    rows are dependent on the free coordinates or the objective direction
    degenerates.  The programs are taken in groups of equal free counts:
    the free blocks of Sigma and the Gram matrices of stacks of rows are
    factored with ``np.linalg.cholesky`` and solved through the inverse
    factors (``_solver``).
    """
    k, n = c.shape
    x, s = np.zeros((k, n)), np.zeros(k)
    t = np.zeros(k if eq is None or eq.ndim == 2 else eq.shape[:2])
    ok = quad.kappa <= CGF_TOL  # everything pinned: x = 0 when q(0) <= 0
    for rows, cols in _free_groups(pinned):
        inv, good = _each(_inverse_factor, _pick(quad.sigma, rows, cols))
        solve = _solver(inv)
        cf, bf, kap = _pick(c, rows, cols), _pick(quad.b, rows, cols), \
            quad.kappa[rows]
        with np.errstate(all="ignore"):
            if eq is not None:
                if eq.ndim == 2:
                    g = _pick(eq, rows, cols)
                    gram = _dot(g, solve(g))
                    good &= gram > 1e-300
                    div = lambda v: v / gram
                    along = lambda v: v[:, None] * g
                    gc, gb = _dot(g, solve(cf)), _dot(g, solve(bf))
                else:
                    g = _columns(eq, rows, cols)
                    inv2, ok2 = _each(_inverse_factor,
                                      g @ solve(np.swapaxes(g, 1, 2)))
                    good &= ok2
                    div = _solver(inv2)
                    along = lambda v: _vm(v, g)
                    gc, gb = _mv(g, solve(cf)), _mv(g, solve(bf))
                chat = cf - along(div(gc))
                bhat = bf - along(div(gb))
            else:
                chat, bhat = cf, bf
            num = _dot(bhat, solve(bhat)) - 2.0 * kap
            den = _dot(chat, solve(chat))
            # written so that a nan fails each check
            good &= num >= -1e-12 * np.maximum(1.0, np.abs(kap))
            good &= den > 1e-300
            sg = np.sqrt(np.maximum(num, 0.0) / den)
            if eq is not None:
                tg = div((sg * gc.T).T - gb)
                xf = solve(sg[:, None] * cf - along(tg) - bf)
                t[rows] = tg
            else:
                xf = solve(sg[:, None] * cf - bf)
        good &= np.isfinite(xf).all(axis=1)
        if cols is None:
            x[:] = xf
        else:
            x[rows[:, None], cols] = xf
        s[rows], ok[rows] = sg, good
    return x, s, t, ok


def _constraint(model, S, signs):
    """g(y) = Lambda(theta) in y = signs * theta_S, theta = 0 off S, as a
    stack of one program: a ``_Quad`` for a normal model, a ``_Separable``
    for an independent one.  Each gives its value, gradient, Taylor model
    and exact subsolve."""
    if isinstance(model, MvNormalModel):
        sigma = model.cov[S[:, None], S] * (signs[:, None] * signs)
        return _Quad(np.zeros(1), (signs * model.mean[S])[None], sigma[None])
    return _Separable(*(a[S][None] for a in (model._normal, model._lin,
                                             model._par)), signs[None])


class _Separable(_Stack, NamedTuple("_SeparableFields", [
        ("normal", np.ndarray), ("lin", np.ndarray), ("par", np.ndarray),
        ("signs", np.ndarray)])):
    """g_i(y) = sum_k Lambda_k(signs_k y_k) over the support of an
    independent model, for a stack of programs, from the support's column
    parameters (``separable_cgf``), each (k, n)."""

    def value(self, y):
        return separable_cgf(self.normal, self.lin, self.par, self.signs * y)

    def grad(self, y):
        return self.signs * separable_grad(self.normal, self.lin, self.par,
                                           self.signs * y)

    def curvature(self, y):
        """Lambda_k'' at signs_k y_k, coordinate by coordinate."""
        with np.errstate(divide="ignore"):
            return np.where(self.normal, self.par,
                            (self.par - self.signs * y) ** -2.0)

    def scale(self, y):
        """Divisors of the stationarity residuals: near an exponential rate
        Lambda_k' is only known to its rounding level times Lambda_k''."""
        return np.maximum(1.0, self.curvature(y))

    def taylor(self, y):
        """The second-order Taylor models of g at feasible points y."""
        g, h = self.grad(y), self.curvature(y)
        k, n = h.shape
        sigma = np.zeros((k, n, n))
        sigma[:, np.arange(n), np.arange(n)] = h
        return _Quad(self.value(y) - _dot(g, y) + 0.5 * _dot(y, h * y),
                     g - h * y, sigma)

    def subsolve(self, c, eq, pinned, y):
        """``_subsolve`` for g: with s and t the multipliers as there,
        stationarity Lambda_k'(signs_k x_k) = signs_k (s c - t eq)_k is
        inverted coordinate by coordinate, leaving g(x) = 0 and eq x = 0 in
        (s, t).  Newton on them starts from the Taylor model's subsolve at y
        (skipped when y is None or outside the domain), else at 0, and
        backtracks on the residual of those equations."""
        k, n = c.shape
        x, s, ok = np.zeros((k, n)), np.zeros(k), np.zeros(k, dtype=bool)
        t = np.zeros(k if eq is None or eq.ndim == 2 else eq.shape[:2])
        for y0 in (y, np.zeros((k, n))):
            if y0 is None:
                continue
            rows = np.flatnonzero(~ok & np.isfinite(self.value(y0)))
            if rows.size:
                sol = self.take(rows)._newton(
                    c[rows], None if eq is None else eq[rows], pinned[rows],
                    y0[rows])
                good = rows[sol[3]]
                x[good], s[good], t[good] = (a[sol[3]] for a in sol[:3])
                ok[good] = True
        return x, s, t, ok

    def _newton(self, c, eq, pinned, y):
        k, n = c.shape
        r = 0 if eq is None else 1 if eq.ndim == 2 else eq.shape[1]
        _, s0, t0, ok0 = _subsolve(c, self.taylor(y), eq, pinned)
        z0 = np.concatenate([s0[:, None], np.reshape(t0, (k, -1))[:, :r]],
                            axis=1)
        x, z, ok = np.zeros((k, n)), np.zeros((k, 1 + r)), np.zeros(k, bool)
        for rows, cols in _free_groups(pinned, ok0):
            normal, lin, par, signs = (_pick(a, rows, cols)
                                       for a in self)
            cf, con = _pick(c, rows, cols), self.take(rows)
            g = (np.zeros((rows.size, 0, cf.shape[1])) if eq is None
                 else _pick(eq, rows, cols)[:, None, :] if eq.ndim == 2
                 else _columns(eq, rows, cols))

            def point(z, sel):
                """x, its free entries, the residuals, h = s c - t g, the
                curvatures and the mask of points outside the domain."""
                h = z[:, :1] * cf[sel] - _vm(z[:, 1:], g[sel])
                v = signs[sel] * h - lin[sel]  # Lambda_k' less mu or shift
                bad = (z[:, 0] <= 0) | np.any(~normal[sel] & (v <= 0), axis=1)
                with np.errstate(all="ignore"):
                    xf = signs[sel] * np.where(normal[sel], v / par[sel],
                                               par[sel] - 1.0 / v)
                if cols is None:
                    xx = xf.copy()
                else:
                    xx = np.zeros((sel.size, n))
                    xx[np.arange(sel.size)[:, None], cols[sel]] = xf
                res = np.concatenate([con.take(sel).value(xx)[:, None],
                                      _mv(g[sel], xf)], axis=1)
                return [xx, xf, res, h, np.where(normal[sel], par[sel], v * v),
                        bad]

            zg = z0[rows]
            cur = point(zg, np.arange(rows.size))
            # every Lambda_k' must exceed its shift: h -> 0 does that when
            # the shifts are negative.  One zero-sum row (all ones with unit
            # signs) instead lowers t, which raises every h_k, until each
            # exponential Lambda_k' is at least its value at 0
            for i in range(64):
                pend = np.flatnonzero(cur[5])
                if not pend.size:
                    break
                if i == 0 and r == 1 and eq.ndim == 2:
                    low = np.where(~normal[pend], zg[pend, :1] * cf[pend]
                                   - lin[pend] - 1.0 / par[pend], np.inf)
                    low = low.min(axis=1)
                    zg[pend, 1] = np.where(low < zg[pend, 1], low,
                                           zg[pend, 1])
                else:
                    zg[pend] = 0.5 * zg[pend]
                if i < 63:
                    new = point(zg[pend], pend)
                    for a, b in zip(cur, new):
                        a[pend] = b
            live = ~cur[5]
            good = live.copy()
            for _ in range(ACTIVE_SET_MAX_ITER):
                live &= ~(np.abs(cur[2]).max(axis=1) <= 1e-14)
                act = np.flatnonzero(live)
                if not act.size:
                    break
                _, _, res, h, w, _ = (a[act] for a in cur)
                ga = g[act]
                gw = -(ga / w[:, None, :])
                cw = cf[act] / w
                jac = np.empty((act.size, 1 + r, 1 + r))
                jac[:, 0, 0], jac[:, 0, 1:] = _dot(h, cw), _mv(gw, h)
                jac[:, 1:, 0] = _mv(ga, cw)
                jac[:, 1:, 1:] = gw @ np.swapaxes(ga, 1, 2)
                step, solved = _each(np.linalg.solve, jac, -res[:, :, None])
                step = step[:, :, 0]
                good[act[~solved]] = live[act[~solved]] = False
                norm = np.sqrt(_dot(res, res))
                # a non-finite step (near-singular jac) has no decrease left
                alpha = np.where(np.isfinite(step).all(axis=1), 1.0, 0.0)
                search, found = solved.copy(), np.zeros(act.size, bool)
                while True:
                    sel = np.flatnonzero(search & (alpha > 1e-12))
                    if not sel.size:
                        break
                    new = point(zg[act[sel]] + alpha[sel, None] * step[sel],
                                act[sel])
                    fine = ~new[5] & (np.sqrt(_dot(new[2], new[2]))
                                      <= (1.0 - 1e-4 * alpha[sel]) * norm[sel])
                    search[sel[fine]], found[sel[fine]] = False, True
                    for a, b in zip(cur, new):
                        a[act[sel[fine]]] = b[fine]
                    alpha[sel[~fine]] *= 0.5
                # no decrease left at rounding level
                live[act[search]] = False
                move = act[found]
                zg[move] = zg[move] + alpha[found, None] * step[found]
            xx, xf, res, h = cur[:4]  # rounding x moves g by up to eps |h|.|x|
            good &= np.isfinite(xf).all(axis=1) & (
                np.abs(res).max(axis=1)
                <= CGF_TOL * np.maximum(1.0, _dot(np.abs(h), np.abs(xf))))
            x[rows], z[rows], ok[rows] = xx, zg, good
        t = z[:, 1] if r == 1 and eq.ndim == 2 else z[:, 1:]
        return x, z[:, 0], (np.zeros(k) if eq is None else t), ok
