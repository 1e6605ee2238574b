"""Lockstep root finding for the scalar cumulant equations.

The Siegmund root of one component and the per-size i.i.d. Siegmund tilts
of ``homogeneous_profile`` each ask for the unique positive zero of a
convex (or at least sign-monotone) f with f(0) <= 0 and f -> +inf toward
the right end of its domain.  ``lockstep_roots`` solves any number of
them at once, each by its own steps of one scheme: bracket by doubling
(or by halving the distance to a finite domain end), bisect to the float
resolution of the argument, then take one guarded Newton step.  Bisecting
on signs is immune to the kinks that clamped coordinates introduce (the
off-region tilt of ``homogeneous_profile`` is clamped at 0).
"""

from __future__ import annotations

import numpy as np

BISECT_XTOL = 1e-15
MAX_DOUBLINGS = 200
MAX_BISECTIONS = 300


class RootError(RuntimeError):
    """No root could be bracketed inside the domain."""


def lockstep_roots(f, fprime, upper, what: str) -> np.ndarray:
    """The root of each equation i of f on (0, upper[i]), where f(0+) <= 0.

    f and fprime map an array of arguments of upper's shape to their
    values, with numpy's warnings off.  ``upper`` holds the open domain
    ends (inf where there is none); every probe and root stays strictly
    below them.  The Newton step is kept only when it lands near the
    bracket and lowers |f|.  A root that rounds onto the domain end, or a
    NaN while bracketing, raises RootError naming ``what``.
    """
    upper = np.array(upper, dtype=float, ndmin=1)
    lo, hi = np.zeros(upper.shape), np.minimum(1.0, upper / 2)
    with np.errstate(all="ignore"):
        open_ = np.ones(upper.shape, dtype=bool)
        for _ in range(MAX_DOUBLINGS):
            val = f(hi)
            if np.isnan(val[open_]).any():
                raise RootError(f"{what}: NaN while bracketing")
            open_ &= ~(val > 0.0)
            if not open_.any():
                break
            step = np.where(np.isfinite(upper), (hi + upper) / 2, hi * 2)
            if np.any(open_ & (step >= upper)):
                raise RootError(f"{what}: the root rounds to the domain end")
            lo, hi = np.where(open_, hi, lo), np.where(open_, step, hi)
        else:
            raise RootError(f"{what}: failed to bracket a positive root")
        active = np.ones(upper.shape, dtype=bool)
        for _ in range(MAX_BISECTIONS):
            mid = 0.5 * (lo + hi)
            # stop at the float resolution of the bracket
            tol = BISECT_XTOL * np.maximum(1.0, np.abs(mid))
            active &= (lo < mid) & (mid < hi) & (hi - lo > tol)
            if not active.any():
                break
            up = f(mid) > 0.0
            lo, hi = (np.where(active & ~up, mid, lo),
                      np.where(active & up, mid, hi))
        x = 0.5 * (lo + hi)
        fx, slope = f(x), fprime(x)
        cand = x - fx / slope
        width = hi - lo
        ok = ((fx != 0.0) & (slope != 0.0) & np.isfinite(slope)
              & (lo - width <= cand) & (cand <= hi + width) & (cand < upper))
        return np.where(ok & (np.abs(f(cand)) < np.abs(fx)), cand, x)
