"""Scalar root finding for convex one-dimensional functions.

The scalar cumulant equations of this package (the Siegmund root of one
component and the per-size i.i.d. Siegmund tilts of
``homogeneous_profile``) reduce to finding the unique positive zero of a
convex (or at least sign-monotone) function f with f(0) <= 0 and
f -> +inf toward the right end of its domain.  The scheme is deliberately
simple: bracket by doubling, bisect essentially to the floating-point
resolution of the argument, then push the residual to its rounding floor
with one guarded Newton or secant step.  Sign-based bisection is immune to
the kinks that clamped coordinates introduce (the off-region tilt of
``homogeneous_profile`` is clamped at 0), which pure Newton iterations
are not.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

BISECT_XTOL = 1e-15
MAX_DOUBLINGS = 200
MAX_BISECTIONS = 300


class RootError(RuntimeError):
    """No sign change could be bracketed."""


def positive_root(
    f: Callable[[float], float],
    fprime: Optional[Callable[[float], float]] = None,
    upper: float = math.inf,
    start: float = 1.0,
) -> float:
    """Unique root of ``f`` on (0, upper) for f with f(0+) <= 0.

    ``upper`` is an open domain bound (e.g. the rate of an exponential
    component); probes approach it geometrically but never evaluate it.
    """
    lo = 0.0
    hi = min(start, upper / 2 if math.isfinite(upper) else start)
    for _ in range(MAX_DOUBLINGS):
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


def refine_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    fprime: Optional[Callable[[float], float]] = None,
) -> float:
    """Root on a bracket [lo, hi] with f(lo) <= 0 < f(hi)."""
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket exhausted at float resolution
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
    # one guarded polish step; rejected unless it reduces the residual
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
