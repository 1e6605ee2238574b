"""Exit-region geometry for the three stopping rules.

A problem instance fixes a family of disjoint open cones-after-dilation
``b * W^A`` indexed by subsets A of [d], plus one reference region.  Three
rules are supported:

* ``SiegmundRule(ell, u)``: stop once every coordinate of the walk lies
  outside (-b ell, b u); the exit set A collects the coordinates above b u.
  Reference region: A empty (all coordinates below).
* ``GapRule(m)``: stop once the m-th largest coordinate exceeds the
  (m+1)-th largest by more than b; A is the set of top-m coordinates.
  Reference region: A = {1, ..., m}.
* ``SumIntersectionRule(L)``: stop once the sum of the L smallest absolute
  coordinates exceeds b; the exit is rare when at least L coordinates are
  positive, with A the positive set.  Reference region: A empty.

Each rule states its stopping test once, over states of any leading shape.
The engine applies it to ``(k, B, d)`` blocks of B paths over k steps and
keeps the exit sets as boolean member masks; ``first_hit`` is the
one-path case of the same test.

The support value

    inf_{x in closure(W^A)} theta . x

is -inf unless theta satisfies the sign pattern of A (and, for the gap
rule, sums to zero).  On that pattern it is u sum_A theta - ell
sum_{A^c} theta for the Siegmund rule, sum_A theta for the gap rule and
``rearrangement_min(theta, L)`` for the sum-intersection rule: the
objectives that turn the rate computations of the solvers into
finite-dimensional programs.  ``SiegmundRule.support_rows`` evaluates the
Siegmund one row by row for the batched certificate of the direct
condition.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Tuple

import numpy as np

__all__ = [
    "Region",
    "SiegmundRule",
    "GapRule",
    "SumIntersectionRule",
    "rearrangement_min",
]

SIGN_TOL = 1e-12  # |theta_k| below this satisfies either sign constraint


@dataclass(frozen=True)
class Region:
    """Exit-region label: the reference region or a rare region Rare(A)."""

    rare: bool
    members: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(self.members)))

    @property
    def key(self) -> str:
        return "A=" + ",".join(map(str, self.members)) if self.rare else "reference"

    def __repr__(self):
        return f"Rare({set(self.members) or '{}'})" if self.rare else "Reference"


def rearrangement_min(theta, L: int):
    """min over 1 <= l <= L of (1/l) * sum of the (d - L + l) smallest |theta|.

    Equivalently, with |theta|_(1) >= ... >= |theta|_(d) the decreasing
    rearrangement, the minimum over l of (1/l) sum_{i=L-l+1}^{d} |theta|_(i).
    This is the exact value of the linear program

        min theta . x   s.t.  x >= 0,  sum_{k in B} x_k >= 1 for all |B| = L,

    for theta with nonnegative entries.  A float for one tilt; for an (m, d)
    stack of tilts, the (m,) array of their values.
    """
    a = np.abs(np.asarray(theta, dtype=float))
    d = a.shape[-1]
    if not 1 <= L <= d:
        raise ValueError(f"L={L} outside [1, {d}]")
    a = np.sort(a, axis=-1)[..., ::-1]
    running = a[..., L:].sum(axis=-1)
    best = math.inf
    for ell in range(1, L + 1):
        running = running + a[..., L - ell]
        best = np.where(running / ell < best, running / ell, best)
    return float(best) if a.ndim == 1 else best


class _StoppingRule:
    """One stopping definition per rule, vectorised over leading axes.

    A rule supplies ``_stopped`` (the stop test of states ``(..., d)``),
    ``_exit_set`` (the member mask of the region a stopped state lies in)
    and ``_reference_set`` (the member mask of the reference region).
    ``exits`` applies them to a ``(k, B, d)`` block of B paths over k steps;
    ``first_hit`` is its one-path case.
    """

    def exits(self, states: np.ndarray, b: float):
        """First stopping row of each path in a ``(k, B, d)`` block, or -1,
        and the boolean ``(B, d)`` member mask of the region entered there
        (all False for a path that does not stop in the block)."""
        hit = self._stopped(states, b)
        first = hit.argmax(axis=0)
        cols = np.arange(states.shape[1])
        done = hit[first, cols]
        sets = self._exit_set(states[first, cols], b)
        sets &= done[:, None]
        return np.where(done, first, -1), sets

    def region(self, mask) -> Region:
        """Decode an exit-set mask into its region label."""
        return Region(rare=bool(self.rare_mask(mask[None])[0]),
                      members=tuple(int(k) for k in np.flatnonzero(mask)))

    def rare_mask(self, sets: np.ndarray) -> np.ndarray:
        """Rows of a ``(n, d)`` exit-set array that are rare regions."""
        return (sets != self._reference_set(sets.shape[1])).any(axis=1)

    def first_hit(self, states: np.ndarray, b: float):
        """First stopped row in a (n, d) block of states, or (-1, None)."""
        idx, sets = self.exits(np.asarray(states, dtype=float)[:, None], b)
        if idx[0] < 0:
            return -1, None
        return int(idx[0]), self.region(sets[0])

    def _reference_set(self, d: int) -> np.ndarray:
        return np.zeros(d, dtype=bool)


class SiegmundRule(_StoppingRule):
    """Two-sided exit rule with lower barrier -b ell and upper barrier b u."""

    kind = "siegmund"

    def __init__(self, ell: float, u: float):
        if ell <= 0 or u <= 0:
            raise ValueError("ell and u must be positive")
        self.ell = float(ell)
        self.u = float(u)

    def _stopped(self, x, b):
        return ((x > b * self.u) | (x < -b * self.ell)).all(axis=-1)

    def _exit_set(self, x, b):
        return x > b * self.u

    def support_rows(self, theta: np.ndarray, sets: np.ndarray) -> np.ndarray:
        """Support value u theta_A.1 - ell theta_{A^c}.1 of each row (last
        axis) of a tilt array over the region whose member mask is the
        matching row of ``sets``, which broadcasts against ``theta``; -inf
        on a row off the sign pattern."""
        signed = ~np.where(sets, theta < -SIGN_TOL,
                           theta > SIGN_TOL).any(axis=-1)
        val = (self.u * np.where(sets, theta, 0.0).sum(axis=-1)
               - self.ell * np.where(sets, 0.0, theta).sum(axis=-1))
        return np.where(signed, val, -math.inf)

    def __repr__(self):
        return f"SiegmundRule(ell={self.ell}, u={self.u})"


class GapRule(_StoppingRule):
    """Stop when the top m coordinates exceed all others by more than b."""

    kind = "gap"

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("m must be at least 1")
        self.m = int(m)

    def _stopped(self, x, b):
        d = x.shape[-1]
        if not 1 <= self.m <= d - 1:
            raise ValueError("m must satisfy 1 <= m <= d-1")
        part = np.partition(x, (d - self.m - 1, d - self.m), axis=-1)
        # a tie exactly at gap == b does not stop (regions are open)
        return part[..., d - self.m] - part[..., d - self.m - 1] > b

    def _exit_set(self, x, b):
        # in a stopped state the top m lie more than b above the rest, so
        # the m-th largest value bounds them and any ties fall inside
        d = x.shape[-1]
        mth = np.partition(x, d - self.m, axis=-1)[..., d - self.m, None]
        return x >= mth

    def _reference_set(self, d):
        return np.arange(d) < self.m

    def __repr__(self):
        return f"GapRule(m={self.m})"


class SumIntersectionRule(_StoppingRule):
    """Stop when the sum of the L smallest |coordinates| exceeds b."""

    kind = "sum_intersection"

    def __init__(self, L: int):
        if L < 1:
            raise ValueError("L must be at least 1")
        self.L = int(L)

    def _stopped(self, x, b):
        if self.L > x.shape[-1]:
            raise ValueError("L exceeds dimension")
        small = np.partition(np.abs(x), self.L - 1, axis=-1)[..., : self.L]
        return small.sum(axis=-1) > b

    def _exit_set(self, x, b):
        # the reference region (fewer than L positive coordinates) has A empty
        positive = x > 0
        return positive & (positive.sum(axis=-1) >= self.L)[..., None]

    def __repr__(self):
        return f"SumIntersectionRule(L={self.L})"
