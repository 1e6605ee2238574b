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

The stop test runs on every row of every block, and at the small d of the
oracle problems it costs about as much as drawing the increments.  A numpy
reduction, sort or partition along the last axis loops once per row, and
at d = 2-4 that per-row overhead is most of its cost.  So the Siegmund
``all``, the ``rare_mask`` ``any`` and the sum-intersection counts reduce a
coordinate-major copy (``reduce_coords``), and the gap test sorts, which is
faster than a two-index partition at every d.  The sum-intersection test
still partitions, but only on the rows that pass an exact pre-filter: a row
whose L smallest |x_k| sum past b has at most L - 1 coordinates at or
below b / L, even after rounding (``SumIntersectionRule._stopped``), so
the count drops only rows that cannot stop: 72% of the rows at d=10, L=2
and 45% at d=3, L=2 on the benchmark's sum-intersection models.  Every
test gives the same bits as the per-row form.

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
IN_PLACE_MIN_D = 32  # reduce_coords reduces in place from this d on
SI_MARGIN = 1e-9  # relative slack of the SI pre-filter's threshold b / L


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


def reduce_coords(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1)`` of a bool or int array ``(..., d)``.

    Reducing the last axis makes numpy loop once per row, and at small d
    that per-row overhead is most of the cost.  Below ``IN_PLACE_MIN_D``
    coordinates the rows are copied coordinate-major, ``a.reshape(-1,
    d).T.copy()``, and reduced along axis 0: d - 1 whole-column operations.
    The copy is one pass over the block whatever d is, while the number of
    rows, and with it the per-row overhead, falls as d grows, so from
    there on the in-place ``axis=-1`` reduction wins.
    Measured on 16,384-value bool blocks (numpy 2.4, one core of a shared
    x86-64 container), in-place against coordinate-major, in us: ``all``
    109/10 at d=4, 18/10 at d=20, 12/10 at d=32, 10/11 at d=40, 6/11 at
    d=100 and 2.4/19 at d=400; ``add`` 97/23 at d=4, 21/19 at d=32 and
    12/20 at d=100.  Bool and int reductions are exact, so both layouts
    give the same bits.
    """
    d = a.shape[-1]
    if d >= IN_PLACE_MIN_D:
        return ufunc.reduce(a, axis=-1)
    cols = a.reshape(-1, d).T.copy()
    return ufunc.reduce(cols, axis=0).reshape(a.shape[:-1])


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
        return reduce_coords(np.logical_or,
                             sets != self._reference_set(sets.shape[1]))

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
        if not (0 < ell < math.inf and 0 < u < math.inf):
            raise ValueError("ell and u must be positive and finite")
        self.ell = float(ell)
        self.u = float(u)

    def _stopped(self, x, b):
        return reduce_coords(np.logical_and,
                             (x > b * self.u) | (x < -b * self.ell))

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
        # the same order statistics as a partition, and faster at every d
        part = np.sort(x, axis=-1)
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
        """The sum of the L smallest |x_k| exceeds b, tested by partition
        on the candidate rows only.

        The sum of L values is at most L times their largest, t, so a row
        that stops has at most L - 1 coordinates with |x_k| <= b / L.  In
        floats: the computed sum of L nonnegative terms is at most their
        exact sum times 1 + (L - 1) eps (eps = 2^-53), so a computed sum
        above b gives t > b / (L (1 + (L - 1) eps)).  The threshold
        b / L (1 - SI_MARGIN) is formed with three roundings, each a
        factor of at most 1 + eps, so it lies below that bound while
        (L + 2) eps < SI_MARGIN, for any L below 10^6.  The d - L + 1
        coordinates with |x_k| >= t then all lie above the threshold, so a
        row with L or more coordinates at or below it cannot stop.  NaN is
        never at or below the threshold, just as a partition sorts it last.
        """
        d = x.shape[-1]
        if self.L > d:
            raise ValueError("L exceeds dimension")
        ax = np.abs(x).reshape(-1, d)
        small = reduce_coords(np.add, ax <= b / self.L * (1.0 - SI_MARGIN))
        cand = np.flatnonzero(small < self.L)
        low = np.partition(np.take(ax, cand, axis=0), self.L - 1, axis=-1)
        hit = np.zeros(ax.shape[0], dtype=bool)
        hit[cand] = low[:, : self.L].sum(axis=-1) > b
        return hit.reshape(x.shape[:-1])

    def _exit_set(self, x, b):
        # the reference region (fewer than L positive coordinates) has A empty
        positive = x > 0
        many = reduce_coords(np.add, positive) >= self.L
        return positive & many[..., None]

    def __repr__(self):
        return f"SumIntersectionRule(L={self.L})"
