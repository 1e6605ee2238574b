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
The engine applies it to ``(k, B, d)`` blocks of B paths over k steps
through ``exits``, whose stop record lists only the paths that stop in the
block: the mask of them, their columns in ascending order, the first row
each stops at, the states there and the boolean member masks of the
regions they enter.  The stopped states are gathered once, for the exit
sets, and the engine writes those same arrays.  ``first_hit`` is the
one-path case of the same record.

The stop test runs on every row of every block, and at the small d of the
oracle problems it costs about as much as drawing the increments.  A numpy
reduction, sort or partition along the last axis loops once per row, and
at d = 2-4 that per-row overhead is most of its cost.  So the Siegmund
``all``, the ``rare_mask`` ``any`` and the sum-intersection counts reduce a
coordinate-major copy (``reduce_coords``), and the gap and sum-intersection
tests take their order statistics from ``order_stats``, which below
``SORT_MIN_D`` = 8 sorts a coordinate-major copy by a compare-exchange
network over whole columns.  On one 16,384-value block, in us:

    d                    2    3    4    7    8   10   12
    network             16   24   29   54   57   77   90
    np.sort per row    342  230  176  105   62  102   85

Smaller blocks move the crossover down (between d = 7 and 8 at 4,096
values; the network loses from d = 7 at 1,024), so numpy sorts from d = 8
on.  The gap test and its exit set read one pass: the m-th and (m+1)-th
largest coordinates, the first also bounding the exit set.  The
sum-intersection test sorts only the rows that pass an exact pre-filter: a
row whose L smallest |x_k| sum past b has at most L - 1 coordinates at or
below b / L, even after rounding (``SumIntersectionRule._stopped``), so
the count drops only rows that cannot stop: 72% of the rows at d=10, L=2
and 45% at d=3, L=2 on the benchmark's sum-intersection models.  Every
test gives the same stop rows and exit sets as a per-row sort; only a sum
of L >= 3 terms, added in the order ``order_stats`` leaves them, can move
in its last bit against another order.

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
from functools import lru_cache
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
SORT_MIN_D = 8  # order_stats sorts with numpy from this d on
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
        return region_key(self.rare, self.members)

    def __repr__(self):
        return f"Rare({set(self.members) or '{}'})" if self.rare else "Reference"


def region_key(rare: bool, members) -> str:
    """``A=<members>`` for a rare region, ``reference`` otherwise: the
    region's key in tallies and outputs, members in increasing order."""
    return "A=" + ",".join(map(str, members)) if rare else "reference"


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
    12/20 at d=100.  A count of bools (``add``) adds bytes and widens the
    result to numpy's int once, 8.7 against 16.3 us on 1,536 x 10.  Bool
    and int reductions are exact, so every layout gives the same bits.
    """
    d = a.shape[-1]
    if d >= IN_PLACE_MIN_D:
        return ufunc.reduce(a, axis=-1)
    cols = a.reshape(-1, d).T.copy()
    if ufunc is np.add and a.dtype == bool:
        # fewer than IN_PLACE_MIN_D ones fit a byte: counting in bytes and
        # widening once skips a cast of every bool to int64
        got = ufunc.reduce(cols, axis=0, dtype=np.uint8).astype(np.intp)
    else:
        got = ufunc.reduce(cols, axis=0)
    return got.reshape(a.shape[:-1])


@lru_cache(maxsize=None)
def sorting_network(d: int) -> Tuple[Tuple[int, int], ...]:
    """The comparators (i, j), i < j, of Batcher's odd-even merge sort on
    d wires, in order: after each puts the smaller of wires i and j on i
    and the larger on j, every input comes out sorted (Batcher 1968,
    "Sorting networks and their applications").  It is the network for
    the next power of two less the comparators that touch a wire past d,
    as if those wires held +inf."""
    pairs = []
    p = 1
    while p < d:
        k = p
        while k:
            for j in range(k % p, d - k, 2 * k):
                pairs += [(i + j, i + j + k) for i in range(min(k, d - j - k))
                          if (i + j) // (2 * p) == (i + j + k) // (2 * p)]
            k //= 2
        p *= 2
    return tuple(pairs)


def order_stats(a: np.ndarray, kth):
    """The coordinates of the states ``a`` ``(..., d)`` arranged as
    ``np.partition(a, kth, axis=-1)`` arranges them, as d columns of
    shape ``a.shape[:-1]``: column k holds each state's k-th smallest
    coordinate for every rank k in ``kth``, with the smaller ones before
    it and the larger after it.  NaN sorts last, as in numpy.

    A per-row sort or partition makes numpy loop once per row, and at
    small d that overhead is most of its cost.  Below ``SORT_MIN_D`` the
    states are copied coordinate-major, as in ``reduce_coords``, and
    sorted fully by ``sorting_network(d)``: each comparator is one
    ``np.fmin`` and one ``np.maximum`` over whole columns (fmin drops a
    NaN and maximum keeps it, so a NaN moves up like the largest value).
    Every output is one of the inputs, so the columns hold the values of
    a per-row sort (a zero may change its sign).  The comparators grow
    faster than d, so from ``SORT_MIN_D`` on numpy's per-row loop is
    cheaper, and the states are sorted by ``np.sort`` when ``kth`` holds
    more than one rank and partitioned by ``np.partition`` otherwise.
    Measured on float blocks (numpy 2.4, one core of a shared x86-64
    container), network (copy included) against ``np.sort``, in us, with
    16,384 values in the module docstring's table: on 4,096 values 13/48
    at d=4, 25/29 at d=7, 28/22 at d=8 and 36/28 at d=10; on 1,024 values
    9/17 at d=4 and 19/13 at d=7.  ``np.partition(a, 1)`` costs about 10%
    less than the sort at d = 9-12, and a two-rank partition more than the
    sort at every d from 8 on.
    """
    d = a.shape[-1]
    rows, shape = a.reshape(-1, d), (d,) + a.shape[:-1]
    if d >= SORT_MIN_D:
        part = (np.sort(rows, axis=-1) if np.ndim(kth)
                else np.partition(rows, kth, axis=-1))
        return part.T.reshape(shape)  # a view; np.moveaxis adds 4 us
    cols = list(rows.T.copy().reshape(shape))
    spare = np.empty_like(cols[0])
    for i, j in sorting_network(d):
        np.fmin(cols[i], cols[j], out=spare)
        np.maximum(cols[i], cols[j], out=cols[j])
        cols[i], spare = spare, cols[i]
    return cols


class _StoppingRule:
    """One stopping definition per rule, vectorised over leading axes.

    A rule supplies ``_stopped`` (the stop test of states ``(..., d)``,
    with a per-state level for the exit set, or None),
    ``_exit_set`` (the member mask of the region a stopped state lies in,
    given its level) and ``_reference_set`` (the member mask of the
    reference region, the exit set of every exit that is not rare).
    ``exits`` applies them to a ``(k, B, d)`` block of B paths over k
    steps; ``first_hit`` is its one-path case.
    """

    def exits(self, states: np.ndarray, b: float):
        """The stop record of a ``(k, B, d)`` block of B paths: ``(stop,
        cols, rows, at_stop, sets)``, where ``stop`` is the ``(B,)`` mask of
        the paths that stop in the block, ``cols`` lists them in ascending
        order, ``rows`` gives the first row each stops at, ``at_stop`` the
        ``(len(cols), d)`` states there and ``sets`` the boolean member
        masks of the regions they enter.  Paths that do not stop have no
        entry, and the exit sets are formed for the stopping paths only.
        The engine writes ``at_stop`` out as it is and narrows its live set
        by ``~stop``, so nothing here is gathered or tested twice.

        The stopping columns come from ``any`` along the rows, the stop
        rows from an argmax over those columns alone, and the stopped
        states from one ``take`` at flat positions.  In us on an (8, 1024,
        2) block, a fifth of its paths stopping (numpy 2.4, a shared x86-64
        core): ``hit.any(axis=0)`` 2.7 against 8.8 for ``hit[argmax,
        arange]``, the argmax over the stopping columns 4.8 against 15.7
        over all, the ``take`` 0.6 against 7.8 for ``states[rows, cols]``."""
        hit, level = self._stopped(states, b)
        stop = hit.any(axis=0)
        cols = np.flatnonzero(stop)
        rows = hit.take(cols, axis=1).argmax(axis=0)
        flat = rows * states.shape[1] + cols  # flat (row, path) positions
        at_stop = states.reshape(-1, states.shape[-1]).take(flat, axis=0)
        sets = self._exit_set(at_stop, None if level is None
                              else level.reshape(-1).take(flat), b)
        return stop, cols, rows, at_stop, sets

    def region(self, mask) -> Region:
        """Decode an exit-set mask into its region label."""
        return Region(rare=bool(self.rare_mask(mask[None])[0]),
                      members=tuple(int(k) for k in np.flatnonzero(mask)))

    def rare_mask(self, sets: np.ndarray) -> np.ndarray:
        """Rows of a ``(n, d)`` exit-set array that are rare regions."""
        return reduce_coords(np.logical_or,
                             sets != self._reference_set(sets.shape[1]))

    def first_hit(self, states: np.ndarray, b: float):
        """First stopped row in a (n, d) block of states and the region
        entered there, or (-1, None): the one-path stop record."""
        _, _, rows, _, sets = self.exits(
            np.asarray(states, dtype=float)[:, None], b)
        if not rows.size:
            return -1, None
        return int(rows[0]), self.region(sets[0])

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
                             (x > b * self.u) | (x < -b * self.ell)), None

    def _exit_set(self, x, level, b):
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
        """The gap test, with the m-th largest coordinate as the level."""
        d = x.shape[-1]
        if not 1 <= self.m <= d - 1:
            raise ValueError("m must satisfy 1 <= m <= d-1")
        cols = order_stats(x, (d - self.m - 1, d - self.m))
        mth = cols[d - self.m]
        # a tie exactly at gap == b does not stop (regions are open)
        return mth - cols[d - self.m - 1] > b, mth

    def _exit_set(self, x, level, b):
        # in a stopped state the top m lie more than b above the rest, so
        # the m-th largest value bounds them and any ties fall inside
        return x >= level[..., None]

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
        """The sum of the L smallest |x_k| exceeds b, tested on the
        candidate rows only, with the terms summed left to right in the
        order ``order_stats`` leaves them (ascending below ``SORT_MIN_D``).

        The sum of L values is at most L times their largest, t, so a row
        that stops has at most L - 1 coordinates with |x_k| <= b / L.  In
        floats: the computed sum of L nonnegative terms is at most their
        exact sum times 1 + (L - 1) eps (eps = 2^-53), so a computed sum
        above b gives t > b / (L (1 + (L - 1) eps)).  The threshold
        b / L (1 - SI_MARGIN) is formed with three roundings, each a
        factor of at most 1 + eps, so it lies below that bound while
        (L + 2) eps < SI_MARGIN, for any L below 10^6.  The d - L + 1
        coordinates with |x_k| >= t then all lie above the threshold, so a
        row with L or more coordinates at or below it cannot stop.  That
        proof holds for any order of the L terms, and for L = 2 the order
        does not change the sum.  NaN is never at or below the threshold,
        just as ``order_stats`` sorts it last.
        """
        d = x.shape[-1]
        if self.L > d:
            raise ValueError("L exceeds dimension")
        ax = np.abs(x).reshape(-1, d)
        small = reduce_coords(np.add, ax <= b / self.L * (1.0 - SI_MARGIN))
        cand = np.flatnonzero(small < self.L)
        low = order_stats(np.take(ax, cand, axis=0), self.L - 1)
        hit = np.zeros(ax.shape[0], dtype=bool)
        hit[cand] = sum(low[1:self.L], low[0]) > b
        return hit.reshape(x.shape[:-1]), None

    def _exit_set(self, x, level, b):
        # the reference region (fewer than L positive coordinates) has A empty
        positive = x > 0
        many = reduce_coords(np.add, positive) >= self.L
        return positive & many[..., None]

    def __repr__(self):
        return f"SumIntersectionRule(L={self.L})"
