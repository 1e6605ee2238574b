"""Region classification and support-value checks, with an LP oracle for
the rearrangement minimum."""

from functools import reduce
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from itertools import combinations, permutations, product
from scipy.optimize import linprog

from wrongexit import (
    GapRule,
    Region,
    SiegmundRule,
    SumIntersectionRule,
    rearrangement_min,
)
from wrongexit.regions import (IN_PLACE_MIN_D, SORT_MIN_D, order_stats,
                                reduce_coords, sorting_network)
from si_reference import support_value


def lp_oracle(theta, L):
    """min theta.x s.t. x >= 0, sum_{k in B} x_k >= 1 for all |B| = L."""
    theta = np.abs(np.asarray(theta, dtype=float))
    d = theta.size
    rows = []
    for B in combinations(range(d), L):
        row = np.zeros(d)
        row[list(B)] = -1.0
        rows.append(row)
    res = linprog(theta, A_ub=np.array(rows), b_ub=-np.ones(len(rows)),
                  bounds=[(0, None)] * d, method="highs")
    assert res.success
    return res.fun


def classify(rule, x, b):
    """The region one state x has stopped in, or None: the one-row case of
    ``first_hit``."""
    return rule.first_hit(np.asarray(x, dtype=float)[None], b)[1]


def dense_exits(rule, block, b):
    """The stop record of ``exits`` spread over every path of a (k, B, d)
    block: the first stop row of each path, or -1, and its (B, d) member
    masks, all False for a path that does not stop."""
    _, cols, rows, _, sets = rule.exits(block, b)
    first = np.full(block.shape[1], -1)
    first[cols] = rows
    dense = np.zeros(block.shape[1:], dtype=bool)
    dense[cols] = sets
    return first, dense


class TestClassify:
    def test_siegmund_examples(self):
        rule = SiegmundRule(1.0, 1.0)
        assert classify(rule, np.array([-11.0, 12.0]), 10.0) == \
            Region(True, (1,))
        assert classify(rule, np.array([-11.0, -12.0]), 10.0) == Region(False)
        assert classify(rule, np.array([-11.0, 2.0]), 10.0) is None
        # boundary is open: exactly at the barrier does not stop
        assert classify(rule, np.array([-10.0, -12.0]), 10.0) is None

    def test_gap_examples(self):
        rule = GapRule(1)
        # top-1 gap 8-2=6 > 5, top set {0} = [m] -> reference
        out = classify(rule, np.array([8.0, 2.0, 1.0]), 5.0)
        assert out is not None and not out.rare
        out = classify(rule, np.array([2.0, 8.0, 1.0]), 5.0)
        assert out == Region(True, (1,))
        assert classify(rule, np.array([8.0, 3.5, 1.0]), 5.0) is None

    def test_gap_tie_handling(self):
        rule = GapRule(2)
        # tie exactly at gap == b does not stop (open regions)
        assert classify(rule, np.array([5.0, 5.0, 0.0]), 5.0) is None
        # ties inside the top set break by lowest index
        out = classify(rule, np.array([7.0, 7.0, 7.0, 0.0]), 5.0)
        assert out is None  # second/third largest tie -> gap 0
        out = classify(rule, np.array([7.0, 7.0, 0.5, 0.0]), 5.0)
        assert out is not None and not out.rare

    def test_sum_intersection_examples(self):
        rule = SumIntersectionRule(2)
        out = classify(rule, np.array([3.0, -2.0, -4.0]), 1.0)
        assert out is not None and not out.rare  # one positive < L
        out = classify(rule, np.array([3.0, 2.0, -4.0]), 1.0)
        assert out == Region(True, (0, 1))
        assert classify(rule, np.array([0.5, -0.4, -4.0]), 1.0) is None

    def test_scale_equivariance(self):
        rng = np.random.default_rng(0)
        rules = [SiegmundRule(1.0, 0.5), GapRule(2), SumIntersectionRule(2)]
        for rule in rules:
            for _ in range(200):
                x = rng.normal(scale=3.0, size=5)
                b = rng.uniform(0.5, 3.0)
                c = rng.uniform(0.1, 10.0)
                assert classify(rule, x, b) == classify(rule, c * x, c * b)

    def test_none_is_stable_under_small_perturbation(self):
        rule = SiegmundRule(1.0, 1.0)
        x = np.array([-5.0, 3.0])
        b = 10.0  # distances to barriers are >= 5
        rng = np.random.default_rng(1)
        assert classify(rule, x, b) is None
        for _ in range(100):
            assert classify(rule, x + rng.uniform(-1, 1, 2), b) is None

    def test_first_hit_matches_classify(self):
        rng = np.random.default_rng(2)
        rules = [SiegmundRule(0.7, 1.3), GapRule(2), SumIntersectionRule(2)]
        for rule in rules:
            for _ in range(50):
                states = np.cumsum(rng.normal(size=(60, 5)), axis=0) * 2.0
                b = 3.0
                idx, region = rule.first_hit(states, b)
                per_row = [classify(rule, states[i], b) for i in range(60)]
                stops = [i for i, r in enumerate(per_row) if r is not None]
                if idx < 0:
                    assert not stops
                else:
                    assert idx == stops[0]
                    assert region == per_row[idx]


def oracle_exit(rule, x, b):
    """Stop test and exit set of one state by plain sorting, written apart
    from the package: (stopped, sorted members of A)."""
    d = len(x)
    if isinstance(rule, SiegmundRule):
        stop = all(v > b * rule.u or v < -b * rule.ell for v in x)
        return stop, [k for k in range(d) if x[k] > b * rule.u]
    if isinstance(rule, GapRule):
        desc = sorted(x, reverse=True)
        stop = desc[rule.m - 1] - desc[rule.m] > b
        # ties inside the top-m set break by the lowest index
        return stop, sorted(sorted(range(d), key=lambda k: (-x[k], k))
                            [: rule.m])
    stop = sum(sorted(abs(v) for v in x)[: rule.L]) > b
    positive = [k for k in range(d) if x[k] > 0]
    return stop, positive if len(positive) >= rule.L else []


@st.composite
def blocks(draw):
    """A rule, b and a (k, B, d) block on an integer grid, so that ties and
    equalities at the threshold occur often and every sum is exact.  Path 0
    is held at the origin before the last row, so it can stop only there;
    path 1 is often held far out from the first row, so it stops there."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(2, 5))
    d = draw(st.integers(2, 6))
    rule = draw(st.sampled_from([
        SiegmundRule(1.0, 1.0), SiegmundRule(0.5, 2.0),
        GapRule(1), GapRule(d - 1), GapRule(max(1, d // 2)),
        SumIntersectionRule(1), SumIntersectionRule(d),
        SumIntersectionRule(max(1, d // 2))]))
    b = float(draw(st.integers(1, 4)))
    block = draw(arrays(np.float64, (k, n, d),
                        elements=st.integers(-8, 8).map(float)))
    block[:-1, 0] = 0.0
    if draw(st.booleans()):
        block[:, 1] = draw(arrays(np.float64, d,
                                  elements=st.sampled_from([-40.0, 40.0])))
    return rule, b, block


class TestExits:
    @settings(max_examples=300, deadline=None)
    @given(blocks())
    def test_exits_match_sorting_oracle(self, case):
        rule, b, block = case
        first, sets = dense_exits(rule, block, b)
        k, n, d = block.shape
        for j in range(n):
            rows = [oracle_exit(rule, list(block[i, j]), b) for i in range(k)]
            stops = [i for i, (stop, _) in enumerate(rows) if stop]
            if not stops:
                assert first[j] == -1 and not sets[j].any()
                continue
            assert first[j] == stops[0]
            assert list(np.flatnonzero(sets[j])) == rows[stops[0]][1]

    def test_exits_on_first_and_last_row(self):
        rule = SiegmundRule(1.0, 1.0)
        block = np.zeros((3, 2, 2))
        block[:, 0] = [5.0, -5.0]  # stops on the first row, A = {0}
        block[2, 1] = [-5.0, 5.0]  # stops on the last row, A = {1}
        first, sets = dense_exits(rule, block, 2.0)
        assert list(first) == [0, 2]
        assert sets.tolist() == [[True, False], [False, True]]


@st.composite
def real_blocks(draw):
    """A rule, b and a real-valued (k, B, d) block at a d on either side of
    ``IN_PLACE_MIN_D``, with coordinates exactly at the rule's thresholds
    (b u and -b ell, b / L, a gap of b) and one ulp either side of them.
    One row is drawn at the threshold, so that it stops or just fails to."""
    d = draw(st.sampled_from([2, 3, IN_PLACE_MIN_D - 1, IN_PLACE_MIN_D,
                              IN_PLACE_MIN_D + 1, 64]))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    up, down = (lambda v: np.nextafter(v, math.inf),
                lambda v: np.nextafter(v, -math.inf))
    grid = st.integers(-64, 64).map(lambda q: q / 4)
    kind = draw(st.sampled_from(["siegmund", "gap", "si"]))
    if kind == "si":
        rule = SumIntersectionRule(draw(st.sampled_from(
            [1, 2, max(1, d // 2), d])))
        # b / L exact (L quarters) or rounded (any b)
        b = draw(st.one_of(st.integers(1, 16).map(lambda q: rule.L * q / 4),
                           st.floats(0.5, 20.0)))
        c = b / rule.L
        edge = [c, up(c), down(c), b, up(b), down(b), c + 0.25]
        edge += [-v for v in edge]
        elements = st.one_of(grid, st.floats(-4 * b, 4 * b),
                             st.sampled_from(edge))
        row = arrays(np.float64, d, elements=st.sampled_from(edge))
    else:
        b = draw(st.integers(1, 32)) / 4
        reals = st.floats(-4 * b, 4 * b, allow_nan=False)
        if kind == "siegmund":
            rule = SiegmundRule(draw(st.sampled_from([0.5, 1.0, 0.7])),
                                draw(st.sampled_from([1.0, 2.0, 1.3])))
            hi, lo = b * rule.u, -b * rule.ell
            edge = [hi, up(hi), down(hi), lo, up(lo), down(lo)]
            elements = st.one_of(reals, st.sampled_from(edge))
            outside = [up(hi), hi + 1.0, down(lo), lo - 1.0]
            row = arrays(np.float64, d, elements=st.sampled_from(outside))
        else:
            rule = GapRule(draw(st.sampled_from([1, max(1, d // 2), d - 1])))
            base = draw(grid)
            top = base + draw(st.sampled_from([b, up(b), down(b), b + 0.25]))
            edge = [base, top, up(base), down(top)]
            elements = st.one_of(reals, st.sampled_from(edge))
            ranks = st.permutations(range(d))
            # the top m at ``top``, the (m+1)-th largest exactly at base
            row = ranks.map(np.array).map(lambda p: np.where(
                p < rule.m, top, base - (p - rule.m) % 3))
    block = draw(arrays(np.float64, (k, n, d), elements=elements))
    if draw(st.booleans()):
        at = draw(st.integers(0, k - 1)), draw(st.integers(0, n - 1))
        block[at] = draw(row)
        if draw(st.booleans()):  # one coordinate back on the threshold
            block[at + (draw(st.integers(0, d - 1)),)] = draw(
                st.sampled_from(edge))
    return rule, b, block


def si_low_sum(a, L):
    """The sum of the L smallest entries of one row ``a``, added left to
    right in the order the block test leaves them: a float sum of L terms
    depends on their order, and the block test sorts below ``SORT_MIN_D``
    and partitions from it on, as one row's sort or partition does."""
    low = np.sort(a) if a.size < SORT_MIN_D else np.partition(a, L - 1)
    return reduce(operator.add, low[:L])


def real_oracle_exit(rule, x, b):
    """``oracle_exit`` of one real-valued state, with the sum-intersection
    stop test in the per-row form of ``si_low_sum``."""
    stop, members = oracle_exit(rule, x, b)
    if isinstance(rule, SumIntersectionRule):
        stop = si_low_sum(np.abs(np.array(x)), rule.L) > b
    return stop, members


class TestExitsReal:
    @settings(max_examples=300, deadline=None)
    @given(real_blocks())
    def test_exits_match_sorting_oracle(self, case):
        rule, b, block = case
        first, sets = dense_exits(rule, block, b)
        k, n, d = block.shape
        for j in range(n):
            rows = [real_oracle_exit(rule, list(block[i, j]), b)
                    for i in range(k)]
            stops = [i for i, (stop, _) in enumerate(rows) if stop]
            if not stops:
                assert first[j] == -1 and not sets[j].any()
                continue
            assert first[j] == stops[0]
            assert list(np.flatnonzero(sets[j])) == rows[stops[0]][1]


class TestOrderStats:
    @pytest.mark.parametrize("d", range(1, SORT_MIN_D))
    def test_network_sorts_every_zero_one_row(self, d):
        # a comparator network sorts every input iff it sorts every 0/1 one
        assert all(0 <= i < j < d for i, j in sorting_network(d))
        rows = np.array(list(product([0.0, 1.0], repeat=d)))
        got = np.stack(order_stats(rows, (0, d - 1)), axis=-1)
        assert np.array_equal(got, np.sort(rows, axis=-1))

    def test_network_sizes(self):
        # Batcher's odd-even merge sort: 5 comparators on 4 wires, 19 on 8
        assert [len(sorting_network(d)) for d in range(1, 9)] == \
            [0, 1, 3, 5, 9, 12, 16, 19]

    @pytest.mark.parametrize("d", [2, 3, 4, 5, SORT_MIN_D - 1, SORT_MIN_D,
                                   10, 12])
    def test_matches_np_sort_on_floats(self, d):
        """Rows with ties, signed zeros, infinities and NaN: every rank of
        ``kth`` holds the sorted value and the ranks below it the smaller
        values; below ``SORT_MIN_D`` the whole row is sorted."""
        rng = np.random.default_rng(d)
        pool = np.array([-np.inf, -2.5, -1.0, -0.0, 0.0, 1.0, 2.5, np.inf,
                         np.nan])
        shape = (3, 200, d)
        a = np.where(rng.random(shape) < 0.6, rng.choice(pool, shape),
                     rng.normal(size=shape))
        want = np.sort(a, axis=-1)
        for kth in [(max(0, d - 2), d - 1), 0, d // 2, d - 1]:
            got = np.stack(order_stats(a, kth), axis=-1)
            assert got.shape == a.shape
            for k in np.atleast_1d(kth):
                assert np.array_equal(got[..., k], want[..., k],
                                      equal_nan=True)
                assert np.array_equal(np.sort(got[..., :k], axis=-1),
                                      want[..., :k], equal_nan=True)
            if d < SORT_MIN_D:
                assert np.array_equal(got, want, equal_nan=True)


def per_row_exit(rule, x, b):
    """Stop test and member mask of one state by one per-row ``np.sort``
    (gap) or ``si_low_sum`` (sum-intersection), NaN sorting last; the
    Siegmund test reads each coordinate against its barriers."""
    d = x.size
    if isinstance(rule, SiegmundRule):
        return (np.all((x > b * rule.u) | (x < -b * rule.ell)),
                x > b * rule.u)
    if isinstance(rule, GapRule):
        s = np.sort(x)
        mth = s[d - rule.m]
        return mth - s[d - rule.m - 1] > b, x >= mth
    positive = x > 0
    return (si_low_sum(np.abs(x), rule.L) > b,
            positive & (positive.sum() >= rule.L))


def order_rules(d):
    return [GapRule(m) for m in sorted({1, d // 2, d - 1})] + [
        SumIntersectionRule(L) for L in (1, 2, 3) if L <= d]


def walk_block(rng, k, n, d):
    """A (k, n, d) block of random walks; on a half-unit grid half the
    time, so that ties and sums exactly at b occur."""
    block = np.cumsum(rng.normal(scale=1.5, size=(k, n, d)), axis=0)
    return np.round(2 * block) / 2 if rng.random() < 0.5 else block


class TestExitsPerRow:
    """``exits`` and ``first_hit`` of the order-statistic rules against the
    per-row sort or partition, at d on both sides of ``SORT_MIN_D``."""

    @pytest.mark.parametrize("nan", [False, True])
    @pytest.mark.parametrize("d", [2, 3, 4, SORT_MIN_D - 1, SORT_MIN_D, 10])
    def test_exits_match_per_row_reference(self, d, nan):
        """With ``nan``, a fifth of the coordinates are NaN, which sorts
        last as in numpy's per-row sort: it is never among the gap test's
        m-th and (m+1)-th largest unless m or more coordinates are NaN,
        never in a gap exit set, and enters the sum-intersection sum only
        when fewer than L coordinates are not NaN."""
        rng = np.random.default_rng(100 * nan + d)
        for rule in order_rules(d):
            for _ in range(20):
                block = walk_block(rng, 10, 12, d)
                if nan:
                    block[rng.random(block.shape) < 0.2] = np.nan
                self.check(rule, block, float(rng.choice([1.0, 2.0, 3.5])))

    def test_si_sum_adds_smallest_first_below_sort_min_d(self):
        """2^-53 + 2^-53 + 1 = 1 + 2^-52 passes b = 1 when added smallest
        first; in any other order the sum rounds to 1 and does not."""
        tiny = 2.0 ** -53
        rule = SumIntersectionRule(3)
        for x in permutations([tiny, -tiny, 1.0]):
            assert rule.first_hit(np.array([x]), 1.0)[0] == 0

    @staticmethod
    def check(rule, block, b):
        k, n, d = block.shape
        first, sets = dense_exits(rule, block, b)
        for j in range(n):
            rows = [per_row_exit(rule, block[i, j], b) for i in range(k)]
            stops = [i for i, (stop, _) in enumerate(rows) if stop]
            idx, region = rule.first_hit(block[:, j], b)
            if not stops:
                assert first[j] == idx == -1 and not sets[j].any()
                assert region is None
                continue
            assert first[j] == idx == stops[0]
            assert np.array_equal(sets[j], rows[stops[0]][1])
            assert region == rule.region(rows[stops[0]][1])


def far_state(rule, rng, d, b):
    """A state at +-10 b in every coordinate, which every rule stops at:
    a gap rule's m coordinates up and the rest down, any others at
    random."""
    up = rng.permutation(d) < (rule.m if isinstance(rule, GapRule)
                               else rng.integers(d + 1))
    return np.where(up, 10.0 * b, -10.0 * b)


class TestStopRecord:
    """``exits`` returns the stopping paths only: their mask, ``cols``
    ascending and their states at the stops, with
    the first stop row and the exit set of the per-row reference."""

    @pytest.mark.parametrize("d", [2, 3, 4, 7, 8, 10])
    def test_record_matches_per_row_reference(self, d):
        rng = np.random.default_rng(300 + d)
        b = 2.0
        for rule in [SiegmundRule(1.0, 1.0), SiegmundRule(0.7, 1.3)] + \
                order_rules(d):
            # nothing stops in the zero block; in the last one every path
            # stops, on the rows in ``at`` (the first and the last among
            # them), after rows at the origin
            at = [0, 4, 2, 0, 4, 1]
            every = walk_block(rng, 5, len(at), d)
            for j, i in enumerate(at):
                every[:i, j] = 0.0
                every[i, j] = far_state(rule, rng, d, b)
            blocks = [walk_block(rng, 10, 12, d) for _ in range(10)]
            blocks += [np.zeros((4, 5, d)), every]
            for block in blocks:
                self.check(rule, block, b)
            stop, cols, rows, _, _ = rule.exits(every, b)
            assert stop.all()
            assert cols.tolist() == list(range(len(at)))
            assert rows.tolist() == at
            stop, cols, *_ = rule.exits(blocks[-2], b)
            assert not stop.any() and not cols.size

    @staticmethod
    def check(rule, block, b):
        k, n, d = block.shape
        stop, cols, rows, at_stop, sets = rule.exits(block, b)
        assert cols.shape == rows.shape == (len(sets),)
        assert sets.shape == at_stop.shape == (len(cols), d)
        assert sets.dtype == bool and stop.dtype == bool
        assert np.all(np.diff(cols) > 0)
        ref = [[per_row_exit(rule, block[i, j], b) for i in range(k)]
               for j in range(n)]
        stops = [[i for i, (hit, _) in enumerate(r) if hit] for r in ref]
        # the mask is the reference's hit.any(axis=0), and the states are
        # the block's rows at the stops, bit for bit
        assert stop.tolist() == [bool(s) for s in stops]
        assert at_stop.tobytes() == block[rows, cols].tobytes()
        assert cols.tolist() == [j for j in range(n) if stops[j]]
        for j, i, members in zip(cols, rows, sets):
            assert i == stops[j][0]
            assert np.array_equal(members, ref[j][i][1])


class TestReduceCoords:
    @pytest.mark.parametrize("ufunc", [np.logical_and, np.logical_or,
                                       np.add])
    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(st.integers(0, 4), st.integers(0, 5),
                           st.sampled_from([1, 2, 3, IN_PLACE_MIN_D - 1,
                                            IN_PLACE_MIN_D, 64])),
           block=st.booleans(), dtype=st.sampled_from([bool, np.int64]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_last_axis_reduce(self, ufunc, shape, block, dtype,
                                      seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-3, 4, size=shape if block else shape[1:])
        a = a.astype(dtype)
        got = reduce_coords(ufunc, a)
        want = ufunc.reduce(a, axis=-1)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


class TestRuleValidation:
    @pytest.mark.parametrize("ell, u", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)])
    def test_siegmund_barriers_must_be_positive_and_finite(self, ell, u):
        with pytest.raises(ValueError, match="positive and finite"):
            SiegmundRule(ell, u)


class TestSupportValue:
    def test_siegmund_formula(self):
        rule = SiegmundRule(1.0, 1.0)
        val = support_value(rule, np.array([1.0, -0.5]), Region(True, (0,)))
        assert val == pytest.approx(1.5)
        # wrong sign pattern -> -inf
        val = support_value(rule, np.array([-1.0, -0.5]), Region(True, (0,)))
        assert val == -math.inf

    def test_gap_formula(self):
        rule = GapRule(2)
        t = 0.7
        theta = np.array([-t, 0.0, t, 0.0])
        val = support_value(rule, theta, Region(True, (1, 2)))
        assert val == pytest.approx(t)
        # non-zero-sum -> -inf
        val = support_value(rule, np.array([-t, 0.0, 2 * t, 0.0]),
                            Region(True, (1, 2)))
        assert val == -math.inf

    def test_si_indicator_pattern(self):
        rule = SumIntersectionRule(3)
        t = 0.4
        theta = np.zeros(6)
        theta[[0, 2, 4]] = t
        val = support_value(rule, theta, Region(True, (0, 2, 4)))
        assert val == pytest.approx(t)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(3)
        rules = [(SiegmundRule(1.0, 2.0), Region(True, (0, 2))),
                 (SumIntersectionRule(2), Region(True, (0, 2)))]
        for rule, region in rules:
            for _ in range(50):
                theta = rng.normal(size=5)
                theta[[0, 2]] = np.abs(theta[[0, 2]])
                theta[[1, 3, 4]] = -np.abs(theta[[1, 3, 4]])
                c = rng.uniform(0.1, 5.0)
                v1 = support_value(rule, theta, region)
                v2 = support_value(rule, c * theta, region)
                assert v2 == pytest.approx(c * v1, rel=1e-12)

    def test_sign_tolerance(self):
        rule = SiegmundRule(1.0, 1.0)
        theta = np.array([1.0, 5e-13])  # slightly positive off A
        val = support_value(rule, theta, Region(True, (0,)))
        assert math.isfinite(val)


class TestRearrangementMin:
    def test_hand_examples(self):
        assert rearrangement_min([3.0, 2.0, 1.0], 1) == pytest.approx(6.0)
        t = 0.37
        assert rearrangement_min([t, t, t, 0, 0], 2) == pytest.approx(1.5 * t)

    def test_indicator_value(self):
        theta = np.zeros(7)
        theta[:3] = 2.2
        assert rearrangement_min(theta, 3) == pytest.approx(2.2)

    def test_L_bounds(self):
        with pytest.raises(ValueError):
            rearrangement_min([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            rearrangement_min([1.0, 2.0], 0)

    def test_matches_lp_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            d = rng.integers(2, 7)
            L = rng.integers(1, min(4, d) + 1)
            theta = rng.uniform(0, 3, size=d) * rng.choice([-1, 1], size=d)
            got = rearrangement_min(theta, int(L))
            want = lp_oracle(theta, int(L))
            assert got == pytest.approx(want, abs=1e-9)


def closure_lp(rule, theta, members):
    """min theta.x over the closure of W^A at b = 1 by linprog, or -inf
    when the LP is unbounded.  Siegmund: x_k >= u on A and x_k <= -ell off
    A.  Gap: x_j - x_k >= 1 for j in A, k not in A."""
    d = theta.size
    in_A = np.zeros(d, dtype=bool)
    in_A[list(members)] = True
    if isinstance(rule, SiegmundRule):
        bounds = [(rule.u, None) if a else (None, -rule.ell) for a in in_A]
        res = linprog(theta, bounds=bounds, method="highs")
    else:
        rows = []
        for j in np.flatnonzero(in_A):
            for k in np.flatnonzero(~in_A):
                row = np.zeros(d)
                row[j], row[k] = -1.0, 1.0
                rows.append(row)
        res = linprog(theta, A_ub=np.array(rows), b_ub=-np.ones(len(rows)),
                      bounds=[(None, None)] * d, method="highs")
    assert res.status in (0, 3), res.message
    return res.fun if res.status == 0 else -math.inf


@st.composite
def support_cases(draw):
    """A Siegmund or gap rule, a region and a tilt on a quarter grid, so
    entries are exactly zero or at least 0.25 from it.  With ``signed`` the
    tilt takes the region's sign pattern; a gap tilt is then also scaled to
    sum exactly to zero (integer entries p_j sum(q) on A, -q_k sum(p) off
    A)."""
    d = draw(st.integers(2, 6))
    if draw(st.booleans()):
        rule = SiegmundRule(draw(st.sampled_from([0.5, 1.0, 2.0])),
                            draw(st.sampled_from([0.5, 1.0, 3.0])))
        size = draw(st.integers(1, d))
    else:
        rule = GapRule(draw(st.integers(1, d - 1)))
        size = rule.m
    members = draw(st.permutations(range(d)))[:size]
    in_A = np.zeros(d, dtype=bool)
    in_A[members] = True
    theta = draw(arrays(np.float64, d,
                        elements=st.integers(-8, 8).map(lambda k: k / 4)))
    if draw(st.booleans()):
        theta = np.where(in_A, np.abs(theta), -np.abs(theta))
        if isinstance(rule, GapRule):
            p, q = theta[in_A], -theta[~in_A]
            theta = np.where(in_A, theta * q.sum(), theta * p.sum())
    return rule, sorted(members), theta


class TestSupportValueLP:
    @settings(max_examples=200, deadline=None)
    @given(support_cases())
    def test_support_value_matches_lp(self, case):
        rule, members, theta = case
        got = support_value(rule, theta, Region(True, tuple(members)))
        want = closure_lp(rule, theta, members)
        if want == -math.inf:
            assert got == -math.inf
        else:
            assert got == pytest.approx(want, abs=1e-9)
