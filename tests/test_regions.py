"""Region classification and support-value checks, with an LP oracle for
the rearrangement minimum."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from itertools import combinations
from scipy.optimize import linprog

from wrongexit import (
    GapRule,
    Region,
    SiegmundRule,
    SumIntersectionRule,
    rearrangement_min,
)
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
        first, sets = rule.exits(block, b)
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
        first, sets = rule.exits(block, 2.0)
        assert list(first) == [0, 2]
        assert sets.tolist() == [[True, False], [False, True]]


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
