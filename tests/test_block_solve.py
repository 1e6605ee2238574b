"""Block solves against one-program solves: random programs of every kind on
four model families, each solved once as one block and once program by
program, must agree bit for bit in every TiltSolution field and in the
errors raised."""

import numpy as np
import pytest

from wrongexit import (
    GapRule,
    IndependentModel,
    MvNormalModel,
    Normal,
    ShiftedExponential,
    SiegmundRule,
    SumIntersectionRule,
)
from wrongexit import active_set, constraints
from wrongexit.active_set import (
    BLOCK_VALUES,
    Program,
    SolverError,
    TiltSolution,
    block_solve,
    checked_block_solve,
)
from wrongexit.solvers import (
    beta_program,
    gamma_pair_program,
    gap_pair_program,
    gap_quad_program,
    si_s_program,
    si_z_program,
)

KINDS = ("beta", "gamma_pair", "gap_pair", "gap_quad", "si_beta", "si_z",
         "si_s")
FAMILIES = ("correlated", "normal", "exponential", "mixed")
FIELDS = ("value", "tilt", "converged", "residual", "method", "multipliers",
          "eq_multiplier", "weights")


def random_model(rng, family, drifts):
    """A model of ``family`` whose coordinate k has the sign of drifts[k]."""
    d = drifts.size
    mag = rng.uniform(0.2, 1.2, d)
    if family == "correlated":
        a = rng.normal(size=(d, d)) * rng.uniform(0.1, 0.6)
        return MvNormalModel(drifts * mag, a @ a.T + rng.uniform(0.3, 1.5)
                             * np.eye(d))
    comps = []
    for k in range(d):
        expo = family == "exponential" or (family == "mixed"
                                           and rng.random() < 0.5)
        if expo:  # mean 1/rate + shift
            rate = rng.uniform(0.5, 3.0)
            comps.append(ShiftedExponential(rate, drifts[k] * mag[k]
                                            - 1.0 / rate))
        else:
            comps.append(Normal(drifts[k] * mag[k], rng.uniform(0.3, 2.5)))
    return IndependentModel(comps)


def random_program(rng, kind, family, d):
    """One program record of ``kind`` on a random model of ``family``."""
    signs = -np.ones(d)
    if kind in ("beta", "gap_pair", "gap_quad"):
        gap = kind != "beta" or rng.random() < 0.5
        if gap:
            d = max(d, 4)
            m = int(rng.integers(2, d - 1)) if kind == "gap_quad" \
                else int(rng.integers(1, d))
            signs = np.where(np.arange(d) < m, 1.0, -1.0)
    model = random_model(rng, family, signs)
    pick = lambda lo, hi, n: sorted(rng.choice(np.arange(lo, hi), n, False))
    if kind == "beta" and not gap:
        rule = SiegmundRule(rng.uniform(0.3, 2.0), rng.uniform(0.3, 3.0))
        A = pick(0, d, int(rng.integers(1, d + 1)))
        return beta_program(A, rule, model)
    if kind == "beta":
        l, lp = int(rng.integers(0, m)), int(rng.integers(m, d))
        A = sorted(set(range(m)) - {l} | {lp})
        return beta_program(A, GapRule(m), model)
    if kind == "gamma_pair":
        rule = SiegmundRule(rng.uniform(0.3, 2.0), rng.uniform(0.3, 3.0))
        return gamma_pair_program(*pick(0, d, 2), rule, model)
    if kind == "gap_pair":
        return gap_pair_program(int(rng.integers(0, m)),
                                int(rng.integers(m, d)), GapRule(m), model)
    if kind == "gap_quad":
        return gap_quad_program(*pick(0, m, 2), *pick(m, d, 2), GapRule(m),
                                model)
    L = int(rng.integers(2, d)) if d > 2 else 2
    rule = SumIntersectionRule(L)
    if kind == "si_beta":
        return beta_program(pick(0, d, int(rng.integers(L, d + 1))), rule,
                            model)
    if kind == "si_z":
        return si_z_program(pick(0, d, L), rule, model)
    return si_s_program(pick(0, d, min(L + 1, d)), rule, model)


def programs(seed, kind, per_cell):
    """``per_cell`` programs of ``kind`` for each family and d = 3..7."""
    rng = np.random.default_rng([seed, KINDS.index(kind)])
    return [random_program(rng, kind, family, d) for family in FAMILIES
            for d in range(3, 8) for _ in range(per_cell)]


def solve_alone(progs):
    """Each program as a block of its own: its solution or its error."""
    out = []
    for p in progs:
        try:
            out.append(block_solve([p])[0])
        except SolverError as exc:
            out.append(exc)
    return out


def assert_same(a, b):
    for name in FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert type(x) is type(y), name
        if isinstance(x, np.ndarray):
            assert x.tobytes() == y.tobytes() and x.shape == y.shape, name
        else:
            assert x == y or (x != x and y != y), name


@pytest.mark.parametrize("kind", KINDS)
def test_block_matches_one_program_solves(kind):
    progs = programs(16, kind, 6)
    alone = solve_alone(progs)
    errors = [r for r in alone if isinstance(r, SolverError)]
    if errors:
        with pytest.raises(SolverError) as err:
            block_solve(progs)
        assert str(err.value) == str(errors[0])
    kept = [p for p, r in zip(progs, alone) if not isinstance(r, SolverError)]
    sols = [r for r in alone if not isinstance(r, SolverError)]
    assert len(kept) >= 0.9 * len(progs)
    for got, want in zip(block_solve(iter(kept)), sols):
        assert_same(got, want)
        assert type(got.value) is float and type(got.residual) is float
        assert type(got.converged) is bool
        assert got.eq_multiplier is None or type(got.eq_multiplier) is float


def test_block_slices_stay_bounded(monkeypatch):
    """Programs are drawn and stacked a slice at a time."""
    monkeypatch.setattr(active_set, "BLOCK_VALUES", 2 * 7 * 7)
    progs = programs(17, "si_beta", 2)
    drawn, sizes = [], []
    stack = constraints._Stack.concat

    def spy(self, stacks):
        sizes.append(sum(s.signs.shape[1] ** 2 if hasattr(s, "signs")
                         else s.b.shape[1] ** 2 for s in stacks))
        return stack(self, stacks)

    monkeypatch.setattr(constraints._Stack, "concat", spy)
    gen = (drawn.append(i) or p for i, p in enumerate(progs))
    want = solve_alone(progs)
    got = block_solve(gen)
    assert drawn == list(range(len(progs)))
    assert max(sizes) <= 2 * 7 * 7 < BLOCK_VALUES
    for a, b in zip(got, want):
        assert_same(a, b)


def rising(mean, label):
    """A sum-intersection record that fails: no tilt of a rising walk has a
    positive level."""
    model = MvNormalModel(np.full(3, mean), np.eye(3))
    return Program(None, constraints._constraint(model, np.arange(3),
                                                 np.ones(3)),
                   np.ones(3), None, 2, label, np.arange(3), 3)


def test_block_raises_the_first_failure_in_input_order(monkeypatch):
    rng = np.random.default_rng(5)
    good = [random_program(rng, "si_z", "correlated", 4) for _ in range(3)]
    progs = [good[0], rising(0.5, "first"), good[1], rising(0.7, "second"),
             good[2]]
    msg = ": no feasible tilt at a positive level"
    for label in ("first", "second"):
        with pytest.raises(SolverError, match=f"^{label}{msg}$"):
            block_solve([rising(0.6, label)])
    with pytest.raises(SolverError, match=f"^first{msg}$") as err:
        block_solve(progs)
    assert err.value.index == 1
    for got, want in zip(block_solve(good), solve_alone(good)):
        assert_same(got, want)
    # one program per slice: the failure's position is in the whole input
    monkeypatch.setattr(active_set, "BLOCK_VALUES", 1)
    with pytest.raises(SolverError, match=f"^second{msg}$") as err:
        block_solve([good[0], good[1], rising(0.7, "second"), good[2]])
    assert err.value.index == 2


# ---------------------------------------------------------------------------
# The checked gate: closed forms pass through, failures name their entry
# ---------------------------------------------------------------------------

NAME = "entry {}".format
FAIL = "no feasible tilt at a positive level"


def closed_form(converged=True):
    return TiltSolution(1.5, np.zeros(3), converged,
                        0.0 if converged else 2e-7, "siegmund/gamma-root")


def good_records(n, seed=5):
    rng = np.random.default_rng(seed)
    return [random_program(rng, "si_z", "correlated", 4) for _ in range(n)]


def test_gate_passes_closed_forms_through():
    good, closed = good_records(2), closed_form()
    got = checked_block_solve(NAME, [good[0], closed, good[1]])
    assert got[1] is closed
    for a, b in zip((got[0], got[2]), block_solve(good)):
        assert_same(a, b)


def test_gate_names_a_failure_by_its_whole_input_position(monkeypatch):
    monkeypatch.setattr(active_set, "BLOCK_VALUES", 1)  # a slice per record
    good, closed = good_records(3), closed_form()
    entries = [good[0], closed, good[1], closed, rising(0.7, "bad"),
               good[2]]
    with pytest.raises(SolverError, match=f"^entry 4: bad: {FAIL}$"):
        checked_block_solve(NAME, entries)


def test_gate_names_a_non_converged_closed_form():
    good = good_records(2)
    with pytest.raises(SolverError, match=(
            r"^entry 1: siegmund/gamma-root did not converge "
            r"\(residual 2\.000e-07\)$")):
        checked_block_solve(NAME, [good[0], closed_form(False), good[1]])


def test_gate_raised_error_wins_over_earlier_non_convergence():
    good = good_records(2)
    with pytest.raises(SolverError, match=f"^entry 2: bad: {FAIL}$"):
        checked_block_solve(NAME, [good[0], closed_form(False),
                                    rising(0.6, "bad"), good[1]])


def test_gate_draws_records_lazily(monkeypatch):
    """When a slice is solved, at most one record beyond it (the one that
    closed it) has been drawn."""
    rule = SumIntersectionRule(2)
    records = [si_z_program((0, 1), rule, MvNormalModel(
        np.full(3, -0.4 - 0.1 * i), np.eye(3) + 0.2)) for i in range(6)]
    monkeypatch.setattr(active_set, "BLOCK_VALUES", 2 * 2 * 2)  # 2 a slice
    drawn, solved, seen = [], [], []
    solve = active_set._si_active_set

    def spy(block):
        solved.extend(block)
        seen.append((len(drawn), len(solved)))
        return solve(block)

    def entries():
        for i, p in enumerate(records):
            if i % 2:
                yield closed_form()
            drawn.append(i)
            yield p

    monkeypatch.setattr(active_set, "_si_active_set", spy)
    got = checked_block_solve(NAME, entries())
    assert len(seen) == 3 and all(d <= s + 1 for d, s in seen)
    sols = [sol for sol in got if sol.method == "si/z-active-set"]
    assert len(sols) == len(records) and len(got) == 9
    for a, b in zip(sols, block_solve(records)):
        assert_same(a, b)


def test_nan_program_fails_alone_in_its_stack():
    """A nan in one program of a stacked subsolve fails that program, and
    its neighbour is solved as it is alone."""
    quad = constraints._Quad(np.zeros(2), np.array([[np.nan, -1.0],
                                                    [-0.5, -0.5]]),
                             np.stack([np.eye(2)] * 2))
    c, pinned = np.ones((2, 2)), np.zeros((2, 2), dtype=bool)
    x, s, _, ok = quad.subsolve(c, None, pinned, None)
    x1, s1, _, ok1 = quad.take([1]).subsolve(c[1:], None, pinned[1:], None)
    assert ok.tolist() == [False, True] and ok1.tolist() == [True]
    assert x[1].tobytes() == x1[0].tobytes() and s[1] == s1[0]


# ---------------------------------------------------------------------------
# The linear-objective active set's failures
# ---------------------------------------------------------------------------

def quad_record(con, c, signs, label="quad"):
    """A linear-objective record on all n coordinates of a ``_Quad``."""
    n = signs.size
    return Program(np.asarray(c, dtype=float), con, signs, None, None, label,
                   np.arange(n), n)


class Scripted(constraints._Quad):
    """A ``_Quad`` whose subsolve answers x = -1 on every free coordinate
    and s = 1, whatever q is: a coordinate is pinned for its sign
    violation, then released for its negative multiplier."""

    def subsolve(self, c, eq, pinned, x):
        k = len(c)
        return (np.where(pinned, 0.0, -1.0), np.ones(k), np.zeros(k),
                np.ones(k, dtype=bool))


def test_infeasible_origin_makes_every_subproblem_degenerate():
    # q(0) = kappa > CGF_TOL, and b = 0 leaves no point with q <= 0
    con = constraints._Quad(np.array([2 * constraints.CGF_TOL]),
                            np.zeros((1, 2)), np.eye(2)[None])
    with pytest.raises(SolverError,
                       match="^degenerate active-set subproblem$"):
        block_solve([quad_record(con, [1.0, -1.0], np.ones(2))])


def test_pinned_set_met_twice_is_an_error():
    # x = -1 pins the coordinate; at x = 0 its reduced gradient is
    # b - s c = -3, so it is released, back to the empty pinned set
    con = Scripted(np.zeros(1), np.array([[-2.0]]), np.eye(1)[None])
    with pytest.raises(SolverError,
                       match="^active-set iteration revisited a pinned set$"):
        block_solve([quad_record(con, [1.0], np.ones(1))])


def test_iteration_cap_is_an_error(monkeypatch):
    # max x_0 - 2 x_1 over q <= 0 wants x_1 < 0: the first step pins x_1
    con = constraints._Quad(np.zeros(1), -np.ones((1, 2)), np.eye(2)[None])
    record = quad_record(con, [1.0, -2.0], np.ones(2))
    assert block_solve([record])[0].converged
    monkeypatch.setattr(active_set, "ACTIVE_SET_MAX_ITER", 1)
    with pytest.raises(SolverError, match=(
            "^active-set iteration did not converge in 1 steps$")):
        block_solve([record])
