"""Estimator correctness: determinism, unbiasedness, and bookkeeping."""

from collections import Counter
import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

from wrongexit import (
    IndependentModel,
    MvNormalModel,
    Normal,
    ShiftedExponential,
    SiegmundRule,
    SumIntersectionRule,
    GapRule,
    exchangeable_mvnormal,
)
from wrongexit.engine import (
    BATCH,
    CHUNK_VALUES,
    FIRST_CHUNK,
    NO_WRONG_EXIT,
    ONE_BATCH,
    ONE_GROUP,
    PILOT,
    SHARE_RANGE,
    SHARE_TOL,
    RunConfig,
    _decode_tally,
    _mixture_estimate,
    _tally,
    batch_paths,
    batch_rng,
    decay_scan,
    default_max_steps,
    estimate_wrong_exit,
    pilot_share,
    plain_mc,
    simulate_batch,
)
from wrongexit.proposals import (
    MixtureProposal,
    build_gap,
    build_siegmund,
    build_sum_intersection,
    plain_proposal,
)
from wrongexit.cli import build_model, build_proposal, build_rule, load_config
from wrongexit.regions import region_key
from test_regions import dense_exits

LOG2 = math.log(2.0)
RULE11 = SiegmundRule(1.0, 1.0)


def siegmund_d2():
    return IndependentModel([Normal(-0.5, 1.0)] * 2)


def single_component(prop, j=0):
    return MixtureProposal(prop.thetas[j:j + 1], prop.lambdas[j:j + 1],
                           [prop.provenance[j]], prop.problem, "one")


def recording_draw(model, thetas, calls):
    """The model's batched sampler, logging every (comp, block) it returns."""
    draw = model.batch_sampler(thetas)

    def rec(rng, comp, k):
        out = draw(rng, comp, k)
        calls.append((comp.copy(), out.copy()))
        return out

    return rec


def per_path_reference(calls, rule, b, thetas, lambdas):
    """Walk each path one step at a time through the increments the batch
    core drew, stopping at the first row ``rule.first_hit`` stops, and weight
    wrong exits with scipy's logsumexp: (values, steps, regions)."""
    comp = calls[0][0]
    n = comp.size
    states = np.zeros((n, thetas.shape[1]))
    steps = np.zeros(n, dtype=int)
    regions = [None] * n
    for live_comp, block in calls:
        live = [i for i in range(n) if regions[i] is None]
        assert np.array_equal(live_comp, comp[live])
        for col, i in enumerate(live):
            for x in block[:, col]:
                states[i] += x
                steps[i] += 1
                regions[i] = rule.first_hit(states[i][None], b)[1]
                if regions[i] is not None:
                    break
    values = np.zeros(n)
    for i, region in enumerate(regions):
        if region is not None and region.rare:
            logw = thetas @ states[i] - steps[i] * lambdas
            values[i] = math.exp(math.log(len(thetas)) - logsumexp(logw))
    return values, steps, regions


def cumsum_chunk_reference(draw, rule, b, max_steps, thetas, lambdas, rng,
                           n):
    """``simulate_batch`` with numpy's axis-0 cumsum for each chunk's running
    sums and every live state scattered into ``states`` on every chunk."""
    n_comp, d = thetas.shape
    comp = rng.integers(n_comp, size=n)
    states = np.zeros((n, d))
    steps = np.full(n, max_steps)
    exit_sets = np.zeros((n, d), dtype=bool)
    live = np.arange(n)
    t = 0
    while live.size and t < max_steps:
        k = min(max_steps - t, max(1, CHUNK_VALUES // (live.size * d)),
                max(FIRST_CHUNK, t))
        block = draw(rng, comp[live], k)
        block[0] += states[live]
        np.cumsum(block, axis=0, out=block)
        first, sets = dense_exits(rule, block, b)
        done = first >= 0
        cols = np.arange(live.size)
        states[live] = block[np.where(done, first, k - 1), cols]
        steps[live[done]] = t + first[done] + 1
        exit_sets[live[done]] = sets[done]
        live = live[~done]
        t += k
    truncated = np.zeros(n, dtype=bool)
    truncated[live] = True
    values = np.zeros(n)
    wrong = rule.rare_mask(exit_sets) & ~truncated
    rare = np.flatnonzero(wrong)
    logw = states[rare] @ thetas.T - steps[rare, None] * lambdas
    values[rare] = _mixture_estimate(n_comp, logw)
    return values, states, steps, exit_sets, truncated, wrong


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
ORACLE_CONFIGS = ("oracle_siegmund_d2.json", "oracle_gap_d4.json",
                  "oracle_si_d3.json")


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(b=0.0, n_paths=10, seed=0)
        with pytest.raises(ValueError):
            RunConfig(b=1.0, n_paths=0, seed=0)
        with pytest.raises(ValueError):
            RunConfig(b=1.0, n_paths=10, seed=0, max_steps=0)
        with pytest.raises(ValueError):
            RunConfig(b=1.0, n_paths=10, seed=0, workers=0)

    @pytest.mark.parametrize("b", [math.nan, math.inf])
    def test_non_finite_b_rejected(self, b):
        with pytest.raises(ValueError, match="b must be positive and finite"):
            RunConfig(b=b, n_paths=10, seed=0)

    def test_workers_above_cpu_count_rejected(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        RunConfig(b=1.0, n_paths=10, seed=0, workers=2)
        with pytest.raises(ValueError, match="workers=3"):
            RunConfig(b=1.0, n_paths=10, seed=0, workers=3)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        with pytest.raises(ValueError, match="workers"):
            RunConfig(b=1.0, n_paths=10, seed=0, workers=2)

    def test_one_worker_does_not_ask_cpu_count(self, monkeypatch):
        def no_count():
            raise AssertionError("os.cpu_count called for one worker")

        monkeypatch.setattr(os, "cpu_count", no_count)
        RunConfig(b=1.0, n_paths=10, seed=0, workers=1)


class TestStreams:
    def test_batch_streams_are_keyed_by_seed_and_index(self):
        # 2**64 - 1 is the plain side's key at the largest accepted seed
        draws = {(s, i): batch_rng(s, i).standard_normal(4)
                 for s in (0, 1, 2**64 - 2, 2**64 - 1)
                 for i in (0, 1, 2**40)}
        for key in ((1, 2**40), (2**64 - 1, 1)):
            np.testing.assert_array_equal(
                draws[key], batch_rng(*key).standard_normal(4))
        assert len({v.tobytes() for v in draws.values()}) == len(draws)

    @pytest.mark.parametrize("seed, i", [(0, 0), (6, 3), (2**64 - 2, 2**40)])
    def test_neighbouring_streams_are_uncorrelated(self, seed, i):
        # the next batch and the next seed (the oracle's plain side) draw
        # streams whose sample correlation with this one is within five
        # standard errors of zero
        n = 20_000
        xs = [batch_rng(s, j).standard_normal(n)
              for s, j in ((seed, i), (seed, i + 1), (seed + 1, i))]
        corr = np.corrcoef(xs)
        assert np.all(np.abs(corr[np.triu_indices(3, 1)]) < 5 / math.sqrt(n))


class TestSimulatePath:
    def test_truncation_when_regions_unreachable(self):
        run = plain_mc(siegmund_d2(), RULE11,
                       RunConfig(b=50.0, n_paths=300, seed=0, max_steps=1))
        assert run.truncation_count == 300
        assert run.exit_tally == {} and run.mean == 0.0
        # a truncated path has no exit set, which the gap rule must not
        # read as a rare region (its reference set is not empty)
        gmodel = MvNormalModel(np.array([0.5, 0.5, -0.5, -0.5]), np.eye(4))
        gprop, _ = build_gap("t0", gmodel, 2)
        run = estimate_wrong_exit(gmodel, gprop, GapRule(2),
                                  RunConfig(b=50.0, n_paths=300, seed=0,
                                            max_steps=1))
        assert run.truncation_count == 300 and run.mean == 0.0

    def test_strong_negative_drift_exits_reference(self):
        model = IndependentModel([Normal(-2.0, 0.25)])
        run = plain_mc(model, SiegmundRule(1, 1),
                       RunConfig(b=5.0, n_paths=200, seed=1,
                                 max_steps=10_000))
        assert run.truncation_count == 0
        assert run.exit_tally == {"reference": 200}
        assert run.mean == 0.0

    def test_tally_concentrates_under_singleton_tilt(self):
        comp = ShiftedExponential(2.0, -LOG2)
        model = IndependentModel([comp] * 5)
        prop, _ = build_siegmund("theta0", model, 1.0, 1.0)
        assert prop.thetas[0].argmax() == 0
        run = estimate_wrong_exit(model, single_component(prop), RULE11,
                                  RunConfig(b=20.0, n_paths=500, seed=7))
        assert run.exit_tally.get("A=0", 0) >= 0.95 * 500

    def test_terminal_state_is_classified_region(self):
        model = exchangeable_mvnormal(3, -0.5, 0.2)
        rule = SumIntersectionRule(2)
        thetas = np.zeros((1, 3))
        res = simulate_batch(model.batch_sampler(thetas), rule, 2.0, 10_000,
                             thetas, np.zeros(1), batch_rng(3, 0), 50)
        assert not res.truncated.any()
        for state, mask in zip(res.states, res.exit_sets):
            assert rule.first_hit(state[None], 2.0)[1] == rule.region(mask)


class TestChunks:
    @pytest.mark.parametrize("config", ORACLE_CONFIGS)
    def test_overdraw_is_bounded_on_the_oracle_problems(self, config):
        # rows drawn (chunk steps times live paths) over the steps the paths
        # use, on the mixture side and the plain side; every chunk is at most
        # max(FIRST_CHUNK, steps walked), so short walks are not overdrawn
        cfg = load_config(str(CONFIGS / config))
        model = build_model(cfg["model"])
        rule = build_rule(cfg["problem"])
        mix, _ = build_proposal(model, rule, cfg["proposal"])
        b = cfg["oracle"]["b"]
        for prop in (mix, plain_proposal(rule, model.dim)):
            ms = default_max_steps(model, prop.thetas, b)
            draw = model.batch_sampler(prop.thetas)
            drawn = used = 0
            for i in range(4):
                chunks = []

                def rec(rng, comp, k):
                    chunks.append((k, comp.size))
                    return draw(rng, comp, k)

                res = simulate_batch(rec, rule, b, ms, prop.thetas,
                                     prop.lambdas, batch_rng(17, i),
                                     batch_paths(model.dim))
                assert not res.truncated.any()
                t = 0
                for k, live in chunks:
                    assert k <= max(FIRST_CHUNK, t), (t, k)
                    drawn += k * live
                    t += k
                used += int(res.steps.sum())
            assert drawn / used <= 1.75, (config, prop.variant, drawn / used)


def _recurrence_case(family, kind, d):
    """(model, rule, b, thetas, lambdas) for one pin case: drifts that make
    the rule stop within tens of steps, and a few random tilts in the
    model's domain so that the live paths carry different components."""
    gen = np.random.default_rng(d)
    if kind == "siegmund":
        rule, b = SiegmundRule(1.0, 1.5), 3.0
        mean = np.full(d, -0.3)
    elif kind == "gap":
        rule, b = GapRule(2), 4.0
        mean = np.where(np.arange(d) < 2, 0.2, -0.2)
    else:
        rule, b = SumIntersectionRule(2), 6.0
        mean = np.where(np.arange(d) % 2 == 0, 0.4, -0.4)
    if family == "mvnormal":
        cov = 0.5 * np.eye(d) + 0.5
        model = MvNormalModel(mean, cov)
        thetas = 0.2 * gen.standard_normal((5, d))
    else:
        # shifted exponentials with mean m on even coordinates, normals on
        # odd ones
        model = IndependentModel([
            ShiftedExponential(2.0, m - 0.5) if k % 2 == 0 else
            Normal(m, 1.0) for k, m in enumerate(mean)])
        thetas = gen.uniform(-0.3, 0.3, (5, d))
    return model, rule, b, thetas, model.cgf_rows(thetas)


class TestBatchPaths:
    @pytest.mark.parametrize("d", [8, 10, 20, 50, 400])
    def test_high_dimensions_keep_the_base_batch(self, d):
        assert batch_paths(d) == BATCH

    @pytest.mark.parametrize("d", range(1, 8))
    def test_first_chunk_of_a_full_batch_fills_one_block(self, d):
        # one more path would overflow the block
        first = batch_paths(d) * FIRST_CHUNK * d
        assert CHUNK_VALUES - FIRST_CHUNK * d < first <= CHUNK_VALUES

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8, 20])
    def test_blocks_stay_within_their_bound(self, d):
        model, rule, b, thetas, lambdas = _recurrence_case("mvnormal",
                                                           "siegmund", d)
        calls = []
        res = simulate_batch(recording_draw(model, thetas, calls), rule, b,
                             10_000, thetas, lambdas, batch_rng(5, 0),
                             batch_paths(d))
        assert not res.truncated.any()
        for comp, block in calls:
            assert block.size <= max(CHUNK_VALUES, comp.size * d)
        if d < 8:
            assert calls[0][1].size > CHUNK_VALUES - FIRST_CHUNK * d

    def test_worker_count_invariance_with_a_ragged_batch(self, monkeypatch):
        # three batches at d = 2, the last one 37 paths; two workers split
        # them one and two
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        model = siegmund_d2()
        prop, _ = build_siegmund("theta1", model, 1.0, 1.0)
        n_paths = 2 * batch_paths(2) + 37
        runs = [estimate_wrong_exit(model, prop, RULE11,
                                    RunConfig(b=3.0, n_paths=n_paths,
                                              seed=8, workers=w))
                for w in (1, 2, 3)]
        one, two, three = (r.to_json_dict() for r in runs)
        assert one == two == three and one["n"] == n_paths


class TestRowRecurrence:
    @pytest.mark.parametrize("n, cap", [(BATCH, 10_000), (37, 10_000),
                                        (BATCH, 20)])
    @pytest.mark.parametrize("kind", ["siegmund", "gap", "sum_intersection"])
    @pytest.mark.parametrize("family, d", [("mvnormal", 5),
                                           ("independent", 6),
                                           ("mvnormal", 100)])
    def test_matches_cumsum_loop_bit_for_bit(self, family, d, kind, n, cap):
        # at d=100 a chunk of 256 live paths is one step, so the recurrence
        # adds no rows; a cap of 20 steps truncates paths mid-run, in the
        # third chunk at d <= 6
        model, rule, b, thetas, lambdas = _recurrence_case(family, kind, d)
        draw = model.batch_sampler(thetas)
        chunks = []

        def rec(rng, comp, k):
            chunks.append((k, comp.size))
            return draw(rng, comp, k)

        for i in range(2):
            got = simulate_batch(rec, rule, b, cap, thetas, lambdas,
                                 batch_rng(5, i), n)
            want = cumsum_chunk_reference(draw, rule, b, cap, thetas,
                                          lambdas, batch_rng(5, i), n)
            for name, a, e in zip(got._fields, got, want):
                assert a.dtype == e.dtype and a.shape == e.shape, name
                assert a.tobytes() == e.tobytes(), (name, i)
        assert got.truncated.any() == (cap == 20)
        assert (~got.truncated).any()
        assert all(k * live * d <= max(CHUNK_VALUES, live * d)
                   for k, live in chunks)


def tally_case(kind, d):
    """A plain-proposal case of each rule whose tight cap truncates some
    paths: (model, rule, b, cap, proposal)."""
    if kind == "siegmund":
        rule, b, cap = SiegmundRule(1.0, 1.0), 1.0, 8
        mean = np.full(d, -0.2)
    elif kind == "gap":
        m = 1 if d == 3 else 3
        rule, b, cap = GapRule(m), 1.0, 4
        mean = np.where(np.arange(d) < m, 0.3, -0.3)
    else:
        # the two smallest of d |coordinates| pass b later as d grows,
        # so the cap grows with d: 14%, 53% and 64% of the paths
        # truncate at d = 3, 10 and 20 (three seeds, each within 3
        # points) and the rest stop, so both counts run to tens or
        # hundreds and neither is zero on any stream
        rule, b = SumIntersectionRule(2), 1.5
        cap = {3: 4, 10: 8, 20: 16}[d]
        mean = np.full(d, 0.1)
    model = MvNormalModel(mean, np.eye(d))
    return model, rule, b, cap, plain_proposal(rule, d)


class TestPackedTally:
    @pytest.mark.parametrize("d", [3, 10, 20])
    @pytest.mark.parametrize("kind", ["siegmund", "gap", "sum_intersection"])
    def test_tally_matches_per_path_decode(self, kind, d):
        # masks of 3, 10 and 20 coordinates span one to three bytes; the
        # tight cap truncates some paths, which the tally leaves out
        model, rule, b, cap, prop = tally_case(kind, d)
        n_paths, seed = 2 * BATCH + 40, 6
        run = estimate_wrong_exit(model, prop, rule,
                                  RunConfig(b=b, n_paths=n_paths, seed=seed,
                                            max_steps=cap))
        draw = model.batch_sampler(prop.thetas)
        expect, truncated = Counter(), 0
        size = batch_paths(d)
        for i in range(-(-n_paths // size)):
            res = simulate_batch(draw, rule, b, cap, prop.thetas,
                                 prop.lambdas, batch_rng(seed, i),
                                 min(size, n_paths - i * size))
            truncated += int(res.truncated.sum())
            expect.update(rule.region(mask).key for mask, t in
                          zip(res.exit_sets, res.truncated) if not t)
        assert run.exit_tally == dict(expect)
        assert run.truncation_count == truncated > 0
        assert sum(run.exit_tally.values()) == n_paths - truncated
        assert len(run.exit_tally) >= 2
        if kind == "gap":
            # the gap rule's reference set {0..m-1} is not empty
            assert "reference" in run.exit_tally

    @pytest.mark.parametrize("d", [3, 10])
    @pytest.mark.parametrize("kind", ["siegmund", "gap", "sum_intersection"])
    def test_counted_reference_matches_packing_every_mask(self, kind, d):
        """``_tally`` counts the reference exits under the reference mask's
        packed bytes; packing every exit's mask gives the same tally, on
        batches with reference, rare and truncated paths, in one and two
        bytes of mask."""
        model, rule, b, cap, prop = tally_case(kind, d)
        if kind == "sum_intersection":
            # one coordinate drifts up and the rest down, so that many
            # paths stop with fewer than L = 2 positive coordinates
            model = MvNormalModel(np.where(np.arange(d) < 1, 0.3, -0.3),
                                  np.eye(d))
        draw, size = model.batch_sampler(prop.thetas), batch_paths(d)
        # the last batch truncates every path, so it adds no key at all
        results = [simulate_batch(draw, rule, scale * b, steps, prop.thetas,
                                  prop.lambdas, batch_rng(7, i), n)
                   for i, (n, scale, steps) in enumerate(
                       [(size, 1, cap), (size, 1, cap), (40, 1, cap),
                        (40, 100, 1)])]
        assert results[-1].truncated.all()
        values, tally, truncated = _tally(iter(results), rule, d)
        every = Counter()
        for res in results:
            packed = np.packbits(res.exit_sets[~res.truncated], axis=1)
            every.update(packed.view(f"V{packed.shape[1]}").ravel().tolist())
            assert np.array_equal(res.rare, rule.rare_mask(res.exit_sets)
                                  & ~res.truncated)
        assert dict(tally) == dict(every)
        assert truncated == sum(int(r.truncated.sum()) for r in results) > 0
        assert values.tobytes() == np.concatenate(
            [r.values for r in results]).tobytes()
        ref = tally[np.packbits(rule._reference_set(d)).tobytes()]
        assert 0 < ref < sum(tally.values())


class TestEstimator:
    def test_plain_equals_theta_zero_mixture(self):
        model = siegmund_d2()
        cfg = RunConfig(b=4.0, n_paths=5000, seed=21)
        zero = MixtureProposal(np.zeros((1, 2)), np.zeros(1), ["plain[0]"],
                               {"kind": "siegmund"}, "plain")
        a = estimate_wrong_exit(model, zero, RULE11, cfg)
        b = plain_mc(model, RULE11, cfg)
        assert a.mean == b.mean
        assert a.second_moment == b.second_moment
        assert a.exit_tally == b.exit_tally

    def test_one_path_has_infinite_errors(self):
        # one value has no sample variance: both errors are inf, whether
        # the path exits wrongly (mean > 0) or not (mean 0)
        model = siegmund_d2()
        prop, _ = build_siegmund("theta1", model, 1.0, 1.0)
        means = []
        for seed in range(4):
            run = estimate_wrong_exit(model, prop, RULE11,
                                      RunConfig(b=2.0, n_paths=1, seed=seed))
            assert run.n == 1
            assert run.std_error == run.relative_error == math.inf
            means.append(run.mean)
        assert min(means) == 0.0 < max(means)

    def test_mixture_of_one_equivalence(self):
        # the batch core agrees path by path with a one-step-at-a-time
        # reference walking the same increments, for a one-component
        # mixture and a three-component one whose third tilt has
        # Lambda < 0, so the weights depend on the steps; the tight cap
        # makes some paths truncate
        model = siegmund_d2()
        prop, _ = build_siegmund("theta1", model, 1.0, 1.0)
        thetas = np.vstack([prop.thetas, [0.5, 0.5]])
        three = MixtureProposal(thetas, [model.cgf(t) for t in thetas],
                                ["e0", "e1", "mid"], prop.problem, "three")
        assert three.lambdas[2] < 0
        b, cap = 4.0, 12
        for mix in (single_component(prop), three):
            calls = []
            draw = recording_draw(model, mix.thetas, calls)
            res = simulate_batch(draw, RULE11, b, cap, mix.thetas,
                                 mix.lambdas, batch_rng(5, 0), BATCH)
            values, steps, regions = per_path_reference(
                calls, RULE11, b, mix.thetas, mix.lambdas)
            np.testing.assert_allclose(res.values, values, rtol=1e-12,
                                       atol=0.0)
            np.testing.assert_array_equal(res.steps, steps)
            assert [None if t else RULE11.region(m) for m, t in
                    zip(res.exit_sets, res.truncated)] == regions
            assert res.truncated.any() and (values > 0).any()
            assert any(r is not None and not r.rare for r in regions)
            # the estimator is the mean over batches of the same core
            run = estimate_wrong_exit(model, mix, RULE11,
                                      RunConfig(b=b, n_paths=BATCH, seed=5,
                                                max_steps=cap))
            assert run.mean == np.mean(res.values)
            assert run.truncation_count == int(res.truncated.sum())

    def test_worker_count_invariance(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        model = exchangeable_mvnormal(3, -0.5, 0.2)
        prop, _ = build_siegmund("theta1", model, 1.0, 1.0)
        runs = [
            estimate_wrong_exit(model, prop, RULE11,
                                RunConfig(b=4.0, n_paths=3000, seed=9,
                                          workers=w))
            for w in (1, 2, 3)
        ]
        for r in runs[1:]:
            assert r.mean == runs[0].mean
            assert r.second_moment == runs[0].second_moment
            assert r.exit_tally == runs[0].exit_tally

    def test_fewer_batches_than_workers(self, monkeypatch):
        # one batch and three workers: two workers get no batch
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        model = siegmund_d2()
        prop, _ = build_siegmund("theta1", model, 1.0, 1.0)
        n_paths = batch_paths(2) // 2
        runs = [estimate_wrong_exit(model, prop, RULE11,
                                    RunConfig(b=3.0, n_paths=n_paths,
                                              seed=4, workers=w))
                for w in (1, 3)]
        one, three = (r.to_json_dict() for r in runs)
        assert one == three and one["n"] == n_paths

    def test_chunk_reordering_stability(self):
        # pairwise summation keeps the moments stable to 1e-12 under
        # reordering of equal-sized chunks
        rng = np.random.default_rng(0)
        vals = np.exp(rng.uniform(-25, 0, size=40_000))
        chunks = vals.reshape(8, -1)
        perm = rng.permutation(8)
        m1 = float(np.mean(np.concatenate([c for c in chunks])))
        m2 = float(np.mean(np.concatenate([chunks[i] for i in perm])))
        assert m2 == pytest.approx(m1, rel=1e-12)

    def test_zero_on_reference_positive_on_rare(self):
        model = siegmund_d2()
        prop, _ = build_siegmund("theta0", model, 1.0, 1.0)
        ms = default_max_steps(model, prop.thetas, 3.0)
        res = simulate_batch(model.batch_sampler(prop.thetas), RULE11, 3.0,
                             ms, prop.thetas, prop.lambdas, batch_rng(2, 0),
                             300)
        rare = RULE11.rare_mask(res.exit_sets)
        assert rare.any() and not rare.all()
        assert (res.values[rare] > 0).all()
        assert (res.values[~rare] == 0.0).all()

    def test_tally_conservation(self):
        model = siegmund_d2()
        cfg = RunConfig(b=2.0, n_paths=4000, seed=31, max_steps=25)
        run = plain_mc(model, RULE11, cfg)
        assert sum(run.exit_tally.values()) == run.n - run.truncation_count
        assert run.truncation_count > 0  # tight cap must truncate some

    def test_unbiasedness_against_plain_mc(self):
        cases = []
        model = siegmund_d2()
        prop, _ = build_siegmund("theta1", model, 1.0, 1.0)
        cases.append((model, prop, RULE11, 4.0))
        gmodel = MvNormalModel(np.array([0.5, 0.5, -0.5, -0.5]), np.eye(4))
        gprop, _ = build_gap("t0", gmodel, 2)
        cases.append((gmodel, gprop, GapRule(2), 4.0))
        simodel = exchangeable_mvnormal(3, -0.5, 0.0)
        siprop, _ = build_sum_intersection(simodel, 2)
        cases.append((simodel, siprop, SumIntersectionRule(2), 4.0))
        for model, prop, rule, b in cases:
            mix = estimate_wrong_exit(model, prop, rule,
                                      RunConfig(b=b, n_paths=20_000, seed=41))
            plain = plain_mc(model, rule,
                             RunConfig(b=b, n_paths=200_000, seed=42))
            z = (mix.mean - plain.mean) / math.hypot(mix.std_error,
                                                     plain.std_error)
            assert abs(z) <= 3.0, (rule.kind, mix.mean, plain.mean, z)

    def test_relative_error_definition(self):
        model = siegmund_d2()
        prop, _ = build_siegmund("theta0", model, 1.0, 1.0)
        run = estimate_wrong_exit(model, prop, RULE11,
                                  RunConfig(b=4.0, n_paths=5000, seed=8))
        assert run.relative_error == pytest.approx(
            run.std_error / run.mean, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = siegmund_d2()
        prop = MixtureProposal(np.zeros((1, 3)), np.zeros(1), ["x"],
                               {"kind": "siegmund"})
        with pytest.raises(ValueError):
            estimate_wrong_exit(model, prop, RULE11,
                                RunConfig(b=1.0, n_paths=10, seed=0))


def oracle_case(config):
    """(model, rule, mixture proposal, oracle b) of a shipped oracle."""
    cfg = load_config(str(CONFIGS / config))
    model = build_model(cfg["model"])
    rule = build_rule(cfg["problem"])
    return model, rule, build_proposal(model, rule, cfg["proposal"])[0], \
        cfg["oracle"]["b"]


class TestReusedObjects:
    """A run's outputs follow from its model, proposal, rule and config
    alone: the plain weight written as 1 is the formula's value, and a
    model, proposal or rule reused across runs, across each other and in
    worker processes gives what freshly built ones give."""

    @pytest.mark.parametrize("config", ORACLE_CONFIGS)
    def test_plain_weight_is_the_formula_value(self, config):
        # a small b makes plain wrong exits common, and the cap of 6
        # steps truncates some paths; a one-component proposal with a
        # nonzero tilt must still go through the formula
        model, rule, mix, _ = oracle_case(config)
        b, cap = 1.5, 6
        one = single_component(mix)
        assert one.thetas.any()
        for prop in (plain_proposal(rule, model.dim), one):
            res = simulate_batch(model.batch_sampler(prop.thetas), rule, b,
                                 cap, prop.thetas, prop.lambdas,
                                 batch_rng(3, 0), batch_paths(model.dim))
            wrong = np.flatnonzero(res.rare)
            reference = ~res.rare & ~res.truncated
            assert wrong.size and res.truncated.any() and reference.any()
            logw = (res.states[wrong] @ prop.thetas.T
                    - res.steps[wrong, None] * prop.lambdas)
            expect = _mixture_estimate(len(prop), logw)
            assert res.values[wrong].tobytes() == expect.tobytes()
            assert (res.values[~res.rare] == 0.0).all()
            if prop is one:
                assert (expect != 1.0).any()
            else:
                assert (expect == 1.0).all()

    def test_one_proposal_under_two_models(self):
        # the models differ only in mean; model A's step cap (50 b / 1.0)
        # would truncate many of model B's slow paths, so a drift scale
        # kept from the wrong model would show in the outputs
        rule = SiegmundRule(1.0, 1.0)
        models = [IndependentModel([Normal(m, 1.0)] * 2)
                  for m in (-1.0, -0.01)]
        prop = plain_proposal(rule, 2)
        cfg = RunConfig(b=10.0, n_paths=300, seed=4)
        runs = []
        for model in models + models:
            got = [estimate_wrong_exit(model, prop, rule, cfg),
                   plain_mc(model, rule, cfg)]
            fresh_rule = SiegmundRule(1.0, 1.0)
            fresh = estimate_wrong_exit(
                IndependentModel(model.components),
                plain_proposal(fresh_rule, 2), fresh_rule, cfg)
            for run in got:
                assert run.to_json_dict() == fresh.to_json_dict()
            runs.append(fresh)
        assert runs[0].truncation_count == runs[1].truncation_count == 0
        short = RunConfig(b=10.0, n_paths=300, seed=4,
                          max_steps=default_max_steps(models[0],
                                                      prop.thetas, 10.0))
        assert estimate_wrong_exit(models[1], prop, rule,
                                   short).truncation_count > 0

    @pytest.mark.parametrize("model", [
        exchangeable_mvnormal(3, -0.5, 0.3),
        IndependentModel([Normal(-0.5, 1.0),
                          ShiftedExponential(2.0, -math.log(2.0)),
                          Normal(-0.4, 0.8)]),
    ])
    def test_one_model_under_two_proposals(self, model):
        rule = SiegmundRule(1.0, 1.0)
        props = [build_siegmund(v, model, 1.0, 1.0)[0]
                 for v in ("theta0", "theta1")]
        cfg = RunConfig(b=3.0, n_paths=400, seed=12)
        for prop in props + props:
            got = estimate_wrong_exit(model, prop, rule, cfg)
            fresh_model = (MvNormalModel(model.mean, model.cov)
                           if isinstance(model, MvNormalModel)
                           else IndependentModel(model.components))
            fresh = estimate_wrong_exit(
                fresh_model, MixtureProposal.from_manifest(
                    prop.to_manifest()), SiegmundRule(1.0, 1.0), cfg)
            assert got.to_json_dict() == fresh.to_json_dict()

    def test_objects_run_in_process_then_in_workers(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        model, rule, mix, b = oracle_case("oracle_gap_d4.json")
        runs = []
        for workers in (1, 3):
            cfg = RunConfig(b=b, n_paths=3000, seed=8, workers=workers)
            runs.append([estimate_wrong_exit(model, mix, rule, cfg),
                         plain_mc(model, rule, cfg)])
        for one, three in zip(*runs):
            assert one.to_json_dict() == three.to_json_dict()
            assert one.n == 3000 and one.exit_tally

    @pytest.mark.parametrize("rule", [SiegmundRule(1.0, 2.0), GapRule(2),
                                      SumIntersectionRule(2)])
    def test_decode_tally_decodes_every_mask(self, rule):
        # one rule at d = 3, 10, 4 and 3 again (one, two, one and one
        # packed byte): every mask, then at d = 10 random masks in random
        # order, the empty and the full mask among them
        rng = np.random.default_rng(17)
        cases = [(d, (np.arange(2 ** d)[:, None] >> np.arange(d)) & 1 == 1)
                 for d in (3, 10, 4, 3)]
        some = rng.random((300, 10)) < rng.random((300, 1))
        some = np.unique(np.vstack([some, np.eye(2, 10) < 0, np.ones(
            (1, 10), dtype=bool)]), axis=0)
        cases.append((10, rng.permutation(some)))
        for d, masks in cases:
            packed = np.packbits(masks, axis=1)
            tally = Counter({row.tobytes(): i + 1
                             for i, row in enumerate(packed)})
            expect = {region_key(bool(rule.rare_mask(m[None])[0]),
                                 np.flatnonzero(m).tolist()): i + 1
                      for i, m in enumerate(masks)}
            assert len(expect) == len(masks)
            assert dict(_decode_tally(tally, rule, d)) == expect


class TestNumerics:
    def test_log_space_safety(self):
        # |theta . S_T| up to 1e4 never raises; the astronomically large
        # realization degrades to inf, the tiny one underflows to 0
        logw = np.array([[-1.0e4, -9.9e3, -1.01e4],
                         [9.9e3, 1.0e4, 9.95e3],
                         [0.0, 0.0, 0.0],
                         [-600.0, -580.0, -590.0],
                         [-708.0, -800.0, -900.0]])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            est = _mixture_estimate(3, logw)
        assert est[0] == math.inf
        assert est[1] == 0.0
        assert est[2] == pytest.approx(1.0, rel=1e-15)
        assert math.isfinite(est[3]) and est[3] > 0
        # log 3 + 708 >= 709: the log estimate reads inf
        assert est[4] == math.inf

    def test_default_max_steps_scales_with_b(self):
        model = siegmund_d2()
        thetas = np.zeros((1, 2))
        assert default_max_steps(model, thetas, 10.0) == \
            pytest.approx(50 * 10 / 0.5, abs=1)
        assert default_max_steps(model, thetas, 20.0) >= \
            default_max_steps(model, thetas, 10.0)

    @pytest.mark.parametrize("model, build", [
        (exchangeable_mvnormal(6, -0.5, 0.3),
         lambda m: build_siegmund("theta2", m, 1.0, 2.0)),
        (IndependentModel([Normal(-0.5, 1.0), Normal(-0.3, 2.0),
                           Normal(-0.8, 0.5)]),
         lambda m: build_siegmund("theta1", m, 1.0, 1.0)),
        (IndependentModel([ShiftedExponential(1.0, -1.5)] * 3
                          + [ShiftedExponential(2.0, -1.0)] * 2),
         lambda m: build_sum_intersection(m, 2)),
    ])
    def test_default_max_steps_matches_per_row_reference(self, model, build):
        thetas = build(model)[0].thetas

        def reference(b):
            worst = math.inf
            for th in thetas:
                worst = min(worst, float(np.min(np.abs(
                    model.cgf_grad_rows([th])))))
            return max(64, int(math.ceil(50.0 * b / max(worst, 1e-3))))

        for b in (0.5, 3.0, 7.5, 12.0, 40.0):
            assert default_max_steps(model, thetas, b) == reference(b)


class TestDecayScan:
    def test_single_point_grid(self):
        model = siegmund_d2()
        prop, _ = build_siegmund("theta0", model, 1.0, 1.0)
        rows = decay_scan(model, prop, RULE11, [3.0], 500, 3)
        assert len(rows) == 1
        assert rows[0]["p_hat"] > 0

    def test_grid_must_ascend(self):
        model = siegmund_d2()
        prop, _ = build_siegmund("theta0", model, 1.0, 1.0)
        with pytest.raises(ValueError):
            decay_scan(model, prop, RULE11, [3.0, 2.0], 100, 0)

    def test_exponential_decay_visible(self):
        model = siegmund_d2()
        prop, _ = build_siegmund("theta0", model, 1.0, 1.0)
        rows = decay_scan(model, prop, RULE11, [3.0, 5.0, 7.0], 4000, 13)
        logs = [-math.log(r["p_hat"]) for r in rows]
        assert logs[0] < logs[1] < logs[2]


def si_two_groups():
    """SI d=3, rho=0.1, L=2: three beta and three si_z tilts, all distinct."""
    model = exchangeable_mvnormal(3, -0.5, 0.1)
    return model, build_sum_intersection(model, 2)[0], SumIntersectionRule(2)


def theta2_two_groups():
    """Siegmund theta2 d=3: three beta and three gamma_pair tilts."""
    model = exchangeable_mvnormal(3, -0.5, 0.2)
    return (model, build_siegmund("theta2", model, 1.0, 1.0)[0],
            SiegmundRule(1.0, 1.0))


def batchwise(model, prop, rule, cfg, weights=None, first=0):
    """Values and exit tally of batches first.. of the run ``cfg``, each
    drawn by ``simulate_batch`` with ``weights``: the engine's uniform path
    when ``weights`` is None."""
    ms = cfg.max_steps or default_max_steps(model, prop.thetas, cfg.b)
    draw = model.batch_sampler(prop.thetas)
    size = batch_paths(model.dim)
    values, tally = [], Counter()
    for i in range(first, -(-cfg.n_paths // size)):
        res = simulate_batch(draw, rule, cfg.b, ms, prop.thetas,
                             prop.lambdas, batch_rng(cfg.seed, i),
                             min(size, cfg.n_paths - i * size), weights)
        values.append(res.values)
        tally.update(rule.region(mask).key for mask, t in
                     zip(res.exit_sets, res.truncated) if not t)
    return np.concatenate(values), dict(tally)


def pilot_objective(model, prop, rule, cfg, shares):
    """sum_i Z_uniform,i Z_s,i over the pilot's wrong exits at each share,
    from scipy's logsumexp over the weights ``share_weights(s)``."""
    ms = default_max_steps(model, prop.thetas, cfg.b)
    res = simulate_batch(model.batch_sampler(prop.thetas), rule, cfg.b, ms,
                         prop.thetas, prop.lambdas, batch_rng(cfg.seed, 0),
                         batch_paths(model.dim))
    rare = rule.rare_mask(res.exit_sets) & ~res.truncated
    logw = (res.states[rare] @ prop.thetas.T
            - res.steps[rare, None] * prop.lambdas)
    return np.array([np.sum(res.values[rare] * np.exp(-logsumexp(
        logw + np.log(prop.share_weights(s)), axis=1))) for s in shares])


class TestWeightedMixtures:
    def test_groups_and_share_weights(self):
        _, prop, _ = si_two_groups()
        beta, aux = prop.groups
        assert beta.tolist() == [True] * 3 + [False] * 3
        assert (aux == ~beta).all()
        w = prop.share_weights(0.9)
        np.testing.assert_allclose(w, [0.3] * 3 + [0.1 / 3] * 3, rtol=1e-15)
        # a component merged across the groups gets the sum of its weights
        merged = MixtureProposal(np.array([[0.1, 0.0], [0.1, 0.0],
                                           [0.0, 0.1]]), np.zeros(3),
                                 ["beta[{0}]", "gamma[0]", "gamma[1]"],
                                 {"kind": "siegmund"})
        beta, aux = merged.groups
        assert beta.tolist() == [True, False] and aux.tolist() == [True, True]
        np.testing.assert_allclose(merged.share_weights(0.8), [0.9, 0.1])

    @pytest.mark.parametrize("problem, b", [(si_two_groups, 4.5),
                                            (theta2_two_groups, 4.0)])
    def test_unbiased_against_plain_mc(self, problem, b):
        # fixed shares from MixtureProposal weights and the pilot-tuned run,
        # each within 3 SE of 1e6-path plain Monte Carlo
        model, prop, rule = problem()
        plain = plain_mc(model, rule,
                         RunConfig(b=b, n_paths=1_000_000, seed=43))
        assert 1e-3 <= plain.mean <= 2e-2 and plain.truncation_count == 0
        cfg = RunConfig(b=b, n_paths=10_000, seed=44)
        estimates = []
        for s in (0.05, 0.5, 0.95):
            values, _ = batchwise(model, prop, rule, cfg,
                                  prop.share_weights(s))
            estimates.append((s, values.mean(),
                              values.std(ddof=1) / math.sqrt(values.size)))
        run = estimate_wrong_exit(model, prop, rule, cfg)
        assert run.weighting == PILOT and run.truncation_count == 0
        estimates.append((run.candidate_share, run.mean, run.std_error))
        for s, mean, se in estimates:
            z = (mean - plain.mean) / math.hypot(se, plain.std_error)
            assert abs(z) <= 3.0, (rule.kind, s, mean, plain.mean, z)

    def test_worker_count_byte_identity_when_tuned(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        model, prop, rule = si_two_groups()
        runs = [estimate_wrong_exit(model, prop, rule,
                                    RunConfig(b=4.0, n_paths=4 * batch_paths(3)
                                              + 37, seed=10, workers=w))
                for w in (1, 3)]
        one, three = runs
        assert one.weighting == PILOT
        assert one.mean == three.mean
        assert one.exit_tally == three.exit_tally
        assert one.candidate_share == three.candidate_share
        assert one.to_json_dict() == three.to_json_dict()

    @pytest.mark.parametrize("case", ["beta only", "all merged", "one batch",
                                      "pilot saw no wrong exit"])
    def test_skip_cases_keep_the_uniform_path(self, case):
        size = batch_paths(3)
        if case == "beta only":
            model = exchangeable_mvnormal(3, -0.5, 0.2)
            prop = build_siegmund("theta0", model, 1.0, 1.0)[0]
            rule, cfg, reason = RULE11, RunConfig(4.0, 3 * size, 5), ONE_GROUP
        elif case == "all merged":
            # at rho = 0 every beta tilt equals its si_z tilt
            model = exchangeable_mvnormal(3, -0.5, 0.0)
            prop = build_sum_intersection(model, 2)[0]
            rule, reason = SumIntersectionRule(2), ONE_GROUP
            cfg = RunConfig(4.0, 3 * size, 5)
        elif case == "one batch":
            model, prop, rule = si_two_groups()
            cfg, reason = RunConfig(4.0, size, 5), ONE_BATCH
        else:
            # a rare wrong exit: batch 0 sees none, later batches see some
            model = siegmund_d2()
            th = np.array([[0.0, 0.0], [0.2, 0.2]])
            prop = MixtureProposal(th, model.cgf_rows(th),
                                   ["beta[{0}]", "drift"],
                                   {"kind": "siegmund"})
            rule, reason = RULE11, NO_WRONG_EXIT
            cfg = RunConfig(11.0, 8 * batch_paths(2), 0)
        beta, aux = prop.groups
        run = estimate_wrong_exit(model, prop, rule, cfg)
        values, tally = batchwise(model, prop, rule, cfg)
        assert run.weighting == reason
        assert run.candidate_share == beta.sum() / (beta.sum() + aux.sum())
        assert run.mean == np.mean(values)
        assert run.second_moment == np.mean(values ** 2)
        assert run.exit_tally == tally
        if case == "pilot saw no wrong exit":
            assert 0 < run.mean and sum(run.exit_tally.values()) == cfg.n_paths
            assert len(run.exit_tally) > 1

    def test_pilot_share_is_the_grid_minimum(self):
        # the engine's share minimises the pilot objective over a grid, and
        # the run is the pilot batch plus batches drawn at that share
        model, prop, rule = si_two_groups()
        cfg = RunConfig(b=4.0, n_paths=3 * batch_paths(3), seed=12)
        run = estimate_wrong_exit(model, prop, rule, cfg)
        assert run.weighting == PILOT
        grid = np.linspace(*SHARE_RANGE, 451)
        best = grid[np.argmin(pilot_objective(model, prop, rule, cfg, grid))]
        assert abs(run.candidate_share - best) <= SHARE_TOL + 2e-3
        pilot, _ = batchwise(model, prop, rule,
                             RunConfig(cfg.b, batch_paths(3), cfg.seed))
        rest, _ = batchwise(model, prop, rule, cfg,
                            prop.share_weights(run.candidate_share), first=1)
        values = np.concatenate([pilot, rest])
        assert run.mean == np.mean(values)
        assert run.second_moment == np.mean(values ** 2)

    @pytest.mark.parametrize("seed", range(3))
    def test_interior_minimum_matches_a_grid(self, seed):
        # random log weights whose optimum may lie inside the range or at
        # either end, with a uniform share outside [0.05, 0.95]
        rng = np.random.default_rng(seed)
        beta = np.array([True] + [False] * 24)
        aux = ~beta
        logw = rng.normal(scale=2.0, size=(300, 25))
        logw[:, 0] += rng.normal(scale=3.0) - 3.0 * seed
        share = pilot_share(logw, beta, aux)
        lo, hi = min(SHARE_RANGE[0], 1 / 25), SHARE_RANGE[1]
        grid = np.linspace(lo, hi, 2_001)
        top = logw.max(axis=1, keepdims=True)
        w = np.exp(logw - top)
        z_uniform = 25 / w.sum(axis=1)
        z = 1 / (grid[:, None] * w[:, 0] + (1 - grid[:, None])
                 * w[:, 1:].mean(axis=1))
        best = grid[np.argmin((z * z_uniform * np.exp(-2 * top[:, 0])).sum(
            axis=1))]
        assert lo <= share <= hi
        assert abs(share - best) <= SHARE_TOL + (hi - lo) / 2_000

    @pytest.mark.parametrize("K", [2, 3, 90, 2450])
    def test_tuned_draw_is_rng_choice(self, K):
        # the components ``simulate_batch`` draws under weights are those
        # of ``rng.choice(K, size=n, p=weights)``, and the stream is left
        # where ``choice`` leaves it: the next draws are the same
        rng = np.random.default_rng(K)
        thetas = rng.normal(size=(K, 2))
        labels = [f"beta[{j}]" if j < max(1, K // 3) else f"gamma[{j}]"
                  for j in range(K)]
        prop = MixtureProposal(thetas, np.zeros(K), labels,
                               {"kind": "siegmund"})
        assert len(prop) == K
        tilted = rng.random(K) ** 4
        for weights in (tilted / tilted.sum(),
                        prop.share_weights(SHARE_RANGE[0]),
                        prop.share_weights(SHARE_RANGE[1])):
            calls = []

            def draw(r, comp, k):
                calls.append((comp.copy(), r.random(4)))
                return np.full((k, comp.size, 2), 1e9)  # all stop at once

            res = simulate_batch(draw, RULE11, 1.0, 10, prop.thetas,
                                 prop.lambdas, batch_rng(5, 1), 300, weights)
            assert len(calls) == 1 and res.rare.all()
            ref = batch_rng(5, 1)
            want = ref.choice(K, size=300, p=weights)
            assert calls[0][0].dtype == want.dtype
            assert calls[0][0].tolist() == want.tolist()
            assert calls[0][1].tolist() == ref.random(4).tolist()

    def test_si_desk_scan_on_two_workers(self, monkeypatch):
        # the shipped SI desk problem, tuned by its pilot, scans to the
        # same bytes on one worker and on two
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = load_config(str(CONFIGS / "si_desk.json"))
        model = build_model(cfg["model"])
        rule = build_rule(cfg["problem"])
        prop = build_proposal(model, rule, cfg["proposal"])[0]
        scans = [decay_scan(model, prop, rule, [8.0, 11.0],
                            5 * batch_paths(model.dim) + 19, 31, workers=w)
                 for w in (1, 2)]
        assert [r["weighting"] for r in scans[0]] == [PILOT, PILOT]
        assert scans[0] == scans[1]

    def test_scan_rows_carry_second_moment_and_weighting(self):
        model, prop, rule = si_two_groups()
        n = 2 * batch_paths(3)
        rows = decay_scan(model, prop, rule, [3.0, 4.0], n, 7)
        for row in rows:
            run = estimate_wrong_exit(model, prop, rule,
                                      RunConfig(b=row["b"], n_paths=n,
                                                seed=7))
            assert row["second_moment"] == run.second_moment
            assert row["candidate_share"] == run.candidate_share
            assert row["weighting"] == run.weighting == PILOT
