"""Path simulation and the mixture importance-sampling estimator.

One estimator realization: draw a tilt theta_j from the mixture with
probability alpha_j (1 / |Theta| unless tuned, see below), run the walk
S_n = S_{n-1} + X_n with X_n ~ mu_theta until some region classifies, then
(on a wrong exit through a rare region) invert the mixture's likelihood
ratio over *all* components,

    estimate = 1 / sum_j alpha_j exp(theta_j . S_T - T Lambda(theta_j)),

computed in log space.  Reference exits and truncated paths contribute
zero, so the estimate stays unbiased for the wrong-exit probability (up to
truncation, which is counted and must be zero for a clean run).

Paths are simulated in batches of ``batch_paths(d)`` that advance in lockstep:
256 paths, or 2048 // d at d < 8 so that a full first chunk fills one block.
The live paths' ``(B, d)`` states move forward in chunks of k steps, each
chunk one ``(k, B, d)`` block of increments turned into running sums in place
and checked by the rule's vectorised stop test.  The running sums are a row
recurrence, one addition of row j - 1 into row j over the block's row views:
numpy's axis-0 cumsum does the same additions in the same order but runs one
strided loop per (path, coordinate) column, about 10x slower on these
blocks, and indexing each row anew cost a third more than iterating the
block once (9.1 against 6.5 us on 6 x 256 x 10).  A path leaves the batch
at its first stop; the live paths' states and components are carried as
compact arrays.  The rule's stop record (``exits``) names only the paths that
stop in a chunk, with their stop rows, their states there and exit sets, so
only those paths' states, steps and exit sets are written out, and the
record's mask narrows the live set (a truncated path's state is written
once, after the last chunk).  The chunks grow with the steps the batch has
walked (``FIRST_CHUNK``, ``FIRST_CHUNK``, then doubling), so a batch of
short walks draws few rows past its stops.  A block holds at most
``CHUNK_VALUES`` values, or one step of the live paths when that holds more
(at d > 64 a full batch walks one step per chunk).  The weights of a
batch's wrong exits come from vectorised logsumexps over blocks of
``CHUNK_VALUES`` log weights, or of 128 wrong exits when that holds more
(plain Monte Carlo's are 1).  A batch computes its wrong-exit mask once and
hands it on with its outcomes (``BatchResult.rare``), for the weights, the
tally and the pilot.  Exit sets are tallied as packed member masks (bytes)
over the whole run and decoded to their ``A=...``/``reference`` keys once at
the end, every set's members from one ``np.nonzero``.  Every exit that is
not rare has the rule's one reference set, so those exits are counted under
its packed bytes and only the rare exits' masks are packed: under plain Monte
Carlo nearly every path exits through the reference region.

Mixture weights: a proposal with two distinct groups (``beta`` candidate
tilts and auxiliary tilts, ``MixtureProposal.groups``) runs batch 0 as a
pilot under uniform weights, in-process, and its paths count in the
estimate.  The pilot picks the candidate share s that minimises its own
estimate of the second moment under the weights ``share_weights(s)``,

    M2(s) ~ sum_i Z_uniform,i Z_s,i,   Z_s = 1 / sum_j alpha_j(s) w_j,

over its wrong exits (convex in s; He & Owen 2014).  The search runs over
``SHARE_RANGE``, widened to take in the uniform share, so every weight stays
at least min(0.05 / K_g, 1 / |Theta|), K_g its group's size, and the
certificates still hold (defensive mixtures, Owen & Zhou 2000).  Batches
1..n-1 draw components with those weights (``rng.choice``'s arithmetic
without its checks, see ``simulate_batch``) and weight a wrong exit by
1 / sum_j alpha_j w_j.  A proposal with one group (or all of whose
components are in both), a one-batch run and a pilot with no wrong exit
keep the uniform draw and its arithmetic bit for bit; each run records its
share and which case it was in ``weighting``.

Reproducibility: batch i draws from one SFC64 stream seeded by
``SeedSequence([seed, i])``, whose hashing keeps the streams of
neighbouring seeds and batches apart.  The batch size depends on d alone,
not on the worker count, the pilot runs before any batch is handed to a
worker, and workers take whole batches, so results are bit-identical for a
fixed seed no matter how many workers run them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
import math
import os
import sys
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from .models import CgfModel
from .proposals import MixtureProposal, plain_proposal
from .regions import region_key

__all__ = [
    "RunConfig",
    "EstimatorRun",
    "BatchResult",
    "batch_paths",
    "batch_rng",
    "default_max_steps",
    "simulate_batch",
    "estimate_wrong_exit",
    "plain_mc",
    "pilot_share",
    "decay_scan",
]

MIN_DRIFT_SCALE = 1e-3
BATCH = 256  # fewest paths per random stream; see batch_paths
CHUNK_VALUES = 1 << 14  # float64 values per sampled block or weight block
FIRST_CHUNK = 8  # steps of a batch's first chunk; later ones <= steps walked
SHARE_RANGE = (0.05, 0.95)  # candidate shares searched, plus the uniform one
SHARE_TOL = 1e-4  # width of the bisection bracket of the chosen share

# ``weighting`` of a run: tuned by the pilot, or uniform and why
PILOT = "pilot"
ONE_GROUP = "uniform: one group"
ONE_BATCH = "uniform: one batch"
NO_WRONG_EXIT = "uniform: pilot saw no wrong exit"


def _mixture_estimate(n_comp: int, logw: np.ndarray) -> np.ndarray:
    """Row-wise |Theta| / sum_j exp(logw[:, j]) via log |Theta| -
    logsumexp, computed in place in ``logw``.  Stable for log weights
    anywhere in +-1e4: a log estimate >= 709 reads inf and a tiny one
    underflows to 0, rather than raising."""
    top = logw.max(axis=1)
    logw -= top[:, None]
    np.exp(logw, out=logw)
    log_est = math.log(n_comp) - (top + np.log(logw.sum(axis=1)))
    return np.where(log_est >= 709.0, math.inf,
                    np.exp(np.minimum(log_est, 709.0)))


@dataclass
class RunConfig:
    """Parameters of one estimation run at a fixed scale b."""

    b: float
    n_paths: int
    seed: int
    max_steps: Optional[int] = None
    workers: int = 1

    def __post_init__(self):
        if not 0 < self.b < math.inf:
            raise ValueError("b must be positive and finite")
        if self.n_paths <= 0:
            raise ValueError("n_paths must be positive")
        if self.max_steps is not None and self.max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        cpus = 1 if self.workers == 1 else os.cpu_count() or 1
        if self.workers > cpus:
            raise ValueError(
                f"workers={self.workers} exceeds os.cpu_count()={cpus}")


@dataclass
class EstimatorRun:
    """Accumulated estimate with its spread and per-region exit tallies."""

    n: int
    mean: float
    second_moment: float
    std_error: float
    relative_error: float
    exit_tally: Dict[str, int]
    truncation_count: int
    b: float
    seed: int
    candidate_share: float
    weighting: str

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "b": self.b,
            "seed": self.seed,
            "p_hat": self.mean,
            "second_moment": self.second_moment,
            "std_error": self.std_error,
            "relative_error": self.relative_error,
            "exit_tally": dict(sorted(self.exit_tally.items())),
            "truncation_count": self.truncation_count,
            "candidate_share": self.candidate_share,
            "weighting": self.weighting,
        }


def default_max_steps(model: CgfModel, thetas: np.ndarray, b: float) -> int:
    """Step cap: 50 b over the smallest per-coordinate drift magnitude among
    the mixture components; truncation is surfaced, never silent."""
    drift = model.cgf_grad_rows(np.atleast_2d(thetas))
    scale = max(float(np.abs(drift).min()), MIN_DRIFT_SCALE)
    return max(64, int(math.ceil(50.0 * b / scale)))


def batch_paths(d: int) -> int:
    """Paths per batch at dimension d: max(BATCH, 2048 // d), so that a
    full batch's first chunk fills one block.  A function of d alone, so
    results ignore the worker count."""
    return max(BATCH, CHUNK_VALUES // (FIRST_CHUNK * d))


def batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    """The stream of one batch, an SFC64 generator seeded by the hashed
    key (seed, batch_index); never shared across batches."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence([seed, batch_index])))


class BatchResult(NamedTuple):
    """Per-path outcomes of one batch, in path order."""

    values: np.ndarray  # estimator realizations
    states: np.ndarray  # (n, d) states at the stop, or at the cap
    steps: np.ndarray  # steps taken
    exit_sets: np.ndarray  # (n, d) member masks; all False when truncated
    truncated: np.ndarray  # stopped by the step cap
    rare: np.ndarray  # wrong exits: stopped in a rare region


def simulate_batch(draw, rule, b: float, max_steps: int, thetas: np.ndarray,
                   lambdas: np.ndarray, rng: np.random.Generator, n: int,
                   weights: Optional[np.ndarray] = None) -> BatchResult:
    """Run n paths in lockstep, each under a component of ``thetas`` drawn
    uniformly (``weights`` None) or with probabilities ``weights``, until
    each stops or reaches ``max_steps``.  A wrong exit's value is
    1 / sum_j alpha_j w_j, alpha_j = 1/K when uniform.  With one component
    of zero tilt and Lambda (plain Monte Carlo) w_1 = 1, so 1.0 is written.

    ``draw(rng, comp, k)`` returns the next k increments of the paths with
    components ``comp`` as a (k, len(comp), d) block.  After t steps the
    next chunk takes k = min(max(FIRST_CHUNK, t), CHUNK_VALUES // (live
    paths * d)) steps (at least 1, at most the steps left to the cap): the
    chunks run 8, 8, 16, 32, ..., so the rows drawn past the paths' stops
    stay within about the steps they walked, and k grows as paths leave.
    A block holds at most max(CHUNK_VALUES, live paths * d) values.  Its
    running sums are formed in place row by row, the same additions in the
    same order as ``np.cumsum(block, axis=0)``, so the bits are the same.
    The live paths' states ride from chunk to chunk as a compact array,
    which may be a view of the last block row because ``draw`` returns a
    fresh block each call.  Each chunk's stop record ``rule.exits`` lists
    the stopping paths only, with their states already gathered for the
    exit sets and the mask of them; those states are written out as they
    are, ``~stop`` narrows the live set, and a chunk where none stops
    writes nothing.  The gathers are ``take`` calls, several times faster
    than the fancy and boolean indexing of the same rows on these small
    arrays; the scatters write one ``V`` record per row, 1.3-4x faster
    than a row scatter.

    Tuned components are drawn as ``rng.choice(n_comp, size=n,
    p=weights)`` draws them, by a search of one uniform per path in the
    normalised cumulative weights, without its checks of ``weights``: the
    same indices and the same stream state after, in 7 against 17 us for
    256 paths of 90 components.  Wrong exits are weighted in blocks of at
    least 128 rows, so a large mixture runs one GEMM per block, not many
    skinny ones.
    """
    n_comp, d = thetas.shape
    if weights is None:
        comp = rng.integers(n_comp, size=n)
    else:  # ``rng.choice(n_comp, size=n, p=weights)`` without its checks
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        comp = cdf.searchsorted(rng.random(n), side="right")
    states = np.zeros((n, d))
    steps = np.full(n, max_steps)
    exit_sets = np.zeros((n, d), dtype=bool)
    state_rec = states.view(f"V{8 * d}")[:, 0]
    set_rec = exit_sets.view(f"V{d}")[:, 0]
    live = np.arange(n)
    cur = np.zeros((n, d))  # states of the live paths, in ``live`` order
    t = 0
    while live.size and t < max_steps:
        k = min(max_steps - t, max(1, CHUNK_VALUES // (live.size * d)),
                max(FIRST_CHUNK, t))
        block = draw(rng, comp, k)
        walk = iter(block)  # the block's row views, summed in place
        prev = next(walk)
        prev += cur
        for row in walk:
            np.add(prev, row, row)
            prev = row
        stop, cols, rows, at_stop, sets = rule.exits(block, b)
        if cols.size:
            ids = live.take(cols)
            state_rec[ids] = at_stop.view(state_rec.dtype)[:, 0]
            steps[ids] = t + rows + 1
            set_rec[ids] = sets.view(set_rec.dtype)[:, 0]
            kept = np.flatnonzero(~stop)
            live, comp = live.take(kept), comp.take(kept)
            cur = block[k - 1].take(kept, axis=0)
        else:
            cur = block[k - 1]  # a view: ``draw`` returns a fresh block
        t += k
    states[live] = cur
    truncated = np.zeros(n, dtype=bool)
    truncated[live] = True

    values = np.zeros(n)
    wrong = rule.rare_mask(exit_sets) & ~truncated
    if n_comp == 1 and not (thetas.any() or lambdas.any()):
        values[wrong] = 1.0  # plain Monte Carlo: every log weight is 0
        return BatchResult(values, states, steps, exit_sets, truncated, wrong)
    rare = np.flatnonzero(wrong)
    rows = max(128, CHUNK_VALUES // n_comp)  # >= 128 rows: no skinny GEMM
    log_alpha = None if weights is None else np.log(n_comp * weights)
    for lo in range(0, rare.size, rows):
        idx = rare[lo:lo + rows]
        logw = states[idx] @ thetas.T
        logw -= steps[idx, None] * lambdas
        if log_alpha is not None:
            logw += log_alpha
        values[idx] = _mixture_estimate(n_comp, logw)
    return BatchResult(values, states, steps, exit_sets, truncated, wrong)


def pilot_share(logw: np.ndarray, beta: np.ndarray, aux: np.ndarray
                ) -> float:
    """The candidate share s that minimises the pilot's second-moment
    estimate sum_i Z_uniform,i Z_s,i, where row i of ``logw`` holds the log
    weights log w_ij of wrong exit i under every component and ``beta`` and
    ``aux`` are the group masks.  With a_i and c_i the group means of w_ij,
    Z_s,i = 1 / (s a_i + (1 - s) c_i), so the objective is convex in s; its
    derivative is bisected over ``SHARE_RANGE`` widened to the uniform
    share, to within ``SHARE_TOL``."""
    top = logw.max(axis=1, keepdims=True)
    w = np.exp(logw - top)
    a = w @ (beta / beta.sum())
    c = w @ (aux / aux.sum())
    # Z_uniform,i Z_s,i = K exp(-2 top_i) / (sum_j w_ij (s a_i + (1-s) c_i)),
    # scaled by a positive constant, which leaves the minimiser alone
    g = -2.0 * top[:, 0] - np.log(w.sum(axis=1))
    e = np.exp(g - g.max())

    def slope(s):
        return -np.sum(e * (a - c) / (s * a + (1.0 - s) * c) ** 2)

    uniform = beta.sum() / (beta.sum() + aux.sum())
    lo, hi = min(SHARE_RANGE[0], uniform), max(SHARE_RANGE[1], uniform)
    if slope(lo) >= 0.0:
        return float(lo)
    if slope(hi) <= 0.0:
        return float(hi)
    while hi - lo > SHARE_TOL:
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return float(0.5 * (lo + hi))


def _tally(results, rule, d: int):
    """Values, the tally of packed exit-set masks (bytes) and the
    truncation count of an iterable of batch results, read one at a time.

    Every exit that is not rare has the rule's one reference mask, so
    those exits are counted under its packed bytes; only the rare exits'
    masks are packed and counted one by one."""
    values = []
    tally: Counter = Counter()
    truncated = 0
    reference = np.packbits(rule._reference_set(d)).tobytes()
    for res in results:
        values.append(res.values)
        cut = int(res.truncated.sum())
        truncated += cut
        ref = res.values.size - cut - int(res.rare.sum())
        if ref:
            tally[reference] += ref
        packed = np.packbits(res.exit_sets[res.rare], axis=1)
        tally.update(packed.view(f"V{packed.shape[1]}").ravel().tolist())
    return np.concatenate(values), tally, truncated


def _simulate_batches(model, proposal, rule, b, max_steps, seed, n_paths,
                      lo, hi, weights=None):
    """Batches lo..hi-1 of an n_paths run, as ``_tally`` sums them."""
    draw = model.batch_sampler(proposal.thetas)
    size = batch_paths(model.dim)
    return _tally((simulate_batch(draw, rule, b, max_steps, proposal.thetas,
                                  proposal.lambdas, batch_rng(seed, i),
                                  min(size, n_paths - i * size), weights)
                   for i in range(lo, hi)), rule, model.dim)


def _pilot(model, proposal, rule, b, max_steps, seed, n_paths):
    """The weighting of a run: (weights or None, candidate share, the
    ``weighting`` string, the pilot's ``_tally`` or None).  Runs batch 0
    as the pilot when the proposal has two distinct groups and the run
    more than one batch."""
    beta, aux = proposal.groups
    share = float(beta.sum() / (beta.sum() + aux.sum()))
    if not (beta.any() and aux.any()) or (beta & aux).all():
        return None, share, ONE_GROUP, None
    size = batch_paths(model.dim)
    if n_paths <= size:
        return None, share, ONE_BATCH, None
    thetas, lambdas = proposal.thetas, proposal.lambdas
    res = simulate_batch(model.batch_sampler(thetas), rule, b, max_steps,
                         thetas, lambdas, batch_rng(seed, 0), size)
    out = _tally([res], rule, model.dim)
    rare = np.flatnonzero(res.rare)
    if not rare.size:
        return None, share, NO_WRONG_EXIT, out
    logw = res.states[rare] @ thetas.T - res.steps[rare, None] * lambdas
    share = pilot_share(logw, beta, aux)
    return proposal.share_weights(share), share, PILOT, out


def _decode_tally(tally: Counter, rule, d: int) -> Counter:
    """Tally keyed by ``A=...``/``reference`` from one keyed by packed
    exit-set masks, decoding each distinct mask once: one ``np.nonzero``
    over all the masks lists every member, row by row, and each key takes
    its row's slice.  The keys are interned, so tallies kept from many
    runs share their strings."""
    packed = np.frombuffer(b"".join(tally), dtype=np.uint8)
    masks = np.unpackbits(packed.reshape(len(tally), (d + 7) // 8), axis=1,
                          count=d).astype(bool)
    members = np.nonzero(masks)[1].tolist()  # row by row, each ascending
    ends = np.count_nonzero(masks, axis=1).cumsum().tolist()
    out: Counter = Counter()
    start = 0
    for end, rare, c in zip(ends, rule.rare_mask(masks).tolist(),
                            tally.values()):
        out[sys.intern(region_key(rare, members[start:end]))] += c
        start = end
    return out


def estimate_wrong_exit(model: CgfModel, proposal: MixtureProposal, rule,
                        config: RunConfig) -> EstimatorRun:
    """N-path mixture estimate of the wrong-exit probability at scale b."""
    if proposal.dim != model.dim:
        raise ValueError("proposal dimension does not match the model")
    max_steps = config.max_steps
    if max_steps is None:
        max_steps = default_max_steps(model, proposal.thetas, config.b)
    n = config.n_paths
    args = (model, proposal, rule, config.b, max_steps, config.seed, n)
    weights, share, weighting, pilot = _pilot(*args)
    outs = [] if pilot is None else [pilot]
    first = len(outs)
    n_batches = -(-n // batch_paths(model.dim))
    bounds = np.linspace(first, n_batches, config.workers + 1).astype(int)
    ranges = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])
              if lo < hi]
    if len(ranges) == 1:
        outs.append(_simulate_batches(*args, *ranges[0], weights))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
            futures = [pool.submit(_simulate_batches, *args, lo, hi, weights)
                       for lo, hi in ranges]
            outs += [f.result() for f in futures]
    # merge in batch order so the statistics are worker-count invariant
    values = np.concatenate([o[0] for o in outs])
    tally: Counter = Counter()
    for _, t, _ in outs:
        tally.update(t)
    truncated = sum(o[2] for o in outs)
    return _finalize(values, _decode_tally(tally, rule, model.dim),
                     truncated, config, share, weighting)


def _finalize(values, tally, truncated, config, share,
              weighting) -> EstimatorRun:
    n = values.size
    mean = float(np.mean(values))
    second = float(np.mean(values ** 2))
    if n > 1:
        var = max(0.0, (second - mean * mean) * n / (n - 1))
        se = math.sqrt(var / n)
    else:
        se = math.inf
    rel = se / mean if mean > 0 else math.inf
    return EstimatorRun(
        n=n,
        mean=mean,
        second_moment=second,
        std_error=se,
        relative_error=rel,
        exit_tally=dict(sorted(tally.items())),
        truncation_count=truncated,
        b=config.b,
        seed=config.seed,
        candidate_share=share,
        weighting=weighting,
    )


def plain_mc(model: CgfModel, rule, config: RunConfig) -> EstimatorRun:
    """Average of the wrong-exit indicator under the untilted walk: the
    mixture estimator with the single component theta = 0, whose weight
    is 1, so ``simulate_batch`` writes it without a logsumexp."""
    return estimate_wrong_exit(model, plain_proposal(rule, model.dim), rule,
                               config)


def decay_scan(model: CgfModel, proposal: MixtureProposal, rule,
               b_grid: Sequence[float], n_paths: int, seed: int,
               max_steps: Optional[int] = None, workers: int = 1
               ) -> List[dict]:
    """Estimate across an ascending grid of scales; one row per b with the
    quantities used for decay-slope regression against r_*."""
    if list(b_grid) != sorted(b_grid):
        raise ValueError("b grid must be ascending")
    rows = []
    for b in b_grid:
        cfg = RunConfig(b=float(b), n_paths=n_paths, seed=seed,
                        max_steps=max_steps, workers=workers)
        run = estimate_wrong_exit(model, proposal, rule, cfg)
        rows.append({
            "b": float(b),
            "p_hat": run.mean,
            "neg_log10_p": -math.log10(run.mean) if run.mean > 0 else math.inf,
            "rel_err": run.relative_error,
            "std_error": run.std_error,
            "truncation_count": run.truncation_count,
            "exit_tally": run.exit_tally,
            "second_moment": run.second_moment,
            "candidate_share": run.candidate_share,
            "weighting": run.weighting,
        })
    return rows
