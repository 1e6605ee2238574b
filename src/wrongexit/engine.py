"""Path simulation and the mixture importance-sampling estimator.

One estimator realization: draw a tilt theta uniformly from the mixture,
run the walk S_n = S_{n-1} + X_n with X_n ~ mu_theta until some region
classifies, then (on a wrong exit through a rare region) invert the
average likelihood ratio over *all* mixture components,

    estimate = |Theta| / sum_theta exp(theta . S_T - T Lambda(theta)),

computed in log space.  Reference exits and truncated paths contribute
zero, so the estimate stays unbiased for the wrong-exit probability (up to
truncation, which is counted and must be zero for a clean run).

Paths are simulated in batches of ``batch_paths(d)`` that advance in lockstep:
256 paths, or 2048 // d at d < 8 so that a full first chunk fills one block.
The live paths' ``(B, d)`` states move forward in chunks of k steps, each
chunk one ``(k, B, d)`` block of increments turned into running sums in place
and checked by the rule's vectorised stop test.  The running sums are a row
recurrence, one addition of row j - 1 into row j: numpy's axis-0 cumsum does
the same additions in the same order but runs one strided loop per (path,
coordinate) column, about 10x slower on these blocks.  A path leaves the batch
at its first stop; the live paths' states and components are carried as
compact arrays, and a path's stop state is written out only when it stops (a
truncated one's once, after the last chunk).  The chunks grow with the steps
the batch has walked (``FIRST_CHUNK``, ``FIRST_CHUNK``, then doubling), so a
batch of short walks draws few rows past its stops.  A block holds at most
``CHUNK_VALUES`` values, or one step of the live paths when that holds more
(at d > 64 a full batch walks one step per chunk).  The weights of a batch's
wrong exits come from vectorised logsumexps over blocks of at most
``CHUNK_VALUES`` log weights.  Exit sets are tallied as packed member masks
(bytes) over the whole run and decoded to their ``A=...``/``reference`` keys
once at the end, one decode per distinct set.

Reproducibility: batch i draws from one SFC64 stream seeded by
``SeedSequence([seed, i])``, whose hashing keeps the streams of
neighbouring seeds and batches apart.  The batch size depends on d alone,
not on the worker count, and workers take whole batches, so results are
bit-identical for a fixed seed no matter how many workers run them.
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
from .regions import Region

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
    "decay_scan",
]

MIN_DRIFT_SCALE = 1e-3
BATCH = 256  # fewest paths per random stream; see batch_paths
CHUNK_VALUES = 1 << 14  # float64 values per sampled block or weight block
FIRST_CHUNK = 8  # steps of a batch's first chunk; later ones <= steps walked


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
        if self.b <= 0:
            raise ValueError("b must be positive")
        if self.n_paths <= 0:
            raise ValueError("n_paths must be positive")
        if self.max_steps is not None and self.max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        cpus = os.cpu_count() or 1
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


def simulate_batch(draw, rule, b: float, max_steps: int, thetas: np.ndarray,
                   lambdas: np.ndarray, rng: np.random.Generator,
                   n: int) -> BatchResult:
    """Run n paths in lockstep, each under a component drawn uniformly from
    ``thetas``, until each stops or reaches ``max_steps``.

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
    fresh block each call.
    """
    n_comp, d = thetas.shape
    comp = rng.integers(n_comp, size=n)
    states = np.zeros((n, d))
    steps = np.full(n, max_steps)
    exit_sets = np.zeros((n, d), dtype=bool)
    live = np.arange(n)
    cur = np.zeros((n, d))  # states of the live paths, in ``live`` order
    t = 0
    while live.size and t < max_steps:
        k = min(max_steps - t, max(1, CHUNK_VALUES // (live.size * d)),
                max(FIRST_CHUNK, t))
        block = draw(rng, comp, k)
        block[0] += cur
        for j in range(1, k):
            np.add(block[j - 1], block[j], out=block[j])
        first, sets = rule.exits(block, b)
        done = first >= 0
        if done.any():
            cols = np.flatnonzero(done)
            states[live[cols]] = block[first[cols], cols]
            steps[live[cols]] = t + first[cols] + 1
            exit_sets[live[cols]] = sets[cols]
            keep = ~done
            live, comp = live[keep], comp[keep]
            cur = block[k - 1, keep]
        else:
            cur = block[k - 1]  # a view: ``draw`` returns a fresh block
        t += k
    states[live] = cur
    truncated = np.zeros(n, dtype=bool)
    truncated[live] = True

    values = np.zeros(n)
    rare = np.flatnonzero(rule.rare_mask(exit_sets) & ~truncated)
    rows = max(1, CHUNK_VALUES // n_comp)
    for lo in range(0, rare.size, rows):
        idx = rare[lo:lo + rows]
        logw = states[idx] @ thetas.T
        logw -= steps[idx, None] * lambdas
        values[idx] = _mixture_estimate(n_comp, logw)
    return BatchResult(values, states, steps, exit_sets, truncated)


def _simulate_batches(model, proposal, rule, b, max_steps, seed, n_paths,
                      lo, hi):
    """Batches lo..hi-1 of an n_paths run: values, the tally of packed
    exit-set masks (bytes) and the truncation count."""
    draw = model.batch_sampler(proposal.thetas)
    values = []
    tally: Counter = Counter()
    truncated = 0
    size = batch_paths(model.dim)
    for i in range(lo, hi):
        n = min(size, n_paths - i * size)
        res = simulate_batch(draw, rule, b, max_steps, proposal.thetas,
                             proposal.lambdas, batch_rng(seed, i), n)
        values.append(res.values)
        truncated += int(res.truncated.sum())
        packed = np.packbits(res.exit_sets[~res.truncated], axis=1)
        tally.update(packed.view(f"V{packed.shape[1]}").ravel().tolist())
    return np.concatenate(values), tally, truncated


def _decode_tally(tally: Counter, rule, d: int) -> Counter:
    """Tally keyed by ``A=...``/``reference`` from one keyed by packed
    exit-set masks, decoding each distinct mask once.  The keys are
    interned, so tallies kept from many runs share their strings."""
    packed = np.frombuffer(b"".join(tally), dtype=np.uint8)
    masks = np.unpackbits(packed.reshape(len(tally), (d + 7) // 8), axis=1,
                          count=d).astype(bool)
    out: Counter = Counter()
    for mask, rare, c in zip(masks, rule.rare_mask(masks), tally.values()):
        key = Region(bool(rare), tuple(np.flatnonzero(mask).tolist())).key
        out[sys.intern(key)] += c
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
    n_batches = -(-n // batch_paths(model.dim))
    bounds = np.linspace(0, n_batches, config.workers + 1).astype(int)
    ranges = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])
              if lo < hi]
    args = (model, proposal, rule, config.b, max_steps, config.seed, n)
    if len(ranges) == 1:
        outs = [_simulate_batches(*args, *ranges[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
            futures = [pool.submit(_simulate_batches, *args, lo, hi)
                       for lo, hi in ranges]
            outs = [f.result() for f in futures]
    # merge in batch order so the statistics are worker-count invariant
    values = np.concatenate([o[0] for o in outs])
    tally: Counter = Counter()
    for _, t, _ in outs:
        tally.update(t)
    truncated = sum(o[2] for o in outs)
    return _finalize(values, _decode_tally(tally, rule, model.dim),
                     truncated, config)


def _finalize(values, tally, truncated, config) -> EstimatorRun:
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
    )


def plain_mc(model: CgfModel, rule, config: RunConfig) -> EstimatorRun:
    """Average of the wrong-exit indicator under the untilted walk: the
    mixture estimator with the single component theta = 0."""
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
        })
    return rows
