"""Benchmark the working tree against a parent commit in alternating pairs.

    python3 scripts/bench_pairs.py --out BENCH_21.json \\
        --pairs siegmund_scan=11 si_scan=3 oracle_plain=3 solve_table=3 \\
        --held-out siegmund_scan

Run it from the root of a checkout.  The parent side is the committed tree
of ``--parent`` (default ``HEAD``), exported with ``git archive`` into a
temporary directory; the change side is the working tree.  Each pair runs
the unchanged ``bench/run.py --workload W --seed S --seconds T --trace 0``
(T is ``BENCHMARK.json``'s ``run_seconds``) once on each side with the same
seed, and the side that runs first alternates from pair to pair, so a
drift of the machine's speed falls on both sides alike.  Workload k (in
``--pairs`` order) takes the seeds ``--seed-base + 20 k + 1``, ``+ 2``,
...; with ``--held-out W`` the last pair of W is recorded as its held-out
seed.

The JSON written to ``--out`` gives, per workload, every end-to-end metric
of ``BENCHMARK.json`` with its median, quartiles (inclusive method) and
runs in run order for each side, the pairs the change won, the change of
the medians in percent, the summed ``attempted`` and ``failed`` counts,
whether every run was correct and whether each pair printed one output
digest; the timed units of each side's runs (``bench/worker.py`` keeps
every unit's outputs, so ``peak_rss_mb`` grows with them); and the
``loc.*`` line counts of both sides as ``bench/run.py`` groups them.  The
file is rewritten after every pair.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
from pathlib import Path
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = Path.cwd()
SEED_STRIDE = 20  # seeds set aside per workload


def _loc_metrics(trees: list) -> list:
    """``bench/run.py``'s ``loc.*`` metrics of the package in each tree."""
    bench = ROOT / "bench"
    sys.path.insert(0, str(bench))  # run.py imports its workloads module
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  bench / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [mod.loc_metrics(tree / "src" / "wrongexit") for tree in trees]


def _bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``: its result line, digest and
    timed units."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{tree}: {' '.join(cmd[1:])} exited with "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    digest = next(ln.split(":", 1)[1].strip() for ln in lines
                  if ln.startswith("output digest:"))
    units = next(int(ln.split(":", 1)[1].split()[0]) for ln in lines
                 if ln.startswith(f"workload {workload} seed {seed}:"))
    return dict(json.loads(lines[-1]), digest=digest, units=units)


def _spread(runs: list) -> dict:
    q1, _, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                 if len(runs) > 1 else runs * 3)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3,
            "runs": runs}


def _summary(pairs: list, seeds: list, held_out: bool,
             metrics: list) -> dict:
    """One workload's record from its (parent, change) result pairs."""
    out = {
        "pairs": len(pairs),
        "seeds": seeds[:len(pairs)],
        "all_correct": all(r["correct"] for p in pairs for r in p),
        "failed": {side: sum(p[k]["failed"] for p in pairs)
                   for k, side in enumerate(("parent", "change"))},
        "attempted": {side: sum(p[k]["attempted"] for p in pairs)
                      for k, side in enumerate(("parent", "change"))},
    }
    runs = {side: {m["name"]: [p[k]["metrics"][m["name"]]["value"]
                               for p in pairs] for m in metrics}
            for k, side in enumerate(("parent", "change"))}
    sign = {m["name"]: 1 if m["better"] == "higher" else -1 for m in metrics}
    out["change_wins"] = {
        name: sum(sign[name] * (c - p) > 0 for p, c in
                  zip(runs["parent"][name], runs["change"][name]))
        for name in sign}
    out["median_change_pct"] = {
        name: round(100.0 * (statistics.median(runs["change"][name])
                             / statistics.median(runs["parent"][name]) - 1),
                    2)
        for name in sign}
    if held_out:
        out["held_out_seed"] = seeds[-1]
    out["digests_match"] = all(p[0]["digest"] == p[1]["digest"]
                               for p in pairs)
    for k, side in enumerate(("parent", "change")):
        out[side] = {name: _spread(v) for name, v in runs[side].items()}
        out[side]["units"] = _spread([p[k]["units"] for p in pairs])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--pairs", nargs="+", required=True, metavar="W=N",
                    help="workload and its number of pairs")
    ap.add_argument("--held-out", nargs="*", default=[], metavar="W",
                    help="workloads whose last pair is a held-out seed")
    ap.add_argument("--parent", default="HEAD", help="commit to compare to")
    ap.add_argument("--seed-base", type=int, default=600)
    ap.add_argument("--note", default="",
                    help="sentence appended to the file's 'what' field")
    args = ap.parse_args(argv)

    plan = [(w, int(n)) for w, n in (p.split("=") for p in args.pairs)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    parent = subprocess.run(["git", "rev-parse", "--short", args.parent],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    what = (
        "End-to-end metrics printed by bench/run.py --workload W --seed S "
        f"--seconds {seconds:g} --trace 0, run from a checkout of the "
        "parent commit and of this change, the two sides alternating which "
        "runs first in each pair; one seed per pair. Each metric gives the "
        "median, the quartiles (inclusive method) and every run, in run "
        "order. loc.* are wc -l line counts of src/wrongexit/*.py, grouped "
        "by module as bench/run.py groups them. units are the timed units of "
        "each run, whose outputs bench/worker.py keeps, so peak_rss_mb grows "
        "with them. held_out_seed is a seed not "
        "used while the change was written. digests_match is true when each "
        "pair's two runs printed the same output digest.")
    record = {
        "what": f"{what} {args.note}".strip(),
        "machine": (f"shared {os.cpu_count()}-core {platform.machine()} "
                    f"{platform.system()} container; bench/run.py pins one "
                    "BLAS thread per process"),
        "parent_commit": parent,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        base = Path(tmp)
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive,
                       check=True)
        record["loc"] = dict(zip(("parent", "change"),
                                 _loc_metrics([base, ROOT])))
        for k, (workload, n) in enumerate(plan):
            seeds = [args.seed_base + SEED_STRIDE * k + j + 1
                     for j in range(n)]
            pairs = []
            for j, seed in enumerate(seeds):
                sides = [base, ROOT] if j % 2 == 0 else [ROOT, base]
                got = {tree: _bench(tree, workload, seed, seconds)
                       for tree in sides}
                pairs.append((got[base], got[ROOT]))
                print(f"{workload} seed {seed}: wall_s "
                      f"{got[base]['metrics']['wall_s']['value']:.4f} -> "
                      f"{got[ROOT]['metrics']['wall_s']['value']:.4f}",
                      file=sys.stderr)
                record["workloads"][workload] = _summary(
                    pairs, seeds, workload in args.held_out, metrics)
                Path(args.out).write_text(json.dumps(record, indent=1)
                                          + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
