"""Benchmark the working tree against a parent commit in alternating pairs.

    python3 scripts/bench_pairs.py --out BENCH_21.json \\
        --pairs siegmund_scan=11 si_scan=3 gap_normal_desk=3 \\
        --held-out siegmund_scan

The parent side is the committed tree of ``--parent`` (default ``HEAD``),
exported once with ``git archive`` into a temporary directory; the change
side is the working tree that holds this script.  ``--pairs T=N`` runs N
pairs of target T, which is either

- a workload of ``BENCHMARK.json``: each side runs the unchanged
  ``bench/run.py --workload T --seed S --seconds R --trace 0`` in its own
  tree (R is ``run_seconds``), or
- the stem of a shipped config with a ``paper_scale`` overlay and a ``run``
  section: each side builds the paper-scale proposal (as ``--paper-scale``
  does) and times one ``estimate_wrong_exit`` call at the third
  paper-scale b with ``--paths`` paths on one worker, in a fresh
  interpreter with one BLAS thread.  That child is this script, the
  working tree's code, run against each tree's ``src/``.  A pair whose
  sides give a different ``p_hat`` or ``second_moment`` stops the script
  with exit status 1, naming the config, the seed and both values.

Target k (in ``--pairs`` order) runs its pair j (from 0) on the seed
``--seed-base + 20 k + j + 1`` on both sides, and the side that runs first
alternates from pair to pair, so a drift of the machine's speed falls on
both sides alike.  With ``--held-out T`` the last pair of T is recorded as
its held-out seed.  After a target's last pair one verdict line on
standard error reads ``resolved`` when the change won at least 9 in 10 of
the pairs (all 3 of 3) on the target's timed metric (``wall_s``, or
``seconds``), its median beats the parent's by more than the parent's
interquartile range, every run was correct, each pair's outputs matched
and no more operations failed than at the parent; ``regressed`` when the
parent won at least 9 in 10 of the pairs and its median beats the
change's by more than its interquartile range; ``unresolved`` otherwise.
Each workload pair's line, and its target's verdict line in medians, also
print ``peak_rss_mb`` and the timed units side by side, parent -> change,
since ``bench/worker.py`` keeps every unit's outputs and a run that fits
more units reads as using more memory.  An unknown target,
N < 1, a target named twice, a ``--held-out`` target not in ``--pairs``
or ``--paths`` < 1 exits with status 2 before the export.

The JSON written to ``--out`` is rewritten after every pair of either
kind.  Its ``workloads`` section gives, per workload, every end-to-end
metric of ``BENCHMARK.json`` with its median, quartiles (inclusive method)
and runs in run order for each side, the pairs the change won, the change
of the medians in percent, the summed ``attempted`` and ``failed`` counts,
whether every run was correct and whether each pair printed one output
digest, and the timed units of each side's runs (``bench/worker.py`` keeps
every unit's outputs, so ``peak_rss_mb`` grows with them).  Its
``paper_scale`` section gives, per config, d, b, the paths and each side's
``seconds`` in the same form.  ``loc`` holds both sides' ``loc.*`` line
counts as ``bench/run.py`` groups them; ``machine`` names the numpy and
Python versions.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
from pathlib import Path
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED_STRIDE = 20  # seeds set aside per target
SIDES = ("parent", "change")
B_INDEX = 2  # the b of each paper-scale grid that is timed
SECONDS = [{"name": "seconds", "better": "lower"}]  # the paper-scale metric
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}


def _loc_metrics(trees: list) -> list:
    """``bench/run.py``'s ``loc.*`` metrics of the package in each tree."""
    bench = ROOT / "bench"
    sys.path.insert(0, str(bench))  # run.py imports its workloads module
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  bench / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [mod.loc_metrics(tree / "src" / "wrongexit") for tree in trees]


def child(tree: str, config: str, paths: int, seed: int) -> None:
    """Build one config's paper-scale proposal in ``tree`` and print the
    timed ``estimate_wrong_exit`` call as one JSON line."""
    sys.path.insert(0, str(Path(tree) / "src"))
    from wrongexit.cli import (build_model, build_proposal, build_rule,
                               load_config)
    from wrongexit.engine import RunConfig, estimate_wrong_exit

    cfg = load_config(config, paper_scale=True)
    model = build_model(cfg["model"])
    rule = build_rule(cfg["problem"])
    prop, _ = build_proposal(model, rule, cfg.get("proposal", {}))
    b = cfg["run"]["b_grid"][B_INDEX]
    run = RunConfig(b=b, n_paths=paths, seed=seed, workers=1)
    t0 = time.perf_counter()
    est = estimate_wrong_exit(model, prop, rule, run)
    seconds = time.perf_counter() - t0
    print(json.dumps({"d": model.dim, "b": b, "seconds": seconds,
                      "p_hat": est.mean,
                      "second_moment": est.second_moment}))


def _paper(tree: Path, config: str, seed: int, paths: int) -> dict:
    """One paper-scale run of ``config`` against ``tree``'s ``src/``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           str(tree), str(ROOT / "configs" / f"{config}.json"), str(paths),
           str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          env={**os.environ, **ENV}, timeout=1800)
    if proc.returncode:
        raise RuntimeError(f"{tree}: {config} exited with "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return dict(out, digest=[out["p_hat"], out["second_moment"]])


def _bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``: its metric values, counts,
    digest and timed units."""
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
    out = json.loads(lines[-1])
    values = {name: m["value"] for name, m in out.pop("metrics").items()}
    return dict(out, **values, digest=digest, units=units)


def _export(commit: str, dest: Path) -> str:
    """Extract the committed tree of ``commit`` into ``dest``; return its
    short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", commit],
                           cwd=ROOT, check=True, capture_output=True,
                           text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return short


def _spread(runs: list) -> dict:
    q1, _, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                 if len(runs) > 1 else runs * 3)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3,
            "runs": runs}


def _summary(pairs: list, seeds: list, held_out: bool,
             metrics: list) -> dict:
    """One target's record from its (parent, change) run pairs.  A run is
    a flat dict of metric values and its ``digest``; workload runs also
    carry ``correct``, ``failed``, ``attempted`` and ``units``."""
    out = {"pairs": len(pairs), "seeds": seeds[:len(pairs)]}
    workload = "correct" in pairs[0][0]
    if workload:
        out["all_correct"] = all(r["correct"] for p in pairs for r in p)
        for key in ("failed", "attempted"):
            out[key] = {side: sum(p[k][key] for p in pairs)
                        for k, side in enumerate(SIDES)}
    runs = [{m["name"]: [p[k][m["name"]] for p in pairs] for m in metrics}
            for k in range(2)]
    sign = {m["name"]: 1 if m["better"] == "higher" else -1 for m in metrics}
    out["change_wins"] = {
        name: sum(sign[name] * (c - p) > 0
                  for p, c in zip(runs[0][name], runs[1][name]))
        for name in sign}
    out["median_change_pct"] = {
        name: round(100.0 * (statistics.median(runs[1][name])
                             / statistics.median(runs[0][name]) - 1), 2)
        for name in sign}
    if held_out:
        out["held_out_seed"] = seeds[-1]
    out["digests_match"] = all(p[0]["digest"] == p[1]["digest"]
                               for p in pairs)
    for k, side in enumerate(SIDES):
        out[side] = {name: _spread(v) for name, v in runs[k].items()}
        if workload:
            out[side]["units"] = _spread([p[k]["units"] for p in pairs])
    return out


def _verdict(target: str, entry: dict, metric: dict) -> str:
    """The claim rule's verdict on one target's record for ``metric``."""
    name, n = metric["name"], entry["pairs"]
    parent, change = entry["parent"][name], entry["change"][name]
    sign = 1 if metric["better"] == "higher" else -1
    iqr = parent["q3"] - parent["q1"]
    gap = sign * (change["median"] - parent["median"])  # > 0: change better
    wins = entry["change_wins"][name]
    losses = sum(sign * (c - p) < 0
                 for p, c in zip(parent["runs"], change["runs"]))
    failed = entry.get("failed", {"parent": 0, "change": 0})
    sound = (entry.get("all_correct", True) and entry["digests_match"]
             and failed["change"] <= failed["parent"])
    if losses >= 0.9 * n and -gap > iqr:
        word = "regressed"
    elif sound and wins >= 0.9 * n and gap > iqr:
        word = "resolved"
    else:
        word = "unresolved"
    line = (f"{target}: {name} {word}: the change won {wins} of {n} pairs, "
            f"median {parent['median']:.4g} -> {change['median']:.4g}, "
            f"parent interquartile range {iqr:.4g}"
            + ("" if sound else ", but outputs differ or more ops failed"))
    if "units" in entry["parent"]:  # a workload: its memory beside it
        line += "; median " + _memory(*(
            {key: entry[side][key]["median"] for key in ("peak_rss_mb",
                                                         "units")}
            for side in SIDES))
    return line


def _memory(parent: dict, change: dict) -> str:
    """``peak_rss_mb`` and the kept units of a parent and a change run,
    side by side, so a memory rise that comes from more kept units shows
    (``bench/worker.py`` keeps every timed unit's outputs)."""
    return (f"peak_rss_mb {parent['peak_rss_mb']:.2f} -> "
            f"{change['peak_rss_mb']:.2f}, units {parent['units']:g} -> "
            f"{change['units']:g}")


def _plan(ap: argparse.ArgumentParser, args, workloads: list) -> list:
    """``(section, target, N)`` per ``--pairs`` item, a target being a
    workload or a shipped config with a paper-scale overlay and a run
    section; a bad argument exits with status 2 through ``ap.error``."""
    configs = [p.stem for p in sorted((ROOT / "configs").glob("*.json"))
               if {"paper_scale", "run"} <= json.loads(p.read_text()).keys()]
    plan = []
    for item in args.pairs:
        target, _, n = item.partition("=")
        try:
            n = int(n)
        except ValueError:
            ap.error(f"argument --pairs: {item!r} is not T=N with an "
                     "integer N")
        if n < 1:
            ap.error(f"argument --pairs: {item!r} asks for {n} pairs; "
                     "N must be at least 1")
        if target in (t for _, t, _ in plan):
            ap.error(f"argument --pairs: target {target!r} is named twice")
        if target in workloads:
            plan.append(("workloads", target, n))
        elif target in configs:
            plan.append(("paper_scale", target, n))
        else:
            ap.error(f"argument --pairs: unknown target {target!r}; "
                     f"workloads: {', '.join(workloads)}; paper-scale "
                     f"configs: {', '.join(configs)}")
    if args.paths < 1:
        ap.error(f"argument --paths: {args.paths} paths; it must be at "
                 "least 1")
    for target in args.held_out:
        if target not in (t for _, t, _ in plan):
            ap.error(f"argument --held-out: {target!r} is not a --pairs "
                     "target")
    return plan


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--child"]:
        tree, config, paths, seed = sys.argv[2:]
        child(tree, config, int(paths), int(seed))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--pairs", nargs="+", required=True, metavar="T=N",
                    help="target (a workload or a paper-scale config) and "
                         "its number of pairs")
    ap.add_argument("--held-out", nargs="*", default=[], metavar="T",
                    help="targets whose last pair is a held-out seed")
    ap.add_argument("--parent", default="HEAD", help="commit to compare to")
    ap.add_argument("--seed-base", type=int, default=600)
    ap.add_argument("--note", default="",
                    help="sentence appended to the file's 'what' field")
    ap.add_argument("--paths", type=int, default=2000,
                    help="paths per paper-scale run")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plan = _plan(ap, args, [w["name"] for w in spec["workloads"]])
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    kinds = {"workloads": (functools.partial(_bench, seconds=seconds),
                           metrics, "wall_s"),
             "paper_scale": (functools.partial(_paper, paths=args.paths),
                             SECONDS, "seconds")}
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
        "pair's two runs printed the same output digest. paper_scale gives, "
        "per shipped config, the seconds of one estimate_wrong_exit call at "
        "the third paper-scale b with the given paths on one worker and one "
        "BLAS thread, each tree's src/ in a fresh interpreter; its pairs "
        "gave equal p_hat and second_moment.")
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        base = Path(tmp)
        record = {
            "what": f"{what} {args.note}".strip(),
            "machine": (f"shared {os.cpu_count()}-core {platform.machine()} "
                        f"{platform.system()} container; bench/run.py pins "
                        "one BLAS thread per process; numpy "
                        f"{np.__version__}, Python "
                        f"{platform.python_version()}"),
            "parent_commit": _export(args.parent, base),
            "workloads": {},
            "paper_scale": {},
        }
        record["loc"] = dict(zip(SIDES, _loc_metrics([base, ROOT])))
        for k, (section, target, n) in enumerate(plan):
            run, target_metrics, shown = kinds[section]
            seeds = [args.seed_base + SEED_STRIDE * k + j + 1
                     for j in range(n)]
            pairs = []
            for j, seed in enumerate(seeds):
                sides = [base, ROOT] if j % 2 == 0 else [ROOT, base]
                got = {tree: run(tree, target, seed) for tree in sides}
                pair = (got[base], got[ROOT])
                print(f"{target} seed {seed}: {shown} {pair[0][shown]:.4f} "
                      f"-> {pair[1][shown]:.4f}"
                      + (f", {_memory(*pair)}" if "units" in pair[0] else ""),
                      file=sys.stderr)
                if (section == "paper_scale"
                        and pair[0]["digest"] != pair[1]["digest"]):
                    print(f"{target} seed {seed}: p_hat, second_moment "
                          f"{pair[0]['digest']} -> {pair[1]['digest']}",
                          file=sys.stderr)
                    return 1
                pairs.append(pair)
                entry = _summary(pairs, seeds, target in args.held_out,
                                 target_metrics)
                if section == "paper_scale":
                    entry = {"d": pair[1]["d"], "b": pair[1]["b"],
                             "paths": args.paths, **entry}
                record[section][target] = entry
                Path(args.out).write_text(json.dumps(record, indent=1)
                                          + "\n")
            metric = next(m for m in target_metrics if m["name"] == shown)
            print(_verdict(target, entry, metric), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
