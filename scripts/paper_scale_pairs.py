"""Time one paper-scale b per shipped config, parent against working tree.

    python3 scripts/paper_scale_pairs.py [--pairs 3] [--paths 2000] \\
        [--seed 3] [--parent HEAD] [--out FILE]

Run it from the root of a checkout.  Every shipped config with a
``paper_scale`` overlay and a ``run`` section is loaded with the overlay
applied, as ``--paper-scale`` does, and its proposal is built.  Then
``estimate_wrong_exit`` runs once at the third value of the paper-scale
``b_grid`` (the b of ROADMAP item 12's table) with ``--paths`` paths on one
worker, and only that call is timed.  Each run is a fresh interpreter with
one BLAS thread.  The parent side is the committed tree of ``--parent``,
exported with ``git archive`` into a temporary directory; the change side
is the working tree.  In pair j both sides run seed ``--seed + j``, and
the side that runs first alternates from pair to pair.  A pair whose two
sides give a different ``p_hat`` or ``second_moment`` stops the script
with exit status 1.

It prints one row per config: d, b, the paths, each side's median seconds,
the change of the medians in percent and the pairs the change won.  With
``--out`` the rows and every timing go to a JSON file as well.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = Path.cwd()
B_INDEX = 2  # the b of each paper-scale grid that is timed
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}


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


def _run(tree: Path, config: Path, paths: int, seed: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           str(tree), str(config), str(paths), str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          env={**os.environ, **ENV}, timeout=1800)
    if proc.returncode:
        raise RuntimeError(f"{tree}: {config.name} exited with "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def shipped() -> list:
    """Shipped configs with a paper-scale overlay and a run section."""
    return [path for path in sorted((ROOT / "configs").glob("*.json"))
            if {"paper_scale", "run"} <= json.loads(path.read_text()).keys()]


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--child"]:
        tree, config, paths, seed = sys.argv[2:]
        child(tree, config, int(paths), int(seed))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--paths", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--parent", default="HEAD", help="commit to compare to")
    ap.add_argument("--out", help="JSON file to write")
    args = ap.parse_args(argv)

    parent = subprocess.run(["git", "rev-parse", "--short", args.parent],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    record = {"parent_commit": parent, "paths": args.paths, "configs": {}}
    with tempfile.TemporaryDirectory(prefix="paper-parent-") as tmp:
        base = Path(tmp)
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive,
                       check=True)
        print("config d b paths parent_s change_s change_% change_wins")
        for path in shipped():
            times = {"parent": [], "change": []}
            for j in range(args.pairs):
                seed = args.seed + j
                sides = [("parent", base), ("change", ROOT)]
                got = {side: _run(tree, ROOT / "configs" / path.name,
                                  args.paths, seed)
                       for side, tree in (sides if j % 2 == 0
                                          else sides[::-1])}
                for key in ("p_hat", "second_moment"):
                    if got["parent"][key] != got["change"][key]:
                        print(f"{path.stem} seed {seed}: {key} "
                              f"{got['parent'][key]!r} -> "
                              f"{got['change'][key]!r}", file=sys.stderr)
                        return 1
                for side in times:
                    times[side].append(got[side]["seconds"])
            med = {side: statistics.median(v) for side, v in times.items()}
            row = {"d": got["change"]["d"], "b": got["change"]["b"],
                   "parent_s": med["parent"], "change_s": med["change"],
                   "change_pct": round(100 * (med["change"] / med["parent"]
                                              - 1), 1),
                   "change_wins": sum(c < p for p, c in
                                      zip(times["parent"], times["change"])),
                   "runs": times}
            record["configs"][path.stem] = row
            print(f"{path.stem} {row['d']} {row['b']:g} {args.paths} "
                  f"{med['parent']:.3f} {med['change']:.3f} "
                  f"{row['change_pct']:+.1f} {row['change_wins']}/"
                  f"{args.pairs}", flush=True)
            if args.out:
                Path(args.out).write_text(json.dumps(record, indent=1)
                                          + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
