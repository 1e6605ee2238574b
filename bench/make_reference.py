"""Generate ``bench/reference.json``: reference wrong-exit probabilities for
the scan workloads, against which every benchmark run checks its estimates.

    python3 bench/make_reference.py

Run from the repository root.  The reference uses its own seed, outside the
range of the workload seeds, and many paths per b, so its standard error is
a small part of a run's.  It takes a few minutes on two cores.
"""

from __future__ import annotations

import json
from pathlib import Path
import sys
import time

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from wrongexit import cli, engine  # noqa: E402

import workloads  # noqa: E402

REFERENCE_SEED = 2 ** 33 + 1017
N_PATHS = 200000


def main() -> int:
    out = {"seed": REFERENCE_SEED, "n_paths": N_PATHS}
    for name in workloads.SCAN_PATHS:
        cfg = workloads.generate(name, seed=0)[0]
        model = cli.build_model(cfg["model"])
        rule = cli.build_rule(cfg["problem"])
        prop, _ = cli.build_proposal(model, rule, cfg["proposal"])
        t0 = time.perf_counter()
        rows = engine.decay_scan(model, prop, rule, cfg["run"]["b_grid"],
                                 N_PATHS, REFERENCE_SEED, workers=2)
        if any(r["truncation_count"] for r in rows):
            raise SystemExit(f"{name}: truncated paths in the reference")
        out[name] = {"b": [r["b"] for r in rows],
                     "p": [r["p_hat"] for r in rows],
                     "se": [r["std_error"] for r in rows]}
        print(f"{name}: {time.perf_counter() - t0:.0f} s, rel_err "
              f"{[round(r['rel_err'], 4) for r in rows]}", file=sys.stderr)
    (BENCH / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
