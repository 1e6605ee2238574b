"""Run one benchmark workload of wrongexit and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the package from ``src/``.  The
workloads, metrics and units are listed in ``BENCHMARK.json``; what each
metric means is in ``bench/README.md``.

With ``--trace 0`` it times set-up in several fresh interpreters, then runs
the workload's timed units in one more fresh interpreter for about S
seconds, and prints the end-to-end metrics.  With ``--trace 1`` it runs the
same units with the layer boundaries wrapped and prints the per-layer
metrics.  Either way it checks the program's outputs: the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit status is nonzero when a check
failed.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import shutil
import statistics
import subprocess
import sys
import time

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
# fresh interpreters that time set-up, in addition to the measuring one
SETUP_PROBES = 9
# every process this script starts has ended by then
DEADLINE_S = 170.0
# one core per process: the machine is shared and has two
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}
LOC_MODULES = {
    "models": ["models.py"],
    "regions": ["regions.py"],
    "engine": ["engine.py"],
    "proposals": ["proposals.py"],
    "solvers": ["solvers.py", "rootfind.py"],
    "cli": ["cli.py"],
}


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def loc_metrics(pkg: Path) -> dict:
    """Source lines per module, and of the whole package."""
    lines = {p.name: len(p.read_text().splitlines())
             for p in pkg.glob("*.py")}
    out = {f"loc.{mod}": sum(lines.get(f, 0) for f in files)
           for mod, files in LOC_MODULES.items()}
    out["loc.total"] = sum(lines.values())
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink the units (smoke test only)")
    args = ap.parse_args(argv)
    t_begin = time.monotonic()

    pkg = ROOT / "src" / "wrongexit"
    spec_path = ROOT / "BENCHMARK.json"
    if not (pkg / "__init__.py").is_file():
        return _fail(f"no package at {pkg}; run from the repository root")
    if not spec_path.is_file():
        return _fail(f"no {spec_path.name} in {ROOT}")
    spec = json.loads(spec_path.read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    env = dict(os.environ, **ENV)

    def worker(*extra, out):
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--workload", args.workload, "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out), *extra,
               *configs]
        left = DEADLINE_S - (time.monotonic() - t_begin)
        subprocess.run(cmd, env=env, check=True, timeout=max(1.0, left),
                       stdout=sys.stderr)
        return json.loads(out.read_text())

    try:
        configs = workloads.write(args.workload, args.seed, work / "configs",
                                  args.scale)
        # set-up probes on both sides of the measurement, so that they
        # sample the machine's speed over the whole run
        probes = [] if args.trace else list(range(SETUP_PROBES))
        setups = [worker("--setup-only", out=work / f"setup{k}.json")
                  ["setup_s"] for k in probes[:len(probes) // 2 + 1]]
        result = worker(out=work / "result.json")
        setups += [worker("--setup-only", out=work / f"setup{k}.json")
                   ["setup_s"] for k in probes[len(probes) // 2 + 1:]]
        trace_file = work / f"trace-{args.workload}.npz"
        if trace_file.exists():
            shutil.move(str(trace_file), str(work_root / trace_file.name))
    except subprocess.CalledProcessError as exc:
        return _fail(f"worker exited with status {exc.returncode}")
    except subprocess.TimeoutExpired:
        return _fail(f"worker did not finish within {DEADLINE_S:.0f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = dict(result["metrics"])
    if args.trace:
        values.update(loc_metrics(pkg))
        methods = dict(result["methods"])
        prefix = "solvers.calls."
        for m in spec["per_layer"]:
            name = m["name"]
            if name.startswith(prefix) and name != prefix + "other":
                values[name] = methods.pop(name[len(prefix):], 0)
        values[prefix + "other"] = sum(methods.values())
        print(f"exact counts: {json.dumps(result['exact'], sort_keys=True)}")
    else:
        setups.append(values["setup_s"])
        values["setup_s"] = statistics.median(setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}

    print(f"workload {args.workload} seed {args.seed}: {result['units']} "
          "units")
    print(f"output digest: {result['digest']}")
    if "raw" in result:
        print("  timed units: {measured_s:.3f} s measured, {scaled_s:.3f} s "
              "at reference speed (calibration kernel {calibration_s:.4f} s)"
              .format(**result["raw"]))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for msg in result["fails"]:
        print(f"  CHECK FAILED: {msg}")
    correct = not result["fails"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
