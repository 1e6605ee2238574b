"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload briefly, traced and untraced, and checks the result
format, the exact counts' repeatability, and the refusal to run without the
package.  It takes about two minutes.
"""

import json
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = run(workload, 7, 0)
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = last_json(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_repeats_exact_counts(workload):
    first, second = run(workload, 3, 1), run(workload, 3, 1)
    assert first.returncode == 0, first.stderr[-2000:]
    assert second.returncode == 0, second.stderr[-2000:]
    a, b = last_json(first), last_json(second)
    assert set(a["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert a["metrics"]["solvers.calls.other"]["value"] == 0
    def exact(proc):
        return [ln for ln in proc.stdout.splitlines()
                if ln.startswith(("exact counts:", "output digest:"))]

    assert len(exact(first)) == 2 and exact(first) == exact(second)
    for name, m in a["metrics"].items():
        if m["unit"] in ("count", "lines"):
            assert b["metrics"][name]["value"] == m["value"], name


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(WORKLOADS[0], 1, 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
