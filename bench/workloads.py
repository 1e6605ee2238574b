"""Workload inputs, generated from the workload seed (standard library only).

Each workload is a list of wrongexit config files written into a work
directory; the worker receives only those files.  The seed fixes every input:
the Monte Carlo seed of each timed unit and, for ``solve_table``, the
non-exchangeable covariance of the general sum-intersection build.
"""

from __future__ import annotations

import json
from pathlib import Path
import random

WORKLOADS = ("siegmund_scan", "si_scan", "oracle_plain", "solve_table")

# Monte Carlo paths per b in one timed unit of each scan, and the paths of
# each side of the oracle: about 0.4 s of work each, so that a run holds many
# units; ``scale`` shrinks them for the smoke test.
SCAN_PATHS = {"siegmund_scan": 400, "si_scan": 800}
ORACLE_MIXTURE_PATHS = 300
ORACLE_PLAIN_PATHS = 3000
# rho values per table config: the table is computed as one ``table``
# command per (u, chunk of the rho grid), each about 0.4 s of work
TABLE_CHUNK = 7

SIEGMUND_SCAN = {
    "name": "siegmund_scan",
    "model": {"family": "mvnormal", "dim": 20, "mean": -0.5, "rho": 0.2},
    "problem": {"kind": "siegmund", "ell": 1.0, "u": 1.0},
    "proposal": {"variant": "theta0"},
    "run": {"b_grid": [8.0, 10.0, 12.0, 14.0, 16.0, 18.0]},
}
SI_SCAN = {
    "name": "si_scan",
    "model": {"family": "mvnormal", "dim": 10, "mean": -0.5, "rho": 0.1},
    "problem": {"kind": "sum_intersection", "L": 2},
    "proposal": {"variant": "si"},
    "run": {"b_grid": [8.0, 11.0, 14.0, 17.0, 20.0]},
}
ORACLES = [
    {
        "name": "oracle_siegmund_d2",
        "model": {"family": "independent",
                  "components": [{"type": "normal", "mu": -0.5,
                                  "sigma2": 1.0, "count": 2}]},
        "problem": {"kind": "siegmund", "ell": 1.0, "u": 1.0},
        "proposal": {"variant": "theta1"},
        "oracle": {"b": 5.0},
    },
    {
        "name": "oracle_gap_d4",
        "model": {"family": "mvnormal", "dim": 4,
                  "mean": {"head": 0.5, "tail": -0.5, "split": 2},
                  "rho": 0.0, "sigma2": 1.0},
        "problem": {"kind": "gap", "m": 2},
        "proposal": {"variant": "t0"},
        "oracle": {"b": 4.5},
    },
    {
        "name": "oracle_si_d3",
        "model": {"family": "mvnormal", "dim": 3, "mean": -0.5, "rho": 0.0},
        "problem": {"kind": "sum_intersection", "L": 2},
        "proposal": {"variant": "si"},
        "oracle": {"b": 4.5},
    },
]
TABLE = {
    "name": "table1_d50",
    "model": {"family": "mvnormal", "dim": 50, "mean": -0.5, "rho": 0.0},
    "table": {"d": 50, "ell": 1.0,
              "u_values": [3.0, 2.0, 1.0, 0.5, 0.3333333333333333],
              "rho_grid": {"start": 0.0, "stop": 0.90, "step": 0.01}},
}
# The 15 maximal-rho entries of the paper's Table 1 (acceptance criterion 2).
TABLE_EXPECTED = {
    3.0: (0.61, 0.67, 0.61),
    2.0: (0.57, 0.64, 0.58),
    1.0: (0.45, 0.54, 0.50),
    0.5: (0.25, 0.39, 0.39),
    0.3333333333333333: (0.09, 0.26, 0.32),
}
SI_GENERAL_DIM = 10


def unit_seed(base: int, unit: int, stride: int = 1) -> int:
    """Seed of timed unit ``unit``: consecutive units never share a stream."""
    return base + stride * unit


def _base_seed(seed: int, name: str) -> int:
    return random.Random(f"{name}:{seed}").randrange(1, 2 ** 31)


def si_general_cov(seed: int, d: int = SI_GENERAL_DIM) -> list:
    """A positive-definite, non-exchangeable covariance drawn from the seed:
    0.8 I + 0.1 J + A A^T / d with A ~ N(0, 0.3^2) entrywise."""
    rng = random.Random(f"si_general:{seed}")
    a = [[rng.gauss(0.0, 0.3) for _ in range(d)] for _ in range(d)]
    cov = []
    for i in range(d):
        row = []
        for j in range(d):
            aat = sum(a[i][k] * a[j][k] for k in range(d)) / d
            row.append((0.8 if i == j else 0.0) + 0.1 + aat)
        cov.append(row)
    return cov


def table_chunks(scale: float = 1.0) -> list:
    """The Table-1 computation split into configs of one u and TABLE_CHUNK
    consecutive rho values each; the maximal rho of a u is the largest
    maximum among its chunks."""
    spec = TABLE["table"]
    g = spec["rho_grid"]
    n_rho = int(round((g["stop"] - g["start"]) / g["step"])) + 1
    u_values = spec["u_values"][:1] if scale < 1.0 else spec["u_values"]
    out = []
    for k, u in enumerate(u_values):
        for lo in range(0, n_rho, TABLE_CHUNK):
            hi = min(lo + TABLE_CHUNK, n_rho) - 1
            out.append({
                "name": f"{TABLE['name']}_u{k}_rho{lo:02d}",
                "model": TABLE["model"],
                "table": {**spec, "u_values": [u], "rho_grid": {
                    "start": round(g["start"] + lo * g["step"], 10),
                    "stop": round(g["start"] + hi * g["step"], 10),
                    "step": g["step"]}},
            })
    return out


def generate(workload: str, seed: int, scale: float = 1.0) -> list:
    """The configs of one workload at one seed, as dicts."""
    if workload in SCAN_PATHS:
        cfg = json.loads(json.dumps(
            SIEGMUND_SCAN if workload == "siegmund_scan" else SI_SCAN))
        cfg["run"].update(n_paths=max(20, int(SCAN_PATHS[workload] * scale)),
                          seed=_base_seed(seed, workload), workers=1)
        return [cfg]
    if workload == "oracle_plain":
        out = []
        for spec in ORACLES:
            cfg = json.loads(json.dumps(spec))
            cfg["oracle"].update(
                n_mixture=max(20, int(ORACLE_MIXTURE_PATHS * scale)),
                n_plain=max(200, int(ORACLE_PLAIN_PATHS * scale)),
                seed=_base_seed(seed, spec["name"]), workers=1)
            out.append(cfg)
        return out
    if workload == "solve_table":
        return table_chunks(scale) + [{
            "name": "si_general_d10",
            "model": {"family": "mvnormal", "dim": SI_GENERAL_DIM,
                      "mean": -0.5, "cov": si_general_cov(seed)},
            "problem": {"kind": "sum_intersection", "L": 2},
            "proposal": {"variant": "si"},
        }]
    raise ValueError(f"unknown workload {workload!r}")


def write(workload: str, seed: int, directory: Path, scale: float = 1.0
          ) -> list:
    """Write the configs into ``directory``; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for cfg in generate(workload, seed, scale):
        path = directory / f"{cfg['name']}.json"
        path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
        paths.append(str(path))
    return paths
