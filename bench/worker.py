"""Benchmark worker: set up and run one workload in a fresh interpreter.

    python3 bench/worker.py --workload W --seed S --seconds T --trace 0|1 \
        --out RESULT.json CONFIG.json [CONFIG.json ...]

With ``--setup-only`` it times set-up (import, config load, model, rule and
proposal build) and exits.  Otherwise it runs the workload's timed units for
about T seconds, checks the outputs, and writes a JSON result to ``--out``.
Set-up time is measured from the first line of this file, so it includes
importing numpy, scipy and the package.
"""

import time

T_START = time.perf_counter()

import argparse
import hashlib
import json
import math
from pathlib import Path
import resource
import statistics
import sys
import types

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from wrongexit import cli, engine  # noqa: E402
from wrongexit.solvers import SolverError  # noqa: E402
import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import SolverCounter, Tracer  # noqa: E402

# |z| above which an estimate disagrees with its reference.  A correct
# program exceeds 4.5 with probability 7e-6 per comparison, so the three to
# six comparisons of a run stay quiet over the hundreds of runs that judge a
# change; at 3 about one run in sixty would fail by chance.
Z_GATE = 4.5
# relative error at which ``tta_s`` counts an estimate as accurate
TARGET_REL_ERR = 0.1
# The machine's speed drifts by tens of percent within minutes (other
# tenants share its cores), so every timed unit sits between two runs of a
# fixed calibration kernel shaped like the workload's hot code, and times
# are reported at the speed at which the kernel takes its reference seconds
# (``KERNELS``): its median on a 2-vCPU Intel Xeon at 2.0 GHz.


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _pool(parts):
    """Mean and standard error of equal-weight pooled estimator runs, each
    given as (n, mean, std_error)."""
    n = sum(p[0] for p in parts)
    mean = sum(p[0] * p[1] for p in parts) / n
    second = sum(p[0] * (p[2] ** 2 * (p[0] - 1) + p[1] ** 2)
                 for p in parts) / n
    var = max(0.0, (second - mean * mean) * n / (n - 1))
    return mean, math.sqrt(var / n)


# ---------------------------------------------------------------------------
# Workloads: set-up, one timed unit, and the checks on the pooled outputs
# ---------------------------------------------------------------------------

class Scan:
    """Decay scan of one desk problem over its b grid."""

    kernel = "sim"
    fixed_units = None

    def __init__(self, name, paths):
        self.name = name
        self.cfg = cli.load_config(paths[0])
        self.model = cli.build_model(self.cfg["model"])
        self.rule = cli.build_rule(self.cfg["problem"])
        self.prop, _ = cli.build_proposal(self.model, self.rule,
                                          self.cfg["proposal"])
        run = self.cfg["run"]
        self.b_grid = run["b_grid"]
        self.n = run["n_paths"]
        self.seed = run["seed"]
        self.models, self.rules = [self.model], [self.rule]
        self.components = len(self.prop)

    def unit(self, i, small=False, workers=1):
        b_grid = self.b_grid[:2] if small else self.b_grid
        n = max(20, self.n // 10) if small else self.n
        rows = engine.decay_scan(self.model, self.prop, self.rule, b_grid, n,
                                 workloads.unit_seed(self.seed, i),
                                 workers=workers)
        return {"n": n, "rows": rows}

    def ops(self, out):
        return out["n"] * len(out["rows"])

    def rel_err_top(self, out):
        return out["rows"][-1]["rel_err"]

    def summary(self, outs, wall):
        """Pooled estimates, their checks and the time-to-accuracy."""
        ref = json.loads((Path(__file__).parent / "reference.json")
                         .read_text())[self.name]
        fails = [] if ref["b"] == self.b_grid else ["reference b grid differs"]
        truncated = sum(r["truncation_count"] for o in outs for r in o["rows"])
        if truncated:
            fails.append(f"{truncated} truncated paths")
        rel2 = []
        for k, b in enumerate(self.b_grid):
            p, se = _pool([(o["n"], o["rows"][k]["p_hat"],
                            o["rows"][k]["std_error"]) for o in outs])
            p_ref, se_ref = ref["p"][k], ref["se"][k]
            z = (p - p_ref) / math.hypot(se, se_ref)
            if not abs(z) <= Z_GATE:
                fails.append(f"b={b}: p_hat={p:.4g} vs reference "
                             f"{p_ref:.4g}, z={z:.2f}")
            rel2.append((se / p) ** 2)
        tta = wall * statistics.fmean(rel2) / TARGET_REL_ERR ** 2
        return tta, truncated, fails

    def extra_checks(self):
        """Worker-count invariance: a small scan on two processes must be
        byte-identical to the same scan on one."""
        one = json.dumps(self.unit(0, small=True, workers=1), sort_keys=True)
        two = json.dumps(self.unit(0, small=True, workers=2), sort_keys=True)
        return [] if one == two else ["workers=2 differs from workers=1"]


class Oracle:
    """The three oracle problems: a mixture side and a plain side each."""

    kernel = "sim"
    fixed_units = None

    def __init__(self, name, paths):
        self.name = name
        self.problems = []
        for path in paths:
            cfg = cli.load_config(path)
            model = cli.build_model(cfg["model"])
            rule = cli.build_rule(cfg["problem"])
            prop, _ = cli.build_proposal(model, rule, cfg["proposal"])
            self.problems.append((cfg["oracle"], model, rule, prop))
        self.models = [p[1] for p in self.problems]
        self.rules = [p[2] for p in self.problems]
        self.components = sum(len(p[3]) for p in self.problems)

    def unit(self, i, small=False):
        out = []
        for osp, model, rule, prop in self.problems:
            scale = 10 if small else 1
            seed = workloads.unit_seed(osp["seed"], i, stride=2)
            mix = engine.estimate_wrong_exit(
                model, prop, rule, engine.RunConfig(
                    b=osp["b"], n_paths=max(20, osp["n_mixture"] // scale),
                    seed=seed, workers=1))
            plain = engine.plain_mc(model, rule, engine.RunConfig(
                b=osp["b"], n_paths=max(20, osp["n_plain"] // scale),
                seed=seed + 1, workers=1))
            out.append({"mixture": mix.to_json_dict(),
                        "plain": plain.to_json_dict()})
        return out

    def ops(self, out):
        return sum(p["mixture"]["n"] + p["plain"]["n"] for p in out)

    def rel_err_top(self, out):
        top = max(range(len(out)), key=lambda k: out[k]["mixture"]["b"])
        return out[top]["mixture"]["relative_error"]

    def summary(self, outs, wall):
        fails = []
        truncated = sum(p[side]["truncation_count"] for o in outs for p in o
                        for side in ("mixture", "plain"))
        if truncated:
            fails.append(f"{truncated} truncated paths")
        rel2 = []
        for k, (osp, _, rule, _) in enumerate(self.problems):
            pooled = {}
            for side in ("mixture", "plain"):
                pooled[side] = _pool([(o[k][side]["n"], o[k][side]["p_hat"],
                                       o[k][side]["std_error"]) for o in outs])
            (pm, sm), (pp, sp) = pooled["mixture"], pooled["plain"]
            z = (pm - pp) / math.hypot(sm, sp)
            if not abs(z) <= Z_GATE:
                fails.append(f"{rule.kind} b={osp['b']}: mixture {pm:.4g} vs "
                             f"plain {pp:.4g}, z={z:.2f}")
            # the plain side is only the reference: its error would hide
            # the mixture estimator's
            rel2.append((sm / pm) ** 2)
        tta = wall * statistics.fmean(rel2) / TARGET_REL_ERR ** 2
        return tta, truncated, fails

    def extra_checks(self):
        return []


class SolveTable:
    """Table-1 maximal-rho computation, one ``table`` command per (u, rho
    chunk), then one general (non-exchangeable) sum-intersection build; no
    simulation.  Every run does all of it, whatever its time budget.

    ``counter`` counts the solver results of every unit; a unit that raises
    ``SolverError`` returns the error instead of its outputs."""

    kernel = "solver"

    def __init__(self, name, paths):
        self.name = name
        self.chunks = [cli.load_config(p) for p in paths[:-1]]
        self.si_cfg = cli.load_config(paths[-1])
        self.si_model = cli.build_model(self.si_cfg["model"])
        self.si_rule = cli.build_rule(self.si_cfg["problem"])
        self.models, self.rules = [], []
        self.components = 0
        self.fixed_units = len(self.chunks) + 1
        self.out_dir = Path(paths[0]).parent / "table"
        self.counter = SolverCounter()
        self.errors = 0
        self.thetas = None

    def unit(self, i, small=False):
        if small:
            cfg = json.loads(json.dumps(self.chunks[0]))
            grid = cfg["table"]["rho_grid"]
            grid["stop"] = grid["start"]
        elif i < len(self.chunks):
            cfg = self.chunks[i]
        else:
            try:
                with self.counter:
                    prop, rep = cli.build_proposal(
                        self.si_model, self.si_rule, self.si_cfg["proposal"])
            except SolverError as exc:
                self.errors += 1
                return {"K": 0, "error": str(exc)}
            self.thetas = _digest(prop.thetas.tolist())
            return {"K": len(prop), "holds": rep.holds, "thetas": self.thetas}
        out = {"rho_grid": cfg["table"]["rho_grid"],
               "u_values": cfg["table"]["u_values"]}
        out_dir = self.out_dir / str(i)
        try:
            with self.counter:
                cli.cmd_table(cfg, types.SimpleNamespace(out=str(out_dir)))
        except SolverError as exc:
            self.errors += 1
            return {**out, "rows": [], "error": str(exc)}
        rows = (out_dir / f"{cfg['name']}_table.csv").read_text()
        return {**out, "rows": rows.strip().splitlines()[1:]}

    def ops(self, out):
        """Solver programs the unit asks for: per (u, rho) cell solve_beta,
        solve_gamma_pair, solve_gamma_single and the direct check's
        solve_beta plus (solve_beta, v_lower_bound) for m = 2..d; per
        L-subset a beta and a z program, and an s program per extra index."""
        if "K" in out:
            d, L = self.si_model.dim, self.si_rule.L
            return math.comb(d, L) * (2 + d - L)
        g = out["rho_grid"]
        n_rho = int(round((g["stop"] - g["start"]) / g["step"])) + 1
        d = self.chunks[0]["table"]["d"]
        return len(out["u_values"]) * n_rho * (4 + 2 * (d - 1))

    def rel_err_top(self, out):
        return 0.0

    def summary(self, outs, seconds):
        best = {}
        for out in outs[:-1]:
            for row in out["rows"]:
                u, *entries = row.split(",")
                got = best.setdefault(float(u), [None] * len(entries))
                for k, e in enumerate(entries):
                    if e and (got[k] is None or float(e) > got[k]):
                        got[k] = float(e)
        fails = [f"SolverError: {o['error']}" for o in outs if "error" in o]
        want_u = {c["table"]["u_values"][0] for c in self.chunks}
        if set(best) != want_u:
            fails.append(f"table rows for u={sorted(best)}")
        for u, got in best.items():
            want = workloads.TABLE_EXPECTED[u]
            if tuple(got) != want:
                fails.append(f"table u={u}: {tuple(got)} != {want}")
        if outs[-1]["K"] != 90:
            fails.append(f"general sum-intersection build: K={outs[-1]['K']}")
        # non-converged programs are failed operations, not failed checks:
        # SLSQP stops with "positive directional derivative for linesearch"
        # on some of the dual programs of every general build tried, with
        # CGF residuals near 1e-16
        return seconds, self.counter.nonconverged + self.errors, fails

    def extra_checks(self):
        """A second general build gives the timed build's tilts."""
        if self.thetas is None:  # the timed build raised
            return []
        prop, _ = cli.build_proposal(self.si_model, self.si_rule,
                                     self.si_cfg["proposal"])
        return [] if _digest(prop.thetas.tolist()) == self.thetas else [
            "general build differs between repeated builds"]


KINDS = {"siegmund_scan": Scan, "si_scan": Scan, "oracle_plain": Oracle,
         "solve_table": SolveTable}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _timed(w, i):
    t0 = time.perf_counter()
    out = w.unit(i)
    return out, time.perf_counter() - t0


def _more(elapsed, walls, seconds):
    """Start another unit while its expected end stays within budget."""
    return elapsed + statistics.median(walls) <= seconds


def _sim_kernel():
    rng = np.random.Generator(np.random.Philox(key=7))
    chol = np.linalg.cholesky(0.8 * np.eye(20) + 0.2)
    acc = 0.0
    for _ in range(500):
        x = rng.standard_normal((32, 20)) @ chol
        np.cumsum(x, axis=0, out=x)
        hit = np.flatnonzero((x > 3.0).any(axis=1))
        acc += float(x[-1].sum()) + hit.size + sum(range(16))


def _solver_kernel():
    from scipy.linalg import cho_factor, cho_solve
    from scipy.optimize import minimize

    q = 2.0 * np.eye(6) + 0.2
    for i in range(60):
        c = 1.0 + 0.01 * i
        minimize(lambda z: z @ q @ z - c * z.sum(), np.zeros(6),
                 jac=lambda z: 2.0 * q @ z - c, method="SLSQP",
                 constraints=[{"type": "ineq", "fun": lambda z: 1 - z.sum(),
                               "jac": lambda z: -np.ones(6)}])
    s = np.eye(50) + 0.3
    for i in range(100):
        cho_solve(cho_factor(s + 1e-3 * i * np.eye(50), lower=True),
                  np.ones(50))


# calibration kernel -> its seconds on the reference machine
KERNELS = {"sim": (_sim_kernel, 0.02), "solver": (_solver_kernel, 0.02)}


def calibrate(kind: str) -> float:
    """Seconds the calibration kernel ``kind`` takes now, scaled so that it
    reads 1.0 at the reference machine's speed."""
    kernel, ref_s = KERNELS[kind]
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) / ref_s


def determinism_fails(w):
    """The same small unit twice in one process gives identical outputs."""
    first, second = w.unit(0, small=True), w.unit(0, small=True)
    return [] if _digest(first) == _digest(second) else [
        "repeated unit at one seed gave different outputs"]


def measure(w, seconds):
    """Timed units with tracing off, for about ``seconds`` seconds, each
    between two runs of the calibration kernel.  Returns the outputs, the
    measured seconds, the seconds at the reference machine's speed and the
    kernel's readings."""
    outs, walls, probes = [], [], [calibrate(w.kernel)]
    t0 = time.perf_counter()
    fixed = w.fixed_units
    while True:
        out, wall = _timed(w, len(outs))
        outs.append(out)
        walls.append(wall)
        probes.append(calibrate(w.kernel))
        if len(outs) == fixed or (
                not fixed and not _more(time.perf_counter() - t0, walls,
                                        seconds)):
            break
    scaled = [wall * 2 / (a + b)
              for wall, a, b in zip(walls, probes, probes[1:])]
    return outs, walls, scaled, probes


def run_untraced(w, seconds, setup_s):
    outs, walls, scaled, probes = measure(w, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops = sum(w.ops(o) for o in outs)
    fixed = w.fixed_units
    # equal units: the median unit stands for each, so one slow stretch of
    # the machine does not move the run's figures
    total = sum(scaled) if fixed else len(scaled) * statistics.median(scaled)
    tta, failed, fails = w.summary(outs, total)
    fails += determinism_fails(w) + w.extra_checks()
    return {
        "metrics": {
            "setup_s": setup_s,
            "wall_s": total if fixed else statistics.median(scaled),
            "ops_per_s": ops / total,
            "tta_s": tta,
            "peak_rss_mb": peak_rss_mb,
        },
        "raw": {"measured_s": sum(walls), "scaled_s": total,
                "calibration_s": statistics.median(probes)},
        "attempted": ops,
        "failed": failed,
        "fails": fails,
        "units": len(outs),
        "digest": _digest(outs[0]),
    }


def _merge_counts(a, b):
    out = dict(a)
    for k, v in b.items():
        if k == "methods":
            m = dict(out.get("methods", {}))
            for mk, mv in v.items():
                m[mk] = m.get(mk, 0) + mv
            out["methods"] = dict(sorted(m.items()))
        elif k == "max_residual":
            out[k] = max(out.get(k, 0.0), v)
        else:
            out[k] = out.get(k, 0) + v
    return out


def run_traced(name, paths, seconds, work_dir):
    """Set-up and units with spans recorded, interleaved with untraced
    repeats of the same units for the tracing overhead."""
    tracer = Tracer()
    t0 = time.perf_counter()
    tracer.install()
    w = KINDS[name](name, paths)
    tracer.uninstall()
    setup_wall = time.perf_counter() - t0
    setup_counts = tracer.exact_counts()
    setup_end = len(tracer.name)
    tracer.reset_counts()

    def traced(fn):
        tracer.install(w.models, w.rules)
        try:
            return fn()
        finally:
            tracer.uninstall()

    # exact counts repeat: the same small unit traced twice
    counts = []
    for _ in range(2):
        traced(lambda: w.unit(0, small=True))
        counts.append(tracer.exact_counts())
        tracer.reset_counts()
    fails = [] if counts[0] == counts[1] else [
        "exact counts differ between two traced runs of one unit"]
    small_end = len(tracer.name)

    pairs, totals, traced_wall, n_traced = [], {}, 0.0, 0
    fixed = w.fixed_units
    t_begin = time.perf_counter()
    i = 0
    while True:
        plain_out, plain_wall = _timed(w, i)
        out, wall = traced(lambda: _timed(w, i))
        counts = tracer.exact_counts()
        tracer.reset_counts()
        if i == 0:
            first_out, unit0 = out, counts
        last_out = out
        if _digest(out) != _digest(plain_out):
            fails.append(f"unit {i}: traced and untraced outputs differ")
        totals = _merge_counts(totals, counts)
        traced_wall += wall
        n_traced += 1
        pairs.append((plain_wall, wall))
        i += 1
        elapsed = time.perf_counter() - t_begin
        if i == fixed or (not fixed and not _more(
                elapsed, [p[0] + p[1] for p in pairs], seconds)):
            break

    # exact counts cover set-up and unit 0, or every unit of a fixed set
    exact = _merge_counts(setup_counts, totals if fixed else unit0)
    setup_times = tracer.layer_times(0, setup_end)
    times = tracer.layer_times(small_end)
    for layer in ("solvers", "cli"):
        times[layer] += setup_times[layer]
    tracer.dump(work_dir / f"trace-{name}.npz")

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    sim = times["sim"]
    total_wall = setup_wall + traced_wall
    calls_all = sum(totals.get("methods", {}).values()) + sum(
        setup_counts["methods"].values())
    paths_all = totals.get("paths", 0)
    paths0 = exact.get("paths", 0)
    overhead = statistics.median(t - p for p, t in pairs)
    metrics = {
        "models.sample_ns_per_value": per(times["models"],
                                          totals.get("values", 0), 1e9),
        "models.values_drawn": exact.get("values", 0),
        "models.share": per(times["models"], sim, 100.0),
        "regions.first_hit_ns_per_row": per(times["regions"],
                                            totals.get("rows", 0), 1e9),
        "regions.rows_examined": exact.get("rows", 0),
        "regions.share": per(times["regions"], sim, 100.0),
        "regions.overdraw": per(exact.get("rows", 0), exact.get("steps", 0)),
        "engine.self_us_per_path": per(times["engine"], paths_all,
                                       1e6),
        "engine.self_share": per(times["engine"], sim, 100.0),
        "engine.paths": paths0,
        "engine.steps_per_path": per(exact.get("steps", 0), paths0),
        "engine.calls_per_path": per(exact.get("sampler_calls", 0)
                                     + exact.get("first_hit_calls", 0),
                                     paths0),
        "engine.wrong_exit_frac": per(exact.get("wrong_exits", 0), paths0),
        "engine.rel_err_top": w.rel_err_top(first_out),
        "proposals.build_s": setup_times["build"] + times["build"]
        / (1 if fixed else n_traced),
        "proposals.components": w.components or last_out.get("K", 0),
        "solvers.us_per_call": per(times["solvers"], calls_all, 1e6),
        "solvers.calls": sum(exact["methods"].values()),
        "solvers.share": per(times["solvers"], total_wall, 100.0),
        "solvers.max_residual": exact["max_residual"],
        "solvers.nonconverged": exact.get("nonconverged", 0),
        "cli.share": per(times["cli"], total_wall, 100.0),
        "trace.overhead_s": overhead,
        "trace.overhead_pct": per(overhead,
                                  statistics.median(p for p, _ in pairs),
                                  100.0),
    }
    return {
        "metrics": metrics,
        "methods": exact["methods"],
        "exact": exact,
        "attempted": max(1, paths0 + sum(exact["methods"].values())),
        "failed": exact.get("nonconverged", 0),
        "fails": fails,
        "units": n_traced,
        "digest": _digest(first_out),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(KINDS))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    ap.add_argument("configs", nargs="+")
    args = ap.parse_args(argv)
    out_path = Path(args.out)
    if args.trace:
        result = run_traced(args.workload, args.configs, args.seconds,
                            out_path.parent)
    else:
        w = KINDS[args.workload](args.workload, args.configs)
        setup_s = time.perf_counter() - T_START
        # set-up is mostly importing; the simulation kernel tracks it best
        setup_s /= statistics.median(calibrate("sim") for _ in range(5))
        if args.setup_only:
            result = {"setup_s": setup_s}
        else:
            result = run_untraced(w, args.seconds, setup_s)
    out_path.write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
