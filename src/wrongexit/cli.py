"""Config-driven command line front end.

Subcommands wire models, solvers, proposal builders and the Monte Carlo
engine into reproducible experiments:

    solve   write the tilt-solution table and proposal manifest
    check   evaluate the efficiency condition; exit status reflects holds
    run     decay scan over a b grid; writes run JSON and plot CSV
    oracle  mixture estimate vs plain Monte Carlo cross-validation
    table   maximal-rho table over a correlation grid for three conditions
    sweep   condition sweeps (siegmund_rho | gap_v | si_rho) as CSV

``table`` and ``sweep`` share one grid driver, which solves the programs
of every grid point in one checked block, naming the point of a failure;
``table`` certifies the direct condition of all its cells in one stacked
pass.
Each command computes its rows before it makes its output directory.

Every command is idempotent for a fixed config and seed: outputs are
byte-identical on re-runs (timing is logged to stderr, never written into
result files).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
from pathlib import Path
import sys
import time

import numpy as np

from .active_set import checked_block_solve
from .engine import RunConfig, decay_scan, estimate_wrong_exit, plain_mc
from .models import (
    IndependentModel,
    MvNormalModel,
    Normal,
    ShiftedExponential,
    exchangeable_mvnormal,
)
from .proposals import (
    VARIANTS,
    EfficiencyReport,
    MixtureProposal,
    build_gap,
    build_siegmund,
    build_sum_intersection,
    candidate_betas,
    direct_certificate,
    plain_proposal,
    problem_record,
    solve_cache,
)
from .regions import GapRule, SiegmundRule, SumIntersectionRule
from .solvers import (
    beta_program,
    gamma_pair_program,
    si_s_program,
    si_z_program,
    solve_gamma_single,
    validate_drifts,
)


# sum-intersection audit records kept in a ``solve`` manifest
SOLUTION_CAP = 500
GRID_CAP = 10_000  # points of a start/stop/step grid


class ConfigError(ValueError):
    """Invalid experiment config; message carries the offending field path."""


def _object(val, path: str) -> dict:
    if not isinstance(val, dict):
        raise ConfigError(f"{path}: {val!r} is not an object")
    return val


def _need(cfg: dict, key: str, path: str):
    if key not in _object(cfg, path):
        raise ConfigError(f"{path}.{key}: missing required field")
    return cfg[key]


def _section(cfg: dict, key: str, required: bool = False) -> dict:
    """The config section ``cfg[key]``, an object; {} when it is absent
    and not ``required``."""
    if required or key in _object(cfg, "config"):
        return _object(_need(cfg, key, "config"), key)
    return {}


def _number(val, path: str, cast=float):
    """``val`` through ``cast``; a value it rejects, a float with a
    fractional part for ``int`` (which would truncate it), or a result
    with a nan or infinite entry is a ConfigError."""
    try:
        if cast is int and isinstance(val, float) and not val.is_integer():
            raise ValueError
        out = cast(val)
    except (TypeError, ValueError, OverflowError):
        kind = {int: "an integer", float: "a number"}.get(cast, "numeric")
        raise ConfigError(f"{path}: {val!r} is not {kind}") from None
    if cast is not int and not np.all(np.isfinite(out)):
        raise ConfigError(f"{path}: {val!r} is not finite")
    return out


def _floats(val):
    return np.asarray(val, dtype=float)


def _list(val, path: str, each=_number) -> list:
    """``each(x, path[i])`` for the entries x of the list ``val``."""
    if not isinstance(val, (list, tuple)):
        raise ConfigError(f"{path}: {val!r} is not a list")
    return [each(x, f"{path}[{i}]") for i, x in enumerate(val)]


def _positive(val, path: str, cast=float):
    """``val`` through ``cast``, which must come out positive."""
    x = _number(val, path, cast)
    if not x > 0:
        raise ConfigError(f"{path}: {x} is not positive")
    return x


def _seed(args, spec: dict, path: str) -> int:
    """``--seed`` if given, else the config's ``seed``; a ``SeedSequence``
    word, 0..2**64 - 2, as ``oracle`` also uses seed + 1."""
    val, path = ((args.seed, "--seed") if args.seed is not None
                 else (_need(spec, "seed", path), f"{path}.seed"))
    seed = _number(val, path, int)
    if not 0 <= seed <= 2 ** 64 - 2:
        raise ConfigError(f"{path}: {seed} is outside 0..2**64 - 2")
    return seed


def build_model(spec: dict, path: str = "model"):
    family = _need(spec, "family", path)
    if family == "mvnormal":
        mean = _mean_vector(spec, path)
        d = mean.shape[0]
        if "cov" in spec:
            cov = _number(spec["cov"], f"{path}.cov", _floats)
        else:
            rho = _number(spec.get("rho", 0.0), f"{path}.rho")
            sigma2 = _number(spec.get("sigma2", 1.0), f"{path}.sigma2")
            cov = sigma2 * ((1 - rho) * np.eye(d) + rho * np.ones((d, d)))
        try:
            return MvNormalModel(mean, cov)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if family == "independent":
        comps = sum(_list(_need(spec, "components", path),
                          f"{path}.components", _scalar_component), [])
        try:
            return IndependentModel(comps)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.family: unknown family {family!r}")


def _mean_vector(spec, path):
    d = spec.get("dim")
    if d is not None:
        d = _positive(d, f"{path}.dim", int)
    mean = _need(spec, "mean", path)
    if isinstance(mean, (int, float)):
        if d is None:
            raise ConfigError(f"{path}.dim: required with scalar mean")
        return np.full(d, _number(mean, f"{path}.mean"))
    if isinstance(mean, dict):
        if d is None:
            raise ConfigError(f"{path}.dim: required with head/tail mean")
        split = _number(_need(mean, "split", f"{path}.mean"),
                        f"{path}.mean.split", int)
        if not 0 <= split <= d:
            raise ConfigError(f"{path}.mean.split: {split} is outside 0..{d}")
        v = np.full(d, _number(_need(mean, "tail", f"{path}.mean"),
                               f"{path}.mean.tail"))
        v[:split] = _number(_need(mean, "head", f"{path}.mean"),
                            f"{path}.mean.head")
        return v
    mean = _number(mean, f"{path}.mean", _floats)
    if d is not None and mean.shape != (d,):
        raise ConfigError(f"{path}.dim: {d} does not match the "
                          f"{mean.size} entries of {path}.mean")
    return mean


_COMPONENTS = {"normal": (Normal, ("mu", "sigma2")),
               "shifted_exponential": (ShiftedExponential, ("rate", "shift"))}


def _scalar_component(c, path):
    kind = _need(c, "type", path)
    if not isinstance(kind, str) or kind not in _COMPONENTS:
        raise ConfigError(f"{path}.type: unknown component type {kind!r}")
    n = _positive(c.get("count", 1), f"{path}.count", int)
    cls, keys = _COMPONENTS[kind]
    vals = [_number(_need(c, key, path), f"{path}.{key}") for key in keys]
    try:
        return [cls(*vals)] * n
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_RULE_FIELDS = {"siegmund": (SiegmundRule, float, ("ell", "u")),
                "gap": (GapRule, int, ("m",)),
                "sum_intersection": (SumIntersectionRule, int, ("L",))}


def build_rule(spec: dict, path: str = "problem"):
    kind = _need(spec, "kind", path)
    if not isinstance(kind, str) or kind not in _RULE_FIELDS:
        raise ConfigError(f"{path}.kind: unknown problem kind {kind!r}")
    cls, cast, keys = _RULE_FIELDS[kind]
    return cls(*(_positive(_need(spec, key, path), f"{path}.{key}", cast)
                 for key in keys))


def _check_size(rule, d: int, builder: bool) -> None:
    """Reject a gap m outside 1..d-1 or a sum-intersection L outside 1..d,
    or, when ``builder``, outside the builders' 2..d-2 and 2..d-1."""
    if isinstance(rule, SiegmundRule):
        return
    key = "m" if isinstance(rule, GapRule) else "L"
    val, lo = getattr(rule, key), 1 + builder
    hi = d - builder - (key == "m")
    if not lo <= val <= hi:
        raise ConfigError(f"problem.{key}: {val} is outside {lo}..{hi} at "
                          f"d = {d}")


def build_proposal(model, rule, prop_spec: dict, path: str = "proposal",
                   cache=None):
    """The proposal and its report, if it has one; a builder solves
    through ``cache``, a ``solve_cache`` of the rule and model, when one
    is given."""
    _check_size(rule, model.dim, builder=False)
    manifest_path = prop_spec.get("manifest")
    if manifest_path:
        with open(manifest_path) as fh:
            man = json.load(fh)
        where = f"{path}.manifest"
        if not isinstance(man, dict):
            raise ConfigError(f"{where}: {manifest_path} holds a JSON "
                              f"{type(man).__name__}, not an object")
        have = _object(man.get("problem", {}), f"{where}.problem")
        for key, want in problem_record(rule, model.dim).items():
            if have.get(key) != want:
                raise ConfigError(
                    f"{where}: solved for {key} = {have.get(key)!r},"
                    f" but the config has {key} = {want!r}")
        for key in ("thetas", "lambdas", "provenance"):
            _need(man, key, where)
        labels = man["provenance"]
        if not (isinstance(labels, list)
                and all(isinstance(p, str) for p in labels)):
            raise ConfigError(f"{where}.provenance: {labels!r} is not a list "
                              "of strings, one per row of thetas")
        try:
            prop = MixtureProposal.from_manifest(man)
            prop.check_lambdas(model)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        rep = None
        if "report" in man:
            report = _object(man["report"], f"{where}.report")
            try:
                rep = EfficiencyReport(**report)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{where}.report: {exc}") from exc
        return prop, rep
    variant = prop_spec.get("variant", "plain")
    if variant == "plain":
        return plain_proposal(rule, model.dim), None
    known = VARIANTS[rule.kind]
    if str(variant).lower() not in known:
        raise ConfigError(f"{path}.variant: unknown {rule.kind} variant "
                          f"{variant!r}; expected 'plain' or one of {known}")
    _check_size(rule, model.dim, builder=True)
    _check_drifts(rule, model)
    if isinstance(rule, SiegmundRule):
        return build_siegmund(variant, model, rule.ell, rule.u, cache)
    if isinstance(rule, GapRule):
        return build_gap(variant, model, rule.m, cache)
    return build_sum_intersection(model, rule.L, cache)


def _check_drifts(rule, model):
    try:
        validate_drifts(rule, model)
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from exc


def load_config(path: str, paper_scale: bool = False) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if paper_scale:
        for key, val in _section(cfg, "paper_scale").items():
            if isinstance(val, dict) and isinstance(cfg.get(key), dict):
                cfg[key] = {**cfg[key], **val}
            else:
                cfg[key] = val
    _need(cfg, "name", "config")
    _need(cfg, "model", "config")
    return cfg


def _out_dir(cfg, args) -> Path:
    out = Path(args.out or _section(cfg, "outputs").get("dir", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _strict(obj):
    """``obj`` with each non-finite float spelled "inf", "-inf" or "nan",
    as the CSVs spell it, since RFC 8259 JSON has no token for them."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(float(obj))
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _dump_json(obj, path: Path):
    path.write_text(json.dumps(_strict(obj), indent=2, sort_keys=True,
                               allow_nan=False) + "\n")


def _log(msg):
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_solve(cfg, args) -> int:
    model = build_model(cfg["model"])
    rule = build_rule(_section(cfg, "problem", True))
    _check_size(rule, model.dim, builder=False)
    cache = solve_cache(rule, model)
    prop, rep = build_proposal(model, rule, _section(cfg, "proposal"),
                               cache=cache)
    _check_drifts(rule, model)
    solutions, total = _solution_table(model, rule, cache)
    man = prop.to_manifest(rep, solutions)
    man["solutions_total"] = total
    man["solutions_truncated"] = total > len(solutions)
    out = _out_dir(cfg, args) / f"{cfg['name']}_proposal.json"
    _dump_json(man, out)
    _log(f"wrote {out} ({len(prop)} components)")
    if args.strict and rep is not None and not rep.holds:
        _log("strict: efficiency condition failed")
        return 1
    return 0


def _solution_table(model, rule, cache):
    """Audit records of the candidate-region tilts, which are the
    mixture's beta^A rows, and the number of candidate regions;
    sum-intersection records stop at SOLUTION_CAP.  The tilts are read
    from ``cache``, where a builder has already solved them."""
    si = isinstance(rule, SumIntersectionRule)
    regions, rates, betas, resid, _ = candidate_betas(
        rule, model, SOLUTION_CAP if si else None, cache)
    recs = [{"problem": rule.kind, "A": list(A), "r": r, "beta": beta,
             "residual": res}
            for A, r, beta, res in zip(regions, rates.tolist(),
                                       betas.tolist(), resid.tolist())]
    return recs, math.comb(model.dim, rule.L) if si else len(recs)


def cmd_check(cfg, args) -> int:
    model = build_model(cfg["model"])
    rule = build_rule(_section(cfg, "problem", True))
    spec = _section(cfg, "proposal")
    defaults = {"siegmund": "theta1", "gap": "t1", "sum_intersection": "si"}
    variant = spec.get("variant", defaults[rule.kind])
    _, rep = build_proposal(model, rule, {**spec, "variant": variant})
    if rep is None:
        raise ConfigError("proposal.variant: no condition to check for "
                          f"variant {variant!r}")
    out = _out_dir(cfg, args) / f"{cfg['name']}_check.json"
    _dump_json(rep.as_dict(), out)
    _log(f"wrote {out}: condition {rep.condition} "
         f"{'holds' if rep.holds else 'FAILS'} "
         f"(lhs={rep.lhs:.6g}, rhs={rep.rhs:.6g})")
    return 0 if rep.holds else 1


def _workers(args, spec: dict, path: str) -> int:
    """``--workers`` if given, else the config's value; 1..os.cpu_count()."""
    w = _number(spec.get("workers", 1) if args.workers is None
                else args.workers, f"{path}.workers", int)
    if not 1 <= w <= (os.cpu_count() or 1):
        raise ConfigError(f"{path}.workers: {w} is outside 1..os.cpu_count()"
                          f" = {os.cpu_count() or 1}")
    return w


def cmd_run(cfg, args) -> int:
    run_spec = _section(cfg, "run", True)
    seed = _seed(args, run_spec, "run")
    workers = _workers(args, run_spec, "run")
    b_grid = _list(_need(run_spec, "b_grid", "run"), "run.b_grid", _positive)
    if not b_grid or b_grid != sorted(b_grid):
        raise ConfigError(f"run.b_grid: {b_grid} is not a nonempty "
                          "ascending grid")
    n_paths = _positive(_need(run_spec, "n_paths", "run"), "run.n_paths", int)
    max_steps = run_spec.get("max_steps")
    if max_steps is not None:
        max_steps = _positive(max_steps, "run.max_steps", int)
    model = build_model(cfg["model"])
    rule = build_rule(_section(cfg, "problem", True))
    prop, rep = build_proposal(model, rule, _section(cfg, "proposal"))

    t0 = time.perf_counter()
    rows = decay_scan(model, prop, rule, b_grid, n_paths, seed,
                      max_steps=max_steps, workers=workers)
    elapsed = time.perf_counter() - t0

    keys = ["b", "p_hat", "neg_log10_p", "rel_err"]
    csv_path = _write_csv(cfg, args, "scan", keys,
                          [[repr(row[k]) for k in keys] for row in rows])
    run_json = {
        "name": cfg["name"],
        "config": {"b_grid": b_grid, "n_paths": n_paths, "seed": seed,
                   "max_steps": max_steps,
                   "variant": prop.variant, "size": len(prop)},
        "rows": rows,
        "report": rep.as_dict() if rep is not None else None,
    }
    json_path = csv_path.parent / f"{cfg['name']}_run.json"
    _dump_json(run_json, json_path)
    _log(f"wrote {csv_path} and {json_path} in {elapsed:.1f}s")

    truncated = sum(r["truncation_count"] for r in rows)
    if truncated:
        _log(f"WARNING: {truncated} truncated paths")
    if args.strict:
        bad = truncated > 0 or (rep is not None and not rep.holds)
        if bad:
            _log("strict: run failed (truncation or condition failure)")
            return 1
    return 0


def cmd_oracle(cfg, args) -> int:
    osp = _section(cfg, "oracle", True)
    b = _positive(_need(osp, "b", "oracle"), "oracle.b")
    seed = _seed(args, osp, "oracle")
    workers = _workers(args, osp, "oracle")
    n_mix, n_plain = (_positive(_need(osp, key, "oracle"), f"oracle.{key}",
                                int) for key in ("n_mixture", "n_plain"))
    model = build_model(cfg["model"])
    rule = build_rule(_section(cfg, "problem", True))
    prop, _ = build_proposal(model, rule, _section(cfg, "proposal"))
    mix_cfg = RunConfig(b=b, n_paths=n_mix, seed=seed, workers=workers)
    plain_cfg = RunConfig(b=b, n_paths=n_plain, seed=seed + 1,
                          workers=workers)
    mix = estimate_wrong_exit(model, prop, rule, mix_cfg)
    pl = plain_mc(model, rule, plain_cfg)
    se = math.hypot(mix.std_error, pl.std_error)
    z = (mix.mean - pl.mean) / se if se > 0 else math.inf
    report = {
        "b": b,
        "mixture": mix.to_json_dict(),
        "plain": pl.to_json_dict(),
        "z_score": z,
    }
    out = _out_dir(cfg, args) / f"{cfg['name']}_oracle.json"
    _dump_json(report, out)
    _log(f"wrote {out}: mixture={mix.mean:.4g} plain={pl.mean:.4g} z={z:.2f}")
    return 0


def _grid_rows(points, row) -> list:
    """``row(x, values)`` at each grid point of ``points``, (name, x,
    programs) triples; a closed-form TiltSolution may stand in for a
    program.  The programs of every point go through one
    ``checked_block_solve``, which names the grid point of a failure."""
    names = [name for name, _, ps in points for _ in ps]
    vals = iter(checked_block_solve(names.__getitem__,
                                    [p for _, _, ps in points for p in ps]))
    return [row(x, [next(vals).value for _ in ps]) for _, x, ps in points]


def _write_csv(cfg, args, kind, header, rows) -> Path:
    """Write ``rows`` to ``<name>_<kind>.csv``, making the output dir."""
    out = _out_dir(cfg, args) / f"{cfg['name']}_{kind}.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return out


def cmd_table(cfg, args) -> int:
    """Maximal rho on a grid such that (H1), (H2) and the direct condition
    hold, for a span of upper barriers (two-barrier problem, d fixed).  A
    grid point is a (rho, u) cell; each rho's model serves every u, and one
    stacked ``direct_certificate`` certifies the direct condition of every
    cell."""
    spec = _section(cfg, "table")
    d = _positive(spec.get("d", 50), "table.d", int)
    ell = _positive(spec.get("ell", 1.0), "table.ell")
    u_values = _list(spec.get("u_values", [3, 2, 1, 0.5, 1 / 3]),
                     "table.u_values", _positive)
    if not u_values:
        raise ConfigError("table.u_values: the list is empty")
    rhos = _rho_grid(spec, d, "table")
    rules = [SiegmundRule(ell, u) for u in u_values]
    models = [exchangeable_mvnormal(d, -0.5, rho) for rho in rhos]
    direct = direct_certificate([m for m in models for _ in rules], ell,
                                [rule.u for _ in models for rule in rules])
    points = []
    for i, (rho, model) in enumerate(zip(rhos, models)):
        for j, rule in enumerate(rules):
            points.append((
                f"table.rho_grid[{i}] = {rho}, table.u_values[{j}] = {rule.u}",
                (rho, j, len(points)), [solve_gamma_single(0, rule, model),
                                        gamma_pair_program(0, 1, rule, model)]))

    def holds(x, vals):  # (H1), (H2) and the direct condition at a cell
        (rho, j, c), (uz, s) = x, vals
        r = direct.r_star[c]
        return rho, j, (uz + s >= 2 * r - 1e-12, 2 * s >= 2 * r - 1e-12,
                        direct.holds[c])

    rows = [[repr(u), None, None, None] for u in u_values]
    for rho, j, flags in _grid_rows(points, holds):  # the last rho that holds
        rows[j][1:] = [rho if ok else v for ok, v in zip(flags, rows[j][1:])]
    for u, (_, h1, h2, direct) in zip(u_values, rows):
        _log(f"u={u:g}: H1<= {h1}  H2<= {h2}  direct<= {direct}")
    out = _write_csv(cfg, args, "table", ["u", "H1_max_rho", "H2_max_rho",
                                          "direct_max_rho"], rows)
    _log(f"wrote {out}")
    return 0


def cmd_sweep(cfg, args) -> int:
    """A condition sweep, whose ``_SWEEPS`` entry gives its grid."""
    spec = _section(cfg, "sweep", True)
    kind = _need(spec, "kind", "sweep")
    if not isinstance(kind, str) or kind not in _SWEEPS:
        raise ConfigError(f"sweep.kind: unknown sweep {kind!r}")
    d = _positive(spec.get("d", 50), "sweep.d", int)
    header, points, row = _SWEEPS[kind](spec, d)
    out = _write_csv(cfg, args, "sweep", header, _grid_rows(points, row))
    _log(f"wrote {out}")
    return 0


def _float_grid(spec, key, default, path):
    """A nonempty list of floats, or start + i step for i = 0..round((stop -
    start) / step) rounded to 10 digits."""
    g = spec.get(key, default)
    if isinstance(g, dict):
        start, stop, step = (_number(_need(g, k, f"{path}.{key}"),
                                     f"{path}.{key}.{k}")
                             for k in ("start", "stop", "step"))
        if not step > 0:
            raise ConfigError(f"{path}.{key}.step: {step} is not positive")
        n = (stop - start) / step
        if not math.isfinite(n):
            raise ConfigError(f"{path}.{key}: {start}..{stop} is not finite")
        if round(n) + 1 > GRID_CAP:
            raise ConfigError(f"{path}.{key}: {start}..{stop} by {step} has "
                              f"{round(n) + 1} points, above {GRID_CAP}")
        grid = [round(start + i * step, 10) for i in range(round(n) + 1)]
    else:
        grid = _list(g, f"{path}.{key}")
    if not grid:
        raise ConfigError(f"{path}.{key}: the grid is empty")
    return grid


def _rho_grid(spec, d, path):
    """The ``rho_grid`` of a table or sweep in dimension d >= 2 (default
    0, 0.01, ..., 0.9); every rho must lie in (-1/(d-1), 1)."""
    if d < 2:
        raise ConfigError(f"{path}.d: {d} is below 2")
    rhos = _float_grid(spec, "rho_grid",
                       {"start": 0.0, "stop": 0.90, "step": 0.01}, path)
    for rho in rhos:
        if not -1.0 / (d - 1) < rho < 1.0:
            raise ConfigError(f"{path}.rho_grid: rho = {rho} is outside "
                              f"(-1/(d-1), 1) = ({-1.0 / (d - 1):g}, 1)")
    return rhos


def _bound_row(x, r, h1, h2):
    """A sweep row: x, r, two bounds on r and whether r meets each."""
    return [repr(float(x)), repr(r), repr(h1), repr(h2),
            int(r <= h1 + 1e-12), int(r <= h2 + 1e-12)]


def _sweep_siegmund_rho(spec, d):
    ell = _positive(spec.get("ell", 1.0), "sweep.ell")
    u = _positive(spec.get("u", 1.0), "sweep.u")
    rule = SiegmundRule(ell, u)
    points = [(f"sweep.rho_grid[{i}] = {rho}", rho, [beta_program(
        [0], rule, exchangeable_mvnormal(d, -0.5, rho))])
        for i, rho in enumerate(_rho_grid(spec, d, "sweep"))]
    return (["rho", "r", "h1_bound", "h2_bound", "h1_holds", "h2_holds"],
            points, lambda rho, vals: _bound_row(
                rho, vals[0], u / (1 + rho) + u / 2, 2 * u / (1 + rho)))


def _sweep_gap_v(spec, d):
    m = _number(spec.get("m", 25), "sweep.m", int)
    if not 1 <= m <= d - 1:
        raise ConfigError(f"sweep.m: {m} is outside 1..d-1 = 1..{d - 1}")
    rule = GapRule(m)
    vs = _float_grid(spec, "v_grid", np.geomspace(0.05, 20.0, 61).tolist(),
                     "sweep")
    vs = [_positive(v, f"sweep.v_grid[{i}]") for i, v in enumerate(vs)]
    A = sorted(set(range(m)) - {0} | {m})
    points = [(f"sweep.v_grid[{i}] = {v}", v, [beta_program(A, rule, (
        IndependentModel([Normal(0.5, 1.0)] * m
                         + [Normal(-0.5, float(v))] * (d - m))))])
        for i, v in enumerate(vs)]
    return (["v", "min_r_A", "h1p_bound", "h2p_bound", "h1p_holds",
             "h2p_holds"], points,
            lambda v, vals: _bound_row(v, vals[0], 3 / (1 + v), 4 / (1 + v)))


def _sweep_si_rho(spec, d):
    L = _number(spec.get("L", 2), "sweep.L", int)
    rhos = _rho_grid(spec, d, "sweep")
    if not 1 <= L <= d - 1:
        raise ConfigError(f"sweep.L: {L} is outside 1..d-1 = 1..{d - 1}")
    rule = SumIntersectionRule(L)
    points = []
    for i, rho in enumerate(rhos):
        model = exchangeable_mvnormal(d, -0.5, rho)
        points.append((f"sweep.rho_grid[{i}] = {rho}", rho, [
            beta_program(range(L), rule, model),
            si_z_program(range(L), rule, model),
            si_s_program(range(L + 1), rule, model)]))
    return (["rho", "r_A", "z_A", "s_B", "hsi_holds"], points,
            lambda rho, v: [repr(float(rho)), *map(repr, v),
                            int(v[1] + v[2] >= 2 * v[0] - 1e-12)])


_SWEEPS = {"siegmund_rho": _sweep_siegmund_rho, "gap_v": _sweep_gap_v,
           "si_rho": _sweep_si_rho}


COMMANDS = {
    "solve": cmd_solve,
    "check": cmd_check,
    "run": cmd_run,
    "oracle": cmd_oracle,
    "table": cmd_table,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wrongexit",
        description="Wrong-exit probability estimation via tilted mixtures",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="experiment JSON")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--paper-scale", action="store_true",
                        help="apply the config's paper_scale overrides")
    parser.add_argument("--strict", action="store_true",
                        help="nonzero exit on truncation or failed condition")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, paper_scale=args.paper_scale)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
