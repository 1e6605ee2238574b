"""Command-line harness: config validation, outputs, idempotency."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from wrongexit.cli import (ConfigError, build_model, build_proposal,
                           build_rule, main)
from wrongexit.solvers import SolverError

TINY_SIEGMUND = {
    "name": "tiny",
    "model": {
        "family": "independent",
        "components": [{"type": "normal", "mu": -0.5, "sigma2": 1.0,
                        "count": 2}],
    },
    "problem": {"kind": "siegmund", "ell": 1.0, "u": 1.0},
    "proposal": {"variant": "theta1"},
    "run": {"b_grid": [3.0, 4.0], "n_paths": 2000, "seed": 17},
    "outputs": {"dir": "out"},
}


# file contents that are not a JSON document: none (a missing file),
# malformed JSON and bytes that are not UTF-8
UNREADABLE = [None, b'{"name": ', b'\xff{}']
UNREADABLE_IDS = ["missing", "malformed", "not-utf8"]


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def strict_load(path):
    """The JSON file at ``path``, refusing NaN, Infinity and -Infinity,
    which RFC 8259 does not allow."""
    def refuse(token):
        raise ValueError(f"{path}: non-RFC 8259 token {token}")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


class TestConfigParsing:
    def test_missing_field_path_in_error(self):
        with pytest.raises(ConfigError, match="model.family"):
            build_model({})
        with pytest.raises(ConfigError, match="problem.kind"):
            build_rule({})
        with pytest.raises(ConfigError, match=r"components\[0\].mu"):
            build_model({"family": "independent",
                         "components": [{"type": "normal"}]})

    def test_mean_shorthands(self):
        m = build_model({"family": "mvnormal", "dim": 4, "mean": -0.5,
                         "rho": 0.2})
        np.testing.assert_array_equal(m.mean, np.full(4, -0.5))
        m = build_model({"family": "mvnormal", "dim": 4,
                         "mean": {"head": 0.5, "tail": -0.5, "split": 2},
                         "rho": 0.0})
        np.testing.assert_array_equal(m.mean, [0.5, 0.5, -0.5, -0.5])

    def test_component_counts(self):
        m = build_model({"family": "independent", "components": [
            {"type": "normal", "mu": -0.5, "sigma2": 1.0, "count": 3},
            {"type": "shifted_exponential", "rate": 2.0, "shift": -0.7},
        ]})
        assert m.dim == 4

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="unknown family"):
            build_model({"family": "cauchy"})

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {"name": "x", "model": {"family": "bad"}})
        assert main(["solve", "--config", path]) == 2

    @pytest.mark.parametrize("data", UNREADABLE, ids=UNREADABLE_IDS)
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, data):
        path = tmp_path / "cfg.json"
        if data is not None:
            path.write_bytes(data)
        assert main(["solve", "--config", str(path)]) == 2
        assert (f"config error: --config: cannot read {path}: "
                in capsys.readouterr().err)


class TestCommands:
    def test_solve_writes_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_SIEGMUND)
        out = tmp_path / "o"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        man = json.loads((out / "tiny_proposal.json").read_text())
        assert man["schema"] == "wrongexit-proposal-1"
        assert man["size"] == len(man["thetas"])
        assert man["report"]["condition"] == "H1"
        assert all(rec["residual"] <= 1e-8 for rec in man["solutions"])

    @pytest.mark.parametrize("model, problem, variant, orbits", [
        ({"family": "mvnormal", "dim": 4, "mean": -0.5, "rho": 0.2},
         {"kind": "siegmund", "ell": 1.0, "u": 1.0}, "theta1", 1),
        ({"family": "independent", "components": [
            {"type": "normal", "mu": 0.5, "sigma2": 1.0, "count": 2},
            {"type": "normal", "mu": -0.5, "sigma2": 2.0, "count": 3}]},
         {"kind": "gap", "m": 2}, "t1", 1),
        ({"family": "mvnormal", "mean": [-0.5, -0.6, -0.7, -0.8, -0.9],
          "rho": 0.1}, {"kind": "sum_intersection", "L": 2}, "si", 10),
    ])
    def test_solve_solves_each_orbit_once(self, tmp_path, monkeypatch,
                                          model, problem, variant, orbits):
        from wrongexit import proposals

        calls = []
        beta_program = proposals.beta_program
        monkeypatch.setattr(proposals, "beta_program",
                            lambda *a: calls.append(a) or beta_program(*a))
        out = tmp_path / "o"
        # the audit alone (plain proposal), then the build, whose candidate
        # block the audit reads
        for built, n_calls in (("plain", orbits), (variant, orbits)):
            calls.clear()
            cfg = write_cfg(tmp_path, {"name": "orb", "model": model,
                                       "problem": problem,
                                       "proposal": {"variant": built}})
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
            assert len(calls) == n_calls
        man = json.loads((out / "orb_proposal.json").read_text())
        rows = {label: i for i, prov in enumerate(man["provenance"])
                for label in prov.split("=")}
        assert len(man["solutions"]) == man["solutions_total"]
        for rec in man["solutions"]:
            label = "beta[{" + ",".join(map(str, rec["A"])) + "}]"
            assert rec["beta"] == man["thetas"][rows[label]]

    def test_solve_records_solution_truncation(self, tmp_path, monkeypatch):
        from wrongexit import cli

        cfg = write_cfg(tmp_path, {
            "name": "si",
            "model": {"family": "mvnormal", "dim": 4, "mean": -0.5,
                      "rho": 0.1},
            "problem": {"kind": "sum_intersection", "L": 2},
            "proposal": {"variant": "si"},
        })
        out = tmp_path / "o"
        for cap, kept in ((cli.SOLUTION_CAP, 6), (4, 4)):
            monkeypatch.setattr(cli, "SOLUTION_CAP", cap)
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
            man = json.loads((out / "si_proposal.json").read_text())
            assert len(man["solutions"]) == kept
            assert man["solutions_total"] == 6
            assert man["solutions_truncated"] is (kept < 6)

    def test_run_consumes_manifest_verbatim(self, tmp_path):
        cfg_path = write_cfg(tmp_path, TINY_SIEGMUND)
        out = tmp_path / "o"
        assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 0
        cfg2 = dict(TINY_SIEGMUND)
        cfg2["name"] = "tiny2"
        cfg2["proposal"] = {"manifest": str(out / "tiny_proposal.json")}
        cfg2_path = write_cfg(tmp_path, cfg2, "cfg2.json")
        assert main(["run", "--config", cfg2_path, "--out", str(out)]) == 0
        run = json.loads((out / "tiny2_run.json").read_text())
        assert len(run["rows"]) == 2

    def solved_manifest(self, tmp_path):
        cfg_path = write_cfg(tmp_path, TINY_SIEGMUND)
        out = tmp_path / "o"
        assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 0
        return out / "tiny_proposal.json"

    def run_on_manifest(self, tmp_path, manifest, **changes):
        cfg = {**TINY_SIEGMUND, "name": "on_manifest",
               "proposal": {"manifest": str(manifest)}, **changes}
        path = write_cfg(tmp_path, cfg, "on_manifest.json")
        return main(["run", "--config", path, "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("problem, field", [
        ({"kind": "siegmund", "ell": 1.0, "u": 3.0}, "u"),
        ({"kind": "siegmund", "ell": 2.0, "u": 1.0}, "ell"),
        ({"kind": "sum_intersection", "L": 2}, "kind"),
    ])
    def test_manifest_for_another_problem_is_config_error(
            self, tmp_path, capsys, problem, field):
        manifest = self.solved_manifest(tmp_path)
        assert self.run_on_manifest(tmp_path, manifest,
                                    problem=problem) == 2
        err = capsys.readouterr().err
        assert f"proposal.manifest: solved for {field} = " in err

    def test_manifest_for_another_dimension_is_config_error(self, tmp_path,
                                                             capsys):
        manifest = self.solved_manifest(tmp_path)
        model = {"family": "mvnormal", "dim": 3, "mean": -0.5}
        assert self.run_on_manifest(tmp_path, manifest, model=model) == 2
        assert "proposal.manifest: solved for d = 2" in capsys.readouterr().err

    @pytest.mark.parametrize("data", UNREADABLE, ids=UNREADABLE_IDS)
    def test_unreadable_manifest_is_config_error(self, tmp_path, capsys,
                                                 data):
        manifest = tmp_path / "manifest.json"
        if data is not None:
            manifest.write_bytes(data)
        assert self.run_on_manifest(tmp_path, manifest) == 2
        assert (f"config error: proposal.manifest: cannot read {manifest}: "
                in capsys.readouterr().err)

    def test_manifest_cgf_errors_are_config_errors(self, tmp_path, capsys):
        manifest = self.solved_manifest(tmp_path)
        solved = manifest.read_text()
        for nan in ("nan", math.nan):  # as _strict and json.dumps spell it
            man = json.loads(solved)
            man["lambdas"][0] = nan
            manifest.write_text(json.dumps(man))
            assert self.run_on_manifest(tmp_path, manifest) == 2
            err = capsys.readouterr().err
            assert "proposal.manifest: component " in err
            assert "has Lambda(theta) = nan, not a finite value" in err
        man = json.loads(solved)
        man["lambdas"][0] -= 1e-3
        manifest.write_text(json.dumps(man))
        assert self.run_on_manifest(tmp_path, manifest) == 2
        err = capsys.readouterr().err
        assert "proposal.manifest: stored CGF values off" in err
        man["thetas"] = [t + [0.0] for t in man["thetas"]]
        manifest.write_text(json.dumps(man))
        assert self.run_on_manifest(tmp_path, manifest) == 2
        assert "proposal.manifest: tilt has shape" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda man: [man],
                     ": {path} holds a JSON list, not an object", id="list"),
        pytest.param(lambda man: {k: v for k, v in man.items()
                                  if k != "thetas"},
                     ".thetas: missing required field", id="no-thetas"),
        pytest.param(lambda man: {k: v for k, v in man.items()
                                  if k != "lambdas"},
                     ".lambdas: missing required field", id="no-lambdas"),
        pytest.param(lambda man: {k: v for k, v in man.items()
                                  if k != "provenance"},
                     ".provenance: missing required field",
                     id="no-provenance"),
        pytest.param(lambda man: {**man, "provenance": list(range(
            len(man["provenance"])))}, ".provenance: [0, ",
                     id="provenance-numbers"),
        pytest.param(lambda man: {**man, "provenance": "x" * len(
            man["provenance"])}, ".provenance: 'x",
                     id="provenance-string"),
        pytest.param(lambda man: {**man, "report": "x"},
                     ".report: 'x' is not an object", id="report-string"),
        pytest.param(lambda man: {**man, "report": {**man["report"],
                                                    "extra": 1}},
                     ".report: ", id="report-unknown-field"),
        pytest.param(lambda man: {**man, "problem": ["x"]},
                     ".problem: ['x'] is not an object", id="problem-list"),
    ])
    def test_manifest_of_the_wrong_shape_is_config_error(
            self, tmp_path, capsys, edit, message):
        manifest = self.solved_manifest(tmp_path)
        manifest.write_text(json.dumps(edit(json.loads(
            manifest.read_text()))))
        assert self.run_on_manifest(tmp_path, manifest) == 2
        message = message.format(path=manifest)
        assert (f"config error: proposal.manifest{message}"
                in capsys.readouterr().err)

    def test_manifest_without_margins_dropped_loads(self, tmp_path):
        manifest = self.solved_manifest(tmp_path)
        man = json.loads(manifest.read_text())
        assert man["report"]["margins_dropped"] == 0
        del man["report"]["margins_dropped"]
        manifest.write_text(json.dumps(man))
        assert self.run_on_manifest(tmp_path, manifest) == 0
        run = json.loads((tmp_path / "o" / "on_manifest_run.json").read_text())
        assert run["report"]["margins_dropped"] == 0

    def test_run_idempotent_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_SIEGMUND)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        first_json = (out / "tiny_run.json").read_bytes()
        first_csv = (out / "tiny_scan.csv").read_bytes()
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "tiny_run.json").read_bytes() == first_json
        assert (out / "tiny_scan.csv").read_bytes() == first_csv

    def test_csv_schema(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_SIEGMUND)
        out = tmp_path / "o"
        main(["run", "--config", cfg, "--out", str(out)])
        lines = (out / "tiny_scan.csv").read_text().strip().splitlines()
        assert lines[0] == "b,p_hat,neg_log10_p,rel_err"
        assert len(lines) == 3

    def test_check_exit_reflects_condition(self, tmp_path):
        good = dict(TINY_SIEGMUND)
        good["model"] = {"family": "mvnormal", "dim": 10, "mean": -0.5,
                        "rho": 0.2}
        path = write_cfg(tmp_path, good, "good.json")
        out = tmp_path / "o"
        assert main(["check", "--config", path, "--out", str(out)]) == 0
        bad = dict(good)
        bad["name"] = "bad"
        bad["model"] = {"family": "mvnormal", "dim": 10, "mean": -0.5,
                        "rho": 0.8}
        path = write_cfg(tmp_path, bad, "bad.json")
        assert main(["check", "--config", path, "--out", str(out)]) == 1
        rep = json.loads((out / "bad_check.json").read_text())
        assert rep["holds"] is False and rep["warning"]
        assert rep["margins_dropped"] == 0

    def test_oracle_reports_z_score(self, tmp_path):
        cfg = dict(TINY_SIEGMUND)
        cfg["oracle"] = {"b": 3.0, "n_mixture": 4000, "n_plain": 40000,
                         "seed": 2}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["oracle", "--config", path, "--out", str(out)]) == 0
        rep = json.loads((out / "tiny_oracle.json").read_text())
        assert abs(rep["z_score"]) <= 4.0
        assert rep["mixture"]["p_hat"] > 0

    def test_oracle_runs_at_largest_seed(self, tmp_path):
        # the plain side is keyed by seed + 1 = 2**64 - 1, the largest
        # stream key
        cfg = {**TINY_SIEGMUND, "oracle": {"b": 3.0, "n_mixture": 400,
                                           "n_plain": 4000, "seed": 2}}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["oracle", "--config", path, "--out", str(out),
                     "--seed", "18446744073709551614"]) == 0
        rep = strict_load(out / "tiny_oracle.json")
        assert rep["mixture"]["seed"] == 2 ** 64 - 2
        assert rep["plain"]["seed"] == 2 ** 64 - 1
        assert rep["mixture"]["p_hat"] > 0 and rep["plain"]["n"] == 4000

    def test_zero_estimates_write_strict_json(self, tmp_path):
        # the wrong-exit probability at b = 18 is about 1e-8 (a 20k-path
        # theta0 mixture estimate), so the run's 20 and the oracle's 200
        # plain paths see no wrong exit, whatever the stream, with
        # probability about 1 - 2e-6; the run's rows and the oracle's plain
        # side then hold infinite values
        cfg = {"name": "zero",
               "model": {"family": "mvnormal", "dim": 3, "mean": -0.5,
                         "rho": 0.0},
               "problem": {"kind": "siegmund", "ell": 1.0, "u": 1.0},
               "proposal": {"variant": "plain"},
               "run": {"b_grid": [18.0], "n_paths": 20, "seed": 1},
               "oracle": {"b": 18.0, "n_mixture": 20, "n_plain": 200,
                          "seed": 1}}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        row, = strict_load(out / "zero_run.json")["rows"]
        assert row["p_hat"] == 0.0
        assert row["neg_log10_p"] == row["rel_err"] == "inf"
        csv_row = (out / "zero_scan.csv").read_text().splitlines()[1]
        assert csv_row.split(",")[2:] == ["inf", "inf"]
        assert main(["oracle", "--config", path, "--out", str(out)]) == 0
        rep = strict_load(out / "zero_oracle.json")
        assert rep["plain"]["p_hat"] == 0.0
        assert rep["plain"]["relative_error"] == "inf"

    def test_manifest_with_infinite_margins_reads_back(self, tmp_path):
        # the direct condition fails at rho = 0.9 with margin m=6 at -inf
        cfg = {"name": "inf",
               "model": {"family": "mvnormal", "dim": 6, "mean": -0.5,
                         "rho": 0.9},
               "problem": {"kind": "siegmund", "ell": 1.0, "u": 1.0},
               "proposal": {"variant": "theta0"}}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        man = strict_load(out / "inf_proposal.json")
        assert man["report"]["margins"]["m=6"] == "-inf"
        model, rule = build_model(cfg["model"]), build_rule(cfg["problem"])
        _, built = build_proposal(model, rule, cfg["proposal"])
        _, read = build_proposal(model, rule, {
            "manifest": str(out / "inf_proposal.json")})
        assert read == built
        assert read.margins["m=6"] == -math.inf

    def test_strict_mode_flags_truncation(self, tmp_path):
        cfg = dict(TINY_SIEGMUND)
        cfg["run"] = {"b_grid": [4.0], "n_paths": 500, "seed": 3,
                      "max_steps": 3}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["run", "--config", path, "--out", str(out),
                     "--strict"]) == 1
        assert main(["run", "--config", path, "--out", str(out)]) == 0

    def test_strict_solve_flags_failed_condition(self, tmp_path, capsys):
        # H-SI fails for L = 2 on an exchangeable d = 10 normal at rho = 0.6
        cfg = {"name": "si", "model": {"family": "mvnormal", "dim": 10,
                                       "mean": -0.5, "rho": 0.6},
               "problem": {"kind": "sum_intersection", "L": 2},
               "proposal": {"variant": "si"}}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["solve", "--config", path, "--out", str(out),
                     "--strict"]) == 1
        assert ("strict: efficiency condition failed"
                in capsys.readouterr().err)
        man = json.loads((out / "si_proposal.json").read_text())
        assert man["report"]["condition"] == "H-SI"
        assert man["report"]["holds"] is False
        assert main(["solve", "--config", path, "--out", str(out)]) == 0

    def test_paper_scale_overrides(self, tmp_path):
        cfg = dict(TINY_SIEGMUND)
        cfg["paper_scale"] = {"run": {"n_paths": 123}}
        path = write_cfg(tmp_path, cfg)
        from wrongexit.cli import load_config
        merged = load_config(path, paper_scale=True)
        assert merged["run"]["n_paths"] == 123
        assert merged["run"]["b_grid"] == [3.0, 4.0]

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_SIEGMUND)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg, "--out", str(out1)])
        main(["run", "--config", cfg, "--out", str(out2), "--seed", "99"])
        r1 = json.loads((out1 / "tiny_run.json").read_text())
        r2 = json.loads((out2 / "tiny_run.json").read_text())
        assert r1["rows"][0]["p_hat"] != r2["rows"][0]["p_hat"]


class TestWorkersOption:
    @pytest.mark.parametrize("command", ["run", "oracle"])
    @pytest.mark.parametrize("workers", ["0", "3"])
    def test_bad_workers_is_config_error(self, tmp_path, monkeypatch,
                                         capsys, command, workers):
        import concurrent.futures

        import wrongexit.cli as cli

        def no_work(*args, **kwargs):
            raise AssertionError("work started before --workers was checked")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        # the engine imports the pool class from here when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_work)
        monkeypatch.setattr(cli, "build_proposal", no_work)
        cfg = dict(TINY_SIEGMUND)
        cfg["oracle"] = {"b": 3.0, "n_mixture": 400, "n_plain": 4000,
                         "seed": 2}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "o"
        args = [command, "--config", path, "--out", str(out),
                "--workers", workers]
        assert main(args) == 2
        section = "run" if command == "run" else "oracle"
        assert f"{section}.workers: {workers}" in capsys.readouterr().err
        assert not out.exists()

    def test_one_worker_does_not_ask_cpu_count(self, tmp_path, monkeypatch):
        def no_count():
            raise AssertionError("os.cpu_count called for one worker")

        monkeypatch.setattr(os, "cpu_count", no_count)
        path = write_cfg(tmp_path, TINY_SIEGMUND)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o"),
                     "--workers", "1"]) == 0


class TestSweeps:
    def test_gap_v_sweep_csv(self, tmp_path):
        cfg = {
            "name": "sw",
            "model": {"family": "mvnormal", "dim": 4, "mean": -0.5},
            "sweep": {"kind": "gap_v", "d": 8, "m": 4,
                      "v_grid": [0.5, 1.0, 2.0]},
        }
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        lines = (out / "sw_sweep.csv").read_text().strip().splitlines()
        assert lines[0].startswith("v,min_r_A")
        assert len(lines) == 4
        # v = 1 is the symmetric case: r = z~ = 1, both conditions hold
        row = dict(zip(lines[0].split(","), lines[2].split(",")))
        assert float(row["min_r_A"]) == pytest.approx(1.0, abs=1e-8)
        assert row["h1p_holds"] == "1"

    def test_siegmund_rho_sweep(self, tmp_path):
        cfg = {
            "name": "sw2",
            "model": {"family": "mvnormal", "dim": 4, "mean": -0.5},
            "sweep": {"kind": "siegmund_rho", "d": 10, "ell": 1.0, "u": 1.0,
                      "rho_grid": [0.1, 0.45, 0.6]},
        }
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        lines = (out / "sw2_sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 4

    def test_si_rho_sweep(self, tmp_path):
        cfg = {
            "name": "sw3",
            "model": {"family": "mvnormal", "dim": 4, "mean": -0.5},
            "sweep": {"kind": "si_rho", "d": 4, "L": 2,
                      "rho_grid": {"start": 0.0, "stop": 0.2, "step": 0.1}},
        }
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        lines = (out / "sw3_sweep.csv").read_text().strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == [
            "0.0", "0.1", "0.2"]

    @pytest.mark.parametrize("kind", ["siegmund_rho", "si_rho"])
    def test_rho_sweep_checks_its_grid(self, tmp_path, capsys, kind):
        cfg = {
            "name": "sw4",
            "model": {"family": "mvnormal", "dim": 4, "mean": -0.5},
            "sweep": {"kind": kind, "d": 4, "rho_grid": [0.1, 1.0]},
        }
        path = write_cfg(tmp_path, cfg)
        assert main(["sweep", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "sweep.rho_grid: rho = 1.0" in capsys.readouterr().err

    def test_failing_sweep_writes_no_file(self, tmp_path):
        """A grid point whose solve fails stops the sweep before its CSV
        opens, and the error names the point."""
        cfg = {
            "name": "sw5",
            "model": {"family": "mvnormal", "dim": 4, "mean": -0.5},
            "sweep": {"kind": "si_rho", "d": 50, "L": 2,
                      "rho_grid": [0.0, 0.5, 0.999999]},
        }
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "o"
        with pytest.raises(SolverError, match=(
                r"^sweep\.rho_grid\[2\] = 0\.999999: si/z-active-set: "
                "degenerate working set$")):
            main(["sweep", "--config", path, "--out", str(out)])
        assert not (out / "sw5_sweep.csv").exists()

    def test_non_converged_solve_stops_table_and_sweep(self, tmp_path,
                                                        monkeypatch):
        from wrongexit import active_set

        def stalled(sol):
            sol.converged, sol.residual = False, 2e-7
            return sol

        block_solve = active_set.block_solve
        monkeypatch.setattr(active_set, "block_solve",
                            lambda ps: [stalled(s) for s in block_solve(ps)])
        out = tmp_path / "o"
        sweep = write_cfg(tmp_path, {
            "name": "sw6",
            "model": {"family": "mvnormal", "dim": 4, "mean": -0.5},
            "sweep": {"kind": "siegmund_rho", "d": 10,
                      "rho_grid": [0.1, 0.45]},
        }, "sweep.json")
        with pytest.raises(SolverError, match=(
                r"^sweep\.rho_grid\[0\] = 0\.1: siegmund/active-set did not "
                r"converge \(residual 2\.000e-07\)$")):
            main(["sweep", "--config", sweep, "--out", str(out)])
        table = write_cfg(tmp_path, {
            "name": "tb6",
            "model": {"family": "mvnormal", "dim": 4, "mean": -0.5},
            "table": {"d": 8, "u_values": [1.0], "rho_grid": [0.0, 0.2]},
        }, "table.json")
        with pytest.raises(SolverError, match=(
                r"^table\.rho_grid\[0\] = 0\.0, table\.u_values\[0\] = "
                r"1\.0: siegmund/gamma-pair did not converge")):
            main(["table", "--config", table, "--out", str(out)])
        assert not out.exists()

    def test_table_checks_its_closed_form_tilts(self, tmp_path,
                                                 monkeypatch):
        """The closed-form gamma^k of a table cell is checked for
        convergence like the cell's block solution."""
        import wrongexit.cli as cli

        single = cli.solve_gamma_single

        def stalled(*args):
            sol = single(*args)
            sol.converged, sol.residual = False, 4e-9
            return sol

        monkeypatch.setattr(cli, "solve_gamma_single", stalled)
        table = write_cfg(tmp_path, {
            "name": "tb8",
            "model": {"family": "mvnormal", "dim": 4, "mean": -0.5},
            "table": {"d": 8, "u_values": [1.0], "rho_grid": [0.0, 0.2]},
        })
        out = tmp_path / "o"
        with pytest.raises(SolverError, match=(
                r"^table\.rho_grid\[0\] = 0\.0, table\.u_values\[0\] = "
                r"1\.0: siegmund/gamma-root did not converge \(residual "
                r"4\.000e-09\)$")):
            main(["table", "--config", table, "--out", str(out)])
        assert not out.exists()

    def test_failure_raised_in_the_table_block_names_its_point(
            self, tmp_path, monkeypatch):
        """A SolverError raised for one program of the table's block names
        that program's (rho, u) cell, and nothing is written."""
        from wrongexit import active_set

        solve = active_set._qclp_active_set

        def second_fails(block):
            out = solve(block)
            out[1] = SolverError("degenerate active-set subproblem")
            return out

        monkeypatch.setattr(active_set, "_qclp_active_set", second_fails)
        table = write_cfg(tmp_path, {
            "name": "tb7",
            "model": {"family": "mvnormal", "dim": 4, "mean": -0.5},
            "table": {"d": 8, "u_values": [1.0], "rho_grid": [0.0, 0.2]},
        })
        out = tmp_path / "o"
        with pytest.raises(SolverError, match=(
                r"^table\.rho_grid\[1\] = 0\.2, table\.u_values\[0\] = "
                r"1\.0: degenerate active-set subproblem$")):
            main(["table", "--config", table, "--out", str(out)])
        assert not out.exists()

    def test_rejected_sweep_makes_no_output_dir(self, tmp_path):
        """The output directory is made only once every row exists: an
        unknown kind and a failing sweep leave none behind."""
        out = tmp_path / "o"
        unknown = write_cfg(tmp_path, {
            "name": "sw8",
            "model": {"family": "mvnormal", "dim": 4, "mean": -0.5},
            "sweep": {"kind": "nope"},
        }, "unknown.json")
        assert main(["sweep", "--config", unknown, "--out", str(out)]) == 2
        assert not out.exists()
        failing = write_cfg(tmp_path, {
            "name": "sw8",
            "model": {"family": "mvnormal", "dim": 4, "mean": -0.5},
            "sweep": {"kind": "si_rho", "d": 50, "L": 2,
                      "rho_grid": [0.0, 0.999999]},
        }, "failing.json")
        with pytest.raises(SolverError, match=r"^sweep\.rho_grid\[1\] = "):
            main(["sweep", "--config", failing, "--out", str(out)])
        assert not out.exists()

    def test_grid_values_match_one_program_solves(self, tmp_path):
        """Every value a sweep writes is, bit for bit, the one-program
        solve of its grid point."""
        from wrongexit import (GapRule, IndependentModel, Normal,
                               SiegmundRule, SumIntersectionRule,
                               exchangeable_mvnormal)
        from wrongexit.solvers import (beta_program, si_s_program,
                                       si_z_program)
        from si_reference import solve

        def rows(sweep):
            path = write_cfg(tmp_path, {
                "name": sweep["kind"],
                "model": {"family": "mvnormal", "dim": 4, "mean": -0.5},
                "sweep": sweep}, f"{sweep['kind']}.json")
            assert main(["sweep", "--config", path,
                         "--out", str(tmp_path / "o")]) == 0
            text = (tmp_path / "o" / f"{sweep['kind']}_sweep.csv").read_text()
            return [line.split(",") for line in text.splitlines()[1:]]

        rhos = [0.0, 0.15, 0.4, 0.7]
        got = rows({"kind": "siegmund_rho", "d": 10, "rho_grid": rhos})
        rule = SiegmundRule(1.0, 1.0)
        assert [row[1] for row in got] == [
            repr(solve(beta_program(
                [0], rule, exchangeable_mvnormal(10, -0.5, rho))).value)
            for rho in rhos]
        vs = [0.3, 1.0, 2.5]
        got = rows({"kind": "gap_v", "d": 8, "m": 4, "v_grid": vs})
        want = []
        for v in vs:
            model = IndependentModel([Normal(0.5, 1.0)] * 4
                                     + [Normal(-0.5, v)] * 4)
            want.append(repr(solve(beta_program([1, 2, 3, 4], GapRule(4),
                                                model)).value))
        assert [row[1] for row in got] == want
        rhos = [0.0, 0.2, 0.5]
        got = rows({"kind": "si_rho", "d": 6, "L": 2, "rho_grid": rhos})
        rule = SumIntersectionRule(2)
        want = []
        for rho in rhos:
            model = exchangeable_mvnormal(6, -0.5, rho)
            want.append([repr(solve(program(idx, rule, model)).value)
                         for program, idx in ((beta_program, [0, 1]),
                                              (si_z_program, [0, 1]),
                                              (si_s_program, [0, 1, 2]))])
        assert [row[1:4] for row in got] == want

    def test_table_small(self, tmp_path):
        cfg = {
            "name": "tb",
            "model": {"family": "mvnormal", "dim": 4, "mean": -0.5},
            "table": {"d": 8, "ell": 1.0, "u_values": [1.0],
                      "rho_grid": {"start": 0.0, "stop": 0.6, "step": 0.2}},
        }
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["table", "--config", path, "--out", str(out)]) == 0
        lines = (out / "tb_table.csv").read_text().strip().splitlines()
        assert lines[0] == "u,H1_max_rho,H2_max_rho,direct_max_rho"
        assert len(lines) == 2

    def test_table_certifies_all_cells_in_one_stacked_call(
            self, tmp_path, monkeypatch):
        """The direct condition of every (rho, u) cell comes from one
        stacked certificate, with no CGF over a (d-1) x d witness stack,
        and the table's direct column is the last rho at which the
        theta0 builder's direct check holds."""
        import wrongexit.cli as cli
        from wrongexit import MvNormalModel, exchangeable_mvnormal
        from wrongexit.proposals import build_siegmund

        calls, shapes = [], []
        certify, cgf_rows = cli.direct_certificate, MvNormalModel.cgf_rows

        def counted(models, ell, us):
            calls.append(len(us))
            return certify(models, ell, us)

        def counted_rows(self, thetas):
            shapes.append(np.shape(thetas))
            return cgf_rows(self, thetas)

        monkeypatch.setattr(cli, "direct_certificate", counted)
        monkeypatch.setattr(MvNormalModel, "cgf_rows", counted_rows)
        rhos, u_values = [0.0, 0.3, 0.4, 0.5, 0.6], [3.0, 1.0, 0.5]
        cfg = {"name": "tb", "model": {"family": "mvnormal", "dim": 2,
                                       "mean": -0.5},
               "table": {"d": 8, "u_values": u_values, "rho_grid": rhos}}
        out = tmp_path / "o"
        assert main(["table", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
        assert calls == [len(rhos) * len(u_values)]
        assert (7, 8) not in shapes
        rows = (out / "tb_table.csv").read_text().strip().splitlines()[1:]
        for u, row in zip(u_values, rows):
            held = [rho for rho in rhos if build_siegmund(
                "theta0", exchangeable_mvnormal(8, -0.5, rho), 1.0,
                u)[1].holds]
            assert row.split(",")[3] == (repr(held[-1]) if held else "")
        assert [row.split(",")[3] for row in rows] == ["0.6", "0.4", "0.3"]

    @pytest.mark.parametrize("table, field", [
        ({"rho_grid": {"start": 0.0, "stop": 0.6}}, "table.rho_grid.step"),
        ({"rho_grid": {"start": 0.0, "stop": 0.6, "step": 0.0}},
         "table.rho_grid.step"),
        ({"rho_grid": [0.2, 1.0]}, "table.rho_grid: rho = 1.0"),
        ({"rho_grid": [-0.2]}, "table.rho_grid: rho = -0.2"),
        ({"u_values": [1.0, 0.0]}, "table.u_values[1]"),
        ({"u_values": [-1.0]}, "table.u_values[0]"),
        ({"ell": 0.0}, "table.ell"),
        ({"d": 1}, "table.d"),
        ({"rho_grid": [0.0, "x"]}, "table.rho_grid[1]: 'x' is not a number"),
        ({"u_values": ["x"]}, "table.u_values[0]: 'x' is not a number"),
        ({"d": 8.7}, "table.d: 8.7 is not an integer"),
        ({"ell": "x"}, "table.ell: 'x' is not a number"),
        ({"rho_grid": {"start": 0.0, "stop": "x", "step": 0.2}},
         "table.rho_grid.stop: 'x' is not a number"),
        ({"rho_grid": []}, "table.rho_grid: the grid is empty"),
        ({"rho_grid": {"start": 0.6, "stop": 0.0, "step": 0.2}},
         "table.rho_grid: the grid is empty"),
        ({"u_values": []}, "table.u_values: the list is empty"),
        ({"rho_grid": {"start": 0.0, "stop": 0.9, "step": 1e-12}},
         "table.rho_grid: 0.0..0.9 by 1e-12 has 900000000001 points, "
         "above 10000"),
        ({"u_values": 1.0}, "table.u_values: 1.0 is not a list"),
    ])
    def test_table_bad_input_is_config_error(self, tmp_path, capsys, table,
                                             field):
        cfg = {
            "name": "tb",
            "model": {"family": "mvnormal", "dim": 4, "mean": -0.5},
            "table": {"d": 8, "ell": 1.0, "u_values": [1.0],
                      "rho_grid": [0.0], **table},
        }
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["table", "--config", path, "--out", str(out)]) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not (out / "tb_table.csv").exists()


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestBadInputIsConfigError:
    def test_unknown_variant(self, tmp_path, capsys):
        cfg = {**TINY_SIEGMUND, "proposal": {"variant": "theta9"}}
        path = write_cfg(tmp_path, cfg)
        for command in ("solve", "check"):
            assert main([command, "--config", path,
                         "--out", str(tmp_path / "o")]) == 2
            assert ("config error: proposal.variant: unknown siegmund "
                    "variant 'theta9'") in capsys.readouterr().err

    def test_check_of_plain_variant(self, tmp_path, capsys):
        cfg = {**TINY_SIEGMUND, "proposal": {"variant": "plain"}}
        path = write_cfg(tmp_path, cfg)
        assert main(["check", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert ("config error: proposal.variant: no condition to check for "
                "variant 'plain'") in capsys.readouterr().err

    def test_paper_scale_without_overlay(self, tmp_path, capsys):
        # the oracle config has no paper_scale section: the flag is refused
        # before anything runs, not ignored
        assert main(["oracle", "--config", str(CONFIGS / "oracle_gap_d4.json"),
                     "--paper-scale", "--out", str(tmp_path / "o")]) == 2
        assert ("config error: config.paper_scale: missing required field"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_direct_on_non_exchangeable_model(self, tmp_path, capsys):
        # theta0 reports the direct condition; 'direct' is no variant
        cfg = {**TINY_SIEGMUND, "proposal": {"variant": "direct"},
               "model": {"family": "independent", "components": [
                   {"type": "normal", "mu": -0.5, "sigma2": 1.0},
                   {"type": "normal", "mu": -0.9, "sigma2": 1.0}]}}
        path = write_cfg(tmp_path, cfg)
        assert main(["check", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert ("config error: proposal.variant: unknown siegmund variant "
                "'direct'") in capsys.readouterr().err

    def test_gap_v_sweep_m_outside_range(self, tmp_path, capsys):
        for m in (0, 8):
            cfg = {"name": "sw",
                   "model": {"family": "mvnormal", "dim": 4, "mean": -0.5},
                   "sweep": {"kind": "gap_v", "d": 8, "m": m,
                             "v_grid": [1.0]}}
            path = write_cfg(tmp_path, cfg)
            assert main(["sweep", "--config", path,
                         "--out", str(tmp_path / "o")]) == 2
            assert f"config error: sweep.m: {m}" in capsys.readouterr().err

    @pytest.mark.parametrize("m", [6, 9])
    def test_solve_rule_size_outside_range(self, tmp_path, capsys, m):
        # ``solve`` makes its solve cache before the size check
        cfg = {"name": "size",
               "model": {"family": "mvnormal", "dim": 6, "mean": -0.5},
               "problem": {"kind": "gap", "m": m},
               "proposal": {"variant": "t1"}}
        assert main(["solve", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert (f"config error: problem.m: {m} is outside 1..5"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command,problem,variant,message", [
        ("check", {"kind": "gap", "m": 1}, "t1",
         "problem.m: 1 is outside 2..4"),
        ("check", {"kind": "sum_intersection", "L": 6}, "si",
         "problem.L: 6 is outside 2..5"),
        ("oracle", {"kind": "gap", "m": 6}, "plain",
         "problem.m: 6 is outside 1..5"),
        ("check", {"kind": "gap", "m": 0}, "t1",
         "problem.m: 0 is not positive"),
        ("check", {"kind": "sum_intersection", "L": 0}, "si",
         "problem.L: 0 is not positive"),
        ("check", {"kind": "siegmund", "ell": 0.0, "u": 1.0}, "theta1",
         "problem.ell: 0.0 is not positive"),
    ])
    def test_rule_size_outside_range(self, tmp_path, capsys, command, problem,
                                     variant, message):
        mean = ({"head": 0.5, "tail": -0.5, "split": 1}
                if problem["kind"] == "gap" else -0.5)
        cfg = {"name": "size",
               "model": {"family": "mvnormal", "dim": 6, "mean": mean},
               "problem": problem, "proposal": {"variant": variant},
               "oracle": {"b": 2.0, "n_mixture": 100, "n_plain": 100,
                          "seed": 1}}
        path = write_cfg(tmp_path, cfg)
        assert main([command, "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, change, message", [
        ("run", "run", {"n_paths": 0}, "run.n_paths: 0 is not positive"),
        ("run", "run", {"n_paths": "x"},
         "run.n_paths: 'x' is not an integer"),
        ("run", "run", {"b_grid": [3.0, 0.0]},
         "run.b_grid[1]: 0.0 is not positive"),
        ("run", "run", {"b_grid": [4.0, 3.0]},
         "run.b_grid: [4.0, 3.0] is not a nonempty ascending grid"),
        ("run", "run", {"b_grid": []},
         "run.b_grid: [] is not a nonempty ascending grid"),
        ("run", "run", {"max_steps": 0}, "run.max_steps: 0 is not positive"),
        ("run", "run", {"workers": "x"}, "run.workers: 'x' is not an integer"),
        ("run", "run", {"seed": -1}, "run.seed: -1 is outside 0..2**64 - 2"),
        ("run", None, ["--seed", "-1"], "--seed: -1 is outside 0..2**64 - 2"),
        ("oracle", "oracle", {"b": 0}, "oracle.b: 0.0 is not positive"),
        ("oracle", "oracle", {"n_mixture": 0},
         "oracle.n_mixture: 0 is not positive"),
        ("oracle", "oracle", {"n_plain": "x"},
         "oracle.n_plain: 'x' is not an integer"),
        ("oracle", "oracle", {"seed": 2 ** 64},
         f"oracle.seed: {2 ** 64} is outside 0..2**64 - 2"),
        ("oracle", None, ["--seed", "-3"],
         "--seed: -3 is outside 0..2**64 - 2"),
        ("run", "run", {"n_paths": 2.5}, "run.n_paths: 2.5 is not an integer"),
        ("run", "run", {"max_steps": 100.5},
         "run.max_steps: 100.5 is not an integer"),
        ("run", "run", {"seed": 1.5}, "run.seed: 1.5 is not an integer"),
        pytest.param("oracle", "oracle", {"b": 10 ** 400},
                     f"oracle.b: {10 ** 400} is not a number",
                     id="oracle.b-beyond-float"),
        ("oracle", "oracle", {"n_plain": 4000.5},
         "oracle.n_plain: 4000.5 is not an integer"),
        ("oracle", "oracle", {"seed": 2.5},
         "oracle.seed: 2.5 is not an integer"),
        ("run", "run", {"b_grid": 3.0}, "run.b_grid: 3.0 is not a list"),
    ])
    def test_bad_run_and_oracle_fields(self, tmp_path, monkeypatch, capsys,
                                       command, section, change, message):
        import wrongexit.cli as cli

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the input was checked")

        monkeypatch.setattr(cli, "build_model", no_work)
        cfg = {**TINY_SIEGMUND, "oracle": {"b": 3.0, "n_mixture": 400,
                                           "n_plain": 4000, "seed": 2}}
        extra = []
        if section is None:
            extra = change
        else:
            cfg[section] = {**cfg[section], **change}
        out = tmp_path / "o"
        argv = [command, "--config", write_cfg(tmp_path, cfg),
                "--out", str(out), *extra]
        assert main(argv) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, spec, message", [
        ("check", {"model": {"family": "independent", "components": [
            {"type": "normal", "mu": -0.5, "sigma2": 0.0, "count": 2}]}},
         "model.components[0]: sigma2 must be positive"),
        ("check", {"model": {"family": "independent", "components": [
            {"type": "shifted_exponential", "rate": 0.0, "shift": -0.5}]}},
         "model.components[0]: rate must be positive"),
        ("check", {"model": {"family": "independent", "components": [
            {"type": "normal", "mu": -0.5, "sigma2": 1.0},
            {"type": "normal", "mu": 0.0, "sigma2": 1.0}]}},
         "model.components[1]: component drift must be strictly signed"),
        ("check", {"model": {"family": "independent", "components": [
            {"type": "normal", "mu": -0.5, "sigma2": 1.0, "count": -1},
            {"type": "normal", "mu": -0.5, "sigma2": 1.0, "count": 2}]}},
         "model.components[0].count: -1 is not positive"),
        ("check", {"model": {"family": "independent", "components": [
            {"type": "normal", "mu": "x", "sigma2": 1.0}]}},
         "model.components[0].mu: 'x' is not a number"),
        ("check", {"model": {"family": "mvnormal", "dim": 0, "mean": -0.5}},
         "model.dim: 0 is not positive"),
        ("check", {"model": {"family": "mvnormal", "mean": []}},
         "model: mean must be a nonempty vector"),
        ("check", {"model": {"family": "mvnormal", "dim": 4, "mean": {
            "head": 0.5, "tail": -0.5, "split": -1}}},
         "model.mean.split: -1 is outside 0..4"),
        ("check", {"problem": {"kind": "siegmund", "ell": "x", "u": 1.0}},
         "problem.ell: 'x' is not a number"),
        ("solve", {"model": {"family": "mvnormal", "dim": 2, "mean": 0.5},
                   "proposal": {"variant": "plain"}},
         "problem: siegmund rule requires negative drift"),
        ("sweep", {"sweep": {"kind": "siegmund_rho", "u": 0}},
         "sweep.u: 0.0 is not positive"),
        ("sweep", {"sweep": {"kind": "siegmund_rho", "ell": 0}},
         "sweep.ell: 0.0 is not positive"),
        ("sweep", {"sweep": {"kind": "si_rho", "L": 0}},
         "sweep.L: 0 is outside 1..d-1 = 1..7"),
        ("sweep", {"sweep": {"kind": "si_rho", "L": 8}},
         "sweep.L: 8 is outside 1..d-1 = 1..7"),
        ("sweep", {"sweep": {"kind": "gap_v", "m": 4, "v_grid": [1.0, 0.0]}},
         "sweep.v_grid[1]: 0.0 is not positive"),
        ("check", {"model": {"family": "mvnormal", "dim": 3,
                             "mean": [-0.5, -0.5]}},
         "model.dim: 3 does not match the 2 entries of model.mean"),
        ("check", {"model": {"family": "independent", "components": [
            {"type": "normal", "mu": -0.5, "sigma2": 1.0, "count": 2.5}]}},
         "model.components[0].count: 2.5 is not an integer"),
        ("sweep", {"sweep": {"kind": "si_rho", "d": 8.7, "L": 2}},
         "sweep.d: 8.7 is not an integer"),
        ("sweep", {"sweep": {"kind": "si_rho", "L": 2.5}},
         "sweep.L: 2.5 is not an integer"),
        ("sweep", {"sweep": {"kind": "siegmund_rho", "d": "x"}},
         "sweep.d: 'x' is not an integer"),
        ("sweep", {"sweep": {"kind": "gap_v", "m": 3.5, "v_grid": [1.0]}},
         "sweep.m: 3.5 is not an integer"),
        ("sweep", {"sweep": {"kind": "siegmund_rho", "rho_grid": {
            "start": 0.0, "stop": "x", "step": 0.1}}},
         "sweep.rho_grid.stop: 'x' is not a number"),
        ("sweep", {"sweep": {"kind": "siegmund_rho", "rho_grid": {
            "start": 0.0, "stop": 0.5, "step": "a"}}},
         "sweep.rho_grid.step: 'a' is not a number"),
        ("sweep", {"sweep": {"kind": "siegmund_rho", "rho_grid": {
            "start": 0.0, "stop": "inf", "step": 0.1}}},
         "sweep.rho_grid.stop: 'inf' is not finite"),
        ("sweep", {"sweep": {"kind": "siegmund_rho", "rho_grid": []}},
         "sweep.rho_grid: the grid is empty"),
        ("sweep", {"sweep": {"kind": "si_rho", "rho_grid": {
            "start": 0.5, "stop": 0.0, "step": 0.1}}},
         "sweep.rho_grid: the grid is empty"),
        ("sweep", {"sweep": {"kind": "gap_v", "m": 4, "v_grid": []}},
         "sweep.v_grid: the grid is empty"),
        ("check", {"model": {"family": "mvnormal", "dim": 2, "mean": -0.5,
                             "rho": "x"}},
         "model.rho: 'x' is not a number"),
        ("check", {"model": {"family": "mvnormal", "dim": 2, "mean": -0.5,
                             "sigma2": "x"}},
         "model.sigma2: 'x' is not a number"),
        ("check", {"model": {"family": "mvnormal", "mean": [-0.5, -0.5],
                             "cov": "x"}},
         "model.cov: 'x' is not numeric"),
        ("check", {"model": {"family": "mvnormal", "mean": ["a", -0.5]}},
         "model.mean: ['a', -0.5] is not numeric"),
        ("check", {"model": {"family": "mvnormal", "dim": 2, "mean": {
            "head": "x", "tail": -0.5, "split": 1}}},
         "model.mean.head: 'x' is not a number"),
        # a non-finite number, as a string or a JSON NaN literal
        ("run", {"model": {"family": "independent", "components": [
            {"type": "normal", "mu": "nan", "sigma2": 1.0, "count": 2}]}},
         "model.components[0].mu: 'nan' is not finite"),
        ("run", {"run": {**TINY_SIEGMUND["run"], "b_grid": [2.0, "inf"]}},
         "run.b_grid[1]: 'inf' is not finite"),
        ("run", {"model": {"family": "mvnormal", "dim": 2, "mean": -0.5,
                           "rho": math.nan}},
         "model.rho: nan is not finite"),
        # a start/stop/step grid above the point cap
        ("sweep", {"sweep": {"kind": "gap_v", "m": 4, "v_grid": {
            "start": 0.1, "stop": 1.1, "step": 1e-4}}},
         "sweep.v_grid: 0.1..1.1 by 0.0001 has 10001 points, above 10000"),
        # a scalar where a list belongs
        ("sweep", {"sweep": {"kind": "siegmund_rho", "rho_grid": 0.5}},
         "sweep.rho_grid: 0.5 is not a list"),
        ("check", {"model": {"family": "independent", "components": 3}},
         "model.components: 3 is not a list"),
        ("sweep", {"sweep": {"kind": ["gap_v"]}},
         "sweep.kind: unknown sweep ['gap_v']"),
        # a section or entry of the wrong JSON type
        ("check", {"problem": {"kind": ["gap"]}},
         "problem.kind: unknown problem kind ['gap']"),
        ("check", {"model": {"family": "independent", "components": [
            {"type": ["normal"], "mu": -0.5, "sigma2": 1.0}]}},
         "model.components[0].type: unknown component type ['normal']"),
        ("check", {"model": {"family": "independent", "components": [3]}},
         "model.components[0]: 3 is not an object"),
        ("check", {"proposal": "x"}, "proposal: 'x' is not an object"),
        ("table", {"table": "x"}, "table: 'x' is not an object"),
        ("check", {"problem": "x"}, "problem: 'x' is not an object"),
        ("check", {"model": "x"}, "model: 'x' is not an object"),
        ("run", {"run": "x"}, "run: 'x' is not an object"),
        ("oracle", {"oracle": ["x"]}, "oracle: ['x'] is not an object"),
        # the exchangeable shorthand, checked in closed form
        ("check", {"model": {"family": "mvnormal", "dim": 3, "mean": -0.5,
                             "rho": 1.5}},
         "model.rho: rho = 1.5 is outside (-1/(d-1), 1) = (-0.5, 1)"),
        ("check", {"model": {"family": "mvnormal", "dim": 3, "mean": -0.5,
                             "rho": -0.5}},
         "model.rho: rho = -0.5 is outside (-1/(d-1), 1) = (-0.5, 1)"),
        ("check", {"model": {"family": "mvnormal", "dim": 3, "mean": -0.5,
                             "sigma2": 0}},
         "model.sigma2: sigma2 = 0.0 is not positive and finite"),
        ("check", {"model": {"family": "mvnormal", "dim": 3, "mean": -0.5,
                             "sigma2": -2.0, "rho": 0.1}},
         "model.sigma2: sigma2 = -2.0 is not positive and finite"),
        ("check", {"model": {"family": "mvnormal", "dim": 1, "mean": -0.5,
                             "rho": 0.5}},
         "model.rho: rho = 0.5 is outside {0} at d = 1"),
        ("check", {"model": {"family": "mvnormal", "dim": 10, "mean": -0.5,
                             "rho": 1 - 2 ** -52}},
         "model.rho: rho = 0.9999999999999998: cov must be positive "
         "definite"),
        # the dense path
        ("check", {"model": {"family": "mvnormal", "mean": [-0.5, -0.5],
                             "cov": [[1.0, 0.0]]}},
         "model.cov: cov has shape (1, 2), expected (2, 2)"),
        ("check", {"model": {"family": "mvnormal", "mean": [-0.5, -0.5],
                             "cov": [[1.0, 0.5], [0.4, 1.0]]}},
         "model.cov: cov must be symmetric"),
        ("check", {"model": {"family": "mvnormal", "mean": [-0.5, -0.5],
                             "cov": [[1.0, 2.0], [2.0, 1.0]]}},
         "model.cov: cov must be positive definite"),
        # shorthand next to an explicit cov
        ("check", {"model": {"family": "mvnormal", "mean": [-0.5] * 3,
                             "rho": 0.2, "cov": np.eye(3).tolist()}},
         "model.rho: given with model.cov, which fixes the covariance"),
        ("check", {"model": {"family": "mvnormal", "mean": [-0.5] * 3,
                             "sigma2": 2.0, "cov": np.eye(3).tolist()}},
         "model.sigma2: given with model.cov, which fixes the covariance"),
    ])
    def test_bad_model_and_sweep_fields(self, tmp_path, capsys, command,
                                        spec, message):
        cfg = {**TINY_SIEGMUND, **spec}
        if "sweep" in spec:
            cfg["sweep"] = {"d": 8, "rho_grid": [0.0], **spec["sweep"]}
        out = tmp_path / "o"
        assert main([command, "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("command, section", [
        ("sweep", "sweep"), ("check", "outputs"), ("run", "run")])
    def test_section_that_is_not_an_object(self, tmp_path, monkeypatch,
                                           capsys, command, section):
        """Without --out, so that ``outputs`` is read, and with --seed, so
        that ``run.seed`` is not."""
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, {**TINY_SIEGMUND, section: "x"})
        assert main([command, "--config", path, "--seed", "3"]) == 2
        assert (f"config error: {section}: 'x' is not an object"
                in capsys.readouterr().err)
        assert [p.name for p in tmp_path.iterdir()] == [Path(path).name]

    def test_drift_rule_mismatch(self, tmp_path, capsys):
        cfg = {"name": "gap",
               "model": {"family": "mvnormal", "dim": 6, "rho": 0.1,
                         "mean": {"head": 0.5, "tail": -0.5, "split": 3}},
               "problem": {"kind": "gap", "m": 2},
               "proposal": {"variant": "t1"}}
        path = write_cfg(tmp_path, cfg)
        assert main(["check", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert ("config error: problem: gap rule requires positive drift"
                in capsys.readouterr().err)


@pytest.mark.parametrize("config", sorted(
    p.name for p in CONFIGS.glob("*.json")
    if {"problem", "paper_scale"} <= json.loads(p.read_text()).keys()))
def test_paper_scale_overlay_builds_and_checks(tmp_path, config):
    from wrongexit.cli import build_proposal, load_config

    path = str(CONFIGS / config)
    cfg = load_config(path, paper_scale=True)
    model = build_model(cfg["model"])
    prop, _ = build_proposal(model, build_rule(cfg["problem"]),
                             cfg.get("proposal", {}))
    assert prop.dim == model.dim
    out = tmp_path / "o"
    assert main(["check", "--config", path, "--paper-scale",
                 "--out", str(out)]) in (0, 1)
    assert (out / f"{cfg['name']}_check.json").exists()
