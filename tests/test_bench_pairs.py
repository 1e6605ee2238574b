"""``scripts/bench_pairs.py``, the one pair driver of the bench trail: its
summary rebuilds the committed BENCH files from their stored runs, its
arguments are checked before any export, and paper-scale pairs are
recorded, and stopped on a changed estimate, with the runners stubbed.
None of these tests starts git or a subprocess."""

import importlib.util
import json
from pathlib import Path
import statistics
import subprocess

import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


@pytest.fixture
def driver(monkeypatch):
    """A fresh copy of the driver with git, the loc count and every
    subprocess stubbed out."""
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)

    def no_subprocess(*args, **kwargs):
        raise AssertionError(f"subprocess started: {args}")

    monkeypatch.setattr(subprocess, "run", no_subprocess)
    monkeypatch.setattr(subprocess, "Popen", no_subprocess)
    monkeypatch.setattr(mod, "_export", lambda commit, dest: "abc1234")
    monkeypatch.setattr(mod, "_loc_metrics", lambda trees: [{}, {}])
    return mod


def fake_bench(tree, workload, seed, seconds):
    faster = 0.9 if tree == ROOT else 1.0
    return {"correct": True, "failed": 0, "attempted": 100, "setup_s": 0.5,
            "wall_s": faster * seed / 600, "ops_per_s": 600 / seed / faster,
            "tta_s": faster, "peak_rss_mb": 40.0, "digest": "same",
            "units": seed % 7}


def fake_paper(tree, config, seed, paths):
    faster = 0.8 if tree == ROOT else 1.0
    return {"d": 100, "b": 12.0, "seconds": faster * seed / 600,
            "p_hat": 1e-6, "second_moment": 3e-12, "digest": [1e-6, 3e-12]}


def fake_export_must_not_run(commit, dest):
    raise AssertionError("exported before the arguments were checked")


@pytest.mark.parametrize("name", ["BENCH_23.json", "BENCH_25.json",
                                  "BENCH_28.json", "BENCH_30.json"])
def test_summary_rebuilds_committed_bench_files(driver, name):
    workloads = json.loads((ROOT / name).read_text())["workloads"]
    for entry in workloads.values():
        pairs = [tuple({**{m["name"]: entry[side][m["name"]]["runs"][j]
                           for m in METRICS},
                        "units": entry[side]["units"]["runs"][j],
                        "correct": True, "failed": 0, "attempted": 0,
                        "digest": ""} for side in driver.SIDES)
                 for j in range(entry["pairs"])]
        got = driver._summary(pairs, entry["seeds"],
                              "held_out_seed" in entry, METRICS)
        assert list(got) == list(entry)
        for key in ("pairs", "seeds", "change_wins", "median_change_pct",
                    "parent", "change"):
            assert got[key] == entry[key], (name, key)
        assert got.get("held_out_seed") == entry.get("held_out_seed")


def test_change_wins_counts_higher_metrics_upwards(driver):
    def run(wall_s, ops_per_s):
        return {"correct": True, "failed": 0, "attempted": 1, "setup_s": 1.0,
                "wall_s": wall_s, "ops_per_s": ops_per_s, "tta_s": 1.0,
                "peak_rss_mb": 1.0, "digest": "x", "units": 1}

    pairs = [(run(1.0, 10.0), run(0.9, 11.0)),
             (run(1.0, 10.0), run(1.1, 12.0)),
             (run(1.0, 10.0), run(0.8, 9.0))]
    got = driver._summary(pairs, [1, 2, 3], False, METRICS)
    assert got["change_wins"]["ops_per_s"] == 2
    assert got["change_wins"]["wall_s"] == 2
    assert got["change_wins"]["setup_s"] == 0  # ties count for neither
    assert got["median_change_pct"]["ops_per_s"] == 10.0


@pytest.mark.parametrize("args, message", [
    (["--pairs", "no_such_target=2"], "unknown target 'no_such_target'"),
    (["--pairs", "oracle_plain=0"], "'oracle_plain=0' asks for 0 pairs"),
    (["--pairs", "si_desk=-1"], "'si_desk=-1' asks for -1 pairs"),
    (["--pairs", "si_desk=two"], "'si_desk=two' is not T=N"),
    (["--pairs", "si_desk"], "'si_desk' is not T=N"),
    (["--pairs", "si_desk=2", "oracle_plain=1", "si_desk=1"],
     "target 'si_desk' is named twice"),
    (["--pairs", "si_desk=2", "--held-out", "si_scan"],
     "argument --held-out: 'si_scan' is not"),
    (["--pairs", "si_desk=2", "--paths", "0"], "argument --paths: 0 paths"),
])
def test_bad_arguments_exit_2_before_the_export(driver, monkeypatch, capsys,
                                                tmp_path, args, message):
    monkeypatch.setattr(driver, "_export", fake_export_must_not_run)
    out = tmp_path / "pairs.json"
    with pytest.raises(SystemExit) as exc:
        driver.main(["--out", str(out), *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "argument --" in err
    assert not out.exists()


def test_targets_of_both_kinds_share_seeds_and_one_record(driver, monkeypatch,
                                                         tmp_path):
    out = tmp_path / "pairs.json"
    seen = []

    def paper(tree, config, seed, paths):
        record = json.loads(out.read_text())
        seen.append(record["paper_scale"].get(config, {}).get("pairs"))
        return fake_paper(tree, config, seed, paths)

    monkeypatch.setattr(driver, "_bench", fake_bench)
    monkeypatch.setattr(driver, "_paper", paper)
    assert driver.main(["--out", str(out), "--pairs", "oracle_plain=2",
                        "si_desk=3", "--held-out", "si_desk",
                        "--paths", "500"]) == 0
    record = json.loads(out.read_text())
    assert list(record) == ["what", "machine", "parent_commit", "workloads",
                            "paper_scale", "loc"]
    assert "numpy " in record["machine"] and "Python " in record["machine"]
    assert list(record["workloads"]) == ["oracle_plain"]
    assert record["workloads"]["oracle_plain"]["seeds"] == [601, 602]
    entry = record["paper_scale"]["si_desk"]
    # written after every pair: the second and third pairs saw 1 and 2
    assert seen == [None, None, 1, 1, 2, 2]
    assert list(entry) == ["d", "b", "paths", "pairs", "seeds",
                           "change_wins", "median_change_pct",
                           "held_out_seed", "digests_match", "parent",
                           "change"]
    assert (entry["d"], entry["b"], entry["paths"]) == (100, 12.0, 500)
    assert entry["seeds"] == [621, 622, 623]
    assert entry["held_out_seed"] == 623
    assert entry["digests_match"] is True
    assert entry["change_wins"] == {"seconds": 3}
    assert entry["median_change_pct"] == {"seconds": -20.0}
    parent = entry["parent"]["seconds"]
    assert parent["runs"] == [621 / 600, 622 / 600, 623 / 600]
    assert parent["median"] == 622 / 600
    assert list(entry["parent"]) == ["seconds"]


def test_a_changed_paper_scale_estimate_stops_with_status_1(
        driver, monkeypatch, capsys, tmp_path):
    def paper(tree, config, seed, paths):
        got = fake_paper(tree, config, seed, paths)
        if tree == ROOT and seed == 602:
            got["p_hat"] = got["digest"][0] = 1.0000000000000002e-06
        return got

    monkeypatch.setattr(driver, "_paper", paper)
    out = tmp_path / "pairs.json"
    assert driver.main(["--out", str(out), "--pairs",
                        "gap_normal_desk=3"]) == 1
    err = capsys.readouterr().err
    assert ("gap_normal_desk seed 602: p_hat, second_moment [1e-06, 3e-12] "
            "-> [1.0000000000000002e-06, 3e-12]") in err
    assert json.loads(out.read_text())["paper_scale"]["gap_normal_desk"][
        "pairs"] == 1


def test_a_verdict_line_follows_each_target(driver, monkeypatch, capsys,
                                            tmp_path):
    # the workload's change is 10% faster on every pair: resolved; the
    # paper-scale change is faster on 2 of 3 pairs only: unresolved
    def paper(tree, config, seed, paths):
        got = fake_paper(tree, config, seed, paths)
        if tree != ROOT:
            got["seconds"] *= 0.7 if seed == 622 else 1.25
        return got

    monkeypatch.setattr(driver, "_bench", fake_bench)
    monkeypatch.setattr(driver, "_paper", paper)
    out = tmp_path / "pairs.json"
    assert driver.main(["--out", str(out), "--pairs", "oracle_plain=10",
                        "si_desk=3"]) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines()
             if "resolved" in ln]
    assert [ln.split(", median")[0] for ln in lines] == [
        "oracle_plain: wall_s resolved: the change won 10 of 10 pairs",
        "si_desk: seconds unresolved: the change won 2 of 3 pairs"]
    record = json.loads(out.read_text())
    assert record["workloads"]["oracle_plain"]["change_wins"]["wall_s"] == 10
    assert record["paper_scale"]["si_desk"]["change_wins"] == {"seconds": 2}


def test_workload_lines_show_units_beside_peak_rss(driver, monkeypatch,
                                                  capsys, tmp_path):
    # the change fits more units into a run and so reads more memory;
    # paper-scale lines have no units and print no memory
    def bench(tree, workload, seed, seconds):
        got = fake_bench(tree, workload, seed, seconds)
        more = tree == ROOT
        return dict(got, units=200 + 50 * more + seed % 3,
                    peak_rss_mb=41.0 + 0.5 * more + 0.01 * (seed % 3))

    monkeypatch.setattr(driver, "_bench", bench)
    monkeypatch.setattr(driver, "_paper", fake_paper)
    out = tmp_path / "pairs.json"
    assert driver.main(["--out", str(out), "--pairs", "si_scan=3",
                        "si_desk=1"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [ln.split(": wall_s ")[1].split(", ", 1)[1] for ln in err
            if ln.startswith("si_scan seed")] == [
        "peak_rss_mb 41.01 -> 41.51, units 201 -> 251",
        "peak_rss_mb 41.02 -> 41.52, units 202 -> 252",
        "peak_rss_mb 41.00 -> 41.50, units 200 -> 250"]
    verdict = next(ln for ln in err if ln.startswith("si_scan: wall_s "))
    assert verdict.endswith("; median peak_rss_mb 41.01 -> 41.51, "
                            "units 201 -> 251")
    assert not any("units" in ln for ln in err if ln.startswith("si_desk"))
    entry = json.loads(out.read_text())["workloads"]["si_scan"]
    assert entry["change"]["units"]["runs"] == [251, 252, 250]


@pytest.mark.parametrize("change, extra, verdict", [
    ([0.8] * 9 + [1.01], {}, "resolved"),
    ([0.8] * 8 + [1.01] * 2, {}, "unresolved"),
    ([0.9] * 10, {}, "unresolved"),
    ([0.8] * 10, {"digests_match": False}, "unresolved"),
    ([0.8] * 10, {"all_correct": False}, "unresolved"),
    ([0.8] * 10, {"failed": {"parent": 0, "change": 1}}, "unresolved"),
    ([1.2] * 9 + [0.8], {}, "regressed"),
    ([1.2] * 8 + [0.8] * 2, {}, "unresolved"),
])
def test_verdict_needs_both_the_wins_and_the_median_gap(driver, change,
                                                         extra, verdict):
    # parent quartiles 0.9 and 1.0: the medians must differ by more than
    # 0.1, and a gain counts only with equal outputs and no more failures
    entry = {"pairs": 10, "digests_match": True, "all_correct": True,
             "failed": {"parent": 0, "change": 0},
             "change_wins": {"wall_s": sum(c < 1.0 for c in change)},
             "parent": {"wall_s": {"median": 1.0, "q1": 0.9, "q3": 1.0,
                                   "runs": [1.0] * 10}},
             "change": {"wall_s": {"median": statistics.median(change),
                                   "runs": change}}, **extra}
    line = driver._verdict("w", entry, {"name": "wall_s", "better": "lower"})
    assert line.startswith(f"w: wall_s {verdict}: ")
