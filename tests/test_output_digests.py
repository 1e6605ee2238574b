"""``scripts/output_digests.py``, the byte-identity check for refactors,
runs clean and prints the same listing twice, with or without keeping the
outputs; ``scripts/compare_outputs.py`` tells a last-bit move of a float
from a changed count."""

import importlib.util
import json
import math
from pathlib import Path
import subprocess
import sys

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "output_digests.py"


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_listing_is_complete_clean_and_repeatable(tmp_path):
    digests = load_script("output_digests")
    want = [(path.stem, cmd)
            for path in sorted((ROOT / "configs").glob("*.json"))
            for cmd, _ in digests.jobs(json.loads(path.read_text()))]
    kept = tmp_path / "kept"
    runs = [subprocess.Popen([sys.executable, str(SCRIPT), *extra],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True) for extra in ([], ["--keep", kept])]
    listings = []
    for run in runs:
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
        listings.append(out.splitlines())
    rows = [line.split() for line in listings[0]]
    assert [(config, cmd) for config, cmd, *_ in rows] == want
    assert all(status == "0" for _, _, status, _ in rows)
    assert listings[0] == listings[1]
    assert sorted(p.name for p in kept.iterdir()) == sorted(
        f"{config}_{cmd}" for config, cmd in want)


def write_tree(root, p_hat, tally):
    out = root / "a_run" / "out"
    out.mkdir(parents=True)
    (out / "a_run.json").write_text(json.dumps(
        {"rows": [{"b": 8.0, "p_hat": p_hat, "exit_tally": {"A=0": tally}}]}))
    (out / "a_scan.csv").write_text(f"b,p_hat\n8.0,{p_hat!r}\n")
    return root


def test_compare_outputs_passes_an_ulp_and_fails_a_tally(tmp_path, capsys):
    compare = load_script("compare_outputs")
    old = write_tree(tmp_path / "old", 0.1, 3)
    moved = write_tree(tmp_path / "moved", math.nextafter(0.1, 1.0), 3)
    assert compare.main([str(old), str(moved)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == [
        "a_run/out/a_run.json:rows[].p_hat", "a_run/out/a_scan.csv:rows[].p_hat"]
    assert compare.main([str(old), str(old)]) == 0
    assert capsys.readouterr().out.startswith("0 field paths differ")

    tally = write_tree(tmp_path / "tally", 0.1, 4)
    assert compare.main([str(old), str(tally)]) == 1
    assert "a_run/out/a_run.json:rows[].exit_tally.A=0  3 -> 4" in \
        capsys.readouterr().out
    (tally / "a_run" / "out" / "a_scan.csv").unlink()
    assert compare.main([str(old), str(tally)]) == 1
    assert "a_run/out/a_scan.csv  'present' -> 'missing'" in \
        capsys.readouterr().out
    far = write_tree(tmp_path / "far", 0.1 * (1 + 1e-9), 3)
    assert compare.main([str(old), str(far)]) == 1
