"""``scripts/output_digests.py``, the byte-identity check for refactors,
runs clean and prints the same listing twice."""

import importlib.util
import json
from pathlib import Path
import subprocess
import sys

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "output_digests.py"


def test_digest_listing_is_complete_clean_and_repeatable():
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    want = [(path.stem, cmd)
            for path in sorted((ROOT / "configs").glob("*.json"))
            for cmd, _ in digests.jobs(json.loads(path.read_text()))]
    runs = [subprocess.Popen([sys.executable, str(SCRIPT)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True) for _ in range(2)]
    listings = []
    for run in runs:
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
        listings.append(out.splitlines())
    rows = [line.split() for line in listings[0]]
    assert [(config, cmd) for config, cmd, *_ in rows] == want
    assert all(status == "0" for _, _, status, _ in rows)
    assert listings[0] == listings[1]
