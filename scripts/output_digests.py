"""Print one sha256 per (config, command) over the files the CLI writes.

    python3 scripts/output_digests.py [--tree DIR] [--keep OUT] > digests.txt

Every shipped config under ``DIR/configs`` runs, in process against the
package in ``DIR/src``, each command its sections call for, at cut-down
sizes: ``solve`` and ``check`` for a config with a ``problem``; ``run`` at
600 paths on the first two values of ``b_grid``; ``oracle`` at 600 mixture
and 600 plain paths; ``table`` at its shipped ``rho_grid``, every cell
of Table 1 in well under a second; the rho sweeps at a rho step of 0.3
(the ``gap_v`` sweep as shipped).  Each line reads ``<config> <command>
<exit status> <sha256>``, the digest taken over the relative paths and
bytes of the files the command wrote.  ``DIR`` defaults to the checkout
holding this script.  To compare two commits, export one with ``git
archive`` into a directory, run the script once per tree and ``diff`` the
two listings.  With ``--keep OUT`` each job's config and outputs stay in
``OUT/<config>_<command>/`` (the digests are unchanged), and
``scripts/compare_outputs.py`` compares two kept trees field by field.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
from pathlib import Path
import sys
import tempfile

PATHS = 600  # run paths per b, and each side of an oracle
RHO_STEP = 0.3


def jobs(cfg: dict) -> list:
    """(command, config) pairs for one shipped config, at cut-down sizes."""
    cfg = {k: v for k, v in cfg.items() if k != "paper_scale"}
    out = []
    if "problem" in cfg:
        out += [("solve", cfg), ("check", cfg)]
    if "run" in cfg:
        run = {**cfg["run"], "n_paths": PATHS,
               "b_grid": cfg["run"]["b_grid"][:2]}
        out.append(("run", {**cfg, "run": run}))
    if "oracle" in cfg:
        oracle = {**cfg["oracle"], "n_mixture": PATHS, "n_plain": PATHS}
        out.append(("oracle", {**cfg, "oracle": oracle}))
    if "table" in cfg:
        out.append(("table", cfg))
    if "sweep" in cfg:
        spec = dict(cfg["sweep"])
        if isinstance(spec.get("rho_grid"), dict):
            spec["rho_grid"] = {**spec["rho_grid"], "step": RHO_STEP}
        out.append(("sweep", {**cfg, "sweep": spec}))
    return out


def digest(out: Path) -> str:
    """sha256 over the relative path, length and bytes of every file under
    ``out``, in sorted path order."""
    h = hashlib.sha256()
    for f in sorted(p for p in out.rglob("*") if p.is_file()):
        data = f.read_bytes()
        h.update(f"{f.relative_to(out).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path,
                    default=Path(__file__).resolve().parents[1],
                    help="checkout whose configs and src to run")
    ap.add_argument("--keep", type=Path, metavar="OUT",
                    help="directory to keep each job's outputs in")
    args = ap.parse_args()
    tree = args.tree.resolve()
    sys.path.insert(0, str(tree / "src"))
    from wrongexit.cli import main as cli

    with (contextlib.nullcontext(args.keep) if args.keep
          else tempfile.TemporaryDirectory()) as root:
        for path in sorted((tree / "configs").glob("*.json")):
            for cmd, cfg in jobs(json.loads(path.read_text())):
                work = Path(root) / f"{path.stem}_{cmd}"
                work.mkdir(parents=True)
                cfg_path = work / "config.json"
                cfg_path.write_text(json.dumps(cfg))
                out = work / "out"
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    status = cli([cmd, "--config", str(cfg_path),
                                  "--out", str(out)])
                print(path.stem, cmd, status, digest(out), flush=True)


if __name__ == "__main__":
    main()
