"""Compare two kept output trees field by field.

    python3 scripts/compare_outputs.py OLD NEW [--rtol 1e-12] [--atol 1e-14]

``OLD`` and ``NEW`` are directories written by ``scripts/output_digests.py
--keep``.  Every JSON and CSV file is parsed and walked; any other file is
compared byte for byte.  A field path names the file and the keys down to
a value, with list indices (JSON) and rows (CSV, keyed by column) folded
into ``[]``, so ``a_run/out/a_run.json:rows[].p_hat`` covers every row.
For each path that differs one line is printed: the largest absolute and
relative change of a float field, or the first changed value and the
count of changes of any other field.

The exit status is 1 when a file is missing or extra, when any non-float
value differs (a count, tally, string, boolean, key set or list length),
or when floats a, b differ by more than ``rtol * max(|a|, |b|) + atol``;
otherwise 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
from pathlib import Path
import sys


def _cell(text: str):
    """A CSV cell as a float when it is written as one, else as text."""
    try:
        int(text)
        return text
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _csv_tree(path: Path):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return []
    head = rows[0]
    return {"columns": head,
            "rows": [{head[i] if i < len(head) else f"#{i}": _cell(v)
                      for i, v in enumerate(row)} for row in rows[1:]]}


def _load(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    if path.suffix == ".csv":
        return _csv_tree(path)
    return path.read_bytes()


class Diff:
    """The largest change per field path and whether any change fails."""

    def __init__(self, rtol: float, atol: float):
        self.rtol, self.atol = rtol, atol
        self.floats: dict = {}  # path -> [max abs, max rel, failed]
        self.others: dict = {}  # path -> [first (old, new), count]

    def other(self, path: str, a, b) -> None:
        entry = self.others.setdefault(path, [(a, b), 0])
        entry[1] += 1

    def number(self, path: str, a: float, b: float) -> None:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        scale = max(abs(a), abs(b))
        gap = abs(a - b)
        rel = gap / scale if scale else math.inf
        failed = not gap <= self.rtol * scale + self.atol
        entry = self.floats.setdefault(path, [0.0, 0.0, False])
        entry[0], entry[1] = max(entry[0], gap), max(entry[1], rel)
        entry[2] |= failed

    def walk(self, path: str, a, b) -> None:
        if isinstance(a, float) and isinstance(b, float):
            self.number(path, a, b)
        elif isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                self.other(path + "{keys}", sorted(a), sorted(b))
            dot = "" if path.endswith(":") else "."
            for key in a.keys() & b.keys():
                self.walk(f"{path}{dot}{key}", a[key], b[key])
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.other(path + "[len]", len(a), len(b))
            for x, y in zip(a, b):
                self.walk(path + "[]", x, y)
        elif isinstance(a, bytes) and isinstance(b, bytes):
            if a != b:
                self.other(path, f"{len(a)} bytes", f"{len(b)} bytes")
        elif type(a) is not type(b) or a != b:
            self.other(path, a, b)

    @property
    def failed(self) -> bool:
        return bool(self.others) or any(f for *_, f in self.floats.values())

    def lines(self):
        for path, (gap, rel, failed) in sorted(self.floats.items()):
            yield (f"{path}  abs {gap:.3g}  rel {rel:.3g}"
                   + ("  FAIL" if failed else ""))
        for path, ((a, b), count) in sorted(self.others.items()):
            yield f"{path}  {a!r} -> {b!r}  ({count}x)  FAIL"


def compare(old: Path, new: Path, rtol: float, atol: float):
    """(output lines, failed) for the trees ``old`` and ``new``."""
    files = [{p.relative_to(root).as_posix() for p in root.rglob("*")
              if p.is_file()} for root in (old, new)]
    diff = Diff(rtol, atol)
    for rel in sorted(files[0] ^ files[1]):
        diff.other(rel, "missing" if rel in files[1] else "present",
                   "present" if rel in files[1] else "missing")
    for rel in sorted(files[0] & files[1]):
        diff.walk(rel + ":", _load(old / rel), _load(new / rel))
    return list(diff.lines()), diff.failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--rtol", type=float, default=1e-12)
    ap.add_argument("--atol", type=float, default=1e-14)
    args = ap.parse_args(argv)
    lines, failed = compare(args.old, args.new, args.rtol, args.atol)
    for line in lines:
        print(line)
    print(f"{len(lines)} field paths differ; "
          + ("FAIL" if failed else "within tolerance"))
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
