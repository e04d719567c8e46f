"""Numeric comparison of two trees' reports kept by ``tools/report_digest.py``.

Usage (from the repository root)::

    python3 tools/report_digest.py <src-a> --keep A > a.txt
    python3 tools/report_digest.py <src-b> --keep B > b.txt
    python3 tools/report_diff.py A B

For each invocation whose kept outputs differ, prints its label, whether the
exit codes, standard output and standard error match, and for each written
file that differs one line: for a CSV or JSON file, the largest absolute
difference over its numeric cells (per top-level key of a JSON object), or
``layout differs`` where the two files do not have the same cells or their
non-numeric cells differ; for any other file, ``bytes differ``. A NaN cell
matches a NaN cell, and an infinite cell the same infinity; a NaN against a
number differs by inf. Exits 1 when any invocation differs, 2 when an
invocation is kept on one side only.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


class LayoutDiffers(Exception):
    """The two files do not hold the same cells."""


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _cell_diff(a, b) -> float:
    """|a − b| of two numeric cells; 0 for equal NaNs or infinities, inf for
    a NaN against a number."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    diff = abs(a - b)
    return math.inf if math.isnan(diff) else diff


def _csv_diff(a: str, b: str) -> float:
    rows_a, rows_b = list(csv.reader(a.splitlines())), list(csv.reader(b.splitlines()))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        raise LayoutDiffers
    worst = 0.0
    for row_a, row_b in zip(rows_a, rows_b):
        for x, y in zip(row_a, row_b):
            nx, ny = _number(x), _number(y)
            if nx is None or ny is None:
                if x != y:
                    raise LayoutDiffers
            else:
                worst = max(worst, _cell_diff(nx, ny))
    return worst


def _json_diff(a, b) -> float:
    if isinstance(a, bool) or isinstance(b, bool) or not (
            isinstance(a, (int, float)) and isinstance(b, (int, float))):
        if type(a) is not type(b):
            raise LayoutDiffers
        if isinstance(a, dict):
            if a.keys() != b.keys():
                raise LayoutDiffers
            return max((_json_diff(a[key], b[key]) for key in a), default=0.0)
        if isinstance(a, list):
            if len(a) != len(b):
                raise LayoutDiffers
            return max((_json_diff(x, y) for x, y in zip(a, b)), default=0.0)
        if a != b:
            raise LayoutDiffers
        return 0.0
    return _cell_diff(float(a), float(b))


def file_diff(a: Path, b: Path) -> str:
    """One line comparing two kept files that differ."""
    try:
        if a.suffix == ".csv":
            return f"max |diff| {_csv_diff(a.read_text(), b.read_text()):.3g}"
        if a.suffix == ".json":
            ja, jb = json.loads(a.read_text()), json.loads(b.read_text())
            if isinstance(ja, dict) and isinstance(jb, dict) and ja.keys() == jb.keys():
                return ", ".join(f"{key} {_json_diff(ja[key], jb[key]):.3g}"
                                 for key in sorted(ja) if ja[key] != jb[key])
            return f"max |diff| {_json_diff(ja, jb):.3g}"
    except LayoutDiffers:
        return "layout differs"
    return "bytes differ"


def _labels(root: Path):
    return {str(p.parent.relative_to(root)) for p in root.rglob("exit_code")}


def _files(keep: Path):
    files = keep / "files"
    return {str(p.relative_to(files)) for p in files.rglob("*") if p.is_file()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(Path(a).is_dir() for a in argv):
        print("usage: python3 tools/report_diff.py DIR_A DIR_B", file=sys.stderr)
        return 2
    root_a, root_b = map(Path, argv)
    labels_a, labels_b = _labels(root_a), _labels(root_b)
    for label in sorted(labels_a ^ labels_b):
        print(f"{label}: kept in {root_a if label in labels_a else root_b} only")
    status = 2 if labels_a != labels_b else 0
    for label in sorted(labels_a & labels_b):
        a, b = root_a / label, root_b / label
        same = {name: (a / name).read_bytes() == (b / name).read_bytes()
                for name in ("exit_code", "stdout", "stderr")}
        files_a, files_b = _files(a), _files(b)
        changed = sorted(name for name in files_a & files_b
                         if (a / "files" / name).read_bytes() != (b / "files" / name).read_bytes())
        if all(same.values()) and files_a == files_b and not changed:
            continue
        status = max(status, 1)
        print(f"{label}: " + ", ".join(f"{name} {'same' if ok else 'differs'}"
                                        for name, ok in same.items()))
        for name in sorted(files_a ^ files_b):
            print(f"    {name}: written on one side only")
        for name in changed:
            print(f"    {name}: {file_diff(a / 'files' / name, b / 'files' / name)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
