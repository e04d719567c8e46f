"""One digest per ``adiakit`` invocation, to compare the reports of two trees.

Usage (from the repository root)::

    python3 tools/report_digest.py <src-dir> [--keep DIR] > digests.txt

Runs ``adiakit`` from ``<src-dir>`` (a ``src`` directory holding the
``adiakit`` package) in a fresh interpreter per invocation, with
``--workers 1``, and prints one line per invocation::

    <label> <exit code> <digest>

The invocations are, for both fixtures and both flows, ``check``,
``check --format json``, ``invariant --order 0``, ``1`` and ``2``, ``drift``
and ``simulate`` on the fixture's default configuration, and then every check
and operation invocation of seeds 1-4 of each workload in
``bench/workloads.py``, which is read and not changed. The digest covers
standard output with the ``wall time`` line and the paths of the run's
temporary directory and of ``<src-dir>`` masked, standard error masked the
same way, and the bytes of every file the invocation wrote.

Run it once on each tree and ``diff`` the two outputs: a refactor that keeps
every number keeps every line. With ``--keep DIR``, each invocation's exit
code, masked standard output and error and written files are also kept under
``DIR/<label>/`` (``exit_code``, ``stdout``, ``stderr`` and ``files/``), for
``tools/report_diff.py`` to compare numerically where lines differ.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402

FIXTURES = ("elastic_pendulum", "charged_particle")
FLOWS = ("analytic", "numeric")
COMMANDS = (("check",), ("check", "--format", "json"), ("invariant", "--order", "0"),
            ("invariant", "--order", "1"), ("invariant", "--order", "2"), ("drift",),
            ("simulate",))
SEEDS = (1, 2, 3, 4)
WALL_TIME = re.compile(rb"^wall time .*$", re.MULTILINE)


def invocations():
    """(label, INI text, argv) of every invocation, in a fixed order."""
    for fixture in FIXTURES:
        for flow in FLOWS:
            ini = f"[fixture]\nname = {fixture}\n\n[quadrature]\nflow_mode = {flow}\n"
            for argv in COMMANDS:
                yield f"{fixture}/{flow}/{'-'.join(argv).replace('--', '')}", ini, argv
    for name in workloads.NAMES:
        for seed in SEEDS:
            load = workloads.build(name, seed)
            for role, group in (("check", load.checks), ("op", load.operation)):
                for i, inv in enumerate(group):
                    label = f"{name}/{seed}/{role}{i}-{inv.key}/{'-'.join(inv.argv)}"
                    yield label.replace("--", ""), inv.ini, inv.argv


def digest(src: Path, ini: str, argv, keep=None) -> tuple:
    """(exit code, sha256 of the masked outputs and written files) of one run;
    the hashed parts are copied to the directory ``keep`` when it is given."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "config.ini").write_text(ini, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "adiakit.cli", *argv, "--config", "config.ini",
             "--out", "out", "--workers", "1"],
            cwd=work, env=env, capture_output=True)
        if keep is not None:
            keep.mkdir(parents=True)
            (keep / "exit_code").write_text(f"{proc.returncode}\n", encoding="utf-8")
        h = hashlib.sha256()
        for name, stream in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            masked = WALL_TIME.sub(b"wall time <masked>", stream)
            for path in (str(work.resolve()), str(work), str(src)):
                masked = masked.replace(path.encode(), b"<path>")
            h.update(len(masked).to_bytes(8, "little") + masked)
            if keep is not None:
                (keep / name).write_bytes(masked)
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            if path.name != "config.ini":
                data = path.read_bytes()
                h.update(str(path.relative_to(work)).encode() + b"\0"
                         + len(data).to_bytes(8, "little") + data)
                if keep is not None:
                    kept = keep / "files" / path.relative_to(work)
                    kept.parent.mkdir(parents=True, exist_ok=True)
                    shutil.copyfile(path, kept)
        return proc.returncode, h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 tools/report_digest.py")
    parser.add_argument("src", type=Path, help="a src directory holding adiakit")
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="also keep each invocation's outputs under DIR/<label>/")
    args = parser.parse_args(argv)
    if not (args.src / "adiakit").is_dir():
        parser.error(f"{args.src} holds no adiakit package")
    if args.keep is not None and args.keep.exists():
        parser.error(f"{args.keep} exists; keep each run in a new directory")
    src = args.src.resolve()
    for label, ini, argv in invocations():
        keep = None if args.keep is None else args.keep / label
        code, value = digest(src, ini, argv, keep)
        print(f"{label} {code} {value}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
