"""Paired benchmark runs of two checkouts, summarized as a BENCH file.

Usage (from the repository root)::

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--workload W2 ...] \\
        --seeds A-B --seconds S --out BENCH_<n>.json [--title TEXT]

``PARENT`` and ``CHANGE`` are the roots of two checkouts, each with its own
``bench/run.py`` and ``src/``; give each a fresh directory, so that each
side's first invocation meets a cold code cache. For every workload and
seed, each side runs ``python3 bench/run.py --workload W --seed SEED
--seconds S`` from its root, one right after the other: the parent first on
odd seeds, the change first on even ones, so that a drift of the host's
speed does not favour one side.

The BENCH file holds the keys of the earlier ones (``BENCH_28.json``):
``title``, ``parent`` and ``change`` (short commit ids, where the roots are
git checkouts), ``command``, ``method``, ``machine``, ``src_lines``,
``notes`` (empty, for the reader's conclusions), ``summary`` and ``runs``.
``summary`` gives, per workload and end-to-end metric of ``BENCHMARK.json``,
each side's median, q1, q3 (inclusive quartiles) and n over the runs that
printed a result, ``change_better_pairs`` (seeds at which the change's value
is better, in the metric's direction, out of the seeds both sides
completed) and ``change_over_parent_median``. ``runs`` holds one record per
run: workload, seconds, seed, side, ``correct``, ``attempted``, ``failed``
and the metrics' values (None for a run that printed no result).

After writing the BENCH file, it prints the summary to standard output, one
line per workload and metric (:func:`summary_lines`).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list:
    """``"A-B"`` as the seeds A..B, or ``"A"`` as [A]."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def order(seed: int) -> tuple:
    """The sides in the order they run at ``seed``: the parent first on odd seeds."""
    return SIDES if seed % 2 else SIDES[::-1]


def run_side(root: Path, side: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run from ``root``: its result, as a run record."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)], cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    record = {"workload": workload, "seconds": seconds, "seed": seed, "side": side}
    if result is None:
        return dict(record, correct=False, attempted=None, failed=None, metrics=None,
                    error=(proc.stderr.strip().splitlines() or ["no output"])[-1])
    return dict(record, correct=result["correct"], attempted=result["attempted"],
                failed=result["failed"],
                metrics={name: m["value"] for name, m in result["metrics"].items()})


def _spread(values: list) -> dict:
    """Median, q1, q3 (inclusive quartiles) and n of ``values``."""
    if len(values) < 2:
        value = values[0] if values else None
        return {"median": value, "q1": value, "q3": value, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list, declared: list) -> dict:
    """Per workload and declared metric (``BENCHMARK.json``'s ``end_to_end``
    entries): each side's spread, the pairs the change wins, and the ratio of
    the medians. Runs without metrics count for neither side."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload and r["metrics"] is not None]
        summary[workload] = {}
        for metric in declared:
            name, lower = metric["name"], metric["better"] == "lower"
            by_side = {side: {r["seed"]: r["metrics"][name] for r in mine if r["side"] == side}
                       for side in SIDES}
            paired = sorted(set(by_side["parent"]) & set(by_side["change"]))
            gains = [by_side["parent"][s] - by_side["change"][s] for s in paired]
            wins = sum(gain > 0 if lower else gain < 0 for gain in gains)
            spreads = {side: _spread(list(by_side[side].values())) for side in SIDES}
            parent, change = spreads["parent"]["median"], spreads["change"]["median"]
            summary[workload][name] = dict(
                spreads, change_better_pairs=f"{wins}/{len(paired)}",
                change_over_parent_median=change / parent if parent and change is not None
                else None)
    return summary


def _quartiles(spread: dict) -> str:
    if spread["median"] is None:
        return "no runs"
    return f"{spread['median']:.4g} [{spread['q1']:.4g}, {spread['q3']:.4g}]"


def summary_lines(summary: dict) -> list:
    """One line per workload and metric of ``summarize``'s result: each side's
    median [q1, q3], the pairs the change wins, and the change's median over
    the parent's."""
    lines = []
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            ratio = s["change_over_parent_median"]
            lines.append(f"{workload} {name}: parent {_quartiles(s['parent'])}, "
                         f"change {_quartiles(s['change'])}, change better in "
                         f"{s['change_better_pairs']} pairs, change/parent "
                         + ("n/a" if ratio is None else f"{ratio:.4f}"))
    return lines


def _commit(root: Path):
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_lines(root: Path) -> int:
    """Lines of ``src/``, counted as ``bench/run.py`` counts them."""
    total = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 tools/bench_pairs.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, metavar="A-B")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True, help="the BENCH file to write")
    parser.add_argument("--title", default="")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not (root / "bench" / "run.py").is_file():
            parser.error(f"{root} holds no bench/run.py")
    declared = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    runs = []
    for workload in args.workload:
        for seed in args.seeds:
            for side in order(seed):
                record = run_side(roots[side], side, workload, seed, args.seconds)
                runs.append(record)
                values = record["metrics"] or {"error": record.get("error")}
                print(f"{workload} seed {seed} {side}: {json.dumps(values)}", flush=True)

    bench = {
        "title": args.title,
        **{side: _commit(root) for side, root in roots.items()},
        "command": f"python3 bench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g}, run from the root of each checkout",
        "method": "tools/bench_pairs.py: for each seed each workload ran once on each side, "
                  "one right after the other; the parent ran first on odd seeds, the change "
                  f"first on even seeds. Seeds {args.seeds[0]}-{args.seeds[-1]}. Times in "
                  "reference seconds (bench/README.md). Quartiles by the inclusive method.",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": importlib.metadata.version("numpy")},
        "src_lines": {side: _src_lines(root) for side, root in roots.items()},
        "notes": [],
        "summary": summarize(runs, declared),
        "runs": runs,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print("\n".join(summary_lines(bench["summary"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
