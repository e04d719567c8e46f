"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 bench/spread.py --workload drift_order2 --seeds 1-10

Runs ``bench/run.py`` once per seed, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``, and prints for each end-to-end metric
its median and its interquartile distance as a share of the median
(``statistics.quantiles(values, n=4)``), next to a third of the metric's
bound. A spread above a third of the bound means the benchmark is not steady
enough to judge a change by that bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end metric spread over seeds")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{metric['name']:<12s} median {median:.4f} {metric['unit']}  "
              f"spread {(q3 - q1) / median:.3f}  (a third of the bound: {metric['bound'] / 3:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
