"""Benchmark of ``adiakit`` run the way users run it.

Usage (from the repository root)::

    python3 bench/run.py --workload drift_order2 --seed 1 --seconds 35 --trace 0

Each invocation of ``adiakit`` runs in a fresh interpreter (``child.py``) with
``--workers 1``, one at a time, on INI files generated from ``--seed``
(``workloads.py``). The workload's operation is repeated until ``--seconds``
have passed (at least three times), each time followed by a few set-up-only
invocations. Outputs are checked: slope windows, cell validity, drift
ordering, identical ``drift.csv`` bytes and identical printed output across
repeats, and printed F₁/F₂ against the closed forms.

This process and its children run on one CPU, whose speed is sampled while
they run (``speed.py``); times are reported in reference seconds, i.e. wall
time scaled to the CPU speed the benchmark was built on, so that a shared
host that slows down for minutes does not read as a slower program. The
wall times are printed too.

``--trace 0`` prints the end-to-end metrics ``setup_s``, ``run_s`` and
``peak_rss_mb``. ``--trace 1`` runs the operation once untraced and once
traced and prints the per-layer metrics (see README.md). The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
MIN_OPS = 3
SETUPS_PER_OP = 4  # extra set-up-only invocations after each operation
# Layer times a traced child measures after *done*, not during the command.
REEVALUATED = ("invariants.f1_s", "invariants.f2_s")
RUN_LIMIT_S = 165.0  # no new operation starts after this; the run must end by 180 s


class Runner:
    """Runs invocations in child interpreters and checks their outputs."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.errors = {}   # (flow mode, term) -> largest |printed − closed form|
        self._seen = {}    # invocation key -> output bytes of its first run
        self._count = 0

    def run(self, inv: workloads.Invocation, trace_path=None, setup_only=False) -> dict:
        self._count += 1
        cwd = self.workdir / f"{self._count:03d}-{inv.key}"
        cwd.mkdir(parents=True)
        (cwd / "config.ini").write_text(inv.ini, encoding="utf-8")
        cmd = [sys.executable, str(BENCH / "child.py"), "result.json"]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        if setup_only:
            cmd += ["--setup-only"]
        cmd += ["--", *inv.argv, "--config", "config.ini", "--out", "out", "--workers", "1"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
        timeout = max(5.0, self.deadline - time.monotonic())

        self.attempted += 1
        spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return self._fail(inv, f"timed out after {timeout:.0f} s")
        result_file = cwd / "result.json"
        if proc.returncode != 0 or not result_file.exists():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return self._fail(inv, f"child exited with {proc.returncode}: {tail[0]}")
        result = json.loads(result_file.read_text(encoding="utf-8"))
        ready, done, samples = result["ready"], result["done"], result["speed"]
        setup_speed = speed.between(samples, spawn, ready) or [d for _, d in samples]
        run_speed = speed.between(samples, ready, done) or setup_speed
        factors = {"setup": speed.factor(setup_speed), "run": speed.factor(run_speed)}
        if "reevaluated" in result:
            factors["reevaluated"] = speed.factor(
                speed.between(samples, *result["reevaluated"]) or run_speed)
        record = {"key": inv.key, "run_wall_s": done - ready,
                  "setup_s": (ready - spawn) * factors["setup"],
                  "run_s": (done - ready) * factors["run"],
                  "peak_rss_mb": result["peak_rss_mb"], "factors": factors,
                  "layers": result.get("layers")}

        problems = []
        if not Path(result["adiakit"]).is_relative_to(SRC):
            problems.append(f"imported adiakit from {result['adiakit']}, not from {SRC}")
        if result["exit_code"] != 0:
            problems.append(f"adiakit exited with {result['exit_code']}: "
                            f"{proc.stderr.strip()[-200:]}")
        elif setup_only:
            pass  # the command did not run: no output to check
        elif inv.command == "drift":
            problems += workloads.check_drift(cwd / "out")
            problems += self._same_as_first(inv.key, (cwd / "out" / "drift.csv").read_bytes(),
                                            "drift.csv")
        else:
            closed = {"F1": result["closed_f1"], "F2": result["closed_f2"]}
            found, errors = workloads.check_invariant(proc.stdout, closed, int(inv.argv[2]),
                                                      inv.flow_mode)
            problems += found
            for term, err in errors.items():
                key = (inv.flow_mode, term)
                self.errors[key] = max(self.errors.get(key, 0.0), err)
            problems += self._same_as_first(inv.key, proc.stdout.encode(), "printed output")
        if problems:
            return self._fail(inv, "; ".join(problems), record)
        shutil.rmtree(cwd)
        return record

    def _same_as_first(self, key, data: bytes, what: str) -> list:
        first = self._seen.setdefault(key, data)
        return [] if data == first else [f"{what} differs from the first repeat"]

    def _fail(self, inv, message, record=None):
        self.failed += 1
        self.problems.append(f"{inv.key}: {message}")
        return record


def run_record(seed: int) -> dict:
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            lines += sum(1 for _ in fh)
    return {"seed": seed, "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "src_lines": lines}


def _as_metrics(values, declared) -> dict:
    """``values`` in the order and with the units declared in BENCHMARK.json."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def end_to_end(setups, ops, declared) -> dict:
    return _as_metrics({
        "setup_s": statistics.median(setups),
        "run_s": statistics.median([sum(r["run_s"] for r in op) for op in ops]),
        "peak_rss_mb": statistics.median([max(r["peak_rss_mb"] for r in op) for op in ops]),
    }, declared)


def _layers_in_reference_seconds(record) -> dict:
    """The layer metrics of one traced invocation, times scaled as ``run_s`` is."""
    layers = dict(record["layers"])
    for key in layers:
        if key.endswith("_s"):
            layers[key] *= record["factors"]["reevaluated" if key in REEVALUATED else "run"]
    return layers


def per_layer(traced_op, untraced_run_s, declared) -> dict:
    """Sum the traced invocations of one operation into the per-layer metrics."""
    layers = [_layers_in_reference_seconds(r) for r in traced_op]
    total = {k: sum(layer[k] for layer in layers)
             for k in layers[0] if k != "experiments.job_max_s"}
    traced_run_s = sum(r["run_s"] for r in traced_op)
    values = dict(total)
    values["experiments.job_max_s"] = max(layer["experiments.job_max_s"] for layer in layers)
    values["integrators.run_share"] = total["integrators.integrate_s"] / traced_run_s
    values["integrators.rhs_us_per_call"] = (
        1e6 * total["integrators.rhs_s"] / total["integrators.rhs_calls"]
        if total["integrators.rhs_calls"] else 0.0)
    f2_samples = sum(layer["invariants.samples"] for layer in layers
                     if layer["invariants.f2_s"] > 0.0)
    values["invariants.f2_us_per_sample"] = (
        1e6 * total["invariants.f2_s"] / f2_samples if f2_samples else 0.0)
    values["invariants.f2_share"] = total["invariants.f2_s"] / untraced_run_s
    values["trace.overhead_s"] = traced_run_s - untraced_run_s
    return _as_metrics(values, declared)


def measure(workload, spec, seconds, trace, seed, started) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    runner = Runner(workdir, deadline=started + RUN_LIMIT_S + 10.0)
    setups, ops = [], []
    try:
        for inv in workload.checks:
            record = runner.run(inv)
            if record is not None:
                setups.append(record["setup_s"])

        loop_start = time.monotonic()
        while True:
            op_start = time.monotonic()
            op = [runner.run(inv) for inv in workload.operation]
            setups += [r["setup_s"] for r in op if r is not None]
            if not trace:
                extra = [runner.run(workload.operation[0], setup_only=True)
                         for _ in range(SETUPS_PER_OP)]
                setups += [r["setup_s"] for r in extra if r is not None]
            if all(r is not None for r in op):
                ops.append(op)
            now = time.monotonic()
            if trace or now - started + (now - op_start) > RUN_LIMIT_S:
                break
            if len(ops) >= MIN_OPS and now - loop_start + (now - op_start) > seconds:
                break
            if runner.failed and not ops:
                break

        metrics = end_to_end(setups, ops, spec["end_to_end"]) if ops else None
        if trace and ops:
            trace_dir = WORK / "traces"
            trace_dir.mkdir(exist_ok=True)
            traced = [runner.run(inv, trace_dir / f"{workload.name}-seed{seed}-{inv.key}.json")
                      for inv in workload.operation]
            if all(r is not None for r in traced):
                metrics = per_layer(traced, metrics["run_s"]["value"], spec["per_layer"])
            else:
                metrics = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"runner": runner, "metrics": metrics, "n_setups": len(setups), "ops": ops}


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "adiakit" / "__init__.py").is_file():
        print(f"error: no adiakit sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once, as an install does, so that set-up time excludes it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   capture_output=True, check=False)

    # One CPU for this process and every child, so that the speed samples
    # (speed.py) are taken on the CPU the program runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = run_record(args.seed)
    print("record " + json.dumps(record, sort_keys=True))
    workload = workloads.build(args.workload, args.seed)
    out = measure(workload, spec, args.seconds, bool(args.trace), args.seed, started)
    runner, metrics = out["runner"], out["metrics"]

    for problem in runner.problems:
        print(f"check failed: {problem}")
    for (mode, term), err in sorted(runner.errors.items()):
        print(f"accuracy {mode} {term}: max |printed - closed form| = {err:.3e}")
    if metrics is None:
        print(f"error: no operation of {args.workload} completed", file=sys.stderr)
        return 1
    op_times = " ".join(f"{sum(r['run_s'] for r in op):.3f}" for op in out["ops"])
    op_walls = " ".join(f"{sum(r['run_wall_s'] for r in op):.3f}" for op in out["ops"])
    print(f"workload {args.workload} seed {args.seed}: {out['n_setups']} set-ups, "
          f"{len(out['ops'])} operation(s) untraced, run_s each: {op_times} "
          f"(wall: {op_walls})")
    for name, metric in metrics.items():
        print(f"  {name:<36s} {metric['value']:.6g} {metric['unit']}")
    share = runner.failed / runner.attempted
    print(f"  failed {runner.failed}/{runner.attempted} invocations ({100 * share:.1f} %)")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
