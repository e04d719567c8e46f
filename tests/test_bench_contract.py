"""The names the benchmark's tracer wraps (``bench/child.py``) exist and are
called, and the benchmark's inputs (``bench/workloads.py``) run; the benchmark
is read, never edited."""

import importlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from adiakit import CircleAction, assemble, circle, cli, config, experiments, invariants, kernel
from adiakit import phase

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = BENCH.parent / "src"
OWNERS = (config.RunConfig, cli, experiments, circle, circle.CircleAction, invariants,
          phase.DiffEngine, kernel.Dual)


def test_tracer_wraps_the_program_and_restores_it(pendulum, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    child, tracer_module = importlib.import_module("child"), importlib.import_module("tracer")
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracer_module.Tracer()
    child._install(tracer, [], [])
    try:
        # compare_variants is gone from the program, and cli integrates only
        # through experiments.trajectory; every other name is wrapped
        assert set(tracer.absent) <= {"adiakit.cli.compare_variants",
                                      "adiakit.experiments.compare_variants",
                                      "adiakit.cli.integrate"}
        system = pendulum.system
        coords = np.array([pendulum.initial.coords, pendulum.initial.coords + 0.01])
        assemble(system, CircleAction(system, nodes=8), 2).resolve_batch(coords)
        assert tracer.calls("phase.partials") > 0
    finally:
        tracer.uninstall()
    for owner, names in zip(OWNERS, before):
        assert dict(vars(owner)) == names


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


def test_every_benchmark_config_builds(workloads):
    # and parse -> serialize -> parse gives it back, text and all
    for name in workloads.NAMES:
        for seed in range(1, 5):
            workload = workloads.build(name, seed)
            for inv in workload.checks + workload.operation:
                parsed = config.RunConfig.parse(inv.ini)
                text = parsed.serialize()
                assert config.RunConfig.parse(text) == parsed
                assert config.RunConfig.parse(text).serialize() == text
                parsed.build()


def _run_child(bench_argv, inv, tmp_path, key):
    """``bench/child.py``'s ``main`` in this process, on one invocation as the
    benchmark runs it: its result JSON."""
    child = importlib.import_module("child")
    ini, result = tmp_path / f"{key}.ini", tmp_path / f"{key}.json"
    ini.write_text(inv.ini, encoding="utf-8")
    assert child.main([str(result), *bench_argv, "--", *inv.argv, "--config", str(ini),
                       "--out", str(tmp_path / key), "--workers", "1"]) == 0
    return json.loads(result.read_text(encoding="utf-8"))


def test_benchmark_child_sets_up_every_workload(workloads, tmp_path):
    # the child loads and builds each config outside the CLI's error handling
    for name in workloads.NAMES:
        workload = workloads.build(name, 1)
        for i, inv in enumerate(workload.checks + workload.operation):
            result = _run_child(["--setup-only"], inv, tmp_path, f"{name}-{i}")
            assert result["exit_code"] == 0


def test_benchmark_child_traces_a_numeric_flow_invocation(workloads, tmp_path):
    # the traced run re-evaluates the series through the config it loaded
    inv = workloads.build("numeric_flow", 1).operation[0]
    result = _run_child(["--trace", str(tmp_path / "spans.json")], inv, tmp_path, "traced")
    assert result["exit_code"] == 0
    assert result["layers"]["invariants.f2_s"] >= 0.0
    assert result["layers"]["invariants.samples"] == 1


def test_drift_order2_operation_runs_and_passes_the_benchmark_checks(workloads, tmp_path):
    # every benchmark batch resolves at its cap, so no warning may be raised
    for i, inv in enumerate(workloads.build("drift_order2", 1).operation):
        path, out = tmp_path / f"{i}.ini", tmp_path / str(i)
        path.write_text(inv.ini, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["drift", "--config", str(path), "--out", str(out),
                             "--workers", "1"]) == 0
        assert workloads.check_drift(out) == []


def test_every_workload_operation_runs_in_a_fresh_benchmark_child(workloads, tmp_path):
    # as ``bench/run.py`` runs it: ``child.py`` in a new interpreter, at a
    # seed the in-process tests do not use, and the output passes the
    # benchmark's own checks; the children share a code cache and bytecode
    # of their own, so the first to emit a code compiles it from cold and a
    # later one loads it (the particle's drift run, Υ's numeric orbit run)
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(tmp_path / "pycache"),
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    for name in workloads.NAMES:
        for inv in workloads.build(name, 3).operation:
            cwd = tmp_path / f"{name}-{inv.key}"
            cwd.mkdir()
            (cwd / "config.ini").write_text(inv.ini, encoding="utf-8")
            proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "result.json", "--",
                                   *inv.argv, "--config", "config.ini", "--out", "out",
                                   "--workers", "1"],
                                  cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads((cwd / "result.json").read_text(encoding="utf-8"))
            assert result["exit_code"] == 0, proc.stderr[-2000:]
            assert Path(result["adiakit"]).is_relative_to(SRC)
            if inv.command == "drift":
                assert workloads.check_drift(cwd / "out") == []
            else:
                closed = {"F1": result["closed_f1"], "F2": result["closed_f2"]}
                problems, _ = workloads.check_invariant(proc.stdout, closed, int(inv.argv[2]),
                                                        inv.flow_mode)
                assert problems == []
