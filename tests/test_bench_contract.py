"""The names the benchmark's tracer wraps (``bench/child.py``) exist and are
called, and the benchmark's inputs (``bench/workloads.py``) run; the benchmark
is read, never edited."""

import importlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from adiakit import CircleAction, assemble, circle, cli, config, experiments, invariants, kernel
from adiakit import phase

BENCH = Path(__file__).resolve().parent.parent / "bench"
OWNERS = (config.RunConfig, cli, experiments, circle, circle.CircleAction, invariants,
          phase.DiffEngine, kernel.Dual)


def test_tracer_wraps_the_program_and_restores_it(pendulum, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    child, tracer_module = importlib.import_module("child"), importlib.import_module("tracer")
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracer_module.Tracer()
    child._install(tracer, [], [])
    try:
        # compare_variants is gone from the program; every other name is wrapped
        assert set(tracer.absent) <= {"adiakit.cli.compare_variants",
                                      "adiakit.experiments.compare_variants"}
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
