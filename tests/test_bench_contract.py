"""The names the benchmark's tracer wraps (``bench/child.py``) exist and are
called; the benchmark is read, never edited."""

import importlib
from pathlib import Path

import numpy as np

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
        assemble(system, CircleAction(system, nodes=8), 2).terms_batch(coords)
        assert tracer.calls("phase.partials") > 0
    finally:
        tracer.uninstall()
    for owner, names in zip(OWNERS, before):
        assert dict(vars(owner)) == names
