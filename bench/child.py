"""Run one ``adiakit`` command in this (fresh) interpreter and time it.

Usage::

    python child.py RESULT_JSON [--trace SPANS_JSON | --setup-only] -- <adiakit arguments>

The parent records the spawn time on the system-wide monotonic clock. This
process marks *ready* once ``adiakit`` is imported, the config is parsed and
the fixture and ``CircleAction`` are built, then calls ``adiakit.cli.main``
exactly as the ``adiakit`` console script does and marks *done* when it
returns (with ``--setup-only`` it stops at *ready*). From its start to its
end a ``speed.Sampler`` thread samples the speed of the CPU. ``RESULT_JSON``
receives the two marks, the speed samples, the exit code, the peak resident
memory, and the fixture's closed-form F₁/F₂ at the configured point (the
references the parent checks printed values against). Nothing is written to
standard output except what ``adiakit`` prints.

With ``--trace`` the calls into each layer are timed from outside (see
``tracer.py``), the spans are written to ``SPANS_JSON``, and afterwards, with
tracing removed, F₁ and F₂ are re-evaluated through the public
``assemble(...).evaluate_batch`` on the points the command evaluated; the
re-evaluation's start and end are written to ``RESULT_JSON`` too.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
from tracer import Tracer, clock  # noqa: E402


def _option(argv, flag):
    if flag in argv:
        return argv[argv.index(flag) + 1]
    return None


def _install(tracer, trajectories, emitted):
    import numpy as np
    from adiakit import circle, cli, config, experiments, invariants, kernel, phase

    tracer.wrap(config.RunConfig, "load", "cli.config")
    tracer.wrap(config.RunConfig, "parse", "cli.config")
    # Names are wrapped where the caller looks them up, since ``cli`` imports
    # them into its own namespace.
    for module in (cli, experiments):
        tracer.wrap(module, "compare_variants", "experiments.adjudicate")
        tracer.wrap(module, "order_sweep", "experiments.order_sweep")
        tracer.wrap(module, "emit", "experiments.emit",
                    on_result=lambda path, a, k: emitted.append(os.path.getsize(path)))

    def rhs_wrapper(args, kwargs):
        if "field" in kwargs:
            kwargs["field"] = tracer.timed(kwargs["field"], "integrators.rhs", record=False)
        else:
            args = (tracer.timed(args[0], "integrators.rhs", record=False),) + args[1:]
        return args, kwargs

    def keep_samples(traj, args, kwargs):
        t_end = args[2] if len(args) > 2 else kwargs["t_end"]
        trajectories.append((traj.states, t_end))

    for module in (experiments, circle, cli):
        short = module.__name__.rsplit(".", 1)[-1]
        tracer.wrap(module, "integrate", f"integrators.integrate@{short}",
                    on_call=rhs_wrapper,
                    on_result=keep_samples if module is experiments else None)

    orbit_samples = []
    tracer.wrap(circle.CircleAction, "orbit", "circle.orbit",
                on_result=lambda orbit, a, k: orbit_samples.append(np.size(orbit.fast[0])))
    for name in ("fourier_mean", "s_from_samples", "s_at_nodes"):
        tracer.wrap(invariants, name, "circle.spectral", record=False)
    tracer.wrap(phase.DiffEngine, "partials", "phase.partials", record=False)
    tracer.count_constructions(kernel.Dual)
    return orbit_samples


def _jobs(tracer):
    """Per-ε job spans of each sweep: one integrate call plus the series after it."""
    jobs = []
    for _, sweep_start, sweep_end, _ in tracer.named_spans("experiments.order_sweep"):
        starts = sorted(s[1] for s in tracer.named_spans("integrators.integrate@experiments")
                        if sweep_start <= s[1] <= sweep_end)
        bounds = starts + [sweep_end]
        jobs += [b - a for a, b in zip(bounds, bounds[1:])]
    return jobs


def _layer_metrics(tracer, emitted, orbit_samples, dual_new):
    integrate = [n for n in tracer.stats if n.startswith("integrators.integrate@")]
    jobs = _jobs(tracer)
    return {
        "cli.config_parse_s": tracer.outermost("cli.config"),
        "experiments.adjudicate_s": tracer.outermost("experiments.adjudicate"),
        "experiments.emit_s": tracer.total("experiments.emit"),
        "experiments.emit_bytes": sum(emitted),
        "experiments.job_sum_s": float(sum(jobs)),
        "experiments.job_max_s": max(jobs, default=0.0),
        "integrators.integrate_calls": sum(tracer.calls(n) for n in integrate),
        "integrators.circle_integrate_calls": tracer.calls("integrators.integrate@circle"),
        "integrators.integrate_self_s": sum(tracer.self_time(n) for n in integrate),
        "integrators.integrate_s": tracer.outermost("integrators.integrate@"),
        "integrators.rhs_calls": tracer.calls("integrators.rhs"),
        "integrators.rhs_s": tracer.total("integrators.rhs"),
        "circle.orbit_calls": tracer.calls("circle.orbit"),
        "circle.orbit_samples": int(sum(orbit_samples)),
        "circle.orbit_self_s": tracer.self_time("circle.orbit"),
        "circle.spectral_calls": tracer.calls("circle.spectral"),
        "circle.spectral_s": tracer.total("circle.spectral"),
        "phase.partials_calls": tracer.calls("phase.partials"),
        "phase.partials_s": tracer.total("phase.partials"),
        "kernel.dual_new": dual_new,
    }


def _reevaluate(config, batches, max_order):
    """Seconds of ``evaluate_batch`` at orders 1 and 2 over the given batches."""
    import numpy as np
    from adiakit.invariants import assemble

    # the node counts the commands themselves use
    quad = getattr(config.drift_config(), "quad", None)
    options = {} if quad is None else {"quad": quad}
    dim = config.build()[0].system.dim
    batches = [(np.asarray(c, dtype=float).reshape(-1, dim), eps) for c, eps in batches]
    seconds = {1: 0.0, 2: 0.0}
    for order in (1, 2):
        if order > max_order:
            continue
        fixture, action, _ = config.build()  # fresh action: numeric-orbit cache starts cold
        series = assemble(fixture.system, action, order, **options)
        for coords, eps in batches:
            start = clock()
            series.evaluate_batch(coords, eps)
            seconds[order] += clock() - start
    f2_s = max(seconds[2] - seconds[1], 0.0) if max_order >= 2 else 0.0
    return {"invariants.f1_s": seconds[1], "invariants.f2_s": f2_s,
            "invariants.samples": sum(c.shape[0] for c, _ in batches)}


def main(argv):
    result_path = argv[0]
    sep = argv.index("--")
    trace_path = _option(argv[:sep], "--trace")
    setup_only = "--setup-only" in argv[:sep]
    cli_argv = argv[sep + 1:]
    config_path = _option(cli_argv, "--config")
    sampler = speed.Sampler().start()

    import adiakit
    import adiakit.cli
    from adiakit.config import RunConfig

    tracer = trajectories = emitted = orbit_samples = None
    if trace_path:
        tracer, trajectories, emitted = Tracer(), [], []
        orbit_samples = _install(tracer, trajectories, emitted)

    config = RunConfig.load(config_path)
    fixture, _, initial = config.build()
    ready = time.monotonic()
    try:
        code = 0 if setup_only else adiakit.cli.main(cli_argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    done = time.monotonic()
    sys.stdout.flush()

    state = initial.state()
    result = {
        "adiakit": os.path.realpath(adiakit.__file__),
        "ready": ready,
        "done": done,
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "closed_f1": None if fixture.closed_f1 is None else float(fixture.closed_f1(*state)),
        "closed_f2": None if fixture.closed_f2 is None else float(fixture.closed_f2(*state)),
    }

    if tracer is not None:
        dual_new = tracer.constructions()
        tracer.uninstall()
        result["layers"] = _layer_metrics(tracer, emitted, orbit_samples, dual_new)
        if cli_argv[0] == "drift":
            batches = [(states, config.horizon_c / t_end) for states, t_end in trajectories]
            max_order = max(config.orders)
        else:
            order = _option(cli_argv, "--order")
            batches = [(initial.coords[None, :], config.eps_grid[0])]
            max_order = config.order if order is None else int(order)
        start = time.monotonic()
        result["layers"].update(_reevaluate(config, batches, max_order))
        result["reevaluated"] = [start, time.monotonic()]
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)

    result["speed"] = sampler.stop()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
