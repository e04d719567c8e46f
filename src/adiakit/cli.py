"""Command-line front end.

Subcommands::

    adiakit check    --config cfg.ini            hypothesis checks
    adiakit invariant --config cfg.ini           J, F1, F2 and the series value
    adiakit simulate --config cfg.ini            trajectory CSV with series columns
    adiakit drift    --config cfg.ini            drift-order study + F2 check

Every subcommand reads one ``RunConfig`` (``config``); ``--out`` and
``--format`` override its ``[output]`` keys, and ``drift`` runs
``order_sweep(config, workers)`` with ``--workers``.

Exit codes: 0 success, 1 contract or check failure, 2 usage/config error.
``simulate`` writes its CSV and exits 1 when the node cap leaves the series'
orbit profiles unresolved, as ``invariant``, ``check`` and ``drift`` do.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import kernel as sk
from .config import RunConfig
from .errors import (AdiakitError, ConfigError, DomainError, InvalidParameter,
                     NotFound, SlopeUndefined, UnsupportedOrder)
from .experiments import emit, order_sweep, trajectory
from .invariants import InvariantSeries, check_hypotheses, series_values

USAGE_ERRORS = (ConfigError, DomainError, InvalidParameter, NotFound,
                UnsupportedOrder, SlopeUndefined, ValueError)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        return args.handler(config, args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AdiakitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="adiakit",
        description="Adiabatic invariants of slow-fast Hamiltonian systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run configuration file (INI)")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                       help="parallel workers for experiment grids")
        p.add_argument("--format", choices=("csv", "json", "both"), default=None,
                       help="report format override")

    p_check = sub.add_parser("check", help="run the hypothesis suite at the initial point")
    common(p_check)
    p_check.set_defaults(handler=cmd_check)

    p_inv = sub.add_parser("invariant", help="evaluate J, F1, F2 and the series")
    common(p_inv)
    p_inv.add_argument("--order", type=int, default=None, help="series order (0, 1 or 2)")
    p_inv.add_argument("--eps", type=float, default=None, help="perturbation strength")
    p_inv.set_defaults(handler=cmd_invariant)

    p_sim = sub.add_parser("simulate", help="integrate one trajectory and tabulate the series")
    common(p_sim)
    p_sim.add_argument("--eps", type=float, default=None, help="perturbation strength")
    p_sim.set_defaults(handler=cmd_simulate)

    p_drift = sub.add_parser("drift", help="drift-order study over the eps grid")
    common(p_drift)
    p_drift.set_defaults(handler=cmd_drift)

    return parser


def _load_config(args) -> RunConfig:
    config = RunConfig.load(args.config)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    if getattr(args, "format", None):
        config = replace(config, out_format=args.format)
    return config


def _outdir(config: RunConfig) -> str:
    os.makedirs(config.out_dir, exist_ok=True)
    return config.out_dir


def cmd_check(config: RunConfig, args) -> int:
    fixture, action, initial = config.build()
    report = check_hypotheses(fixture.system, action, initial)
    if config.out_format == "json":
        print(json.dumps(report.as_dict(), sort_keys=True, indent=2))
    else:
        for name, residual in report.as_dict()["residuals"].items():
            tol = report.tolerances[name]
            status = "PASS" if report.flags[name] else "FAIL"
            print(f"{name:<14s} residual {residual:.3e}  tol {tol:.1e}  {status}")
    if not report.ok:
        print(f"failing checks: {', '.join(report.failing)}", file=sys.stderr)
    if not report.resolved:
        _warn_unresolved(action.nodes)
    return 0 if report.ok and report.resolved else 1


def cmd_invariant(config: RunConfig, args) -> int:
    order = config.order if args.order is None else args.order
    fixture, action, initial = config.build()
    eps = _eps(config, args)
    terms, _, resolved = InvariantSeries(fixture.system, action, order).resolve_point(initial)
    j_val, f1_val, f2_val = terms
    series = series_values(terms, eps, order)

    print(f"point   = {_fmt_vec(initial.coords)}")
    print(f"eps     = {eps:.12g}")
    print(f"order   = {order}")
    print(f"J       = {j_val:.12g}")
    if order >= 1:
        print(f"F1      = {f1_val:.12g}")
    if order >= 2:
        print(f"F2      = {f2_val:.12g}")
    print(f"series  = {series:.12g}")
    if not resolved:
        _warn_unresolved(action.nodes)
        return 1
    return 0


def cmd_simulate(config: RunConfig, args) -> int:
    fixture, action, initial = config.build()
    eps = _eps(config, args)
    system = fixture.system
    traj = trajectory(system, initial, eps, config.horizon_c, config.samples,
                      config.integrator_config())

    r, k = system.r, system.k
    header = (["t"]
              + [f"y{i+1}" for i in range(r)] + [f"x{i+1}" for i in range(r)]
              + [f"p{i+1}" for i in range(k)] + [f"q{i+1}" for i in range(k)]
              + ["H", "F0", "F1s", "F2s"])
    terms, _, resolved = InvariantSeries(system, action, 2).resolve_batch(traj.states)
    columns = [series_values(terms, eps, order) for order in (0, 1, 2)]
    fast, slow = list(traj.states[:, :2 * r].T), list(traj.states[:, 2 * r:].T)
    h_vals = np.broadcast_to(np.asarray(sk.value(system.H(fast, slow)), dtype=float),
                             traj.times.shape)

    path = os.path.join(_outdir(config), "trajectory.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row, t in enumerate(traj.times):
            cells = ([t] + list(traj.states[row]) + [h_vals[row]]
                     + [col[row] for col in columns])
            fh.write(",".join(repr(float(v)) for v in cells) + "\n")
    print(f"trajectory written to {path}")
    if not resolved:
        _warn_unresolved(action.nodes)
        return 1
    return 0


def cmd_drift(config: RunConfig, args) -> int:
    started = time.perf_counter()
    report = order_sweep(config, args.workers)
    f2_check = report.f2_check
    report.metadata["config"] = config.serialize(output=False)

    out_dir = _outdir(config)
    written = []
    if config.out_format in ("csv", "both"):
        written.append(emit(report, "csv", os.path.join(out_dir, "drift.csv")))
    if config.out_format in ("json", "both"):
        written.append(emit(report, "json", os.path.join(out_dir, "drift.json")))

    print(f"fixture {report.fixture}")
    if f2_check is not None:
        closed = ("-" if f2_check["closed_diff"] is None
                  else f"{f2_check['closed_diff']:.3e}")
        print(f"F2 check  F2 {f2_check['f2']:.12g}  "
              f"homological residual {f2_check['ty3_residual']:.3e}  "
              f"closed-form diff {closed}  [{'ok' if f2_check['ok'] else 'FAIL'}]")
    print("order  slope      max|resid|")
    for order in report.orders:
        fit = report.slopes[order]
        window = "ok" if fit.in_window else "OUT"
        print(f"{order:>5d}  {fit.slope:>8.4f}  {fit.residual:>10.3e}  [{window}]")
    print("orbit nodes  " + "  ".join(f"eps {eps!r}: {'-' if n is None else n}"
                                      for eps, (n, _) in report.resolution.items()))
    for eps, steps in report.steps.items():
        print(f"integrator  eps {eps!r}: {steps['rhs_calls']} rhs calls, "
              f"{steps['accepted']} accepted, {steps['rejected']} rejected, "
              f"|h| {steps['h_min']:.3e} to {steps['h_max']:.3e}")
    for path in written:
        print(f"wrote {path}")
    print(f"wall time {time.perf_counter() - started:.1f} s")

    if f2_check is not None and not f2_check["resolved"]:
        _warn_unresolved(config.nodes, " for the F2 check")
    unresolved = report.unresolved_eps()
    if unresolved:
        _warn_unresolved(config.nodes, f" for eps {', '.join(repr(e) for e in unresolved)}")
    ok = (report.slope_contract_ok() and (f2_check is None or f2_check["ok"])
          and not unresolved)
    if not ok:
        print("drift contract not met", file=sys.stderr)
        return 1
    return 0


def _eps(config: RunConfig, args) -> float:
    """``--eps``, which must lie in (0, 1) as the ``eps`` key's values do, or the grid's first."""
    eps = config.eps_grid[0] if args.eps is None else args.eps
    if not 0.0 < eps < 1.0:
        raise InvalidParameter(f"--eps {eps!r} must lie in (0, 1)")
    return eps


def _warn_unresolved(cap: int, what: str = "") -> None:
    print(f"warning: orbit profiles unresolved at the node cap {cap}{what}", file=sys.stderr)


def _fmt_vec(vec) -> str:
    return "(" + ", ".join(f"{float(v):.12g}" for v in vec) + ")"


if __name__ == "__main__":
    sys.exit(main())
