"""Drift measurement over horizons T ~ 1/ε, order fitting and reports.

For each ε on a descending grid the full system is integrated to T = c/ε and
the truncated invariant series of each order is sampled along the trajectory;
the reported drift is the max-norm deviation from the initial value (endpoint
values alias oscillatory components, the sup matches the order claim being
tested). Log-log slopes fitted over every ε are the quantitative check that
an order-k truncation drifts like ε^k over these horizons.

The run is a ``config.RunConfig``: ``order_sweep(config, workers)`` runs one
job per ε, on ``workers`` processes. With order 2 it also checks F₂ at the
initial point (``check_f2``), from the first job's batch at sample 0, which
is the initial point bit for bit. Reports serialize deterministically:
identical configurations produce byte-identical CSV/JSON files, also under
multi-process sweeps.
"""

from __future__ import annotations

import functools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kernel as sk
from .config import RunConfig
from .errors import SlopeUndefined
from .integrators import IntegratorConfig, integrate
from .invariants import InvariantSeries, series_values
from .phase import PhasePoint, velocity

__all__ = [
    "DriftCell",
    "SlopeFit",
    "DriftReport",
    "full_field",
    "trajectory",
    "check_f2",
    "order_sweep",
    "emit",
    "fit_slope",
]

SLOPE_WINDOWS = {0: (0.7, 1.3), 1: (1.7, 2.3), 2: (1.7, np.inf)}
# ``check_f2``'s gate. On 40 seeded points of each fixture, with both flows, the
# homological residual stays ≤ 2.1e-13 and the closed-form difference ≤ 3.6e-12
# (numeric flow) and ≤ 6.7e-16 (analytic). An F₁ without ⟨K₁⟩ gives residuals
# of 8.5e-5 to 2.6e-2 on the ω-varying sl(2) system
F2_RESIDUAL_TOL = 1e-10
F2_CLOSED_TOL = 1e-9


@dataclass(frozen=True)
class DriftCell:
    eps: float
    order: int
    drift: float
    h_drift: float
    valid: bool
    horizon: float
    samples: int


@dataclass(frozen=True)
class SlopeFit:
    order: int
    slope: float
    residual: float

    @property
    def in_window(self) -> bool:
        lo, hi = SLOPE_WINDOWS.get(self.order, (-np.inf, np.inf))
        return np.isfinite(self.slope) and lo <= self.slope <= hi


# ---------------------------------------------------------------------------
# trajectory machinery
# ---------------------------------------------------------------------------

def full_field(system, eps: float):
    """Vector field of the perturbed system, (ẏ, ẋ, ṗ, q̇) = (−∂H/∂x, ∂H/∂y,
    −ε·∂H/∂q, ε·∂H/∂p), as a (t, y) -> dy callable on coordinate columns
    (``integrators``' contract), equal bit for bit to ``phase.field_full``.

    It is ``phase.velocity`` of each block, traced once per H with ε as the
    last block (``kernel.tangent``, no tangent directions), whose ``bind``
    takes ``eps``: a call is one call of the traced code. One point's Python
    floats round as numpy's float64 scalars do, but raise where numpy returns
    inf (a division by an exact 0.0, an overflowing ``**``). An H that the
    tracer cannot record costs 2r + 2k dual passes per call instead.
    """
    return _drift_field(system.H, system.r, system.k)(float(eps))


@functools.lru_cache(maxsize=1)
def _drift_field(h, r, k):
    """``bind(eps)`` of H's traced drift field (``kernel.tangent``), kept for the last H."""
    def field(fast, slow, eps):
        return (velocity(h, fast, slow, "fast")
                + [eps[0] * v for v in velocity(h, fast, slow, "slow")])

    return sk.tangent(field, (2 * r, 2 * k, 1), 0)


_last_build = []  # the last config built, and its build: shared by a sweep and its own jobs


def _build(config: RunConfig):
    if _last_build[:1] != [config]:
        _last_build[:] = config, config.build()
    return _last_build[1]


def trajectory(system, initial: PhasePoint, eps: float, horizon_c: float,
               samples: int, integrator: IntegratorConfig):
    """The perturbed system's run from ``initial`` to T = horizon_c/ε, sampled
    at ``samples`` equally spaced times from 0 to T."""
    t_end = horizon_c / eps
    return integrate(full_field(system, eps), initial.coords, t_end, integrator,
                     t_eval=np.linspace(0.0, t_end, samples))


def _drift_from_terms(terms, eps: float, order: int) -> float:
    series = series_values(terms, eps, order)
    return float(np.max(np.abs(series - series[0])))


def _h_drift(system, coords: np.ndarray) -> float:
    r = system.r
    fast = [coords[:, i] for i in range(2 * r)]
    slow = [coords[:, 2 * r + i] for i in range(2 * system.k)]
    h_vals = np.asarray(sk.value(system.H(fast, slow)), dtype=float)
    return float(np.max(np.abs(h_vals - h_vals[0])))


def _sweep_job(payload: dict) -> dict:
    """One ε of a sweep: integrate once, evaluate every requested order, and
    report the orbit node count the series settled at, whether it resolved
    the orbit profiles, and the trajectory's integrator counters. A job marked
    ``check`` also reports F₂ and its homological residual at sample 0."""
    config: RunConfig = payload["config"]
    eps: float = payload["eps"]
    fixture, action, initial = _build(config)
    system = fixture.system
    traj = trajectory(system, initial, eps, config.horizon_c,
                      config.samples, config.integrator_config())
    series = InvariantSeries(system, action, max(config.orders))
    terms, nodes, resolved, *residual = series.resolve_batch(traj.states,
                                                             residual=payload["check"])
    return {"eps": eps, "h_drift": _h_drift(system, traj.states),
            "nodes": nodes, "resolved": resolved,
            "f2": (float(terms[2][0]), float(residual[0][0])) if residual else None,
            "steps": {name: getattr(traj, name)
                      for name in ("rhs_calls", "accepted", "rejected", "h_min", "h_max")},
            "orders": {order: _drift_from_terms(terms, eps, order)
                       for order in config.orders}}


def fit_slope(eps_values, drifts, order: int) -> SlopeFit:
    """Least-squares log-log slope over every ε.

    The line is fitted in closed form, slope = Σ(x−x̄)(y−ȳ) / Σ(x−x̄)² and
    intercept = ȳ − slope·x̄ on x = log ε, y = log drift, so that no run calls
    LAPACK: ``np.polyfit``'s first call adds 1–1.35 MB of resident memory.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    drifts = np.asarray(drifts, dtype=float)
    if eps_values.size < 2 or np.all(eps_values == eps_values[0]):
        raise SlopeUndefined("slope fit needs at least two distinct eps values")
    if not np.all((drifts > 0.0) & np.isfinite(drifts)):
        return SlopeFit(order=order, slope=float("nan"), residual=float("nan"))
    le, ld = np.log(eps_values), np.log(drifts)
    dx, dy = le - le.mean(), ld - ld.mean()
    slope = np.sum(dx * dy) / np.sum(dx * dx)
    intercept = ld.mean() - slope * le.mean()
    resid = np.abs(ld - (slope * le + intercept))
    return SlopeFit(order=order, slope=float(slope), residual=float(np.max(resid)))


@dataclass
class DriftReport:
    """Per-ε drift maxima for each tracked order plus fitted slopes."""

    fixture: str
    params: dict
    initial: tuple
    eps_grid: tuple
    orders: tuple
    cells: list
    slopes: dict
    metadata: dict
    # ε -> (orbit node count, resolved), the count None when no order needs an
    # orbit; never serialized, so the reports keep their bytes under any cap
    resolution: dict = field(default_factory=dict)
    # ε -> the trajectory's integrator counters (``Trajectory``: rhs_calls,
    # accepted, rejected, h_min, h_max); never serialized
    steps: dict = field(default_factory=dict)
    # ``check_f2`` at the initial point, from the first ε job's batch at
    # sample 0, or None without order 2; never serialized
    f2_check: dict | None = None

    def slope_contract_ok(self) -> bool:
        return all(self.slopes[o].in_window for o in self.orders if o in self.slopes)

    def unresolved_eps(self) -> list:
        """The ε whose orbit profiles were still unresolved at the node cap."""
        return [eps for eps, (_, resolved) in self.resolution.items() if not resolved]

    def to_json_dict(self) -> dict:
        return {
            "fixture": self.fixture,
            "params": dict(sorted(self.params.items())),
            "initial": list(self.initial),
            "eps_grid": list(self.eps_grid),
            "orders": list(self.orders),
            "cells": [asdict(c) for c in self.cells],
            "slopes": {str(o): asdict(s) for o, s in sorted(self.slopes.items())},
            "metadata": self.metadata,
        }

    def csv_rows(self):
        # fixed output order: eps descending, order ascending
        yield "eps,order,drift,horizon,samples"
        for cell in self.cells:
            yield (f"{cell.eps!r},{cell.order!r},{cell.drift!r},"
                   f"{cell.horizon!r},{cell.samples!r}")


def order_sweep(config: RunConfig, workers: int = 1) -> DriftReport:
    """Full ε×order drift grid with slope fits, ε descending, one job per ε
    on up to ``workers`` processes; deterministic given config."""
    fixture, _, initial = _build(config)
    eps_grid = tuple(sorted(config.eps_grid, reverse=True))
    if len(eps_grid) < 2:
        raise SlopeUndefined("slope fits need at least two eps grid values")
    results = _run_jobs([{"config": config, "eps": eps, "check": i == 0 and 2 in config.orders}
                         for i, eps in enumerate(eps_grid)], workers)
    f2, first_resolved = results[0]["f2"], results[0]["resolved"]

    cells = []
    for res in results:  # submission order == eps descending
        eps = res["eps"]
        for order in sorted(config.orders):
            drift = res["orders"][order]
            valid = not (drift > 0.0 and res["h_drift"] >= 0.1 * drift)
            cells.append(DriftCell(eps=eps, order=order, drift=drift,
                                   h_drift=res["h_drift"], valid=valid,
                                   horizon=config.horizon_c / eps,
                                   samples=config.samples))

    slopes = {}
    for order in sorted(config.orders):
        eps_vals = [c.eps for c in cells if c.order == order]
        drifts = [c.drift for c in cells if c.order == order]
        slopes[order] = fit_slope(eps_vals, drifts, order)

    return DriftReport(
        fixture=config.fixture,
        params=fixture.params,
        initial=tuple(initial.coords.tolist()),
        eps_grid=eps_grid,
        orders=tuple(sorted(config.orders)),
        cells=cells,
        slopes=slopes,
        metadata={
            "integrator": asdict(config.integrator_config()),
            "outer_nodes": config.nodes,
            "flow_mode": config.flow_mode,
            "horizon_c": config.horizon_c,
            "samples": config.samples,
        },
        resolution={res["eps"]: (res["nodes"], res["resolved"]) for res in results},
        steps={res["eps"]: res["steps"] for res in results},
        f2_check=None if f2 is None else check_f2(fixture, initial, *f2, first_resolved),
    )


def _run_jobs(payloads, workers: int):
    if workers <= 1 or len(payloads) <= 1:
        return [_sweep_job(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
        return list(pool.map(_sweep_job, payloads))


def check_f2(fixture, initial: PhasePoint, value: float, residual: float,
             resolved: bool) -> dict:
    """Check F₂ at the initial point before it is trusted along trajectories.

    ``order_sweep`` passes F₂, the defect of its homological equation
    (``invariants._ty3_residual``) and the resolved flag of its first ε job's
    batch, at sample 0. F₂ passes when its orbit profiles are resolved at the
    node cap, when that defect is at most ``F2_RESIDUAL_TOL`` and, when the
    fixture carries a closed-form second correction, when it reproduces that
    value to ``F2_CLOSED_TOL``.
    """
    closed_diff = None
    if fixture.closed_f2 is not None:
        closed_diff = abs(value - float(sk.value(fixture.closed_f2(*initial.state()))))
    return {"f2": value, "ty3_residual": residual, "closed_diff": closed_diff,
            "resolved": resolved,
            "ok": (resolved and residual <= F2_RESIDUAL_TOL
                   and (closed_diff is None or closed_diff <= F2_CLOSED_TOL))}


def emit(report, fmt: str, path) -> str:
    """Write a report to ``path`` as ``csv`` or ``json``; bytes are
    deterministic for a given configuration."""
    path = str(path)
    if fmt == "csv":
        text = "\n".join(report.csv_rows()) + "\n"
    elif fmt == "json":
        text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2,
                          allow_nan=True) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
