"""Drift measurement over horizons T ~ 1/ε, order fitting and reports.

For each ε on a descending grid the full system is integrated to T = c/ε and
the truncated invariant series of each order is sampled along the trajectory;
the reported drift is the max-norm deviation from the initial value (endpoint
values alias oscillatory components, the sup matches the order claim being
tested). Fitted log-log slopes against ε are the quantitative check that an
order-k truncation drifts like ε^k over these horizons.

Reports serialize deterministically: identical configurations produce
byte-identical CSV/JSON files, also under multi-process sweeps.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import kernel as sk
from .circle import CircleAction
from .errors import SlopeUndefined
from .fixtures import get_fixture
from .integrators import IntegratorConfig, integrate
from .invariants import InvariantSeries, f2 as f2_point, series_values, ty3_residual
from .phase import PhasePoint

__all__ = [
    "DriftConfig",
    "DriftCell",
    "SlopeFit",
    "DriftReport",
    "full_field",
    "check_f2",
    "order_sweep",
    "emit",
    "fit_slope",
]

SLOPE_WINDOWS = {0: (0.7, 1.3), 1: (1.7, 2.3), 2: (1.7, np.inf)}


@dataclass(frozen=True)
class DriftConfig:
    """Fully describes one drift study; picklable for worker processes."""

    fixture: str
    params: dict = field(default_factory=dict)
    initial: Optional[tuple] = None  # flat (y.., x.., p.., q..); fixture default if None
    eps_grid: tuple = (0.2, 0.1, 0.05, 0.025, 0.0125)
    horizon_c: float = 1.0
    samples: int = 512
    integrator: IntegratorConfig = IntegratorConfig(method="rk45", rtol=1e-11, atol=1e-13)
    orders: tuple = (0, 1, 2)
    outer_nodes: int = 64
    flow_mode: str = "analytic"
    workers: int = 1

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_grid)
        if len(set(eps)) != len(eps):
            raise ValueError("eps grid values must be distinct")
        if any(not 0.0 < e < 1.0 for e in eps):
            raise ValueError("eps grid values must lie in (0, 1)")
        object.__setattr__(self, "eps_grid", tuple(sorted(eps, reverse=True)))
        if self.samples < 2:
            raise ValueError("need at least two samples per trajectory")

    def build(self):
        fixture = get_fixture(self.fixture, **self.params)
        action = CircleAction(fixture.system, flow_mode=self.flow_mode,
                              nodes=self.outer_nodes)
        initial = (fixture.initial if self.initial is None
                   else fixture.system.point(self.initial))
        return fixture, action, initial


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
    n_points: int
    excluded_eps: tuple = ()

    @property
    def in_window(self) -> bool:
        lo, hi = SLOPE_WINDOWS.get(self.order, (-np.inf, np.inf))
        return np.isfinite(self.slope) and lo <= self.slope <= hi


# ---------------------------------------------------------------------------
# trajectory machinery
# ---------------------------------------------------------------------------

def full_field(system, eps: float):
    """Vector field of the perturbed system as a plain (t, y) -> dy callable.

    One multidual evaluation of H per call delivers the whole gradient.
    """
    r, k = system.r, system.k
    dim = 2 * r + 2 * k
    basis = np.eye(dim)
    H = system.H

    def rhs(t, y):
        tag = sk.fresh_tag()
        fast = [sk.Dual(y[i], basis[i], tag) for i in range(2 * r)]
        slow = [sk.Dual(y[2 * r + i], basis[2 * r + i], tag) for i in range(2 * k)]
        grad = sk.extract_partial(H(fast, slow), tag)
        out = np.empty(dim)
        out[:r] = -grad[r:2 * r]
        out[r:2 * r] = grad[:r]
        out[2 * r:2 * r + k] = -eps * grad[2 * r + k:]
        out[2 * r + k:] = eps * grad[2 * r:2 * r + k]
        return out

    return rhs


def _trajectory(system, initial: PhasePoint, eps: float, horizon_c: float,
                samples: int, integrator: IntegratorConfig):
    t_end = horizon_c / eps
    t_eval = np.linspace(0.0, t_end, samples)
    rhs = full_field(system, eps)
    traj = integrate(rhs, initial.coords, t_end, integrator, t_eval=t_eval)
    return traj


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
    """One ε of a sweep: integrate once, evaluate every requested order."""
    config: DriftConfig = payload["config"]
    eps: float = payload["eps"]
    fixture, action, initial = config.build()
    system = fixture.system
    traj = _trajectory(system, initial, eps, config.horizon_c,
                       config.samples, config.integrator)
    series = InvariantSeries(system, action, max(config.orders))
    terms = series.terms_batch(traj.states)
    return {"eps": eps, "h_drift": _h_drift(system, traj.states),
            "orders": {order: _drift_from_terms(terms, eps, order)
                       for order in config.orders}}


def fit_slope(eps_values, drifts, order: int) -> SlopeFit:
    """Least-squares log-log slope with the pre-asymptotic exclusion rule.

    The largest ε is dropped when its fit residual exceeds three times the
    largest residual of the remaining points; the exclusion is recorded.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    drifts = np.asarray(drifts, dtype=float)
    if eps_values.size < 2:
        raise SlopeUndefined("slope fit needs at least two distinct eps values")
    if np.any(drifts <= 0.0):
        return SlopeFit(order=order, slope=float("nan"), residual=float("nan"),
                        n_points=int(eps_values.size))

    def fit(idx):
        le, ld = np.log(eps_values[idx]), np.log(drifts[idx])
        slope, intercept = np.polyfit(le, ld, 1)
        resid = np.abs(ld - (slope * le + intercept))
        return slope, resid

    idx_all = np.arange(eps_values.size)
    slope, resid = fit(idx_all)
    excluded = ()
    if eps_values.size >= 4:
        i_big = int(np.argmax(eps_values))
        others = np.delete(idx_all, i_big)
        if resid[i_big] > 3.0 * np.max(resid[np.arange(resid.size) != i_big]):
            slope, resid = fit(others)
            excluded = (float(eps_values[i_big]),)
            idx_all = others
    return SlopeFit(order=order, slope=float(slope), residual=float(np.max(resid)),
                    n_points=int(idx_all.size), excluded_eps=excluded)


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
    wall_time_s: float = 0.0  # informational only; never serialized

    def cell(self, eps: float, order: int) -> DriftCell:
        for c in self.cells:
            if c.eps == eps and c.order == order:
                return c
        raise KeyError((eps, order))

    def slope_contract_ok(self) -> bool:
        return all(self.slopes[o].in_window for o in self.orders if o in self.slopes)

    def monotone_ok(self, n_smallest: int = 3, strict: bool = True) -> bool:
        """drift_2 < drift_1 < drift_0 at the n smallest ε values."""
        if not {0, 1, 2} <= set(self.orders):
            return True
        eps_small = sorted(self.eps_grid)[:n_smallest]
        for eps in eps_small:
            d0, d1, d2 = (self.cell(eps, o).drift for o in (0, 1, 2))
            if strict and not (d2 < d1 < d0):
                return False
            if not strict and not (d2 <= d1 <= d0):
                return False
        return True

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


def order_sweep(config: DriftConfig) -> DriftReport:
    """Full ε×order drift grid with slope fits; deterministic given config."""
    started = time.perf_counter()
    if len(config.eps_grid) < 2:
        raise SlopeUndefined("slope fits need at least two eps grid values")
    payloads = [{"config": config, "eps": eps} for eps in config.eps_grid]
    results = _run_jobs(payloads, config.workers)

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

    fixture, _, initial = config.build()
    report = DriftReport(
        fixture=config.fixture,
        params=fixture.params,
        initial=tuple(initial.coords.tolist()),
        eps_grid=config.eps_grid,
        orders=tuple(sorted(config.orders)),
        cells=cells,
        slopes=slopes,
        metadata={
            "integrator": asdict(config.integrator),
            "outer_nodes": config.outer_nodes,
            "flow_mode": config.flow_mode,
            "horizon_c": config.horizon_c,
            "samples": config.samples,
        },
        wall_time_s=time.perf_counter() - started,
    )
    return report


def _run_jobs(payloads, workers: int):
    if workers <= 1 or len(payloads) <= 1:
        return [_sweep_job(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
        return list(pool.map(_sweep_job, payloads))


def check_f2(config: DriftConfig, tol: float = 1e-4) -> dict:
    """Check F₂ at the initial point before it is trusted along trajectories.

    F₂ passes when the defect of its homological equation (``ty3_residual``)
    is at most ``tol`` and, when the fixture carries a closed-form second
    correction, when it reproduces that value to ``tol``.
    """
    fixture, action, initial = config.build()
    system = fixture.system
    value = f2_point(system, action, initial)
    residual = ty3_residual(system, action, initial)
    closed_diff = None
    if fixture.closed_f2 is not None:
        closed_diff = abs(value - float(sk.value(fixture.closed_f2(*initial.state()))))
    return {"f2": value, "ty3_residual": residual, "closed_diff": closed_diff,
            "ok": residual <= tol and (closed_diff is None or closed_diff <= tol)}


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
