"""Drift measurement over horizons T ~ 1/ε, order fitting and reports.

For each ε on a descending grid the full system is integrated to T = c/ε and
the truncated invariant series of each order is sampled along the trajectory;
the reported drift is the max-norm deviation from the initial value (endpoint
values alias oscillatory components, the sup matches the order claim being
tested). Fitted log-log slopes against ε are the quantitative check that an
order-k truncation drifts like ε^k over these horizons.

The run is a ``config.RunConfig``: ``order_sweep(config, workers)`` runs one
job per ε, on ``workers`` processes, and ``check_f2(config)`` checks F₂ at the
initial point first. Reports serialize deterministically: identical
configurations produce byte-identical CSV/JSON files, also under
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
from .invariants import InvariantSeries, resolve_ty3, series_values
from .phase import PhasePoint

__all__ = [
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
    """Vector field of the perturbed system as a (t, y) -> dy callable on
    coordinate columns (``integrators``' contract: floats for one point,
    arrays over lanes for a lane run).

    One call of H's compiled gradient (``kernel.gradient``) per call delivers
    the whole gradient.
    """
    r, k = system.r, system.k
    grad = _h_gradient(system.H, r, k)
    # (ẏ, ẋ, ṗ, q̇) = (−∂H/∂x, ∂H/∂y, −ε·∂H/∂q, ε·∂H/∂p) from the gradient
    # (∂H/∂y, ∂H/∂x, ∂H/∂p, ∂H/∂q), emitted as straight-line code. One
    # point's coordinates arrive as Python floats, which round as numpy's
    # float64 scalars do (``**`` calls the C pow in both), only faster; where
    # numpy returns inf (a division by an exact 0.0, an overflowing ``**``)
    # they raise instead
    g = [f"g{i}" for i in range(system.dim)]
    velocity = ([f"-{d}" for d in g[r:2 * r]] + g[:r]
                + [f"neg_eps * {d}" for d in g[2 * r + k:]]
                + [f"eps * {d}" for d in g[2 * r:2 * r + k]])
    source = (f"def rhs(t, coords):\n    {', '.join(g)}, = grad(*coords)\n"
              f"    return [{', '.join(velocity)}]\n")
    namespace = {"grad": grad, "eps": float(eps), "neg_eps": -float(eps)}
    exec(compile(source, "<full field>", "exec"), namespace)
    return namespace["rhs"]


@functools.lru_cache(maxsize=1)
def _h_gradient(h, r, k):
    """H's compiled gradient over all 2r + 2k coordinates, kept for the last H."""
    return sk.gradient(h, (2 * r, 2 * k), range(2 * r + 2 * k))


_last_build = []  # the last config a sweep built, and its build, shared by its ε


def _build(config: RunConfig):
    if _last_build[:1] != [config]:
        _last_build[:] = config, config.build()
    return _last_build[1]


def _trajectory(system, initial: PhasePoint, eps: float, horizon_c: float,
                samples: int, integrator: IntegratorConfig):
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
    the orbit profiles, and the trajectory's integrator counters."""
    config: RunConfig = payload["config"]
    eps: float = payload["eps"]
    fixture, action, initial = _build(config)
    system = fixture.system
    traj = _trajectory(system, initial, eps, config.horizon_c,
                       config.samples, config.integrator_config())
    series = InvariantSeries(system, action, max(config.orders))
    terms, nodes, resolved = series.resolve_batch(traj.states)
    return {"eps": eps, "h_drift": _h_drift(system, traj.states),
            "nodes": nodes, "resolved": resolved,
            "steps": {name: getattr(traj, name)
                      for name in ("rhs_calls", "accepted", "rejected", "h_min", "h_max")},
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
    # ε -> (orbit node count, resolved), the count None when no order needs an
    # orbit; never serialized, so the reports keep their bytes under any cap
    resolution: dict = field(default_factory=dict)
    # ε -> the trajectory's integrator counters (``Trajectory``: rhs_calls,
    # accepted, rejected, h_min, h_max); never serialized
    steps: dict = field(default_factory=dict)

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
    results = _run_jobs([{"config": config, "eps": eps} for eps in eps_grid], workers)

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
    )


def _run_jobs(payloads, workers: int):
    if workers <= 1 or len(payloads) <= 1:
        return [_sweep_job(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
        return list(pool.map(_sweep_job, payloads))


def check_f2(config: RunConfig) -> dict:
    """Check F₂ at the initial point before it is trusted along trajectories.

    F₂ passes when its orbit profiles are resolved at the node cap, when the
    defect of its homological equation (``resolve_ty3``) is at most
    ``F2_RESIDUAL_TOL`` and, when the fixture carries a closed-form second
    correction, when it reproduces that value to ``F2_CLOSED_TOL``.
    """
    fixture, action, initial = config.build()
    (value, residual), _, resolved = resolve_ty3(fixture.system, action, initial)
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
