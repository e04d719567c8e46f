"""Explicit ODE integration: fixed-step RK4 and adaptive Dormand–Prince 5(4).

The adaptive path is deliberately *not* symplectic: drift experiments must see
the model's ε-expansion, not integrator energy behaviour, so the instrument is
a high-accuracy embedded pair run at tolerances well below the smallest drift
being measured. Requested sample times are honoured exactly by clipping steps,
which keeps output grids independent of the adaptive step history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import MaxStepsExceeded, StepSizeUnderflow

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "step_rk4",
    "integrate",
    "convergence_order",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Settings for :func:`integrate`.

    ``method`` selects ``"rk45"`` (adaptive embedded 5(4) pair) or ``"rk4"``
    (classical fixed step of size ``dt``).
    """

    method: str = "rk45"
    dt: float = 1e-3
    rtol: float = 1e-9
    atol: float = 1e-12
    max_steps: int = 50_000_000

    def __post_init__(self):
        if self.method not in ("rk45", "rk4"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.rtol <= 0.0 or self.atol <= 0.0:
            raise ValueError("rtol and atol must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must bound total work")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution states; ``states[i]`` corresponds to ``times[i]``."""

    times: np.ndarray
    states: np.ndarray

    def __len__(self):
        return len(self.times)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def step_rk4(field: Callable, t: float, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical 4-stage Runge–Kutta step (works for negative ``dt``)."""
    k1 = field(t, y)
    k2 = field(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = field(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = field(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Dormand–Prince 5(4) tableau (DOPRI5); fifth-order propagation with an
# embedded fourth-order error estimate.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b5 - b4: local truncation error weights
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


def _dp_step(field, t, y, dt, k1=None):
    """Single Dormand–Prince step; returns (y5, err, k_last) with FSAL reuse."""
    k = np.empty((7,) + y.shape)
    k[0] = field(t, y) if k1 is None else k1
    for s in range(1, 7):
        k[s] = field(t + _DP_C[s] * dt, y + dt * (_DP_A[s][:, None] * k[:s]).sum(axis=0))
    y5 = y + dt * (_DP_B5[:, None] * k).sum(axis=0)
    err = dt * (_DP_E[:, None] * k).sum(axis=0)
    return y5, err, k[6]


def _error_norm(err, y_old, y_new, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _initial_step(field, y0, t_span, rtol, atol):
    f0 = field(0.0, y0)
    scale = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    if d0 < 1e-5 or d1 < 1e-5:
        h = 1e-6 * max(abs(t_span), 1.0)
    else:
        h = 0.01 * d0 / d1
    return min(h, abs(t_span))


def integrate(field: Callable, y0: Sequence[float], t_end: float,
              config: IntegratorConfig = IntegratorConfig(),
              t_eval: Optional[Sequence[float]] = None) -> Trajectory:
    """Integrate ``y' = field(t, y)`` from ``t = 0`` to ``t_end``.

    When ``t_eval`` is given, states are reported exactly at those times
    (steps are clipped so each requested time is a step boundary). Otherwise
    the initial state and every accepted step are recorded.

    Raises :class:`MaxStepsExceeded` or :class:`StepSizeUnderflow` carrying
    the last successfully reached time.
    """
    y0 = np.asarray(y0, dtype=float)
    if not np.isfinite(t_end):
        raise ValueError("t_end must be finite")
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        direction = 1.0 if t_end >= 0 else -1.0
        if np.any(direction * np.diff(t_eval) < 0):
            raise ValueError("t_eval must be monotone toward t_end")
    if t_end == 0.0:
        times = np.array([0.0]) if t_eval is None else t_eval
        return Trajectory(times, np.tile(y0, (len(times), 1)))

    if config.method == "rk4":
        return _integrate_fixed(field, y0, t_end, config, t_eval, step_rk4)
    return _integrate_dp(field, y0, t_end, config, t_eval)


def _integrate_fixed(field, y0, t_end, config, t_eval, stepper):
    direction = 1.0 if t_end > 0 else -1.0
    dt = config.dt * direction
    # step boundaries: uniform grid unioned with requested sample times
    boundaries = list(np.arange(dt, t_end, dt)) + [t_end]
    if t_eval is not None:
        boundaries = sorted(set(boundaries) | {t for t in t_eval if t != 0.0},
                            key=lambda s: direction * s)
    if len(boundaries) > config.max_steps:
        raise MaxStepsExceeded("fixed grid exceeds max_steps", last_time=0.0)
    want = set(np.asarray(t_eval).tolist()) if t_eval is not None else None
    times = [0.0]
    states = [y0]
    t, y = 0.0, y0
    for tb in boundaries:
        y = stepper(field, t, y, tb - t)
        t = tb
        if want is None or t in want:
            times.append(t)
            states.append(y)
    if want is not None and 0.0 not in want:
        times, states = times[1:], states[1:]
    return Trajectory(np.asarray(times), np.asarray(states))


def _integrate_dp(field, y0, t_end, config, t_eval):
    direction = 1.0 if t_end > 0 else -1.0
    targets = None if t_eval is None else [float(tt) for tt in t_eval if tt != 0.0]
    next_target = 0
    record_all = targets is None

    h = _initial_step(field, y0, t_end, config.rtol, config.atol)  # magnitude
    t, y = 0.0, y0
    k_last = None
    times, states = [0.0], [y0]

    attempts = 0
    while direction * (t_end - t) > 0.0:
        if attempts >= config.max_steps:
            raise MaxStepsExceeded(
                f"exceeded {config.max_steps} step attempts at t={t!r}", last_time=t)
        min_step = 16.0 * np.finfo(float).eps * max(abs(t), 1.0)
        if h < min_step:
            raise StepSizeUnderflow(f"step size underflow at t={t!r}", last_time=t)

        # clip the trial step to the end time and the next requested sample
        h_try = min(h, abs(t_end - t))
        hit_target = False
        if targets is not None and next_target < len(targets):
            gap = abs(targets[next_target] - t)
            if gap <= h_try:
                h_try = gap
                hit_target = True

        y_new, err, k7 = _dp_step(field, t, y, direction * h_try, k1=k_last)
        attempts += 1
        err_norm = _error_norm(err, y, y_new, config.rtol, config.atol)
        if err_norm <= 1.0:
            t = targets[next_target] if hit_target else t + direction * h_try
            y = y_new
            k_last = k7  # FSAL
            if record_all or hit_target:
                times.append(t)
                states.append(y)
            if hit_target:
                next_target += 1
            factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
        else:
            k_last = None  # FSAL stage invalid after a rejection
            factor = min(1.0, max(0.2, 0.9 * err_norm ** -0.2))
        h = h_try * factor

    if record_all:
        return Trajectory(np.asarray(times), np.asarray(states))

    have = dict(zip(times, (np.asarray(s) for s in states)))
    out_t = [float(tt) for tt in t_eval]
    out_y = [y0 if tt == 0.0 else have[tt] for tt in out_t]
    return Trajectory(np.asarray(out_t), np.asarray(out_y))


def convergence_order(field: Callable, y0: Sequence[float], t_end: float,
                      dt_list: Sequence[float], stepper: Callable = step_rk4) -> float:
    """Fitted log-log slope of end-state error against step size.

    The reference solution is a fixed-step run at ``min(dt_list)/16``.
    Returns ``nan`` when the errors are at rounding level (degenerate field).
    """
    y0 = np.asarray(y0, dtype=float)
    dt_list = sorted(dt_list, reverse=True)

    def run(dt):
        n = int(round(t_end / dt))
        t, y = 0.0, y0
        for _ in range(n):
            y = stepper(field, t, y, dt)
            t += dt
        return y

    ref = run(min(dt_list) / 16.0)
    errs = np.array([np.linalg.norm(run(dt) - ref) for dt in dt_list])
    if np.any(errs < 1e3 * np.finfo(float).eps * max(1.0, np.linalg.norm(ref))):
        return float("nan")
    slope, _ = np.polyfit(np.log(dt_list), np.log(errs), 1)
    return float(slope)
