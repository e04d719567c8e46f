"""Explicit ODE integration: fixed-step RK4 and adaptive Dormand–Prince 5(4).

The adaptive path is deliberately *not* symplectic: drift experiments must see
the model's ε-expansion, not integrator energy behaviour, so the instrument is
a high-accuracy embedded pair run at tolerances well below the smallest drift
being measured. Requested sample times are honoured exactly by clipping steps,
which keeps output grids independent of the adaptive step history.

Lanes. The adaptive path also integrates a stack of initial states, ``y0`` of
shape (lanes, dim), over one span to one ``t_eval`` grid. Each lane keeps its
own controller (step size, time, FSAL stage, next sample target, counters) in
Python floats, so many short integrations share one ``field(t, Y)`` call per
stage instead of paying the numpy overhead of one call each: ``t`` holds the
per-lane stage times, shape (lanes,), and ``Y`` the per-lane stage states,
shape (lanes, dim). A lane that has reached ``t_end`` rides along with a zero
step and its derivatives are discarded. A lane's arithmetic is elementwise
along the lane axis and its accept/reject decisions read only its own error
norm, so each lane's states and counters equal those of its one-lane run bit
for bit, provided ``field`` treats every row on its own. A 1-D ``y0`` is a run
of one lane whose ``field`` is called with a float ``t`` and a 1-D ``y``.
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
    """Sampled solution states; ``states[i]`` corresponds to ``times[i]``.

    A lane run has states of shape (times, lanes, dim). The counters hold one
    value per lane (arrays of shape (lanes,) for a lane run): right-hand-side
    evaluations the lane used, accepted and rejected steps, and the smallest
    and largest accepted step magnitude (nan when no step was taken).
    """

    times: np.ndarray
    states: np.ndarray
    rhs_calls: int | np.ndarray
    accepted: int | np.ndarray
    rejected: int | np.ndarray
    h_min: float | np.ndarray
    h_max: float | np.ndarray

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
# embedded fourth-order error estimate. Trailing axes let the nodes broadcast
# over per-lane times (lanes,) and the weights over stages (lanes, dim).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])[:, None]
_DP_A = [np.array(row)[:, None, None] for row in (
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
)]
# fifth-order weights b5, and b5 - b4: the local truncation error weights
_DP_B5_E = np.array([
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
])[:, :, None, None]
_EPS = np.finfo(float).eps


def _rms(x):
    """Per-lane root mean square over the state axis, as Python floats.

    The arithmetic of ``np.mean`` (a sum, then one division by the count)
    without its Python overhead.
    """
    return np.sqrt(np.add.reduce(np.square(x), axis=-1) / x.shape[-1]).tolist()


def _lane_label(i, n_lanes):
    return f" in lane {i}" if n_lanes > 1 else ""


def _per_lane(values, lanes: bool):
    """Counter values as an array over lanes, or the one lane's value."""
    return np.asarray(values) if lanes else values[0]


def _initial_steps(f0, y0, t_span, rtol, atol):
    """First trial step magnitude of each lane."""
    scale = atol + rtol * np.abs(y0)
    steps = []
    for d0, d1 in zip(_rms(y0 / scale), _rms(f0 / scale)):
        if d0 < 1e-5 or d1 < 1e-5:
            h = 1e-6 * max(abs(t_span), 1.0)
        else:
            h = 0.01 * d0 / d1
        steps.append(min(h, abs(t_span)))
    return steps


def integrate(field: Callable, y0: Sequence[float], t_end: float,
              config: IntegratorConfig = IntegratorConfig(),
              t_eval: Optional[Sequence[float]] = None) -> Trajectory:
    """Integrate ``y' = field(t, y)`` from ``t = 0`` to ``t_end``.

    When ``t_eval`` is given, states are reported exactly at those times
    (steps are clipped so each requested time is a step boundary); its
    entries must run monotonically from 0 toward ``t_end`` without passing
    it; a repeated entry repeats the state, without a step of its own.
    Otherwise the initial state and every accepted step are recorded.

    A 2-D ``y0`` of shape (lanes, dim) integrates every lane with its own
    step control (``rk45`` only, ``t_eval`` required); ``field`` is then
    called as ``field(t, Y)`` with per-lane times ``t`` of shape (lanes,)
    and states ``Y`` of shape (lanes, dim). See the module docstring.

    Raises :class:`MaxStepsExceeded` or :class:`StepSizeUnderflow` carrying
    the last time the failing lane reached.
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim not in (1, 2):
        raise ValueError("y0 must be one state (dim,) or a stack of lanes (lanes, dim)")
    lanes = y0.ndim == 2
    if not np.isfinite(t_end):
        raise ValueError("t_end must be finite")
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        direction = 1.0 if t_end >= 0 else -1.0
        if np.any(direction * np.diff(t_eval) < 0):
            raise ValueError("t_eval must be monotone toward t_end")
        lo, hi = min(0.0, t_end), max(0.0, t_end)
        if not np.all((t_eval >= lo) & (t_eval <= hi)):
            raise ValueError(f"t_eval entries must lie between 0 and t_end = {t_end!r}")
    elif lanes:
        raise ValueError("a lane run needs t_eval: its lanes share one output grid")
    if lanes and config.method != "rk45":
        raise ValueError("lane runs use the adaptive method rk45")
    if t_end == 0.0:
        times = np.array([0.0]) if t_eval is None else t_eval
        n_lanes = len(y0) if lanes else 1
        counters = ([0] * n_lanes,) * 3 + ([np.nan] * n_lanes,) * 2
        return Trajectory(times, np.repeat(y0[None], len(times), axis=0),
                          *(_per_lane(c, lanes) for c in counters))

    if config.method == "rk4":
        return _integrate_fixed(field, y0, t_end, config, t_eval, step_rk4)
    if lanes:
        times, states, counters = _integrate_dp(field, y0, t_end, config, t_eval)
    else:
        times, states, counters = _integrate_dp(
            lambda t, y: field(t[0], y[0]), y0[None], t_end, config, t_eval)
        states = states[:, 0]
    return Trajectory(times, states, *(_per_lane(c, lanes) for c in counters))


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
    if t_eval is not None:  # one row per entry, repeated entries included
        at = dict(zip(times, states))
        times, states = t_eval, [at[t] for t in t_eval]
    steps = np.abs(np.diff([0.0] + boundaries))
    n = len(boundaries)
    return Trajectory(np.asarray(times), np.asarray(states), 4 * n, n, 0,
                      float(steps.min()), float(steps.max()))


def _integrate_dp(field, y0, t_end, config, t_eval):
    """Dormand–Prince 5(4) over the lanes of ``y0`` (lanes, dim).

    Every stage is one ``field(t, Y)`` call over all lanes; it returns the
    derivatives as (lanes, dim), or as (dim,) when there is one lane.
    Returns (times, states of shape (times, lanes, dim), per-lane counter
    lists).
    """
    n_lanes = len(y0)
    direction = 1.0 if t_end > 0 else -1.0
    rtol, atol, max_steps = config.rtol, config.atol, config.max_steps
    record_all = t_eval is None
    if record_all:
        targets, times, states = [], [0.0], [y0[0]]
    else:
        targets = [float(tt) for tt in t_eval if tt != 0.0]
        slots = [j for j, tt in enumerate(t_eval) if tt != 0.0]
        out = np.empty((len(t_eval),) + y0.shape)
        out[:] = y0  # rows at t = 0 keep the initial states

    y = np.array(y0)
    h = _initial_steps(field(np.zeros(n_lanes), y), y, t_end, rtol, atol)  # magnitudes
    t = [0.0] * n_lanes
    k1 = None
    stale = [True] * n_lanes  # lanes whose first stage must be evaluated afresh
    next_target = [0] * n_lanes
    rhs_calls = [1] * n_lanes
    accepted = [0] * n_lanes
    rejected = [0] * n_lanes
    h_min = [np.inf] * n_lanes
    h_max = [0.0] * n_lanes
    h_try = [0.0] * n_lanes
    hit = [False] * n_lanes
    active = list(range(n_lanes))

    while active:
        dt = np.zeros(n_lanes)  # signed trial steps; lanes at t_end keep 0
        for i in active:
            ti = t[i]
            if accepted[i] + rejected[i] >= max_steps:
                raise MaxStepsExceeded(f"exceeded {max_steps} step attempts at t={ti!r}"
                                       + _lane_label(i, n_lanes), last_time=ti)
            if h[i] < 16.0 * _EPS * max(abs(ti), 1.0):
                raise StepSizeUnderflow(f"step size underflow at t={ti!r}"
                                        + _lane_label(i, n_lanes), last_time=ti)
            # clip the trial step to the end time and the next requested sample
            step = min(h[i], abs(t_end - ti))
            hit[i] = False
            if next_target[i] < len(targets):
                gap = abs(targets[next_target[i]] - ti)
                if gap <= step:
                    step = gap
                    hit[i] = True
            h_try[i] = step
            dt[i] = direction * step

        t_now = np.array(t)
        renew = [i for i in active if stale[i]]
        if renew:
            fresh = field(t_now, y)
            if len(renew) == n_lanes:
                k1 = fresh
            else:
                k1[renew] = fresh[renew]
            for i in renew:
                rhs_calls[i] += 1
                stale[i] = False

        k = np.empty((7,) + y.shape)
        k[0] = k1
        t_stage = t_now + _DP_C * dt
        dt_col = dt[:, None]
        for s in range(1, 7):
            k[s] = field(t_stage[s], y + dt_col * (_DP_A[s] * k[:s]).sum(axis=0))
        increment, err = dt_col * (_DP_B5_E * k).sum(axis=1)
        y_new = y + increment
        err_norm = _rms(err / (atol + rtol * np.maximum(np.abs(y), np.abs(y_new))))

        moved = []
        for i in active:
            rhs_calls[i] += 6
            norm = err_norm[i]
            if norm <= 1.0:
                step = h_try[i]
                t[i] = targets[next_target[i]] if hit[i] else t[i] + direction * step
                accepted[i] += 1
                if step < h_min[i]:
                    h_min[i] = step
                if step > h_max[i]:
                    h_max[i] = step
                moved.append(i)
                if record_all:
                    times.append(t[i])
                    states.append(y_new[i])
                elif hit[i]:
                    # a repeated t_eval entry takes the state just reached, no step
                    reached = targets[next_target[i]]
                    while next_target[i] < len(targets) and targets[next_target[i]] == reached:
                        out[slots[next_target[i]], i] = y_new[i]
                        next_target[i] += 1
                factor = 5.0 if norm == 0.0 else min(5.0, max(0.2, 0.9 * norm ** -0.2))
            else:
                rejected[i] += 1
                stale[i] = True  # FSAL stage invalid after a rejection
                factor = min(1.0, max(0.2, 0.9 * norm ** -0.2))
            h[i] = h_try[i] * factor
        if len(moved) == n_lanes:
            y, k1 = y_new, k[6]  # FSAL
        elif moved:
            y[moved] = y_new[moved]
            k1[moved] = k[6][moved]
        active = [i for i in active if direction * (t_end - t[i]) > 0.0]

    counters = (rhs_calls, accepted, rejected, h_min, h_max)
    if record_all:
        return np.asarray(times), np.asarray(states)[:, None], counters
    return np.array(t_eval), out, counters


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
