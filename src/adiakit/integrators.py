"""Explicit ODE integration: fixed-step RK4 and adaptive Dormand–Prince 5(4).

The adaptive path is deliberately *not* symplectic: drift experiments must see
the model's ε-expansion, not integrator energy behaviour, so the instrument is
a high-accuracy embedded pair run at tolerances well below the smallest drift
being measured. Steps are clipped to the end time only: a requested sample
time inside an accepted step is read off the step's continuous extension
(dense output, DOPRI5's ``contd5``; Hairer, Nørsett & Wanner, *Solving ODEs
I*, §II.6), so the steps and the counters do not depend on the output grid.

Field contract. A field is called as ``field(t, y)``, where ``y`` holds the
``dim`` coordinate columns of the state, and returns the ``dim`` columns of
its derivative. For one point a column is a float; in a lane run it is an
array over the lanes, shape (lanes,), and ``t`` holds the per-lane times. A
field that indexes or unpacks ``y`` and computes elementwise serves both.
The fixed-step RK4 path passes a 1-D array and takes what the field returns
through ``np.asarray``.

Lanes. The adaptive path also integrates a stack of initial states, ``y0`` of
shape (lanes, dim), over one span to one ``t_eval`` grid. Each lane keeps its
own controller state (step size, time, FSAL stage, next sample target,
counters) in Python floats, and its accept/reject decisions read only its own
error norm. A lane that has reached ``t_end`` rides along with a zero step and
its derivatives are discarded.

One controller, two stage kernels. :func:`_integrate_dp` runs the step control
for every lane; the stage arithmetic of a step attempt is split by the shape
of ``y0``:

* a 1-D ``y0`` (one point) runs on Python floats through straight-line code
  for one attempt (:func:`_float_attempt`), emitted once per state dimension
  and cached; no numpy call sits in its loop;
* a 2-D ``y0`` runs the lanes stacked as (lanes, dim) arrays, one ``field``
  call per stage for all lanes, which pays only when lanes are many.

Both kernels take the same IEEE operations in the same order: ``t + c·dt``,
the stage sums ``Σ a_j·k_j`` left to right from 0.0 (numpy's ``add.reduce``
over the stage axis), ``y + dt·Σ``, and the error norm's sum of squares in the
order of numpy's ``add.reduce`` over the contiguous state axis (left to right
from 0.0 below eight terms, eight interleaved partial sums from eight on).
``+ − × ÷`` and ``sqrt`` round each element on its own, so lane i of a lane
run equals the one-point run from its state bit for bit, states and counters,
provided ``field`` treats each lane on its own and takes the same operations
on floats as on arrays. (numpy's ``**`` does not: it rounds differently on
scalars and on arrays.) Dense output keeps this: both kernels store a sampled
step's states and stages in one float array, row by row, and the continuous
extension is evaluated once, elementwise, when the run ends.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import MaxStepsExceeded, NumericalError, StepSizeUnderflow

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
    k1 = np.asarray(field(t, y))
    k2 = np.asarray(field(t + 0.5 * dt, y + 0.5 * dt * k1))
    k3 = np.asarray(field(t + 0.5 * dt, y + 0.5 * dt * k2))
    k4 = np.asarray(field(t + dt, y + dt * k3))
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Dormand–Prince 5(4) tableau (DOPRI5); fifth-order propagation with an
# embedded fourth-order error estimate.
_DP_C = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
# fifth-order weights b5 (the last stage row of _DP_A, then 0.0: FSAL), and
# b5 - b4: the local truncation error weights
_DP_B5 = _DP_A[6] + [0.0]
_DP_E = [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
_EPS = np.finfo(float).eps

# the tableau with trailing axes for the lane kernel: nodes broadcast over
# per-lane times (lanes,), weights over stages (lanes, dim)
_LANE_C = np.array(_DP_C)[:, None]
_LANE_A = [np.array(row)[:, None, None] for row in _DP_A]
_LANE_B5_E = np.array([_DP_B5, _DP_E])[:, :, None, None]

# Continuous extension of the step (DOPRI5 ``contd5``; Hairer, Nørsett &
# Wanner, Solving ODEs I, §II.6): weights of k1, k3…k7 in its last coefficient
_DENSE_STAGES = [0, 2, 3, 4, 5, 6]
_DENSE_D = [-12715105075 / 11282082432, 87487479700 / 32700410799,
            -10690763975 / 1880347072, 701980252875 / 199316789632,
            -1453857185 / 822651844, 69997945 / 29380423]


def _rms(x):
    """Per-lane root mean square over the state axis, as Python floats.

    The arithmetic of ``np.mean`` (a sum, then one division by the count)
    without its Python overhead.
    """
    return np.sqrt(np.add.reduce(np.square(x), axis=-1) / x.shape[-1]).tolist()


def _sum_code(terms):
    """Python expression for the sum of ``terms`` in the order numpy's
    ``add.reduce`` takes along a contiguous axis: 0.0 plus its pairwise sum.

    The pairwise sum of fewer than eight terms runs left to right from 0.0;
    up to 128 terms, eight interleaved partial sums are combined pairwise and
    the remainder added left to right; above 128, the two halves (the first a
    multiple of eight) are summed that way and added.
    """
    def pairwise(terms):
        n = len(terms)
        if n < 8:
            return " + ".join(["0.0"] + list(terms))
        if n > 128:
            half = n // 2 - (n // 2) % 8
            return f"({pairwise(terms[:half])}) + ({pairwise(terms[half:])})"
        blocks = n - n % 8
        r = [" + ".join(terms[j:blocks:8]) for j in range(8)]
        pairs = "(({}) + ({})) + (({}) + ({}))".format(
            *(f"({r[2 * j]}) + ({r[2 * j + 1]})" for j in range(4)))
        return " + ".join([f"({pairs})"] + list(terms[blocks:]))

    code = pairwise(terms)
    # the reduction's initial 0.0 changes nothing after a left-to-right sum
    # from 0.0, which never ends in -0.0
    return code if len(terms) < 8 else f"0.0 + ({code})"


@functools.lru_cache(maxsize=None)
def _float_attempt(dim: int):
    """One DP5 step attempt from a state of ``dim`` Python floats.

    Straight-line code with the stacked kernel's operations in its order (see
    the module docstring), emitted on first use for each ``dim``. The
    returned ``attempt(field, t, dt, y, k1, atol, rtol, keep)`` gives the new
    state, its derivative (the next FSAL stage), the error norm and, when
    ``keep`` is true, the inner stages k3…k6 that dense output needs (else
    None).
    """
    ks = [[f"k{s}_{i}" for i in range(dim)] for s in range(7)]
    ys = [f"y{i}" for i in range(dim)]

    def weighted(weights, i):
        return [f"{a!r} * {ks[j][i]}" for j, a in enumerate(weights)]

    def row(names):
        return f"({', '.join(names)},)"

    lines = ["def attempt(field, t, dt, y, k1, atol, rtol, keep):",
             f"    {', '.join(ys)}, = y",
             f"    {', '.join(ks[0])}, = k1"]
    for s in range(1, 7):
        if s == 6:  # the last stage sits at the fifth-order solution: keep its sums
            lines += [f"    s{i} = {_sum_code(weighted(_DP_A[6], i))}" for i in range(dim)]
            stage = [f"{ys[i]} + dt * s{i}" for i in range(dim)]
        else:
            stage = [f"{ys[i]} + dt * ({_sum_code(weighted(_DP_A[s], i))})"
                     for i in range(dim)]
        lines.append(f"    {', '.join(ks[s])}, = field(t + {_DP_C[s]!r} * dt, "
                     f"({', '.join(stage)},))")
    for i in range(dim):
        lines += [f"    n{i} = {ys[i]} + dt * (s{i} + 0.0 * {ks[6][i]})",
                  f"    a{i} = abs({ys[i]})",
                  f"    b{i} = abs(n{i})",
                  f"    q{i} = dt * ({_sum_code(weighted(_DP_E, i))}) "
                  f"/ (atol + rtol * (a{i} if a{i} >= b{i} else b{i}))"]
    squares = [f"q{i} * q{i}" for i in range(dim)]
    inner = ", ".join(row(ks[s]) for s in range(2, 6))
    lines += [f"    norm = sqrt(({_sum_code(squares)}) / {dim})",
              f"    return {row(f'n{i}' for i in range(dim))}, {row(ks[6])}, norm, "
              f"(({inner}) if keep else None)"]
    namespace = {"sqrt": math.sqrt}
    exec(compile("\n".join(lines) + "\n", f"<DP5 attempt, dim {dim}>", "exec"), namespace)
    return namespace["attempt"]


class _FloatStages:
    """Stage kernel of a one-point run: Python floats through emitted code.

    A sample inside a step waits in float arrays, one row per output row,
    until ``finish`` evaluates them all in one vectorised pass.
    """

    def __init__(self, field, y0, rtol, atol, n_rows):
        self.field, self.rtol, self.atol = field, rtol, atol
        self.attempt_code = _float_attempt(len(y0))
        self.y = tuple(y0.tolist())
        try:
            self.k1 = field(0.0, self.y)
        except (ZeroDivisionError, OverflowError) as exc:
            raise NumericalError(f"field failed at t=0.0: {exc}") from exc
        # per row: the step's start and end states and its stages k1, k3…k7
        self.steps = np.empty((8, n_rows, len(y0)))
        self.theta = np.empty(n_rows)
        self.dt = np.empty(n_rows)
        self.kept = np.zeros(n_rows, dtype=bool)

    def attempt(self, t, dt, reach):
        try:  # Python floats raise where numpy arrays give inf or nan
            self.y_new, self.k_last, norm, self.inner = self.attempt_code(
                self.field, t[0], dt[0], self.y, self.k1, self.atol, self.rtol, reach[0])
        except (ZeroDivisionError, OverflowError) as exc:
            raise NumericalError(f"field failed in a step from t={t[0]!r}: {exc}") from exc
        return [norm]

    def state(self, i):
        return self.y_new

    def keep(self, inside, dt, rows):
        step = (self.y, self.y_new, self.k1) + self.inner + (self.k_last,)
        for row, _, theta in inside:
            self.steps[:, row] = step
            self.theta[row], self.dt[row], self.kept[row] = theta, dt[0], True

    def finish(self, rows):
        kept = self.kept
        if kept.any():
            steps = self.steps[:, kept]
            rows[kept, 0] = _dense_states(steps[0], steps[1], steps[2:],
                                          self.theta[kept], self.dt[kept])

    def advance(self, moved):
        self.y, self.k1 = self.y_new, self.k_last


def _fill_columns(out, columns):
    """Write the ``dim`` columns a field returned into ``out`` (lanes, dim)."""
    for row, column in zip(out.T, columns, strict=True):
        row[...] = column


class _LaneStages:
    """Stage kernel of a lane run: stacked (lanes, dim) numpy arrays.

    Samples inside the steps of one attempt are evaluated together, at once.
    """

    def __init__(self, field, y0, rtol, atol):
        self.field, self.rtol, self.atol = field, rtol, atol
        self.y = np.array(y0)
        self.k1 = np.empty_like(self.y)
        _fill_columns(self.k1, field(np.zeros(len(y0)), self.y.T))

    def attempt(self, t, dt, reach):
        field, y = self.field, self.y
        k = np.empty((7,) + y.shape)
        k[0] = self.k1
        dt = np.array(dt)
        t_stage = np.array(t) + _LANE_C * dt
        dt_col = dt[:, None]
        for s in range(1, 7):
            stage = y + dt_col * (_LANE_A[s] * k[:s]).sum(axis=0)
            _fill_columns(k[s], field(t_stage[s], stage.T))
        increment, err = dt_col * (_LANE_B5_E * k).sum(axis=1)
        self.y_new, self.k_last, self.k = y + increment, k[6], k
        return _rms(err / (self.atol + self.rtol * np.maximum(np.abs(y), np.abs(self.y_new))))

    def state(self, i):
        return self.y_new[i]

    def keep(self, inside, dt, rows):
        row, lane, theta = (np.array(c) for c in zip(*inside))
        rows[row, lane] = _dense_states(self.y[lane], self.y_new[lane],
                                        self.k[_DENSE_STAGES][:, lane], theta,
                                        np.array(dt)[lane])

    def finish(self, rows):
        pass

    def advance(self, moved):
        if len(moved) == len(self.y):
            self.y, self.k1 = self.y_new, self.k_last  # FSAL
        else:
            self.y[moved] = self.y_new[moved]
            self.k1[moved] = self.k_last[moved]


def _dense_states(y, y1, k, theta, dt):
    """States inside accepted steps from the DP5 continuous extension.

    Per sample: the step's start and end states ``y`` and ``y1`` (samples,
    dim), its stages k1, k3…k7 stacked in ``k`` (6, samples, dim), the
    sample's fraction ``theta`` of the step and the signed step ``dt``.
    Elementwise arithmetic only, so a sample's value does not depend on
    which other samples share the call.
    """
    dt, theta = dt[:, None], theta[:, None]
    rest = 1.0 - theta
    ydiff = y1 - y
    bspl = dt * k[0] - ydiff
    weighted = _DENSE_D[0] * k[0]
    for d, k_s in zip(_DENSE_D[1:], k[1:]):
        weighted = weighted + d * k_s
    last = ydiff - dt * k[5] - bspl
    return y + theta * (ydiff + rest * (bspl + theta * (last + rest * (dt * weighted))))


def _lane_label(i, n_lanes):
    return f" in lane {i}" if n_lanes > 1 else ""


def _per_lane(values, lanes: bool):
    """Counter values as an array over lanes, or the one lane's value."""
    return np.asarray(values) if lanes else values[0]


def _initial_steps(f0, y0, t_span, rtol, atol):
    """First trial step magnitude of each lane of ``y0`` (lanes, dim)."""
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

    ``field`` follows the column contract of the module docstring: it gets
    the state's coordinate columns and returns the derivative's.

    When ``t_eval`` is given, states are reported at those times, whose
    entries must run monotonically from 0 toward ``t_end`` without passing
    it. An entry at the end of an accepted step (``t_end`` among them) gets
    the step's state; an entry inside one gets the step's fourth-order
    continuous extension, whose error is of the order of the step's own.
    Steps are clipped to ``t_end`` only, so they and the counters are the
    same for every ``t_eval``. Otherwise the initial state and every accepted
    step are recorded.

    A 2-D ``y0`` of shape (lanes, dim) integrates every lane with its own
    step control (``rk45`` only, ``t_eval`` required); each column ``field``
    gets or returns then has shape (lanes,), and ``t`` holds the per-lane
    times. See the module docstring.

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
    times, states, counters = _integrate_dp(field, y0, t_end, config, t_eval)
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
        y = np.asarray(stepper(field, t, y, tb - t))
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
    """Dormand–Prince 5(4) over one point (``y0`` of shape (dim,)) or the
    lanes of ``y0`` (lanes, dim): one controller, the stage kernel chosen by
    the shape (module docstring). A kernel holds each lane's first stage
    ``k1``, which a rejected step leaves valid, and serves the controller
    through ``attempt`` (one trial step, returning per-lane error norms; it
    keeps the stages where ``reach`` says the step reaches a sample),
    ``state`` (a lane's trial state), ``keep`` (samples inside the accepted
    steps), ``finish`` (write what ``keep`` deferred) and ``advance`` (accept
    lanes' steps).

    Returns (times, states of shape (times,) + ``y0.shape``, per-lane counter
    lists).
    """
    rtol, atol, max_steps = config.rtol, config.atol, config.max_steps
    if y0.ndim == 2:
        stages = _LaneStages(field, y0, rtol, atol)
    else:
        stages = _FloatStages(field, y0, rtol, atol, 0 if t_eval is None else len(t_eval))
    points = y0.reshape(-1, y0.shape[-1])  # (lanes, dim), one lane for a 1-D y0
    n_lanes = len(points)
    direction = 1.0 if t_end > 0 else -1.0
    record_all = t_eval is None
    if record_all:
        targets, times, states = [], [0.0], [y0]
    else:
        targets = [float(tt) for tt in t_eval if tt != 0.0]
        slots = [j for j, tt in enumerate(t_eval) if tt != 0.0]
        out = np.empty((len(t_eval),) + y0.shape)
        out[:] = y0  # rows at t = 0 keep the initial states
        rows = out.reshape((len(t_eval),) + points.shape)  # (times, lanes, dim) view
    n_targets = len(targets)

    # the first stage of the first attempt serves the initial-step estimate
    f0 = np.asarray(stages.k1, dtype=float).reshape(points.shape)
    h = _initial_steps(f0, points, t_end, rtol, atol)  # magnitudes
    t = [0.0] * n_lanes
    next_target = [0] * n_lanes
    rhs_calls = [1] * n_lanes
    accepted = [0] * n_lanes
    rejected = [0] * n_lanes
    h_min = [np.inf] * n_lanes
    h_max = [0.0] * n_lanes
    h_try = [0.0] * n_lanes
    t_try = [0.0] * n_lanes
    active = list(range(n_lanes))

    while active:
        dt = [0.0] * n_lanes  # signed trial steps; lanes at t_end keep 0
        reach = [False] * n_lanes
        for i in active:
            ti = t[i]
            if accepted[i] + rejected[i] >= max_steps:
                raise MaxStepsExceeded(f"exceeded {max_steps} step attempts at t={ti!r}"
                                       + _lane_label(i, n_lanes), last_time=ti)
            if h[i] < 16.0 * _EPS * max(abs(ti), 1.0):
                raise StepSizeUnderflow(f"step size underflow at t={ti!r}"
                                        + _lane_label(i, n_lanes), last_time=ti)
            # clip the trial step to the end time only
            gap = abs(t_end - ti)
            if h[i] >= gap:
                step, t_try[i] = gap, t_end
            else:
                step = h[i]
                t_try[i] = ti + direction * step
            h_try[i] = step
            dt[i] = direction * step
            reach[i] = (next_target[i] < n_targets
                        and direction * (targets[next_target[i]] - t_try[i]) <= 0.0)

        err_norm = stages.attempt(t, dt, reach)

        moved, inside = [], []  # inside: (row, lane, fraction of the step)
        for i in active:
            rhs_calls[i] += 6
            norm = err_norm[i]
            if norm <= 1.0:
                step = h_try[i]
                t_new = t_try[i]
                accepted[i] += 1
                if step < h_min[i]:
                    h_min[i] = step
                if step > h_max[i]:
                    h_max[i] = step
                moved.append(i)
                if record_all:
                    times.append(t_new)
                    states.append(stages.state(i))
                elif reach[i]:
                    # every sample up to the step's end: the end state itself,
                    # or a point of the step's continuous extension
                    j = next_target[i]
                    while j < n_targets and direction * (targets[j] - t_new) <= 0.0:
                        if targets[j] == t_new:
                            rows[slots[j], i] = stages.state(i)
                        else:
                            inside.append((slots[j], i, (targets[j] - t[i]) / dt[i]))
                        j += 1
                    next_target[i] = j
                t[i] = t_new
                factor = 5.0 if norm == 0.0 else min(5.0, max(0.2, 0.9 * norm ** -0.2))
            else:
                if norm != norm:  # a nan state, field value or initial step
                    raise NumericalError(f"error norm is nan at t={t[i]!r}"
                                         + _lane_label(i, n_lanes))
                rejected[i] += 1  # t and y stay, and with them the first stage
                factor = min(1.0, max(0.2, 0.9 * norm ** -0.2))
            h[i] = h_try[i] * factor
        if inside:
            stages.keep(inside, dt, rows)
        if moved:
            stages.advance(moved)
        active = [i for i in active if direction * (t_end - t[i]) > 0.0]

    counters = (rhs_calls, accepted, rejected, h_min, h_max)
    if record_all:
        return np.asarray(times), np.asarray(states), counters
    stages.finish(rows)
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
