"""Explicit ODE integration: adaptive Dormand–Prince 8(5,3).

The integrator, config name ``rk45``, is DOP853 (Prince & Dormand, J.
Comput. Appl. Math. 7 (1981) 67–75; Hairer, Nørsett & Wanner, *Solving ODEs
I*, §II.5–II.6): 12 stages per step, the last one the next step's first
(FSAL), controlled by a combined fifth- and third-order error estimate. It is
deliberately *not* symplectic: drift experiments must see the model's
ε-expansion, not integrator energy behaviour, so the instrument is a
high-accuracy embedded pair run at tolerances well below the smallest drift
being measured. Steps are clipped to the end time only: a requested sample
time inside an accepted step is read off the step's seventh-order continuous
extension (dense output, three more stages), so the steps do not depend on
the output grid.

Field contract. A field is called as ``field(t, y)``, where ``y`` holds the
``dim`` coordinate columns of the state, and returns the ``dim`` columns of
its derivative. For one point a column is a float; in a lane run it is an
array over the lanes, shape (lanes,), and ``t`` holds the per-lane times. A
field that indexes or unpacks ``y`` and computes elementwise serves both.

Lanes. :func:`integrate` also takes a stack of initial states, ``y0`` of
shape (lanes, dim), over one span to one ``t_eval`` grid. Each lane keeps its
own controller state (step size, time, FSAL stage, next sample target,
counters) in Python floats, and its accept/reject decisions read only its own
error norm. A lane that has reached ``t_end`` rides along with a zero step and
its derivatives are discarded.

One controller, two stage kernels. :func:`_integrate_dp` runs the step control
for every lane; the stage arithmetic of a step attempt is split by the shape
of ``y0``:

* a 1-D ``y0`` (one point) runs on Python floats through code emitted from
  the tableau once per process (:func:`_float_kernel`): one comprehension
  over the coordinates per stage, so the code does not depend on ``dim``;
* a 2-D ``y0`` runs the lanes stacked as (lanes, dim) arrays, one ``field``
  call per stage for all lanes, which pays only when lanes are many.

Both kernels take the same IEEE operations in the same order: ``t + c·dt``,
every weighted sum of stages Σ a_j·k_j left to right over its nonzero
weights, ``y + dt·Σ``, the scaled error estimates, their sums of squares over
the coordinates left to right from 0.0, and :func:`_error_norm`. ``+ − × ÷``
and ``sqrt`` round each element on its own, so lane i of a lane run equals
the one-point run from its state bit for bit, states and counters, provided
``field`` treats each lane on its own and takes the same operations on floats
as on arrays. (numpy's ``**`` does not: it rounds differently on scalars and
on arrays.) Dense output keeps this: :func:`_dense_states` is elementwise; a
one-point run calls it once, when the run ends.
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
    "integrate",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step budget of :func:`integrate`'s DOP853 pair."""

    rtol: float = 1e-9
    atol: float = 1e-12
    max_steps: int = 50_000_000

    def __post_init__(self):
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


# Dormand–Prince 8(5,3), DOP853: the coefficients of scipy's transcription of
# Hairer's dop853.f (scipy/integrate/_ivp/dop853_coefficients.py), written as
# the shortest reprs of the same doubles. Stage s sits at t + C[s]·dt with the
# state y + dt·Σ_j A[s][j]·k_j. Row 12 holds the eighth-order weights b: its
# state is the step's solution, its field value the next step's first stage
# (FSAL). Stages 13–15 serve the continuous extension only.
_C = [0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
      0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
      1.0, 1.0, 0.1, 0.2, 0.7777777777777778]
_A = [
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0, 0.08876275643042054],
    [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
     0.008273789163814023],
    [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636],
    [0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
     0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259],
    [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298],
    [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
     0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987],
]
# weights of the fifth- and the third-order error estimate (E3 = b − bhh)
_E5 = [0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
       1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
       -0.022355307863886294]
_E3 = [-0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
       -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082]
# the continuous extension's last four coefficient rows (dop853.f's contd8), as
# weights of the stages it reads
_DENSE_STAGES = [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]
_D = [
    [-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
]
_EPS = np.finfo(float).eps


def _weighted(weights, k):
    """Σ w_j·k_j over the nonzero ``weights``, left to right, elementwise: the
    order of the float kernel's emitted sums."""
    total = None
    for w, k_j in zip(weights, k):
        if w:
            total = w * k_j if total is None else total + w * k_j
    return total


def _error_norm(dt, s5, s3, dim):
    """DOP853's error norm |dt|·s₅/√(dim·(s₅ + 0.01·s₃)) from the sums of
    squares of a step's scaled fifth- and third-order error estimates. Both
    sums 0 give 0; an inf or nan sum gives inf (the step is rejected) or nan
    (the controller raises), not inf/inf."""
    total = s5 + 0.01 * s3
    if 0.0 < total < math.inf:
        return abs(dt) * s5 / math.sqrt(total * dim)
    return 0.0 if total == 0.0 else total


@functools.cache
def _float_kernel():
    """The one-point stage kernel, emitted from the tableau on first use.

    ``attempt(field, t, dt, y, k, atol, rtol)`` appends the stages k1…k12 to
    ``k`` = [k0] and returns the step's solution and its error norm;
    ``extend`` (same arguments) then appends the continuous extension's
    stages k13…k15. States and stages are lists over the coordinates.
    """
    def weighted(weights):
        return " + ".join(f"{w!r} * q{j}" for j, w in enumerate(weights) if w)

    def stages(first, last):
        lines = []
        for s in range(first, last):
            used = [j for j, w in enumerate(_A[s]) if w]
            lines.append(f"    k.append(field(t + {_C[s]!r} * dt, state := [y_ + dt * "
                         f"({weighted(_A[s])}) for y_, {', '.join(f'q{j}' for j in used)} "
                         f"in zip(y, {', '.join(f'k[{j}]' for j in used)})]))")
        return lines

    source = "\n".join(
        ["def attempt(field, t, dt, y, k, atol, rtol):"] + stages(1, 13)
        + ["    s5 = s3 = 0.0",
           f"    for y_, n_, {', '.join(f'q{j}' for j in range(12))} in zip(y, state, *k[:12]):",
           "        a_, b_ = abs(y_), abs(n_)",
           "        scale = atol + rtol * (a_ if a_ >= b_ else b_)",
           f"        e5 = ({weighted(_E5)}) / scale",
           f"        e3 = ({weighted(_E3)}) / scale",
           "        s5 += e5 * e5",
           "        s3 += e3 * e3",
           "    return state, error_norm(dt, s5, s3, len(y))",
           "def extend(field, t, dt, y, k, atol, rtol):"] + stages(13, 16)) + "\n"
    namespace = {"error_norm": _error_norm}
    exec(compile(source, "<DOP853 float kernel>", "exec"), namespace)
    return namespace["attempt"], namespace["extend"]


class _FloatStages:
    """Stage kernel of a one-point run: Python floats through emitted code.

    The steps that hold samples wait in a float array, one row per step (at
    most one per output row), until ``finish`` evaluates every sample in one
    vectorised pass.
    """

    def __init__(self, field, y0, rtol, atol, n_rows):
        self.field, self.rtol, self.atol = field, rtol, atol
        self.attempt_code, self.extend_code = _float_kernel()
        self.y = y0.tolist()
        try:
            self.k0 = field(0.0, self.y)
        except (ZeroDivisionError, OverflowError) as exc:
            raise NumericalError(f"field failed at t=0.0: {exc}") from exc
        # a sampled step's start and end states and stages _DENSE_STAGES, at
        # the row of its first sample
        self.steps = np.empty((n_rows, 2 + len(_DENSE_STAGES), len(y0)))
        self.samples = []  # per interior sample: (row, its step's row, fraction, dt)

    def _run(self, code):
        try:  # Python floats raise where numpy arrays give inf or nan
            return code(self.field, self.t, self.dt, self.y, self.k, self.atol, self.rtol)
        except (ZeroDivisionError, OverflowError) as exc:
            raise NumericalError(f"field failed in a step from t={self.t!r}: {exc}") from exc

    def attempt(self, t, dt):
        self.t, self.dt, self.k = t[0], dt[0], [self.k0]
        self.y_new, norm = self._run(self.attempt_code)
        return [norm]

    def state(self, i):
        return self.y_new

    def keep(self, inside, rows):
        self._run(self.extend_code)
        first = inside[0][0]
        self.samples += [(row, first, theta, self.dt) for row, _, theta in inside]
        self.steps[first] = [self.y, self.y_new] + [self.k[j] for j in _DENSE_STAGES]

    def finish(self, rows):
        if self.samples:
            row, step, theta, dt = (np.array(c) for c in zip(*self.samples))
            data = self.steps[step].transpose(1, 0, 2)  # (14, samples, dim)
            rows[row, 0] = _dense_states(data[0], data[1], data[2:], theta, dt)

    def advance(self, moved):
        self.y, self.k0 = self.y_new, self.k[12]


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
        self.k0 = self._call(np.zeros(len(y0)), self.y)

    def _call(self, t, state):
        out = np.empty_like(state)
        _fill_columns(out, self.field(t, state.T))
        return out

    def _stages(self, first, last, hold=None):
        """Append stages ``first`` … ``last`` − 1; lanes where a ``hold`` is
        given and false stay at their state."""
        dt_col = self.dt[:, None]
        for s in range(first, last):
            state = self.y + dt_col * _weighted(_A[s], self.k)
            if hold is not None:
                state = np.where(hold, state, self.y)
            self.k.append(self._call(self.t + _C[s] * self.dt, state))
        return state

    def attempt(self, t, dt):
        y = self.y
        self.t, self.dt, self.k = np.array(t), np.array(dt), [self.k0]
        self.y_new = self._stages(1, 13)
        scale = self.atol + self.rtol * np.maximum(np.abs(y), np.abs(self.y_new))
        e5 = _weighted(_E5, self.k) / scale
        e3 = _weighted(_E3, self.k) / scale
        s5 = s3 = 0.0
        for c5, c3 in zip(e5.T, e3.T):
            s5 = s5 + c5 * c5
            s3 = s3 + c3 * c3
        return [_error_norm(h, a, b, y.shape[1])
                for h, a, b in zip(dt, s5.tolist(), s3.tolist())]

    def state(self, i):
        return self.y_new[i]

    def keep(self, inside, rows):
        row, lane, theta = (np.array(c) for c in zip(*inside))
        # lanes without an interior sample stay at their state, whose field
        # value is finite; their extension stages are discarded
        hold = np.zeros((len(self.y), 1), dtype=bool)
        hold[lane] = True
        self._stages(13, 16, hold)
        rows[row, lane] = _dense_states(self.y[lane], self.y_new[lane],
                                        [self.k[j][lane] for j in _DENSE_STAGES], theta,
                                        self.dt[lane])

    def finish(self, rows):
        pass

    def advance(self, moved):
        if len(moved) == len(self.y):
            self.y, self.k0 = self.y_new, self.k[12]  # FSAL
        else:
            self.y[moved] = self.y_new[moved]
            self.k0[moved] = self.k[12][moved]


def _dense_states(y, y1, k, theta, dt):
    """States inside accepted steps from DOP853's continuous extension.

    Per sample: the step's start and end states ``y`` and ``y1`` (samples,
    dim), its stages ``_DENSE_STAGES`` in ``k`` (12 × (samples, dim)), the
    sample's fraction ``theta`` of the step and the signed step ``dt``.
    Elementwise arithmetic only, so a sample's value does not depend on
    which other samples share the call.
    """
    dt, theta = dt[:, None], theta[:, None]
    ydiff = y1 - y
    coeffs = ([ydiff, dt * k[0] - ydiff, 2.0 * ydiff - dt * (k[8] + k[0])]
              + [dt * _weighted(row, k) for row in _D])
    total = 0.0
    for i, f in enumerate(reversed(coeffs)):
        total = (total + f) * (theta if i % 2 == 0 else 1.0 - theta)
    return y + total


def _lane_label(i, n_lanes):
    return f" in lane {i}" if n_lanes > 1 else ""


def _per_lane(values, lanes: bool):
    """Counter values as an array over lanes, or the one lane's value."""
    return np.asarray(values) if lanes else values[0]


def _initial_steps(f0, y0, t_span, rtol, atol):
    """First trial step magnitude of each lane of ``y0`` (lanes, dim)."""
    scaled = np.stack([y0, f0]) / (atol + rtol * np.abs(y0))
    # root mean squares over the state axis: np.mean's arithmetic, without its overhead
    rms = np.sqrt(np.add.reduce(np.square(scaled), axis=-1) / y0.shape[-1]).tolist()
    steps = []
    for d0, d1 in zip(*rms):
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
    the step's state; an entry inside one gets the step's seventh-order
    continuous extension, whose error is of the order of the step's own.
    Steps are clipped to ``t_end`` only, so they are the same for every
    ``t_eval``, and so are the counters but the right-hand-side calls: an
    accepted step holding an entry inside it takes three more. Otherwise the
    initial state and every accepted step are recorded.

    A 2-D ``y0`` of shape (lanes, dim) integrates every lane with its own
    step control (``t_eval`` required); each column ``field`` gets or returns
    then has shape (lanes,), and ``t`` holds the per-lane times. See the
    module docstring.

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
    if t_end == 0.0:
        times = np.array([0.0]) if t_eval is None else t_eval
        n_lanes = len(y0) if lanes else 1
        counters = ([0] * n_lanes,) * 3 + ([np.nan] * n_lanes,) * 2
        return Trajectory(times, np.repeat(y0[None], len(times), axis=0),
                          *(_per_lane(c, lanes) for c in counters))

    times, states, counters = _integrate_dp(field, y0, t_end, config, t_eval)
    return Trajectory(times, states, *(_per_lane(c, lanes) for c in counters))


def _integrate_dp(field, y0, t_end, config, t_eval):
    """DOP853 over one point (``y0`` of shape (dim,)) or the lanes of ``y0``
    (lanes, dim): one controller, the stage kernel chosen by the shape (module
    docstring). A kernel holds each lane's first stage ``k0``, which a
    rejected step leaves valid, and serves the controller through ``attempt``
    (one trial step from the lanes' times and signed steps, returning per-lane
    error norms), ``state`` (a lane's trial state), ``keep`` (samples inside
    the accepted steps of the last attempt), ``finish`` (write what ``keep``
    deferred) and ``advance`` (accept lanes' steps).

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
    f0 = np.asarray(stages.k0, dtype=float).reshape(points.shape)
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

        err_norm = stages.attempt(t, dt)

        moved, inside = [], []  # inside: (row, lane, fraction of the step)
        for i in active:
            rhs_calls[i] += 12
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
                else:
                    # every sample up to the step's end: the end state itself,
                    # or a point of the step's continuous extension, whose
                    # three stages a step holding such a point takes
                    j, held = next_target[i], len(inside)
                    while j < n_targets and direction * (targets[j] - t_new) <= 0.0:
                        if targets[j] == t_new:
                            rows[slots[j], i] = stages.state(i)
                        else:
                            inside.append((slots[j], i, (targets[j] - t[i]) / dt[i]))
                        j += 1
                    next_target[i] = j
                    if len(inside) > held:
                        rhs_calls[i] += 3
                t[i] = t_new
                factor = 10.0 if norm == 0.0 else min(10.0, max(0.2, 0.9 * norm ** -0.125))
            else:
                if norm != norm:  # a nan state, field value or initial step
                    raise NumericalError(f"error norm is nan at t={t[i]!r}"
                                         + _lane_label(i, n_lanes))
                rejected[i] += 1  # t and y stay, and with them the first stage
                factor = min(1.0, max(0.2, 0.9 * norm ** -0.125))
            h[i] = h_try[i] * factor
        if inside:
            stages.keep(inside, rows)
        if moved:
            stages.advance(moved)
        active = [i for i in active if direction * (t_end - t[i]) > 0.0]

    counters = (rhs_calls, accepted, rejected, h_min, h_max)
    if record_all:
        return np.asarray(times), np.asarray(states), counters
    stages.finish(rows)
    return np.array(t_eval), out, counters

