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

One point: one emitted run. A 1-D ``y0`` runs as one function emitted from
the tableau (:func:`_one_point_run`), as Hairer's ``dop853.f`` runs its step
loop: controller, stages 1–15, error norm, dense-output bookkeeping and
counters, all on local Python floats. It comes in two forms from the same
text: over coordinate lists, compiled once per process, and unrolled over the
coordinates of one dimension, compiled once per dimension. At dim 4 the
unrolled form saves about 25 µs of an attempt and costs 6.3 ms to compile,
what 250 attempts save, so a run takes it once its process has run
``UNROLL_AFTER`` = 250 attempts at that dimension: the ski-rental rule. A
numeric orbit takes about 30 attempts, a drift sweep several hundred. Sampled
steps keep their dense data in an ``array('d')``, read once the run ends.

Lanes. A 2-D ``y0`` of shape (lanes, dim) integrates a stack of initial
states to one ``t_eval`` grid (:func:`_integrate_lanes`). Each lane keeps its
own controller state in Python floats, and its accept/reject decisions read
only its own error norm. The stages are stacked (lanes, dim) arrays, one
``field`` call per stage for all lanes, which pays only when lanes are many. A
lane that has reached ``t_end`` rides along with a zero step and its
derivatives are discarded.

Both forms and the lanes take the same IEEE operations in the same order:
``t + c·dt``, every weighted sum of stages Σ a_j·k_j left to right over its
nonzero weights, ``y + dt·Σ``, the scaled error estimates, their sums of
squares over the coordinates left to right from 0.0, :func:`_error_norm`, and
``norm ** -0.125`` on Python floats. ``+ − × ÷`` and ``sqrt`` round each
element on its own, so lane i of a lane run equals the one-point run from its
state bit for bit, states and counters, provided ``field`` treats each lane on
its own and takes the same operations on floats as on arrays. (numpy's ``**``
does not: it rounds differently on scalars and on arrays.) Dense output keeps
this: :func:`_dense_states` is elementwise.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from struct import Struct
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
    order of the emitted one-point run's sums."""
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


# The ski-rental rule of one-point runs (module docstring). Compiling the
# unrolled form costs about 2 ms + 1 ms per coordinate (4.2 ms at dim 2, 6.3 ms
# at dim 4, 12.4 ms at dim 10), and it saves about 25 µs of an attempt (of
# 60–85 µs on the drift fields at dim 4; 24 µs at dim 2, 29 µs at dim 10): it
# pays for itself after about 250 attempts at dim 4, the drift trajectories'
# dimension (180 at dim 2, 430 at dim 10). Timed interleaved on one CPU.
UNROLL_AFTER = 250
_generic_attempts = Counter()  # attempts run in the generic form, per dimension

# The one-point run: ``_integrate_lanes``' controller for one lane, on floats,
# whose stages, error norm and coordinate names ``_one_point_run`` fills in.
_RUN = '''\
def run(field, y0, f0, h, t_end, targets, slots, out, rtol, atol, max_steps):
    {y} = y0
    {k0} = f0
    dim, n_targets, j, sampled = len(y0), len(targets), 0, 0
    direction = 1.0 if t_end > 0 else -1.0
    t, rhs_calls, accepted, rejected, h_min, h_max = 0.0, 1, 0, 0, inf, 0.0
    # times and states of the accepted steps, or the sampled steps' dense
    # data and the samples inside them
    first, second = (array("d", [0.0]), array("d", y0)) if out is None else (array("d"), array("d"))
    pack = Struct(f"{{14 * dim}}d").pack
    try:
        while direction * (t_end - t) > 0.0:
            if accepted + rejected >= max_steps:
                raise MaxStepsExceeded(f"exceeded {{max_steps}} step attempts at t={{t!r}}",
                                       last_time=t)
            if h < 16.0 * EPS * max(abs(t), 1.0):
                raise StepSizeUnderflow(f"step size underflow at t={{t!r}}", last_time=t)
            gap = abs(t_end - t)
            if h >= gap:
                step, t_new = gap, t_end
            else:
                step = h
                t_new = t + direction * step
            dt = direction * step
{attempt}
            s5 = s3 = 0.0
{error}
            norm = error_norm(dt, s5, s3, dim)
            rhs_calls += 12
            if norm <= 1.0:
                accepted += 1
                if step < h_min:
                    h_min = step
                if step > h_max:
                    h_max = step
                if out is None:
                    first.append(t_new)
                    second.extend({state})
                held = sampled
                while j < n_targets and direction * (targets[j] - t_new) <= 0.0:
                    if targets[j] == t_new:
                        out[slots[j]] = {state}
                    else:
                        if sampled == held:
{extension}
                            first.frombytes(pack({dense}))
                            rhs_calls += 3
                            sampled += 1
                        second.extend((slots[j], held, (targets[j] - t) / dt, dt))
                    j += 1
                t = t_new
                factor = 10.0 if norm == 0.0 else min(10.0, max(0.2, 0.9 * norm ** -0.125))
                {y} = {n}
                {k0} = {k12}
            else:
                if norm != norm:  # a nan state, field value or initial step
                    raise NumericalError(f"error norm is nan at t={{t!r}}")
                rejected += 1  # t and y stay, and with them the first stage
                factor = min(1.0, max(0.2, 0.9 * norm ** -0.125))
            h = step * factor
    except (ZeroDivisionError, OverflowError) as exc:  # where numpy gives inf or nan
        raise NumericalError(f"field failed in a step from t={{t!r}}: {{exc}}") from exc
    return rhs_calls, accepted, rejected, h_min, h_max, first, second
'''


@functools.cache
def _one_point_run(dim=None):
    """``_RUN`` emitted and compiled on first use, over coordinate lists when
    ``dim`` is None, else unrolled over ``dim`` coordinates: the same text, so
    the same operations in the same order.

    ``run(field, y0, f0, h, t_end, targets, slots, out, rtol, atol, max_steps)``
    steps from t = 0, state list ``y0`` and first stage ``f0``, at first trial
    step ``h``. It returns the counters and two ``array('d')``: with ``out``
    None, the times and flat states of t = 0 and every accepted step; else
    (having written the states at ``targets`` that end a step into rows
    ``slots`` of ``out``) the flat data of the steps holding targets inside
    them and (row, step, fraction, signed step) per such target.
    """
    def names(v):  # a coordinate list, or its coordinates as a target list
        return v if dim is None else "".join(f"{v}_{i}, " for i in range(dim))

    solution = "n" if dim is None else f"[{names('n')}]"  # the step's solution, a list

    def unpacked(vs):  # the coordinates of the lists ``vs`` as arguments
        return ", ".join("*" + v for v in vs) if dim is None else "".join(map(names, vs))

    def loop(used):  # ``{i}`` becomes ``_``: the loop's coordinate of each list
        return f"for {''.join(v + '_, ' for v in used)}in zip({', '.join(used)})"

    def each(used, template):  # the list of ``template`` over the coordinates
        if dim is None:
            return f"[{template.format(i='')} {loop(used)}]"
        return f"[{', '.join(template.format(i=i) for i in range(dim))}]"

    def per_coordinate(used, template):  # the statements, per coordinate
        if dim is None:
            return [loop(used) + ":", *("    " + line.format(i="") for line in template)]
        return [line.format(i=i) for i in range(dim) for line in template]

    def weighted(weights):
        return " + ".join(f"{w!r} * k{j}_{{i}}" for j, w in enumerate(weights) if w)

    def stages(first, last):
        lines = []
        for s in range(first, last):
            used = ["y"] + [f"k{j}" for j, w in enumerate(_A[s]) if w]
            state = each(used, f"y_{{i}} + dt * ({weighted(_A[s])})")
            if s == 12:
                lines.append(f"{names('n')} = {state}")
                state = solution
            lines.append(f"{names(f'k{s}')} = field(t + {_C[s]!r} * dt, {state})")
        return lines

    def block(lines, depth):
        return "\n".join(" " * depth + line for line in lines)

    error = per_coordinate(["y", "n"] + [f"k{j}" for j, w in enumerate(_E3) if w], [
        "a_, b_ = abs(y_{i}), abs(n_{i})",
        "scale = atol + rtol * (a_ if a_ >= b_ else b_)",
        f"e5 = ({weighted(_E5)}) / scale",
        f"e3 = ({weighted(_E3)}) / scale",
        "s5 += e5 * e5",
        "s3 += e3 * e3"])
    source = _RUN.format(
        y=names("y"), k0=names("k0"), n=names("n"), k12=names("k12"), state=solution,
        dense=unpacked(["y", "n"] + [f"k{j}" for j in _DENSE_STAGES]),
        attempt=block(stages(1, 13), 12), error=block(error, 12),
        extension=block(stages(13, 16), 28))
    namespace = {"array": array, "Struct": Struct, "inf": math.inf, "EPS": float(_EPS),
                 "error_norm": _error_norm, "MaxStepsExceeded": MaxStepsExceeded,
                 "StepSizeUnderflow": StepSizeUnderflow, "NumericalError": NumericalError}
    form = "coordinate lists" if dim is None else f"dim {dim}"
    exec(compile(source, f"<DOP853 run, {form}>", "exec"), namespace)
    return namespace["run"]


def _integrate_point(field, y0, t_end, config, t_eval):
    """DOP853 over one point ``y0`` (dim,) by an emitted run, unrolled once this
    process has run ``UNROLL_AFTER`` attempts at ``dim`` in the generic form.
    Returns (times, states of shape (times, dim), then the counters)."""
    y, dim = y0.tolist(), len(y0)
    unrolled = _generic_attempts[dim] >= UNROLL_AFTER
    run = _one_point_run(dim if unrolled else None)
    try:
        k0 = field(0.0, y)
    except (ZeroDivisionError, OverflowError) as exc:
        raise NumericalError(f"field failed at t=0.0: {exc}") from exc
    # the first stage of the first attempt serves the initial-step estimate
    h = _initial_steps(np.asarray(k0, dtype=float).reshape(1, dim), y0[None], t_end,
                       config.rtol, config.atol)[0]
    grid = [] if t_eval is None else t_eval
    targets = [float(tt) for tt in grid if tt != 0.0]
    slots = [j for j, tt in enumerate(grid) if tt != 0.0]
    # rows at t = 0 keep the initial state
    out = None if t_eval is None else np.repeat(y0[None], len(t_eval), axis=0)
    *counters, first, second = run(field, y, k0, h, t_end, targets, slots, out, config.rtol,
                                   config.atol, config.max_steps)
    if not unrolled:
        _generic_attempts[dim] += counters[1] + counters[2]
    if out is None:
        return np.array(first), np.array(second).reshape(-1, dim), *counters
    if second:
        row, step, theta, dt = np.frombuffer(second).reshape(-1, 4).T
        steps = np.frombuffer(first).reshape(-1, 2 + len(_DENSE_STAGES), dim)
        y_start, y_end, *k = steps[step.astype(int)].transpose(1, 0, 2)
        out[row.astype(int)] = _dense_states(y_start, y_end, k, theta, dt)
    return np.array(t_eval), out, *counters


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
        zero, nan = (np.zeros(len(y0), int), np.full(len(y0), np.nan)) if lanes else (0, np.nan)
        return Trajectory(times, np.repeat(y0[None], len(times), axis=0),
                          zero, zero, zero, nan, nan)
    return Trajectory(*(_integrate_lanes if lanes else _integrate_point)(
        field, y0, t_end, config, t_eval))


def _integrate_lanes(field, y0, t_end, config, t_eval):
    """DOP853 over the lanes of ``y0`` (lanes, dim), one controller per lane
    (module docstring). Returns (times, states of shape (times, lanes, dim),
    then one array over the lanes per counter)."""
    rtol, atol, max_steps = config.rtol, config.atol, config.max_steps
    n_lanes, dim = y0.shape

    def call(t, state):  # the field's columns, stacked (lanes, dim)
        out = np.empty_like(state)
        for row, column in zip(out.T, field(t, state.T), strict=True):
            row[...] = column
        return out

    def stages(k, t, dt, y, first, last, hold=None):  # lanes not held stay at y
        for s in range(first, last):
            state = y + dt[:, None] * _weighted(_A[s], k)
            if hold is not None:
                state = np.where(hold, state, y)
            k.append(call(t + _C[s] * dt, state))
        return state

    y = np.array(y0)
    k0 = call(np.zeros(n_lanes), y)
    direction = 1.0 if t_end > 0 else -1.0
    targets = [float(tt) for tt in t_eval if tt != 0.0]
    slots = [j for j, tt in enumerate(t_eval) if tt != 0.0]
    n_targets = len(targets)
    rows = np.empty((len(t_eval), n_lanes, dim))
    rows[:] = y0  # rows at t = 0 keep the initial states

    # the first stage of the first attempt serves the initial-step estimate
    h = _initial_steps(k0, y, t_end, rtol, atol)  # magnitudes
    t, h_try, t_try = [0.0] * n_lanes, [0.0] * n_lanes, [0.0] * n_lanes
    rhs_calls, accepted, rejected = [1] * n_lanes, [0] * n_lanes, [0] * n_lanes
    h_min, h_max, next_target = [np.inf] * n_lanes, [0.0] * n_lanes, [0] * n_lanes
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

        t_arr, dt_arr, k = np.array(t), np.array(dt), [k0]
        y_new = stages(k, t_arr, dt_arr, y, 1, 13)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        e5 = _weighted(_E5, k) / scale
        e3 = _weighted(_E3, k) / scale
        s5 = s3 = 0.0
        for c5, c3 in zip(e5.T, e3.T):
            s5 = s5 + c5 * c5
            s3 = s3 + c3 * c3
        err_norm = [_error_norm(d, a, b, dim) for d, a, b in zip(dt, s5.tolist(), s3.tolist())]

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
                # every sample up to the step's end: the end state itself, or a
                # point of the step's continuous extension, whose three stages
                # a step holding such a point takes
                j, held = next_target[i], len(inside)
                while j < n_targets and direction * (targets[j] - t_new) <= 0.0:
                    if targets[j] == t_new:
                        rows[slots[j], i] = y_new[i]
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
            row, lane, theta = (np.array(c) for c in zip(*inside))
            # lanes without an interior sample stay at their state, whose field
            # value is finite; their extension stages are discarded
            hold = np.zeros((n_lanes, 1), dtype=bool)
            hold[lane] = True
            stages(k, t_arr, dt_arr, y, 13, 16, hold)
            rows[row, lane] = _dense_states(y[lane], y_new[lane],
                                            [k[j][lane] for j in _DENSE_STAGES], theta,
                                            dt_arr[lane])
        if len(moved) == n_lanes:
            y, k0 = y_new, k[12]  # FSAL
        elif moved:
            y[moved] = y_new[moved]
            k0[moved] = k[12][moved]
        active = [i for i in active if direction * (t_end - t[i]) > 0.0]

    counters = (rhs_calls, accepted, rejected, h_min, h_max)
    return (np.array(t_eval), rows, *(np.asarray(c) for c in counters))
