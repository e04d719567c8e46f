"""ODE integration with Dormand–Prince 8(5,3): adaptive steps, or fixed ones.

The integrator, config name ``rk45``, is DOP853 (Prince & Dormand, J.
Comput. Appl. Math. 7 (1981) 67–75; Hairer, Nørsett & Wanner, *Solving ODEs
I*, §II.5–II.6): 12 stages per step, the last one the next step's first
(FSAL), and a seventh-order continuous extension from three more stages. It
is deliberately *not* symplectic: drift experiments must see the model's
ε-expansion, not integrator energy behaviour, so the instrument is a
high-accuracy pair run at tolerances well below the smallest drift measured.

A field is called as ``field(t, y)``, ``y`` the ``dim`` coordinate columns
of the state, and returns the ``dim`` columns of its derivative: floats for
one point, arrays (lanes,) on lanes, and, in the continuous extension's stages
taken after an adaptive run (:func:`_extension`), arrays over its steps, ``t``
too.

:func:`integrate` steps one point adaptively, by one function emitted from
the tableau, as Hairer's ``dop853.f`` runs its step loop: controller, stages,
the combined fifth- and third-order error norm, a record of each step that
holds a sample, and counters, on local Python floats, unrolled over the
coordinates of its dimension. Each stage runs the code of a field traced by
``kernel.trace_tangent`` (its ``program``) in place, on the stage's state,
with the field's ``inputs`` read once and no ``t + c·dt``, which traced code
never reads; any other field is called, from the same template.
``kernel.exec_emitted`` compiles each emitted run once per machine (about
0.9 ms + 0.4 ms per coordinate on one Xeon core, 4–10 ms with a program) and
later processes load it by dimension, a hash of this file and the program,
building no source (0.17 ms at dim 4, 0.43 ms at dim 28). Both runs step in
a ``for`` loop, whose steps CPython 3.11 counts toward specialising bytecode
(PEP 659), so a process's first trajectory runs on code specialised for
floats from its 8th step (:func:`_one_point`).

:func:`fixed_steps` takes M steps of one size on a batch and returns the
states at their ends, with no continuous extension: the closed step grid of
``circle``'s orbits. One point runs as emitted code on Python floats, fused
as above, two or more as lanes, each stage one stacked (dim, lanes) array and
one ``field`` call. Both forms take the same IEEE operations in the same
order: ``t + c·dt`` where the field is called, every weighted sum of stages
left to right over its nonzero weights (:func:`_weighted`), ``y + dt·Σ`` and
the field's own. ``+ − ×`` round each element on its own and neither form
takes ``**``, so a lane equals the one-point run from its state bit for bit,
provided ``field`` treats each lane on its own and takes the same operations
on floats as on arrays (numpy's ``**`` does not: it rounds differently on
scalars and arrays).
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from importlib.util import source_hash
from struct import Struct
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import MaxStepsExceeded, NumericalError, StepSizeUnderflow
from .kernel import exec_emitted

__all__ = ["IntegratorConfig", "Trajectory", "fixed_steps", "integrate"]


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
    """Sampled states of one point, ``states[i]`` at ``times[i]``, and the
    run's counters: right-hand-side evaluations, accepted and rejected steps,
    and the smallest and largest accepted step (nan when none was taken)."""

    times: np.ndarray
    states: np.ndarray
    rhs_calls: int
    accepted: int
    rejected: int
    h_min: float
    h_max: float


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
# the continuous extension's last four rows (dop853.f's contd8), over the stages it reads
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


# The adaptive run on floats, whose stages, error estimates and coordinate
# names ``_run_source`` fills in. ``run(field, y0, f0, h, t_end, targets, slots,
# out, rtol, atol, max_steps)`` steps from t = 0, state list ``y0`` and first
# stage ``f0``, at first trial step ``h``. The error norm is DOP853's
# |dt|·s₅/√(dim·(s₅ + 0.01·s₃)): both sums 0 give 0, and an inf or nan sum gives
# inf (the step is rejected) or nan (the run raises), not inf/inf. It returns
# the counters and two ``array('d')``: with ``out`` None, the times and flat
# states of t = 0 and every accepted step; else (having written the states at
# ``targets`` that end a step into ``out``'s rows ``slots``) the ``_extension``
# records of the steps holding targets inside, and (row, step, θ) per target.
_RUN = """\
def run(field, y0, f0, h, t_end, targets, slots, out, rtol, atol, max_steps):
    {inputs}
    {y} = y0
    {k0} = f0
    dim, n_targets, j, sampled = len(y0), len(targets), 0, 0
    direction = 1.0 if t_end > 0 else -1.0
    t, rhs_calls, accepted, rejected, h_min, h_max = 0.0, 1, 0, 0, inf, 0.0
    first, second = (array("d", [0.0]), array("d", y0)) if out is None else (array("d"), array("d"))
    pack = Struct(f"{{2 + 15 * dim}}d").pack
    try:
        # ``for``, not ``while``: CPython 3.11 specialises code after 8 ``for`` steps (PEP 659)
        for attempt in range(max_steps + 1):
            if not direction * (t_end - t) > 0.0:
                break
            if attempt == max_steps:
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
            total = s5 + 0.01 * s3
            if 0.0 < total < inf:
                norm = float(abs(dt) * s5 / math.sqrt(total * dim))
            else:
                norm = 0.0 if total == 0.0 else float(total)
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
                            first.frombytes(pack(t, dt, {y}{n}{k}))
                            sampled += 1
                        second.extend((slots[j], held, (targets[j] - t) / dt))
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
    return rhs_calls + 3 * sampled, accepted, rejected, h_min, h_max, first, second
"""

# The fixed-step run on floats, ``_fixed_lanes`` for one point, whose stages
# and coordinate names ``_fixed_source`` fills in. ``run(field, y0, dt, steps)``
# returns the flat states at t = 0 and at each step's end, an ``array('d')``.
_FIXED = """\
def run(field, y0, dt, steps):
    {inputs}
    {y} = y0
    t, grid = 0.0, array("d", y0)
    try:
        {k0} = field(t, y0)
        for j in range(steps):
{attempt}
            grid.extend({state})
            t = dt * (j + 1)
            {y} = {n}
            {k0} = {k12}
    except (ZeroDivisionError, OverflowError) as exc:  # where numpy gives inf or nan
        raise NumericalError(f"field failed in a step from t={{t!r}}: {{exc}}") from exc
    return grid
"""


@functools.cache
def _one_point(kind, dim, program):
    """The one-point run ``kind``, "run" (``_RUN``, adaptive) or "fixed steps"
    (``_FIXED``), emitted unrolled over ``dim`` coordinates, with ``program``
    in each stage (module docstring), and run from the code cache
    (``kernel.exec_emitted``), keyed by ``dim``, a hash of this file and
    ``program``: a process that finds the entry builds no source. Loading
    calls nothing: the run's ``for`` loop specialises it from its 8th step,
    where a ``while`` loop would leave every step of a fresh ``adiakit
    drift``, which calls its run 4–5 times, generic (the particle's 496 steps
    at ε = 0.00625 take 15.6 ms, not 11.7 ms, on one Xeon core)."""
    source = _run_source if kind == "run" else _fixed_source
    namespace = {"array": array, "Struct": Struct, "inf": math.inf, "EPS": float(_EPS),
                 "math": math, "MaxStepsExceeded": MaxStepsExceeded,
                 "StepSizeUnderflow": StepSizeUnderflow, "NumericalError": NumericalError}
    key = f"dim {dim}, {source_hash(__loader__.get_data(__file__)).hex()}"
    text = "" if program is None else repr(program)
    traced = f", traced field {source_hash(text.encode()).hex()}" if text else ""
    return exec_emitted(lambda: source(dim, program), f"<DOP853 {kind}, dim {dim}{traced}>",
                        namespace, key + text)["run"]


def _names(v, dim):
    """The coordinates of list ``v`` as a target list."""
    return "".join(f"{v}_{i}, " for i in range(dim))


def _weighted_text(weights):
    """``_weighted`` over the stages k{j}_{i} of one coordinate, as text."""
    return " + ".join(f"{w!r} * k{j}_{{i}}" for j, w in enumerate(weights) if w)


def _emit(template, dim, program, **blocks):
    """``template`` with the coordinate names of ``dim`` and a step's stages
    1 … 12 filled in: from t, dt, the state y_i and the earlier stages, and
    stage 12's state, the step's solution, kept as n_i. A stage calls ``field``
    or runs ``program`` on its state (module docstring)."""
    attempt = []
    for s in range(1, 13):
        state = [f"y_{i} + dt * ({_weighted_text(_A[s]).format(i=i)})" for i in range(dim)]
        if s == 12:
            attempt += [f"n_{i} = {x}" for i, x in enumerate(state)]
            state = [f"n_{i}" for i in range(dim)]
        if program is None:
            attempt.append(f"{_names(f'k{s}', dim)} = field(t + {_C[s]!r} * dt, "
                           f"[{', '.join(state)}])")
        else:
            attempt += [f"{a} = {x}" for a, x in zip(program.args, state)] + list(program.body)
            attempt += [f"k{s}_{i} = {o}" for i, o in enumerate(program.outputs)]
    return template.format(
        y=_names("y", dim), k0=_names("k0", dim), n=_names("n", dim), k12=_names("k12", dim),
        state=f"[{_names('n', dim)}]", k="".join(_names(f"k{j}", dim) for j in range(13)),
        attempt="\n".join(" " * 12 + line for line in attempt),
        inputs=f"{', '.join(program.inputs)}, = field.inputs" if program else "", **blocks)


def _run_source(dim, program=None):
    """The source of ``_one_point("run", dim, program)``."""
    error = [" " * 12 + line.format(i=i) for i in range(dim) for line in [
        "a_, b_ = abs(y_{i}), abs(n_{i})",
        "scale = atol + rtol * (a_ if a_ >= b_ else b_)",
        f"e5 = ({_weighted_text(_E5)}) / scale",
        f"e3 = ({_weighted_text(_E3)}) / scale",
        "s5 += e5 * e5",
        "s3 += e3 * e3"]]
    return _emit(_RUN, dim, program, error="\n".join(error))


def _fixed_source(dim, program=None):
    """The source of ``_one_point("fixed steps", dim, program)``."""
    return _emit(_FIXED, dim, program)


def _columns(field, t, state):
    """``field``'s columns at ``t`` and ``state`` (dim, ...), stacked alike."""
    out = np.empty_like(state)
    for row, column in zip(out, field(t, state), strict=True):
        row[...] = column
    return out


def _extension(field, steps, rows, theta):
    """States (dim, rows) at the fractions ``theta`` of the steps at ``rows``
    from DOP853's continuous extension, elementwise. A record of ``steps``
    (steps, 2 + 15·dim) holds a step's t, dt, start and end states and stages
    0–12. Stages 13–15 of all steps take one ``field`` call each, on arrays,
    with numpy's warnings off: a state may be inf or nan."""
    t, dt = steps[:, 0], steps[:, 1]
    y, n, *k = steps[:, 2:].reshape(len(steps), 15, -1).transpose(1, 2, 0)
    with np.errstate(all="ignore"):
        for s in range(13, 16):
            k.append(_columns(field, t + _C[s] * dt, y + dt * _weighted(_A[s], k)))
        y, dt, k = y[:, rows], dt[rows], [k[s][:, rows] for s in _DENSE_STAGES]
        ydiff = n[:, rows] - y
        coeffs = ([ydiff, dt * k[0] - ydiff, 2.0 * ydiff - dt * (k[8] + k[0])]
                  + [dt * _weighted(row, k) for row in _D])
        total = 0.0
        for i, f in enumerate(reversed(coeffs)):
            total = (total + f) * (theta if i % 2 == 0 else 1.0 - theta)
        return y + total


def _initial_steps(f0, y0, t_span, rtol, atol):
    """First trial step magnitude for the state ``y0`` and its field value
    ``f0``, both (dim,)."""
    scaled = np.stack([y0, f0]) / (atol + rtol * np.abs(y0))
    # root mean squares over the state axis: np.mean's arithmetic, without its overhead
    d0, d1 = np.sqrt(np.add.reduce(np.square(scaled), axis=-1) / len(y0)).tolist()
    h = 1e-6 * max(abs(t_span), 1.0) if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    return min(h, abs(t_span))


def integrate(field: Callable, y0: Sequence[float], t_end: float,
              config: IntegratorConfig = IntegratorConfig(),
              t_eval: Optional[Sequence[float]] = None) -> Trajectory:
    """Integrate ``y' = field(t, y)`` from ``t = 0`` to ``t_end`` with adaptive
    steps, for one point ``y0`` (dim,), by the emitted run of its dimension.

    States are reported at the times ``t_eval``, which must run monotonically
    from 0 toward ``t_end``, or else at t = 0 and every accepted step. An
    entry at the end of an accepted step gets the step's state, one inside
    it the step's continuous extension, whose error is of the order of the
    step's own. Steps are clipped to ``t_end`` only, so they are the same for
    every ``t_eval``, and so are the counters but the right-hand-side calls:
    a step holding an entry inside it takes three more, after the run, with
    ``t`` and the columns as arrays. Raises :class:`MaxStepsExceeded` or
    :class:`StepSizeUnderflow` carrying the last time the run reached, or
    :class:`NumericalError` naming the first entry whose state is inf or nan.
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 1:
        raise ValueError("y0 must be one state (dim,)")
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
    if t_end == 0.0:
        times = np.array([0.0]) if t_eval is None else t_eval
        return Trajectory(times, np.repeat(y0[None], len(times), axis=0), 0, 0, 0, np.nan, np.nan)
    y, dim, t_end = y0.tolist(), len(y0), float(t_end)
    try:
        k0 = field(0.0, y)
    except (ZeroDivisionError, OverflowError) as exc:
        raise NumericalError(f"field failed at t=0.0: {exc}") from exc
    # the first stage of the first attempt serves the initial-step estimate
    h = _initial_steps(np.asarray(k0, dtype=float), y0, t_end, config.rtol, config.atol)
    grid = [] if t_eval is None else t_eval.tolist()
    targets = [tt for tt in grid if tt != 0.0]
    slots = [j for j, tt in enumerate(grid) if tt != 0.0]
    # rows at t = 0 keep the initial state
    out = None if t_eval is None else np.repeat(y0[None], len(t_eval), axis=0)
    *counters, first, second = _one_point("run", dim, getattr(field, "program", None))(
        field, y, k0, h, t_end, targets, slots, out, config.rtol, config.atol, config.max_steps)
    if out is None:
        return Trajectory(np.array(first), np.array(second).reshape(-1, dim), *counters)
    if second:
        row, step, theta = np.frombuffer(second).reshape(-1, 3).T
        row, steps = row.astype(int), np.frombuffer(first).reshape(-1, 2 + 15 * dim)
        out[row] = _extension(field, steps, step.astype(int), theta).T
        failed = row[~np.isfinite(out[row]).all(axis=1)]
        if len(failed):
            raise NumericalError(f"state is inf or nan at t={float(t_eval[failed[0]])!r}")
    return Trajectory(np.array(t_eval), out, *counters)


def _fixed_lanes(field, y0, dt, steps):
    """``_FIXED``'s run on lanes ``y0`` (dim, lanes), each stage one array of
    that shape: its grid states (steps + 1, dim, lanes)."""
    grid = np.empty((steps + 1,) + y0.shape)
    grid[0], y, t = y0, y0, 0.0
    try:
        k = [_columns(field, t, y)]
        for j in range(steps):
            for s in range(1, 13):
                state = y + dt * _weighted(_A[s], k)
                k.append(_columns(field, t + _C[s] * dt, state))
            grid[j + 1] = state  # stage 12's state, the step's solution
            t = dt * (j + 1)
            y, k = grid[j + 1], [k[12]]
    except (ZeroDivisionError, OverflowError) as exc:  # as the one-point form
        raise NumericalError(f"field failed in a step from t={t!r}: {exc}") from exc
    return grid


def fixed_steps(field: Callable, y0: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """``steps`` DOP853 steps of size ``dt`` from ``t = 0`` on each lane of
    ``y0`` (lanes, dim): the states (steps + 1, lanes, dim) at t = 0 and at
    the end of each step. One lane runs on floats, more as lanes, with the
    same bits (module docstring). Raises :class:`NumericalError` where the
    field raises ``ZeroDivisionError`` or ``OverflowError``, or naming the
    first lane whose states hold an inf or a nan, and ``ValueError`` for a
    negative ``steps``."""
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps!r}")
    y0 = np.asarray(y0, dtype=float)
    lanes, dim = y0.shape
    if lanes == 1:
        run = _one_point("fixed steps", dim, getattr(field, "program", None))
        grid = np.frombuffer(run(field, y0[0].tolist(), float(dt), steps))
        grid = grid.reshape(steps + 1, dim, 1)
    else:
        grid = _fixed_lanes(field, y0.T.copy(), float(dt), steps)
    finite = np.isfinite(grid).all(axis=1)  # (steps + 1, lanes)
    if not finite.all():
        lane, row = np.argwhere(~finite.T)[0]
        raise NumericalError(f"state is inf or nan at t={float(dt * row)!r} in lane {lane}")
    return grid.transpose(0, 2, 1)
