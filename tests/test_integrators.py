"""DOP853 integration, adaptive and on fixed steps: accuracy, error control,
the two forms of the fixed-step run, failure modes."""

import dis
import marshal
import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

from adiakit import (CircleAction, IntegratorConfig, MaxStepsExceeded, NumericalError,
                     SlowFastSystem, StepSizeUnderflow, charged_particle, elastic_pendulum,
                     integrate, integrators)
from adiakit import kernel as sk
from adiakit.integrators import fixed_steps
from adiakit.cli import main
from adiakit.config import RunConfig
from adiakit.experiments import full_field, order_sweep
from adiakit.phase import field_full
from adiakit.integrators import _A, _C, _D, _E3, _E5, _weighted

from conftest import sample_points


def linear(t, y):
    return y


def harmonic(t, y):
    # coordinate columns in, columns out: floats for one point, arrays for
    # lanes; the array it returns is a sequence of columns
    return np.array([-y[1], y[0]])


def test_adaptive_harmonic_period_return():
    cfg = IntegratorConfig(rtol=1e-11, atol=1e-14)
    traj = integrate(harmonic, [1.0, 0.0], 2.0 * np.pi, cfg)
    assert np.linalg.norm(traj.states[-1] - [1.0, 0.0]) < 1e-9


def test_decoupled_pendulum_action_conserved():
    fx = elastic_pendulum(omega=1.0, gamma=0.0)
    system = fx.system
    cfg = IntegratorConfig(rtol=1e-11, atol=1e-13)
    rhs = full_field(system, 0.0)
    m0 = np.array([0.5, 0.2, 0.1, 1.0])
    traj = integrate(rhs, m0, 30.0, cfg, t_eval=np.linspace(0, 30.0, 40))
    j_vals = [float(system.J([s[0], s[1]], [s[2], s[3]])) for s in traj.states]
    assert max(abs(j - j_vals[0]) for j in j_vals) < 1e-9


def test_energy_conserved_long_horizon():
    fx = elastic_pendulum(omega=1.0, gamma=0.5)
    system = fx.system
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-13)
    rhs = full_field(system, 0.2)
    m0 = np.array([0.5, 0.0, 0.1, 1.0])
    traj = integrate(rhs, m0, 100.0, cfg, t_eval=np.linspace(0, 100.0, 101))
    h_vals = [float(system.H([s[0], s[1]], [s[2], s[3]])) for s in traj.states]
    drift = max(abs(h - h_vals[0]) for h in h_vals)
    assert drift < 1e-8
    # the generic budget: |H(t) - H(0)| <= 10 * rtol * |H0| * t
    assert drift <= 10.0 * 1e-10 * abs(h_vals[0]) * 100.0


def test_requested_sample_times_are_exact():
    # at 293 samples most lie inside a step, on its continuous extension
    rtol = 1e-9
    cfg = IntegratorConfig(rtol=rtol, atol=1e-12)
    assert integrate(harmonic, [1.0, 0.0], 7.3, cfg).accepted < 200
    for n_samples in (29, 293):
        t_eval = np.linspace(0.0, 7.3, n_samples)
        traj = integrate(harmonic, [1.0, 0.0], 7.3, cfg, t_eval=t_eval)
        assert np.array_equal(traj.times, t_eval)
        exact = np.stack([np.cos(t_eval), np.sin(t_eval)], axis=1)
        assert np.max(np.abs(traj.states - exact)) < 2.0 * rtol


def test_negative_time_direction():
    cfg = IntegratorConfig(rtol=1e-11, atol=1e-14)
    traj = integrate(harmonic, [1.0, 0.0], -np.pi, cfg)
    assert traj.states[-1] == pytest.approx([-1.0, 0.0], abs=1e-9)


def test_dop853_tableau_is_consistent():
    # exact sums of the doubles; a row's bound scales with its weights, which
    # reach 43 in magnitude, so that the doubles' own rounding fits it
    for s in range(1, 16):
        assert abs(math.fsum(_A[s]) - _C[s]) <= 1e-15 * max(1.0, math.fsum(map(abs, _A[s])))
    assert math.fsum(_A[12]) == pytest.approx(1.0, abs=1e-15)  # the weights b
    assert abs(math.fsum(_E5)) <= 1e-15 and abs(math.fsum(_E3)) <= 1e-15


def one_step(field, y0, h, theta):
    """The end state of one step of size ``h`` from t = 0, and its continuous
    extension at ``theta``·h: a one-point run to ``h`` whose first trial step
    is ``h``, at tolerances that accept it (they do not change its values)."""
    cfg = IntegratorConfig(rtol=1.0, atol=1.0, max_steps=1)
    with mock.patch.object(integrators, "_initial_steps", lambda *args: h):
        traj = integrate(field, y0, h, cfg, t_eval=[0.0, theta * h, h])
    return traj.states[2, 0], traj.states[1, 0]


STEPS = np.array([0.6, 0.4, 0.3, 0.2])  # local errors 9e-10 … 4e-14, well above rounding


def test_one_step_local_error_is_ninth_order():
    errors = [abs(one_step(linear, [1.0], h, 0.5)[0] - math.exp(h)) for h in STEPS]
    assert np.polyfit(np.log(STEPS), np.log(errors), 1)[0] == pytest.approx(9.0, abs=0.3)


def test_continuous_extension_interior_error_is_eighth_order():
    errors = [abs(one_step(linear, [1.0], h, 0.5)[1] - math.exp(0.5 * h)) for h in STEPS]
    assert np.polyfit(np.log(STEPS), np.log(errors), 1)[0] == pytest.approx(8.0, abs=0.3)


def test_particle_step_count_guard():
    # DP5 took 632 attempts here; the counts repeat exactly, so a fall back
    # to low-order stepping shows
    particle = charged_particle()
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-13)
    traj = integrate(full_field(particle.system, 0.05), particle.initial.coords, 20.0, cfg,
                     t_eval=np.linspace(0.0, 20.0, 512))
    assert traj.accepted + traj.rejected <= 100


def test_max_steps_exceeded_reports_last_time():
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-14, max_steps=25)
    with pytest.raises(MaxStepsExceeded) as err:
        integrate(harmonic, [1.0, 0.0], 1000.0, cfg)
    assert 0.0 <= err.value.last_time < 1000.0
    # at the boundary: a budget of exactly a run's attempts finishes it, with
    # the same states and counters; one fewer raises where the last attempt,
    # an accepted one, starts (with rejected attempts, and without)
    for field, y0, t_end in [(harmonic, [1.0, 0.0], 7.0), (lambda t, y: [y[0] * y[0]], [1.0], 0.5)]:
        free = integrate(field, y0, t_end)
        n = free.accepted + free.rejected
        exact = integrate(field, y0, t_end, IntegratorConfig(max_steps=n))
        assert np.array_equal(exact.times, free.times)
        assert np.array_equal(exact.states, free.states)
        assert (exact.rhs_calls, exact.accepted, exact.rejected, exact.h_min, exact.h_max) == (
            free.rhs_calls, free.accepted, free.rejected, free.h_min, free.h_max)
        with pytest.raises(MaxStepsExceeded) as short:
            integrate(field, y0, t_end, IntegratorConfig(max_steps=n - 1))
        last = float(free.times[-2])
        assert (str(short.value), short.value.last_time) == (
            f"exceeded {n - 1} step attempts at t={last!r}", last)


def test_step_size_underflow_near_blowup():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, max_steps=10_000_000)
    with pytest.raises((StepSizeUnderflow, MaxStepsExceeded)) as err:
        integrate(lambda t, y: [y[0] * y[0]], np.array([1.0]), 2.0, cfg)
    # solution blows up at t = 1
    assert err.value.last_time == pytest.approx(1.0, abs=0.05)


def anharmonic(k):
    """Pendulum-like oscillators whose stiffness ``k`` is a slow coordinate held
    per lane (an array over lanes, or one lane's value); each lane on its own."""
    def field(t, y):
        x, v = y
        return [v, -k * np.sin(x) - 0.3 * k * x * x * x]

    return field


LANE_Y0 = np.array([[2.5, 0.0], [1.0, 0.3], [0.2, -1.0], [3.0, 2.0]])
LANE_K = np.array([0.5, 2.0, 9.0, 30.0])
COUNTERS = ("rhs_calls", "accepted", "rejected", "h_min", "h_max")


@pytest.mark.parametrize("t_end", [4.0, -3.0])
def test_lanes_equal_their_one_lane_runs(t_end):
    # fixed steps: lane i of a lane run equals the one-point run from its
    # state at every state of the step grid, and both follow the adaptive run
    # to within the steps' error
    steps = 128
    dt = t_end / steps
    lanes = fixed_steps(anharmonic(LANE_K), LANE_Y0, dt, steps)
    assert lanes.shape == (steps + 1, 4, 2)
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-14)
    for i in range(4):
        one = fixed_steps(anharmonic(LANE_K[i]), LANE_Y0[i:i + 1], dt, steps)
        assert np.array_equal(lanes[:, i:i + 1], one)
        grid = integrators._fixed_lanes(anharmonic(LANE_K[i:i + 1]), LANE_Y0[i:i + 1].T.copy(),
                                        dt, steps)  # the lanes form on one lane
        assert np.array_equal(grid[:, :, 0], one[:, 0])
        exact = integrate(anharmonic(LANE_K[i]), LANE_Y0[i], t_end, cfg,
                          t_eval=np.append(dt * np.arange(steps), t_end)).states
        assert np.max(np.abs(one[:, 0] - exact)) < 1e-5


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_drift_field_equals_field_full_bitwise(request, fixture_name):
    # the traced drift field and phase.field_full take H's partials by the
    # same Dual passes, at one point (Python floats) and on lanes (arrays)
    system = request.getfixturevalue(fixture_name).system
    points = system.domain.sample(np.random.default_rng(17), 200)
    for eps in (0.2, 0.05, 0.0125):
        rhs = full_field(system, eps)
        want = np.array([field_full(system, system.point(c), eps) for c in points])
        got = np.array([rhs(0.0, c.tolist()) for c in points])
        assert np.array_equal(got, want)
        assert np.array_equal(np.transpose(rhs(0.0, list(points.T))), want)


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_float_and_lane_kernels_agree_on_the_full_field(request, fixture_name):
    # the fixed-step run's one-point form (Python floats, emitted code)
    # against lane 0 of a two-lane run (stacked numpy arrays) of the
    # production field
    fixture = request.getfixturevalue(fixture_name)
    rhs = full_field(fixture.system, 0.2)
    m0 = fixture.initial.coords
    one = fixed_steps(rhs, m0[None], 0.1, 50)
    two = fixed_steps(rhs, np.stack([m0, m0 + 0.05]), 0.1, 50)
    assert np.array_equal(two[:, :1], one)
    assert not np.array_equal(two[:, 1], two[:, 0])


def oscillator_chain(t, y):
    """Uncoupled oscillators of frequencies 1..dim/2 (coordinate columns)."""
    out = []
    for j in range(0, len(y), 2):
        w = float(j // 2 + 1)
        out += [-w * y[j + 1], w * y[j]]
    return out


@pytest.mark.parametrize("dim", [2, 10, 20])
def test_lanes_equal_one_point_runs_beyond_eight_coordinates(dim):
    # both forms of the fixed-step run at dimensions past numpy's unrolled sums
    rng = np.random.default_rng(dim)
    y0 = rng.standard_normal((3, dim)) * 10.0 ** rng.integers(-3, 3, (3, dim))
    lanes = fixed_steps(oscillator_chain, y0, 0.125, 16)
    for i in range(3):
        assert np.array_equal(lanes[:, i:i + 1], fixed_steps(oscillator_chain, y0[i:i + 1],
                                                             0.125, 16))


def ring(t, y):
    """Each coordinate driven by its left neighbour, at any dim (columns)."""
    return [y[i - 1] - 0.5 * y[i] for i in range(len(y))]


@pytest.mark.parametrize("n", list(range(1, 20)) + [127, 128, 129, 300])
def test_emitted_sums_take_numpys_reduction_order(n):
    # the one-point form and the lanes sum left to right, elementwise: numpy's
    # order when it reduces stacked arrays along their outer axis, at any
    # number of terms
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 50)) * 10.0 ** rng.integers(-8, 8, (n, 50))
    assert np.array_equal(_weighted([1.0] * n, list(x)), np.add.reduce(x, axis=0))
    # a fixed-step run over n coordinates: the one-point form's states equal
    # the lane run's, lane by lane
    y0 = rng.standard_normal((50, n)) * 10.0 ** rng.integers(-8, 8, (50, n))
    lanes = fixed_steps(ring, y0, 0.005, 2)
    for i in range(50):
        assert np.array_equal(fixed_steps(ring, y0[i:i + 1], 0.005, 2), lanes[:, i:i + 1])


def forced_ring(t, y):
    """Each coordinate turned by its two neighbours, with a weak cubic term and
    a forcing in t, bounded in both time directions (floats or lane columns)."""
    n = len(y)
    return [y[i - 1] - y[(i + 1) % n] - 0.005 * y[i] * y[i] * y[i] + 0.3 * t for i in range(n)]


@pytest.mark.parametrize("t_end", [6.0, -4.0])
@pytest.mark.parametrize("grid", ["none", "inside", "repeated", "to_end"])
@pytest.mark.parametrize("dim", range(1, 13))
def test_both_forms_equal_each_other_and_the_lanes(dim, grid, t_end):
    # the fixed-step run's one-point form, unrolled for its dimension, against
    # its lane form, on the step grid; the adaptive run, read at the grid's
    # step ends and at the fractions ``grid`` of its steps, follows it there
    rng = np.random.default_rng(dim)
    y0 = rng.uniform(-1.0, 1.0, (2, dim))
    thetas = {"none": (), "inside": (0.5,), "repeated": (0.25, 0.25, 0.75),
              "to_end": (0.25, 0.5, 0.75)}[grid]
    steps = 12
    dt = t_end / steps
    lanes = fixed_steps(forced_ring, y0, dt, steps)
    assert lanes.shape == (steps + 1, 2, dim)
    t_eval = np.append(dt * (np.arange(steps)[:, None] + [0.0, *thetas]).ravel(), t_end)
    for i in range(2):
        one = fixed_steps(forced_ring, y0[i:i + 1], dt, steps)
        assert np.array_equal(one, lanes[:, i:i + 1])
        assert np.array_equal(one[0, 0], y0[i])
        adaptive = integrate(forced_ring, y0[i], t_end, t_eval=t_eval).states
        # the steps' error, at dt = 0.5 and 1/3: measured at most 4.4e-7 over all cases
        assert np.max(np.abs(adaptive[::1 + len(thetas)] - one[:, 0])) < 1e-6
        if grid == "repeated":  # a repeated fraction repeats the state
            assert np.array_equal(adaptive[1::4], adaptive[2::4])


def float_step(field, y, h, thetas):
    """One DOP853 step of size ``h`` from t = 0 and the state ``y`` on Python
    floats, straight from the tableau: its end state and its continuous
    extension at each of ``thetas`` (stages 13–15, then dop853.f's contd8 in
    nested form). Each sum runs left to right over its nonzero weights."""
    def dot(weights, values):
        terms = [w * v for w, v in zip(weights, values) if w]
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total

    y = [float(v) for v in y]
    k = [[float(v) for v in field(0.0, y)]]
    for s in range(1, 16):
        state = [y[i] + h * dot(_A[s], [k_j[i] for k_j in k]) for i in range(len(y))]
        k.append([float(v) for v in field(0.0 + _C[s] * h, state)])
        if s == 12:
            end = state
    dense = []
    for u in thetas:
        row = []
        for i in range(len(y)):
            ks = [k[j][i] for j in (0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)]
            ydiff = end[i] - y[i]
            c2, c3, c4 = ydiff, h * ks[0] - ydiff, 2.0 * ydiff - h * (ks[8] + ks[0])
            c5, c6, c7, c8 = (h * dot(d, ks) for d in _D)
            v = 1.0 - u
            row.append(y[i] + u * (c2 + v * (c3 + u * (c4 + v * (c5 + u * (c6 + v * (
                c7 + u * c8)))))))
        dense.append(row)
    return end, dense


def drift_fields(system, points):
    """The traced drift field at ε = 0.05 for one point and for the lanes of
    ``points``: the same field."""
    rhs = full_field(system, 0.05)
    return [rhs] * len(points), rhs, points


def upsilon_fields(system, points):
    """Υ over the fast block, bound to each point's slow block as floats, and
    to all of them as lanes."""
    bind = CircleAction(system, flow_mode="numeric")._field(0)
    fast, slow = points[:, :2 * system.r], points[:, 2 * system.r:]
    return [bind(*row.tolist()) for row in slow], bind(*slow.T), fast


@pytest.mark.parametrize("kind", [drift_fields, upsilon_fields])
@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_every_form_reads_the_extension_of_the_float_reference(request, rng, fixture_name, kind):
    # the adaptive run takes the extension's stages in one pass over arrays
    # after the steps, and its samples equal a step taken on floats from _A,
    # _C and _D, bit for bit; the fixed-step run, on one lane and on lanes,
    # ends its step on that step's state
    fixture = request.getfixturevalue(fixture_name)
    points = np.stack([m.coords for m in sample_points(fixture, rng, 3)])
    singles, lanes_field, y0 = kind(fixture.system, points)
    h, thetas = 0.375, (0.25, 0.5)  # θ·h/h is θ again, as the adaptive run computes it
    lanes = fixed_steps(lanes_field, y0, h, 1)
    for i, field in enumerate(singles):
        end, dense = float_step(field, y0[i], h, thetas)
        cfg = IntegratorConfig(rtol=1.0, atol=1.0, max_steps=1)
        with mock.patch.object(integrators, "_initial_steps", lambda *args: h):
            adaptive = integrate(field, y0[i], h, cfg, t_eval=[0.0, *(t * h for t in thetas), h])
        assert np.array_equal(adaptive.states[1:], [*dense, end])
        one = fixed_steps(field, y0[i:i + 1], h, 1)[:, 0]
        for states in (one, lanes[:, i]):
            assert np.array_equal(states, [y0[i], end])


def called(rhs):
    """``rhs`` behind a plain function: the emitted runs call it."""
    return lambda t, y: rhs(t, y)


def fused_runs(code_cache):
    """The emitted runs compiled since the cache was emptied that hold a traced program."""
    return [name for name, _ in code_cache.compiled if name.startswith("<DOP853")
            and ", traced field " in name]


@pytest.mark.parametrize("samples", [None, 96])
@pytest.mark.parametrize("eps", [0.2, 0.0125])
@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_a_fused_run_equals_the_run_that_calls_its_field(request, code_cache, fixture_name,
                                                         eps, samples):
    # the drift field's program pasted into the adaptive run's stages takes
    # the operations of its call: the same times, states and counters
    fixture = request.getfixturevalue(fixture_name)
    rhs, t_end = full_field(fixture.system, eps), 1.0 / eps
    t_eval = None if samples is None else np.linspace(0.0, t_end, samples)
    cfg = IntegratorConfig(rtol=1e-9, atol=1e-12)
    fused, call = (integrate(f, fixture.initial.coords, t_end, cfg, t_eval=t_eval)
                   for f in (rhs, called(rhs)))
    assert [name.split(", traced")[0] for name in fused_runs(code_cache)] == ["<DOP853 run, dim 4"]
    assert np.array_equal(fused.times, call.times) and np.array_equal(fused.states, call.states)
    for name in COUNTERS:
        assert getattr(fused, name) == getattr(call, name)


@pytest.mark.parametrize("directions", [0, 4])
@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_a_fused_fixed_step_run_equals_the_run_that_calls_its_field(request, rng, code_cache,
                                                                    fixture_name, directions):
    # Υ bound to one point's slow block and its tangents W, with the fast
    # block's tangents V, on one lane: the tangent names t<i>_<d> are the
    # run's locals too
    fixture = request.getfixturevalue(fixture_name)
    system, [point] = fixture.system, sample_points(fixture, rng, 1)
    n_fast, n_slow = 2 * system.r, 2 * system.k
    rhs = CircleAction(system, flow_mode="numeric")._field(directions)(
        *point.slow, *rng.normal(size=n_slow * directions))
    y0 = np.concatenate([point.fast, rng.normal(size=n_fast * directions)])[None]
    fused, call = (fixed_steps(f, y0, 2.0 * np.pi / 16, 16) for f in (rhs, called(rhs)))
    assert len(fused_runs(code_cache)) == 1
    assert np.array_equal(fused, call)


def test_a_fused_run_reads_its_constants_beside_its_stages(code_cache):
    # an np.float64 parameter of H is traced as constants k<n>, which the run
    # reads from the field beside its own stage names k<s>_<i>
    c = np.float64(0.7)
    system = SlowFastSystem(r=1, k=1, omega=lambda f, s: 1.0 + s[1] * s[1],
                            H=lambda f, s: c * (f[0] * f[0] + f[1] * f[1]) * (1.0 + s[1] * s[1])
                            + s[0] * s[1])
    rhs = full_field(system, 0.1)
    assert rhs.inputs[rhs.program.inputs.index("k0")] is c
    assert any("k1" in line for line in rhs.program.body)
    y0, t_eval = [0.3, -0.2, 0.5, 0.4], np.linspace(0.0, 12.0, 25)
    fused, call = (integrate(f, y0, 12.0, IntegratorConfig(), t_eval=t_eval)
                   for f in (rhs, called(rhs)))
    assert np.array_equal(fused.states, call.states)
    assert [getattr(fused, n) for n in COUNTERS] == [getattr(call, n) for n in COUNTERS]
    assert np.array_equal(*(fixed_steps(f, [y0], 0.25, 8) for f in (rhs, called(rhs))))
    assert len(fused_runs(code_cache)) == 2


def test_a_fused_run_fails_as_the_run_that_calls_its_field():
    # x' = -1 and z' = 1/x from x = x0 with stage 6's x exactly 0.0 in the
    # first step, and from a state of another dimension, which the first
    # stage's call meets; the step limit; a blow-up that underflows the step
    # size
    h = 0.5
    x0 = -(h * _weighted(_A[6], [-1.0] * 6))
    divide = sk.trace_tangent(lambda y, c: [c[0], 1.0 / y[0]], (2, 1), 0)(-1.0)
    spin = sk.trace_tangent(lambda y, c: [-c[0] * y[1], c[0] * y[0]], (2, 1), 0)(1.0)
    blowup = sk.trace_tangent(lambda y, c: [c[0] * y[0] * y[0]], (1, 1), 0)(1.0)
    cfg = IntegratorConfig(rtol=1.0, atol=1.0, max_steps=1)
    message = "^field failed in a step from t=0.0: float division by zero$"
    for f in (divide, called(divide)):
        with mock.patch.object(integrators, "_initial_steps", lambda *args: h), \
                pytest.raises(NumericalError, match=message):
            integrate(f, [x0, 0.0], h, cfg)
        with pytest.raises(NumericalError, match=message):
            fixed_steps(f, [[x0, 0.0]], h, 1)
        with pytest.raises(ValueError, match="too many values to unpack"):  # another dim
            fixed_steps(f, [[x0, 0.0, 0.0]], h, 1)
    for rhs, y0, t_end, cfg, error in (
            (spin, [1.0, 0.0], 1000.0, IntegratorConfig(max_steps=25), MaxStepsExceeded),
            (blowup, [1.0], 2.0, IntegratorConfig(rtol=1e-10, atol=1e-12), StepSizeUnderflow)):
        raised = []
        for f in (rhs, called(rhs)):
            with pytest.raises(error) as err:
                integrate(f, y0, t_end, cfg)
            raised.append((str(err.value), err.value.last_time))
        assert raised[0] == raised[1] and type(raised[0][1]) is float


def test_a_failure_in_an_extension_stage_only_names_its_time():
    # 0/(t − c) is 0 at every stage of the step grid and divides by zero at
    # one stage of the continuous extension, t + 0.1·dt of one step, which
    # runs on arrays after the steps: the run raises naming the sample's
    # time, and numpy warns of nothing
    h = 0.25

    def singular(c):
        return lambda t, y: [0.0 / (t - c) - y[1], y[0]]

    cfg = IntegratorConfig(rtol=1.0, atol=1.0, max_steps=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(integrators, "_initial_steps", lambda *args: h), \
                pytest.raises(NumericalError, match=r"^state is inf or nan at t=0\.125$"):
            integrate(singular(_C[13] * h), [1.0, 0.0], h, cfg, t_eval=[0.0, 0.5 * h, h])


def test_emitted_runs_take_twelve_stages_per_step():
    # the continuous extension's stages 13–15 are not in either emitted run
    for dim in (1, 4):
        assert integrators._run_source(dim).count("field(") == 12
        assert integrators._fixed_source(dim).count("field(") == 13  # and the first stage


NAN = float("nan")
FAILING = {  # field, y0, t_end, config, the error's type and a part of its message
    "max_steps": (harmonic, [1.0, 0.0], 1000.0, IntegratorConfig(max_steps=25),
                  MaxStepsExceeded, "exceeded 25 step attempts at t="),
    "underflow": (lambda t, y: [y[0] * y[0]], [1.0], 2.0,
                  IntegratorConfig(rtol=1e-10, atol=1e-12, max_steps=10_000_000),
                  StepSizeUnderflow, "step size underflow at t="),
    "division": (lambda t, y: [1.0 / (0.0 if t > 0.3 else 1.0), y[1], -y[0]], [0.0, 1.0, 0.0],
                 1.0, IntegratorConfig(), NumericalError, "float division by zero"),
    "overflow": (lambda t, y: [(1e200 if t > 0.3 else 1.0) ** 2.0, -y[0]], [1.0, 0.0], 1.0,
                 IntegratorConfig(), NumericalError, "Numerical result out of range"),
    "nan_norm": (lambda t, y: [np.where(t > 0.3, NAN, 1.0), -y[0]], [1.0, 0.0], 1.0,
                 IntegratorConfig(), NumericalError, "error norm is nan at t="),
    "at_zero": (lambda t, y: [1.0 / y[0], 1.0], [0.0, 1.0], 1.0, IntegratorConfig(),
                NumericalError, "field failed at t=0.0: float division by zero"),
}


def fixed_failure(field, y0, t_end, lanes):
    """A fixed-step run of 64 steps to ``t_end`` from ``lanes`` copies of
    ``y0``: its states, or the type and message of the error it raised."""
    try:
        with np.errstate(all="ignore"):
            return fixed_steps(field, [y0] * lanes, t_end / 64, 64)
    except NumericalError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", FAILING)
def test_both_forms_fail_alike(case):
    # the adaptive run raises; the fixed-step run's one-point form and its
    # lanes end alike, but where a float raises on what numpy takes as inf
    field, y0, t_end, cfg, error, message = FAILING[case]
    with pytest.raises(error, match=message) as point:
        integrate(field, y0, t_end, cfg)
    assert "np.float64(" not in str(point.value)
    one, lanes = fixed_failure(field, y0, t_end, 1), fixed_failure(field, y0, t_end, 2)
    if isinstance(one, np.ndarray):
        assert np.array_equal(np.concatenate([one, one], axis=1), lanes)
    elif case == "at_zero":
        assert one == (NumericalError, "field failed in a step from t=0.0: float division by zero")
        assert lanes[0] is NumericalError and "inf or nan at t=" in lanes[1]
    else:
        assert one == lanes and "np.float64(" not in one[1]


@pytest.mark.parametrize("t_end", [1000.0, np.float64(1000.0)])
def test_one_point_times_are_python_floats(t_end):
    # a field returning an ndarray gives numpy scalars; the controller's times
    # stay Python floats
    with pytest.raises(MaxStepsExceeded) as err:
        integrate(harmonic, [1.0, 0.0], t_end, IntegratorConfig(max_steps=25))
    assert "np.float64(" not in str(err.value)
    assert type(err.value.last_time) is float


@pytest.mark.parametrize("command", [["invariant", "--order", "2"], ["check"]])
def test_numeric_flow_commands_compile_each_source_once(tmp_path, capsys, code_cache, command):
    # a cold code cache compiles each emitted source once, the one-point run
    # once per dimension, and nothing but traced fields and runs; a new
    # process then loads them all
    config = tmp_path / "run.ini"
    config.write_text("[fixture]\nname = elastic_pendulum\n\n"
                      "[quadrature]\nnodes = 8\nflow_mode = numeric\n", encoding="utf-8")
    argv = [*command, "--config", str(config), "--workers", "1"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    runs = [filename for filename, _ in code_cache.compiled if filename.startswith("<DOP853")]
    assert 0 < len(runs) == len(set(runs))
    assert fused_runs(code_cache)  # Υ's one-point runs, named by their program
    assert len(set(code_cache.compiled)) == len(code_cache.compiled)
    assert {filename for filename, _ in code_cache.compiled} == {"<traced field>", *runs}
    code_cache.restart()
    assert main(argv) == 0
    assert capsys.readouterr().out == cold
    assert code_cache.compiled == []


def test_a_warm_one_point_run_builds_no_source(code_cache, monkeypatch):
    # the run's cache entry is keyed by dim, a hash of integrators.py and the
    # traced program it holds, so a process that finds it neither builds nor
    # compiles its source; another dim, another program or another
    # integrators.py misses, and a damaged or foreign entry is built and
    # compiled again. The fixed-step run is keyed alike
    built, build, fixed = [], integrators._run_source, integrators._fixed_source
    monkeypatch.setattr(integrators, "_run_source", lambda dim, program=None: built.append(
        dim if program is None else (dim, program.outputs)) or build(dim, program))
    monkeypatch.setattr(integrators, "_fixed_source",
                        lambda dim, program=None: built.append(-dim) or fixed(dim, program))

    def run(*args, **kwargs):  # in a new process; (states, sources built, compiles)
        code_cache.restart()
        built.clear()
        return integrate(*args, **kwargs).states, list(built), len(code_cache.compiled)

    def traced(f):  # the same, of f's traced field at c = 1.0
        code_cache.restart()
        rhs = sk.trace_tangent(f, (2, 1), 0)(1.0)
        return run(rhs, [1.0, 0.0], 3.0)

    want, *cold = run(harmonic, [1.0, 0.0], 3.0)
    assert cold == [[2], 1]
    [entry] = code_cache.directory.iterdir()
    good = marshal.loads(entry.read_bytes())
    states, *warm = run(harmonic, [1.0, 0.0], 3.0)
    assert np.array_equal(states, want) and warm == [[], 0]
    assert run(linear, [1.0, 0.0, 2.0], 1.0)[1:] == ([3], 1)
    for damaged in (b"\x00garbage", marshal.dumps(("<DOP853 run, dim 2>", "dim 2", good[-1]))):
        entry.write_bytes(damaged)
        states, *rebuilt = run(harmonic, [1.0, 0.0], 3.0)
        assert np.array_equal(states, want) and rebuilt == [[2], 1]
        assert marshal.loads(entry.read_bytes())[:2] == good[:2]
    # harmonic's field traced has a run of its own, built cold and loaded
    # warm, with the bits of the call; another program misses
    for cold in ([(2, ("-v1", "v0"))], 1), ([], 0):
        states, *fused = traced(lambda y, c: [-y[1], y[0]])
        assert np.array_equal(states, want) and tuple(fused) == cold
    assert traced(lambda y, c: [-y[1], c[0] * y[0]])[1:] == ([(2, ("-v1", "v3"))], 1)
    for cold in (True, False):
        code_cache.restart()
        built.clear()
        fixed_steps(harmonic, [[1.0, 0.0]], 0.1, 4)
        assert (built, len(code_cache.compiled)) == (([-2], 1) if cold else ([], 0))
    monkeypatch.setattr(integrators, "source_hash", lambda data: b"another integrators.py")
    states, *other = run(harmonic, [1.0, 0.0], 3.0)
    assert np.array_equal(states, want) and other == [[2], 1]
    assert traced(lambda y, c: [-y[1], y[0]])[1:] == ([(2, ("-v1", "v0"))], 1)


def test_long_horizon_sweep_compiles_one_unrolled_run(code_cache):
    # its four trajectories take 64, 126, 249 and 496 attempts at dim 4, all
    # on the one run a cold cache compiles; a new process loads it
    config = RunConfig(fixture="charged_particle", eps_grid=(0.05, 0.025, 0.0125, 0.00625),
                       orders=(0, 1), rtol=1e-10, atol=1e-13)
    cold = order_sweep(config)
    assert [c["accepted"] + c["rejected"] for c in cold.steps.values()] == [64, 126, 249, 496]
    runs = [filename for filename, _ in code_cache.compiled if filename.startswith("<DOP853")]
    assert runs == fused_runs(code_cache) and len(runs) == 1
    assert runs[0].startswith("<DOP853 run, dim 4, traced field ")  # the drift field's
    code_cache.restart()
    assert list(order_sweep(config).csv_rows()) == list(cold.csv_rows())
    assert code_cache.compiled == []


def specialised_float_ops(run):
    """The float-specialised binary operations in ``run``'s bytecode now."""
    return [i for i in dis.get_instructions(run, adaptive=True)
            if i.opname.startswith("BINARY_OP_") and i.opname.endswith("_FLOAT")]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="dis has no adaptive view")
@pytest.mark.parametrize("fused", [True, False])
@pytest.mark.parametrize("kind", ["run", "fixed steps"])
def test_emitted_runs_are_specialised_from_their_first_call(code_cache, particle, kind, fused):
    # CPython specialises a function from its 8th entry, and a for loop's
    # steps count as entries, a while loop's do not; both runs step in a for
    # loop, so a run entered once per trajectory specialises in its first
    # call, while loading one neither calls it nor the field
    rhs, calls = full_field(particle.system, 0.05), []

    def called(t, y):
        calls.append(t)
        return rhs(t, y)

    field = rhs if fused else called
    code_cache.restart()
    run = integrators._one_point(kind, 4, getattr(field, "program", None))
    assert calls == [] and not specialised_float_ops(run)
    y0 = particle.initial.coords
    if kind == "run":
        traj = integrate(field, y0, 20.0, IntegratorConfig(rtol=1e-10, atol=1e-13))
        assert traj.accepted + traj.rejected >= 50
    else:
        fixed_steps(field, [y0], 0.2, 64)
    assert specialised_float_ops(run)


REPEATS = [0, 0, 1, 1, 1, 2, 3]  # rows of the plain grid that a repeated grid asks for


@pytest.mark.parametrize("t_end", [4.0, -3.0])
def test_repeated_t_eval_entries_repeat_the_state(t_end):
    # a repeat takes its first entry's value: no zero-length step, same counters
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-12)
    plain_eval = np.array([0.0, 0.25, 0.5, 1.0]) * t_end
    t_eval = plain_eval[REPEATS]
    accepted = set()
    for i in range(4):
        one = integrate(anharmonic(LANE_K[i]), LANE_Y0[i], t_end, cfg, t_eval=t_eval)
        plain = integrate(anharmonic(LANE_K[i]), LANE_Y0[i], t_end, cfg, t_eval=plain_eval)
        assert np.array_equal(one.times, t_eval)
        assert np.array_equal(one.states, plain.states[REPEATS])
        for name in COUNTERS:
            assert getattr(one, name) == getattr(plain, name)
        accepted.add(one.accepted)
    # the runs step differently, so they meet the repeats at different steps
    assert len(accepted) == 4


@pytest.mark.parametrize("t_end", [4.0, -3.0])
def test_counters_do_not_depend_on_t_eval(t_end):
    # steps are clipped to t_end only; samples come from the continuous extension
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-12)
    grids = [np.linspace(0.0, t_end, 7), np.linspace(0.0, t_end, 200),
             np.array([0.0, 0.1, 0.1, 0.7, 0.7, 0.7, 1.0]) * t_end, [0.0, 0.5 * t_end]]
    for i in range(4):
        steps = integrate(anharmonic(LANE_K[i]), LANE_Y0[i], t_end, cfg)
        ends = np.abs(steps.times)  # of the accepted steps, from 0
        for grid in grids:
            one = integrate(anharmonic(LANE_K[i]), LANE_Y0[i], t_end, cfg, t_eval=grid)
            for name in COUNTERS[1:]:
                assert getattr(one, name) == getattr(steps, name)
            # the continuous extension takes three more stages on each
            # accepted step that holds a sample strictly inside it
            targets = np.abs(np.asarray(grid))
            holding = sum(bool(np.any((a < targets) & (targets < b)))
                          for a, b in zip(ends[:-1], ends[1:]))
            attempts = steps.accepted + steps.rejected
            assert steps.rhs_calls == 1 + 12 * attempts
            assert one.rhs_calls == 1 + 12 * attempts + 3 * holding


@pytest.mark.parametrize("t_end", [4.0, -3.0])
def test_sample_at_t_end_is_the_final_state(t_end):
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-12)
    t_eval = np.array([0.0, 0.3, 1.0, 1.0]) * t_end
    for i in range(4):
        one = integrate(anharmonic(LANE_K[i]), LANE_Y0[i], t_end, cfg, t_eval=t_eval)
        steps = integrate(anharmonic(LANE_K[i]), LANE_Y0[i], t_end, cfg)
        assert steps.times[-1] == t_end
        assert np.array_equal(one.states[-2:], [steps.states[-1], steps.states[-1]])


def test_repeated_t_eval_entry_one_lane_harmonic():
    traj = integrate(harmonic, [1.0, 0.0], 1.0, t_eval=[0.0, 0.5, 0.5, 1.0])
    assert np.array_equal(traj.states[1], traj.states[2])
    assert np.allclose(traj.states[3], [np.cos(1.0), np.sin(1.0)], atol=1e-8)


def test_one_lane_counters_count_field_calls():
    calls = []

    def counted(t, y):
        calls.append(t)
        return anharmonic(9.0)(t, y)

    cfg = IntegratorConfig(rtol=1e-8, atol=1e-12)
    traj = integrate(counted, LANE_Y0[2], 4.0, cfg)
    assert all(isinstance(t, float) for t in calls)
    assert traj.rhs_calls == len(calls)
    assert traj.rejected > 0
    # the initial-step probe, which is also the first attempt's first stage,
    # then twelve stages per attempt: a rejected attempt keeps its first stage
    assert traj.rhs_calls == 1 + 12 * (traj.accepted + traj.rejected)
    assert len(traj.times) == traj.accepted + 1
    steps = np.abs(np.diff(traj.times))  # step sizes up to the rounding of t + h
    assert traj.h_min == pytest.approx(steps.min(), rel=1e-12)
    assert traj.h_max == pytest.approx(steps.max(), rel=1e-12)


@pytest.mark.parametrize("t_end, t_eval", [(1.0, [0.0, 2.0]), (-1.0, [0.0, -2.0]),
                                           (1.0, [-0.5, 0.5]), (-1.0, [0.0, np.nan])])
def test_t_eval_outside_span_rejected_up_front(t_end, t_eval):
    calls = []

    def counted(t, y):
        calls.append(t)
        return harmonic(t, y)

    with pytest.raises(ValueError, match="t_eval"):
        integrate(counted, [1.0, 0.0], t_end, t_eval=t_eval)
    assert calls == []


def test_integrate_takes_one_point():
    with pytest.raises(ValueError, match="one state"):
        integrate(anharmonic(LANE_K), LANE_Y0, 1.0, t_eval=[0.0, 1.0])


@pytest.mark.parametrize("y0", [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 2.0]]])
def test_fixed_steps_take_zero_steps_and_reject_a_negative_count(y0):
    # zero steps give the start row alone, on one lane and on two; a
    # negative count is an input error
    assert np.array_equal(fixed_steps(harmonic, y0, 0.1, 0), [y0])
    with pytest.raises(ValueError, match="steps"):
        fixed_steps(harmonic, y0, 0.1, -1)


def blowup(t, y):
    """y' = y², which blows up at t = 1/y0."""
    return [y[0] * y[0]]


def failure_time(message):
    """The time an error message of a fixed-step run names."""
    return float(message.split("t=")[1].split()[0])


def test_lane_failure_reports_that_lanes_time():
    # lane 1 blows up at t = 1/y0 = 0.5; lane 0 at t = 2, after the run ends
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="lane 1") as err:
        fixed_steps(blowup, [[0.5], [2.0]], 1.0 / 64, 64)
    assert failure_time(str(err.value)) == pytest.approx(0.5, abs=0.05)


def blowup_beside_spin(t, y):
    """A coordinate that blows up at t = 1/y0, beside a fast oscillator."""
    return [y[0] * y[0], 1000.0 * y[2], -1000.0 * y[1]]


def test_first_failing_lane_raises_and_max_steps_before_underflow():
    # the adaptive run: the blowup underflows near t = 0.5 after n attempts,
    # and with max_steps = n it is over the budget at that check, which is
    # reported first
    calls = []

    def counted(t, y):
        calls.append(t)
        return blowup_beside_spin(t, y)

    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, max_steps=10**7)
    with pytest.raises(StepSizeUnderflow) as alone:
        integrate(counted, [2.0, 0.0, 0.0], 1.0, cfg)
    n = (len(calls) - 1) // 12
    blowup_time = alone.value.last_time
    with pytest.raises(MaxStepsExceeded) as over:
        integrate(blowup_beside_spin, [2.0, 0.0, 0.0], 1.0,
                  IntegratorConfig(rtol=1e-10, atol=1e-12, max_steps=n))
    assert (str(over.value), over.value.last_time) == (
        f"exceeded {n} step attempts at t={blowup_time!r}", blowup_time)
    # fixed steps: of two failing lanes the lower one raises, with its own
    # time, although the other fails first
    with np.errstate(all="ignore"), pytest.raises(NumericalError) as err:
        fixed_steps(blowup, [[2.0], [4.0]], 1.0 / 64, 64)
    assert str(err.value).endswith("in lane 0")
    assert failure_time(str(err.value)) == pytest.approx(0.5, abs=0.05)


def test_nan_field_raises_numerical_error():
    # a nan derivative gives a nan initial step and nan error norms, which
    # once were rejected until max_steps ran out (MaxStepsExceeded); on fixed
    # steps it gives nan states, in the lane they belong to
    nan = float("nan")
    cfg = IntegratorConfig(max_steps=1000)
    with pytest.raises(NumericalError, match="nan at t=0.0"):
        integrate(lambda t, y: [nan, -y[0]], [1.0, 0.0], 1.0, cfg)
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="lane 1"):
        fixed_steps(lambda t, y: [np.log(y[0]), -y[1]], np.array([[1.0, 1.0], [-1.0, 1.0]]),
                    0.125, 8)


def test_float_kernel_turns_division_by_zero_into_numerical_error():
    # Python floats raise where numpy arrays give inf: at the first call, and
    # in a step attempt
    with pytest.raises(NumericalError, match="t=0.0"):
        integrate(lambda t, y: [1.0 / y[0]], [0.0], 1.0)
    with pytest.raises(NumericalError, match="division by zero"):
        integrate(lambda t, y: [1.0 / (0.0 if t > 0.3 else 1.0)], [0.0], 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(atol=-1e-12)
    with pytest.raises(ValueError):
        IntegratorConfig(max_steps=0)
