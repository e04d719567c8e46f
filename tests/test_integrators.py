"""Adaptive integration: accuracy, error control, failure modes."""

import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from adiakit import (IntegratorConfig, MaxStepsExceeded, NumericalError,
                     StepSizeUnderflow, charged_particle, elastic_pendulum, integrate,
                     integrators)
from adiakit.cli import main
from adiakit.config import RunConfig
from adiakit.experiments import full_field, order_sweep
from adiakit.integrators import _A, _C, _E3, _E5, _weighted


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
    with mock.patch.object(integrators, "_initial_steps", lambda *args: [h]):
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
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-12)
    t_eval = np.linspace(0.0, t_end, 7)
    lanes = integrate(anharmonic(LANE_K), LANE_Y0, t_end, cfg, t_eval=t_eval)
    assert lanes.states.shape == (7, 4, 2)
    # each lane takes its own steps, so the controllers really differ: the
    # lanes end after different numbers of attempts, with different largest steps
    assert len(set((lanes.accepted + lanes.rejected).tolist())) == 4
    assert len(set(lanes.h_max.tolist())) == 4
    for i in range(4):
        one = integrate(anharmonic(LANE_K[i]), LANE_Y0[i], t_end, cfg, t_eval=t_eval)
        stacked = integrate(anharmonic(LANE_K[i:i + 1]), LANE_Y0[i:i + 1], t_end, cfg,
                            t_eval=t_eval)
        assert np.array_equal(lanes.times, one.times)
        assert np.array_equal(lanes.states[:, i], one.states)
        assert np.array_equal(stacked.states[:, 0], one.states)
        for name in COUNTERS:
            assert getattr(lanes, name)[i] == getattr(one, name)
            assert getattr(stacked, name)[0] == getattr(one, name)


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_float_and_lane_kernels_agree_on_the_full_field(request, fixture_name):
    # the one-point run (Python floats, emitted code) against lane 0 of a
    # two-lane run (stacked numpy arrays) of the production field
    fixture = request.getfixturevalue(fixture_name)
    rhs = full_field(fixture.system, 0.2)
    m0 = fixture.initial.coords
    cfg = IntegratorConfig(rtol=1e-9, atol=1e-12)
    t_eval = np.linspace(0.0, 5.0, 11)
    one = integrate(rhs, m0, 5.0, cfg, t_eval=t_eval)
    two = integrate(rhs, np.stack([m0, m0 + 0.05]), 5.0, cfg, t_eval=t_eval)
    assert np.array_equal(two.states[:, 0], one.states)
    for name in COUNTERS:
        assert getattr(two, name)[0] == getattr(one, name)
    assert one.accepted > 10


def oscillator_chain(t, y):
    """Uncoupled oscillators of frequencies 1..dim/2 (coordinate columns)."""
    out = []
    for j in range(0, len(y), 2):
        w = float(j // 2 + 1)
        out += [-w * y[j + 1], w * y[j]]
    return out


@pytest.mark.parametrize("dim", [2, 10, 20])
def test_lanes_equal_one_point_runs_beyond_eight_coordinates(dim):
    # both kernels sum the error norm over the coordinates left to right
    rng = np.random.default_rng(dim)
    y0 = rng.standard_normal((3, dim)) * 10.0 ** rng.integers(-3, 3, (3, dim))
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-12)
    t_eval = np.linspace(0.0, 2.0, 5)
    lanes = integrate(oscillator_chain, y0, 2.0, cfg, t_eval=t_eval)
    for i in range(3):
        one = integrate(oscillator_chain, y0[i], 2.0, cfg, t_eval=t_eval)
        assert np.array_equal(lanes.states[:, i], one.states)
        for name in COUNTERS:
            assert getattr(lanes, name)[i] == getattr(one, name)


def ring(t, y):
    """Each coordinate driven by its left neighbour, at any dim (columns)."""
    return [y[i - 1] - 0.5 * y[i] for i in range(len(y))]


def both_forms(monkeypatch, *args, **kwargs):
    """The one-point run of ``integrate(*args, **kwargs)`` over coordinate
    lists, then unrolled."""
    runs = []
    for unroll_after in (math.inf, 0):
        monkeypatch.setattr(integrators, "UNROLL_AFTER", unroll_after)
        runs.append(integrate(*args, **kwargs))
    return runs


@pytest.mark.parametrize("n", list(range(1, 20)) + [127, 128, 129, 300])
def test_emitted_sums_take_numpys_reduction_order(n, monkeypatch):
    # both forms of the one-point run and the lanes sum left to right,
    # elementwise: numpy's order when it reduces stacked arrays along their
    # outer axis, at any number of terms
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 50)) * 10.0 ** rng.integers(-8, 8, (n, 50))
    assert np.array_equal(_weighted([1.0] * n, list(x)), np.add.reduce(x, axis=0))
    # a run over n coordinates: each form's states and counters equal the
    # lane run's, lane by lane
    y0 = rng.standard_normal((50, n)) * 10.0 ** rng.integers(-8, 8, (50, n))
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-12)
    t_eval = [0.0, 0.004, 0.01]
    lanes = integrate(ring, y0, 0.01, cfg, t_eval=t_eval)
    for i in range(50):
        for one in both_forms(monkeypatch, ring, y0[i], 0.01, cfg, t_eval=t_eval):
            assert np.array_equal(one.states, lanes.states[:, i])
            for name in COUNTERS:
                assert getattr(one, name) == getattr(lanes, name)[i]


def forced_ring(t, y):
    """Each coordinate turned by its two neighbours, with a weak cubic term and
    a forcing in t, bounded in both time directions (floats or lane columns)."""
    n = len(y)
    return [y[i - 1] - y[(i + 1) % n] - 0.005 * y[i] * y[i] * y[i] + 0.3 * t for i in range(n)]


@pytest.mark.parametrize("t_end", [6.0, -4.0])
@pytest.mark.parametrize("grid", ["none", "inside", "repeated", "to_end"])
@pytest.mark.parametrize("dim", range(1, 13))
def test_both_forms_equal_each_other_and_the_lanes(monkeypatch, dim, grid, t_end):
    rng = np.random.default_rng(dim)
    y0 = rng.uniform(-1.0, 1.0, (2, dim))
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-12)
    t_eval = {"none": None, "inside": np.linspace(0.0, 0.7 * t_end, 6),
              "repeated": np.array([0.0, 0.0, 0.1, 0.1, 0.5, 0.5, 1.0]) * t_end,
              "to_end": np.linspace(0.0, t_end, 9)}[grid]
    for i in range(2):
        lists, unrolled = both_forms(monkeypatch, forced_ring, y0[i], t_end, cfg, t_eval=t_eval)
        assert unrolled.accepted + unrolled.rejected > 5
        # with no grid the states are the accepted steps' ends, where a lane
        # run sampled at those times reads its own step ends
        lanes = integrate(forced_ring, y0, t_end, cfg,
                          t_eval=lists.times if t_eval is None else t_eval)
        assert np.array_equal(lists.times, unrolled.times)
        assert np.array_equal(lists.times, lanes.times)
        assert np.array_equal(lists.states, unrolled.states)
        assert np.array_equal(lists.states, lanes.states[:, i])
        for name in COUNTERS:
            assert getattr(lists, name) == getattr(unrolled, name) == getattr(lanes, name)[i]


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
    "nan_norm": (lambda t, y: [NAN if t > 0.3 else 1.0, -y[0]], [1.0, 0.0], 1.0,
                 IntegratorConfig(), NumericalError, "error norm is nan at t="),
    "at_zero": (lambda t, y: [1.0 / y[0], 1.0], [0.0, 1.0], 1.0, IntegratorConfig(),
                NumericalError, "field failed at t=0.0: float division by zero"),
}


@pytest.mark.parametrize("case", FAILING)
def test_both_forms_fail_alike(monkeypatch, case):
    field, y0, t_end, cfg, error, message = FAILING[case]
    raised = []
    for unroll_after in (math.inf, 0):
        monkeypatch.setattr(integrators, "UNROLL_AFTER", unroll_after)
        with pytest.raises(error, match=message) as err:
            integrate(field, y0, t_end, cfg)
        raised.append((type(err.value), str(err.value), getattr(err.value, "last_time", None)))
    assert raised[0] == raised[1]


def unrolled_compiles(monkeypatch):
    """Record the dimensions of the unrolled forms compiled from now on, in a
    process that has run no attempt yet."""
    dims = []

    def counted(source, filename, mode):
        if filename.startswith("<DOP853 run, dim "):
            dims.append(int(filename[len("<DOP853 run, dim "):-1]))
        return compile(source, filename, mode)

    integrators._one_point_run.cache_clear()
    monkeypatch.setattr(integrators, "_generic_attempts", Counter())
    monkeypatch.setattr(integrators, "compile", counted, raising=False)
    return dims


@pytest.mark.parametrize("command", [["invariant", "--order", "2"], ["check"]])
def test_numeric_flow_commands_compile_no_unrolled_run(tmp_path, monkeypatch, capsys, command):
    # a numeric orbit takes about 30 attempts, far from paying for a compile
    dims = unrolled_compiles(monkeypatch)
    config = tmp_path / "run.ini"
    config.write_text("[fixture]\nname = elastic_pendulum\n\n"
                      "[quadrature]\nnodes = 8\nflow_mode = numeric\n", encoding="utf-8")
    assert main([*command, "--config", str(config), "--workers", "1"]) == 0
    capsys.readouterr()
    assert dims == []
    assert 0 < max(integrators._generic_attempts.values()) < integrators.UNROLL_AFTER


def test_long_horizon_sweep_compiles_one_unrolled_run(monkeypatch):
    # its trajectories take 64, 126, 249 and 496 attempts: the fourth runs
    # unrolled
    dims = unrolled_compiles(monkeypatch)
    order_sweep(RunConfig(fixture="charged_particle", eps_grid=(0.05, 0.025, 0.0125, 0.00625),
                          orders=(0, 1), rtol=1e-10, atol=1e-13))
    assert dims == [4]
    assert integrators._generic_attempts == {4: 64 + 126 + 249}


REPEATS = [0, 0, 1, 1, 1, 2, 3]  # rows of the plain grid that a repeated grid asks for


@pytest.mark.parametrize("t_end", [4.0, -3.0])
def test_repeated_t_eval_entries_repeat_the_state(t_end):
    # a repeat takes its first entry's value: no zero-length step, same counters
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-12)
    plain_eval = np.array([0.0, 0.25, 0.5, 1.0]) * t_end
    t_eval = plain_eval[REPEATS]
    lanes = integrate(anharmonic(LANE_K), LANE_Y0, t_end, cfg, t_eval=t_eval)
    assert np.array_equal(lanes.times, t_eval)
    # the lanes step differently, so they meet the repeats at different steps
    assert len(set(lanes.accepted.tolist())) == 4
    for i in range(4):
        one = integrate(anharmonic(LANE_K[i]), LANE_Y0[i], t_end, cfg, t_eval=t_eval)
        plain = integrate(anharmonic(LANE_K[i]), LANE_Y0[i], t_end, cfg, t_eval=plain_eval)
        assert np.array_equal(lanes.states[:, i], one.states)
        assert np.array_equal(one.states, plain.states[REPEATS])
        for name in COUNTERS:
            assert getattr(lanes, name)[i] == getattr(one, name) == getattr(plain, name)


@pytest.mark.parametrize("t_end", [4.0, -3.0])
def test_counters_do_not_depend_on_t_eval(t_end):
    # steps are clipped to t_end only; samples come from the continuous extension
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-12)
    grids = [np.linspace(0.0, t_end, 7), np.linspace(0.0, t_end, 200),
             np.array([0.0, 0.1, 0.1, 0.7, 0.7, 0.7, 1.0]) * t_end, [0.0, 0.5 * t_end]]
    lane_runs = [integrate(anharmonic(LANE_K), LANE_Y0, t_end, cfg, t_eval=g) for g in grids]
    for i in range(4):
        steps = integrate(anharmonic(LANE_K[i]), LANE_Y0[i], t_end, cfg)
        ends = np.abs(steps.times)  # of the accepted steps, from 0
        for grid, lanes in zip(grids, lane_runs):
            one = integrate(anharmonic(LANE_K[i]), LANE_Y0[i], t_end, cfg, t_eval=grid)
            for name in COUNTERS[1:]:
                assert getattr(one, name) == getattr(lanes, name)[i] == getattr(steps, name)
            # the continuous extension takes three more stages on each
            # accepted step that holds a sample strictly inside it
            targets = np.abs(np.asarray(grid))
            holding = sum(bool(np.any((a < targets) & (targets < b)))
                          for a, b in zip(ends[:-1], ends[1:]))
            attempts = steps.accepted + steps.rejected
            assert steps.rhs_calls == 1 + 12 * attempts
            assert one.rhs_calls == lanes.rhs_calls[i] == 1 + 12 * attempts + 3 * holding


@pytest.mark.parametrize("t_end", [4.0, -3.0])
def test_sample_at_t_end_is_the_final_state(t_end):
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-12)
    t_eval = np.array([0.0, 0.3, 1.0, 1.0]) * t_end
    lanes = integrate(anharmonic(LANE_K), LANE_Y0, t_end, cfg, t_eval=t_eval)
    for i in range(4):
        steps = integrate(anharmonic(LANE_K[i]), LANE_Y0[i], t_end, cfg)
        assert steps.times[-1] == t_end
        assert np.array_equal(lanes.states[-2:, i], [steps.states[-1], steps.states[-1]])


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


def test_lane_run_needs_t_eval_and_rk45():
    with pytest.raises(ValueError, match="t_eval"):
        integrate(anharmonic(LANE_K), LANE_Y0, 1.0)


def test_lane_failure_reports_that_lanes_time():
    # lane 1 blows up at t = 1/y0 = 0.5; lane 0 at t = 2
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, max_steps=10_000_000)
    with pytest.raises((StepSizeUnderflow, MaxStepsExceeded), match="lane 1") as err:
        integrate(lambda t, y: [y[0] * y[0]], np.array([[0.5], [2.0]]), 1.0, cfg,
                  t_eval=[0.0, 1.0])
    assert err.value.last_time == pytest.approx(0.5, abs=0.05)


def test_nan_field_raises_numerical_error():
    # a nan derivative gives a nan initial step and nan error norms, which
    # once were rejected until max_steps ran out (MaxStepsExceeded)
    nan = float("nan")
    cfg = IntegratorConfig(max_steps=1000)
    with pytest.raises(NumericalError, match="nan at t=0.0"):
        integrate(lambda t, y: [nan, -y[0]], [1.0, 0.0], 1.0, cfg)
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="lane 1"):
        integrate(lambda t, y: [np.log(y[0]), -y[1]], np.array([[1.0, 1.0], [-1.0, 1.0]]),
                  1.0, cfg, t_eval=[0.0, 1.0])


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
