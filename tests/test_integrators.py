"""Fixed and adaptive integration: accuracy, error control, failure modes."""

import numpy as np
import pytest

from adiakit import (IntegratorConfig, MaxStepsExceeded, StepSizeUnderflow,
                     convergence_order, elastic_pendulum, integrate, step_rk4)
from adiakit.experiments import full_field


def linear(t, y):
    return y


def harmonic(t, y):
    return np.array([-y[1], y[0]])


def test_rk4_single_step_accuracy():
    out = step_rk4(linear, 0.0, np.array([1.0]), 0.1)
    assert abs(out[0] - np.exp(0.1)) < 1e-7  # O(dt^5) remainder ~ 8.5e-8


def test_rk4_zero_field_identity():
    y = np.array([2.0, -3.0])
    assert step_rk4(lambda t, y: 0.0 * y, 0.0, y, 0.3) == pytest.approx(y)


def test_rk4_time_reversal():
    y = np.array([1.0, 0.5])
    fwd = step_rk4(harmonic, 0.0, y, 0.05)
    back = step_rk4(harmonic, 0.05, fwd, -0.05)
    assert np.linalg.norm(back - y) < 1e-9


def test_adaptive_harmonic_period_return():
    cfg = IntegratorConfig(method="rk45", rtol=1e-11, atol=1e-14)
    traj = integrate(harmonic, [1.0, 0.0], 2.0 * np.pi, cfg)
    assert np.linalg.norm(traj.final - [1.0, 0.0]) < 1e-9


def test_decoupled_pendulum_action_conserved():
    fx = elastic_pendulum(omega=1.0, gamma=0.0)
    system = fx.system
    cfg = IntegratorConfig(method="rk45", rtol=1e-11, atol=1e-13)
    rhs = full_field(system, 0.0)
    m0 = np.array([0.5, 0.2, 0.1, 1.0])
    traj = integrate(rhs, m0, 30.0, cfg, t_eval=np.linspace(0, 30.0, 40))
    j_vals = [float(system.J([s[0], s[1]], [s[2], s[3]])) for s in traj.states]
    assert max(abs(j - j_vals[0]) for j in j_vals) < 1e-9


def test_energy_conserved_long_horizon():
    fx = elastic_pendulum(omega=1.0, gamma=0.5)
    system = fx.system
    cfg = IntegratorConfig(method="rk45", rtol=1e-10, atol=1e-13)
    rhs = full_field(system, 0.2)
    m0 = np.array([0.5, 0.0, 0.1, 1.0])
    traj = integrate(rhs, m0, 100.0, cfg, t_eval=np.linspace(0, 100.0, 101))
    h_vals = [float(system.H([s[0], s[1]], [s[2], s[3]])) for s in traj.states]
    drift = max(abs(h - h_vals[0]) for h in h_vals)
    assert drift < 1e-8
    # the generic budget: |H(t) - H(0)| <= 10 * rtol * |H0| * t
    assert drift <= 10.0 * 1e-10 * abs(h_vals[0]) * 100.0


def test_requested_sample_times_are_exact():
    cfg = IntegratorConfig(method="rk45", rtol=1e-9, atol=1e-12)
    t_eval = np.linspace(0.0, 7.3, 29)
    traj = integrate(harmonic, [1.0, 0.0], 7.3, cfg, t_eval=t_eval)
    assert traj.times == pytest.approx(t_eval)
    exact = np.stack([np.cos(t_eval), np.sin(t_eval)], axis=1)
    assert np.max(np.abs(traj.states - exact)) < 1e-7


def test_adaptive_and_fixed_agree_at_samples():
    t_eval = np.linspace(0.0, 5.0, 11)
    rtol, atol = 1e-9, 1e-12
    adaptive = integrate(harmonic, [1.0, 0.0], 5.0,
                         IntegratorConfig(method="rk45", rtol=rtol, atol=atol),
                         t_eval=t_eval)
    fixed = integrate(harmonic, [1.0, 0.0], 5.0,
                      IntegratorConfig(method="rk4", dt=1e-3), t_eval=t_eval)
    assert np.max(np.abs(adaptive.states - fixed.states)) < max(rtol, atol) * 1e2


def test_negative_time_direction():
    cfg = IntegratorConfig(method="rk45", rtol=1e-11, atol=1e-14)
    traj = integrate(harmonic, [1.0, 0.0], -np.pi, cfg)
    assert traj.final == pytest.approx([-1.0, 0.0], abs=1e-9)


def test_convergence_order_rk4():
    order = convergence_order(harmonic, [1.0, 0.0], 2.0, [0.2, 0.1, 0.05, 0.025])
    assert order == pytest.approx(4.0, abs=0.2)


def test_convergence_order_euler_baseline():
    def euler(field, t, y, dt):
        return y + dt * field(t, y)

    order = convergence_order(harmonic, [1.0, 0.0], 2.0, [0.02, 0.01, 0.005],
                              stepper=euler)
    assert order == pytest.approx(1.0, abs=0.2)


def test_convergence_order_degenerate_field():
    order = convergence_order(lambda t, y: 0.0 * y, [1.0], 1.0, [0.1, 0.05])
    assert np.isnan(order)


def test_max_steps_exceeded_reports_last_time():
    cfg = IntegratorConfig(method="rk45", rtol=1e-12, atol=1e-14, max_steps=25)
    with pytest.raises(MaxStepsExceeded) as err:
        integrate(harmonic, [1.0, 0.0], 1000.0, cfg)
    assert 0.0 <= err.value.last_time < 1000.0


def test_step_size_underflow_near_blowup():
    cfg = IntegratorConfig(method="rk45", rtol=1e-10, atol=1e-12, max_steps=10_000_000)
    with pytest.raises((StepSizeUnderflow, MaxStepsExceeded)) as err:
        integrate(lambda t, y: y * y, np.array([1.0]), 2.0, cfg)
    # solution blows up at t = 1
    assert err.value.last_time == pytest.approx(1.0, abs=0.05)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(dt=-0.1)
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=0.0)
