"""Hypothesis checks, the action construction, and the F1/F2 pipeline."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from adiakit import (CircleAction, HypothesisViolation, PhasePoint,
                     PrecisionWarning, SlowFastSystem, UnsupportedOrder,
                     assemble, charged_particle, check_adiabatic,
                     check_hypotheses, check_momentum_map, check_period_energy,
                     elastic_pendulum, f1, f2, grad_fast, k1, lie_derivative,
                     momentum_from_action, theta, ty2_residual, ty3_residual)
from adiakit import kernel as sk
from adiakit.phase import DiffEngine
from adiakit.sl2 import f2_closed

from conftest import nondegenerate_system, sample_points


# -- structural checks -----------------------------------------------------------

@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_momentum_map_residuals(request, fixture_name, rng):
    fixture = request.getfixturevalue(fixture_name)
    action = CircleAction(fixture.system)
    for m in sample_points(fixture, rng, 20):
        assert check_momentum_map(fixture.system, action, m) <= 1e-8


def test_momentum_map_detects_corruption(pendulum, pendulum_action, rng):
    system = pendulum.system
    doubled = replace(system, J=lambda f, s: 2.0 * system.J(f, s))
    m = sample_points(pendulum, rng, 1)[0]
    residual = check_momentum_map(doubled, pendulum_action, m)
    expected = float(np.linalg.norm(grad_fast(system, system.J, m)))
    assert residual == pytest.approx(expected, rel=1e-10)
    assert residual > 1e-8


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_adiabatic_residuals(request, fixture_name, rng):
    fixture = request.getfixturevalue(fixture_name)
    action = CircleAction(fixture.system)
    for m in sample_points(fixture, rng, 20):
        assert check_adiabatic(fixture.system, action, m) <= 1e-9


def test_adiabatic_gauge_shift_breaks_by_its_gradient(pendulum, pendulum_action, rng):
    # J -> J + p adds the constant slow 1-form dp, which survives averaging
    system = pendulum.system
    shifted = replace(system, J=lambda f, s: system.J(f, s) + s[0])
    m = sample_points(pendulum, rng, 1)[0]
    assert check_adiabatic(shifted, pendulum_action, m) == pytest.approx(1.0, abs=1e-12)


def test_gauge_covariance_general_shift(pendulum, pendulum_action, rng):
    # adding c(slow) with constant d1c breaks the residual by exactly |d1c|
    system = pendulum.system
    shifted = replace(system, J=lambda f, s: system.J(f, s) + 0.3 * s[0] - 0.4 * s[1])
    m = sample_points(pendulum, rng, 1)[0]
    assert check_adiabatic(shifted, pendulum_action, m) == pytest.approx(0.5, abs=1e-12)


def test_period_energy_fixtures_and_adversary(pendulum, rng):
    system = pendulum.system
    for m in sample_points(pendulum, rng, 5):
        assert check_period_energy(system, m) <= 1e-12
    # frequency with genuine fast dependence not parallel to d0 H
    broken = replace(system, omega=lambda f, s: 1.0 + f[1] ** 2)
    m = PhasePoint([0.5, 0.3], [0.2, 0.7])
    assert check_period_energy(broken, m) > 1e-3


def test_hypothesis_report_aggregation(pendulum, pendulum_action):
    report = check_hypotheses(pendulum.system, pendulum_action, pendulum.initial)
    assert report.ok and report.failing == []
    as_dict = report.as_dict()
    assert set(as_dict["residuals"]) == {"periodicity", "momentum_map",
                                         "adiabatic", "period_energy"}
    broken = replace(pendulum.system, J=lambda f, s: 0.0)
    bad = check_hypotheses(broken, pendulum_action, pendulum.initial)
    assert not bad.ok and "momentum_map" in bad.failing


# -- exact-case action ------------------------------------------------------------

def test_action_from_primitive_harmonic_oscillator():
    # H_fast = (y^2 + w0^2 x^2)/2 gives the textbook action H_fast / w0
    w0 = 1.7

    def H(fast, slow):
        y, x = fast
        return 0.5 * (y * y + w0 * w0 * x * x)

    def flow(t, fast, slow):
        y, x = fast
        c, s = sk.cos(t), sk.sin(t)
        return [y * c - w0 * x * s, x * c + (y / w0) * s]

    system = SlowFastSystem(r=1, k=1, H=H, omega=lambda f, s: w0, J=None, fast_flow=flow)
    action = CircleAction(system)
    m = PhasePoint([0.6, -0.4], [0.0, 0.0])
    expected = float(H(*m.state())) / w0
    assert momentum_from_action(system, action, m) == pytest.approx(expected, abs=1e-12)
    center = PhasePoint([0.0, 0.0], [0.0, 0.0])
    assert momentum_from_action(system, action, center) == pytest.approx(0.0, abs=1e-14)


def test_action_from_primitive_matches_pendulum_gradients(pendulum, pendulum_action, rng):
    # gauge-invariant comparison: fast gradients of the reconstructed action
    system = pendulum.system

    def recon(fast, slow):
        raise NotImplementedError  # placeholder; FD below uses point evaluations

    h = 1e-6
    for m in sample_points(pendulum, rng, 5):
        grads = []
        for i in range(2):
            hi = m.fast.copy()
            lo = m.fast.copy()
            hi[i] += h
            lo[i] -= h
            grads.append((momentum_from_action(system, pendulum_action, m.replace(fast=hi))
                          - momentum_from_action(system, pendulum_action, m.replace(fast=lo)))
                         / (2 * h))
        expected = grad_fast(system, system.J, m)
        assert np.allclose(grads, expected, atol=1e-6)


def test_action_from_primitive_fd_engine_agrees(pendulum, pendulum_action):
    m = PhasePoint([0.5, 0.1], [0.2, 0.8])
    dual_val = momentum_from_action(pendulum.system, pendulum_action, m)
    fd_val = momentum_from_action(pendulum.system, pendulum_action, m,
                                  engine=DiffEngine(mode="fd"))
    assert fd_val == pytest.approx(dual_val, abs=1e-8)


# -- corrections -------------------------------------------------------------------

def test_theta_and_k1_trivial_zeros():
    # no slow dependence in J: Theta = 0 and K1 = 0
    fx = elastic_pendulum(omega=1.0, gamma=0.0)
    action = CircleAction(fx.system)
    m = PhasePoint([0.4, 0.3], [0.1, 0.9])
    assert theta(fx.system, action, m) == pytest.approx([0.0, 0.0], abs=1e-14)
    assert k1(fx.system, action, m) == pytest.approx(0.0, abs=1e-14)


def test_k1_vanishes_without_slow_hamiltonian_dependence():
    def H(fast, slow):
        y, x = fast
        return 0.5 * (y * y + x * x)

    def flow(t, fast, slow):
        y, x = fast
        c, s = sk.cos(t), sk.sin(t)
        return [y * c - x * s, x * c + y * s]

    # J carries slow dependence, H does not: Theta != 0 but K1 = 0
    system = SlowFastSystem(r=1, k=1, H=H, omega=lambda f, s: 1.0,
                            J=lambda f, s: 0.5 * (f[0] ** 2 + f[1] ** 2) + f[1] ** 2 * s[1],
                            fast_flow=flow)
    action = CircleAction(system)
    m = PhasePoint([0.7, 0.4], [0.3, 0.2])
    assert np.linalg.norm(theta(system, action, m)) > 1e-3
    assert k1(system, action, m) == pytest.approx(0.0, abs=1e-14)


def test_f1_pendulum_printed_value():
    fx = elastic_pendulum(omega=1.0, gamma=1.0)
    action = CircleAction(fx.system)
    m = PhasePoint([1.0, 0.0], [1.0, 1.0])  # (p,q,y,x) = (1,1,1,0)
    assert f1(fx.system, action, m) == pytest.approx(1.0, abs=1e-6)


def test_f1_matches_printed_closed_forms(pendulum, particle, rng):
    for fixture in (pendulum, particle):
        action = CircleAction(fixture.system)
        for m in sample_points(fixture, rng, 10):
            expected = float(sk.value(fixture.closed_f1(*m.state())))
            assert f1(fixture.system, action, m) == pytest.approx(expected, abs=1e-6)


def test_f1_charged_particle_spec_point():
    fx = charged_particle(b=1.0, lam=0.3)
    action = CircleAction(fx.system)
    # (p2,q2,p3,q3) = (0.2, 1.0, 0.1, 0.4)
    m = PhasePoint([0.1, 0.4], [0.2, 1.0])
    expected = float(fx.closed_f1(*m.state()))
    assert f1(fx.system, action, m) == pytest.approx(expected, abs=1e-6)
    # overall q3 factor: J1 = 0 on the q3 = 0 slice
    m0 = PhasePoint([0.5, 0.0], [0.2, 1.0])
    assert f1(fx.system, action, m0) == pytest.approx(0.0, abs=1e-9)


def test_f2_pendulum_adjudication_point():
    fx = elastic_pendulum(omega=1.0, gamma=1.0)
    action = CircleAction(fx.system)
    m = PhasePoint([1.0, 0.0], [1.0, 1.0])
    closed = float(sk.value(fx.closed_f2(*m.state())))
    assert closed == pytest.approx(-0.875, abs=1e-15)
    assert f2(fx.system, action, m) == pytest.approx(closed, abs=1e-13)


def test_f2_terms_batch_matches_closed_forms(pendulum, rng):
    # exact slow derivatives: only rounding separates F2 from the closed forms
    # (measured 2.3e-13 on |F2| up to 1e3 for the pendulum, 2e-16 for sl(2))
    action = CircleAction(pendulum.system)
    pts = sample_points(pendulum, rng, 16)
    _, _, f2_vals = assemble(pendulum.system, action, 2).terms_batch(
        np.stack([m.coords for m in pts]))
    closed = [float(sk.value(pendulum.closed_f2(*m.state()))) for m in pts]
    assert f2_vals == pytest.approx(closed, rel=1e-13, abs=1e-13)
    for constant_omega in (True, False):
        qs = nondegenerate_system(constant_omega)
        system = qs.system()
        coords = rng.uniform(-1.0, 1.0, size=(6, 4))
        _, _, f2_vals = assemble(system, CircleAction(system), 2).terms_batch(coords)
        closed = [f2_closed(qs, PhasePoint(c[:2], c[2:])) for c in coords]
        assert f2_vals == pytest.approx(closed, rel=0.0, abs=1e-13)


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_numeric_flow_f2_matches_analytic(request, fixture_name):
    # central differences of numerically integrated orbits against the dual
    # lift of the analytic flow, at the same 8 nodes (measured <= 8.2e-13)
    fixture = request.getfixturevalue(fixture_name)
    system, m = fixture.system, fixture.initial
    numeric = f2(system, CircleAction(system, flow_mode="numeric", nodes=8), m)
    assert numeric == pytest.approx(f2(system, CircleAction(system, nodes=8), m),
                                    rel=0.0, abs=1e-9)


def test_analytic_f2_samples_one_orbit_per_batch(pendulum, rng, monkeypatch):
    action = CircleAction(pendulum.system)
    calls = []
    orbit = action.orbit
    monkeypatch.setattr(action, "orbit", lambda *a, **kw: calls.append(1) or orbit(*a, **kw))
    coords = np.stack([m.coords for m in sample_points(pendulum, rng, 8)])
    counts = []
    for order in (1, 2):
        calls.clear()
        assemble(pendulum.system, action, order).terms_batch(coords)
        counts.append(len(calls))
    assert counts == [1, 2]  # F1's orbit, then the one lifted orbit of F2


def test_f2_trivial_zeros():
    # no slow dependence in H at all: F2 vanishes
    def H(fast, slow):
        y, x = fast
        return 0.5 * (y * y + x * x)

    def flow(t, fast, slow):
        y, x = fast
        c, s = sk.cos(t), sk.sin(t)
        return [y * c - x * s, x * c + y * s]

    system = SlowFastSystem(r=1, k=1, H=H, omega=lambda f, s: 1.0,
                            J=lambda f, s: 0.5 * (f[0] ** 2 + f[1] ** 2), fast_flow=flow)
    action = CircleAction(system)
    m = PhasePoint([0.4, 0.6], [0.2, 0.5])
    assert f2(system, action, m) == pytest.approx(0.0, abs=1e-12)
    # decoupled pendulum likewise
    fx = elastic_pendulum(omega=1.0, gamma=0.0)
    act = CircleAction(fx.system)
    assert f2(fx.system, act, m) == pytest.approx(0.0, abs=1e-10)


def test_homological_residuals(pendulum, particle, rng):
    for fixture in (pendulum, particle):
        action = CircleAction(fixture.system)
        for m in sample_points(fixture, rng, 8):
            assert ty2_residual(fixture.system, action, m) <= 1e-5
        m = sample_points(fixture, rng, 1)[0]
        assert ty3_residual(fixture.system, action, m) <= 1e-4
    # omega varying with the slow variables, where F2 needs the <K1>/omega part
    system = nondegenerate_system(constant_omega=False).system()
    action = CircleAction(system)
    for coords in rng.uniform(-0.8, 0.8, size=(2, 4)):
        assert ty3_residual(system, action, PhasePoint(coords[:2], coords[2:])) <= 1e-4


def _flat_bracket_system():
    # J = 1/2 (y^2 + x^2) + x^2 q and H = 1/2 (y^2 + x^2) + 1/2 p^2 give an
    # F1 that depends on (y, x, p) only, so {H, F1}_1 = p dF1/dq is exactly 0
    def H(fast, slow):
        y, x = fast
        p, q = slow
        return 0.5 * (y * y + x * x) + 0.5 * p * p

    def flow(t, fast, slow):
        y, x = fast
        c, s = sk.cos(t), sk.sin(t)
        return [y * c - x * s, x * c + y * s]

    return SlowFastSystem(r=1, k=1, H=H, omega=lambda f, s: 1.0,
                          J=lambda f, s: 0.5 * (f[0] ** 2 + f[1] ** 2) + f[1] ** 2 * s[1],
                          fast_flow=flow)


FLAT_POINT = PhasePoint([0.7, 0.2], [0.9, 0.4])


def test_fd_noise_warning_on_flat_bracket():
    # with a numeric flow the q-shifted orbits are bitwise those of the base
    # point, so the bracket comes out exactly 0; the differenced values of F1
    # (up to 0.10 on the 8-node orbits) carry estimated noise
    # eps * 0.10 / fd_step = 3.7e-12, from which a zero bracket cannot be told
    # apart, so F2 = 0 must not be reported silently
    system = _flat_bracket_system()
    action = CircleAction(system, flow_mode="numeric", nodes=8)
    with pytest.warns(PrecisionWarning):
        f2(system, action, FLAT_POINT)


def test_flat_bracket_exact_on_analytic_path():
    # exact slow derivatives carry no finite-difference noise: F2 = 0, silently
    system = _flat_bracket_system()
    with warnings.catch_warnings():
        warnings.simplefilter("error", PrecisionWarning)
        assert abs(f2(system, CircleAction(system), FLAT_POINT)) <= 1e-14


# The ids are the names of the two F2 readings this test once covered; each now
# names a public route into the one F2 and its noise rule: "ai3" evaluates f2
# itself, "ty3" the second-order homological residual, which differentiates F2
# along the flow. Both are exactly 0 on the decoupled pendulum, with the
# analytic flow and with the numeric one (finite-difference sensitivities).
@pytest.mark.parametrize("evaluate", [
    pytest.param(f2, id="ai3"),
    pytest.param(ty3_residual, id="ty3"),
])
def test_fd_noise_silent_on_decoupled_and_adjudication_point(evaluate):
    m = PhasePoint([1.0, 0.0], [1.0, 1.0])
    modes = [{}, {"flow_mode": "numeric", "nodes": 8, "rtol": 1e-8, "atol": 1e-10}]
    with warnings.catch_warnings():
        warnings.simplefilter("error", PrecisionWarning)
        for mode in modes:
            # decoupled pendulum: F1 is identically zero, so the noise estimate is 0
            fx = elastic_pendulum(omega=1.0, gamma=0.0)
            action = CircleAction(fx.system, **mode)
            for point in (fx.initial, m):
                assert evaluate(fx.system, action, point) == 0.0
            # coupled pendulum at the adjudication point: the bracket dominates
            fx = elastic_pendulum(omega=1.0, gamma=1.0)
            evaluate(fx.system, CircleAction(fx.system, **mode), m)


# -- series assembly ------------------------------------------------------------

def test_assemble_orders(pendulum):
    fx = elastic_pendulum(omega=1.0, gamma=1.0)
    action = CircleAction(fx.system)
    m = PhasePoint([1.0, 0.0], [1.0, 1.0])
    j_val = float(fx.system.J(*m.state()))

    series0 = assemble(fx.system, action, 0)
    assert series0.evaluate(m, 0.1) == pytest.approx(j_val)

    series1 = assemble(fx.system, action, 1)
    assert series1.evaluate(m, 0.1) == pytest.approx(j_val + 0.1 * 1.0, abs=1e-7)

    series2 = assemble(fx.system, action, 2)
    expected = j_val + 0.1 * 1.0 + 0.5 * 0.01 * (-0.875)
    assert series2.evaluate(m, 0.1) == pytest.approx(expected, abs=1e-6)

    with pytest.raises(UnsupportedOrder):
        assemble(fx.system, action, 3)


def test_series_batch_matches_pointwise(pendulum, rng):
    action = CircleAction(pendulum.system)
    series = assemble(pendulum.system, action, 2)
    pts = sample_points(pendulum, rng, 4)
    coords = np.stack([m.coords for m in pts])
    batch = series.evaluate_batch(coords, 0.05)
    single = [float(pendulum.system.J(*m.state()))
              + 0.05 * f1(pendulum.system, action, m)
              + 0.5 * 0.05 ** 2 * f2(pendulum.system, action, m) for m in pts]
    assert np.allclose(batch, single, rtol=0.0, atol=1e-12)


def test_strict_mode_raises_on_broken_periodicity():
    fx = elastic_pendulum(omega=1.0, gamma=1.0, omega_scale=2.0)
    action = CircleAction(fx.system, flow_mode="numeric", rtol=1e-9, atol=1e-12)
    m = PhasePoint([0.5, 0.2], [0.3, 1.0])
    with pytest.raises(HypothesisViolation):
        f1(fx.system, action, m, strict=True)


# -- Lie derivative and order scaling ----------------------------------------------

def test_lie_derivative_of_energy_vanishes(pendulum, rng):
    system = pendulum.system
    for eps in (0.0, 0.1, 0.7):
        m = sample_points(pendulum, rng, 1)[0]
        assert lie_derivative(system, system.H, m, eps) == pytest.approx(0.0, abs=1e-10)


def test_lie_derivative_of_momentum_map_at_zero_eps(pendulum, rng):
    system = pendulum.system
    m = sample_points(pendulum, rng, 1)[0]
    assert lie_derivative(system, system.J, m, 0.0) == pytest.approx(0.0, abs=1e-9)


def _series_oracle(series, eps):
    return lambda fast, slow: series.evaluate(
        PhasePoint([float(sk.value(c)) for c in fast],
                   [float(sk.value(c)) for c in slow]), eps)


ORDER_EPS_GRID = np.array([0.2, 0.1, 0.05, 0.025])


def test_series_lie_derivative_order_scaling():
    fx = elastic_pendulum(omega=1.0, gamma=1.0)
    action = CircleAction(fx.system)
    system = fx.system
    series = assemble(system, action, 2)
    m = PhasePoint([1.0, 0.0], [1.0, 1.0])
    fd = DiffEngine(mode="fd", fd_step=1e-6)

    values = [abs(lie_derivative(system, _series_oracle(series, eps), m, eps, fd))
              for eps in (0.1, 0.05)]
    exponent = np.log(values[0] / values[1]) / np.log(2.0)
    assert exponent >= 2.7


@pytest.mark.parametrize("order,target", [(0, 1.0), (1, 2.0), (2, 3.0)])
def test_order_contract_fitted_exponent(order, target):
    fx = elastic_pendulum(omega=1.0, gamma=1.0)
    action = CircleAction(fx.system)
    system = fx.system
    series = assemble(system, action, order)
    # a generic point: p != q, so {H, F1}_1 does not vanish here (unlike at
    # (1, 0, 1, 1), see below) and each order shows its own slope
    m = PhasePoint([1.0, 0.0], [1.0, 0.5])
    fd = DiffEngine(mode="fd", fd_step=1e-6)
    mags = [abs(lie_derivative(system, _series_oracle(series, eps), m, eps, fd))
            for eps in ORDER_EPS_GRID]
    slope = np.polyfit(np.log(ORDER_EPS_GRID), np.log(mags), 1)[0]
    assert slope == pytest.approx(target, abs=0.3)


def test_order1_defect_cancels_at_degenerate_point():
    # the leading defect of J + eps F1 is proportional to the slow bracket
    # {H, F1}_1, which at x = 0 equals gamma * y * (p^2 - q^2) / omega^3 and
    # vanishes for p = q: there L(J + eps F1) is zero up to rounding and has
    # no slope to fit
    fx = elastic_pendulum(omega=1.0, gamma=1.0)
    action = CircleAction(fx.system)
    system = fx.system
    series = assemble(system, action, 1)
    m = PhasePoint([1.0, 0.0], [1.0, 1.0])
    fd = DiffEngine(mode="fd", fd_step=1e-6)
    for eps in ORDER_EPS_GRID:
        generic = lie_derivative(system, _series_oracle(series, eps), m, eps, fd)
        assert abs(generic) <= 1e-8

        def closed(fast, slow, eps=eps):
            return system.J(fast, slow) + eps * fx.closed_f1(fast, slow)

        assert abs(lie_derivative(system, closed, m, eps)) <= 1e-14
