"""Circle-action flows and the averaging/integrating operators."""

import functools
import importlib
import operator
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adiakit import (CircleAction, IntegrationError, NumericalError, PhasePoint,
                     SlowFastSystem, UnresolvedQuadrature, UnsupportedDerivative,
                     charged_particle, elastic_pendulum)
from adiakit import circle, cli, invariants
from adiakit.config import RunConfig
from adiakit.experiments import order_sweep
from adiakit.integrators import fixed_steps
from adiakit import kernel as sk
from adiakit.circle import TWO_PI, fourier_mean, resolved_value, s_at_nodes, s_from_samples
from adiakit.invariants import d1j_coeffs
from adiakit.sl2 import QuadraticSystem, Sl2Field, linear_flow

from conftest import fail_every_tail_check, sample_points, theta_and_k1

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def harmonic_action():
    # gamma = 0: plain harmonic fast block at unit frequency
    return CircleAction(elastic_pendulum(omega=1.0, gamma=0.0).system)


def rotation_family():
    return QuadraticSystem(h=lambda w: 0.5 * w[0] ** 2, omega=lambda w: 1.0,
                           field=Sl2Field.constant(0.0, -1.0, 1.0))


# -- flow ---------------------------------------------------------------------

def test_flow_identity_at_zero(pendulum_action):
    m = PhasePoint([0.4, -0.2], [0.3, 0.9])
    assert pendulum_action.flow(0.0, m) == m


def test_flow_quadratic_family_is_linear():
    qs = rotation_family()
    action = CircleAction(qs.system())
    A = (0.0, -1.0, 1.0, 0.0)
    m = PhasePoint([0.7, 0.3], [0.1, 0.2])
    for t in (0.3, 1.7, 4.0):
        moved = action.flow(t, m)
        expected = [sk.value(c) for c in linear_flow(A, t, [0.7, 0.3])]
        assert moved.fast == pytest.approx(expected, abs=1e-14)
        assert moved.slow == pytest.approx(m.slow)


def test_flow_charged_particle_quarter_period():
    system = charged_particle(b=1.0, lam=0.0).system
    m = PhasePoint([1.0, 0.0], [0.0, 1.0])  # (p2,q2,p3,q3) = (0,1,1,0)
    moved = CircleAction(system).flow(np.pi / 2.0, m)
    assert moved.fast == pytest.approx([0.0, 1.0], abs=1e-14)


def test_periodicity_analytic_exact():
    qs = rotation_family()
    action = CircleAction(qs.system())
    assert action.check_periodicity(PhasePoint([1.0, 0.4], [0.2, 0.1])) < 1e-12


def test_periodicity_numeric_pendulum():
    system = elastic_pendulum(omega=1.0, gamma=1.0).system
    action = CircleAction(system, flow_mode="numeric")
    assert action.check_periodicity(PhasePoint([0.5, 0.2], [0.3, 1.0])) <= 1e-9


def test_periodicity_fails_with_corrupted_frequency(monkeypatch):
    # halved generator speed: the 2π flow lands mid-orbit
    monkeypatch.setattr(circle, "ORBIT_RTOL", 1e-10)
    monkeypatch.setattr(circle, "ORBIT_ATOL", 1e-13)
    system = replace(elastic_pendulum(omega=1.0, gamma=1.0).system, omega=lambda f, s: 2.0)
    action = CircleAction(system, flow_mode="numeric")
    assert action.check_periodicity(PhasePoint([0.5, 0.2], [0.3, 1.0])) > 0.1


def test_numeric_and_analytic_flows_agree():
    system = elastic_pendulum(omega=1.0, gamma=0.8).system
    analytic = CircleAction(system)
    numeric = CircleAction(system, flow_mode="numeric")
    m = PhasePoint([0.4, -0.1], [0.2, 0.7])
    for t in (0.5, 2.0):
        pa = analytic.flow(t, m)
        pn = numeric.flow(t, m)
        assert np.linalg.norm(pa.coords - pn.coords) < 1e-9


def recording(monkeypatch):
    """The arguments of each numeric orbit run, (field, y0, dt, steps),
    recorded as ``circle`` calls ``fixed_steps``."""
    runs = []

    def recorded(field, y0, dt, steps):
        runs.append((field, np.asarray(y0), dt, steps))
        return fixed_steps(field, y0, dt, steps)

    monkeypatch.setattr(circle, "fixed_steps", recorded)
    return runs


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_numeric_orbit_batch_equals_point_by_point(request, rng, monkeypatch, fixture_name):
    # a batch is one lane run (stacked kernel), a single point's orbit one
    # one-point run; both give the same bits. The batch stays small: on wide
    # lanes numpy's array ** (the particle's q2 ** 4) rounds unlike the scalar one
    fixture = request.getfixturevalue(fixture_name)
    runs = recording(monkeypatch)
    points = np.stack([m.coords for m in sample_points(fixture, rng, 5)])
    for nodes in (8, 64):
        batched = CircleAction(fixture.system, flow_mode="numeric", nodes=nodes)
        runs.clear()
        batch = batched.orbit(list(points[:, :2].T), list(points[:, 2:].T))
        assert [y0.shape for _, y0, *_ in runs] == [(5, 2)]
        for i, coords in enumerate(points):
            m = PhasePoint(coords[:2], coords[2:])
            single = CircleAction(fixture.system, flow_mode="numeric", nodes=nodes)
            runs.clear()
            orbit = single.orbit(*m.state())
            assert [y0.shape for _, y0, *_ in runs] == [(1, 2)]
            for got, want in zip(batch.fast + batch.slow, orbit.fast + orbit.slow):
                assert np.array_equal(got[i], want)


def _dual_state(coords, seeds, tag):
    """(fast, slow) lists of duals with the given tangent parts, direction axis first."""
    lifted = [sk.Dual(c, e, tag) for c, e in zip(coords, seeds)]
    return lifted[:2], lifted[2:]


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_numeric_dual_orbit_matches_analytic_dual_parts(request, fixture_name):
    # the variational equation's tangents are ∂Fl/∂b, the dual parts that the
    # analytic flow carries (measured <= 5e-12 at rtol 1e-11); the frozen slow
    # block keeps one node in both flows, and is compared over all nodes
    fixture = request.getfixturevalue(fixture_name)
    tag = sk.fresh_tag()
    state = _dual_state(fixture.initial.coords, np.eye(4), tag)
    for nodes in (8, 64):
        numeric = CircleAction(fixture.system, flow_mode="numeric", nodes=nodes).orbit(*state)
        analytic = CircleAction(fixture.system, nodes=nodes).orbit(*state)
        pairs = [(got, want, nodes) for got, want in zip(numeric.fast, analytic.fast)]
        pairs += [(got, want, 1) for got, want in zip(numeric.slow, analytic.slow)]
        for got, want, node_axis in pairs:
            assert got.tag == want.tag == tag
            assert np.shape(got.eps) == np.shape(want.eps) == (4, node_axis)
            got, want = (sk.broadcast(c, (nodes,)) for c in (got, want))
            assert np.allclose(got.val, want.val, rtol=0.0, atol=1e-10)
            assert np.allclose(got.eps, want.eps, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("flow_mode, bound", [("analytic", 2e-15), ("numeric", 1e-12)])
@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_lifted_orbit_jacobians_are_symplectic(request, rng, fixture_name, flow_mode, bound):
    # at frozen slow coordinates the fast flow is Hamiltonian, so M = ∂Fl/∂z₀
    # at every node satisfies MᵀΩM = Ω. A numeric M is read off the variational
    # columns, which the orbit's closure controls: the defect ‖MᵀΩM − Ω‖
    # (Frobenius) gates their error. At a cap of 64 every node is a state of
    # one closed run of 64 steps. Measured over 20 box points for each of 31
    # seeds: at most 3.5e-15 numeric (2.4e-15 pendulum, 3.3e-15 particle at
    # this seed), and 6.3e-16 analytic. Nodes read off the continuous
    # extension at θ = ½ of 32 steps gave 4.8e-12, adaptive steps 2.6e-10
    fixture = request.getfixturevalue(fixture_name)
    points = np.stack([m.coords for m in sample_points(fixture, rng, 20)])
    action = CircleAction(fixture.system, flow_mode=flow_mode, nodes=64)
    orbit = action.orbit(*_dual_state(points.T, np.eye(4)[:, :, None], sk.fresh_tag()))
    shape = (4, 20, 64)  # directions, lanes, nodes
    jac = np.stack([np.broadcast_to(c.eps, shape)[:2] for c in orbit.fast])
    jac = np.moveaxis(jac, (0, 1), (-2, -1))  # (lanes, nodes, 2, 2): ∂(y, x)/∂(y₀, x₀)
    omega = np.array([[0.0, -1.0], [1.0, 0.0]])
    defect = np.linalg.norm(np.swapaxes(jac, -1, -2) @ omega @ jac - omega, axis=(-2, -1))
    assert defect.max() <= bound


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_numeric_dual_orbit_batch_equals_point_by_point(request, rng, monkeypatch,
                                                        fixture_name):
    # a batch's variational run is one lane run (stacked kernel), a single
    # point's one run of 2r + 2r·D floats (the one-point form): the same bits
    fixture = request.getfixturevalue(fixture_name)
    runs = recording(monkeypatch)
    points = np.stack([m.coords for m in sample_points(fixture, rng, 3)])
    tag = sk.fresh_tag()
    for nodes in (8, 64):
        action = CircleAction(fixture.system, flow_mode="numeric", nodes=nodes)
        runs.clear()
        batch = action.orbit(*_dual_state(points.T, np.eye(4)[:, :, None], tag))
        for i, coords in enumerate(points):
            single = action.orbit(*_dual_state(coords, np.eye(4), tag))
            for got, want in zip(batch.fast, single.fast):
                assert np.array_equal(got.val[i], want.val)
                assert np.array_equal(got.eps[:, i], want.eps)
        assert [y0.shape for _, y0, *_ in runs] == [(3, 10)] + [(1, 10)] * 3


def test_numeric_orbit_outside_the_box_raises_a_typed_error(particle, monkeypatch):
    # q2 = 0 lies outside the particle's box, which orbit does not check. Its
    # ω is inf there, which the base-point check rejects before any run (1/q2²
    # once divided by zero on floats and gave nan on lanes)
    runs = recording(monkeypatch)
    action = CircleAction(particle.system, flow_mode="numeric", nodes=8)
    pair = [np.array([0.1, 0.1]), np.array([0.3, 0.3])]
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="positive and finite"):
            action.orbit([0.1, 0.3], [0.2, 0.0])
        with pytest.raises(NumericalError, match="positive and finite"):
            action.orbit(pair, [np.array([0.2, 0.2]), np.array([1.0, 0.0])])
    assert runs == []


def test_numeric_orbit_without_a_cache(pendulum):
    # no orbit is kept: a second orbit of the same point is integrated again
    # and equals the first bit for bit
    action = CircleAction(pendulum.system, flow_mode="numeric", nodes=8)
    first = action.orbit(*pendulum.initial.state())
    second = action.orbit(*pendulum.initial.state())
    assert all(a is not b and np.array_equal(a, b) for a, b in zip(first.fast, second.fast))


def test_numeric_orbit_rejects_nested_duals(pendulum):
    action = CircleAction(pendulum.system, flow_mode="numeric", nodes=8)
    inner, outer = sk.fresh_tag(), sk.fresh_tag()
    nested = sk.Dual(sk.Dual(0.5, 1.0, inner), np.ones(2), outer)
    with pytest.raises(UnsupportedDerivative):
        action.orbit([nested, 0.0], [0.1, 1.0])
    with pytest.raises(UnsupportedDerivative):  # two passes side by side
        action.orbit([sk.Dual(0.5, 1.0, inner), sk.Dual(0.0, 1.0, outer)], [0.1, 1.0])


def test_numeric_rhs_evaluates_omega_once(particle):
    # omega is checked once per run, at its base points, and the traced field
    # divides by the omega it computes itself: the oracle is called by the
    # trace and then once per run, however many RHS calls the runs make
    calls, omega = [], particle.system.omega
    system = replace(particle.system, omega=lambda f, s: calls.append(1) or omega(f, s))
    action = CircleAction(system, flow_mode="numeric", nodes=8)
    m = particle.initial
    action.flow(0.1, m)
    assert len(calls) == 2
    action.flow(TWO_PI, m)
    pair = [np.array([c, c + 0.01]) for c in m.coords]
    action.orbit(pair[:2], pair[2:])
    assert len(calls) == 4


def scaled_oscillator():
    """Harmonic fast block whose frequency is the slow coordinate q."""
    def H(fast, slow):
        y, x = fast
        return 0.5 * slow[1] * (y * y + x * x)

    return SlowFastSystem(r=1, k=1, H=H, omega=lambda fast, slow: slow[1])


def test_numeric_orbit_rejects_nonpositive_frequency_on_any_lane():
    action = CircleAction(scaled_oscillator(), flow_mode="numeric", nodes=8)
    ones = np.ones(3)
    action.orbit([ones, 0.5 * ones], [ones, np.array([1.0, 2.0, 0.5])])
    action.orbit([1.0, 0.5], [1.0, 0.5])
    with pytest.raises(NumericalError, match="positive"):
        action.orbit([ones, 0.5 * ones], [ones, np.array([1.0, 2.0, -0.5])])
    for omega in (-0.5, 0.0):  # the one-point run, as an orbit and as a flow
        with pytest.raises(NumericalError, match="positive"):
            action.orbit([1.0, 0.5], [1.0, omega])
        with pytest.raises(NumericalError, match="positive"):
            action.flow(1.0, PhasePoint([1.0, 0.5], [1.0, omega]))


def test_numeric_orbit_rejects_infinite_frequency_on_any_lane(monkeypatch):
    # ω = +inf passes ω > 0; the base-point check rejects it before any run
    runs = recording(monkeypatch)
    action = CircleAction(scaled_oscillator(), flow_mode="numeric", nodes=8)
    ones = np.ones(3)
    with pytest.raises(NumericalError, match="positive and finite"):
        action.orbit([ones, 0.5 * ones], [ones, np.array([1.0, np.inf, 2.0])])
    with pytest.raises(NumericalError, match="positive and finite"):
        action.orbit([1.0, 0.5], [1.0, np.inf])
    assert runs == []


def test_numeric_orbit_rejects_nan_frequency_on_any_lane():
    action = CircleAction(scaled_oscillator(), flow_mode="numeric", nodes=8)
    ones = np.ones(3)
    with pytest.raises(NumericalError, match="positive"):
        action.orbit([ones, 0.5 * ones], [ones, np.array([1.0, np.nan, 2.0])])
    with pytest.raises(NumericalError, match="positive"):
        action.orbit([1.0, 0.5], [1.0, np.nan])


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_numeric_orbit_nodes_are_the_step_grid_states(request, rng, fixture_name, monkeypatch):
    # every node is a state of a closed step grid, bit for bit: at a cap of 8
    # node j is the state after 4j of 32 steps of 2π/32, and at a cap of 64
    # orbit() is one closed run of 64 steps
    fixture = request.getfixturevalue(fixture_name)
    runs = recording(monkeypatch)
    points = np.stack([m.coords for m in sample_points(fixture, rng, 3)])
    fast, slow = list(points[:, :2].T), list(points[:, 2:].T)

    def grid(run):  # the states of a recorded run, checked closed
        field, y0, dt, steps = run
        states = fixed_steps(field, y0, dt, steps)
        assert np.max(np.abs(states[-1] - y0) / (1.0 + np.abs(y0))) <= circle.ORBIT_RTOL
        return states

    for nodes, steps in ((8, 32), (64, 64)):
        runs.clear()
        orbit = CircleAction(fixture.system, flow_mode="numeric", nodes=nodes).orbit(fast, slow)
        [run] = runs
        assert run[2:] == (TWO_PI / steps, steps)
        got = np.stack(orbit.fast, axis=-1).transpose(1, 0, 2)  # (nodes, points, 2)
        assert np.array_equal(got, grid(run)[:-1:steps // nodes])
    # a resolve at a cap of 64 that settles at N <= 32 reads every level off
    # one run of 32 steps; with every tail check failing it runs on to the
    # cap, and level 64's odd nodes come from a second run, of 64 steps, while
    # its even ones keep the first run's bits
    action = CircleAction(fixture.system, flow_mode="numeric", nodes=64)
    merged = []

    def evaluate(orbit):
        merged.append(np.stack(orbit.fast, axis=-1).transpose(1, 0, 2))
        return fourier_mean(orbit.fast[0])

    runs.clear()
    assert action.resolve(evaluate, fast, slow)[1] <= 32
    assert [steps for *_, steps in runs] == [32]
    fail_every_tail_check(monkeypatch)
    runs.clear()
    assert action.resolve(evaluate, fast, slow)[1:] == (64, False)
    assert [steps for *_, steps in runs] == [32, 64]
    coarse, fine = (grid(run) for run in runs)
    assert np.array_equal(merged[-1][1::2], fine[1:-1:2])
    assert np.array_equal(merged[-1][::2], coarse[:-1])


def test_numeric_batches_close_at_32_steps(tmp_path, monkeypatch):
    # every numeric orbit batch of both fixtures' default sweeps and of the
    # benchmark's numeric_flow seeds 1–4 closes at the first M: a change that
    # doubles M, and the cost with it, fails here
    runs = recording(monkeypatch)
    for fixture in ("elastic_pendulum", "charged_particle"):
        order_sweep(RunConfig(fixture=fixture, flow_mode="numeric"))
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    for seed in range(1, 5):
        for inv in workloads.build("numeric_flow", seed).operation:
            config = tmp_path / f"{seed}-{inv.key}.ini"
            config.write_text(inv.ini, encoding="utf-8")
            assert cli.main([*inv.argv, "--config", str(config), "--out", str(tmp_path),
                             "--workers", "1"]) == 0
    assert len(runs) == 2 * 5 + 4 * 2  # one per ε of each sweep, one per invocation
    assert {steps for *_, steps in runs} == {32}


def test_scaled_variational_columns_fail_the_closure(pendulum, monkeypatch):
    # a lifted orbit closes at M = 32; with its variational columns' end
    # state scaled by 1 + 1e-8 it closes at no M up to the cap, and raises
    steps_run, factor = [], [1.0]

    def scaled(field, y0, dt, steps):
        steps_run.append(steps)
        states = fixed_steps(field, y0, dt, steps).copy()
        states[-1, :, 2:] *= factor[0]
        return states

    monkeypatch.setattr(circle, "fixed_steps", scaled)
    monkeypatch.setattr(circle, "MAX_ORBIT_STEPS", 64)
    action = CircleAction(pendulum.system, flow_mode="numeric", nodes=8)
    state = _dual_state(pendulum.initial.coords, np.eye(4), sk.fresh_tag())
    action.orbit(*state)
    assert steps_run == [32]
    steps_run.clear()
    factor[0] = 1.0 + 1e-8
    with pytest.raises(IntegrationError, match=r"M = 64 .* column [2-9] of lane 0"):
        action.orbit(*state)
    assert steps_run == [32, 64]


def test_orbit_of_a_field_not_2pi_periodic_doubles_m_to_the_cap_and_raises(monkeypatch):
    # halved generator speed: Υ has period 4π, so no M closes the orbit
    runs = recording(monkeypatch)
    system = replace(elastic_pendulum(omega=1.0, gamma=1.0).system, omega=lambda f, s: 2.0)
    action = CircleAction(system, flow_mode="numeric", nodes=8)
    with pytest.raises(IntegrationError, match=r"M = 1024 steps per period: defect .* lane 0"):
        action.orbit([0.5, 0.2], [0.3, 1.0])
    assert [steps for *_, steps in runs] == [32, 64, 128, 256, 512, 1024]
    assert circle.MAX_ORBIT_STEPS == 1024


def test_slow_coordinates_preserved(pendulum_action):
    m = PhasePoint([0.9, -0.4], [0.25, 0.75])
    moved = pendulum_action.flow(1.234, m)
    assert np.array_equal(moved.slow, m.slow)  # exact in analytic mode
    orbit = pendulum_action.orbit(*m.state())
    for comp in orbit.slow:
        assert np.all(comp == comp[..., :1])


# -- scalar operators -----------------------------------------------------------

def _profile(f, orbit):
    """Samples of the oracle ``f`` along the orbit, over its full node axis."""
    return np.broadcast_to(np.asarray(sk.value(f(orbit.fast, orbit.slow)), dtype=float),
                           orbit.batch_shape + (orbit.nodes,))


def average(action, f, m):
    """⟨f⟩(m) through ``CircleAction.resolve`` and ``fourier_mean``."""
    return float(resolved_value(action.resolve(
        lambda orbit: fourier_mean(_profile(f, orbit)), *m.state())))


def s_of(action, f, m):
    """𝒮(f)(m) through ``CircleAction.resolve`` and ``s_from_samples``."""
    return float(resolved_value(action.resolve(
        lambda orbit: s_from_samples(_profile(f, orbit)), *m.state())))


def test_average_of_constant(pendulum_action):
    m = PhasePoint([0.2, 0.4], [0.1, 0.3])
    assert average(pendulum_action, lambda f, s: 3.5, m) == pytest.approx(3.5)


def test_average_of_cosine_profile(harmonic_action):
    # at (y,x) = (0,1) the x-coordinate profile is cos t
    m = PhasePoint([0.0, 1.0], [0.0, 0.0])
    assert average(harmonic_action, lambda f, s: f[1], m) == pytest.approx(0.0, abs=1e-14)
    assert s_of(harmonic_action, lambda f, s: f[1], m) == pytest.approx(0.0, abs=1e-14)


def test_average_of_squared_momentum(harmonic_action):
    # <y^2> = (y^2 + x^2)/2 for the unit harmonic flow
    m = PhasePoint([0.8, -0.5], [0.0, 0.0])
    expected = (0.8 ** 2 + 0.5 ** 2) / 2.0
    assert average(harmonic_action, lambda f, s: f[0] ** 2, m) == pytest.approx(expected, abs=1e-13)


def test_s_of_sine_profile(harmonic_action):
    # at (y,x) = (1,0) the x-profile is sin t; S(sin t) = -1
    m = PhasePoint([1.0, 0.0], [0.0, 0.0])
    assert s_of(harmonic_action, lambda f, s: f[1], m) == pytest.approx(-1.0, abs=1e-13)
    assert s_of(harmonic_action, lambda f, s: 2.0, m) == pytest.approx(0.0, abs=1e-14)


def test_quadrature_exact_for_trig_polynomials(harmonic_action):
    # x(t)^3 = sin^3 t = (3 sin t - sin 3t)/4 at (y,x) = (1,0)
    m = PhasePoint([1.0, 0.0], [0.0, 0.0])
    cube = lambda f, s: f[1] ** 3
    expected = 0.25 * (3.0 * (-1.0) - (-1.0 / 3.0))
    for nodes in (8, 64):
        action = CircleAction(harmonic_action.system, nodes=nodes)
        # degree 3 lies above N/4 = 2 at 8 nodes: exact there, but flagged unresolved
        with pytest.warns(UnresolvedQuadrature) if nodes == 8 else nullcontext():
            assert s_of(action, cube, m) == pytest.approx(expected, abs=1e-12)
            assert average(action, cube, m) == pytest.approx(0.0, abs=1e-12)


def test_projection_properties(pendulum_action, pendulum, rng):
    for m in sample_points(pendulum, rng, 5):
        f = lambda fast, slow: fast[0] ** 2 * fast[1] + slow[1] * fast[0]
        avg_f = average(pendulum_action, f, m)

        def avg_oracle(fast, slow):
            return fourier_mean(_profile(f, pendulum_action.orbit(fast, slow)))

        def s_oracle(fast, slow):
            return s_from_samples(_profile(f, pendulum_action.orbit(fast, slow)))

        assert average(pendulum_action, avg_oracle, m) == pytest.approx(avg_f, abs=1e-10)
        assert average(pendulum_action, s_oracle, m) == pytest.approx(0.0, abs=1e-10)


def test_homological_identity(pendulum_action, pendulum, rng):
    # d/dt S(f)(Fl^t m) at 0 equals f(m) - <f>(m)
    f = lambda fast, slow: fast[0] ** 2 * fast[1] + 0.3 * fast[0] * slow[0]
    h = 1e-4
    for m in sample_points(pendulum, rng, 10):
        plus = s_of(pendulum_action, f, pendulum_action.flow(h, m))
        minus = s_of(pendulum_action, f, pendulum_action.flow(-h, m))
        lhs = (plus - minus) / (2.0 * h)
        rhs = float(sk.value(f(*m.state()))) - average(pendulum_action, f, m)
        assert lhs == pytest.approx(rhs, abs=1e-6)


def test_solve_homological_invariant_input(pendulum_action):
    m = PhasePoint([0.5, 0.1], [0.2, 0.8])
    system = pendulum_action.system
    assert s_of(pendulum_action, system.J, m) == pytest.approx(0.0, abs=1e-12)


def test_average_invariant_along_flow(pendulum_action, rng):
    # interior points whose whole orbit stays inside the domain box
    f = lambda fast, slow: fast[0] * fast[1] ** 2 + slow[0]
    for _ in range(5):
        coords = rng.uniform(-1.0, 1.0, 4)
        m = PhasePoint(coords[:2], coords[2:])
        base = average(pendulum_action, f, m)
        for s in rng.uniform(0.0, 2.0 * np.pi, 3):
            moved = pendulum_action.flow(float(s), m)
            assert average(pendulum_action, f, moved) == pytest.approx(base, abs=1e-9)


# -- slow 1-forms -----------------------------------------------------------------

def test_oneform_average_of_constants(pendulum_action):
    m = PhasePoint([0.3, 0.2], [0.1, 0.4])
    coeffs = lambda fast, slow: [1.5, -2.5]
    avg = resolved_value(pendulum_action.resolve_slow_oneform(coeffs, m))
    assert avg == pytest.approx([1.5, -2.5])


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_adiabatic_oneform_average_vanishes(request, fixture_name, rng):
    fixture = request.getfixturevalue(fixture_name)
    action = CircleAction(fixture.system)
    coeffs = d1j_coeffs(fixture.system)
    for m in sample_points(fixture, rng, 10):
        avg = resolved_value(action.resolve_slow_oneform(coeffs, m))
        assert np.linalg.norm(avg) <= 1e-9


def test_theta_reaveraged_vanishes(pendulum, pendulum_action):
    system = pendulum.system
    m = PhasePoint([0.6, -0.2], [0.4, 0.9])

    def theta_coeffs(fast, slow):
        # Theta = S(d1 J) at each (batched) base point, from that point's orbit
        orbit = pendulum_action.orbit(fast, slow)
        shape = orbit.batch_shape + (orbit.nodes,)
        return [s_from_samples(np.broadcast_to(np.asarray(sk.value(c), dtype=float), shape))
                for c in d1j_coeffs(system)(orbit.fast, orbit.slow)]

    avg = resolved_value(pendulum_action.resolve_slow_oneform(theta_coeffs, m))
    assert np.linalg.norm(avg) <= 1e-9


def test_theta_value_matches_closed_form():
    # Theta = S(d1 J) = (0, -gamma q y / Omega^2) for the pendulum
    fx = elastic_pendulum(omega=1.0, gamma=1.0)
    action = CircleAction(fx.system)
    m = PhasePoint([1.0, 0.0], [1.0, 1.0])  # (p,q,y,x) = (1,1,1,0)
    th, _ = theta_and_k1(fx.system, action, m)
    assert th == pytest.approx([0.0, -1.0], abs=1e-12)


# -- spectral helpers ----------------------------------------------------------

def test_s_from_samples_pure_harmonics():
    t = 2.0 * np.pi * np.arange(32) / 32
    assert s_from_samples(np.sin(t)) == pytest.approx(-1.0, abs=1e-14)
    assert s_from_samples(np.cos(t)) == pytest.approx(0.0, abs=1e-14)
    assert s_from_samples(np.sin(3 * t)) == pytest.approx(-1.0 / 3.0, abs=1e-14)


def test_s_at_nodes_is_shifted_s():
    t = 2.0 * np.pi * np.arange(64) / 64
    samples = np.sin(t) + 0.5 * np.cos(2 * t)
    nodes = s_at_nodes(samples)
    # value at node j equals S of the profile shifted by t_j: -cos(t) + 0.25 sin(2t)
    expected = -np.cos(t) + 0.25 * np.sin(2 * t)
    assert np.allclose(nodes, expected, atol=1e-13)


def test_fourier_mean_sums_each_row_in_one_order_whatever_its_layout():
    # numpy sums a reduction axis pairwise only where it is innermost in
    # memory; ⟨·⟩ gives a profile and its Fortran-ordered copy the same bits
    rows = np.random.default_rng(5).standard_normal((16, 64))
    sequential = np.array([functools.reduce(operator.add, row.tolist()) for row in rows])
    pairwise = np.add.reduce(rows, axis=-1)
    assert np.any(sequential != pairwise)  # the seeded rows tell the two orders apart
    fortran = np.asfortranarray(rows)
    for profile in (rows, fortran):
        assert np.array_equal(fourier_mean(profile), pairwise / 64)
    assert np.array_equal(fourier_mean(fortran, keepdims=True), (pairwise / 64)[:, None])


# -- node count from the spectrum -----------------------------------------------

def moduli_rule(coeff, tol):
    """The tail rule on numpy's moduli, as it reads: |c_k| ≤ tol·max_k |c_k|
    for every k > N/4 of every row (a NaN fails)."""
    mag = np.abs(coeff)
    quarter = (mag.shape[-1] - 1) // 2
    return bool(np.all(mag[..., quarter + 1:] <= tol * mag.max(axis=-1, keepdims=True)))


def tail_check(coeff, tol):
    """Whether ``_note_tail`` finds the coefficients ``coeff`` resolved, at the cap."""
    loop = circle._Loop(tol, at_cap=True)
    circle._open_loops.append(loop)
    try:
        circle._note_tail(None, coeff)
    finally:
        circle._open_loops.pop()
    return loop.resolved


def tail_rows(tol, rng):
    """Rows of five coefficients (N = 8: the tail is k = 3, 4) with tails
    exactly at, one ulp on either side of, and a few ulps around the
    threshold, for largest moduli from 1e-170 to 1e170; NaN, inf and zeros in
    the head and in the tail; subnormals."""
    rows = []
    for top in (1.0, 0.6 - 0.8j, 3.7e-9, 1e-150, 1e-160, 1e-170, 1e150, 1e160, 1e170):
        edge = abs(tol) * np.abs(top)
        for at in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)):
            rows += [[top, 0.5 * top, 0.0, at, 0.0], [0.0, top, 0.0, 0.0, -at],
                     [top, 0.0, 0.0, at * (0.6 + 0.8j), 0.0]]
        for phase in rng.uniform(0.0, 2.0 * np.pi, 8):  # a few ulps around the edge
            rows.append([top, 0.0, 0.0, 0.0, edge * (1.0 + rng.integers(-8, 9) * 2.0 ** -52)
                         * np.exp(1j * phase)])
    nan, inf = np.nan, np.inf
    rows += [[nan, 0.0, 0.0, 0.0, 0.0], [1.0, 0.0, nan, 0.0, 0.0], [1.0, 0.0, 0.0, nan, 0.0],
             [inf, 0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, inf, 0.0], [inf, 0.0, 0.0, 0.0, inf],
             [1.0, 0.0, 0.0, complex(inf, nan), 0.0], [complex(nan, inf), 1.0, 0.0, 0.0, 0.0],
             [0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1e-170],
             [5e-324, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 5e-324],
             [1e-170, 0.0, 0.0, 1e-183, 0.0]]
    return np.array(rows, dtype=complex)


@pytest.mark.parametrize("tol", [1e-12, 1e-10, -1e-12, -1.0])
def test_tail_check_decides_as_the_moduli_do(rng, tol):
    # the check takes its moduli in another memory order than the rule reads
    # them, and must make the rule's decision on every row and every batch
    rows = tail_rows(tol, rng)
    for row in rows:
        assert tail_check(row, tol) == moduli_rule(row, tol), row
    for batch in (rows, rows[:-1].reshape(-1, 3, 5), rows[np.isfinite(rows).all(axis=-1)]):
        assert tail_check(batch, tol) == moduli_rule(batch, tol)
    clean = rows[np.isfinite(rows).all(axis=-1)]
    passing = clean[[moduli_rule(row, tol) for row in clean]]
    assert tail_check(passing, tol)


def trig_poly(rng, degree):
    """A trigonometric polynomial with every harmonic 0..degree, O(1) coefficients."""
    a, b = rng.uniform(-1.0, 1.0, (2, degree + 1))
    return lambda t: sum(a[k] * np.cos(k * t) + b[k] * np.sin(k * t) for k in range(degree + 1))


@pytest.mark.parametrize("cap", [4, 16, 64])
@pytest.mark.parametrize("op", [fourier_mean, s_from_samples, s_at_nodes])
def test_resolve_stops_at_smallest_n_resolving_a_trig_polynomial(pendulum, rng, cap, op):
    # a degree-d profile is resolved at N when d <= N/4: the loop runs
    # min(8, cap), 16, ... and stops at the first such N, or at the cap, flagged
    action = CircleAction(pendulum.system, nodes=cap)
    tried = [min(8, cap)] + [n for n in (16, 32, 64) if n <= cap]
    for degree in range(1, 18):
        poly = trig_poly(rng, degree)
        _, n, resolved = action.resolve(lambda orbit: op(poly(orbit.times)),
                                        *pendulum.initial.state())
        first = next((n for n in tried if degree <= n // 4), None)
        assert (n, resolved) == ((first, True) if first else (cap, False))


def test_every_other_sample_is_the_orbit_at_fewer_nodes(particle, rng):
    # the node times of N are every (64/N)-th node time of 64, bit for bit, so
    # each level of ``resolve`` merges the orbit at N with the odd-phase nodes
    # of 2N into the orbit at 2N. Noise never resolves: the loop runs to 64
    points = np.stack([m.coords for m in sample_points(particle, rng, 4)])
    state = (list(points[:, :2].T), list(points[:, 2:].T))
    action, levels = CircleAction(particle.system, nodes=64), []
    action.resolve(lambda orbit: levels.append(orbit) or fourier_mean(
        rng.standard_normal(orbit.batch_shape + (orbit.nodes,))), *state)
    full = action.orbit(*state)
    for n, got in zip((8, 16, 32, 64), levels, strict=True):
        want = CircleAction(particle.system, nodes=n).orbit(*state)
        assert got.nodes == n and np.array_equal(got.times, want.times)
        assert np.array_equal(got.times, full.times[::64 // n])
        for a, b in zip(got.fast + got.slow, want.fast + want.slow):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("flow_mode", ["analytic", "numeric"])
def test_a_term_constant_along_the_orbit_keeps_one_node_through_the_merges(pendulum, rng,
                                                                          flow_mode):
    # the pendulum's ∂H/∂p = p depends on the frozen slow block alone, so its
    # profile keeps a node axis of 1 at every level of the loop, and ∂H/∂q,
    # which depends on x, widens to the level's nodes. Noise never resolves:
    # the loop runs to 64
    points = np.stack([m.coords for m in sample_points(pendulum, rng, 3)])
    shapes = []

    def evaluate(orbit, dh, dj):
        shapes.append((np.shape(dh[0]), np.shape(dh[1])))
        return fourier_mean(rng.standard_normal(orbit.batch_shape + (orbit.nodes,)))

    action = CircleAction(pendulum.system, flow_mode=flow_mode, nodes=64)
    action.resolve(evaluate, list(points[:, :2].T), list(points[:, 2:].T),
                   lambda orbit: invariants._slow_partials(pendulum.system, orbit))
    assert shapes == [((3, 1), (3, n)) for n in (8, 16, 32, 64)]


def test_nodes_must_be_power_of_two(pendulum):
    with pytest.raises(ValueError):
        CircleAction(pendulum.system, nodes=48)
    with pytest.raises(ValueError):
        CircleAction(pendulum.system, flow_mode="fancy")
