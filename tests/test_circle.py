"""Circle-action flows and the averaging/integrating operators."""

import numpy as np
import pytest

from adiakit import CircleAction, PhasePoint, charged_particle, elastic_pendulum
from adiakit import kernel as sk
from adiakit.circle import fourier_mean, s_at_nodes, s_from_samples
from adiakit.invariants import d1j_coeffs
from adiakit.sl2 import QuadraticSystem, Sl2Field, linear_flow

from conftest import sample_points


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
    ok, residual = action.check_periodicity(PhasePoint([1.0, 0.4], [0.2, 0.1]))
    assert ok and residual < 1e-12


def test_periodicity_numeric_pendulum():
    system = elastic_pendulum(omega=1.0, gamma=1.0).system
    action = CircleAction(system, flow_mode="numeric", rtol=1e-11, atol=1e-14)
    ok, residual = action.check_periodicity(PhasePoint([0.5, 0.2], [0.3, 1.0]), tol=1e-9)
    assert ok and residual <= 1e-9


def test_periodicity_fails_with_corrupted_frequency():
    # halved generator speed: the 2π flow lands mid-orbit
    system = elastic_pendulum(omega=1.0, gamma=1.0, omega_scale=2.0).system
    action = CircleAction(system, flow_mode="numeric", rtol=1e-10, atol=1e-13)
    ok, residual = action.check_periodicity(PhasePoint([0.5, 0.2], [0.3, 1.0]), tol=1e-6)
    assert not ok and residual > 0.1


def test_numeric_and_analytic_flows_agree():
    system = elastic_pendulum(omega=1.0, gamma=0.8).system
    analytic = CircleAction(system)
    numeric = CircleAction(system, flow_mode="numeric", rtol=1e-11, atol=1e-14)
    m = PhasePoint([0.4, -0.1], [0.2, 0.7])
    for t in (0.5, 2.0):
        pa = analytic.flow(t, m)
        pn = numeric.flow(t, m)
        assert np.linalg.norm(pa.coords - pn.coords) < 1e-9


def test_slow_coordinates_preserved(pendulum_action):
    m = PhasePoint([0.9, -0.4], [0.25, 0.75])
    moved = pendulum_action.flow(1.234, m)
    assert np.array_equal(moved.slow, m.slow)  # exact in analytic mode
    orbit = pendulum_action.orbit_of_point(m)
    for comp in orbit.slow:
        assert np.all(comp == comp[..., :1])


# -- scalar operators -----------------------------------------------------------

def test_average_of_constant(pendulum_action):
    m = PhasePoint([0.2, 0.4], [0.1, 0.3])
    assert pendulum_action.average_scalar(lambda f, s: 3.5, m) == pytest.approx(3.5)


def test_average_of_cosine_profile(harmonic_action):
    # at (y,x) = (0,1) the x-coordinate profile is cos t
    m = PhasePoint([0.0, 1.0], [0.0, 0.0])
    assert harmonic_action.average_scalar(lambda f, s: f[1], m) == pytest.approx(0.0, abs=1e-14)
    assert harmonic_action.s_scalar(lambda f, s: f[1], m) == pytest.approx(0.0, abs=1e-14)


def test_average_of_squared_momentum(harmonic_action):
    # <y^2> = (y^2 + x^2)/2 for the unit harmonic flow
    m = PhasePoint([0.8, -0.5], [0.0, 0.0])
    expected = (0.8 ** 2 + 0.5 ** 2) / 2.0
    assert harmonic_action.average_scalar(lambda f, s: f[0] ** 2, m) == pytest.approx(expected, abs=1e-13)


def test_s_of_sine_profile(harmonic_action):
    # at (y,x) = (1,0) the x-profile is sin t; S(sin t) = -1
    m = PhasePoint([1.0, 0.0], [0.0, 0.0])
    assert harmonic_action.s_scalar(lambda f, s: f[1], m) == pytest.approx(-1.0, abs=1e-13)
    assert harmonic_action.s_scalar(lambda f, s: 2.0, m) == pytest.approx(0.0, abs=1e-14)


def test_quadrature_exact_for_trig_polynomials(harmonic_action):
    # x(t)^3 = sin^3 t = (3 sin t - sin 3t)/4 at (y,x) = (1,0)
    m = PhasePoint([1.0, 0.0], [0.0, 0.0])
    cube = lambda f, s: f[1] ** 3
    expected = 0.25 * (3.0 * (-1.0) - (-1.0 / 3.0))
    for nodes in (8, 64):
        assert harmonic_action.s_scalar(cube, m, nodes) == pytest.approx(expected, abs=1e-12)
        assert harmonic_action.average_scalar(cube, m, nodes) == pytest.approx(0.0, abs=1e-12)


def test_projection_properties(pendulum_action, pendulum, rng):
    for m in sample_points(pendulum, rng, 5):
        f = lambda fast, slow: fast[0] ** 2 * fast[1] + slow[1] * fast[0]
        avg_f = pendulum_action.average_scalar(f, m)

        def avg_oracle(fast, slow):
            return fourier_mean(_profile(pendulum_action, f, fast, slow))

        def s_oracle(fast, slow):
            return s_from_samples(_profile(pendulum_action, f, fast, slow))

        assert pendulum_action.average_scalar(avg_oracle, m) == pytest.approx(avg_f, abs=1e-10)
        assert pendulum_action.average_scalar(s_oracle, m) == pytest.approx(0.0, abs=1e-10)


def _profile(action, f, fast, slow):
    orbit = action.orbit(fast, slow)
    return action.profile(f, orbit)


def test_homological_identity(pendulum_action, pendulum, rng):
    # d/dt S(f)(Fl^t m) at 0 equals f(m) - <f>(m)
    f = lambda fast, slow: fast[0] ** 2 * fast[1] + 0.3 * fast[0] * slow[0]
    h = 1e-4
    for m in sample_points(pendulum, rng, 10):
        plus = pendulum_action.s_scalar(f, pendulum_action.flow(h, m))
        minus = pendulum_action.s_scalar(f, pendulum_action.flow(-h, m))
        lhs = (plus - minus) / (2.0 * h)
        rhs = float(sk.value(f(*m.state()))) - pendulum_action.average_scalar(f, m)
        assert lhs == pytest.approx(rhs, abs=1e-6)


def test_solve_homological_invariant_input(pendulum_action):
    m = PhasePoint([0.5, 0.1], [0.2, 0.8])
    system = pendulum_action.system
    assert pendulum_action.solve_homological(system.J, m) == pytest.approx(0.0, abs=1e-12)


def test_average_invariant_along_flow(pendulum_action, rng):
    # interior points whose whole orbit stays inside the domain box
    f = lambda fast, slow: fast[0] * fast[1] ** 2 + slow[0]
    for _ in range(5):
        coords = rng.uniform(-1.0, 1.0, 4)
        m = PhasePoint(coords[:2], coords[2:])
        base = pendulum_action.average_scalar(f, m)
        for s in rng.uniform(0.0, 2.0 * np.pi, 3):
            moved = pendulum_action.flow(float(s), m)
            assert pendulum_action.average_scalar(f, moved) == pytest.approx(base, abs=1e-9)


# -- slow 1-forms -----------------------------------------------------------------

def test_oneform_average_of_constants(pendulum_action):
    m = PhasePoint([0.3, 0.2], [0.1, 0.4])
    coeffs = lambda fast, slow: [1.5, -2.5]
    assert pendulum_action.average_slow_oneform(coeffs, m) == pytest.approx([1.5, -2.5])
    assert pendulum_action.s_slow_oneform(coeffs, m) == pytest.approx([0.0, 0.0])


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_adiabatic_oneform_average_vanishes(request, fixture_name, rng):
    fixture = request.getfixturevalue(fixture_name)
    action = CircleAction(fixture.system)
    coeffs = d1j_coeffs(fixture.system)
    for m in sample_points(fixture, rng, 10):
        avg = action.average_slow_oneform(coeffs, m)
        assert np.linalg.norm(avg) <= 1e-9


def test_theta_reaveraged_vanishes(pendulum, pendulum_action):
    system = pendulum.system
    m = PhasePoint([0.6, -0.2], [0.4, 0.9])

    def theta_coeffs(fast, slow):
        # Theta = S(d1 J) at each (batched) base point, from that point's orbit
        orbit = pendulum_action.orbit(fast, slow, 64)
        shape = orbit.batch_shape + (orbit.nodes,)
        return [s_from_samples(np.broadcast_to(np.asarray(sk.value(c), dtype=float), shape))
                for c in d1j_coeffs(system)(orbit.fast, orbit.slow)]

    avg = pendulum_action.average_slow_oneform(theta_coeffs, m)
    assert np.linalg.norm(avg) <= 1e-9


def test_theta_value_matches_closed_form():
    # Theta = S(d1 J) = (0, -gamma q y / Omega^2) for the pendulum
    fx = elastic_pendulum(omega=1.0, gamma=1.0)
    action = CircleAction(fx.system)
    m = PhasePoint([1.0, 0.0], [1.0, 1.0])  # (p,q,y,x) = (1,1,1,0)
    th = action.s_slow_oneform(d1j_coeffs(fx.system), m)
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


def test_nodes_must_be_power_of_two(pendulum):
    with pytest.raises(ValueError):
        CircleAction(pendulum.system, nodes=48)
    with pytest.raises(ValueError):
        CircleAction(pendulum.system, flow_mode="fancy")
