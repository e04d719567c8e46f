"""Circle-action flows and the averaging/integrating operators."""

from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from adiakit import (CircleAction, IntegratorConfig, NumericalError, PhasePoint,
                     SlowFastSystem, UnresolvedQuadrature, UnsupportedDerivative,
                     charged_particle, elastic_pendulum, integrate)
from adiakit import circle
from adiakit import kernel as sk
from adiakit.circle import TWO_PI, fourier_mean, resolved_value, s_at_nodes, s_from_samples
from adiakit.invariants import d1j_coeffs
from adiakit.sl2 import QuadraticSystem, Sl2Field, linear_flow

from conftest import sample_points, theta_and_k1


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


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_numeric_orbit_batch_equals_point_by_point(request, rng, monkeypatch, fixture_name):
    # a batch is one lane run (stacked kernel); a single point's orbit and its
    # flow are each one 1-D run (the one-point run); both give the same bits. The
    # batch stays small: on wide lanes numpy's array ** (the particle's
    # q2 ** 4) rounds unlike the scalar one
    fixture = request.getfixturevalue(fixture_name)
    runs = []

    def recorded(field, y0, *args, **kwargs):
        runs.append((field, np.asarray(y0)))
        return integrate(field, y0, *args, **kwargs)

    monkeypatch.setattr(circle, "integrate", recorded)
    points = np.stack([m.coords for m in sample_points(fixture, rng, 5)])
    for nodes in (8, 64):
        batched = CircleAction(fixture.system, flow_mode="numeric", nodes=nodes)
        runs.clear()
        batch = batched.orbit(list(points[:, :2].T), list(points[:, 2:].T))
        (lane_field, lane_y0), = runs
        cfg = IntegratorConfig(rtol=circle.ORBIT_RTOL, atol=circle.ORBIT_ATOL)
        ends = integrate(lane_field, lane_y0, TWO_PI, cfg, t_eval=[TWO_PI]).states[-1]
        for i, coords in enumerate(points):
            m = PhasePoint(coords[:2], coords[2:])
            single = CircleAction(fixture.system, flow_mode="numeric", nodes=nodes)
            runs.clear()
            orbit = single.orbit(*m.state())
            moved = single.flow(TWO_PI, m)
            assert [y0.shape for _, y0 in runs] == [(2,), (2,)]
            for got, want in zip(batch.fast + batch.slow, orbit.fast + orbit.slow):
                assert np.array_equal(got[i], want)
            assert np.array_equal(moved.coords, np.concatenate([ends[i], coords[2:]]))


def _dual_state(coords, seeds, tag):
    """(fast, slow) lists of duals with the given tangent parts, direction axis first."""
    lifted = [sk.Dual(c, e, tag) for c, e in zip(coords, seeds)]
    return lifted[:2], lifted[2:]


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_numeric_dual_orbit_matches_analytic_dual_parts(request, fixture_name):
    # the variational equation's tangents are ∂Fl/∂b, the dual parts that the
    # analytic flow carries (measured <= 5e-12 at rtol 1e-11)
    fixture = request.getfixturevalue(fixture_name)
    tag = sk.fresh_tag()
    state = _dual_state(fixture.initial.coords, np.eye(4), tag)
    for nodes in (8, 64):
        numeric = CircleAction(fixture.system, flow_mode="numeric", nodes=nodes).orbit(*state)
        analytic = CircleAction(fixture.system, nodes=nodes).orbit(*state)
        for got, want in zip(numeric.fast + numeric.slow, analytic.fast + analytic.slow):
            assert got.tag == want.tag == tag
            assert np.shape(got.eps) == np.shape(want.eps) == (4, nodes)
            assert np.allclose(got.val, want.val, rtol=0.0, atol=1e-10)
            assert np.allclose(got.eps, want.eps, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_numeric_dual_orbit_batch_equals_point_by_point(request, rng, monkeypatch,
                                                        fixture_name):
    # a batch's variational run is one lane run (stacked kernel), a single
    # point's one 1-D run of 2r + 2r·D floats (the one-point run): the same bits
    fixture = request.getfixturevalue(fixture_name)
    dims = []

    def recorded(field, y0, *args, **kwargs):
        dims.append(np.shape(y0))
        return integrate(field, y0, *args, **kwargs)

    monkeypatch.setattr(circle, "integrate", recorded)
    points = np.stack([m.coords for m in sample_points(fixture, rng, 3)])
    tag = sk.fresh_tag()
    for nodes in (8, 64):
        action = CircleAction(fixture.system, flow_mode="numeric", nodes=nodes)
        dims.clear()
        batch = action.orbit(*_dual_state(points.T, np.eye(4)[:, :, None], tag))
        for i, coords in enumerate(points):
            single = action.orbit(*_dual_state(coords, np.eye(4), tag))
            for got, want in zip(batch.fast, single.fast):
                assert np.array_equal(got.val[i], want.val)
                assert np.array_equal(got.eps[:, i], want.eps)
        assert dims == [(3, 10)] + [(10,)] * 3


def test_numeric_orbit_outside_the_box_raises_a_typed_error(particle):
    # q2 = 0 lies outside the particle's box, which orbit does not check:
    # 1/q2² divides by zero on floats and gives nan on lanes, whose attempts
    # were once rejected until max_steps (50 M) ran out
    action = CircleAction(particle.system, flow_mode="numeric", nodes=8)
    pair = [np.array([0.1, 0.1]), np.array([0.3, 0.3])]
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="division by zero"):
            action.orbit([0.1, 0.3], [0.2, 0.0])
        with pytest.raises(NumericalError, match="nan .*lane 1"):
            action.orbit(pair, [np.array([0.2, 0.2]), np.array([1.0, 0.0])])


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
    # omega is an output of the traced field: after tracing, the oracle is
    # not called again, however many RHS calls the runs make
    calls, omega = [], particle.system.omega
    system = replace(particle.system, omega=lambda f, s: calls.append(1) or omega(f, s))
    action = CircleAction(system, flow_mode="numeric", nodes=8)
    m = particle.initial
    action.flow(0.1, m)
    traced = len(calls)
    action.flow(TWO_PI, m)
    pair = [np.array([c, c + 0.01]) for c in m.coords]
    action.orbit(pair[:2], pair[2:])
    assert len(calls) == traced


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


def test_numeric_orbit_rejects_nan_frequency_on_any_lane():
    action = CircleAction(scaled_oscillator(), flow_mode="numeric", nodes=8)
    ones = np.ones(3)
    with pytest.raises(NumericalError, match="positive"):
        action.orbit([ones, 0.5 * ones], [ones, np.array([1.0, np.nan, 2.0])])
    with pytest.raises(NumericalError, match="positive"):
        action.orbit([1.0, 0.5], [1.0, np.nan])


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_numeric_orbit_stops_at_its_last_sample(request, rng, fixture_name, monkeypatch):
    # the run to the last node takes the steps of the run to 2π up to its own
    # final step, clipped to end at the last node: the nodes before that step
    # are the same bits in both runs, and the last node is the run's end state
    fixture = request.getfixturevalue(fixture_name)
    runs = []

    def both_spans(field, y0, t_end, config, t_eval):
        traj = integrate(field, y0, t_end, config, t_eval=t_eval)
        runs.append((t_end, traj, integrate(field, y0, TWO_PI, config, t_eval=t_eval)))
        return traj

    monkeypatch.setattr(circle, "integrate", both_spans)
    points = np.stack([m.coords for m in sample_points(fixture, rng, 3)])
    action = CircleAction(fixture.system, flow_mode="numeric", nodes=8)
    orbit = action.orbit(list(points[:, :2].T), list(points[:, 2:].T))
    (t_end, last, full), = runs
    assert t_end == orbit.times[-1] < TWO_PI
    assert np.array_equal(last.states[:-1], full.states[:-1])
    assert np.max(np.abs(last.states[-1] - full.states[-1])) < 10.0 * circle.ORBIT_RTOL
    assert np.all(last.rhs_calls < full.rhs_calls)
    for i, samples in enumerate(orbit.fast):
        assert np.array_equal(samples, last.states[:, :, i].T)


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


# -- node count from the spectrum -----------------------------------------------

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
    # the node times of N are every (64/N)-th node time of 64, bit for bit
    points = np.stack([m.coords for m in sample_points(particle, rng, 4)])
    state = (list(points[:, :2].T), list(points[:, 2:].T))
    full = CircleAction(particle.system, nodes=64).orbit(*state)
    for n in (8, 16, 32):
        want = CircleAction(particle.system, nodes=n).orbit(*state)
        got = full.every(64 // n)
        assert got.nodes == n and np.array_equal(got.times, want.times)
        for a, b in zip(got.fast + got.slow, want.fast + want.slow):
            assert np.array_equal(a, b)


def test_nodes_must_be_power_of_two(pendulum):
    with pytest.raises(ValueError):
        CircleAction(pendulum.system, nodes=48)
    with pytest.raises(ValueError):
        CircleAction(pendulum.system, flow_mode="fancy")
