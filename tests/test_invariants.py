"""Hypothesis checks, the action construction, and the F1/F2 pipeline."""

import ast
import warnings
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adiakit import (CircleAction, InvariantSeries, NotFound,
                     NumericalError, PhasePoint, SlowFastSystem, UnresolvedQuadrature,
                     UnsupportedDerivative, UnsupportedOrder,
                     assemble, charged_particle, check_hypotheses, check_momentum_map,
                     check_period_energy, elastic_pendulum, f1, f2, grad_fast, grad_full,
                     lie_derivative, momentum_from_action, ty2_residual,
                     verify_transverse_momentum)
from adiakit import circle, invariants
from adiakit import kernel as sk
from adiakit.circle import resolved_value
from adiakit.invariants import d1j_coeffs, resolve_ty3, series_values
from adiakit.phase import positive_omega
from adiakit.sl2 import f2_closed

from conftest import (fail_every_tail_check, nondegenerate_system, sample_points,
                      theta_and_k1)


# -- structural checks -----------------------------------------------------------

@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_momentum_map_residuals(request, fixture_name, rng):
    fixture = request.getfixturevalue(fixture_name)
    for m in sample_points(fixture, rng, 20):
        assert check_momentum_map(fixture.system, m) <= 1e-8


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_action_is_oscillation_energy_over_frequency(request, fixture_name, rng):
    # an independent check on J: the fast-center oracle gives v_perp^2 = 2(H − H(center))
    fixture = request.getfixturevalue(fixture_name)
    for m in [fixture.initial] + sample_points(fixture, rng, 20):
        assert verify_transverse_momentum(fixture, m) <= 1e-12
    center = fixture.system.point(list(fixture.fast_center(fixture.initial.slow))
                                  + list(fixture.initial.slow))
    assert verify_transverse_momentum(fixture, center) <= 1e-12
    assert float(sk.value(fixture.system.J(*center.state()))) == pytest.approx(0.0, abs=1e-15)


def test_transverse_momentum_needs_a_fast_center(pendulum):
    with pytest.raises(NotFound, match="fast-center"):
        verify_transverse_momentum(replace(pendulum, fast_center=None), pendulum.initial)


def test_momentum_map_detects_corruption(pendulum, pendulum_action, rng):
    system = pendulum.system
    doubled = replace(system, J=lambda f, s: 2.0 * system.J(f, s))
    m = sample_points(pendulum, rng, 1)[0]
    residual = check_momentum_map(doubled, m)
    expected = float(np.linalg.norm(grad_fast(system, system.J, m)))
    assert residual == pytest.approx(expected, rel=1e-10)
    assert residual > 1e-8


def _adiabatic(system, action, m):
    """‖⟨d₁J⟩‖ at ``m``, as ``check_hypotheses`` reports it, resolved."""
    report = check_hypotheses(system, action, m)
    assert report.resolved
    return report.residuals["adiabatic"]


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_adiabatic_residuals(request, fixture_name, rng):
    fixture = request.getfixturevalue(fixture_name)
    action = CircleAction(fixture.system)
    for m in sample_points(fixture, rng, 20):
        assert _adiabatic(fixture.system, action, m) <= 1e-9


def test_adiabatic_gauge_shift_breaks_by_its_gradient(pendulum, pendulum_action, rng):
    # J -> J + p adds the constant slow 1-form dp, which survives averaging
    system = pendulum.system
    shifted = replace(system, J=lambda f, s: system.J(f, s) + s[0])
    m = sample_points(pendulum, rng, 1)[0]
    assert _adiabatic(shifted, pendulum_action, m) == pytest.approx(1.0, abs=1e-12)


def test_gauge_covariance_general_shift(pendulum, pendulum_action, rng):
    # adding c(slow) with constant d1c breaks the residual by exactly |d1c|
    system = pendulum.system
    shifted = replace(system, J=lambda f, s: system.J(f, s) + 0.3 * s[0] - 0.4 * s[1])
    m = sample_points(pendulum, rng, 1)[0]
    assert _adiabatic(shifted, pendulum_action, m) == pytest.approx(0.5, abs=1e-12)


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


@pytest.mark.parametrize("omega", [-1.0, 0.0, np.nan])
def test_action_from_primitive_rejects_a_nonpositive_frequency(omega):
    # the action divides by ω: a nonpositive or NaN ω raises instead of
    # giving a value of the wrong sign, an inf or a NaN
    def H(fast, slow):
        y, x = fast
        return 0.5 * (y * y + x * x)

    def flow(t, fast, slow):
        y, x = fast
        c, s = sk.cos(t), sk.sin(t)
        return [y * c - x * s, x * c + y * s]

    system = SlowFastSystem(r=1, k=1, H=H, omega=lambda f, s: omega, fast_flow=flow)
    with pytest.raises(NumericalError, match="positive"):
        momentum_from_action(system, CircleAction(system), PhasePoint([0.6, -0.4], [0.0, 0.0]))


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
            grads.append((momentum_from_action(system, pendulum_action, PhasePoint(hi, m.slow))
                          - momentum_from_action(system, pendulum_action, PhasePoint(lo, m.slow)))
                         / (2 * h))
        expected = grad_fast(system, system.J, m)
        assert np.allclose(grads, expected, atol=1e-6)


# -- corrections -------------------------------------------------------------------

def test_theta_and_k1_trivial_zeros():
    # no slow dependence in J: Theta = 0 and K1 = 0
    fx = elastic_pendulum(omega=1.0, gamma=0.0)
    action = CircleAction(fx.system)
    m = PhasePoint([0.4, 0.3], [0.1, 0.9])
    theta, k1 = theta_and_k1(fx.system, action, m)
    assert theta == pytest.approx([0.0, 0.0], abs=1e-14)
    assert k1 == pytest.approx(0.0, abs=1e-14)


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
    theta, k1 = theta_and_k1(system, action, m)
    assert np.linalg.norm(theta) > 1e-3
    assert k1 == pytest.approx(0.0, abs=1e-14)


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
    _, _, f2_vals = resolved_value(assemble(pendulum.system, action, 2).resolve_batch(
        np.stack([m.coords for m in pts])))
    closed = [float(sk.value(pendulum.closed_f2(*m.state()))) for m in pts]
    assert f2_vals == pytest.approx(closed, rel=1e-13, abs=1e-13)
    for constant_omega in (True, False):
        qs = nondegenerate_system(constant_omega)
        system = qs.system()
        coords = rng.uniform(-1.0, 1.0, size=(6, 4))
        series = assemble(system, CircleAction(system), 2)
        _, _, f2_vals = resolved_value(series.resolve_batch(coords))
        closed = [f2_closed(qs, PhasePoint(c[:2], c[2:])) for c in coords]
        assert f2_vals == pytest.approx(closed, rel=0.0, abs=1e-13)


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_numeric_flow_f2_matches_analytic(request, fixture_name):
    # the variational equation of numerically integrated orbits against the
    # dual lift of the analytic flow, at the same nodes (measured <= 1.3e-12)
    fixture = request.getfixturevalue(fixture_name)
    system, m = fixture.system, fixture.initial
    for nodes in (8, 64):
        # the particle needs 16 nodes, so both F2 are flagged unresolved at a cap of 8
        unresolved = fixture_name == "particle" and nodes == 8
        with pytest.warns(UnresolvedQuadrature) if unresolved else nullcontext():
            numeric = f2(system, CircleAction(system, flow_mode="numeric", nodes=nodes), m)
            analytic = f2(system, CircleAction(system, nodes=nodes), m)
        assert numeric == pytest.approx(analytic, rel=0.0, abs=1e-10)


# -- duals through the series ---------------------------------------------------------

def _term_oracle(system, action, index):
    series = InvariantSeries(system, action, index)
    return lambda fast, slow: series.terms_state(fast, slow)[index]


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_f2_state_passes_an_outer_dual_through(request, fixture_name):
    # the chain rule is kernel arithmetic, so a one-direction dual of an
    # outer pass comes out of F2 with its derivative
    fixture = request.getfixturevalue(fixture_name)
    system, action, coords = fixture.system, CircleAction(fixture.system), fixture.initial.coords
    n_fast, h = 2 * system.r, 1e-5
    for i in range(system.dim):
        tag = sk.fresh_tag()
        state = list(coords)
        state[i] = sk.Dual(state[i], 1.0, tag)
        out = _term_oracle(system, action, 2)(state[:n_fast], state[n_fast:])
        assert isinstance(out, sk.Dual) and out.tag == tag
        # Dual divides by multiplying with the inverse: the value may move by an ulp
        assert float(out.val) == pytest.approx(f2(system, action, fixture.initial), rel=1e-14)
        step = h * np.eye(system.dim)[i]
        central = (f2(system, action, system.point(coords + step))
                   - f2(system, action, system.point(coords - step))) / (2 * h)
        assert float(out.eps) == pytest.approx(central, rel=0.0, abs=1e-7)


def test_f2_rejects_an_outer_direction_axis(pendulum):
    # its axis would line up with F2's own lift: D = dim gave wrong
    # derivatives silently, any other D a numpy broadcasting error
    system, coords = pendulum.system, pendulum.initial.coords
    for directions in (2, system.dim):
        tag = sk.fresh_tag()
        state = [sk.Dual(c, e[:directions], tag) for c, e in zip(coords, np.eye(system.dim))]
        with pytest.raises(UnsupportedDerivative):
            _term_oracle(system, CircleAction(system), 2)(state[:2], state[2:])


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_numeric_f1_takes_a_scalar_seed(request, fixture_name):
    # DiffEngine seeds one coordinate with the scalar tangent 1.0: the numeric
    # orbit runs it as one direction of its variational equation
    fixture = request.getfixturevalue(fixture_name)
    system, m = fixture.system, fixture.initial
    numeric = grad_full(system, _term_oracle(
        system, CircleAction(system, flow_mode="numeric", nodes=16), 1), m)
    analytic = grad_full(system, _term_oracle(system, CircleAction(system, nodes=16), 1), m)
    assert numeric == pytest.approx(analytic, rel=0.0, abs=1e-9)


def test_numeric_f2_of_a_dual_point_raises_a_typed_error(pendulum):
    # F2 lifts its base point itself; a numeric orbit cannot carry the nested
    # tangent that an outer dual would need
    system = pendulum.system
    oracle = _term_oracle(system, CircleAction(system, flow_mode="numeric", nodes=8), 2)
    with pytest.raises(UnsupportedDerivative):
        grad_full(system, oracle, pendulum.initial)


def test_analytic_f2_samples_one_orbit_per_batch(pendulum, rng, monkeypatch):
    action = CircleAction(pendulum.system)
    calls = []
    orbit = action.orbit
    monkeypatch.setattr(action, "orbit", lambda *a, **kw: calls.append(1) or orbit(*a, **kw))
    coords = np.stack([m.coords for m in sample_points(pendulum, rng, 8)])
    counts = []
    for order in (1, 2):
        calls.clear()
        assemble(pendulum.system, action, order).resolve_batch(coords)
        counts.append(len(calls))
    assert counts == [1, 1]  # F1's plain orbit; at order 2 the one lifted orbit gives F1 and F2


def test_particle_f2_samples_orbits_at_8_then_16_nodes(particle, rng, monkeypatch):
    # the particle's profiles alias at 8 nodes, so the loop doubles once and
    # settles at 16: one orbit of the whole batch at the 8 nodes of 8, then one
    # at the 8 odd-phase nodes of 16, which 8 lacks
    action = CircleAction(particle.system)
    times = []
    orbit = action.orbit

    def counted(*args, **kwargs):
        samples = orbit(*args, **kwargs)
        times.append(samples.times)
        return samples

    monkeypatch.setattr(action, "orbit", counted)
    coords = np.stack([m.coords for m in sample_points(particle, rng, 8)])
    _, n, resolved = assemble(particle.system, action, 2).resolve_batch(coords)
    assert [len(t) for t in times] == [8, 8]
    assert np.array_equal(np.concatenate(times), circle.TWO_PI * np.r_[0:16:2, 1:16:2] / 16)
    assert (n, resolved) == (16, True)


def _settled_and_one_level(monkeypatch, call):
    """(``call()``, the one N its resolving loop settled at, ``call()`` again
    with the loop started at that N, so that it runs a single level)."""
    settled = []
    resolve = CircleAction.resolve

    def spy(self, *args, **kwargs):
        out = resolve(self, *args, **kwargs)
        settled.append(out[1])
        return out

    monkeypatch.setattr(CircleAction, "resolve", spy)
    nested = call()
    (n,) = set(settled)
    with monkeypatch.context() as patch:
        patch.setattr(circle, "FIRST_NODES", n)
        return nested, n, call()


@pytest.mark.parametrize("fixture_name, to_cap", [("particle", False), ("particle", True),
                                                  ("pendulum", True)])
@pytest.mark.parametrize("flow_mode", ["analytic", "numeric"])
def test_nested_levels_change_no_bit(request, rng, monkeypatch, fixture_name, to_cap, flow_mode):
    # node j of N is node 2j of 2N, bit for bit, so a loop that keeps each
    # level's pointwise arrays and adds the odd-phase nodes of the next returns
    # what one level at the N it settles at returns. The particle settles at 16;
    # with every tail check failing, both fixtures run on to the cap
    fixture = request.getfixturevalue(fixture_name)
    system = fixture.system
    points = sample_points(fixture, rng, 6)
    coords = np.stack([m.coords for m in points])
    action = CircleAction(system, flow_mode=flow_mode, nodes=32)
    if to_cap:
        fail_every_tail_check(monkeypatch)
    for order in (1, 2):
        (terms, n, resolved), settled, (want, *want_n) = _settled_and_one_level(
            monkeypatch, lambda: assemble(system, action, order).resolve_batch(coords))
        assert settled == n == (32 if to_cap else 16) and [n, resolved] == want_n
        assert resolved != to_cap
        for got, ref in zip(terms, want):
            assert np.array_equal(got, ref)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnresolvedQuadrature)
        got, n, want = _settled_and_one_level(
            monkeypatch, lambda: momentum_from_action(system, action, points[0]))
    assert got == want and n >= (32 if to_cap else 8)
    got, n, want = _settled_and_one_level(
        monkeypatch, lambda: check_hypotheses(system, action, points[0]))
    assert got == want and n >= (32 if to_cap else 8)


@pytest.mark.parametrize("fixture_name, f1_bound, f2_bound", [("pendulum", 3e-11, 3e-10),
                                                              ("particle", 1e-12, 5e-12)])
def test_numeric_terms_at_the_cap_follow_the_analytic_flow(request, rng, monkeypatch,
                                                           fixture_name, f1_bound, f2_bound):
    # with every tail check failing, a resolve at a cap of 64 reads its last
    # level's odd nodes off a closed run of 64 steps. Measured at these 20 box
    # points: numeric against analytic F1 1.5e-11 and F2 2.0e-10 (pendulum),
    # 1.7e-13 and 6.3e-13 (particle); read off the continuous extension of 32
    # steps, they were 6.0e-11, 5.9e-10, 2.0e-12 and 9.0e-12
    fixture = request.getfixturevalue(fixture_name)
    coords = np.stack([m.coords for m in sample_points(fixture, rng, 20)])
    fail_every_tail_check(monkeypatch)
    (_, f1_numeric, f2_numeric), (_, f1_analytic, f2_analytic) = (
        assemble(fixture.system, CircleAction(fixture.system, flow_mode=mode, nodes=64), 2)
        .resolve_batch(coords)[0] for mode in ("numeric", "analytic"))
    assert np.max(np.abs(f1_numeric - f1_analytic)) <= f1_bound
    assert np.max(np.abs(f2_numeric - f2_analytic)) <= f2_bound


def _part_shapes(block):
    """The shape of every array part of each kernel scalar of ``block``."""
    shapes = []
    for c in block:
        parts = [c]
        while parts:
            x = parts.pop()
            if isinstance(x, sk.Dual):
                parts += [x.val, x.eps]
            elif isinstance(x, np.ndarray):
                shapes.append(x.shape)
    return shapes


@pytest.mark.parametrize("flow_mode", ["analytic", "numeric"])
@pytest.mark.parametrize("order", [1, 2])
def test_frozen_slow_block_keeps_one_node(particle, rng, monkeypatch, flow_mode, order):
    # the flow moves the fast block only, so ω and the slow partials of H and J
    # see each slow coordinate, and every part of its duals, at one node
    on_orbit, slow_blocks = [], []
    omega = particle.system.omega

    def recording_omega(fast, slow):
        value = fast[0]
        while isinstance(value, sk.Dual):
            value = value.val
        if isinstance(value, np.ndarray) and value.ndim == 2:  # (points, nodes): an orbit
            on_orbit.append((value.shape[-1], _part_shapes(slow)))
        return omega(fast, slow)

    def recording_partials(system, orbit):
        slow_blocks.append((orbit.nodes, _part_shapes(orbit.slow)))
        return partials(system, orbit)

    partials = invariants._slow_partials
    monkeypatch.setattr(invariants, "_slow_partials", recording_partials)
    system = replace(particle.system, omega=recording_omega)
    coords = np.stack([m.coords for m in sample_points(particle, rng, 5)])
    _, n, resolved = assemble(system, CircleAction(system, flow_mode=flow_mode),
                              order).resolve_batch(coords)
    assert (n, resolved) == (16, True)
    # the slow partials at the nodes of 8 and at the 8 that 16 adds, ω once at 16
    assert [nodes for nodes, _ in slow_blocks] == [8, 8] and [n for n, _ in on_orbit] == [16]
    for _, shapes in on_orbit + slow_blocks:
        assert len(shapes) == 2 * order and all(shape[-2:] == (5, 1) for shape in shapes)


def test_analytic_levels_evaluate_each_node_column_once(particle, rng, monkeypatch):
    # at 16 nodes the loop flows and differentiates only the 8 odd-phase nodes
    # that 8 lacks: 16 node columns per point, not 8 + 16
    flowed, differentiated = [], []
    fast_flow = particle.system.fast_flow
    partials = type(invariants.DEFAULT_ENGINE).partials

    def counted_flow(t, fast, slow):
        flowed.append(np.size(t))
        return fast_flow(t, fast, slow)

    def counted_partials(engine, f, fast, slow, block):
        differentiated.append(np.shape(sk.value(fast[0]))[-1])
        return partials(engine, f, fast, slow, block)

    system = replace(particle.system, fast_flow=counted_flow)
    monkeypatch.setattr(type(invariants.DEFAULT_ENGINE), "partials", counted_partials)
    coords = np.stack([m.coords for m in sample_points(particle, rng, 5)])
    for order in (1, 2):
        flowed.clear()
        differentiated.clear()
        _, n, resolved = assemble(system, CircleAction(system), order).resolve_batch(coords)
        assert (n, resolved) == (16, True)
        assert flowed == [8, 8] and differentiated == [8, 8, 8, 8]  # dH and dJ at each level


@pytest.mark.parametrize("flow_mode", ["analytic", "numeric"])
def test_oneform_and_ty2_levels_differentiate_each_node_column_once(particle, rng, monkeypatch,
                                                                   flow_mode):
    # with every tail check failing, the loop runs on to the cap of 64: each
    # level differentiates only the nodes it adds, 64 node columns per
    # partials pass, not 8 + 16 + 32 + 64
    differentiated = []
    partials = type(invariants.DEFAULT_ENGINE).partials

    def counted_partials(engine, f, fast, slow, block):
        differentiated.append(np.shape(sk.value(fast[0]))[-1])
        return partials(engine, f, fast, slow, block)

    fail_every_tail_check(monkeypatch)
    system = particle.system
    action = CircleAction(system, flow_mode=flow_mode)
    m = sample_points(particle, rng, 1)[0]
    action.flow(1.0, m)  # a numeric flow traces its field first, on scalars
    monkeypatch.setattr(type(invariants.DEFAULT_ENGINE), "partials", counted_partials)
    _, n, resolved = action.resolve_slow_oneform(d1j_coeffs(system), m)
    assert (n, resolved) == (64, False)
    assert differentiated == [8, 8, 16, 32]  # dJ at each level
    differentiated.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnresolvedQuadrature)
        ty2_residual(system, action, m)
    assert differentiated == [8, 8, 8, 8, 16, 16, 32, 32]  # dH and dJ at each level


def test_particle_terms_equal_bitwise_at_caps_16_and_64(particle, rng):
    coords = np.stack([m.coords for m in sample_points(particle, rng, 20)])
    (low, *low_n), (high, *high_n) = [
        assemble(particle.system, CircleAction(particle.system, nodes=cap), 2).resolve_batch(coords)
        for cap in (16, 64)]
    assert low_n == high_n == [16, True]
    for a, b in zip(low, high):
        assert np.array_equal(a, b)


# every public evaluation that returns its value without resolve's flag
FLAGLESS = {
    "terms": lambda s, a, m: InvariantSeries(s, a, 2).terms(m),
    "terms_state": lambda s, a, m: InvariantSeries(s, a, 2).terms_state(*m.state()),
    "evaluate": lambda s, a, m: InvariantSeries(s, a, 1).evaluate(m, 0.1),
    "evaluate_batch": lambda s, a, m: InvariantSeries(s, a, 1).evaluate_batch(m.coords[None], 0.1),
    "f1": lambda s, a, m: f1(s, a, m),
    "f2": lambda s, a, m: f2(s, a, m),
    "momentum_from_action": lambda s, a, m: momentum_from_action(s, a, m),
    "ty2_residual": lambda s, a, m: ty2_residual(s, a, m),
}


def test_flagless_table_lists_every_value_only_entry_point():
    # the functions of the package that drop resolve's flag through resolved_value
    droppers = set()
    for path in Path(circle.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(call, ast.Call) and getattr(call.func, "id", None) == "resolved_value"
                    for call in ast.walk(node)):
                droppers.add(node.name)
    assert droppers == set(FLAGLESS)


@pytest.mark.parametrize("name", sorted(FLAGLESS))
def test_flagless_entry_points_warn_when_unresolved(particle, name):
    # the particle's profiles carry harmonics above N/4 = 1 at 4 nodes, so
    # every evaluation there is unresolved, and says so once, at the line that
    # called the entry point; at the default cap none is, and none warns
    system, m = particle.system, particle.initial
    with pytest.warns(UnresolvedQuadrature, match="node cap 4$") as caught:
        FLAGLESS[name](system, CircleAction(system, nodes=4), m)
    assert len(caught) == 1
    assert caught[0].filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        FLAGLESS[name](system, CircleAction(system), m)


def test_particle_f2_warns_at_cap_8_and_average_of_d1j_at_cap_4(particle):
    # F2 needs 16 nodes and <d1J> needs 8; below those caps the values alias
    system, m = particle.system, particle.initial
    with pytest.warns(UnresolvedQuadrature, match="node cap 8$"):
        aliased = f2(system, CircleAction(system, nodes=8), m)
    with pytest.warns(UnresolvedQuadrature, match="node cap 4$"):
        resolved_value(CircleAction(system, nodes=4).resolve_slow_oneform(d1j_coeffs(system), m))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        resolved = f2(system, CircleAction(system), m)
        resolved_value(CircleAction(system).resolve_slow_oneform(d1j_coeffs(system), m))
    assert aliased != resolved


def test_numeric_loop_integrates_once_and_settles_where_the_analytic_one_does(
        pendulum, particle, rng, monkeypatch):
    # a numeric orbit is one closed run to the cap's nodes, and each level of
    # the loop reads the nodes it adds off that run. Its tails carry the
    # closure error, below the numeric tolerance
    runs = []
    fixed_steps = circle.fixed_steps
    monkeypatch.setattr(circle, "fixed_steps",
                        lambda *a, **kw: runs.append(1) or fixed_steps(*a, **kw))
    for fixture, nodes in ((pendulum, 8), (particle, 16)):
        coords = np.stack([m.coords for m in sample_points(fixture, rng, 3)])
        runs.clear()
        action = CircleAction(fixture.system, flow_mode="numeric")
        _, n, resolved = assemble(fixture.system, action, 2).resolve_batch(coords)
        assert (n, resolved, len(runs)) == (nodes, True, 1)


def test_numeric_f2_integrates_each_orbit_once(pendulum, rng, monkeypatch):
    # F1 and F2 come from one dual orbit (with its variational equation):
    # one lane per point, in one run per batch, counted in points
    runs = []
    fixed_steps = circle.fixed_steps

    def counted(field, y0, *args, **kwargs):
        runs.append(len(y0))
        return fixed_steps(field, y0, *args, **kwargs)

    monkeypatch.setattr(circle, "fixed_steps", counted)
    action = CircleAction(pendulum.system, flow_mode="numeric", nodes=8)
    points = sample_points(pendulum, rng, 2)
    assemble(pendulum.system, action, 2).resolve_batch(np.stack([m.coords for m in points]))
    assert runs == [2]
    runs.clear()
    f1(pendulum.system, action, points[0])
    f2(pendulum.system, action, points[0])
    assert runs == [1, 1]


def test_f1_is_the_same_at_orders_one_and_two(pendulum, particle, rng):
    # order 1 reads F1 off the plain orbit, order 2 off the value part of its
    # lifted orbit; a numeric orbit's fast columns take the same fixed steps
    # in both, as a batch (lanes) and as one point.
    # The pendulum's oracles divide by no dual, so the bits agree; a Dual
    # quotient's value is x·(1/y), which moves the particle's F1 by rounding
    # (measured <= 1.1e-14 relative, and 3.1e-17 on a numeric orbit)
    for flow_mode, points, particle_bounds in (("analytic", 8, (1e-13, 0.0)),
                                               ("numeric", 8, (0.0, 1e-15)),
                                               ("numeric", 1, (0.0, 1e-15))):
        for fixture, (rel, tol) in ((pendulum, (0.0, 0.0)), (particle, particle_bounds)):
            coords = np.stack([m.coords for m in sample_points(fixture, rng, points)])
            action = CircleAction(fixture.system, flow_mode=flow_mode)
            by_order = [resolved_value(assemble(fixture.system, action, order)
                                       .resolve_batch(coords))[1] for order in (1, 2)]
            assert np.allclose(by_order[0], by_order[1], rtol=rel, atol=tol)
            assert fixture is particle or np.array_equal(by_order[0], by_order[1])


def test_nan_frequency_raises(particle):
    # q2 = NaN makes the particle's ω NaN, which fails ω > 0: NumericalError,
    # not NaN terms
    coords = np.stack([particle.initial.coords] * 2)
    coords[1, 3] = np.nan
    for order in (1, 2):
        with pytest.raises(NumericalError):
            assemble(particle.system, CircleAction(particle.system), order).resolve_batch(coords)


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
def test_numeric_momentum_integrates_shifted_orbits_as_lanes(request, fixture_name, monkeypatch):
    fixture = request.getfixturevalue(fixture_name)
    system, m = fixture.system, fixture.initial
    runs = []
    fixed_steps = circle.fixed_steps

    def counted(field, y0, *args, **kwargs):
        runs.append(len(y0))
        return fixed_steps(field, y0, *args, **kwargs)

    monkeypatch.setattr(circle, "fixed_steps", counted)
    # the closed orbit at M = 32 is off the analytic value by 4.3e-14 (pendulum)
    # and 3.1e-15 (particle); adaptive steps needed rtol 1e-12 for this bound
    numeric = CircleAction(system, flow_mode="numeric", nodes=16)
    value = momentum_from_action(system, numeric, m)
    assert runs == [1]  # one dual orbit of m carries the fast derivatives of the flow
    analytic = momentum_from_action(system, CircleAction(system, nodes=16), m)
    assert value == pytest.approx(analytic, rel=0.0, abs=1e-12)


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


def _ty3(system, action, m):
    """F₂'s homological residual at ``m`` (``resolve_ty3``)."""
    return resolved_value(resolve_ty3(system, action, m))[1]


def test_homological_residuals(pendulum, particle, rng):
    for fixture in (pendulum, particle):
        action = CircleAction(fixture.system)
        for m in sample_points(fixture, rng, 8):
            assert ty2_residual(fixture.system, action, m) <= 1e-12
        m = sample_points(fixture, rng, 1)[0]
        assert _ty3(fixture.system, action, m) <= 1e-12
    # omega varying with the slow variables, where F2 needs the <K1>/omega part
    system = nondegenerate_system(constant_omega=False).system()
    action = CircleAction(system)
    for coords in rng.uniform(-0.8, 0.8, size=(2, 4)):
        assert _ty3(system, action, PhasePoint(coords[:2], coords[2:])) <= 1e-12


@pytest.mark.parametrize("fixture_name", ["pendulum", "particle"])
@pytest.mark.parametrize("flow_mode", ["analytic", "numeric"])
def test_ty3_residual_at_rounding_and_f2_bitwise(request, fixture_name, flow_mode):
    # the defect is (2/omega)<{H, F1}_1>, read off the one orbit F2 samples:
    # no step along the flow, and F2 is the series' own value, bit for bit
    fixture = request.getfixturevalue(fixture_name)
    system, m = fixture.system, fixture.initial
    action = CircleAction(system, flow_mode=flow_mode)
    (value, residual), n, resolved = resolve_ty3(system, action, m)
    assert resolved and residual <= 1e-12 and _ty3(system, action, m) == residual
    assert value == f2(system, action, m)
    assert (n, resolved) == InvariantSeries(system, action, 2).resolve_point(m)[1:]


def test_ty3_residual_sees_a_dropped_k1_average(rng, monkeypatch):
    # F1 without <K1> still solves its own homological equation, but {H, F1}_1
    # then has a nonzero average when omega varies with the slow variables,
    # and the second-order defect reads it (3.6e-4 at this point)
    def f1_nodes_without_k1(system, orbit, dh, dj):
        omega = positive_omega(system, orbit.fast, orbit.slow)
        return -circle.s_at_nodes(invariants._bracket1_profile(dh, dj, orbit)) / omega

    system = nondegenerate_system(constant_omega=False).system()
    m = PhasePoint(*np.split(rng.uniform(-0.8, 0.8, 4), 2))
    assert _ty3(system, CircleAction(system), m) <= 1e-12
    monkeypatch.setattr(invariants, "_f1_nodes", f1_nodes_without_k1)
    assert _ty3(system, CircleAction(system), m) > 1e-6


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


def test_flat_bracket_exact_on_numeric_path():
    # the variational equation gives exact slow derivatives too: the tangents
    # along q are exactly 0, so the bracket and F2 come out 0, silently
    system = _flat_bracket_system()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(f2(system, CircleAction(system, flow_mode="numeric", nodes=8),
                      FLAT_POINT)) <= 1e-14


def test_flat_bracket_exact_on_analytic_path():
    # exact slow derivatives: F2 = 0, silently
    system = _flat_bracket_system()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(f2(system, CircleAction(system), FLAT_POINT)) <= 1e-14


# The ids are the names of the two F2 readings this test once covered; each now
# names a public route into the one F2: "ai3" evaluates f2 itself, "ty3" the
# second-order homological residual, which differentiates F2 along the flow.
# Both are exactly 0 on the decoupled pendulum, with the analytic flow and
# with the numeric one (variational equation), and nothing warns.
@pytest.mark.parametrize("evaluate", [
    pytest.param(f2, id="ai3"),
    pytest.param(_ty3, id="ty3"),
])
def test_f2_exact_on_decoupled_and_silent_at_adjudication_point(evaluate, monkeypatch):
    m = PhasePoint([1.0, 0.0], [1.0, 1.0])
    monkeypatch.setattr(circle, "ORBIT_RTOL", 1e-8)
    monkeypatch.setattr(circle, "ORBIT_ATOL", 1e-10)
    modes = [{}, {"flow_mode": "numeric", "nodes": 8}]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode in modes:
            # decoupled pendulum: F1 is identically zero, and so is F2
            fx = elastic_pendulum(omega=1.0, gamma=0.0)
            action = CircleAction(fx.system, **mode)
            for point in (fx.initial, m):
                assert evaluate(fx.system, action, point) == 0.0
            # coupled pendulum at the adjudication point
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
    return lambda fast, slow: series_values(series.terms_state(fast, slow), eps, series.order)


ORDER_EPS_GRID = np.array([0.2, 0.1, 0.05, 0.025])


def test_series_lie_derivative_order_scaling():
    fx = elastic_pendulum(omega=1.0, gamma=1.0)
    action = CircleAction(fx.system)
    system = fx.system
    series = assemble(system, action, 2)
    m = PhasePoint([1.0, 0.0], [1.0, 1.0])
    values = [abs(lie_derivative(system, _series_oracle(series, eps), m, eps))
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
    mags = [abs(lie_derivative(system, _series_oracle(series, eps), m, eps))
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
    for eps in ORDER_EPS_GRID:
        assert abs(lie_derivative(system, _series_oracle(series, eps), m, eps)) <= 1e-14

        def closed(fast, slow, eps=eps):
            return system.J(fast, slow) + eps * fx.closed_f1(fast, slow)

        assert abs(lie_derivative(system, closed, m, eps)) <= 1e-14
