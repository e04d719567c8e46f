"""Gradients, Poisson brackets and Hamiltonian fields."""

import numpy as np
import pytest

from adiakit import (DomainError, NumericalError, PhasePoint,
                     charged_particle, elastic_pendulum,
                     field_fast, field_full, field_slow, grad_fast, grad_full,
                     grad_slow)
from adiakit import kernel as sk
from adiakit.phase import DEFAULT_ENGINE, bracket_of_partials
from adiakit.sl2 import QuadraticSystem, Sl2Field

from conftest import random_polynomial

def point(y, x, p, q):
    return PhasePoint([y, x], [p, q])


# -- gradients ---------------------------------------------------------------

def test_grad_fast_pendulum_example():
    system = elastic_pendulum(omega=1.0, gamma=2.0).system
    # (p,q,y,x) = (0,1,0,0): dH/dx = x + (gamma/2) q^2 = 1
    m = point(0.0, 0.0, 0.0, 1.0)
    assert grad_fast(system, system.H, m) == pytest.approx([0.0, 1.0])


def test_grad_fast_trivial_cases():
    system = elastic_pendulum().system
    m = point(3.0, 0.5, 0.2, 0.1)
    assert grad_fast(system, lambda f, s: 7.0, m) == pytest.approx([0.0, 0.0])
    assert grad_fast(system, lambda f, s: f[0] * f[0], m) == pytest.approx([6.0, 0.0])


def test_grad_slow_pendulum_example():
    system = elastic_pendulum(omega=1.0, gamma=2.0).system
    m = point(0.0, 0.0, 0.0, 1.0)
    assert grad_slow(system, system.H, m) == pytest.approx([0.0, 1.0])


def test_grad_slow_trivial_cases():
    from adiakit import SlowFastSystem

    system = SlowFastSystem(r=1, k=1, H=lambda f, s: 0.0, omega=lambda f, s: 1.0)
    m = PhasePoint([0.0, 0.0], [2.0, 5.0])
    assert grad_slow(system, lambda f, s: f[0] + f[1] ** 2, m) == pytest.approx([0.0, 0.0])
    assert grad_slow(system, lambda f, s: s[0] * s[1], m) == pytest.approx([5.0, 2.0])


def test_fd_and_dual_gradients_agree(rng):
    system = elastic_pendulum(gamma=0.7).system
    for _ in range(5):
        poly = random_polynomial(rng)
        coords = rng.uniform(-1.5, 1.5, 4)
        m = PhasePoint(coords[:2], coords[2:])
        h = 1e-5
        fd = [(poly(*PhasePoint.from_coords(coords + h * e, 1, 1).state())
               - poly(*PhasePoint.from_coords(coords - h * e, 1, 1).state())) / (2 * h)
              for e in np.eye(4)]
        assert np.allclose(grad_full(system, poly, m), fd, atol=1e-6)


# -- brackets -----------------------------------------------------------------

def bracket0(system, f, g, m):
    """Fast bracket {f, g}₀ at ``m``, from the fast gradients."""
    return float(bracket_of_partials(grad_fast(system, f, m), grad_fast(system, g, m)))


def bracket1(system, f, g, m):
    """Slow bracket {f, g}₁ at ``m``, from the slow gradients."""
    return float(bracket_of_partials(grad_slow(system, f, m), grad_slow(system, g, m)))


def test_bracket0_canonical_pair(pendulum):
    m = point(0.3, -0.2, 0.5, 1.0)
    assert bracket0(pendulum.system, lambda f, s: f[0], lambda f, s: f[1], m) == pytest.approx(1.0)


def test_bracket0_antisymmetry_and_self(pendulum, rng):
    system = pendulum.system
    for _ in range(10):
        f, g = random_polynomial(rng), random_polynomial(rng)
        coords = rng.uniform(-1.0, 1.0, 4)
        m = PhasePoint(coords[:2], coords[2:])
        assert bracket0(system, f, g, m) == pytest.approx(-bracket0(system, g, f, m), abs=1e-12)
        assert bracket1(system, f, g, m) == pytest.approx(-bracket1(system, g, f, m), abs=1e-12)
        assert bracket0(system, f, f, m) == pytest.approx(0.0, abs=1e-12)


def test_bracket0_h_with_momentum_map_vanishes(pendulum, rng):
    system = pendulum.system
    for _ in range(10):
        coords = rng.uniform(-1.0, 1.0, 4)
        m = PhasePoint(coords[:2], coords[2:])
        assert bracket0(system, system.H, system.J, m) == pytest.approx(0.0, abs=1e-12)


def test_bracket1_canonical_pair_and_fast_only(pendulum):
    system = pendulum.system
    m = point(0.4, 0.1, 0.7, -0.3)
    assert bracket1(system, lambda f, s: s[0], lambda f, s: s[1], m) == pytest.approx(1.0)
    assert bracket1(system, lambda f, s: f[0] ** 2, lambda f, s: f[1], m) == pytest.approx(0.0)


def test_bracket1_pendulum_matches_homological_rhs():
    # {H,J}_1 must equal -omega * L_Y F1 with F1 the closed-form correction
    fx = elastic_pendulum(omega=1.0, gamma=1.0)
    system = fx.system
    m = point(1.0, 0.0, 1.0, 1.0)  # (p,q,y,x) = (1,1,1,0)
    hj = bracket1(system, system.H, system.J, m)
    assert hj == pytest.approx(0.5)

    from adiakit import CircleAction
    action = CircleAction(system)
    h = 1e-6
    lf = (fx.closed_f1(*action.flow(h, m).state())
          - fx.closed_f1(*action.flow(-h, m).state())) / (2 * h)
    assert hj == pytest.approx(-1.0 * lf, abs=1e-8)


def test_leibniz_rule(pendulum, rng):
    system = pendulum.system
    for _ in range(8):
        f, g, h = (random_polynomial(rng) for _ in range(3))
        coords = rng.uniform(-1.0, 1.0, 4)
        m = PhasePoint(coords[:2], coords[2:])
        gh = lambda fast, slow: g(fast, slow) * h(fast, slow)
        lhs = bracket0(system, f, gh, m)
        rhs = (sk.value(g(*m.state())) * bracket0(system, f, h, m)
               + sk.value(h(*m.state())) * bracket0(system, f, g, m))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def _random_quadratic(rng):
    c = rng.uniform(-1.0, 1.0, size=(4, 4))
    c = (c + c.T) / 2.0
    lin = rng.uniform(-1.0, 1.0, 4)

    def quad(fast, slow):
        v = [fast[0], fast[1], slow[0], slow[1]]
        total = 0.0
        for i in range(4):
            total = total + lin[i] * v[i]
            for j in range(4):
                total = total + c[i, j] * v[i] * v[j]
        return total

    return quad


def test_jacobi_identity_quadratics(pendulum, rng):
    system = pendulum.system

    def br(f, g):
        return lambda fast, slow: _bracket_as_oracle(f, g, fast, slow)

    for _ in range(4):
        f, g, h = (_random_quadratic(rng) for _ in range(3))
        coords = rng.uniform(-0.8, 0.8, 4)
        m = PhasePoint(coords[:2], coords[2:])
        total = (bracket0(system, f, br(g, h), m)
                 + bracket0(system, g, br(h, f), m)
                 + bracket0(system, h, br(f, g), m))
        assert total == pytest.approx(0.0, abs=1e-8)


def _bracket_as_oracle(f, g, fast, slow):
    # fast bracket {f, g}_0 on a raw (possibly dual-lifted) state
    return bracket_of_partials(DEFAULT_ENGINE.partials(f, fast, slow, "fast"),
                               DEFAULT_ENGINE.partials(g, fast, slow, "fast"))


# -- Hamiltonian fields --------------------------------------------------------

def test_field_fast_pendulum_printed():
    system = elastic_pendulum(omega=1.0, gamma=1.0).system
    m = point(0.0, 0.0, 0.0, 1.0)  # (p,q,y,x) = (0,1,0,0)
    assert field_fast(system, m) == pytest.approx([-0.5, 0.0])


def test_field_fast_charged_particle_printed():
    system = charged_particle(b=1.0, lam=0.0).system
    # (p2,q2,p3,q3) = (0,1,1,0): fast (p3,q3), slow (p2,q2)
    m = PhasePoint([1.0, 0.0], [0.0, 1.0])
    assert field_fast(system, m) == pytest.approx([0.0, 1.0])


def test_field_fast_no_fast_dependence():
    system = elastic_pendulum().system
    flat = lambda f, s: 0.5 * (s[0] ** 2 + s[1] ** 2)
    from dataclasses import replace
    system = replace(system, H=flat)
    m = point(0.4, 0.2, 0.3, 0.8)
    assert field_fast(system, m) == pytest.approx([0.0, 0.0])


def test_field_slow_pendulum_printed():
    system = elastic_pendulum(omega=1.0, gamma=3.0).system
    m = point(0.0, 0.0, 1.0, 1.0)  # (p,q,y,x) = (1,1,0,0); x = 0 kills gamma
    assert field_slow(system, m) == pytest.approx([-1.0, 1.0])


def test_field_slow_quadratic_family_drift():
    qs = QuadraticSystem(h=lambda w: w[0], omega=lambda w: 1.0,
                         field=Sl2Field.constant(0.0, -1.0, 1.0))
    system = qs.system()
    m = point(0.3, -0.6, 0.9, 0.2)
    assert field_slow(system, m) == pytest.approx([0.0, 1.0])


def test_field_full_scaling():
    system = elastic_pendulum(omega=1.0, gamma=3.0).system
    m = point(0.0, 0.0, 1.0, 1.0)
    full0 = field_full(system, m, 0.0)
    assert full0[2:] == pytest.approx([0.0, 0.0])
    full = field_full(system, m, 0.1)
    assert full[2:] == pytest.approx([-0.1, 0.1])
    assert full[:2] == pytest.approx(field_fast(system, m))


def test_energy_is_exact_invariant(pendulum, rng):
    system = pendulum.system
    for eps in (0.0, 0.3, 1.0):
        coords = rng.uniform(-1.0, 1.0, 4)
        m = PhasePoint(coords[:2], coords[2:])
        lie = float(np.dot(grad_full(system, system.H, m), field_full(system, m, eps)))
        assert lie == pytest.approx(0.0, abs=1e-10)


# -- validity ------------------------------------------------------------------

def test_domain_error_outside_box(particle):
    system = particle.system
    outside = PhasePoint([0.0, 0.0], [0.0, 0.1])  # q2 below the box
    with pytest.raises(DomainError):
        grad_fast(system, system.H, outside)


def test_numerical_error_on_nonfinite(pendulum):
    system = pendulum.system
    bad = lambda f, s: sk.sqrt(f[0])  # nan value and nan derivative for y < 0
    m = point(-1.0, 0.0, 0.0, 0.0)
    with pytest.raises(NumericalError), np.errstate(invalid="ignore"):
        grad_fast(system, bad, m)


def test_phase_point_invariants():
    with pytest.raises(NumericalError):
        PhasePoint([np.nan, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        PhasePoint([1.0, 2.0, 3.0], [0.0, 0.0])
    m = PhasePoint([1.0, 2.0], [3.0, 4.0])
    assert m.coords == pytest.approx([1.0, 2.0, 3.0, 4.0])
    assert PhasePoint.from_coords(m.coords, 1, 1) == m

