"""Built-in model systems with closed-form reference data.

Two physical fixtures are registered:

``elastic_pendulum``
    Spring pendulum written in slow-fast form. The swing (p, q) is slow, the
    spring oscillation (y, x) is fast with constant frequency Ω; the printed
    first and second order corrections to the fast action are carried along
    as closed-form oracles.

``charged_particle``
    Charged particle in a slowly contracting force-free magnetic field, after
    reduction to one slow pair (p2, q2) and one fast gyration pair (p3, q3).
    The closed-form first-order correction to the magnetic-moment action is
    carried as an oracle; there is no printed second-order reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import kernel as sk
from .errors import InvalidParameter, NotFound
from .phase import Box, PhasePoint, SlowFastSystem

__all__ = [
    "Fixture",
    "elastic_pendulum",
    "charged_particle",
    "list_fixtures",
    "get_fixture",
    "verify_transverse_momentum",
]

DEFAULT_EPS_GRID = (0.2, 0.1, 0.05, 0.025, 0.0125)


@dataclass(frozen=True)
class Fixture:
    """A registered system plus its reference oracles and sampling defaults."""

    name: str
    system: SlowFastSystem
    params: dict
    initial: PhasePoint
    eps_grid: tuple = DEFAULT_EPS_GRID
    closed_f1: Optional[Callable] = None
    closed_f2: Optional[Callable] = None
    fast_center: Optional[Callable] = None  # slow -> fast coords of the orbit center


def elastic_pendulum(omega: float = 1.0, gamma: float = 1.0,
                     omega_scale: float = 1.0) -> Fixture:
    """Spring pendulum in slow-fast form.

    ``omega`` is the fast spring frequency Ω (> 0) and ``gamma`` the
    swing-spring coupling. ``omega_scale`` deliberately corrupts the reported
    frequency function (validation hook for hypothesis-check failure paths;
    leave at 1.0 for physics).
    """
    if not omega > 0.0:
        raise InvalidParameter("pendulum frequency must be positive")
    om, ga = float(omega), float(gamma)
    shift = ga / (2.0 * om ** 2)  # fast center offset is -shift * q^2

    def H(fast, slow):
        y, x = fast
        p, q = slow
        return 0.5 * (p * p + q * q) + 0.5 * (y * y + om ** 2 * x * x + ga * q * q * x)

    def omega_fn(fast, slow):
        return om * omega_scale

    def J(fast, slow):
        y, x = fast
        p, q = slow
        u = x + shift * q * q
        return 0.5 * om * u * u + y * y / (2.0 * om)

    def fast_flow(t, fast, slow):
        # rotation with frequency 1 about the shifted center x0 = -shift q^2
        y, x = fast
        p, q = slow
        u = x + shift * q * q
        c, s = sk.cos(t), sk.sin(t)
        return [y * c - om * u * s, u * c + (y / om) * s - shift * q * q]

    def closed_f1(fast, slow):
        y, x = fast
        p, q = slow
        return (ga / om ** 3) * p * q * y

    def closed_f2(fast, slow):
        y, x = fast
        p, q = slow
        u = x + shift * q * q
        coeff = (ga / (4.0 * om ** 3)) * (
            ga * q * q * u * (x - 3.0 * shift * q * q)
            + 4.0 * (q * q - p * p) * u
            - (ga / om ** 2) * q * q * y * y
        )
        return 2.0 * coeff  # printed value is the eps^2/2 coefficient

    def fast_center(slow):
        p, q = slow
        return [0.0, -shift * sk.value(q) ** 2]

    box = Box(low=[-4.0, -4.0, -4.0, -4.0], high=[4.0, 4.0, 4.0, 4.0])
    system = SlowFastSystem(r=1, k=1, H=H, omega=omega_fn, J=J,
                            fast_flow=fast_flow, domain=box, name="elastic_pendulum")
    return Fixture(
        name="elastic_pendulum",
        system=system,
        params={"omega": om, "gamma": ga, "omega_scale": float(omega_scale)},
        initial=PhasePoint([0.5, 0.0], [0.1, 1.0]),
        closed_f1=closed_f1,
        closed_f2=closed_f2,
        fast_center=fast_center,
    )


def charged_particle(b: float = 1.0, lam: float = 0.3) -> Fixture:
    """Charged particle in a slowly varying force-free field, reduced form.

    ``b`` is the field strength (> 0) and ``lam`` the conserved momentum of
    the cyclic angle. Fast pair: gyration (p3, q3); slow pair: (p2, q2) along
    the field line. The domain box keeps q2 away from the axis singularity.
    """
    if not b > 0.0:
        raise InvalidParameter("field strength must be positive")
    B, lm = float(b), float(lam)

    def H(fast, slow):
        p3, q3 = fast
        p2, q2 = slow
        return 0.5 * (
            p2 * p2
            + p3 * p3 * (B * B * q2 * q2 + lm * lm / (q2 * q2))
            + 2.0 * lm * (p2 / q2) * p3
            + q3 * q3 / (q2 * q2)
        )

    def omega_fn(fast, slow):
        p2, q2 = slow
        return sk.sqrt(B * B * q2 ** 4 + lm * lm) / (q2 * q2)

    def _gyro(fast, slow):
        # gyration amplitude pair (a, b) about the shifted center
        p3, q3 = fast
        p2, q2 = slow
        w = sk.sqrt(B * B * q2 ** 4 + lm * lm)  # = omega * q2^2
        return p3 + lm * p2 * q2 / (w * w), q3 / w, w

    def J(fast, slow):
        ga, gb, w = _gyro(fast, slow)
        return 0.5 * w * (ga * ga + gb * gb)

    def fast_flow(t, fast, slow):
        p3, q3 = fast
        p2, q2 = slow
        ga, gb, w = _gyro(fast, slow)
        c, s = sk.cos(t), sk.sin(t)
        center = -lm * p2 * q2 / (w * w)
        return [ga * c - gb * s + center, w * (ga * s + gb * c)]

    def closed_f1(fast, slow):
        p3, q3 = fast
        p2, q2 = slow
        w = sk.sqrt(B * B * q2 ** 4 + lm * lm)
        omega = w / (q2 * q2)
        return -(q3 / (q2 ** 10 * omega ** 5)) * (
            p2 * p3 * q2 ** 9 * B ** 4
            + lm * q2 ** 4 * (lm * lm * p3 * p3 - 2.0 * p2 * p2 * q2 * q2) * B * B
            + lm ** 3 * (q3 * q3 + (p2 * q2 + lm * p3) ** 2)
        )

    def fast_center(slow):
        p2, q2 = slow
        w2 = B * B * sk.value(q2) ** 4 + lm * lm
        return [-lm * sk.value(p2) * sk.value(q2) / w2, 0.0]

    box = Box(low=[-1.0, -1.0, -1.0, 0.5], high=[1.0, 1.0, 1.0, 2.0])
    system = SlowFastSystem(r=1, k=1, H=H, omega=omega_fn, J=J,
                            fast_flow=fast_flow, domain=box, name="charged_particle")
    return Fixture(
        name="charged_particle",
        system=system,
        params={"b": B, "lam": lm},
        initial=PhasePoint([0.1, 0.3], [0.2, 1.0]),
        closed_f1=closed_f1,
        fast_center=fast_center,
    )


def verify_transverse_momentum(fixture: Fixture, m: PhasePoint) -> float:
    """Residual of the gyration identity J = v_perp^2 / (2ω).

    ``v_perp^2`` is twice the fast oscillation energy: the Hamiltonian at
    ``m`` minus its value with the fast pair moved to the orbit center at the
    same slow point (this includes the momentum shift of the center). For a
    harmonic fast block the action equals oscillation energy over frequency,
    which is the transverse-momentum form of the magnetic moment.
    """
    if fixture.fast_center is None:
        raise NotFound(f"fixture {fixture.name!r} has no fast-center oracle")
    system = fixture.system
    system.require_in_domain(m)
    fast, slow = m.state()
    center = fixture.fast_center(slow)
    v_perp_sq = 2.0 * (sk.value(system.H(fast, slow)) - sk.value(system.H(center, slow)))
    omega = sk.value(system.omega(fast, slow))
    return float(abs(sk.value(system.J(fast, slow)) - v_perp_sq / (2.0 * omega)))


_REGISTRY = {
    "elastic_pendulum": elastic_pendulum,
    "charged_particle": charged_particle,
}


def list_fixtures():
    """Registered fixture names."""
    return sorted(_REGISTRY)


def get_fixture(name: str, **params) -> Fixture:
    """Build a registered fixture; unknown names raise :class:`NotFound`."""
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise NotFound(f"unknown fixture {name!r}; available: {list_fixtures()}") from None
    return builder(**params)
