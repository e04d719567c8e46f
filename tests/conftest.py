"""Shared fixtures: model systems, seeded sampling, observable library."""

import numpy as np
import pytest

from adiakit import CircleAction, PhasePoint, elastic_pendulum, charged_particle
from adiakit import circle, experiments, integrators, invariants
from adiakit import kernel as sk
from adiakit.circle import resolved_value

from sl2 import QuadraticSystem, Sl2Field


class CodeCache:
    """``kernel``'s code cache pointed at ``directory``, with empty in-process
    caches and each compile from now on recorded in ``compiled`` as
    (filename, source)."""

    def __init__(self, monkeypatch, directory):
        self.directory = directory
        self.compiled = []
        monkeypatch.setattr(sk, "_CODE_CACHE", str(directory))
        monkeypatch.setattr(sk, "_CODE", {})
        monkeypatch.setattr(sk, "compile", self._compile, raising=False)
        self.restart()

    def _compile(self, source, filename, mode):
        self.compiled.append((filename, source))
        return compile(source, filename, mode)

    def restart(self):
        """Empty the in-process caches of emitted code and the record of
        compiles, as a new process starts."""
        sk._CODE.clear()
        integrators._one_point.cache_clear()
        experiments._drift_field.cache_clear()
        experiments._last_build.clear()
        self.compiled.clear()


@pytest.fixture(autouse=True, scope="session")
def session_code_cache(tmp_path_factory):
    """``kernel``'s code cache in a directory of the session's own, so that
    tests leave no entries beside the package's bytecode."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sk, "_CODE_CACHE", str(tmp_path_factory.mktemp("code")))
        yield


@pytest.fixture
def code_cache(monkeypatch, tmp_path):
    """A cold code cache in a directory of its own (:class:`CodeCache`)."""
    return CodeCache(monkeypatch, tmp_path / "code")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def pendulum():
    return elastic_pendulum(omega=1.0, gamma=1.0)


@pytest.fixture
def pendulum_action(pendulum):
    return CircleAction(pendulum.system)


@pytest.fixture
def particle():
    return charged_particle(b=1.0, lam=0.3)


@pytest.fixture
def particle_action(particle):
    return CircleAction(particle.system)


def sample_points(fixture, rng, n):
    """Random phase points from the fixture's domain box."""
    system = fixture.system
    coords = system.domain.sample(rng, n)
    return [PhasePoint(c[: 2 * system.r], c[2 * system.r:]) for c in coords]


def nondegenerate_system(constant_omega=True):
    """Quadratic family with slow-dependent A; omega varies too unless constant."""
    def a_fn(w):
        return 0.4 * sk.sin(w[0] + 2.0 * w[1])

    def beta(w):
        return 0.3 * w[1] - 0.2 * w[0]

    def b_fn(w):
        a = a_fn(w)
        return (1.0 + a * a) * sk.exp(beta(w))

    def c_fn(w):
        return -sk.exp(-beta(w))

    omega = (lambda w: 1.0) if constant_omega else (lambda w: 1.0 + 0.2 * sk.cos(w[1]))
    return QuadraticSystem(h=lambda w: 0.5 * (w[0] ** 2 + w[1] ** 2) + 0.1 * w[0] * w[1],
                           omega=omega, field=Sl2Field(a_fn, b_fn, c_fn))


def observable_library():
    """Fixed polynomial observables over (y, x, p, q) with r = k = 1."""
    return [
        lambda fast, slow: fast[0],
        lambda fast, slow: fast[1],
        lambda fast, slow: fast[0] * fast[0],
        lambda fast, slow: fast[0] * fast[1],
        lambda fast, slow: fast[1] ** 3 + slow[0] * fast[0],
        lambda fast, slow: slow[1] * fast[0] * fast[1] ** 2,
    ]


def random_polynomial(rng, degree=3):
    """Random polynomial in all four coordinates with O(1) coefficients."""
    n_terms = 6
    powers = rng.integers(0, degree + 1, size=(n_terms, 4))
    coeffs = rng.uniform(-1.0, 1.0, size=n_terms)

    def poly(fast, slow):
        y, x = fast[0], fast[1]
        p, q = slow[0], slow[1]
        total = 0.0
        for (a, b, c, d), w in zip(powers, coeffs):
            total = total + w * y ** int(a) * x ** int(b) * p ** int(c) * q ** int(d)
        return total

    return poly


def theta_and_k1(system, action, m):
    """(Θ = 𝒮(d₁J), K₁) at ``m``: node 0 of the profiles F₁ is built from."""
    def evaluate(orbit):
        dh, dj = invariants._slow_partials(system, orbit)
        theta = [float(invariants._at_base(c, orbit)) for c in invariants._theta_nodes(dj, orbit)]
        k1 = float(invariants._at_base(invariants._k1_nodes(dh, dj, orbit), orbit))
        return np.array(theta), k1

    return resolved_value(action.resolve(evaluate, *m.state()))


def fail_every_tail_check(monkeypatch):
    """Make every tail check of ``CircleAction.resolve`` fail, so that each
    resolving loop runs on to its cap and comes back unresolved there."""
    init = circle._Loop.__init__
    monkeypatch.setattr(circle._Loop, "__init__",
                        lambda loop, tol, at_cap: init(loop, -1.0, at_cap))
