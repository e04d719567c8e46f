"""The circle action generated by the normalized fast flow, and its operators.

The fast Hamiltonian field divided by the frequency function generates a
2π-periodic flow. Averaging ⟨f⟩ and the zero-mean integrating operator 𝒮(f)
are evaluated spectrally: sample the orbit profile at N equispaced phases,
take discrete Fourier coefficients f̂_n, then

    ⟨f⟩ = f̂_0,          𝒮(f) = Σ_{n≠0} f̂_n / (i n).

A weighted quadrature of the (t−π) kernel would lose the periodic smoothness
that makes the trapezoidal rule spectrally accurate; the Fourier route keeps
it, and is exact for orbit profiles that are trigonometric polynomials of
degree below N/2 (the Nyquist bin carries no recoverable phase and is
dropped). Both operators are linear, so they also take dual profiles and
act on each part.

N is chosen from the spectrum, not fixed (``CircleAction.resolve``; Trefethen
& Weideman, SIAM Rev. 56 (2014); Aurentz & Trefethen, ACM TOMS 43 (2017)):
an evaluation runs at N = 8, 16, … up to the action's cap ``nodes`` and stops
at the first N at which every profile fed to ⟨·⟩ or 𝒮 has a tail
max_{N/4<k≤N/2} |f̂_k| of at most ``TAIL_TOL``·max_k |f̂_k|. The operators read
the tail off the FFT that 𝒮 takes; ⟨·⟩ takes one for it while a loop is open.
Below the cap, the first unresolved profile ends the evaluation at that N.
Numeric orbits carry the integrator's relative error, which more nodes do
not reduce: their nodes are read off the continuous extension of the
integrator's steps, and their tails read up to 1.7·rtol where an analytic
orbit's read 1e-15 (both fixtures at four box points, rtol 1e-8 to 1e-12), so
their tolerance is the larger of ``TAIL_TOL`` and 10·``ORBIT_RTOL``.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernel as sk
from .errors import NumericalError, UnresolvedQuadrature, UnsupportedDerivative
from .integrators import IntegratorConfig, integrate
from .phase import DEFAULT_ENGINE, PhasePoint, SlowFastSystem

__all__ = [
    "CircleAction",
    "OrbitSamples",
    "fourier_mean",
    "s_from_samples",
    "s_at_nodes",
    "resolved_value",
]

TWO_PI = 2.0 * np.pi
FIRST_NODES = 8  # the node count a resolving loop starts at (below the cap)
TAIL_TOL = 1e-12  # largest resolved tail, relative to a profile's largest harmonic
ORBIT_RTOL, ORBIT_ATOL = 1e-11, 1e-14  # integrator tolerances of numeric orbits and flows


class _Unresolved(Exception):
    """An unresolved profile below the cap: the evaluation stops, N doubles."""


class _Loop:
    """One evaluation of an open ``CircleAction.resolve`` at one node count."""

    __slots__ = ("tol", "at_cap", "resolved")

    def __init__(self, tol: float, at_cap: bool):
        self.tol, self.at_cap, self.resolved = tol, at_cap, True


_open_loops = []  # innermost last


def _note_tail(samples, coeff=None) -> None:
    """Check that every row of the profile ``samples`` (node axis last) has a
    resolved tail, while a loop is open and resolved so far. ``coeff`` are the
    profile's discrete Fourier coefficients, if at hand. An unresolved row
    raises :class:`_Unresolved` below the cap and flags the loop at it."""
    if not (_open_loops and _open_loops[-1].resolved):
        return
    mag = np.abs(np.fft.rfft(samples, axis=-1) if coeff is None else coeff)
    quarter = (mag.shape[-1] - 1) // 2  # N/4
    # a NaN fails the comparison too
    loop = _open_loops[-1]
    if not np.all(mag[..., quarter + 1:] <= loop.tol * mag.max(axis=-1, keepdims=True)):
        if not loop.at_cap:
            raise _Unresolved
        loop.resolved = False


def resolved_value(result):
    """The value of a ``CircleAction.resolve`` result (value, N, resolved).

    Entry points that return the value alone pass their result through here,
    so that a batch still unresolved at the node cap N raises an
    :class:`UnresolvedQuadrature` warning, attributed to the entry point's
    caller.
    """
    value, n, resolved = result
    if not resolved:
        warnings.warn(f"orbit profiles unresolved at the node cap {n}",
                      UnresolvedQuadrature, stacklevel=3)
    return value


def _per_part(op):
    """Lift a linear operator along the node axis to duals: it acts on each part."""
    @functools.wraps(op)
    def lifted(samples, *args, **kwargs):
        return sk.map_parts(lambda a: op(a, *args, **kwargs), samples)

    return lifted


@_per_part
def fourier_mean(samples: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Orbit average: the 0-th discrete Fourier coefficient."""
    _note_tail(samples)
    return np.mean(samples, axis=-1, keepdims=keepdims)


@_per_part
def s_from_samples(samples: np.ndarray) -> np.ndarray:
    """𝒮 of an orbit profile, evaluated at the base point (phase 0)."""
    n_nodes = samples.shape[-1]
    coeff = np.fft.rfft(samples, axis=-1) / n_nodes
    _note_tail(samples, coeff)
    weight = np.zeros(coeff.shape[-1])
    weight[1:] = 2.0 / np.arange(1, coeff.shape[-1])
    if n_nodes % 2 == 0:
        weight[-1] = 0.0  # Nyquist bin dropped
    return np.sum(np.imag(coeff) * weight, axis=-1)


@_per_part
def s_at_nodes(samples: np.ndarray) -> np.ndarray:
    """𝒮 of an orbit profile at every sampled phase.

    Uses the fact that the profile seen from the j-th orbit node is the
    cyclic shift of the base profile, so a single FFT serves all nodes.
    """
    n_nodes = samples.shape[-1]
    coeff = np.fft.rfft(samples, axis=-1)
    _note_tail(samples, coeff)
    freqs = np.arange(coeff.shape[-1])
    scaled = np.zeros_like(coeff)
    scaled[..., 1:] = coeff[..., 1:] * (-1j / freqs[1:])
    if n_nodes % 2 == 0:
        scaled[..., -1] = 0.0
    return np.fft.irfft(scaled, n=n_nodes, axis=-1)


def _finite_samples(values, orbit, what: str) -> np.ndarray:
    vals = sk.broadcast(sk.value(values), orbit.batch_shape + (orbit.nodes,))
    if not np.all(np.isfinite(vals)):
        raise NumericalError(f"{what} contains non-finite samples")
    return vals


def _positive_point(omega):
    return omega > 0.0  # a NaN fails the comparison too


def _positive_lanes(omega):
    return np.greater(omega, 0.0).all()


def _with_node_axis(c):
    return sk.map_parts(lambda a: np.asarray(a, dtype=float)[..., None], c)


@dataclass(frozen=True)
class OrbitSamples:
    """Flowed states at N equispaced phases of one (possibly batched) orbit.

    Each coordinate array carries the batch shape of the base state plus a
    trailing node axis of length ``nodes``. Analytic orbits of dual base
    states hold duals.
    """

    nodes: int
    times: np.ndarray
    fast: list
    slow: list

    @property
    def batch_shape(self):
        return np.shape(sk.value(self.fast[0]))[:-1]

    def every(self, stride: int) -> "OrbitSamples":
        """The orbit at ``nodes / stride`` nodes: every ``stride``-th sample."""
        def pick(c):
            return sk.map_parts(lambda a: a[..., ::stride], c)

        return OrbitSamples(self.nodes // stride, self.times[::stride],
                            [pick(c) for c in self.fast], [pick(c) for c in self.slow])


@dataclass
class CircleAction:
    """Circle-action engine: the normalized fast flow, its orbit samples, and
    the node count at which ⟨·⟩ and 𝒮 (``fourier_mean``, ``s_from_samples``,
    ``s_at_nodes``) act on orbit profiles.

    ``flow_mode`` selects the analytic flow closure carried by the system or
    numeric integration of the normalized fast field (slow block frozen, so
    slow coordinates are preserved exactly in both modes). ``nodes`` (a power
    of two) caps the per-period sample count: each evaluation of ⟨·⟩ or 𝒮
    runs at the smallest N ≤ ``nodes`` that resolves its profiles
    (``resolve``), and ``orbit`` samples ``nodes`` phases.

    Numeric flows and orbits integrate Υ to ``ORBIT_RTOL`` and ``ORBIT_ATOL``
    through code traced once per action (``_field``). An orbit of a dual state
    integrates Υ's variational equation in the same run, so its samples carry
    exact derivatives too. A single point (``flow``, ``check_periodicity``, the
    orbit of one point) runs as ``integrate``'s emitted 1-D run on floats; a
    batch of two or more points runs as the lanes of one stacked run. A point
    gives the same bits either way. ``check_periodicity`` returns a residual.
    """

    system: SlowFastSystem
    flow_mode: str = "analytic"
    nodes: int = 64

    def __post_init__(self):
        if self.flow_mode not in ("analytic", "numeric"):
            raise ValueError(f"unknown flow mode {self.flow_mode!r}")
        if self.flow_mode == "analytic" and self.system.fast_flow is None:
            raise ValueError("analytic flow mode requires a fast_flow closure")
        if self.nodes < 4 or self.nodes & (self.nodes - 1):
            raise ValueError("nodes must be a power of two (>= 4)")
        self._fields = {}  # number of tangent directions -> bind of the emitted field

    # -- flow ---------------------------------------------------------------

    def flow(self, t: float, m: PhasePoint) -> PhasePoint:
        """Point advanced by phase ``t`` along the normalized fast flow."""
        self.system.require_in_domain(m)
        fast, slow = m.state()
        if self.flow_mode == "analytic":
            new_fast = self.system.fast_flow(t, fast, slow)
            return PhasePoint(np.asarray([sk.value(c) for c in new_fast], dtype=float),
                              m.slow)
        t = float(t)
        end = self._integrate_points(m.coords[None], t, [t], np.zeros((1, self.system.dim, 0)))
        return PhasePoint(end[-1, 0], m.slow)

    def check_periodicity(self, m: PhasePoint) -> float:
        """Residual ‖Fl^{2π}(m) − m‖ of the flow's periodicity at ``m``."""
        return float(np.linalg.norm(self.flow(TWO_PI, m).coords - m.coords))

    def _normalized_field(self, fast, slow):
        """[ω, Υ] on kernel scalars, Υ = (−∂_xH, ∂_yH)/ω, with the fast
        gradient of H taken by one Dual pass per fast coordinate."""
        r = self.system.r
        g = DEFAULT_ENGINE.partials(self.system.H, fast, slow, "fast")
        w = self.system.omega(fast, slow)
        return [w] + [-d / w for d in g[r:]] + [d / w for d in g[:r]]

    def _field(self, directions: int):
        """The normalized fast field Υ and, along D = ``directions`` tangent
        directions, its variational equation V' = ∂_zΥ·V + ∂_wΥ·W: code traced
        from ``_normalized_field`` once per D (``kernel.tangent``).

        ``bind(*slow, *W, positive)`` binds the 2k slow values and their
        tangents W and returns ``rhs(t, y)`` over the 2r fast columns and their
        tangents V (tangents coordinate by coordinate, D each). It serves one
        point (floats) and lanes ((lanes,) arrays) alike. ω is a traced guard
        output, returned apart from Υ and its tangents, so a call computes it
        once, and ``rhs`` raises :class:`NumericalError` unless ``positive(ω)``
        holds. On floats ω = 0 divides by zero inside the traced code, before
        the check: only then is ω evaluated again, to tell that case from other
        divisions by zero.
        """
        bind = self._fields.get(directions)
        if bind is None:
            r, k, n = self.system.r, self.system.k, directions
            z, s = [f"z{i}" for i in range(2 * r)], [f"s{i}" for i in range(2 * k)]
            v, w_dot = [f"v{i}" for i in range(2 * r * n)], [f"ws{i}" for i in range(2 * k * n)]
            source = (f"def bind({', '.join(s + w_dot + ['positive'])}):\n"
                      f"    slow = [{', '.join(s)}]\n"
                      "    def rhs(t, y):\n"
                      f"        {', '.join(z + v)}, = y\n"
                      "        try:\n"
                      f"            w, out = tangent({', '.join(z + s + v + w_dot)})\n"
                      "        except ZeroDivisionError:\n"
                      f"            w = omega([{', '.join(z)}], slow)\n"
                      "            if positive(w):\n"
                      "                raise\n"
                      "        if not positive(w):\n"
                      "            raise NumericalError('frequency function must stay positive')\n"
                      "        return out\n"
                      "    return rhs\n")
            namespace = {"NumericalError": NumericalError, "omega": self.system.omega,
                         "tangent": sk.tangent(self._normalized_field, (2 * r, 2 * k), n)}
            exec(compile(source, "<normalized fast field>", "exec"), namespace)
            bind = self._fields[n] = namespace["bind"]
        return bind

    def _integrate_points(self, points, t_end: float, t_eval, tangents) -> np.ndarray:
        """States (times, points, 2r + 2r·D) at ``t_eval`` of base points
        (points, 2r + 2k) and their tangents (points, 2r + 2k, D): the fast
        coordinates, then their tangents (``_field``).

        A single point runs as a 1-D state (``integrate``'s one-point run),
        two or more points as lanes of one run.
        """
        n_fast, split = 2 * self.system.r, 2 * self.system.r * tangents.shape[-1]
        flat = tangents.reshape(len(points), -1)
        y0 = np.concatenate([points[:, :n_fast], flat[:, :split]], axis=1)
        bound = np.concatenate([points[:, n_fast:], flat[:, split:]], axis=1)
        bind = self._field(tangents.shape[-1])
        cfg = IntegratorConfig(rtol=ORBIT_RTOL, atol=ORBIT_ATOL)
        if len(points) == 1:
            rhs = bind(*bound[0].tolist(), _positive_point)
            return integrate(rhs, y0[0], t_end, cfg, t_eval=t_eval).states[:, None]
        return integrate(bind(*bound.T, _positive_lanes), y0, t_end, cfg, t_eval=t_eval).states

    # -- orbit sampling -----------------------------------------------------

    def orbit(self, fast, slow, *, _nodes=None) -> OrbitSamples:
        """Orbit samples for a raw kernel state (batched coordinates allowed),
        at the cap ``nodes`` or at the node count ``resolve`` passes.

        The state may hold duals. ``fast_flow`` carries any of them, nested
        ones included; a numeric orbit carries one dual pass through the
        variational equation (``_orbit_numeric``).
        """
        n = self.nodes if _nodes is None else _nodes
        times = TWO_PI * np.arange(n) / n
        if self.flow_mode == "analytic":
            expanded_fast = [_with_node_axis(c) for c in fast]
            expanded_slow = [_with_node_axis(c) for c in slow]
            flowed = self.system.fast_flow(times, expanded_fast, expanded_slow)
            shape = np.broadcast_shapes(*[np.shape(sk.value(c)) for c in flowed],
                                        *[np.shape(sk.value(c)) for c in expanded_slow])
            return OrbitSamples(n, times, [sk.broadcast(c, shape) for c in flowed],
                                [sk.broadcast(c, shape) for c in expanded_slow])
        return self._orbit_numeric(fast, slow, n, times)

    def _orbit_numeric(self, fast, slow, n, times):
        """Numeric orbits: one integration for the whole batch, each point a
        lane of it (a single point runs alone, as one point).

        A dual base state is integrated with its variational equation: V₀ and
        W are the tangent parts of its fast and slow coordinates, and the fast
        samples come back as duals carrying V. The duals must be one pass of
        one tag, with a direction axis of length D in front of the values'
        axes, or with scalar tangents (one direction, as ``DiffEngine.partials``
        seeds it), which run as D = 1 and come back scalar. Nested duals would
        need the tangents of V, so they raise :class:`UnsupportedDerivative`.
        """
        state = list(fast) + list(slow)
        duals = [c for c in state if isinstance(c, sk.Dual)]
        if any(isinstance(c.val, sk.Dual) or isinstance(c.eps, sk.Dual)
               or c.tag != duals[0].tag for c in duals):
            raise UnsupportedDerivative(
                "a numeric orbit carries the tangents of one dual pass, not nested duals")
        base = np.broadcast_arrays(*[np.asarray(sk.value(c), dtype=float) for c in state])
        batch_shape, shape = base[0].shape, base[0].shape + (n,)
        n_fast = len(fast)
        points = np.stack([c.reshape(-1) for c in base], axis=-1)
        scalar = bool(duals) and np.ndim(duals[0].eps) <= np.ndim(duals[0].val)
        directions = 0
        if duals:
            directions = 1 if scalar else len(duals[0].eps)
        tangents = np.stack([
            np.broadcast_to(c.eps if isinstance(c, sk.Dual) else 0.0,
                            (directions,) + batch_shape).reshape(directions, len(points))
            for c in state]).transpose(2, 0, 1)
        # (2r + 2r·D, points, nodes); the orbit is integrated to its last sample
        out = self._integrate_points(points, times[-1], times, tangents).transpose(2, 1, 0)
        fast_out = [out[i].reshape(shape) for i in range(n_fast)]
        if duals:
            parts = shape if scalar else (directions,) + shape
            fast_out = [sk.Dual(c, out[j:j + directions].reshape(parts), duals[0].tag)
                        for c, j in zip(fast_out, n_fast + directions * np.arange(n_fast))]
        return OrbitSamples(n, times, fast_out,
                            [sk.broadcast(_with_node_axis(c), shape) for c in slow])

    # -- operators ------------------------------------------------------------

    def resolve(self, evaluate: Callable, fast, slow):
        """(``evaluate(orbit)``, N, resolved) at the smallest node count N that
        resolves every profile ``evaluate`` feeds to ⟨·⟩ and 𝒮.

        The orbit of the raw kernel state (``orbit``) is sampled at
        N = min(8, cap), 16, 32, … up to the cap ``nodes``, one N for the
        whole batch, until every row of every part of those profiles has a
        resolved tail (module docstring). Below the cap the first unresolved
        profile ends the evaluation at that N. A batch still unresolved at the
        cap comes back evaluated there, with resolved False; entry points that
        drop the flag warn instead (``resolved_value``).

        An analytic orbit is sampled at each N, so that no array holds more
        nodes than the N it settles at. A numeric orbit is integrated once,
        in natural steps to the cap's last node, with the cap's nodes read off
        the steps' continuous extension, and each N takes every (cap/N)-th
        sample: the integration, not N, sets its cost, and its samples at the
        nodes of N do not depend on N.
        """
        if self.flow_mode == "analytic":
            tol = TAIL_TOL

            def orbit_at(n):
                return self.orbit(fast, slow, _nodes=n)
        else:
            tol, full = max(TAIL_TOL, 10.0 * ORBIT_RTOL), self.orbit(fast, slow)

            def orbit_at(n):
                return full.every(self.nodes // n)
        n = min(FIRST_NODES, self.nodes)
        while True:
            loop = _Loop(tol, at_cap=n >= self.nodes)
            _open_loops.append(loop)
            try:
                return evaluate(orbit_at(n)), n, loop.resolved
            except _Unresolved:
                n *= 2
            finally:
                _open_loops.pop()

    def resolve_slow_oneform(self, coeffs: Callable, m: PhasePoint):
        """(⟨c⟩ for each slow-component coefficient c of ``coeffs``, N,
        resolved) at ``m``, with the node count and the flag of ``resolve``.

        Valid because slow coordinates are invariant under the flow, so the
        pullback leaves the coordinate differentials dp_i, dq_i untouched and
        only composes the coefficients with the flow.
        """
        self.system.require_in_domain(m)
        return self.resolve(lambda orbit: np.asarray([
            float(fourier_mean(_finite_samples(c, orbit, "1-form coefficients")))
            for c in coeffs(orbit.fast, orbit.slow)]), *m.state())
