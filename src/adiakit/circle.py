"""The circle action generated by the normalized fast flow, and its operators.

The fast Hamiltonian field divided by the frequency function ω generates a
2π-periodic flow. ω is constant along each fast orbit (the period–energy
hypothesis), so a numeric run checks ω > 0 once, at its base points. The flow
moves the fast block only: an orbit keeps each slow coordinate at one node, so
each term built from the slow block alone (ω, the slow-only parts of H, J and
their slow partials) is computed once per point, and numpy broadcasts it over
the nodes with the same IEEE operations. Averaging ⟨f⟩ and the zero-mean
integrating operator 𝒮(f) are evaluated spectrally: sample the orbit profile
at N equispaced phases, take discrete Fourier coefficients f̂_n, then

    ⟨f⟩ = f̂_0,          𝒮(f) = Σ_{n≠0} f̂_n / (i n).

A weighted quadrature of the (t−π) kernel would lose the periodic smoothness
that makes the trapezoidal rule spectrally accurate; the Fourier route keeps
it, and is exact for orbit profiles that are trigonometric polynomials of
degree below N/2 (the Nyquist bin carries no recoverable phase and is
dropped). Both operators are linear, so they also take dual profiles and
act on each part. ⟨·⟩ sums each row pairwise, whatever its memory layout.

N is chosen from the spectrum, not fixed (``CircleAction.resolve``; Trefethen
& Weideman, SIAM Rev. 56 (2014); Aurentz & Trefethen, ACM TOMS 43 (2017)):
an evaluation runs at N = 8, 16, … up to the action's cap ``nodes`` and stops
at the first N at which every profile fed to ⟨·⟩ or 𝒮 has a tail
max_{N/4<k≤N/2} |f̂_k| of at most ``TAIL_TOL``·max_k |f̂_k|. The operators read
the tail off the FFT that 𝒮 takes; ⟨·⟩ takes one for it while a loop is open.
Below the cap, the first unresolved profile ends the evaluation at that N.
Levels nest: the nodes of N are the even nodes of 2N (Davis & Rabinowitz, 1984,
ch. 2), so each level, with either flow, samples and differentiates only the
nodes it adds. The nodes of a numeric orbit are states of one closed step
grid: Υ has period exactly 2π, so a batch of N nodes takes M fixed DOP853
steps of 2π/M (``fixed_steps``), one M for all its points, from
max(``FIRST_ORBIT_STEPS``, N) doubled until every column of every lane closes,
|y(2π) − y₀| ≤ ``ORBIT_RTOL``·(1 + |y₀|); a batch still open at
``MAX_ORBIT_STEPS`` raises :class:`IntegrationError`. The time-2π map is the
identity, so the closure defect is the run's global error, in the fast and the
variational columns alike (Hairer, Nørsett & Wanner, *Solving ODEs I*,
§II.4–II.6): at M = 32 at most 1.1e-12 on 40 lifted points near either
fixture's default point. The tails carry it, so the numeric tail tolerance is
the larger of ``TAIL_TOL`` and 10·``ORBIT_RTOL``. A resolving loop reads its
levels off one run of min(cap, ``FIRST_ORBIT_STEPS``) nodes, and only a level
beyond those runs a second orbit, at the cap's nodes.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernel as sk
from .errors import IntegrationError, NumericalError, UnresolvedQuadrature, UnsupportedDerivative
from .integrators import IntegratorConfig, fixed_steps, integrate
from .phase import PhasePoint, SlowFastSystem, positive_omega, velocity

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
ORBIT_RTOL, ORBIT_ATOL = 1e-11, 1e-14  # closure of numeric orbits; tolerances of numeric flows
FIRST_ORBIT_STEPS, MAX_ORBIT_STEPS = 32, 1024  # fixed steps per period of a numeric orbit


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
    coeff = np.fft.rfft(samples, axis=-1) if coeff is None else coeff
    # moduli with the frequency axis outermost in memory: each row's max is
    # then elementwise across rows, not numpy's row-by-row reduction of a short axis
    mag = np.abs(coeff.T, order="C")
    quarter = (mag.shape[0] - 1) // 2  # N/4
    # a NaN fails the comparison too
    loop = _open_loops[-1]
    if not np.all(mag[quarter + 1:] <= loop.tol * mag.max(axis=0)):
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
    """Orbit average: the 0-th discrete Fourier coefficient, each row summed
    pairwise whatever its memory layout (module docstring)."""
    _note_tail(samples)
    return np.mean(np.ascontiguousarray(samples), axis=-1, keepdims=keepdims)


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


def _with_node_axis(c):
    return sk.map_parts(lambda a: np.asarray(a, dtype=float)[..., None], c)


@dataclass(frozen=True)
class OrbitSamples:
    """Flowed states at the phases ``times`` of one (possibly batched) orbit.

    Each fast coordinate array carries the batch shape of the base state plus
    a trailing node axis of length ``nodes``. Each slow coordinate, and each
    of its dual parts, keeps a node axis of length 1: the slow block is frozen
    along the orbit (module docstring). Analytic orbits of dual states hold duals.
    """

    times: np.ndarray
    fast: list
    slow: list

    @property
    def nodes(self) -> int:
        return len(self.times)

    @property
    def batch_shape(self):
        return np.shape(sk.value(self.fast[0]))[:-1]


def _interleave(even, odd, shape):
    """Profiles at 2N nodes from ``even`` at the N nodes of N, the even nodes
    of 2N, and ``odd`` at the odd ones, each broadcast to ``shape`` (N nodes
    last): item by item, and part by part for duals. No ``even``: ``odd``.
    Arrays whose node axes both have length 1 stay at that one node."""
    if even is None:
        return odd
    if isinstance(even, OrbitSamples):  # the slow block keeps its one node
        return OrbitSamples(_interleave(even.times, odd.times, shape[-1:]),
                            _interleave(even.fast, odd.fast, shape), even.slow)
    if isinstance(even, (list, tuple)):
        return type(even)(_interleave(a, b, shape) for a, b in zip(even, odd))
    if isinstance(even, sk.Dual):
        return sk.Dual(*_interleave([even.val, even.eps], [odd.val, odd.eps], shape), even.tag)
    b = np.asarray(odd, dtype=float)
    if b.shape[-1:] == np.shape(even)[-1:] == (1,):  # constant along the orbit
        return even
    wide = b.shape if b.shape[-len(shape):] == shape else np.broadcast_shapes(b.shape, shape)
    merged = np.empty(wide[:-1] + (2 * wide[-1],))
    merged[..., ::2], merged[..., 1::2] = even, b
    return merged


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

    Numeric flows and orbits check ω once per run, at the base points, and
    integrate Υ through code traced once per action (``_field``). A flow is
    ``integrate``'s adaptive run, so ``check_periodicity`` does not assume
    what it checks; an orbit is a closed fixed-step run whose grid states are
    its nodes (module docstring), a batch as the lanes of one run, with the
    bits of its points' own runs. An orbit of a dual state integrates Υ's
    variational equation in the same run, so its samples carry exact
    derivatives too, and its closure controls them.
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
        positive_omega(self.system, fast, slow)
        rhs = self._field(0)(*m.slow.tolist())
        cfg = IntegratorConfig(rtol=ORBIT_RTOL, atol=ORBIT_ATOL)
        return PhasePoint(integrate(rhs, m.fast, float(t), cfg).states[-1], m.slow)

    def check_periodicity(self, m: PhasePoint) -> float:
        """Residual ‖Fl^{2π}(m) − m‖ of the flow's periodicity at ``m``."""
        return float(np.linalg.norm(self.flow(TWO_PI, m).coords - m.coords))

    def _normalized_field(self, fast, slow):
        """Υ = (−∂_xH, ∂_yH)/ω on kernel scalars (``phase.velocity``)."""
        v = velocity(self.system.H, fast, slow, "fast")
        w = self.system.omega(fast, slow)
        return [d / w for d in v]

    def _field(self, directions: int):
        """The normalized fast field Υ and, along D = ``directions`` tangent
        directions, its variational equation V' = ∂_zΥ·V + ∂_wΥ·W: code traced
        from ``_normalized_field`` once per D (``kernel.tangent``).

        ``bind(*slow, *W)`` binds the 2k slow values and their tangents W and
        returns ``rhs(t, y)`` over the 2r fast columns and their tangents V
        (tangents coordinate by coordinate, D each), on floats or arrays. A
        call of ``rhs`` is one call of the traced code and checks nothing, not
        even ω (module docstring).
        """
        if directions not in self._fields:
            blocks = (2 * self.system.r, 2 * self.system.k)
            self._fields[directions] = sk.tangent(self._normalized_field, blocks, directions)
        return self._fields[directions]

    def _integrate_points(self, points, tangents, nodes) -> np.ndarray:
        """States (nodes, points, 2r + 2r·D) at ``nodes`` equispaced phases of
        the orbits of base points (points, 2r + 2k) and their tangents (points,
        2r + 2k, D): the fast coordinates, then their tangents (``_field``).
        An orbit takes M fixed steps of 2π/M, from M = max(``FIRST_ORBIT_STEPS``,
        ``nodes``) doubled until it closes (module docstring), one point on
        floats and more as lanes; every node is a state of the step grid. ω is
        checked once, at the base points (``positive_omega``).
        """
        n_fast, split = 2 * self.system.r, 2 * self.system.r * tangents.shape[-1]
        flat = tangents.reshape(len(points), -1)
        y0 = np.concatenate([points[:, :n_fast], flat[:, :split]], axis=1)
        bound = np.concatenate([points[:, n_fast:], flat[:, split:]], axis=1)
        positive_omega(self.system, list(points.T[:n_fast]), list(points.T[n_fast:]))
        bind = self._field(tangents.shape[-1])
        rhs = bind(*bound[0].tolist()) if len(points) == 1 else bind(*bound.T)
        steps = max(FIRST_ORBIT_STEPS, nodes)
        while True:
            states = fixed_steps(rhs, y0, TWO_PI / steps, steps)
            defect = np.abs(states[-1] - y0) / (1.0 + np.abs(y0))
            if np.all(defect <= ORBIT_RTOL):
                return states[:-1:steps // nodes]
            if steps >= MAX_ORBIT_STEPS:
                lane, column = np.unravel_index(np.argmax(defect), defect.shape)
                raise IntegrationError(f"orbit not closed at M = {steps} steps per period: "
                                       f"defect {defect[lane, column]:.3g} > {ORBIT_RTOL:g} "
                                       f"in column {column} of lane {lane}")
            steps *= 2

    # -- orbit sampling -----------------------------------------------------

    def orbit(self, fast, slow, *, _times=None) -> OrbitSamples:
        """Orbit samples for a raw kernel state (batched coordinates allowed),
        at the cap's ``nodes`` phases or at the phases ``_times``: any phases
        for an analytic flow, N equispaced ones from 0 for a numeric one.

        The state may hold duals. ``fast_flow`` carries any of them, nested
        ones included; a numeric orbit carries one dual pass through the
        variational equation (``_orbit_numeric``).
        """
        times = TWO_PI * np.arange(self.nodes) / self.nodes if _times is None else _times
        if self.flow_mode == "analytic":
            expanded_fast = [_with_node_axis(c) for c in fast]
            expanded_slow = [_with_node_axis(c) for c in slow]
            flowed = self.system.fast_flow(times, expanded_fast, expanded_slow)
            shape = np.broadcast_shapes(*[np.shape(sk.value(c)) for c in flowed],
                                        *[np.shape(sk.value(c)) for c in expanded_slow])
            return OrbitSamples(times, [sk.broadcast(c, shape) for c in flowed],
                                [sk.broadcast(c, shape[:-1] + (1,)) for c in expanded_slow])
        return self._orbit_numeric(fast, slow, times)

    def _orbit_numeric(self, fast, slow, times):
        """Numeric orbits: one closed run for the whole batch, each point a
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
        batch_shape, shape = base[0].shape, base[0].shape + (len(times),)
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
        # (2r + 2r·D, points, nodes)
        out = self._integrate_points(points, tangents, len(times)).transpose(2, 1, 0)
        fast_out = [out[i].reshape(shape) for i in range(n_fast)]
        if duals:
            parts = shape if scalar else (directions,) + shape
            fast_out = [sk.Dual(c, out[j:j + directions].reshape(parts), duals[0].tag)
                        for c, j in zip(fast_out, n_fast + directions * np.arange(n_fast))]
        return OrbitSamples(times, fast_out,
                            [sk.broadcast(_with_node_axis(c), batch_shape + (1,)) for c in slow])

    # -- operators ------------------------------------------------------------

    def _levels(self, fast, slow):
        """Orbit samples at the nodes each level of ``resolve`` adds: N = min(8,
        cap) first, then the N odd-phase nodes of each 2N up to the cap, flowed
        to (analytic) or read off a closed orbit (numeric). A numeric level
        reads one run at min(cap, ``FIRST_ORBIT_STEPS``) nodes; a level that
        needs more nodes than that run holds reads one run at the cap's nodes."""
        times = TWO_PI * np.arange(self.nodes) / self.nodes
        stride, odd, held = self.nodes // min(FIRST_NODES, self.nodes), 0, None
        while stride:
            picked = slice(odd * stride, None, (1 + odd) * stride)
            if self.flow_mode == "analytic":
                yield self.orbit(fast, slow, _times=times[picked])
            else:
                if held is None or held.nodes * stride < self.nodes:
                    n = min(self.nodes, FIRST_ORBIT_STEPS) if held is None else self.nodes
                    held = self.orbit(fast, slow, _times=times[::self.nodes // n])
                every = stride * held.nodes // self.nodes
                in_held = slice(odd * every, None, (1 + odd) * every)
                yield OrbitSamples(times[picked], [sk.map_parts(lambda a: a[..., in_held], c)
                                                   for c in held.fast], held.slow)
            stride, odd = stride // 2, 1

    def resolve(self, evaluate: Callable, fast, slow, pointwise: Callable = lambda orbit: ()):
        """(``evaluate(orbit, *pointwise(orbit))``, N, resolved) at the smallest
        node count N that resolves every profile ``evaluate`` feeds to ⟨·⟩
        and 𝒮.

        The orbit of the raw kernel state (``orbit``) is sampled at
        N = min(8, cap), 16, 32, … up to the cap ``nodes``, one N for the
        whole batch, until every row of every part of those profiles has a
        resolved tail (module docstring). Below the cap the first unresolved
        profile ends the evaluation at that N. A batch still unresolved at the
        cap comes back evaluated there, with resolved False; entry points that
        drop the flag warn instead (``resolved_value``).

        Each level runs ``pointwise`` (a tuple of profiles that take each node
        alone, such as the slow partials of H and J) on the nodes it adds only
        (``_levels``). Node j of N is node 2j of 2N, bit for bit, so the arrays
        of N are interleaved with those of the odd-phase nodes of 2N and then
        dropped. ``evaluate``, the spectral stage, reads the merged arrays: the
        bits that one level at N computes, but at a numeric level beyond the
        first run's nodes, whose even nodes keep that run's bits and whose odd
        ones come from a run at the cap's (``_levels``). Nothing is kept after
        the return.
        """
        tol = TAIL_TOL if self.flow_mode == "analytic" else max(TAIL_TOL, 10.0 * ORBIT_RTOL)
        kept = None
        for orbit in self._levels(fast, slow):
            shape = orbit.batch_shape + (orbit.nodes,)
            kept = _interleave(kept, (orbit, *pointwise(orbit)), shape)
            loop = _Loop(tol, at_cap=kept[0].nodes >= self.nodes)
            _open_loops.append(loop)
            try:
                return evaluate(*kept), kept[0].nodes, loop.resolved
            except _Unresolved:
                pass
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
        return self.resolve(lambda orbit, *values: np.asarray([
            float(fourier_mean(_finite_samples(c, orbit, "1-form coefficients")))
            for c in values]), *m.state(), lambda orbit: coeffs(orbit.fast, orbit.slow))
