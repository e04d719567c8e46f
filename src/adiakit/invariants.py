"""Hypothesis checks and construction of the invariant series J + εF₁ + ε²/2·F₂.

The corrections are assembled from circle-action quadratures only:

* F₁ = −(1/ω)(𝒮({H,J}₁) + ⟨K₁⟩), where K₁ = ½·i_dH i_Θ Ψ₁ and Θ = 𝒮(d₁J).
  The slow-vector-field average appearing in the underlying derivation is
  contracted with dH *before* averaging; because H is invariant along the
  circle action this turns the term into the plain scalar average ⟨K₁⟩ and
  removes any need for tangent-map (variational) integration. The identity is
  verified independently on the quadratic family, where tangent maps are
  analytic (see the sl2 module tests).

* F₂ = −(2/ω)·𝒮({H, F₁}₁). With the series normalized as J + εF₁ + ε²/2·F₂,
  the second order of the invariance condition is the homological equation
  L_Υ F₂ = −(2/ω){H, F₁}₁, and 𝒮 solves it with zero fast average. This is
  the one definition. On the quadratic family it matches the exact F₂
  (``sl2.f2_closed``) to 3e-11 at eight random points, also when ω varies
  with the slow variables, where the two readings found in the literature
  fail: (2/ω)·𝒮({H, (1/ω)𝒮({H,J}₁) + ⟨K₁⟩}₁) misses by up to 3.5e-3, and
  (1/ω)·𝒮({H, F₁}₁), which misreads the ε²/2 normalization, is −½ × F₂.

Slow gradients of F₁, a quadrature-defined scalar, use central finite
differences with step ``fd_step * max(1, |coordinate|)``; everything
analytically known is differentiated exactly via dual lifting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernel as sk
from .circle import CircleAction, OrbitSamples, fourier_mean, s_at_nodes, s_from_samples
from .errors import HypothesisViolation, NumericalError, PrecisionWarning, UnsupportedOrder
from .phase import (DEFAULT_ENGINE, DiffEngine, PhasePoint, SlowFastSystem,
                    bracket_of_partials, field_fast, field_full, grad_fast,
                    grad_full, state_bracket1)

__all__ = [
    "QuadratureConfig",
    "HypothesisReport",
    "InvariantSeries",
    "check_momentum_map",
    "check_adiabatic",
    "check_period_energy",
    "check_hypotheses",
    "momentum_from_action",
    "theta",
    "k1",
    "f1",
    "f2",
    "assemble",
    "series_values",
    "lie_derivative",
    "ty2_residual",
    "ty3_residual",
]

F2_CHUNK = 64  # points per batched F₂ evaluation; bounds the nested quadrature's memory


@dataclass(frozen=True)
class QuadratureConfig:
    """Node budget for the correction pipeline.

    ``outer_nodes`` samples the orbit on which 𝒮 is finally applied;
    ``inner_nodes`` samples the orbits behind each finite-difference
    evaluation of a quadrature-defined scalar. ``fd_step`` is the base step
    of those central differences.
    """

    outer_nodes: int = 64
    inner_nodes: int = 32
    fd_step: float = 1e-5


DEFAULT_QUAD = QuadratureConfig()


def d1j_coeffs(system: SlowFastSystem, engine: DiffEngine = DEFAULT_ENGINE) -> Callable:
    """Oracle returning the 2k slow components of d₁J (for 1-form operators)."""

    def coeffs(fast, slow):
        return engine.partials(system.J, fast, slow, "slow")

    return coeffs


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------

def check_momentum_map(system: SlowFastSystem, action: CircleAction, m: PhasePoint,
                       tol: float = 1e-8, engine: DiffEngine = DEFAULT_ENGINE) -> float:
    """Residual ‖d₀J − d₀H/ω‖ of the momentum-map relation at ``m``."""
    dj = grad_fast(system, system.J, m, engine)
    dh = grad_fast(system, system.H, m, engine)
    omega = float(sk.value(system.omega(*m.state())))
    if not omega > 0.0:
        raise NumericalError("frequency must be positive")
    return float(np.linalg.norm(dj - dh / omega))


def check_adiabatic(system: SlowFastSystem, action: CircleAction, m: PhasePoint,
                    tol: float = 1e-8, engine: DiffEngine = DEFAULT_ENGINE) -> float:
    """Residual ‖⟨d₁J⟩‖: the averaged slow differential of the momentum map."""
    avg = action.average_slow_oneform(d1j_coeffs(system, engine), m)
    return float(np.linalg.norm(avg))


def check_period_energy(system: SlowFastSystem, m: PhasePoint, tol: float = 1e-10,
                        engine: DiffEngine = DEFAULT_ENGINE) -> float:
    """Largest 2×2 minor of (d₀H, d₀ω): zero iff the fast gradients are parallel."""
    dh = grad_fast(system, system.H, m, engine)
    dw = grad_fast(system, system.omega, m, engine)
    n = dh.shape[-1]
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            worst = max(worst, abs(float(dh[i] * dw[j] - dh[j] * dw[i])))
    return worst


@dataclass(frozen=True)
class HypothesisReport:
    """Aggregated structural checks at one phase point."""

    periodicity_residual: float
    momentum_map_residual: float
    adiabatic_residual: float
    period_energy_residual: float
    tolerances: dict

    @property
    def flags(self) -> dict:
        return {
            "periodicity": self.periodicity_residual <= self.tolerances["periodicity"],
            "momentum_map": self.momentum_map_residual <= self.tolerances["momentum_map"],
            "adiabatic": self.adiabatic_residual <= self.tolerances["adiabatic"],
            "period_energy": self.period_energy_residual <= self.tolerances["period_energy"],
        }

    @property
    def ok(self) -> bool:
        return all(self.flags.values())

    @property
    def failing(self) -> list:
        return sorted(name for name, good in self.flags.items() if not good)

    def as_dict(self) -> dict:
        return {
            "residuals": {
                "periodicity": self.periodicity_residual,
                "momentum_map": self.momentum_map_residual,
                "adiabatic": self.adiabatic_residual,
                "period_energy": self.period_energy_residual,
            },
            "tolerances": dict(self.tolerances),
            "flags": self.flags,
            "ok": self.ok,
        }


def check_hypotheses(system: SlowFastSystem, action: CircleAction, m: PhasePoint,
                     tol: float = 1e-8, engine: DiffEngine = DEFAULT_ENGINE,
                     tolerances: Optional[dict] = None) -> HypothesisReport:
    """Run all four structural checks at ``m`` with a shared default tolerance."""
    tols = {"periodicity": tol, "momentum_map": tol, "adiabatic": tol,
            "period_energy": tol}
    if tolerances:
        tols.update(tolerances)
    _, per = action.check_periodicity(m, tols["periodicity"])
    return HypothesisReport(
        periodicity_residual=per,
        momentum_map_residual=check_momentum_map(system, action, m, engine=engine),
        adiabatic_residual=check_adiabatic(system, action, m, engine=engine),
        period_energy_residual=check_period_energy(system, m, engine=engine),
        tolerances=tols,
    )


# ---------------------------------------------------------------------------
# exact-case momentum map from the primitive 1-form y dx
# ---------------------------------------------------------------------------

def momentum_from_action(system: SlowFastSystem, action: CircleAction, m: PhasePoint,
                         nodes: Optional[int] = None,
                         engine: DiffEngine = DEFAULT_ENGINE) -> float:
    """Standard action built from the flat primitive 1-form Σ y_i dx_i.

    Averages the pulled-back 1-form along the orbit (fast-block directional
    derivatives of the flow map are supplied by the differentiation engine)
    and contracts with the unperturbed Hamiltonian field, divided by ω. Up to
    an additive function of the slow variables this reproduces any momentum
    map of the circle action.
    """
    system.require_in_domain(m)
    n = action.nodes if nodes is None else nodes
    times = 2.0 * np.pi * np.arange(n) / n
    fast, slow = m.state()
    r = system.r

    eta_avg = np.zeros(2 * r)
    if engine.mode == "dual" and action.flow_mode == "analytic":
        for l in range(2 * r):
            tag = sk.fresh_tag()
            seeded = list(fast)
            seeded[l] = sk.Dual(fast[l], 1.0, tag)
            flowed = system.fast_flow(times, seeded, slow)
            acc = 0.0
            for i in range(r):
                y_vals = np.asarray(sk.value(flowed[i]), dtype=float)
                dx = sk.extract_partial(flowed[r + i], tag)
                acc = acc + y_vals * np.asarray(sk.value(dx), dtype=float)
            eta_avg[l] = float(np.mean(np.broadcast_to(acc, times.shape)))
    else:
        # finite differences of the flow map (works for numeric flows too)
        for l in range(2 * r):
            h = engine.fd_step * max(1.0, abs(fast[l]))
            hi = list(fast)
            lo = list(fast)
            hi[l] += h
            lo[l] -= h
            orbit_hi = action.orbit(hi, slow, n)
            orbit_lo = action.orbit(lo, slow, n)
            orbit_mid = action.orbit(fast, slow, n)
            acc = 0.0
            for i in range(r):
                dx = (orbit_hi.fast[r + i] - orbit_lo.fast[r + i]) / (2.0 * h)
                acc = acc + orbit_mid.fast[i] * dx
            eta_avg[l] = float(np.mean(acc))

    x0_fast = field_fast(system, m, DEFAULT_ENGINE if engine.mode != "dual" else engine)
    omega = float(sk.value(system.omega(fast, slow)))
    return float(np.dot(eta_avg, x0_fast) / omega)


# ---------------------------------------------------------------------------
# correction pipeline (batch-friendly internals on raw kernel states)
# ---------------------------------------------------------------------------

def _profile_of(values, orbit: OrbitSamples) -> np.ndarray:
    arr = np.asarray(sk.value(values), dtype=float)
    target = orbit.batch_shape + (orbit.nodes,)
    if arr.shape != target:
        arr = np.broadcast_to(arr, target)
    return arr


def _bracket1_profile(system, orbit: OrbitSamples, engine: DiffEngine) -> np.ndarray:
    """{H, J}₁ sampled along the orbit."""
    return _profile_of(state_bracket1(system.H, system.J, orbit.fast, orbit.slow, engine),
                       orbit)


def _theta_nodes(system, orbit: OrbitSamples, engine: DiffEngine):
    """Θ = 𝒮(d₁J) components at every orbit node (one FFT per component).

    The profile seen from node j is the cyclic shift of the base profile, so
    the whole orbit shares a single set of Fourier coefficients.
    """
    comps = engine.partials(system.J, orbit.fast, orbit.slow, "slow")
    return [s_at_nodes(_profile_of(c, orbit)) for c in comps]


def _k1_nodes(system, orbit: OrbitSamples, engine: DiffEngine) -> np.ndarray:
    """K₁ = ½(Θ_p·∂H/∂q − Θ_q·∂H/∂p) at every orbit node."""
    theta_c = _theta_nodes(system, orbit, engine)
    dh = engine.partials(system.H, orbit.fast, orbit.slow, "slow")
    return 0.5 * _profile_of(bracket_of_partials(theta_c, dh), orbit)


def _omega_at(system, fast, slow) -> np.ndarray:
    om = np.asarray(sk.value(system.omega(fast, slow)), dtype=float)
    if np.any(om <= 0.0):
        raise NumericalError("frequency must be positive on the evaluation set")
    return om


def _f1_state(system, action, fast, slow, nodes, engine) -> np.ndarray:
    """First-order correction at a (possibly batched) raw state."""
    orbit = action.orbit(fast, slow, nodes)
    shj = s_from_samples(_bracket1_profile(system, orbit, engine))
    k1_avg = fourier_mean(_k1_nodes(system, orbit, engine))
    return -(shj + k1_avg) / _omega_at(system, fast, slow)


def _slow_fd_partials(state_fn, fast, slow, base_step):
    """Central-difference slow partials of a quadrature-defined state function.

    ``fast``/``slow`` carry an arbitrary batch shape; every slow coordinate is
    shifted both ways in one stacked evaluation. Returns (partials, scale)
    where ``scale`` is the largest sampled |value| (for noise estimates).
    """
    shape = np.broadcast_shapes(*[np.shape(c) for c in fast + slow])
    fast_v = [np.broadcast_to(np.asarray(c, dtype=float), shape) for c in fast]
    slow_v = [np.broadcast_to(np.asarray(c, dtype=float), shape) for c in slow]
    k2 = len(slow_v)

    batched_fast = [np.broadcast_to(c, (k2, 2) + shape) for c in fast_v]
    batched_slow = []
    steps = [base_step * np.maximum(1.0, np.abs(c)) for c in slow_v]
    for c_idx, c in enumerate(slow_v):
        arr = np.broadcast_to(c, (k2, 2) + shape).copy()
        arr[c_idx, 0] += steps[c_idx]
        arr[c_idx, 1] -= steps[c_idx]
        batched_slow.append(arr)

    vals = np.asarray(state_fn(batched_fast, batched_slow), dtype=float)
    partials = [(vals[c, 0] - vals[c, 1]) / (2.0 * steps[c]) for c in range(k2)]
    return partials, float(np.max(np.abs(vals))) if vals.size else 0.0


def _check_strict(action: CircleAction, m: PhasePoint, strict: bool):
    if not strict:
        return
    ok, residual = action.check_periodicity(m, tol=1e-6)
    if not ok:
        raise HypothesisViolation(
            f"fast flow is not 2π-periodic at this point (residual {residual:.3e})")


def theta(system: SlowFastSystem, action: CircleAction, m: PhasePoint,
          nodes: Optional[int] = None, engine: DiffEngine = DEFAULT_ENGINE) -> np.ndarray:
    """Θ = 𝒮(d₁J) at ``m`` as a slow-component vector of length 2k."""
    return action.s_slow_oneform(d1j_coeffs(system, engine), m, nodes)


def k1(system: SlowFastSystem, action: CircleAction, m: PhasePoint,
       nodes: Optional[int] = None, engine: DiffEngine = DEFAULT_ENGINE) -> float:
    """K₁(m) = ½·(Θ_p·∂H/∂q − Θ_q·∂H/∂p), the slow contraction of Θ with dH."""
    system.require_in_domain(m)
    fast, slow = m.state()
    th = theta(system, action, m, nodes, engine)
    dh = [float(sk.value(d)) for d in engine.partials(system.H, fast, slow, "slow")]
    return float(0.5 * bracket_of_partials(th, dh))


def f1(system: SlowFastSystem, action: CircleAction, m: PhasePoint,
       quad: QuadratureConfig = DEFAULT_QUAD, engine: DiffEngine = DEFAULT_ENGINE,
       strict: bool = False) -> float:
    """First-order correction F₁(m) = −(1/ω)(𝒮({H,J}₁) + ⟨K₁⟩)."""
    system.require_in_domain(m)
    _check_strict(action, m, strict)
    fast, slow = m.state()
    return float(_f1_state(system, action, fast, slow, quad.outer_nodes, engine))


def _h_f1_bracket(system, action, fast, slow, quad, engine):
    """{H, F₁}₁ on a raw kernel state, with F₁'s slow partials by central differences.

    Returns (bracket, scale), ``scale`` being the largest |F₁| differenced.
    """
    f1_of = lambda bf, bs: _f1_state(system, action, bf, bs, quad.inner_nodes, engine)
    df1, scale = _slow_fd_partials(f1_of, fast, slow, quad.fd_step)
    dh = [sk.value(d) for d in engine.partials(system.H, fast, slow, "slow")]
    return bracket_of_partials(dh, df1), scale


def _f2_state(system, action, fast, slow, quad, engine, warn_noise=True) -> np.ndarray:
    """F₂ = −(2/ω)·𝒮({H, F₁}₁) on a raw kernel state.

    With ``warn_noise`` set, a ``PrecisionWarning`` is raised when the
    estimated noise of the slow finite differences, eps·scale/fd_step with
    ``scale`` the largest |F₁| sampled, exceeds 1 % of the largest
    |bracket| on the orbit. That includes a bracket that came out exactly
    zero from nonzero differenced values, since such a zero cannot be told
    apart from roundoff. When every differenced value is zero (``scale`` is
    0, e.g. a decoupled system with F₁ ≡ 0) the noise is 0 and nothing warns.
    """
    orbit = action.orbit(fast, slow, quad.outer_nodes)
    bracket, scale = _h_f1_bracket(system, action, orbit.fast, orbit.slow, quad, engine)
    bracket = _profile_of(bracket, orbit)

    if warn_noise:
        noise = np.finfo(float).eps * scale / quad.fd_step
        signal = float(np.max(np.abs(bracket))) if bracket.size else 0.0
        if noise > 0.01 * signal:
            warnings.warn(
                f"slow finite differences carry estimated noise {noise:.2e} "
                f"against bracket scale {signal:.2e}",
                PrecisionWarning, stacklevel=2)

    return -2.0 * s_from_samples(bracket) / _omega_at(system, fast, slow)


def f2(system: SlowFastSystem, action: CircleAction, m: PhasePoint,
       quad: QuadratureConfig = DEFAULT_QUAD, engine: DiffEngine = DEFAULT_ENGINE,
       strict: bool = False) -> float:
    """Second-order correction F₂(m) = −(2/ω)·𝒮({H, F₁}₁).

    Warns with ``PrecisionWarning`` when the finite-difference noise estimate
    exceeds 1 % of the bracket being averaged, a bracket of exactly zero
    included; stays silent when nothing nonzero was differenced.
    """
    system.require_in_domain(m)
    _check_strict(action, m, strict)
    fast, slow = m.state()
    return float(_f2_state(system, action, fast, slow, quad, engine))


# ---------------------------------------------------------------------------
# series assembly and order diagnostics
# ---------------------------------------------------------------------------

def series_values(terms, eps: float, order: int) -> np.ndarray:
    """J + ε·F₁ + ε²/2·F₂ truncated at ``order``, from (J, F₁, F₂) arrays."""
    j_vals, f1_vals, f2_vals = terms
    total = np.array(j_vals, dtype=float)
    if order >= 1:
        total = total + eps * f1_vals
    if order >= 2:
        total = total + 0.5 * eps * eps * f2_vals
    return total


class InvariantSeries:
    """Truncated invariant F(m; ε) = J + ε·F₁ + ε²/2·F₂ up to ``order``."""

    def __init__(self, system, action, order, quad: QuadratureConfig = DEFAULT_QUAD,
                 engine: DiffEngine = DEFAULT_ENGINE, strict: bool = False):
        if order not in (0, 1, 2):
            raise UnsupportedOrder(f"order must be 0, 1 or 2, got {order}")
        self.system = system
        self.action = action
        self.order = int(order)
        self.quad = quad
        self.engine = engine
        self.strict = strict

    def terms_batch(self, coords: np.ndarray):
        """(J, F₁, F₂) over an (n_points, dim) coordinate array.

        Terms beyond the order are zero. F₂ is evaluated ``F2_CHUNK`` points
        at a time, which bounds the memory of its nested quadrature, and does
        not warn about finite-difference noise.
        """
        coords = np.asarray(coords, dtype=float)
        r, k = self.system.r, self.system.k
        fast = [coords[:, i] for i in range(2 * r)]
        slow = [coords[:, 2 * r + i] for i in range(2 * k)]
        j_vals = np.broadcast_to(np.asarray(sk.value(self.system.J(fast, slow)), dtype=float),
                                 coords.shape[:1]).copy()
        f1_vals = np.zeros_like(j_vals)
        f2_vals = np.zeros_like(j_vals)
        if self.order >= 1:
            f1_vals = _f1_state(self.system, self.action, fast, slow,
                                self.quad.outer_nodes, self.engine)
        if self.order >= 2:
            for start in range(0, coords.shape[0], F2_CHUNK):
                sl = slice(start, start + F2_CHUNK)
                f2_vals[sl] = _f2_state(self.system, self.action,
                                        [c[sl] for c in fast], [c[sl] for c in slow],
                                        self.quad, self.engine, warn_noise=False)
        return j_vals, f1_vals, f2_vals

    def evaluate_batch(self, coords: np.ndarray, eps: float) -> np.ndarray:
        """Series values over an (n_points, dim) coordinate array."""
        return series_values(self.terms_batch(coords), eps, self.order)

    def terms(self, m: PhasePoint):
        """(J, F₁, F₂) at ``m``; higher terms are zero beyond the order."""
        self.system.require_in_domain(m)
        _check_strict(self.action, m, self.strict)
        return tuple(float(t[0]) for t in self.terms_batch(m.coords[None, :]))

    def evaluate(self, m: PhasePoint, eps: float) -> float:
        return float(series_values(self.terms(m), eps, self.order))


def assemble(system: SlowFastSystem, action: CircleAction, order: int,
             quad: QuadratureConfig = DEFAULT_QUAD,
             engine: DiffEngine = DEFAULT_ENGINE, strict: bool = False) -> InvariantSeries:
    """Build the truncated invariant series of the requested order."""
    return InvariantSeries(system, action, order, quad, engine, strict)


def lie_derivative(system: SlowFastSystem, F: Callable, m: PhasePoint, eps: float,
                   engine: DiffEngine = DEFAULT_ENGINE) -> float:
    """Directional derivative of ``F`` along the full vector field at ``m``.

    ``F`` is a kernel oracle ``F(fast, slow)``. For quadrature-defined
    observables pass a finite-difference engine; its shifted evaluations use
    plain floats only.
    """
    grad = grad_full(system, F, m, engine)
    vel = field_full(system, m, eps)
    return float(np.dot(grad, vel))


def _d_dt_along_flow(action: CircleAction, point_fn: Callable, m: PhasePoint,
                     step: float = 1e-4) -> float:
    """Central difference of t ↦ point_fn(Fl^t m) at t = 0 (equals L_Υ)."""
    plus = point_fn(action.flow(step, m))
    minus = point_fn(action.flow(-step, m))
    return (plus - minus) / (2.0 * step)


def ty2_residual(system: SlowFastSystem, action: CircleAction, m: PhasePoint,
                 quad: QuadratureConfig = DEFAULT_QUAD,
                 engine: DiffEngine = DEFAULT_ENGINE, step: float = 1e-4) -> float:
    """|L_Υ F₁ + (1/ω){H,J}₁| — defect of the first-order homological equation."""
    system.require_in_domain(m)
    fast, slow = m.state()
    deriv = _d_dt_along_flow(
        action, lambda p: f1(system, action, p, quad, engine), m, step)
    hj = float(sk.value(state_bracket1(system.H, system.J, fast, slow, engine)))
    omega = float(sk.value(system.omega(fast, slow)))
    return abs(deriv + hj / omega)


def ty3_residual(system: SlowFastSystem, action: CircleAction, m: PhasePoint,
                 quad: QuadratureConfig = DEFAULT_QUAD,
                 engine: DiffEngine = DEFAULT_ENGINE, step: float = 1e-4) -> float:
    """Defect of the second-order homological equation, |L_Υ F₂ + (2/ω){H,F₁}₁|.

    With the series normalized as J + εF₁ + ε²/2·F₂, order-by-order expansion
    of the invariance condition forces L_Υ F₂ = −(2/ω){H,F₁}₁. ``F₂`` is
    differentiated along the flow; {H,F₁}₁ is formed here exactly as inside it.
    """
    system.require_in_domain(m)
    fast, slow = m.state()
    deriv = _d_dt_along_flow(
        action, lambda p: f2(system, action, p, quad, engine), m, step)
    hf1, _ = _h_f1_bracket(system, action, fast, slow, quad, engine)
    omega = float(sk.value(system.omega(fast, slow)))
    return abs(deriv + 2.0 * float(hf1) / omega)
