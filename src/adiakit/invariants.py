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
  (``sl2.f2_closed``) to rounding (2e-16 at random points), also when ω
  varies with the slow variables, where the two readings found in the literature
  fail: (2/ω)·𝒮({H, (1/ω)𝒮({H,J}₁) + ⟨K₁⟩}₁) misses by up to 3.5e-3, and
  (1/ω)·𝒮({H, F₁}₁), which misreads the ε²/2 normalization, is −½ × F₂.

F₂ needs the slow partials of F₁, a quadrature-defined scalar, at every node
m_j = (Fl^{t_j}(z₀), w) of the orbit of the base point m = (z₀, w). One orbit
of N = ``action.nodes`` samples gives them all:

* F₁ at node j is −(𝒮_j({H,J}₁) + ⟨K₁⟩)/ω(m_j): ⟨K₁⟩ is the same at every
  node, and 𝒮 at all nodes takes one FFT of the orbit profile (the profile
  seen from m_j is its cyclic shift). The slow partials of H and J are
  taken once per orbit.
* G_j = F₁(m_j), seen as a function of the base point b = (z₀, w), is
  differentiated together with the flow Fl_j. The slow partials at fixed
  fast coordinates then follow from the chain rule,
  ∂_w F₁ = ∂_w G − ∂_{z₀}G·(D_z Fl)⁻¹·∂_w Fl, node by node.

The sensitivities ∂G/∂b and ∂Fl/∂b come from one of two sources:

* analytic flows: one multidual pass that lifts b through ``fast_flow`` and
  the F₁-at-nodes computation (one tag, a leading direction axis of length
  D = 2r + 2k). This is exact: no step, no noise, no warning. Cost per
  point: one orbit carrying D derivative parts.
* numeric flows: central differences of the same one-orbit computation at
  the 2D base points shifted by ±``engine.fd_step``·max(1, |b_d|). Cost per
  point: 1 + 2D orbit integrations. A ``PrecisionWarning`` is raised when
  the estimated roundoff eps·max|G|/fd_step exceeds 1 % of the bracket.

Everything analytically known is differentiated exactly via dual lifting.
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

def _profile_of(values, orbit: OrbitSamples):
    """``values`` broadcast to the orbit's full node axis (duals kept)."""
    return sk.broadcast(values, orbit.batch_shape + (orbit.nodes,))


def _slow_partials(system, orbit: OrbitSamples, engine: DiffEngine):
    """Slow partials of H and of J along the orbit, computed once per orbit."""
    return (engine.partials(system.H, orbit.fast, orbit.slow, "slow"),
            engine.partials(system.J, orbit.fast, orbit.slow, "slow"))


def _bracket1_profile(dh, dj, orbit: OrbitSamples):
    """{H, J}₁ sampled along the orbit, from the slow partials of H and J."""
    return _profile_of(bracket_of_partials(dh, dj), orbit)


def _theta_nodes(dj, orbit: OrbitSamples):
    """Θ = 𝒮(d₁J) components at every orbit node (one FFT per component).

    The profile seen from node j is the cyclic shift of the base profile, so
    the whole orbit shares a single set of Fourier coefficients.
    """
    return [s_at_nodes(_profile_of(c, orbit)) for c in dj]


def _k1_nodes(dh, dj, orbit: OrbitSamples):
    """K₁ = ½(Θ_p·∂H/∂q − Θ_q·∂H/∂p) at every orbit node."""
    return 0.5 * _profile_of(bracket_of_partials(_theta_nodes(dj, orbit), dh), orbit)


def _omega_at(system, fast, slow):
    """ω on a raw state (duals kept), checked positive."""
    om = system.omega(fast, slow)
    if np.any(np.asarray(sk.value(om)) <= 0.0):
        raise NumericalError("frequency must be positive on the evaluation set")
    return om


def _f1_state(system, action, fast, slow, engine) -> np.ndarray:
    """First-order correction at a (possibly batched) raw state."""
    orbit = action.orbit(fast, slow)
    dh, dj = _slow_partials(system, orbit, engine)
    shj = s_from_samples(_bracket1_profile(dh, dj, orbit))
    k1_avg = fourier_mean(_k1_nodes(dh, dj, orbit))
    return -(shj + k1_avg) / _omega_at(system, fast, slow)


def _f1_nodes(system, orbit: OrbitSamples, engine: DiffEngine):
    """(F₁ at every node m_j of one orbit, slow partials of H there).

    F₁(m_j) = −(𝒮_j({H,J}₁) + ⟨K₁⟩)/ω(m_j): ⟨K₁⟩ is the same at every node
    and one FFT gives 𝒮 at all of them. The orbit may hold duals.
    """
    dh, dj = _slow_partials(system, orbit, engine)
    shj = s_at_nodes(_bracket1_profile(dh, dj, orbit))
    k1_avg = fourier_mean(_k1_nodes(dh, dj, orbit), keepdims=True)
    omega = _profile_of(_omega_at(system, orbit.fast, orbit.slow), orbit)
    return -(shj + k1_avg) / omega, dh


def _base_coordinates(fast, slow):
    return np.broadcast_arrays(*[np.asarray(c, dtype=float) for c in list(fast) + list(slow)])


def _dual_sensitivities(system, action, fast, slow, engine):
    """Exact sensitivities of the one-orbit F₁ to the base point b = (z₀, w).

    One multidual pass (one tag, a leading direction axis of length
    D = 2r + 2k) lifts b through ``fast_flow`` and ``_f1_nodes``. Returns
    (∂H/∂w at the nodes, ∂G/∂b, [∂Fl_i/∂b], noise) with G_j = F₁(m_j), the
    direction axis first, and noise 0: exact derivatives carry none.
    """
    base = _base_coordinates(fast, slow)
    dim = len(base)
    tag = sk.fresh_tag()
    seeds = np.eye(dim).reshape((dim, dim) + (1,) * base[0].ndim)
    lifted = [sk.Dual(c, seeds[d], tag) for d, c in enumerate(base)]
    orbit = action.orbit(lifted[:len(fast)], lifted[len(fast):])
    g, dh = _f1_nodes(system, orbit, engine)
    full = (dim,) + orbit.batch_shape + (orbit.nodes,)

    def partial(x):
        return np.broadcast_to(sk.extract_partial(x, tag), full)

    return ([sk.value(c) for c in dh], partial(g), [partial(c) for c in orbit.fast], 0.0)


def _fd_sensitivities(system, action, fast, slow, engine):
    """Central-difference sensitivities of the one-orbit F₁, for numeric flows.

    Integrates the orbit of the base point and of the 2D base points shifted
    by ±``engine.fd_step``·max(1, |b_d|), D = 2r + 2k; returns what
    ``_dual_sensitivities`` returns, the noise being eps·max|G|/fd_step.
    """
    base = _base_coordinates(fast, slow)
    dim, n_fast = len(base), len(fast)
    steps = [engine.fd_step * np.maximum(1.0, np.abs(c)) for c in base]
    shifted = []
    for d, c in enumerate(base):
        arr = np.broadcast_to(c, (dim, 2) + c.shape).copy()
        arr[d, 0] += steps[d]
        arr[d, 1] -= steps[d]
        shifted.append(arr)
    orbit_shifted = action.orbit(shifted[:n_fast], shifted[n_fast:])
    g, _ = _f1_nodes(system, orbit_shifted, engine)
    step = np.stack(steps)[..., None]

    def partial(x):
        return (x[:, 0] - x[:, 1]) / (2.0 * step)

    orbit = action.orbit(base[:n_fast], base[n_fast:])
    dh = engine.partials(system.H, orbit.fast, orbit.slow, "slow")
    noise = np.finfo(float).eps * float(np.max(np.abs(g))) / engine.fd_step
    return dh, partial(g), [partial(c) for c in orbit_shifted.fast], noise


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
       engine: DiffEngine = DEFAULT_ENGINE, strict: bool = False) -> float:
    """First-order correction F₁(m) = −(1/ω)(𝒮({H,J}₁) + ⟨K₁⟩)."""
    system.require_in_domain(m)
    _check_strict(action, m, strict)
    fast, slow = m.state()
    return float(_f1_state(system, action, fast, slow, engine))


def _h_f1_bracket(system, action, fast, slow, engine):
    """{H, F₁}₁ at every node of the orbit of a raw kernel state.

    The slow partials of F₁ at fixed fast coordinates follow from the
    sensitivities of G_j = F₁(Fl_j(z₀, w), w) by the chain rule,
    ∂_w F₁ = ∂_w G − ∂_{z₀}G·(D_z Fl)⁻¹·∂_w Fl. Returns (bracket, noise),
    ``noise`` being the estimated roundoff of finite-difference
    sensitivities (0 for exact ones).
    """
    sensitivities = (_dual_sensitivities if action.flow_mode == "analytic"
                     else _fd_sensitivities)
    dh, dg, dfl, noise = sensitivities(system, action, fast, slow, engine)
    n_fast = len(fast)
    # node-wise matrices: jac[..., i, d] = ∂Fl_i/∂b_d, grad[..., d] = ∂G/∂b_d
    jac = np.moveaxis(np.stack(dfl), (0, 1), (-2, -1))
    grad = np.moveaxis(dg, 0, -1)
    transport = np.linalg.solve(jac[..., :n_fast], jac[..., n_fast:])
    df1 = grad[..., n_fast:] - np.einsum("...i,...ij->...j", grad[..., :n_fast], transport)
    return bracket_of_partials(dh, list(np.moveaxis(df1, -1, 0))), noise


def _f2_state(system, action, fast, slow, engine, warn_noise=True) -> np.ndarray:
    """F₂ = −(2/ω)·𝒮({H, F₁}₁) on a raw kernel state.

    With ``warn_noise`` set, a ``PrecisionWarning`` is raised when the
    estimated noise of finite-difference sensitivities (numeric flows only)
    exceeds 1 % of the largest |bracket| on the orbit. That includes a
    bracket that came out exactly zero from nonzero differenced values,
    since such a zero cannot be told apart from roundoff. When every
    differenced value is zero (e.g. a decoupled system with F₁ ≡ 0), and on
    the analytic path, the noise is 0 and nothing warns.
    """
    bracket, noise = _h_f1_bracket(system, action, fast, slow, engine)
    if warn_noise:
        signal = float(np.max(np.abs(bracket))) if np.size(bracket) else 0.0
        if noise > 0.01 * signal:
            warnings.warn(
                f"slow finite differences carry estimated noise {noise:.2e} "
                f"against bracket scale {signal:.2e}",
                PrecisionWarning, stacklevel=2)
    return -2.0 * s_from_samples(bracket) / _omega_at(system, fast, slow)


def f2(system: SlowFastSystem, action: CircleAction, m: PhasePoint,
       engine: DiffEngine = DEFAULT_ENGINE, strict: bool = False) -> float:
    """Second-order correction F₂(m) = −(2/ω)·𝒮({H, F₁}₁).

    With a numeric flow, warns with ``PrecisionWarning`` when the
    finite-difference noise estimate exceeds 1 % of the bracket being
    averaged, a bracket of exactly zero included; stays silent when nothing
    nonzero was differenced. The analytic path is exact and never warns.
    """
    system.require_in_domain(m)
    _check_strict(action, m, strict)
    fast, slow = m.state()
    return float(_f2_state(system, action, fast, slow, engine))


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

    def __init__(self, system, action, order, engine: DiffEngine = DEFAULT_ENGINE,
                 strict: bool = False):
        if order not in (0, 1, 2):
            raise UnsupportedOrder(f"order must be 0, 1 or 2, got {order}")
        self.system = system
        self.action = action
        self.order = int(order)
        self.engine = engine
        self.strict = strict

    def terms_batch(self, coords: np.ndarray):
        """(J, F₁, F₂) over an (n_points, dim) coordinate array.

        Terms beyond the order are zero. F₂ does not warn about
        finite-difference noise here.
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
            f1_vals = _f1_state(self.system, self.action, fast, slow, self.engine)
        if self.order >= 2:
            f2_vals = _f2_state(self.system, self.action, fast, slow, self.engine,
                                warn_noise=False)
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
             engine: DiffEngine = DEFAULT_ENGINE, strict: bool = False) -> InvariantSeries:
    """Build the truncated invariant series of the requested order."""
    return InvariantSeries(system, action, order, engine, strict)


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
                 engine: DiffEngine = DEFAULT_ENGINE, step: float = 1e-4) -> float:
    """|L_Υ F₁ + (1/ω){H,J}₁| — defect of the first-order homological equation."""
    system.require_in_domain(m)
    fast, slow = m.state()
    deriv = _d_dt_along_flow(
        action, lambda p: f1(system, action, p, engine), m, step)
    hj = float(sk.value(state_bracket1(system.H, system.J, fast, slow, engine)))
    omega = float(sk.value(system.omega(fast, slow)))
    return abs(deriv + hj / omega)


def ty3_residual(system: SlowFastSystem, action: CircleAction, m: PhasePoint,
                 engine: DiffEngine = DEFAULT_ENGINE, step: float = 1e-4) -> float:
    """Defect of the second-order homological equation, |L_Υ F₂ + (2/ω){H,F₁}₁|.

    With the series normalized as J + εF₁ + ε²/2·F₂, order-by-order expansion
    of the invariance condition forces L_Υ F₂ = −(2/ω){H,F₁}₁. ``F₂`` is
    differentiated along the flow; {H,F₁}₁ is the one F₂ is built from, read
    at the orbit's first node (the point itself).
    """
    system.require_in_domain(m)
    fast, slow = m.state()
    deriv = _d_dt_along_flow(
        action, lambda p: f2(system, action, p, engine), m, step)
    hf1, _ = _h_f1_bracket(system, action, fast, slow, engine)
    omega = float(sk.value(system.omega(fast, slow)))
    return abs(deriv + 2.0 * float(hf1[..., 0]) / omega)
