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
of N samples gives them all, N chosen from the spectrum of the profiles up to
the cap ``action.nodes`` (``CircleAction.resolve``):

* F₁ at node j is −(𝒮_j({H,J}₁) + ⟨K₁⟩)/ω(m_j): ⟨K₁⟩ is the same at every
  node, and 𝒮 at all nodes takes one FFT of the orbit profile (the profile
  seen from m_j is its cyclic shift). The slow partials of H and J are
  taken once per orbit.
* G_j = F₁(m_j), seen as a function of the base point b = (z₀, w), is
  differentiated together with the flow Fl_j. With M = D_z Fl, the slow
  partials at fixed fast coordinates follow node by node from the chain rule
  ∇_zF₁ = ∂_{z₀}G·M⁻¹, ∂_wF₁ = ∂_wG − ∇_zF₁·∂_wFl. At fixed w, Fl^t is the
  flow of Υ, the Hamiltonian field of J(·, w), so M is symplectic and
  M⁻¹ = −Ω·Mᵀ·Ω with Ω = [[0, −I], [I, 0]] in the (y, x) block order
  (Hairer, Lubich & Wanner, *Geometric Numerical Integration*, §VI.2):
  signed, permuted entries of M, and no linear solve. A numeric M is
  symplectic to the integrator's tolerance, and so is its inverse.

The sensitivities ∂G/∂b and ∂Fl/∂b come from one multidual pass: b is lifted
(its own tag, a leading direction axis of length D = 2r + 2k) through the
orbit and the F₁-at-nodes computation. An analytic flow carries the duals
through ``fast_flow``. A numeric flow integrates Υ together with its
variational equation V' = ∂_zΥ·V + ∂_wΥ·W (Hairer, Nørsett & Wanner, *Solving
ODEs I*, §I.14) as one run, V₀ and W seeded from b, and returns dual samples.
No difference step is taken: the analytic pass is exact to rounding, the
numeric one to the integrator's tolerance. Cost per point: one orbit
carrying D derivative parts.

The same lifted orbit also gives F₁ at the base point: it is node 0 of the
value part of G. So ``InvariantSeries.resolve_state``, the one evaluator of
the terms, samples one orbit per point: the plain orbit for F₁ alone, the
lifted one for F₁ and F₂. Its resolving loop samples it, and takes the slow
partials of H and J, only at the nodes each N adds to the last N it tried.
A batch shares one N, the one its worst point needs.

Every step is kernel arithmetic, so ``terms_state`` takes dual coordinates
and keeps their derivatives, and ``lie_derivative`` of the series is exact:

* analytic flow: F₁ and F₂ take an outer pass with scalar tangents (one
  direction, as ``DiffEngine.partials`` seeds it); F₂ lifts the point again
  with its own tag, on top of it. F₁ also takes a pass with a direction
  axis; F₂ raises ``UnsupportedDerivative`` for one.
* numeric flow: F₁ takes one pass, scalar or with a direction axis, through
  the variational equation. F₂ of a dual point would need the tangents of V,
  a second variational equation, and raises ``UnsupportedDerivative``.

The homological residuals take no derivative along the flow: 𝒮 inverts L_Υ on
zero-mean profiles, L_Υ𝒮(f) = f − ⟨f⟩, and ω is constant on an orbit (the
period–energy hypothesis), so the defects of F₁'s and F₂'s equations are
exactly ⟨{H, J}₁⟩/ω and (2/ω)·⟨{H, F₁}₁⟩, their solvability conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernel as sk
from .circle import (CircleAction, OrbitSamples, fourier_mean, resolved_value, s_at_nodes,
                     s_from_samples)
from .errors import UnsupportedDerivative, UnsupportedOrder
from .phase import (DEFAULT_ENGINE, PhasePoint, SlowFastSystem,
                    bracket_of_partials, field_fast, field_full, grad_fast,
                    grad_full, positive_omega)

__all__ = [
    "HypothesisReport",
    "InvariantSeries",
    "check_momentum_map",
    "check_period_energy",
    "check_hypotheses",
    "momentum_from_action",
    "f1",
    "f2",
    "assemble",
    "series_values",
    "lie_derivative",
    "ty2_residual",
    "resolve_ty3",
]

HYPOTHESIS_TOL = 1e-8  # every structural check of ``check_hypotheses``


def d1j_coeffs(system: SlowFastSystem) -> Callable:
    """Oracle returning the 2k slow components of d₁J (for 1-form operators)."""

    def coeffs(fast, slow):
        return DEFAULT_ENGINE.partials(system.J, fast, slow, "slow")

    return coeffs


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------

def check_momentum_map(system: SlowFastSystem, m: PhasePoint) -> float:
    """Residual ‖d₀J − d₀H/ω‖ of the momentum-map relation at ``m``."""
    dj = grad_fast(system, system.J, m)
    dh = grad_fast(system, system.H, m)
    return float(np.linalg.norm(dj - dh / float(sk.value(positive_omega(system, *m.state())))))


def check_period_energy(system: SlowFastSystem, m: PhasePoint) -> float:
    """Largest 2×2 minor of (d₀H, d₀ω): zero iff the fast gradients are parallel."""
    dh = grad_fast(system, system.H, m)
    dw = grad_fast(system, system.omega, m)
    n = dh.shape[-1]
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            worst = max(worst, abs(float(dh[i] * dw[j] - dh[j] * dw[i])))
    return worst


@dataclass(frozen=True)
class HypothesisReport:
    """The structural checks at one phase point: ``residuals`` maps each check
    (periodicity, momentum_map, adiabatic, period_energy, in this order) to
    its residual, and a check passes at or below ``HYPOTHESIS_TOL``."""

    residuals: dict
    resolved: bool  # whether the node cap resolved ⟨d₁J⟩'s profiles; not in as_dict

    @property
    def tolerances(self) -> dict:
        return dict.fromkeys(self.residuals, HYPOTHESIS_TOL)

    @property
    def flags(self) -> dict:
        return {name: residual <= HYPOTHESIS_TOL for name, residual in self.residuals.items()}

    @property
    def ok(self) -> bool:
        return all(self.flags.values())

    @property
    def failing(self) -> list:
        return sorted(name for name, good in self.flags.items() if not good)

    def as_dict(self) -> dict:
        return {"residuals": dict(self.residuals), "tolerances": self.tolerances,
                "flags": self.flags, "ok": self.ok}


def check_hypotheses(system: SlowFastSystem, action: CircleAction,
                     m: PhasePoint) -> HypothesisReport:
    """Run all four structural checks at ``m``, each against ``HYPOTHESIS_TOL``;
    the adiabatic residual is ‖⟨d₁J⟩‖, the averaged slow differential of J."""
    avg, _, resolved = action.resolve_slow_oneform(d1j_coeffs(system), m)
    return HypothesisReport({
        "periodicity": action.check_periodicity(m),
        "momentum_map": check_momentum_map(system, m),
        "adiabatic": float(np.linalg.norm(avg)),
        "period_energy": check_period_energy(system, m),
    }, resolved)


# ---------------------------------------------------------------------------
# exact-case momentum map from the primitive 1-form y dx
# ---------------------------------------------------------------------------

def momentum_from_action(system: SlowFastSystem, action: CircleAction, m: PhasePoint) -> float:
    """Standard action built from the flat primitive 1-form Σ y_i dx_i.

    Averages the pulled-back 1-form along the orbit and contracts it with the
    unperturbed Hamiltonian field, divided by ω. The fast-block derivatives of
    the flow map come from one orbit of ``m`` with its fast block lifted to
    duals (analytic or numeric flow alike), at the node count that resolves
    the pulled-back 1-form. Up to an additive function of the slow variables
    this reproduces any momentum map of the circle action.
    """
    system.require_in_domain(m)
    fast, slow = m.state()
    r = system.r
    tag = sk.fresh_tag()

    def average(orbit):
        full = (2 * r,) + orbit.batch_shape + (orbit.nodes,)
        pulled_back = 0.0  # Σ_i y_i ∂x_i/∂z_l along the orbit, one row per fast direction l
        for i in range(r):
            dx = np.broadcast_to(sk.extract_partial(orbit.fast[r + i], tag), full)
            pulled_back = pulled_back + sk.value(orbit.fast[i]) * dx
        return fourier_mean(pulled_back)

    lifted = [sk.Dual(c, e, tag) for c, e in zip(fast, np.eye(2 * r))]
    avg = resolved_value(action.resolve(average, lifted, slow))
    omega = float(sk.value(positive_omega(system, fast, slow)))
    return float(np.dot(avg, field_fast(system, m)) / omega)


# ---------------------------------------------------------------------------
# correction pipeline (batch-friendly internals on raw kernel states)
# ---------------------------------------------------------------------------

def _profile_of(values, orbit: OrbitSamples):
    """``values`` broadcast to the orbit's full node axis (duals kept)."""
    return sk.broadcast(values, orbit.batch_shape + (orbit.nodes,))


def _slow_partials(system, orbit: OrbitSamples):
    """Slow partials of H and of J along the orbit, computed once per orbit."""
    return (DEFAULT_ENGINE.partials(system.H, orbit.fast, orbit.slow, "slow"),
            DEFAULT_ENGINE.partials(system.J, orbit.fast, orbit.slow, "slow"))


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


def _f1_nodes(system, orbit: OrbitSamples, dh, dj):
    """F₁ at every node m_j of one orbit, from the slow partials dH, dJ there.

    This is the one definition of F₁. F₁(m_j) = −(𝒮_j({H,J}₁) + ⟨K₁⟩)/ω(m_j):
    ⟨K₁⟩ is the same at every node and one FFT gives 𝒮 at all of them. The
    orbit may hold duals.
    """
    shj = s_at_nodes(_bracket1_profile(dh, dj, orbit))
    k1_avg = fourier_mean(_k1_nodes(dh, dj, orbit), keepdims=True)
    omega = _profile_of(positive_omega(system, orbit.fast, orbit.slow), orbit)
    return -(shj + k1_avg) / omega


def _at_base(profile, orbit: OrbitSamples):
    """Node 0 (the base point) of a profile over the orbit, duals kept."""
    return sk.map_parts(lambda a: a[..., 0], _profile_of(profile, orbit))


def f1(system: SlowFastSystem, action: CircleAction, m: PhasePoint) -> float:
    """First-order correction F₁(m) = −(1/ω)(𝒮({H,J}₁) + ⟨K₁⟩)."""
    return resolved_value(InvariantSeries(system, action, 1).resolve_point(m))[1]


def _without(x, tag):
    """``x`` with the derivative part of pass ``tag`` dropped, outer passes kept."""
    return x.val if isinstance(x, sk.Dual) and x.tag == tag else x


def _h_f1_bracket(system, action, fast, slow):
    """(({H, F₁}₁ at every node, F₁ and 𝒮({H, F₁}₁) at the base point), N,
    resolved) for the orbit of a raw kernel state, at the node count N that
    ``action.resolve`` chooses.

    One multidual pass (its own tag, a leading direction axis of length
    D = 2r + 2k) lifts the base point b = (z₀, w) through the orbit (analytic
    or numeric, see the module docstring) and ``_f1_nodes``; the base point's
    plain orbit is not needed, and F₁ at the base point is node 0 of the
    pass's value part. The slow partials of F₁ at fixed fast
    coordinates follow node by node from the sensitivities of
    G_j = F₁(Fl_j(z₀, w), w) and of Fl_j, by the chain rule with the
    symplectic inverse of M = D_z Fl. Each matrix entry is one column of
    kernel scalars, so the base point may hold the duals of an outer pass
    with scalar tangents. An outer direction axis would meet this pass's
    direction axis in the same place, so it raises.
    """
    state = list(fast) + list(slow)
    if any(isinstance(c, sk.Dual) and np.ndim(c.eps) > np.ndim(c.val) for c in state):
        raise UnsupportedDerivative("F₂ takes an outer dual pass with scalar tangents only")
    dim, n_fast, r = len(state), len(fast), len(fast) // 2
    shape = np.broadcast_shapes(*[np.shape(sk.value(c)) for c in state])
    tag = sk.fresh_tag()
    seeds = np.eye(dim).reshape((dim, dim) + (1,) * len(shape))
    lifted = [sk.Dual(sk.broadcast(c, shape), seeds[d], tag) for d, c in enumerate(state)]
    swap = [(i + r) % n_fast for i in range(n_fast)]  # y_i <-> x_i

    def evaluate(orbit, dh, dj):
        g = _f1_nodes(system, orbit, dh, dj)
        full = (dim,) + orbit.batch_shape + (orbit.nodes,)

        def columns(x):  # [∂x/∂b_d for each d] at every node
            part = sk.broadcast(sk.extract_partial(x, tag), full)
            return [sk.map_parts(lambda a: a[d], part) for d in range(dim)]

        jac, grad = [columns(c) for c in orbit.fast], columns(g)  # jac[i][d] = ∂Fl_i/∂b_d
        # ∇_zF₁ = ∂_{z₀}G·M⁻¹ with M⁻¹ = −Ω·Mᵀ·Ω: (M⁻¹)_{ji} = ±M_{σ(i)σ(j)}, where σ
        # swaps y_i and x_i, with + when i and j lie in the same block, − across
        grad_z = []
        for i in range(n_fast):
            total = 0.0
            for j in range(n_fast):
                term = grad[j] * jac[swap[i]][swap[j]]
                total = total + term if (i < r) == (j < r) else total - term
            grad_z.append(total)
        df1 = []  # ∂_wF₁ = ∂_wG − ∇_zF₁·∂_wFl
        for a in range(n_fast, dim):
            total = grad[a]
            for i in range(n_fast):
                total = total - grad_z[i] * jac[i][a]
            df1.append(total)
        bracket = bracket_of_partials([_without(c, tag) for c in dh], df1)
        return bracket, _at_base(_without(g, tag), orbit), s_from_samples(bracket)

    return action.resolve(evaluate, lifted[:n_fast], lifted[n_fast:],
                          lambda orbit: _slow_partials(system, orbit))


def f2(system: SlowFastSystem, action: CircleAction, m: PhasePoint) -> float:
    """Second-order correction F₂(m) = −(2/ω)·𝒮({H, F₁}₁)."""
    return resolved_value(InvariantSeries(system, action, 2).resolve_point(m))[2]


# ---------------------------------------------------------------------------
# series assembly and order diagnostics
# ---------------------------------------------------------------------------

def series_values(terms, eps: float, order: int):
    """J + ε·F₁ + ε²/2·F₂ truncated at ``order``, from the (J, F₁, F₂) terms."""
    j_vals, f1_vals, f2_vals = terms
    total = j_vals
    if order >= 1:
        total = total + eps * f1_vals
    if order >= 2:
        total = total + 0.5 * eps * eps * f2_vals
    return total


class InvariantSeries:
    """Truncated invariant F(m; ε) = J + ε·F₁ + ε²/2·F₂ up to ``order``."""

    def __init__(self, system, action, order):
        if order not in (0, 1, 2):
            raise UnsupportedOrder(f"order must be 0, 1 or 2, got {order}")
        self.system = system
        self.action = action
        self.order = int(order)

    def resolve_state(self, fast, slow):
        """((J, F₁, F₂), N, resolved) on a raw kernel state; terms beyond the
        order are 0.0, and order 0 samples no orbit (N is None).

        One orbit per point, nested over the node counts N the resolving loop
        tries (``CircleAction.resolve``): F₁ alone from the plain orbit, F₁ and
        F₂ = −(2/ω)·𝒮({H, F₁}₁) from the one lifted orbit (module docstring).
        The coordinates may be floats, arrays of points or duals (the module
        docstring says which duals each flow mode takes), and the terms keep
        them.
        """
        system = self.system
        j_vals = system.J(fast, slow)
        if self.order == 0:
            return (j_vals, 0.0, 0.0), None, True
        if self.order == 1:
            f1_vals, n, resolved = self.action.resolve(
                lambda orbit, dh, dj: _at_base(_f1_nodes(system, orbit, dh, dj), orbit),
                fast, slow, lambda orbit: _slow_partials(system, orbit))
            return (j_vals, f1_vals, 0.0), n, resolved
        (_, f1_vals, s_vals), n, resolved = _h_f1_bracket(system, self.action, fast, slow)
        return (j_vals, f1_vals, -2.0 * s_vals / positive_omega(system, fast, slow)), n, resolved

    def terms_state(self, fast, slow):
        """(J, F₁, F₂) on a raw kernel state (``resolve_state``)."""
        return resolved_value(self.resolve_state(fast, slow))

    def resolve_batch(self, coords: np.ndarray):
        """((J, F₁, F₂) arrays, N, resolved) over an (n_points, dim) coordinate
        array: one node count N for the whole batch."""
        coords = np.asarray(coords, dtype=float)
        n_fast = 2 * self.system.r
        terms, n, resolved = self.resolve_state(list(coords[:, :n_fast].T),
                                                list(coords[:, n_fast:].T))
        return (tuple(np.broadcast_to(t, coords.shape[:1]).astype(float) for t in terms),
                n, resolved)

    def evaluate_batch(self, coords: np.ndarray, eps: float) -> np.ndarray:
        """Series values over an (n_points, dim) coordinate array."""
        return series_values(resolved_value(self.resolve_batch(coords)), eps, self.order)

    def resolve_point(self, m: PhasePoint):
        """((J, F₁, F₂), N, resolved) at ``m``, the terms as floats
        (``resolve_state``)."""
        self.system.require_in_domain(m)
        terms, n, resolved = self.resolve_batch(m.coords[None, :])
        return tuple(float(t[0]) for t in terms), n, resolved

    def terms(self, m: PhasePoint):
        """(J, F₁, F₂) at ``m``; higher terms are zero beyond the order."""
        return resolved_value(self.resolve_point(m))

    def evaluate(self, m: PhasePoint, eps: float) -> float:
        return float(series_values(resolved_value(self.resolve_point(m)), eps, self.order))


def assemble(system: SlowFastSystem, action: CircleAction, order: int) -> InvariantSeries:
    """Build the truncated invariant series of the requested order."""
    return InvariantSeries(system, action, order)


def lie_derivative(system: SlowFastSystem, F: Callable, m: PhasePoint, eps: float) -> float:
    """Directional derivative of ``F`` along the full vector field at ``m``.

    ``F`` is a kernel oracle ``F(fast, slow)`` that passes duals through, as
    the system's oracles and ``InvariantSeries.terms_state`` do; the gradient
    is exact.
    """
    grad = grad_full(system, F, m)
    vel = field_full(system, m, eps)
    return float(np.dot(grad, vel))


def ty2_residual(system: SlowFastSystem, action: CircleAction, m: PhasePoint) -> float:
    """|L_Υ F₁ + (1/ω){H,J}₁| — defect of the first-order homological equation:
    exactly |⟨{H,J}₁⟩|/ω, as F₁ = −(1/ω)(𝒮({H,J}₁) + ⟨K₁⟩), L_Υ𝒮(f) = f − ⟨f⟩
    and ω is constant on the orbit by the period–energy hypothesis."""
    system.require_in_domain(m)
    fast, slow = m.state()
    avg = resolved_value(action.resolve(
        lambda orbit, dh, dj: fourier_mean(_bracket1_profile(dh, dj, orbit)),
        fast, slow, lambda orbit: _slow_partials(system, orbit)))
    return abs(float(avg)) / float(sk.value(positive_omega(system, fast, slow)))


def resolve_ty3(system: SlowFastSystem, action: CircleAction, m: PhasePoint):
    """((F₂, residual), N, resolved) at ``m``. The residual is the defect
    |L_Υ F₂ + (2/ω){H,F₁}₁| of the second-order homological equation, exactly
    (2/ω)·|⟨{H,F₁}₁⟩| (module docstring): the node mean of the bracket's value
    part at the settled N. One ``_h_f1_bracket`` pass on ``m`` as a one-point
    batch, as ``InvariantSeries.resolve_point`` takes it, so F₂ keeps the
    series' bits."""
    system.require_in_domain(m)
    fast, slow = ([np.array([c]) for c in block] for block in (m.fast, m.slow))
    (bracket, _, s_vals), n, resolved = _h_f1_bracket(system, action, fast, slow)
    omega = np.ravel(sk.value(positive_omega(system, fast, slow)))[0]
    mean = np.ravel(fourier_mean(sk.value(bracket)))[0]
    return (float(-2.0 * s_vals[0] / omega), float(2.0 * abs(mean) / omega)), n, resolved
