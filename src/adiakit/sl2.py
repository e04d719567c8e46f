"""Closed-form machinery for Hamiltonians quadratic in the fast variables.

For H = h(w) + ω(w)·Q_A(z) with A(w) a traceless 2×2 matrix field of unit
determinant, the circle action is the linear flow cos t·I + sin t·A and the
averaging operators act algebraically on quadratic forms:

    ⟨Q_S⟩ = ½·Q_{S − A S A},        𝒮(Q_S) = ¼·Q_{[A, S]}.

Matrices are carried as 4-tuples of kernel scalars so the same algebra works
on floats, batched arrays and dual numbers (slow derivatives of the matrix
field are exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernel as sk
from .circle import s_from_samples
from .errors import DegenerateFamily
from .phase import DEFAULT_ENGINE, Box, PhasePoint, SlowFastSystem, bracket_of_partials

__all__ = [
    "Sl2Field",
    "QuadraticSystem",
    "q_form",
    "avg_q_matrix",
    "s_q_matrix",
    "linear_flow",
    "slow_bracket_matrix",
    "f1_closed",
    "f2_closed",
]

DET_TOL = 1e-8
CLOSED_NODES = 16  # f2_closed's integrand has degree <= 6 in the flow phase


# -- tiny matrix algebra on (m00, m01, m10, m11) tuples ----------------------

def mat_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mat_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mat_scale(s, a):
    return tuple(s * x for x in a)


def mat_mul(a, b):
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (
        a00 * b00 + a01 * b10,
        a00 * b01 + a01 * b11,
        a10 * b00 + a11 * b10,
        a10 * b01 + a11 * b11,
    )


def mat_comm(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


@dataclass(frozen=True)
class Sl2Field:
    """Slow-dependent traceless matrix A(w) = [[a, b], [c, −a]] with det A = 1.

    ``a``, ``b``, ``c`` are kernel-generic oracles of the slow block, so the
    field can be evaluated on batches and differentiated by dual lifting.
    """

    a: Callable
    b: Callable
    c: Callable

    def matrix(self, slow):
        av, bv, cv = self.a(slow), self.b(slow), self.c(slow)
        return (av, bv, cv, -av)

    def det(self, slow):
        av, bv, cv = self.a(slow), self.b(slow), self.c(slow)
        return -av * av - bv * cv

    def check_unimodular(self, slow_samples, tol: float = 1e-10) -> float:
        """Largest |det A − 1| over the given slow sample grid."""
        worst = 0.0
        for w in slow_samples:
            worst = max(worst, abs(float(sk.value(self.det(list(w)))) - 1.0))
        if worst > tol:
            raise DegenerateFamily(f"det A deviates from 1 by {worst:.3e}")
        return worst

    @classmethod
    def constant(cls, a: float, b: float, c: float) -> "Sl2Field":
        return cls(lambda w: a, lambda w: b, lambda w: c)


def q_form(S, z):
    """Quadratic form Q_S(z) = −½·(J S z)·z with J = [[0, −1], [1, 0]].

    For traceless S the associated fast Hamiltonian field is S z·∂/∂z, so the
    rotation generator A = [[0, −1], [1, 0]] carries Q_A = ½(y² + x²).
    """
    y, x = z
    s00, s01, s10, s11 = S
    return 0.5 * (s10 * y * y + (s11 - s00) * x * y - s01 * x * x)


def avg_q_matrix(A, S):
    """Matrix of ⟨Q_S⟩: one half of S − A S A."""
    return mat_scale(0.5, mat_sub(S, mat_mul(A, mat_mul(S, A))))


def s_q_matrix(A, S):
    """Matrix of 𝒮(Q_S): one quarter of the commutator [A, S]."""
    return mat_scale(0.25, mat_comm(A, S))


def linear_flow(A, t, z):
    """(cos t·I + sin t·A) z — the exactly 2π-periodic circle action."""
    y, x = z
    a00, a01, a10, a11 = A
    c, s = sk.cos(t), sk.sin(t)
    return [c * y + s * (a00 * y + a01 * x), c * x + s * (a10 * y + a11 * x)]


@dataclass(frozen=True)
class QuadraticSystem:
    """H = h(w) + ω(w)·Q_A(z) with one fast pair and k slow pairs."""

    h: Callable
    omega: Callable
    field: Sl2Field
    k: int = 1

    def system(self, domain: Optional[Box] = None) -> SlowFastSystem:
        fld = self.field
        h, om = self.h, self.omega

        def H(fast, slow):
            return h(slow) + om(slow) * q_form(fld.matrix(slow), fast)

        def omega_fn(fast, slow):
            return om(slow)

        def J(fast, slow):
            return q_form(fld.matrix(slow), fast)

        def fast_flow(t, fast, slow):
            return linear_flow(fld.matrix(slow), t, fast)

        return SlowFastSystem(r=1, k=self.k, H=H, omega=omega_fn, J=J,
                              fast_flow=fast_flow, domain=domain,
                              name="quadratic_family")


def _entry_partials(field: Sl2Field, slow):
    """∂A/∂w_j as matrices, one per slow coordinate."""

    def entry(fn):
        return DEFAULT_ENGINE.partials(lambda _f, s: fn(s), [], list(slow), "slow")

    da, db, dc = entry(field.a), entry(field.b), entry(field.c)
    return [(da[j], db[j], dc[j], -da[j]) for j in range(len(da))]


def slow_bracket_matrix(scalar: Callable, field: Sl2Field, slow, k: int):
    """Entrywise slow bracket {scalar, A}₁ of a slow oracle with the field."""
    ds = DEFAULT_ENGINE.partials(lambda _f, s: scalar(s), [], list(slow), "slow")
    dA = _entry_partials(field, slow)
    out = (0.0, 0.0, 0.0, 0.0)
    for i in range(k):
        # {s, e}₁ = Σ_i (∂s/∂p_i ∂e/∂q_i − ∂s/∂q_i ∂e/∂p_i)
        out = mat_add(out, mat_sub(mat_scale(ds[i], dA[k + i]),
                                   mat_scale(ds[k + i], dA[i])))
    return out


def _require_unimodular(field: Sl2Field, slow):
    det = float(sk.value(field.det(list(slow))))
    if abs(det - 1.0) > DET_TOL:
        raise DegenerateFamily(f"det A = {det!r} at this slow point")


def f1_closed(qs: QuadraticSystem, m: PhasePoint) -> float:
    """First-order correction of the quadratic family in closed form.

    F₁ = −(1/4ω)(Q_{[A,B]} + Q_A·Q_{[A,C]})
         − ¼·Σ_i (Q_{A ∂A/∂p_i}·Q_{∂A/∂q_i} − Q_{A ∂A/∂q_i}·Q_{∂A/∂p_i})

    with B = {h,A}₁ and C = {ω,A}₁ entrywise. The coefficient of the
    derivative sum is the reading adjudicated against the generic engine:
    the source display carries it with the opposite sign and an extra ω,
    which reproduces +⟨K₁⟩ instead of the −⟨K₁⟩/ω that enters F₁.
    """
    z, slow = m.state()
    _require_unimodular(qs.field, slow)
    return float(sk.value(_f1_closed_oracle(qs)(z, slow)))


def _f1_closed_oracle(qs: QuadraticSystem):
    """Kernel-generic F₁ of the family (dual-liftable in the slow block)."""

    def oracle(fast, slow):
        A = qs.field.matrix(slow)
        om = qs.omega(slow)
        Bm = slow_bracket_matrix(qs.h, qs.field, slow, qs.k)
        Cm = slow_bracket_matrix(qs.omega, qs.field, slow, qs.k)
        lead = q_form(mat_comm(A, Bm), fast) + q_form(A, fast) * q_form(mat_comm(A, Cm), fast)
        total = -lead / (4.0 * om)
        dA = _entry_partials(qs.field, slow)
        k = qs.k
        deriv_sum = 0.0
        for i in range(k):
            Mp, Nq = dA[i], dA[k + i]
            deriv_sum = deriv_sum + (q_form(mat_mul(A, Mp), fast) * q_form(Nq, fast)
                                     - q_form(mat_mul(A, Nq), fast) * q_form(Mp, fast))
        return total - 0.25 * deriv_sum

    return oracle


def f2_closed(qs: QuadraticSystem, m: PhasePoint) -> float:
    """Second-order correction of the family, exactly evaluated.

    Solves the second-order homological equation with the closed-form F₁:
    F₂ = −(2/ω)·𝒮({H, F₁}₁), where the slow gradients of F₁ are exact (dual
    lifting through the closed form, second derivatives of h, ω and A
    included) and 𝒮 is a spectral quadrature along the linear flow. The
    integrand is a trigonometric polynomial of degree ≤ 6 in the flow phase,
    so 16 nodes are exact to rounding.
    """
    z, slow = m.state()
    _require_unimodular(qs.field, slow)
    system = qs.system()
    f1_oracle = _f1_closed_oracle(qs)

    times = 2.0 * np.pi * np.arange(CLOSED_NODES) / CLOSED_NODES
    A = tuple(float(sk.value(e)) for e in qs.field.matrix(slow))
    z_t = linear_flow(A, times, [np.asarray(z[0]), np.asarray(z[1])])

    df1 = DEFAULT_ENGINE.partials(f1_oracle, z_t, slow, "slow")
    dh = DEFAULT_ENGINE.partials(system.H, z_t, slow, "slow")
    bracket = bracket_of_partials(dh, df1)
    profile = np.broadcast_to(np.asarray(sk.value(bracket), dtype=float), times.shape)
    om = float(sk.value(qs.omega(slow)))
    return float(-2.0 * s_from_samples(profile) / om)
