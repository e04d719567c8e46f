"""Quadratic-family algebra: Q-forms, averaging identities, closed corrections."""

import numpy as np
import pytest

from adiakit import (CircleAction, DegenerateFamily, PhasePoint, check_momentum_map,
                     f1, f2, grad_fast, grad_slow)
from adiakit import kernel as sk
from adiakit.circle import fourier_mean, s_from_samples
from adiakit.invariants import _k1_nodes, _theta_nodes, ty2_residual
from adiakit.phase import DEFAULT_ENGINE, bracket_of_partials
from adiakit.sl2 import (QuadraticSystem, Sl2Field, _entry_partials, _f1_closed_oracle,
                         avg_q_matrix, f1_closed, f2_closed, linear_flow, mat_comm, q_form,
                         s_q_matrix, slow_bracket_matrix)

from conftest import nondegenerate_system

ROT = (0.0, -1.0, 1.0, 0.0)  # rotation generator: Q = (y^2 + x^2)/2


def random_unimodular(rng):
    a = rng.uniform(-0.8, 0.8)
    b = rng.uniform(0.4, 1.5) * rng.choice([-1.0, 1.0])
    c = -(1.0 + a * a) / b
    return (a, b, c, -a)


def random_traceless(rng):
    a, b, c = rng.uniform(-1.0, 1.0, 3)
    return (a, b, c, -a)


def profile_q(S, A, z, nodes=16):
    times = 2.0 * np.pi * np.arange(nodes) / nodes
    zt = linear_flow(A, times, [np.asarray(z[0]), np.asarray(z[1])])
    return np.asarray(sk.value(q_form(S, zt)), dtype=float)


# -- Q-form basics --------------------------------------------------------------

def test_q_form_of_rotation_generator():
    assert q_form(ROT, [2.0, 3.0]) == pytest.approx(0.5 * (4.0 + 9.0))


def test_q_form_sign_follows_defining_expansion():
    # the transposed generator flips the sign of the oscillator form
    assert q_form((0.0, 1.0, -1.0, 0.0), [2.0, 3.0]) == pytest.approx(-0.5 * (4.0 + 9.0))


def test_q_form_zero_and_bilinearity(rng):
    S = random_traceless(rng)
    z = [0.7, -0.4]
    assert q_form(S, [0.0, 0.0]) == 0.0
    twice = tuple(2.0 * e for e in S)
    assert q_form(twice, z) == pytest.approx(2.0 * q_form(S, z))


def test_q_form_generates_matrix_vector_field(rng):
    # Hamiltonian field of Q_S under the fast bracket is S z
    from adiakit import SlowFastSystem, field_fast

    S = random_traceless(rng)
    system = SlowFastSystem(r=1, k=1, H=lambda f, s: q_form(S, f), omega=lambda f, s: 1.0)
    z = rng.uniform(-1.0, 1.0, 2)
    m = PhasePoint(z, [0.0, 0.0])
    expected = [S[0] * z[0] + S[1] * z[1], S[2] * z[0] + S[3] * z[1]]
    assert field_fast(system, m) == pytest.approx(expected, abs=1e-12)


# -- averaging identities ---------------------------------------------------------

def test_avg_q_of_generator_is_itself(rng):
    A = random_unimodular(rng)
    avg = avg_q_matrix(A, A)
    assert avg == pytest.approx(A)  # A^3 = -A makes <Q_A> = Q_A


def test_avg_q_fixed_point_gives_zero():
    # for the rotation generator ASA = S^T, so symmetric traceless S average out
    S = (1.0, 0.5, 0.5, -1.0)
    assert avg_q_matrix(ROT, S) == pytest.approx((0.0, 0.0, 0.0, 0.0))


def test_s_q_of_generator_vanishes(rng):
    A = random_unimodular(rng)
    assert s_q_matrix(A, A) == pytest.approx((0.0, 0.0, 0.0, 0.0))


def test_commutator_stays_traceless(rng):
    A, S = random_unimodular(rng), random_traceless(rng)
    comm = mat_comm(A, S)
    assert comm[0] + comm[3] == pytest.approx(0.0, abs=1e-14)


def test_identities_against_quadrature(rng):
    # 200 random (A, S, z): matrix identities vs direct 16-node quadrature
    for _ in range(200):
        A = random_unimodular(rng)
        S = random_traceless(rng)
        z = rng.uniform(-1.5, 1.5, 2)
        prof = profile_q(S, A, z)
        assert q_form(avg_q_matrix(A, S), z) == pytest.approx(
            float(fourier_mean(prof)), abs=1e-10)
        assert q_form(s_q_matrix(A, S), z) == pytest.approx(
            float(s_from_samples(prof)), abs=1e-10)


def test_linear_flow_structure(rng):
    A = random_unimodular(rng)
    z = [0.8, -0.3]
    assert [sk.value(c) for c in linear_flow(A, 0.0, z)] == pytest.approx(z)
    assert [sk.value(c) for c in linear_flow(A, np.pi, z)] == pytest.approx([-z[0], -z[1]])
    quarter = [A[0] * z[0] + A[1] * z[1], A[2] * z[0] + A[3] * z[1]]
    assert [sk.value(c) for c in linear_flow(A, np.pi / 2, z)] == pytest.approx(quarter, abs=1e-16)
    full = [sk.value(c) for c in linear_flow(A, 2.0 * np.pi, z)]
    assert np.linalg.norm(np.asarray(full) - z) <= 1e-12


# -- slow brackets -----------------------------------------------------------------

def test_slow_bracket_constant_inputs():
    field = Sl2Field.constant(0.1, 1.2, -(1.0 + 0.01) / 1.2)
    out = slow_bracket_matrix(lambda w: 0.5 * w[0] ** 2, field, [0.3, 0.4], k=1)
    assert out == pytest.approx((0.0, 0.0, 0.0, 0.0))
    varying = Sl2Field(lambda w: w[1], lambda w: 1.0 + w[1] ** 2,
                       lambda w: -1.0)  # det != 1; bracket algebra does not care
    out = slow_bracket_matrix(lambda w: 7.0, varying, [0.3, 0.4], k=1)
    assert tuple(sk.value(e) for e in out) == pytest.approx((0.0, 0.0, 0.0, 0.0))


def test_slow_bracket_h_equals_p_reads_q_derivative():
    field = Sl2Field(lambda w: 0.2 * w[1], lambda w: sk.exp(w[1]),
                     lambda w: -(1.0 + 0.04 * w[1] ** 2) * sk.exp(-w[1]))
    w = [0.7, 0.4]
    out = slow_bracket_matrix(lambda w_: w_[0], field, w, k=1)
    # {p, f(q)}_1 = df/dq
    expect_a = 0.2
    expect_b = np.exp(0.4)
    assert sk.value(out[0]) == pytest.approx(expect_a, abs=1e-12)
    assert sk.value(out[1]) == pytest.approx(expect_b, abs=1e-12)


# -- momentum map and closed corrections --------------------------------------------

def test_family_momentum_map(rng):
    qs = nondegenerate_system()
    system = qs.system()
    for _ in range(10):
        coords = rng.uniform(-1.0, 1.0, 4)
        m = PhasePoint(coords[:2], coords[2:])
        assert check_momentum_map(system, m) <= 1e-9


def test_family_unimodularity_check(rng):
    good = nondegenerate_system().field
    samples = rng.uniform(-1.0, 1.0, size=(25, 2))
    assert good.check_unimodular(samples, tol=1e-10) <= 1e-10
    bad = Sl2Field(lambda w: 0.5, lambda w: 1.0, lambda w: -1.0)  # det = 0.75
    with pytest.raises(DegenerateFamily):
        bad.check_unimodular(samples)
    with pytest.raises(DegenerateFamily):
        f1_closed(QuadraticSystem(h=lambda w: w[0], omega=lambda w: 1.0, field=bad),
                  PhasePoint([1.0, 0.0], [0.0, 0.0]))


def test_benchmark_instance_matches_generic():
    # A = [[0, e^p], [-e^-p, 0]], h = p^2/2, omega = 1
    qs = QuadraticSystem(h=lambda w: 0.5 * w[0] ** 2, omega=lambda w: 1.0,
                         field=Sl2Field(lambda w: 0.0 * w[0], lambda w: sk.exp(w[0]),
                                        lambda w: -sk.exp(-w[0])))
    system = qs.system()
    action = CircleAction(system)
    m = PhasePoint([1.0, 0.0], [0.0, 0.0])
    assert f1_closed(qs, m) == pytest.approx(f1(system, action, m), abs=1e-6)
    assert f2_closed(qs, m) == pytest.approx(f2(system, action, m), abs=1e-4)


def test_constant_family_has_no_corrections():
    qs = QuadraticSystem(h=lambda w: 0.5 * (w[0] ** 2 + w[1] ** 2),
                         omega=lambda w: 1.0, field=Sl2Field.constant(*ROT[:3]))
    m = PhasePoint([0.7, 0.2], [0.4, 0.6])
    assert f1_closed(qs, m) == pytest.approx(0.0, abs=1e-14)
    assert f2_closed(qs, m) == pytest.approx(0.0, abs=1e-12)


def test_nondegenerate_closed_f1_matches_generic(rng):
    for constant_omega in (True, False):
        qs = nondegenerate_system(constant_omega)
        system = qs.system()
        action = CircleAction(system)
        for _ in range(6):
            coords = rng.uniform(-1.0, 1.0, 4)
            m = PhasePoint(coords[:2], coords[2:])
            assert f1_closed(qs, m) == pytest.approx(
                f1(system, action, m), abs=1e-10)


def test_nondegenerate_closed_f2_matches_generic(rng):
    # with slow-varying omega F2 depends on the <K1>/omega part of F1: a
    # reading of F2 that used <K1> instead misses f2_closed there by ~3e-3
    for constant_omega in (True, False):
        qs = nondegenerate_system(constant_omega)
        system = qs.system()
        action = CircleAction(system)
        for _ in range(4):
            coords = rng.uniform(-1.0, 1.0, 4)
            m = PhasePoint(coords[:2], coords[2:])
            assert f2_closed(qs, m) == pytest.approx(f2(system, action, m), abs=1e-13)


def test_closed_f2_solves_homological_equation(rng):
    # with slow-varying omega the printed display drops terms; the exact form
    # must still satisfy L_Y F2 = -(2/omega) {H, F1}_1
    qs = nondegenerate_system(constant_omega=False)
    system = qs.system()
    action = CircleAction(system)
    coords = rng.uniform(-0.8, 0.8, 4)
    m = PhasePoint(coords[:2], coords[2:])

    h = 1e-5
    d_dt = (f2_closed(qs, action.flow(h, m)) - f2_closed(qs, action.flow(-h, m))) / (2 * h)
    f1_oracle = _f1_closed_oracle(qs)
    hf1 = bracket_of_partials(grad_slow(system, system.H, m), grad_slow(system, f1_oracle, m))
    omega = float(sk.value(qs.omega(m.state()[1])))
    assert d_dt + 2.0 * hf1 / omega == pytest.approx(0.0, abs=1e-8)


def f2_closed_printed(qs: QuadraticSystem, m: PhasePoint) -> float:
    """Second-order correction as displayed in the source: (1/2ω)·Q_{[A,{h,X}₁]}.

    Here −Q_X is the closed-form F₁ (adjudicated reading) and the bracket is
    taken with h only. The display omits the contributions of {ω·Q_A, F₁}₁,
    so it can only agree with the generic engine when A and ω carry no slow
    dependence that couples back. With F₁ = −Q_X, Q_{[A, {h,X}₁]} is
    −4·𝒮({h,F₁}₁), which the display's prefactor 1/(2ω) scales; 𝒮 is taken
    along the linear flow, exact at 16 nodes.
    """
    z, slow = m.state()
    times = 2.0 * np.pi * np.arange(16) / 16
    A = tuple(float(sk.value(e)) for e in qs.field.matrix(slow))
    z_t = linear_flow(A, times, [np.asarray(z[0]), np.asarray(z[1])])
    df1 = DEFAULT_ENGINE.partials(_f1_closed_oracle(qs), z_t, slow, "slow")
    dh = DEFAULT_ENGINE.partials(lambda _f, s: qs.h(s), z_t, slow, "slow")
    profile = np.broadcast_to(np.asarray(sk.value(bracket_of_partials(dh, df1)), dtype=float),
                              times.shape)
    return float(-2.0 * s_from_samples(profile) / float(sk.value(qs.omega(slow))))


def test_printed_f2_display_recorded_for_comparison(rng):
    # the literal display agrees with the exact form when A is constant
    qs = QuadraticSystem(h=lambda w: 0.5 * (w[0] ** 2 + w[1] ** 2),
                         omega=lambda w: 1.0, field=Sl2Field.constant(*ROT[:3]))
    m = PhasePoint([0.4, 0.3], [0.2, 0.5])
    assert f2_closed_printed(qs, m) == pytest.approx(f2_closed(qs, m), abs=1e-12)


def hamiltonian_contraction_two_ways(qs: QuadraticSystem, action: CircleAction,
                                     m: PhasePoint):
    """i_dH<i_Theta Psi_1> via explicit tangent maps versus the scalar average.

    The vector-field average needs the pullback of slow tangent vectors under
    the flow; for the quadratic family the tangent maps are the analytic
    matrices cos t I + sin t A, so both routes are computable and must agree
    (H is invariant along the flow). Returns (tangent_route, scalar_route).
    """
    system = qs.system()
    fast, slow = m.state()
    orbit = action.orbit(fast, slow)
    times = orbit.times
    k = qs.k

    dh_nodes = DEFAULT_ENGINE.partials(system.H, orbit.fast, orbit.slow, "slow")
    dj_nodes = DEFAULT_ENGINE.partials(system.J, orbit.fast, orbit.slow, "slow")
    theta_c = _theta_nodes(dj_nodes, orbit)  # 2k components at the nodes
    # slow components of i_Theta Psi_1 = Theta_p dq - Theta_q dp along the orbit
    v_slow = [-theta_c[k + i] for i in range(k)] + [theta_c[i] for i in range(k)]

    A = tuple(float(sk.value(e)) for e in qs.field.matrix(slow))
    dA = [tuple(float(sk.value(e)) for e in M) for M in _entry_partials(qs.field, slow)]
    c, s = np.cos(times), np.sin(times)
    y0, x0 = float(fast[0]), float(fast[1])

    # fast part of the pulled-back field: -R_{-t} sin t sum_j (dA/dw_j) z V_j
    fast_pull = [np.zeros_like(times), np.zeros_like(times)]
    for j in range(2 * k):
        dj = dA[j]
        gy = dj[0] * y0 + dj[1] * x0
        gx = dj[2] * y0 + dj[3] * x0
        wy = s * gy * v_slow[j]
        wx = s * gx * v_slow[j]
        # R_{-t} = cos t I - sin t A
        fast_pull[0] -= c * wy - s * (A[0] * wy + A[1] * wx)
        fast_pull[1] -= c * wx - s * (A[2] * wy + A[3] * wx)

    avg_fast = [float(np.mean(fp)) for fp in fast_pull]
    avg_slow = [float(np.mean(v)) for v in v_slow]
    dh_fast = grad_fast(system, system.H, m)
    dh_slow = grad_slow(system, system.H, m)
    tangent_route = float(np.dot(dh_fast, avg_fast) + np.dot(dh_slow, avg_slow))

    scalar_route = float(2.0 * np.mean(_k1_nodes(dh_nodes, dj_nodes, orbit)))
    return tangent_route, scalar_route


def test_invariance_reduction_identity(rng):
    # tangent-map average of i_Theta Psi_1 contracted with dH equals the
    # plain scalar average, for constant and varying omega
    for constant_omega in (True, False):
        qs = nondegenerate_system(constant_omega)
        action = CircleAction(qs.system(), nodes=32)
        for _ in range(4):
            coords = rng.uniform(-1.0, 1.0, 4)
            m = PhasePoint(coords[:2], coords[2:])
            tangent, scalar = hamiltonian_contraction_two_ways(qs, action, m)
            assert tangent == pytest.approx(scalar, abs=1e-8)


def test_family_f1_satisfies_homological_equation(rng):
    qs = nondegenerate_system(constant_omega=False)
    system = qs.system()
    action = CircleAction(system)
    coords = rng.uniform(-0.8, 0.8, 4)
    m = PhasePoint(coords[:2], coords[2:])
    assert ty2_residual(system, action, m) <= 1e-12


def test_quadratic_system_h_composition(rng):
    qs = nondegenerate_system(constant_omega=False)
    system = qs.system()
    coords = rng.uniform(-1.0, 1.0, 4)
    fast, slow = [coords[0], coords[1]], [coords[2], coords[3]]
    direct = qs.h(slow) + sk.value(qs.omega(slow)) * q_form(
        tuple(sk.value(e) for e in qs.field.matrix(slow)), fast)
    assert sk.value(system.H(fast, slow)) == pytest.approx(sk.value(direct), abs=1e-12)
