"""Dual-number arithmetic against analytic derivatives."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiakit import DiffEngine, SlowFastSystem, get_fixture
from adiakit import kernel as sk
from adiakit.errors import TraceError
from adiakit.sl2 import QuadraticSystem, Sl2Field


def f_composite(x):
    return sk.sin(x) * sk.exp(0.3 * x) + sk.sqrt(x * x + 1.0) / (2.0 + sk.cos(x))


def df_composite(x):
    # hand derivative of f_composite
    term1 = np.cos(x) * np.exp(0.3 * x) + 0.3 * np.sin(x) * np.exp(0.3 * x)
    g = np.sqrt(x * x + 1.0)
    h = 2.0 + np.cos(x)
    term2 = (x / g * h + g * np.sin(x)) / h ** 2
    return term1 + term2


def test_derivative_matches_analytic():
    for x in (0.0, 0.7, -1.3, 2.9):
        assert sk.derivative(f_composite, x) == pytest.approx(df_composite(x), abs=1e-12)


def test_array_valued_duals():
    xs = np.linspace(-2.0, 2.0, 17)
    d = sk.derivative(f_composite, xs)
    assert np.allclose(d, df_composite(xs), atol=1e-12)


def test_constant_function_has_zero_derivative():
    assert sk.derivative(lambda x: 4.2, 1.0) == 0.0


def test_nested_duals_second_derivative():
    def f(x):
        return x ** 3 * sk.exp(x)

    x = 0.7
    t1, t2 = sk.fresh_tag(), sk.fresh_tag()
    lifted = sk.Dual(sk.Dual(x, 1.0, t1), sk.Dual(1.0, 0.0, t1), t2)
    d2 = sk.extract_partial(sk.extract_partial(f(lifted), t2), t1)
    expected = (x ** 3 + 6 * x ** 2 + 6 * x) * np.exp(x)
    assert sk.value(d2) == pytest.approx(expected, rel=1e-13)


def test_mixed_tags_treat_outer_seed_as_constant():
    # d/da [a * b] with only b seeded must be independent of a's own seed
    ta, tb = sk.fresh_tag(), sk.fresh_tag()
    a = sk.Dual(2.0, 1.0, ta)
    b = sk.Dual(5.0, 1.0, tb)
    prod = a * b
    assert sk.value(prod) == 10.0
    assert sk.value(sk.extract_partial(prod, tb)) == pytest.approx(2.0)
    assert sk.value(sk.extract_partial(sk.extract_partial(prod, tb), ta)) == pytest.approx(1.0)


def test_extract_partial_ignores_foreign_tags():
    t1, t2 = sk.fresh_tag(), sk.fresh_tag()
    x = sk.Dual(3.0, 1.0, t1)
    # result does not involve the t2 seed at all
    assert np.all(sk.extract_partial(x * x, t2) == 0.0)


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.1, 2.0))
@settings(max_examples=60, deadline=None)
def test_product_and_quotient_rules(a, b, c):
    tag = sk.fresh_tag()
    x = sk.Dual(a, 1.0, tag)
    out = (x * x + b) / (x * x + c * c + 1.0)
    num, den = a * a + b, a * a + c * c + 1.0
    expected = (2 * a * den - num * 2 * a) / den ** 2
    assert sk.value(sk.extract_partial(out, tag)) == pytest.approx(expected, abs=1e-10)


def test_pow_and_reflected_ops():
    tag = sk.fresh_tag()
    x = sk.Dual(1.5, 1.0, tag)
    out = 2.0 / x + x ** 4 - 3.0 * x + (1.0 - x)
    d = sk.value(sk.extract_partial(out, tag))
    assert d == pytest.approx(-2.0 / 1.5 ** 2 + 4 * 1.5 ** 3 - 3.0 - 1.0, rel=1e-13)


def test_comparisons_follow_values():
    tag = sk.fresh_tag()
    x = sk.Dual(2.0, 1.0, tag)
    assert x > 1.0 and x <= 2.0 and not (x < 0.5)
    assert float(x) == 2.0


def test_dual_exponent_rejected():
    tag = sk.fresh_tag()
    x = sk.Dual(2.0, 1.0, tag)
    with pytest.raises(TypeError):
        x ** x


# -- compiled gradients ------------------------------------------------------------

def multidual_reference(f, blocks, seeded, coords):
    """∂f/∂(seeded) from one multidual evaluation: a direction axis in front."""
    seeded = list(seeded)
    n = len(seeded)
    tag = sk.fresh_tag()
    basis = np.eye(n).reshape((n, n) + (1,) * np.ndim(coords[0]))
    args = list(coords)
    for j, i in enumerate(seeded):
        args[i] = sk.Dual(args[i], basis[j], tag)
    split = [args[sum(blocks[:b]):sum(blocks[:b + 1])] for b in range(len(blocks))]
    return sk.extract_partial(f(*split), tag)


def assert_same_partials(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.broadcast_arrays(g, w)
        assert np.array_equal(g, w)


def quadratic_k2():
    """sl(2) family with two slow pairs, a slow-dependent A and a varying ω."""
    def a_fn(w):
        return 0.3 * sk.sin(w[0] - w[3]) + 0.1 * w[1]

    def beta(w):
        return 0.2 * w[2] - 0.1 * w[1] * w[3]

    return QuadraticSystem(
        h=lambda w: (0.5 * (w[0] * w[0] + w[1] * w[1]) + w[2] * w[3] / (2.0 + w[2] * w[2])
                     + 0.1 * sk.log(3.0 + w[1] - w[3])),
        omega=lambda w: 1.0 + 0.2 * sk.cos(w[3]) + 0.05 * sk.sqrt(1.0 + w[0] * w[0]),
        field=Sl2Field(a_fn, lambda w: (1.0 + a_fn(w) ** 2) * sk.exp(beta(w)),
                       lambda w: -sk.exp(-beta(w))),
        k=2).system()


def without_x():
    """H free of the fast position x: its x-partial is a constant zero."""
    return SlowFastSystem(r=1, k=1, H=lambda f, s: 0.5 * f[0] * f[0] + s[0] * s[1] * f[0],
                          omega=lambda f, s: 1.0 + s[1] * s[1])


def system_and_box(name):
    if name == "quadratic_k2":
        return quadratic_k2(), -np.ones(6), np.ones(6)
    if name == "without_x":
        return without_x(), -np.ones(4), np.ones(4)
    system = get_fixture(name).system
    return system, system.domain.low, system.domain.high


@pytest.mark.parametrize("name", ["elastic_pendulum", "charged_particle", "quadratic_k2"])
@pytest.mark.parametrize("seeding", ["all", "fast"])
def test_compiled_gradient_equals_multidual_bitwise(name, seeding):
    system, low, high = system_and_box(name)
    blocks = (2 * system.r, 2 * system.k)
    seeded = range(system.dim if seeding == "all" else 2 * system.r)
    grad = sk.trace_gradient(system.H, blocks, seeded)  # traceable: no fallback
    rng = np.random.default_rng(7)
    points = rng.uniform(low, high, size=(40, system.dim))
    for point in points:  # scalars: numpy's float64, and Python floats
        for coords in (list(point), point.tolist()):
            assert_same_partials(grad(*coords),
                                 multidual_reference(system.H, blocks, seeded, coords))
    lanes = list(points.T)  # one array of 40 lanes per coordinate
    assert_same_partials(grad(*lanes), multidual_reference(system.H, blocks, seeded, lanes))


@pytest.mark.parametrize("name", ["elastic_pendulum", "charged_particle"])
@pytest.mark.parametrize("seeding", ["all", "fast"])
def test_compiled_gradient_has_no_product_by_one(name, seeding):
    # the default parameters (gamma = 1, B = 1) and the seed put literal 1.0
    # factors into the trace; each is dropped, exactly
    system = get_fixture(name).system
    seeded = range(system.dim if seeding == "all" else 2 * system.r)
    source = sk.trace_gradient(system.H, (2 * system.r, 2 * system.k), seeded).source
    assert not re.search(r"(?<![\w.])1\.0 \*|\* 1\.0(?![\d.e])", source), source


def test_compiled_tangent_has_no_quotient_by_one():
    # the pendulum's frequency is the constant 1.0, by which its normalized
    # field divides: x/1.0 and x'/1.0 are x and x' exactly, so no code for them
    system = get_fixture("elastic_pendulum").system
    source = sk.trace_tangent(normalized_field(system), (2, 2), 4).source
    assert not re.search(r"/ 1\.0(?![\d.e])", source), source


def normalized_field(system):
    """[ω, Υ…] with H's fast gradient taken by an inner Dual pass."""
    def f(fast, slow):
        r = system.r
        g = DiffEngine().partials(system.H, fast, slow, "fast")
        w = system.omega(fast, slow)
        return [w] + [-d / w for d in g[r:]] + [d / w for d in g[:r]]

    return f


def multidual_tangent_reference(f, blocks, coords, dots):
    """The first output's value and the other outputs' values and tangents
    from one multidual evaluation, flat."""
    tag = sk.fresh_tag()
    args = [sk.Dual(c, np.array(d), tag) for c, d in zip(coords, dots)]
    split = [args[sum(blocks[:b]):sum(blocks[:b + 1])] for b in range(len(blocks))]
    guard, *out = f(*split)
    directions = (len(dots[0]),)
    return ([sk.value(guard)] + [sk.value(o) for o in out]
            + [e for o in out for e in np.broadcast_to(sk.extract_partial(o, tag), directions)])


def flat(guarded):
    """(guard, (values.., tangents..)) as one flat list."""
    guard, rest = guarded
    return [guard, *rest]


@pytest.mark.parametrize("name", ["elastic_pendulum", "charged_particle", "quadratic_k2",
                                  "without_x"])
def test_compiled_tangent_equals_multidual_bitwise(name):
    # the normalized fast field and its variational right-hand side: the
    # inner Dual pass on traced values is recorded through Dual's reflected
    # operators, and the code equals a multidual evaluation bit for bit; the
    # frequency comes back by value in front of the field and its tangents
    system, low, high = system_and_box(name)
    blocks, directions = (2 * system.r, 2 * system.k), 3
    f = normalized_field(system)
    tangent = sk.trace_tangent(f, blocks, directions)  # traceable: no fallback
    rng = np.random.default_rng(5)
    points = rng.uniform(low, high, size=(20, system.dim))
    dots = rng.uniform(-1.0, 1.0, size=(20, system.dim, directions))
    for point, dot in zip(points, dots):
        got = tangent(*point.tolist(), *dot.ravel().tolist())
        want = multidual_tangent_reference(f, blocks, point.tolist(), dot.tolist())
        assert_same_partials(flat(got), want)


def test_untraceable_tangent_falls_back_to_multiduals():
    def f(fast, slow):
        return [fast[0] / slow[1], abs(fast[0]) * slow[1], fast[1] * slow[0]]

    with pytest.raises(TraceError):
        sk.trace_tangent(f, (2, 2), 2)
    tangent = sk.tangent(f, (2, 2), 2)
    point, dot = [-0.3, 0.7, 0.4, 0.9], [[1.0, 0.0], [0.0, 1.0], [0.5, 0.0], [0.0, -2.0]]
    assert_same_partials(flat(tangent(*point, *np.ravel(dot))),
                         multidual_tangent_reference(f, (2, 2), point, dot))
    rng = np.random.default_rng(2)
    lanes, dots = list(rng.uniform(-1.0, 1.0, (4, 5))), list(rng.uniform(-1.0, 1.0, (8, 5)))
    for lane in range(5):  # lanes, and no directions at all
        got = flat(tangent(*lanes, *dots))
        want = flat(tangent(*[c[lane] for c in lanes], *[d[lane] for d in dots]))
        assert_same_partials([g[lane] for g in got], want)
    assert_same_partials(flat(sk.tangent(f, (2, 2), 0)(*lanes)), f(lanes[:2], lanes[2:]))


def branchy(fast, slow):
    y, x = fast
    p, q = slow
    energy = 0.5 * (y * y + x * x) + abs(q) * p
    return energy if q > 0.5 else energy * float(q)


def uses_value(fast, slow):
    y, x = fast
    p, q = slow
    return y * x * sk.value(q) ** 2 + p * sk.sqrt(q)


@pytest.mark.parametrize("f", [branchy, uses_value])
def test_untraceable_oracle_falls_back_to_dual_result(f):
    with pytest.raises(TraceError):
        sk.trace_gradient(f, (2, 2), range(4))
    grad = sk.gradient(f, (2, 2), range(4))
    for point in ([0.3, -0.7, 0.4, 0.9], [1.1, 0.2, -0.5, 0.2]):
        assert_same_partials(grad(*point), multidual_reference(f, (2, 2), range(4), point))


def test_fallback_on_lanes_with_abs():
    def f(fast, slow):
        return abs(fast[0] - slow[0]) * fast[1] + slow[1] * fast[0]

    lanes = list(np.random.default_rng(3).uniform(-1.0, 1.0, size=(4, 16)))
    grad = sk.gradient(f, (2, 2), range(2))
    assert_same_partials(grad(*lanes), multidual_reference(f, (2, 2), range(2), lanes))


def test_oracle_errors_surface_at_evaluation():
    def f(fast, slow):
        return np.sin(fast[0]) * slow[0]  # a numpy ufunc cannot take duals

    grad = sk.gradient(f, (2, 2), range(4))
    with pytest.raises(TypeError):
        grad(0.1, 0.2, 0.3, 0.4)


def test_integer_powers_match_on_scalars_and_arrays():
    def f(fast, slow):
        y, x = fast
        p, q = slow
        return x ** 3 * y + q ** -2 * p ** 5 + y ** 0 * x ** 1 + (p * q) ** np.int64(4)

    grad = sk.trace_gradient(f, (2, 2), range(4))
    rng = np.random.default_rng(11)
    points = rng.uniform(0.3, 1.7, size=(30, 4)) * rng.choice([-1.0, 1.0], size=(30, 4))
    for point in points:
        for coords in (list(point), point.tolist()):
            assert_same_partials(grad(*coords), multidual_reference(f, (2, 2), range(4), coords))
    lanes = list(points.T)
    assert_same_partials(grad(*lanes), multidual_reference(f, (2, 2), range(4), lanes))


def test_non_integer_power_is_not_traced():
    with pytest.raises(TraceError):
        sk.trace_gradient(lambda fast, slow: fast[0] ** 0.5, (2, 2), range(4))
