"""Dual-number arithmetic against analytic derivatives."""

import marshal
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiakit import DiffEngine, SlowFastSystem, get_fixture
from adiakit import kernel as sk
from adiakit.errors import TraceError
from adiakit.phase import velocity

from sl2 import QuadraticSystem, Sl2Field


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


def test_equality_and_truth_follow_values():
    # a branch on == or on a truth value takes the plain evaluation's way
    tag = sk.fresh_tag()
    x = sk.Dual(2.0, 1.0, tag)
    assert x == 2.0 and 2.0 == x and x != 3.0 and not (x != 2.0)
    assert not sk.Dual(0.0, 1.0, tag) and sk.Dual(-0.5, 0.0, tag)
    with pytest.raises(TypeError):
        hash(x)
    with pytest.raises(TraceError):  # on a traced coordinate, the branch stops the trace
        sk.trace_tangent(lambda fast, slow: [fast[0] if slow[0] else fast[1]], (2, 2), 1)


def test_dual_exponent_rejected():
    tag = sk.fresh_tag()
    x = sk.Dual(2.0, 1.0, tag)
    with pytest.raises(TypeError):
        x ** x


# -- compiled code -----------------------------------------------------------------

def multidual_tangent_reference(f, blocks, coords, dots):
    """The outputs' values, then their tangents, from one multidual
    evaluation, flat; a plain evaluation where ``dots`` have no directions.
    ``dots[i]`` holds coordinate i's tangent components."""
    tag = sk.fresh_tag()
    directions = (len(dots[0]),)
    args = [sk.Dual(c, np.array(d), tag) if directions[0] else c for c, d in zip(coords, dots)]
    split = [args[sum(blocks[:b]):sum(blocks[:b + 1])] for b in range(len(blocks))]
    out = f(*split)
    shape = directions + np.shape(coords[0])
    return ([sk.value(o) for o in out]
            + [e for o in out for e in np.broadcast_to(sk.extract_partial(o, tag), shape)])


def field_at(bind, blocks, coords, tangents):
    """The flat values and tangents of ``bind``'s field at the flat
    ``coords`` and their flat ``tangents`` (each coordinate's directions in
    turn): the last block and its tangents bound, the others' passed as y."""
    free = sum(blocks[:-1])
    split = free * len(tangents) // len(coords)
    return bind(*coords[free:], *tangents[split:])(0.0, [*coords[:free], *tangents[:split]])


def assert_same_partials(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.broadcast_arrays(g, w)
        assert np.array_equal(g, w)


def assert_compiled_equals_multidual(f, blocks, dots, points):
    """``trace_tangent`` of ``f`` along ``dots`` (coordinates, directions)
    equals a multidual evaluation bit for bit at each of ``points`` (rows),
    as numpy's float64 scalars and as Python floats, and on the points as
    lanes."""
    bind = sk.trace_tangent(f, blocks, dots.shape[1])  # traceable: no fallback
    for point in points:
        for coords in (list(point), point.tolist()):
            assert_same_partials(field_at(bind, blocks, coords, dots.ravel().tolist()),
                                 multidual_tangent_reference(f, blocks, coords, dots.tolist()))
    lanes = list(points.T)  # one array of lanes per coordinate
    lane_dots = [[np.full(len(points), d) for d in row] for row in dots]
    assert_same_partials(field_at(bind, blocks, lanes, [d for row in lane_dots for d in row]),
                         multidual_tangent_reference(f, blocks, lanes, lane_dots))


def gradient_oracle(system, seeding):
    """(f, blocks, dots) of H's gradient as tangents along the unit
    directions of all coordinates or of the fast ones."""
    seeded = system.dim if seeding == "all" else 2 * system.r
    return ((lambda fast, slow: [system.H(fast, slow)]), (2 * system.r, 2 * system.k),
            np.eye(system.dim, seeded))


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


def negations():
    """H with negated operands under a power, and a value negated twice."""
    return SlowFastSystem(r=1, k=1, H=lambda f, s: ((-f[0]) ** 3 - (-(-f[1])) * s[0]
                                                    + (-s[1]) ** 2 * f[0]),
                          omega=lambda f, s: 1.0 + s[1] * s[1])


def fast_partials_sum():
    """The charged particle with H the sum of its fast partials, which H
    takes by a Dual pass of its own."""
    particle = get_fixture("charged_particle").system
    return SlowFastSystem(r=1, k=1, omega=particle.omega, domain=particle.domain,
                          H=lambda f, s: sum(DiffEngine().partials(particle.H, f, s, "fast")))


def system_and_box(name):
    if name == "quadratic_k2":
        return quadratic_k2(), -np.ones(6), np.ones(6)
    if name in ("without_x", "negations"):
        return {"without_x": without_x, "negations": negations}[name](), -np.ones(4), np.ones(4)
    system = fast_partials_sum() if name == "fast_partials_sum" else get_fixture(name).system
    return system, system.domain.low, system.domain.high


def box_points(name, n, seed):
    system, low, high = system_and_box(name)
    return system, np.random.default_rng(seed).uniform(low, high, size=(n, system.dim))


@pytest.mark.parametrize("name", ["elastic_pendulum", "charged_particle", "quadratic_k2",
                                  "fast_partials_sum", "negations"])
@pytest.mark.parametrize("seeding", ["all", "fast"])
def test_compiled_gradient_equals_multidual_bitwise(name, seeding):
    system, points = box_points(name, 40, 7)
    assert_compiled_equals_multidual(*gradient_oracle(system, seeding), points)


ONE = r"(?<![\w.])1\.0 \*|[*/] 1\.0(?![\d.e])"  # a product or quotient by 1.0


@pytest.mark.parametrize("name", ["elastic_pendulum", "charged_particle"])
@pytest.mark.parametrize("seeding", ["all", "fast"])
def test_compiled_gradient_has_no_product_by_one(name, seeding):
    # the default parameters (gamma = 1, B = 1) and, in the drift field, the
    # seeds of its Dual passes put literal 1.0 factors into the trace; each is
    # dropped, exactly
    system = get_fixture(name).system
    f, blocks, dots = gradient_oracle(system, seeding)
    for source in (sk.trace_tangent(f, blocks, dots.shape[1]).source,
                   sk.trace_tangent(drift_field(system), blocks + (1,), 0).source):
        assert not re.search(ONE, source), source


def test_compiled_gradient_folds_negations():
    # a negation is read where it is used (-v * w), not assigned on its own
    system = get_fixture("charged_particle").system
    source = sk.trace_tangent(drift_field(system), (2, 2, 1), 0).source
    assignments = re.findall(r"^        (v\d+) = (.*)$", source, re.MULTILINE)
    assert len(assignments) == 39, source
    assert not [a for a in assignments if re.fullmatch(r"-v\d+", a[1])], source
    assert re.search(r"= -v\d+ \* v\d+$", source, re.MULTILINE), source
    # under a power the negation keeps its parentheses: (-x) ** 3 has the
    # partial 3 * (-x) ** 2 * -1.0
    source = sk.trace_tangent(drift_field(negations()), (2, 2, 1), 0).source
    assert re.search(r"= \(-v\d+\) \*\* 2$", source, re.MULTILINE), source


def test_compiled_tangent_has_no_quotient_by_one():
    # the pendulum's frequency is the constant 1.0, by which its normalized
    # field divides: x/1.0 and x'/1.0 are x and x' exactly, so no code for them
    system = get_fixture("elastic_pendulum").system
    source = sk.trace_tangent(normalized_field(system), (2, 2), 4).source
    assert not re.search(ONE, source), source


def normalized_field(system):
    """Υ = (−∂_xH, ∂_yH)/ω with H's fast gradient taken by an inner Dual pass."""
    def f(fast, slow):
        r = system.r
        g = DiffEngine().partials(system.H, fast, slow, "fast")
        w = system.omega(fast, slow)
        return [-d / w for d in g[r:]] + [d / w for d in g[:r]]

    return f


def drift_field(system):
    """X_H of the fast block plus ε times X_H of the slow block, with ε a
    third block: the drift field's oracle (``phase.velocity``)."""
    def f(fast, slow, eps):
        return (velocity(system.H, fast, slow, "fast")
                + [eps[0] * v for v in velocity(system.H, fast, slow, "slow")])

    return f


@pytest.mark.parametrize("name", ["elastic_pendulum", "charged_particle", "quadratic_k2",
                                  "without_x", "fast_partials_sum", "negations"])
def test_compiled_tangent_equals_multidual_bitwise(name):
    # the normalized fast field and its variational right-hand side, and the
    # drift field (no directions; a plain evaluation is its reference): the
    # inner Dual passes on traced values are recorded through Dual's
    # reflected operators, and the code equals the evaluation bit for bit
    system, points = box_points(name, 20, 5)
    blocks = (2 * system.r, 2 * system.k)
    dots = np.random.default_rng(6).uniform(-1.0, 1.0, size=(system.dim, 3))
    assert_compiled_equals_multidual(normalized_field(system), blocks, dots, points)
    eps = np.full((len(points), 1), 0.05)
    assert_compiled_equals_multidual(drift_field(system), blocks + (1,),
                                     np.zeros((system.dim + 1, 0)), np.hstack([points, eps]))


def test_untraceable_tangent_falls_back_to_multiduals():
    def f(fast, slow):
        return [fast[0] / slow[1], abs(fast[0]) * slow[1], fast[1] * slow[0]]

    with pytest.raises(TraceError):
        sk.trace_tangent(f, (2, 2), 2)
    bind = sk.tangent(f, (2, 2), 2)
    point, dot = [-0.3, 0.7, 0.4, 0.9], [[1.0, 0.0], [0.0, 1.0], [0.5, 0.0], [0.0, -2.0]]
    assert_same_partials(field_at(bind, (2, 2), point, list(np.ravel(dot))),
                         multidual_tangent_reference(f, (2, 2), point, dot))
    rng = np.random.default_rng(2)
    lanes, dots = list(rng.uniform(-1.0, 1.0, (4, 5))), list(rng.uniform(-1.0, 1.0, (8, 5)))
    for lane in range(5):  # lanes, and no directions at all
        got = field_at(bind, (2, 2), lanes, dots)
        want = field_at(bind, (2, 2), [c[lane] for c in lanes], [d[lane] for d in dots])
        assert_same_partials([g[lane] for g in got], want)
    # columns over two steps of the lanes against values bound per lane, as
    # the continuous extension's pass gives them: each step's row is the lanes'
    rhs = bind(*lanes[2:], *dots[4:])
    wide = [np.stack([c, 0.5 * c]) for c in lanes[:2] + dots[:4]]
    for row, got in enumerate(zip(*rhs(0.0, wide))):
        assert_same_partials(got, rhs(0.0, [c[row] for c in wide]))
    assert_same_partials(field_at(sk.tangent(f, (2, 2), 0), (2, 2), lanes, []),
                         f(lanes[:2], lanes[2:]))

    def drift(fast, slow, eps):  # the drift field's layout: ε alone bound, no directions
        return f(fast, slow) + [eps[0] * slow[1]]

    with pytest.raises(TraceError):
        sk.trace_tangent(drift, (2, 2, 1), 0)
    bind = sk.tangent(drift, (2, 2, 1), 0)
    assert_same_partials(bind(0.05)(0.0, point),
                         multidual_tangent_reference(drift, (2, 2, 1), point + [0.05], [[]] * 5))
    assert_same_partials(bind(0.05)(0.0, np.array(lanes)),
                         drift(lanes[:2], lanes[2:], [0.05]))


def branchy(fast, slow):
    y, x = fast
    p, q = slow
    energy = 0.5 * (y * y + x * x) + abs(q) * p
    return [energy if q > 0.5 else energy * float(q)]


def uses_value(fast, slow):
    y, x = fast
    p, q = slow
    return [y * x * sk.value(q) ** 2 + p * sk.sqrt(q)]


def branches_on_equality(fast, slow):
    y, x = fast
    p, q = slow
    return [y * x * q if p == 0.4 else y * p - x * q]


@pytest.mark.parametrize("f", [branchy, uses_value, branches_on_equality])
def test_untraceable_oracle_falls_back_to_dual_result(f):
    # the gradient: tangents along the four unit directions
    with pytest.raises(TraceError):
        sk.trace_tangent(f, (2, 2), 4)
    bind = sk.tangent(f, (2, 2), 4)
    for point in ([0.3, -0.7, 0.4, 0.9], [1.1, 0.2, -0.5, 0.2]):
        assert_same_partials(field_at(bind, (2, 2), point, list(np.eye(4).ravel())),
                             multidual_tangent_reference(f, (2, 2), point, np.eye(4)))


def test_fallback_on_lanes_with_abs():
    def f(fast, slow):
        return [abs(fast[0] - slow[0]) * fast[1] + slow[1] * fast[0]]

    lanes = list(np.random.default_rng(3).uniform(-1.0, 1.0, size=(4, 16)))
    dots = [[np.full(16, d) for d in row] for row in np.eye(4, 2)]  # the fast gradient
    bind = sk.tangent(f, (2, 2), 2)
    assert_same_partials(field_at(bind, (2, 2), lanes, [d for row in dots for d in row]),
                         multidual_tangent_reference(f, (2, 2), lanes, dots))


def test_oracle_errors_surface_at_evaluation():
    def f(fast, slow):
        return [np.sin(fast[0]) * slow[0]]  # a numpy ufunc cannot take duals

    bind = sk.tangent(f, (2, 2), 1)
    with pytest.raises(TypeError):
        field_at(bind, (2, 2), [0.1, 0.2, 0.3, 0.4], [1.0, 0.0, 0.0, 0.0])


def test_integer_powers_match_on_scalars_and_arrays():
    def f(fast, slow):
        y, x = fast
        p, q = slow
        return [x ** 3 * y + q ** -2 * p ** 5 + y ** 0 * x ** 1 + (p * q) ** np.int64(4)]

    rng = np.random.default_rng(11)
    points = rng.uniform(0.3, 1.7, size=(30, 4)) * rng.choice([-1.0, 1.0], size=(30, 4))
    assert_compiled_equals_multidual(f, (2, 2), np.eye(4), points)


def test_non_integer_power_is_not_traced():
    with pytest.raises(TraceError):
        sk.trace_tangent(lambda fast, slow: [fast[0] ** 0.5], (2, 2), 1)


# -- the code cache -----------------------------------------------------------------

DOUBLE = "def f(x):\n    return 2.0 * x\n"
TRIPLE = "def f(x):\n    return 3.0 * x\n"


def run_double():
    return sk.exec_emitted(DOUBLE, "<test>", {})["f"](1.5)


def test_code_cache_compiles_a_source_once_per_machine(code_cache):
    assert run_double() == run_double() == 3.0
    assert code_cache.compiled == [("<test>", DOUBLE)]  # the second came from memory
    assert len(list(code_cache.directory.iterdir())) == 1
    code_cache.restart()  # a new process loads the entry
    assert run_double() == 3.0
    assert code_cache.compiled == []


DAMAGE = {  # an entry's bytes, from its good bytes
    "truncated": lambda good: good[:len(good) // 2],
    "garbage": lambda good: b"\x00garbage",
    "not_a_tuple": lambda good: marshal.dumps(7),
    "short_tuple": lambda good: marshal.dumps(("<test>", DOUBLE)),
    "not_code": lambda good: marshal.dumps(("<test>", DOUBLE, "x = 1")),
    "other_source": lambda good: marshal.dumps(("<test>", TRIPLE,
                                                compile(TRIPLE, "<test>", "exec"))),
}


@pytest.mark.parametrize("damage", DAMAGE)
def test_a_damaged_code_cache_entry_is_compiled_and_rewritten(code_cache, damage):
    run_double()
    [entry] = code_cache.directory.iterdir()
    entry.write_bytes(DAMAGE[damage](entry.read_bytes()))
    code_cache.restart()
    assert run_double() == 3.0
    assert code_cache.compiled == [("<test>", DOUBLE)]
    assert marshal.loads(entry.read_bytes())[:2] == ("<test>", DOUBLE)
    assert list(code_cache.directory.iterdir()) == [entry]


def test_an_unwritable_code_cache_compiles_in_memory(code_cache, monkeypatch, tmp_path):
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(sk, "_CODE_CACHE", str(tmp_path / "file" / "code"))
    assert run_double() == run_double() == 3.0
    assert code_cache.compiled == [("<test>", DOUBLE)]
    code_cache.restart()
    assert run_double() == 3.0
    assert code_cache.compiled == [("<test>", DOUBLE)]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_code_cache_removes_the_least_recently_used_entries(code_cache, monkeypatch):
    cap = 4
    sources = [f"def f(x):\n    return {i}.0 * x\n" for i in range(cap + 4)]
    entries = []
    for age, source in enumerate(sources[:cap + 3]):  # below the default cap
        sk.exec_emitted(source, "<test>", {})
        [entry] = set(code_cache.directory.iterdir()) - set(entries)
        os.utime(entry, ns=(age * 10 ** 9, age * 10 ** 9))  # seconds after the epoch
        entries.append(entry)
    monkeypatch.setattr(sk, "_CODE_CACHE_CAP", cap)
    code_cache.restart()
    assert sk.exec_emitted(sources[0], "<test>", {})["f"](1.5) == 0.0  # loads the oldest
    assert code_cache.compiled == []
    sk.exec_emitted(sources[-1], "<test>", {})  # a write prunes
    [new] = set(code_cache.directory.iterdir()) - set(entries)
    assert sorted(code_cache.directory.iterdir()) == sorted([entries[0], *entries[-2:], new])


def test_an_entry_that_cannot_be_replaced_leaves_no_temporary_file(code_cache):
    run_double()
    [entry] = code_cache.directory.iterdir()
    entry.unlink()
    entry.mkdir()  # reads and os.replace fail on a directory
    code_cache.restart()
    assert run_double() == 3.0
    assert code_cache.compiled == [("<test>", DOUBLE)]
    assert list(code_cache.directory.iterdir()) == [entry]
