import pickle
import random
from fractions import Fraction

import pytest

from kellerlab.errors import ExactDivisionError, VariableMismatchError
from kellerlab.polyring import (
    Polynomial,
    PolyMap,
    _add_terms,
    _as_int,
    exact_div,
    integer_content,
    integer_root,
    make_primitive,
    poly_gcd,
    squarefree_part,
    substitute,
)

from _support import (
    coprime_pair,
    homogeneous_components,
    naive_mul,
    random_linear_bindings,
    random_polynomial,
    random_rational,
    reference_exact_div,
    reference_mul,
)

V = ("x", "y")
X = Polynomial.variable(V, "x")
Y = Polynomial.variable(V, "y")


def test_arith_difference_of_squares():
    assert (X + Y) * (X - Y) == X**2 - Y**2


def test_arith_add_zero_identity():
    p = 3 * X + Y**2
    assert p + Polynomial.zero(V) == p


def test_arith_cube_matches_naive_distribution():
    base = {(1, 0): 1, (0, 3): 1}  # x + y^3
    expected = naive_mul(naive_mul(base, base), base)
    got = (X + Y**3) ** 3
    assert got.terms == {m: Fraction(c) for m, c in expected.items()}
    assert len(got.terms) == 4


def test_add_terms_matches_termwise_sum_and_fold():
    rng = random.Random(2424)
    W = ("x", "y", "z")
    cancelled = 0
    for _ in range(500):
        polys = [random_polynomial(rng, W, max_degree=2, max_terms=5)
                 for _ in range(rng.randint(1, 4))]
        polys.append(-rng.choice(polys) + random_polynomial(rng, W, max_degree=1))
        scales = [rng.choice((1, -1, 0, random_rational(rng))) for _ in polys]
        acc = {}
        fold = Polynomial.zero(W)
        for p, s in zip(polys, scales):
            before = dict(acc)
            assert _add_terms(acc, p.terms, s) is acc
            if s == 0:
                assert acc == before
            assert all(acc.values())
            fold = fold + p if s == 1 else fold - p if s == -1 else fold + s * p
            assert acc == fold.terms
        expected = {}
        for m in set().union(*(p.terms for p in polys)):
            c = sum(s * p.coefficient(m) for p, s in zip(polys, scales))
            if c:
                expected[m] = c
            elif any(s and m in p.terms for p, s in zip(polys, scales)):
                cancelled += 1
        assert acc == expected
    assert cancelled >= 100


def test_arith_variable_mismatch():
    with pytest.raises(VariableMismatchError):
        X + Polynomial.variable(("z",), "z")


def test_substitute_full_evaluation():
    p = X + Y**3
    assert substitute(p, {"x": 2, "y": 1}, ()).constant_value() == 3
    assert p.evaluate([2, 1]) == 3


def test_substitute_linear_case():
    ring = ("x", "t", "v1")
    img = substitute(
        X, {"x": Polynomial.variable(ring, "x")
            + Polynomial.variable(ring, "t") * Polynomial.variable(ring, "v1")}, ring
    )
    assert img == Polynomial.variable(ring, "x") + (
        Polynomial.variable(ring, "t") * Polynomial.variable(ring, "v1")
    )


def test_substitute_line_restriction_hand_expansion():
    # H = y(y - 1) along y -> u1 + t v1: quadratic in t, leading coeff v1^2
    ring = ("u1", "t", "v1")
    u1, t, v1 = (Polynomial.variable(ring, n) for n in ring)
    H = Y * (Y - 1)
    img = substitute(H, {"y": u1 + t * v1}, ring)
    expected = t**2 * v1**2 + t * (2 * u1 * v1 - v1) + u1**2 - u1
    assert img == expected


def test_substitute_unbound_variable():
    with pytest.raises(ValueError, match="unbound"):
        substitute(X + Y, {"x": 1}, V)


def test_substitute_binding_outside_target_ring():
    T = Polynomial.variable(("t",), "t")
    with pytest.raises(VariableMismatchError):
        substitute(X + Y, {"x": X, "y": Y}, ("x", "y", "t"))
    # the binding of y is rejected although y does not occur in x
    with pytest.raises(VariableMismatchError):
        substitute(X, {"x": X, "y": T}, V)
    with pytest.raises(VariableMismatchError):
        substitute(Polynomial.constant(V, 3), {"x": T}, V)


def test_partial_derivative_examples():
    assert (X + Y**3).partial_derivative("y") == 3 * Y**2
    assert Polynomial.constant(V, 7).partial_derivative("x").is_zero()
    assert (X**2 * Y**3).partial_derivative("x") == 2 * X * Y**3


def test_leading_form_examples():
    assert (X * Y - 1).leading_form() == X * Y
    assert X.leading_form() == X
    assert (X**3 + X**2 * Y + Y).leading_form() == X**3 + X**2 * Y
    with pytest.raises(ValueError):
        Polynomial.zero(V).leading_form()


def test_leading_form_is_top_homogeneous_component_1000():
    rng = random.Random(4040)
    checked = 0
    while checked < 1000:
        p = random_polynomial(rng, ("x", "y", "z"), max_degree=5, max_terms=6)
        if not p.is_zero():
            assert p.leading_form() == homogeneous_components(p)[-1][1]
            checked += 1


def test_squarefree_part_examples():
    assert squarefree_part(Y**2) == Y
    p = Y * (Y - 1)
    assert squarefree_part(p) == make_primitive(p)
    # (x+y)^2 (x-y) -> (x+y)(x-y), expected computed by direct expansion
    assert squarefree_part((X + Y) ** 2 * (X - Y)) == (X + Y) * (X - Y)
    with pytest.raises(ValueError):
        squarefree_part(Polynomial.zero(V))


def test_exact_div_and_failure():
    p = (X + Y) * (X - Y) * (2 * X + 3)
    assert exact_div(p, X + Y) == (X - Y) * (2 * X + 3)
    with pytest.raises(ExactDivisionError):
        exact_div(X**2 + 1, X + Y)


def test_poly_gcd_primitive_convention():
    # gcds are returned Z-primitive (contents are units over Q)
    assert poly_gcd(6 * (X + Y) ** 2, 4 * (X + Y) * X) == X + Y
    assert poly_gcd(X * Y, X * Y + 1) == Polynomial.one(V)
    assert poly_gcd((X + Y) ** 2 * (X - Y), (X + Y) * X**2) == X + Y


def test_poly_gcd_recovers_planted_common_factor():
    from kellerlab.polyring import divides

    rng = random.Random(606)
    for _ in range(25):
        g, a = coprime_pair(rng, V, max_degree=3)
        _, b = coprime_pair(rng, V, max_degree=2)
        d = poly_gcd(g * a, g * b)
        # the gcd divides both inputs and the planted factor divides the gcd
        assert divides(d, g * a)
        assert divides(d, g * b)
        assert divides(make_primitive(g), d)


def test_distributivity_and_no_zero_coefficients():
    rng = random.Random(101)
    for _ in range(200):
        p = random_polynomial(rng, V)
        q = random_polynomial(rng, V)
        r = random_polynomial(rng, V)
        left = (p + q) * r
        right = p * r + q * r
        assert left == right
        for poly in (left, right, p - p):
            assert all(c != 0 for c in poly.terms.values())


def test_derivation_rule():
    rng = random.Random(202)
    for _ in range(150):
        p = random_polynomial(rng, V)
        q = random_polynomial(rng, V)
        lhs = (p * q).partial_derivative("x")
        rhs = p.partial_derivative("x") * q + p * q.partial_derivative("x")
        assert lhs == rhs


def test_substitution_functoriality_linear():
    rng = random.Random(303)
    for _ in range(60):
        p = random_polynomial(rng, V, max_degree=3)
        sigma = random_linear_bindings(rng, V)
        tau = random_linear_bindings(rng, V)
        composed = {v: substitute(sigma[v], tau, V) for v in V}
        left = substitute(substitute(p, sigma, V), tau, V)
        right = substitute(p, composed, V)
        assert left == right


def test_squarefree_squares_collapse():
    rng = random.Random(505)
    for _ in range(20):
        p, q = coprime_pair(rng, V, max_degree=4)
        assert squarefree_part(p * p * q) == squarefree_part(p * q)


def test_is_integral_and_content():
    p = Fraction(3, 2) * X + Y
    assert not p.is_integral()
    assert (3 * X + 2 * Y).is_integral()
    assert integer_content(6 * X + 4 * Y) == 2
    assert make_primitive(p) == 3 * X + 2 * Y


def test_poly_map_basics():
    F = PolyMap([X + Y**3, Y])
    G = PolyMap([X - Y**3, Y])
    assert F.compose(G) == PolyMap.identity(V)
    assert F.compose_truncated(F, 3) == PolyMap([X + 2 * Y**3, Y])
    assert F.evaluate([1, 2]) == (9, 2)
    assert F.is_square() and F.fixes_origin()
    with pytest.raises(VariableMismatchError):
        PolyMap([X, Polynomial.variable(("z",), "z")])


def test_poly_map_linear_matches_sum_of_scaled_variables():
    rng = random.Random(818)
    rings = [("x",), V, ("x", "y", "z"), ("a", "b", "c", "d")]
    for _ in range(200):
        ring = rng.choice(rings)
        rows = [[rng.choice((0, 0, random_rational(rng))) for _ in ring]
                for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.2:
            rows[rng.randrange(len(rows))] = [0] * len(ring)
        xs = [Polynomial.variable(ring, v) for v in ring]
        expected = PolyMap([sum((a * x for a, x in zip(row, xs)), Polynomial.zero(ring))
                            for row in rows])
        got = PolyMap.linear(rows, ring)
        assert got == expected
        assert all(got.components[i].terms == expected.components[i].terms
                   for i in range(len(rows)))
    assert PolyMap.linear([[1, 0], [0, 1]], V) == PolyMap.identity(V) == PolyMap([X, Y])
    with pytest.raises(ValueError, match="row length"):
        PolyMap.linear([[1, 2], [3]], V)
    with pytest.raises(ValueError, match="row length"):
        PolyMap.linear([[1, 2, 3]], V)


def _random_rational_polynomial(rng, variables, **kwargs):
    """random_polynomial with each coefficient over its own denominator."""
    p = random_polynomial(rng, variables, **kwargs)
    return p.map_coefficients(lambda c: c / rng.choice((1, 1, 2, 3, 4, 9, 10)))


def test_kernel_mul_matches_reference_loop():
    rng = random.Random(707)
    rings = [V, ("x",), ("x", "y", "z", "w")]
    for _ in range(300):
        ring = rng.choice(rings)
        p = _random_rational_polynomial(rng, ring, max_degree=5, max_terms=7)
        q = _random_rational_polynomial(rng, ring, max_degree=5, max_terms=7)
        got = p * q
        assert got.terms == reference_mul(p, q).terms
        assert all(type(c) is Fraction and c for c in got.terms.values())


def test_kernel_mul_edge_cases():
    zero = Polynomial.zero(V)
    p = Fraction(1, 2) * X + Fraction(2, 3) * Y**2 - 5
    for a, b in [(zero, p), (p, zero), (zero, zero)]:
        assert (a * b).is_zero()
    # the xy terms cancel to zero and are dropped
    assert ((X + Y) * (X - Y)).terms == {(2, 0): 1, (0, 2): -1}
    assert ((X + Fraction(1, 2) * Y) * (X - Fraction(1, 2) * Y)).terms == {
        (2, 0): 1, (0, 2): Fraction(-1, 4)
    }
    # a 0-variable ring
    a = Polynomial.constant((), Fraction(3, 4))
    b = Polynomial.constant((), Fraction(-2, 9))
    assert (a * b).terms == {(): Fraction(-1, 6)}
    assert (a * Polynomial.zero(())).is_zero()
    # exponents far beyond a narrow field width
    wide = X**200 * Y**3
    assert wide.terms == {(200, 3): 1}
    q = Fraction(7, 3) * X**150 + Y**301 - 1
    assert (wide * q).terms == reference_mul(wide, q).terms
    assert (wide * q).terms[(200, 304)] == 1


def test_kernel_exact_div_matches_reference_loop():
    rng = random.Random(808)
    rings = [V, ("x",), ("x", "y", "z")]
    for _ in range(200):
        ring = rng.choice(rings)
        q = _random_rational_polynomial(rng, ring, max_degree=4, max_terms=5,
                                        allow_zero=False)
        s = _random_rational_polynomial(rng, ring, max_degree=4, max_terms=5)
        p = q * s
        assert exact_div(p, q) == reference_exact_div(p, q) == s
        # perturbed dividends usually leave a remainder; both sides must agree
        r = p + _random_rational_polynomial(rng, ring, max_degree=3, max_terms=2)
        try:
            expected = reference_exact_div(r, q)
        except ExactDivisionError:
            with pytest.raises(ExactDivisionError):
                exact_div(r, q)
        else:
            assert exact_div(r, q) == expected


def test_kernel_exact_div_edge_cases():
    assert exact_div(X + 1, 2 * X + 2) == Fraction(1, 2)
    with pytest.raises(ExactDivisionError):
        exact_div(X + 1, 2 * X + 3)
    with pytest.raises(ExactDivisionError):
        exact_div(X + 1, X**2 + 1)
    with pytest.raises(ZeroDivisionError):
        exact_div(X, Polynomial.zero(V))
    assert exact_div(Polynomial.zero(V), X + 1).is_zero()
    assert exact_div(Fraction(3, 2) * X * Y, Fraction(9, 4)) == Fraction(2, 3) * X * Y
    a = Polynomial.constant((), Fraction(3, 4))
    assert exact_div(a, Polynomial.constant((), Fraction(-2, 9))).terms == {
        (): Fraction(-27, 8)
    }
    wide = X**200 * Y**3 - Fraction(1, 5) * Y**400
    q = X**3 + Fraction(2, 7) * Y
    assert exact_div(wide * q, q) == wide
    assert exact_div(wide * q, wide) == q
    with pytest.raises(ExactDivisionError):
        exact_div(wide * q + 1, q)


def test_pickle_roundtrip():
    cases = [
        Polynomial.zero(V),
        Polynomial.zero(()),
        Polynomial.constant((), Fraction(-7, 3)),
        Fraction(3, 2) * X**2 * Y - Fraction(1, 7) * Y + 4,
    ]
    for p in cases:
        back = pickle.loads(pickle.dumps(p))
        assert back == p and back.variables == p.variables
        with pytest.raises(AttributeError):
            back.terms = {}
    F = PolyMap([X + Fraction(1, 2) * Y**3, Y])
    back = pickle.loads(pickle.dumps(F))
    assert back == F and back.variables == F.variables
    assert back.compose(PolyMap([X - Fraction(1, 2) * Y**3, Y])) == PolyMap.identity(V)


def test_integer_root_is_exact_floor():
    rng = random.Random(31)
    cases = [(0, 1), (0, 5), (1, 3), (7, 1), (10**40, 2), ((10**20 + 1) ** 3, 3),
             ((10**20 + 1) ** 3 - 1, 3), (2**64, 64), (2**64 - 1, 64)]
    for _ in range(300):
        k = rng.randint(1, 7)
        r = rng.randint(0, 10**rng.randint(0, 12))
        cases += [(r**k, k), (r**k + rng.randint(0, k * r ** max(k - 1, 0)), k)]
    for n, k in cases:
        r = integer_root(n, k)
        assert r**k <= n < (r + 1) ** k, (n, k)


def test_as_int_refuses_to_truncate():
    assert _as_int(3) == 3 and _as_int(Fraction(-6, 2)) == -3 and _as_int(2.0) == 2
    assert type(_as_int(True)) is type(_as_int(Fraction(4))) is type(_as_int(4.0)) is int
    for bad in (Fraction(3, 2), 2.5, -0.5, float("nan"), float("inf"), "3", None):
        with pytest.raises(ValueError, match="expected an integer"):
            _as_int(bad)
