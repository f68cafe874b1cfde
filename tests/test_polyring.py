import pickle
import random
from fractions import Fraction

import pytest

from kellerlab import polyring
from kellerlab.errors import ExactDivisionError, VariableMismatchError
from kellerlab.polyring import (
    Polynomial,
    PolyMap,
    _add_terms,
    _as_int,
    _clear_denominators,
    _grlex_layout,
    _pack,
    _quotient,
    divides,
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
    map_coefficients,
    naive_mul,
    random_linear_bindings,
    random_polynomial,
    random_rational,
    reference_exact_div,
    reference_mul,
    reference_pow,
    reference_squarefree_part,
    reference_substitute,
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


def _rational(rng, p):
    """p with each coefficient over a random denominator, signs kept."""
    return map_coefficients(p, lambda c: Fraction(c, rng.choice((1, 1, 2, 3, 6))))


def _random_binding(rng, ring):
    """A polynomial of random degree over `ring`, a constant or a zero."""
    kind = rng.choice(("poly", "poly", "poly", "int", "fraction", "zero", "zero poly"))
    if kind == "poly":
        degree = rng.randint(0, 3) if ring else 0
        return _rational(rng, random_polynomial(rng, ring, degree, 4, 5))
    if kind == "int":
        return rng.randint(-4, 4)
    if kind == "fraction":
        return random_rational(rng, 4, (2, 3, 5))
    return 0 if kind == "zero" else Polynomial.zero(ring)


def test_substitute_matches_the_fraction_reference():
    # rational and negative coefficients; constant, zero and unused
    # bindings; bindings of mixed degree, into a ring of another size
    rng = random.Random(6262)
    source = ("x", "y", "z")
    for trial in range(150):
        ring = ("s", "t", "u", "w")[: trial % 4]
        p = _rational(rng, random_polynomial(rng, source, 5, 6))
        bindings = {v: _random_binding(rng, ring) for v in source}
        bindings["unused"] = _random_binding(rng, ring)
        assert substitute(p, bindings, ring) == reference_substitute(p, bindings, ring), (
            p, bindings)


def test_compose_is_substitute_on_each_component():
    rng = random.Random(6363)
    for n in (1, 2, 3):
        variables = ("x", "y", "z")[:n]
        for _ in range(20):
            outer = PolyMap([_rational(rng, random_polynomial(rng, variables, 4, 5))
                             for _ in range(rng.randint(1, 3))])
            inner = PolyMap([_rational(rng, random_polynomial(rng, variables, 3, 4))
                             for _ in range(n)])
            bindings = dict(zip(variables, inner.components))
            assert outer.compose(inner) == PolyMap([
                reference_substitute(c, bindings, variables) for c in outer.components])


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
    rng = random.Random(606)
    for _ in range(25):
        g, a = coprime_pair(rng, V, max_degree=3)
        _, b = coprime_pair(rng, V, max_degree=2)
        d = poly_gcd(g * a, g * b)
        # the gcd divides both inputs and the planted factor divides the gcd
        assert divides(d, g * a)
        assert divides(d, g * b)
        assert divides(make_primitive(g), d)


def _prs_gcd_of(p, q):
    """The gcd that `poly_gcd` read off the subresultant PRS alone."""
    return polyring._gcd_z(make_primitive(p), make_primitive(q))


def _nonzero_polynomial(rng, ring, **kwargs):
    while True:
        p = random_polynomial(rng, ring, allow_zero=False, **kwargs)
        if p:  # equal monomials drawn twice can cancel
            return p


def test_heuristic_gcd_matches_prs_on_planted_factors():
    rng = random.Random(2525)
    names = ("x", "y", "z", "w", "u", "v")
    for trial in range(120):
        ring = names[: 1 + trial % 6]
        planted = _nonzero_polynomial(rng, ring, max_degree=3, max_terms=4)
        a = make_primitive(planted * _nonzero_polynomial(rng, ring, max_degree=4, max_terms=5))
        b = make_primitive(planted * _nonzero_polynomial(rng, ring, max_degree=3, max_terms=4))
        expected = polyring._gcd_z(a, b)
        g, cofactor = polyring._heu_gcd(a, b)
        assert g == expected and g * cofactor == a
        assert poly_gcd(a, b) == expected
        assert divides(make_primitive(planted), expected)


def test_heuristic_gcd_edge_cases():
    W = ("x", "y", "z", "w")
    x, y, z, w = (Polynomial.variable(W, v) for v in W)
    one = Polynomial.one(W)
    big = 2**70
    cases = [
        (Polynomial.constant(W, 6), Polynomial.constant(W, 4), one),  # constants
        (Polynomial.constant(W, 6), x * y + 3, one),
        (x**2 - 3 * x * y, Polynomial.constant(W, Fraction(-2, 3)), one),
        (x * y + 1, z * w - 2, one),  # no variable in common
        ((x + 1) * y, (x + 1) * (z**2 + w), x + 1),  # y and z, w on one side only
        ((x - y) * (x + z), x - y, x - y),  # one operand divides the other
        (x - y, (x - y) ** 3 * (w + 1), x - y),
        (-(x**2) * y + z, -(x**2) * y + z, x**2 * y - z),  # negative lex-leading
        (-(y + 1) * (x - 2), -(y + 1) * (x + w), y + 1),
        (big * (x + y) * (z - 1), big * 3 * (x + y) ** 2, x + y),  # content 2^70
        (big * x + big, 3 * x + 3, x + 1),
        (Fraction(1, 2) * x * y + Fraction(3, 4) * y, Fraction(2, 3) * y**2,  # rationals
         y),
        (Fraction(5, 7) * (x - Fraction(1, 3)) * (z + w), (3 * x - 1) * w, 3 * x - 1),
        # at the first point, 33, the values 65 * 1089 and 65 * 63 share the
        # extra factor 9, and the candidate x^2 - 15 x - 9 divides neither
        (2 * x**3 - x**2, 4 * x**2 - 8 * x + 3, 2 * x - 1),
    ]
    for p, q, expected in cases:
        assert poly_gcd(p, q) == expected
        assert poly_gcd(q, p) == expected
        assert _prs_gcd_of(p, q) == expected
        g, cofactor = polyring._heu_gcd(make_primitive(p), make_primitive(q))
        assert g == expected and g * cofactor == make_primitive(p)


def test_poly_gcd_falls_back_to_the_prs_when_the_heuristic_fails(monkeypatch):
    rng = random.Random(2626)
    ring = ("x", "y", "z")
    pairs = []
    for _ in range(10):
        planted = _nonzero_polynomial(rng, ring, max_degree=2, max_terms=3)
        pairs.append((planted * _nonzero_polynomial(rng, ring, max_degree=3),
                      planted * _nonzero_polynomial(rng, ring, max_degree=3)))
    expected = [_prs_gcd_of(p, q) for p, q in pairs]
    calls = []
    monkeypatch.setattr(polyring, "_heu_gcd", lambda a, b: calls.append((a, b)))
    assert [poly_gcd(p, q) for p, q in pairs] == expected
    assert len(calls) == len(pairs)


def test_heuristic_gcd_leaves_inputs_past_the_bit_cap_to_the_prs(monkeypatch):
    prs_runs = []
    prs = polyring._prs

    def counting_prs(*args):
        prs_runs.append(args)
        return prs(*args)

    monkeypatch.setattr(polyring, "_prs", counting_prs)
    # the first point is 2 min(|a|oo, |b|oo) + 29, so a norm of 2^k makes it
    # k + 2 bits long
    cap = polyring.HEU_GCD_MAX_BITS
    for k, past_cap in ((cap - 2, False), (cap - 1, True)):
        norm = 2**k
        a = (X + norm) * (X - 1)
        b = (X + norm) * (X + 2 * Y)
        assert min(max(abs(c) for c in p.terms.values()) for p in (a, b)) == norm
        prs_runs.clear()
        assert (polyring._heu_gcd(a, b) is None) == past_cap
        assert poly_gcd(a, b) == X + norm
        assert bool(prs_runs) == past_cap


def test_adic_refuses_a_digit_above_the_degree_bound_and_heu_tries_the_next_point(
        monkeypatch):
    layout = _grlex_layout(2, 4)
    unit, y = layout((1, 0)), layout((0, 1))
    # 17 = 2 - 2*5 + 1*5^2 in symmetric base-5 digits, 3 = -2 + 1*5
    assert polyring._adic({y: 17, 0: 3}, 5, unit, 2) == {
        y: 2, y + unit: -2, y + 2 * unit: 1, 0: -2, unit: 1}
    assert polyring._adic({y: 17, 0: 3}, 5, unit, 1) is None
    assert polyring._adic({0: 3}, 5, unit, 1) == {0: -2, unit: 1}

    # the first point's candidate is refused at a bound of 0; GCDHEU then
    # evaluates at the next point and accepts x + 1 there
    adic, points = polyring._adic, []

    def adic_refusing_the_first_point(g, xi, unit, degree):
        points.append(xi)
        return adic(g, xi, unit, degree if len(points) > 1 else 0)

    monkeypatch.setattr(polyring, "_adic", adic_refusing_the_first_point)
    a, b = (X + 1) * (X - 2), (X + 1) * (X + 3)
    g, cofactor = polyring._heu_gcd(a, b)
    assert (g, cofactor) == (X + 1, X - 2)
    first = 2 * 2 + 29  # |a|oo = 2 < |b|oo = 4
    assert points == [first, first * 73794 * integer_root(first, 4) // 27011]


def test_heuristic_gcd_with_an_operand_that_vanishes_at_the_point(monkeypatch):
    # the first point is 2 * 1 + 29 = 31, a root of x - 31: the gcd of the
    # values is then the other value, 32, whose digits give x + 1, which does
    # not divide x - 31, so GCDHEU goes on to the next point
    a, b = X - 31, X + 1
    one = Polynomial.one(V)
    adic, seen = polyring._adic, []

    def recording_adic(g, xi, unit, degree):
        seen.append((g, xi))
        return adic(g, xi, unit, degree)

    monkeypatch.setattr(polyring, "_adic", recording_adic)
    assert poly_gcd(a, b) == one
    assert seen[0] == ({0: 32}, 31)
    assert polyring._heu_gcd(a, b) == (one, a)
    # with that one point allowed, GCDHEU gives up and the PRS answers
    monkeypatch.setattr(polyring, "HEU_GCD_POINTS", 1)
    assert polyring._heu_gcd(a, b) is None
    assert polyring._gcd_z(a, b) == one
    assert poly_gcd(a, b) == one


@pytest.mark.parametrize("degree", [1, 3, 4, 7, 8])
def test_packed_heuristic_gcd_matches_prs_at_each_field_width(degree):
    # GCDHEU packs both sides into fields that hold 2 D for the larger total
    # degree D: 3 | 4 and 7 | 8 sit on either side of a step in the width.
    # b always uses w, which a lacks.
    width = _grlex_layout(4, 2 * degree).width
    assert width == {1: 3, 3: 4, 4: 5, 7: 5, 8: 6}[degree]
    rng = random.Random(3200 + degree)
    ring = ("x", "y", "z", "w")
    w = Polynomial.variable(ring, "w")

    def without_w(max_degree, **kwargs):
        p = _nonzero_polynomial(rng, ring[:3], max_degree=max_degree, **kwargs)
        return polyring.with_variables(p, ring)

    checked = 0
    while checked < 10:
        share = rng.randint(1, degree)
        planted = without_w(share, max_terms=3)
        a = planted * without_w(degree - share)
        b = planted * (_nonzero_polynomial(rng, ring, max_degree=degree - share) + w)
        if not b or max(a.total_degree(), b.total_degree()) != degree:
            continue
        a, b = make_primitive(a), make_primitive(b)
        expected = polyring._gcd_z(a, b)
        g, cofactor = polyring._heu_gcd(a, b)
        assert g == expected and g * cofactor == a
        checked += 1


def test_squarefree_part_of_dense_trivariate_takes_no_prs(monkeypatch):
    # a dense input on which the PRS alone took tens of seconds: its
    # subresultant coefficients grow to degree (m + 1) D in the other variables
    def no_prs(*args):
        raise AssertionError("squarefree_part entered the subresultant PRS")

    monkeypatch.setattr(polyring, "_prs", no_prs)
    rng = random.Random(7)
    f = random_polynomial(rng, ("x", "y", "z"), 6, 15, allow_zero=False)
    g = random_polynomial(rng, ("x", "y", "z"), 6, 15, allow_zero=False)
    assert squarefree_part(f * g * f) == make_primitive(f * g)


def test_squarefree_part_matches_the_division_by_the_last_gcd():
    rng = random.Random(1059)
    rings = [("x",), V, ("x", "y", "z")]
    for _ in range(100):
        ring = rng.choice(rings)
        f, g, h = (_nonzero_polynomial(rng, ring, max_degree=2, max_terms=3) for _ in range(3))
        p = f ** rng.randint(1, 3) * g ** rng.randint(1, 2) * h
        assert squarefree_part(p) == reference_squarefree_part(p)
    # gcd(p, dp/dx) = (x + 1)(y + 1), and dp/dy takes it down to x + 1
    p = (X + 1) ** 2 * (Y + 1)
    assert squarefree_part(p) == reference_squarefree_part(p) == (X + 1) * (Y + 1)


def test_squarefree_part_divides_p_once(monkeypatch):
    # GCDHEU accepts the first gcd g only after dividing p by it; when the
    # later gcds leave g as it is, that quotient is the squarefree part, and
    # p is not divided by g a second time
    dividends = []
    divide = polyring._divide_packed

    def counting(dividend, divisor, guard):
        dividends.append(sorted(c for _, c in dividend))
        return divide(dividend, divisor, guard)

    monkeypatch.setattr(polyring, "_divide_packed", counting)
    rng = random.Random(1060)
    x, y, z = (Polynomial.variable(("x", "y", "z"), v) for v in "xyz")
    for _ in range(5):
        a, b, c, d = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(4))
        # squarefree and coprime, both in x: every gcd is f
        f, g = x * (y + a) + z**2 + b, x**2 + c * y * z + d
        p = make_primitive(f * f * g)
        expected = reference_squarefree_part(p)
        dividends.clear()
        assert squarefree_part(p) == expected
        assert dividends.count(sorted(int(c) for c in p.terms.values())) == 1


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
    return map_coefficients(p, lambda c: c / rng.choice((1, 1, 2, 3, 4, 9, 10)))


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


def test_clear_denominators_is_the_one_way_into_the_integer_kernel():
    # an int-valued map: ints carry their numerator and a denominator of 1
    a = {(2, 0): 6, (1, 1): -4, (0, 0): 10}
    assert _clear_denominators(a.values()) == (1, [6, -4, 10])
    layout = _grlex_layout(2, 2)
    assert _pack(a, layout) == (1, [(layout(e), c) for e, c in a.items()])
    packed = dict(_pack(a, layout)[1])
    divisor = sorted(_pack({(1, 0): 3, (0, 1): -2}, layout)[1], reverse=True)
    with pytest.raises(ExactDivisionError):
        _quotient(packed, divisor, layout)
    assert _quotient(packed, [(layout((0, 0)), 2)], layout) == {
        layout(e): c for e, c in {(2, 0): 3, (1, 1): -2, (0, 0): 5}.items()}
    # pairwise coprime denominators: the lcm is their product
    values = [Fraction(1, 2), Fraction(-2, 3), Fraction(4, 5), Fraction(7)]
    assert _clear_denominators(values) == (30, [15, -20, 24, 210])
    # the empty map
    assert _clear_denominators({}.values()) == (1, [])
    assert _pack({}, layout) == (1, [])


def test_single_term_products_and_powers_match_the_reference():
    rng = random.Random(2627)
    rings = [V, ("x",), ("x", "y", "z", "w")]
    for _ in range(300):
        ring = rng.choice(rings)
        p = _random_rational_polynomial(rng, ring, max_degree=5, max_terms=7)
        # one term: a constant (0, 1 and -1 included) or a monomial, either
        # with a rational coefficient
        coef = rng.choice((0, 1, -1, random_rational(rng)))
        mono = [0] * len(ring)
        for _ in range(rng.choice((0, rng.randint(1, 4)))):
            mono[rng.randrange(len(ring))] += 1
        t = Polynomial(ring, {tuple(mono): coef})
        scalar = Polynomial.constant(ring, coef)
        for got, expected in ((p * t, reference_mul(p, t)), (t * p, reference_mul(t, p)),
                              (t * t, reference_mul(t, t)), (p * coef, reference_mul(p, scalar)),
                              (coef * p, reference_mul(scalar, p))):
            assert got.terms == expected.terms
            assert all(type(c) is Fraction and c for c in got.terms.values())
        for e in range(5):
            got = t**e
            assert got.terms == reference_pow(t, e).terms
            assert all(type(c) is Fraction and c for c in got.terms.values())
    # products with the constant 1 copy the operand's terms
    one = Polynomial.one(V)
    p = Fraction(1, 2) * X**2 - Y
    assert (one * p).terms == p.terms and (one * p).terms is not p.terms
    assert (X * Y**2) ** 3 == X**3 * Y**6
    assert Polynomial.zero(V) ** 0 == one and Polynomial.zero(V) ** 2 == 0


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


def test_make_primitive_matches_division_by_the_content():
    def reference(p):
        c = integer_content(p)
        return polyring.make_positive(map_coefficients(p, lambda x: x / c))

    rng = random.Random(909)
    rings = [V, ("x",), ("x", "y", "z")]
    for _ in range(400):
        ring = rng.choice(rings)
        p = _random_rational_polynomial(rng, ring, max_degree=4, max_terms=6)
        # common factors, with either sign, so that contents other than 1
        # and negative lex-leading coefficients occur often
        p = p * rng.choice((1, -1, 2, -6, Fraction(5, 3), Fraction(-4, 9)))
        got = make_primitive(p)
        assert got == reference(p)
        assert all(type(c) is Fraction and c.denominator == 1 for c in got.terms.values())
    # integral, content 1 and a positive lex-leading coefficient: the input
    p = 3 * X + 2 * Y - 5
    assert make_primitive(p) is p
    assert make_primitive(-p) == p
    assert make_primitive(Polynomial.zero(V)).is_zero()


def test_squarefree_part_needs_no_normalisation():
    # squarefree_part returns the quotient p / gcd as it is: it must already
    # be what make_primitive makes of it, also for rational inputs and
    # negative lex-leading coefficients
    rng = random.Random(1048)
    rings = [V, ("x",), ("x", "y", "z")]
    negative = 0
    for _ in range(150):
        ring = rng.choice(rings)
        f = _random_rational_polynomial(rng, ring, max_degree=3, max_terms=4)
        g = _random_rational_polynomial(rng, ring, max_degree=3, max_terms=4)
        p = f * f * g * rng.choice((1, -1, Fraction(-2, 3), Fraction(7, 5)))
        if p.is_zero():
            continue
        negative += p.terms[max(p.terms)] < 0
        got = squarefree_part(p)
        assert got == make_primitive(got)
        assert divides(got, p) and squarefree_part(got) == got
    assert negative > 30
    assert make_primitive(Polynomial.constant(V, Fraction(-4, 7))) == 1


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
