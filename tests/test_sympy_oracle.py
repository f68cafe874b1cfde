"""Optional cross-checks against sympy, skipped when it is not installed.

These supplement (never replace) the hand and enumeration oracles in the
per-module suites.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from kellerlab._linalg import poly_matrix_det
from kellerlab.bundled import load_bundled_map
from kellerlab.elim import (
    Ideal,
    TermOrder,
    groebner,
    minimal_poly_of_coordinate,
    resultant,
)
from kellerlab.expr_io import parse_polynomial as P
from kellerlab.fibers import _radical_lcm, bifurcation_data, poly_D
from kellerlab.keller import CubicLinearForm, formal_inverse
from kellerlab.polyring import (
    Polynomial,
    PolyMap,
    make_primitive,
    poly_gcd,
    squarefree_part,
    substitute,
)
from kellerlab.transforms import conjugate_by_linear

from _support import (
    discriminant,
    leading_coefficient_lists,
    map_coefficients,
    random_polynomial,
)

V = ("x", "y")
SYMS = sympy.symbols("x y")


def to_sympy(p: Polynomial, syms=SYMS):
    expr = sympy.Integer(0)
    for m, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, m):
            term *= s**e
        expr += term
    return sympy.expand(expr)


def from_sympy(expr, variables=V, syms=SYMS):
    poly = sympy.Poly(expr, *syms[: len(variables)])
    terms = {}
    for monom, coef in poly.terms():
        q = sympy.Rational(coef)
        terms[tuple(int(e) for e in monom)] = Fraction(int(q.p), int(q.q))
    return Polynomial(variables, terms)


def test_gcd_matches_sympy():
    rng = random.Random(31337)
    for _ in range(30):
        p = random_polynomial(rng, V, max_degree=4, max_terms=3, allow_zero=False)
        q = random_polynomial(rng, V, max_degree=4, max_terms=3, allow_zero=False)
        ours = poly_gcd(p, q)
        theirs = sympy.gcd(to_sympy(p), to_sympy(q))
        assert ours == make_primitive(from_sympy(theirs))


def test_planted_factor_gcd_matches_sympy_in_one_to_five_variables():
    # GCDHEU against sympy's gcd, which shares no code with the
    # subresultant PRS that the polyring tests use as the reference
    rng = random.Random(31344)
    names = ("x", "y", "z", "w", "u")
    syms = sympy.symbols(names)
    for trial in range(40):
        ring = names[: 1 + trial % 5]
        planted = random_polynomial(rng, ring, max_degree=3, max_terms=3, allow_zero=False)
        a = planted * random_polynomial(rng, ring, max_degree=3, max_terms=4, allow_zero=False)
        b = planted * random_polynomial(rng, ring, max_degree=3, max_terms=3, allow_zero=False)
        if a.is_zero() or b.is_zero():  # equal monomials drawn twice can cancel
            continue
        theirs = sympy.gcd(to_sympy(a, syms), to_sympy(b, syms))
        assert poly_gcd(a, b) == make_primitive(from_sympy(theirs, ring, syms)), (a, b)


def test_squarefree_part_matches_sympy():
    rng = random.Random(31338)
    for _ in range(20):
        p = random_polynomial(rng, V, max_degree=3, max_terms=3, allow_zero=False)
        q = random_polynomial(rng, V, max_degree=2, max_terms=2, allow_zero=False)
        prod = p * p * q
        if prod.is_zero() or prod.is_constant():
            continue
        ours = squarefree_part(prod)
        radical = sympy.factor_list(to_sympy(prod))
        expr = sympy.Integer(1)
        for factor, _ in radical[1]:
            expr *= factor
        theirs = make_primitive(from_sympy(sympy.expand(expr)))
        assert ours == theirs


def test_groebner_matches_sympy_lex():
    rng = random.Random(31339)
    order = TermOrder.lex(V)
    for _ in range(12):
        gens = [
            random_polynomial(rng, V, max_degree=3, max_terms=3, allow_zero=False)
            for _ in range(2)
        ]
        ours = groebner(Ideal(tuple(gens)), order)
        theirs = sympy.groebner([to_sympy(g) for g in gens], *SYMS, order="lex")
        if ours.is_zero():
            assert list(theirs.exprs) == [sympy.Integer(0)] or not theirs.exprs
            continue
        expected = {make_primitive(from_sympy(e)) for e in theirs.exprs}
        got = {make_primitive(g) for g in ours.generators}
        assert got == expected


def test_resultant_and_discriminant_match_sympy():
    rng = random.Random(31340)
    t, b = sympy.symbols("t b")
    ring = ("t", "b")
    for _ in range(20):
        p = random_polynomial(rng, ring, max_degree=4, max_terms=3, allow_zero=False)
        q = random_polynomial(rng, ring, max_degree=3, max_terms=3, allow_zero=False)
        if p.degree_in("t") < 1 and q.degree_in("t") < 1:
            continue

        def to_tb(poly):
            expr = sympy.Integer(0)
            for m, c in poly.terms.items():
                expr += sympy.Rational(c.numerator, c.denominator) * t ** m[0] * b ** m[1]
            return expr

        def parse_expr(expr):
            poly = sympy.Poly(sympy.expand(expr), t, b)
            terms = {
                (int(m0), int(m1)): Fraction(
                    int(sympy.Rational(c).p), int(sympy.Rational(c).q)
                )
                for (m0, m1), c in poly.terms()
            }
            return Polynomial(ring, terms)

        # sympy's PRS-based resultant is sign-loose (it can violate the
        # (-1)^(mn) antisymmetry and disagree with its own Sylvester
        # determinant), so compare up to sign; the exact sign of ours is
        # pinned by the root-product oracle in test_elim
        ours = resultant(p, q, "t")
        theirs = parse_expr(sympy.resultant(to_tb(p), to_tb(q), t))
        assert ours == theirs or ours == -theirs

        d = p.degree_in("t")
        if d >= 2:
            ours_disc = discriminant(p, "t")
            theirs_disc = parse_expr(sympy.discriminant(to_tb(p), t))
            assert ours_disc == theirs_disc or ours_disc == -theirs_disc


def test_degree4_discriminant_matches_sympy():
    # Res_t(p, dp/dt) at t-degrees (4, 3): a subresultant sequence of
    # three pseudo-remainders with exact divisions in Q[b]
    rng = random.Random(31341)
    t, b = sympy.symbols("t b")
    ring = ("t", "b")
    checked = 0
    while checked < 8:
        p = random_polynomial(rng, ring, max_degree=3, max_terms=4, allow_zero=False)
        p = p + rng.choice((1, -2, 3)) * Polynomial.variable(ring, "t") ** 4
        if p.degree_in("t") != 4:
            continue
        expr = sum(
            (sympy.Rational(c.numerator, c.denominator) * t ** m[0] * b ** m[1]
             for m, c in p.terms.items()),
            sympy.Integer(0),
        )
        theirs = sympy.Poly(sympy.discriminant(expr, t), t, b)
        ours = discriminant(p, "t")
        assert ours == Polynomial(
            ring,
            {tuple(int(e) for e in m): Fraction(int(c.p), int(c.q))
             for m, c in theirs.terms()},
        )
        checked += 1


def test_hard_tier_degree4_line_discriminant_matches_sympy():
    # the benchmark's deg H = 4 sigma input: x, x(x - 1)(x + 2)(x - 3)y
    # conjugated by D A, A = ((2, 1), (1, 1)), D = diag(1, +-1); Disc_t of
    # H(U + tV) over (U1, U2, V1, V2, t), as poly_D computes it
    base = PolyMap([P("x", V), P("x*(x - 1)*(x + 2)*(x - 3)*y", V)])
    ring = ("U1", "U2", "V1", "V2", "t")
    syms = sympy.symbols(ring)
    line = (P("U1 + t*V1", ring), P("U2 + t*V2", ring))
    for sign in (1, -1):
        F = conjugate_by_linear(base, ((2, 1), (sign, sign)))
        H = bifurcation_data(F, compute_fiber_degree=False).H
        assert H.total_degree() == 4
        restricted = substitute(H, dict(zip(H.variables, line)), ring)
        expr = sympy.Integer(0)
        for m, c in restricted.terms.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for sym, e in zip(syms, m):
                term *= sym**e
            expr += term
        theirs = sympy.Poly(sympy.discriminant(expr, syms[-1]), *syms)
        assert discriminant(restricted, "t") == Polynomial(
            ring,
            {tuple(int(e) for e in m): Fraction(int(c.p), int(c.q))
             for m, c in theirs.terms()},
        )


def test_three_variable_line_discriminant_matches_sympy():
    # poly_D(H) = coneform(V) Disc_t(H(U + tV)) over (U1..U3, V1..V3), for
    # seeded H of degree 2 and 3 in three variables
    rng = random.Random(31342)
    Y3 = ("Y1", "Y2", "Y3")
    ring = ("U1", "U2", "U3", "V1", "V2", "V3", "t")
    syms = sympy.symbols(ring)
    line = {y: P(f"U{k} + t*V{k}", ring) for k, y in enumerate(Y3, start=1)}
    direction = {y: P(f"V{k}", ring) for k, y in enumerate(Y3, start=1)}

    def expr(p):
        out = sympy.Integer(0)
        for m, c in p.terms.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for sym, e in zip(syms, m):
                term *= sym**e
            out += term
        return out

    for d in (2, 2, 2, 3, 3, 3):
        H = random_polynomial(rng, Y3, max_degree=d, max_terms=4, allow_zero=False)
        while H.total_degree() != d:
            H = random_polynomial(rng, Y3, max_degree=d, max_terms=4, allow_zero=False)
        H = map_coefficients(H, lambda c: c / rng.choice((1, 2, 3)))
        restricted = substitute(H, line, ring)
        cone = substitute(H.leading_form(), direction, ring)
        theirs = sympy.Poly(expr(cone) * sympy.discriminant(expr(restricted), syms[-1]),
                            *syms[:-1])
        assert poly_D(H) == Polynomial(
            ring[:-1],
            {tuple(int(e) for e in m): Fraction(int(c.p), int(c.q))
             for m, c in theirs.terms()},
        ), H


def test_hard_tier_squarefree_part_matches_sympy():
    # the benchmark's non-Keller sigma inputs: x, x p(x) y for p = x - 1,
    # (x - 1)(x + 2) and (x - 1)(x + 2)(x - 3), conjugated by D A with
    # A = ((2, 1), (1, 1)), D = diag(1, +-1); H is the squarefree part of
    # the product of the leading coefficients a_i
    A_2 = ((2, 1), (1, 1))
    for p in ("x - 1", "(x - 1)*(x + 2)", "(x - 1)*(x + 2)*(x - 3)"):
        base = PolyMap([P("x", V), P(f"x*({p})*y", V)])
        for sign in (1, -1):
            D_A = tuple(tuple(s * a for a in row) for s, row in zip((1, sign), A_2))
            data = bifurcation_data(conjugate_by_linear(base, D_A),
                                    compute_fiber_degree=False)
            product = data.a[0] * data.a[1]
            assert not product.is_constant()
            ours = squarefree_part(product)
            theirs = sympy.sqf_part(to_sympy(product))
            assert ours == make_primitive(from_sympy(theirs, product.variables))
            assert data.H == ours


def test_radical_lcm_matches_sympy_sqf_part():
    # H of seeded a_i lists that share factors, against sympy's squarefree
    # part of their product
    for shape, aas, _ in leading_coefficient_lists():
        ring = aas[0].variables
        syms = sympy.symbols(" ".join(ring))
        product = sympy.Integer(1)
        for a in aas:
            product *= to_sympy(a, syms)
        theirs = from_sympy(sympy.sqf_part(sympy.expand(product)), ring, syms)
        assert _radical_lcm(aas, ring) == make_primitive(theirs), shape


def test_5x5_poly_matrix_det_matches_sympy():
    rng = random.Random(31342)
    for _ in range(4):
        rows = [
            [
                map_coefficients(
                    random_polynomial(rng, V, max_degree=2, max_terms=3, coeff_bound=4),
                    lambda c: c / rng.choice((1, 2, 3)),
                )
                for _ in range(5)
            ]
            for _ in range(5)
        ]
        ours = poly_matrix_det(rows)
        assert not ours.is_zero()
        theirs = sympy.Matrix([[to_sympy(e) for e in row] for row in rows]).det(
            method="berkowitz"
        )
        assert ours == from_sympy(sympy.expand(theirs))


def test_minimal_poly_of_hard_tier_conjugate_matches_sympy():
    # the benchmark's n = 3 conjugate A F A^-1 of triangular_3 (class c3);
    # its elimination runs the block order on 6 variables
    F = conjugate_by_linear(
        load_bundled_map("triangular_3.map").to_poly_map(),
        ((1, 0, 1), (1, 1, 0), (0, 0, 1)),
    )
    xs = sympy.symbols(F.variables)
    ys = sympy.symbols("Y1 Y2 Y3")
    T = sympy.Symbol("T")
    gone, xi = xs[:2], xs[2]
    comps = [
        sum(
            (sympy.Rational(c.numerator, c.denominator)
             * sympy.Mul(*(x**e for x, e in zip(xs, m)))
             for m, c in f.terms.items()),
            sympy.Integer(0),
        )
        for f in F.components
    ]
    G = sympy.groebner([c - y for c, y in zip(comps, ys)], *gone, *ys, xi, order="lex")
    (h,) = [g for g in G.exprs if not g.free_symbols & set(gone)]
    theirs = sympy.Poly(h.subs(xi, T), *ys, T)
    expected = Polynomial(
        ("Y1", "Y2", "Y3", "T"),
        {tuple(int(e) for e in m): Fraction(int(c.p), int(c.q)) for m, c in theirs.terms()},
    )
    assert minimal_poly_of_coordinate(F, 3) == make_primitive(expected)


def test_basis_inverse_of_n4_conjugate_matches_sympy_composition():
    # A F A^-1 with the benchmark's n = 4 matrix N1 and a triangular F whose
    # inverse has degree 9; sympy's sparse ring composes G o F
    from sympy.polys.rings import ring

    form = CubicLinearForm(((0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 0, 0), (1, 1, 0, 0)))
    F = conjugate_by_linear(
        form.to_map(), ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1))
    )
    inv = formal_inverse(F)
    assert inv.map.max_degree() == 9
    R, *xs = ring(",".join(F.variables), sympy.QQ)

    def to_ring(p):
        return R.from_dict(
            {m: sympy.QQ(c.numerator, c.denominator) for m, c in p.terms.items()}
        )

    subs = list(zip(xs, (to_ring(f) for f in F.components)))
    assert [to_ring(g).compose(subs) for g in inv.map.components] == xs
