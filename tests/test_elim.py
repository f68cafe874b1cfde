import random
from fractions import Fraction
from math import lcm

import pytest

from kellerlab import elim, polyring
from kellerlab.bundled import load_bundled_map
from kellerlab.elim import (
    Ideal,
    TermOrder,
    eliminate,
    generic_fiber_degree,
    graph_ideal,
    groebner,
    inverse_map,
    minimal_poly_of_coordinate,
    reduce_poly,
    resultant,
)
from kellerlab.errors import (
    BudgetExceededError,
    InternalCheckError,
    NotDominantError,
    NotZeroDimensionalError,
)
from kellerlab.expr_io import parse_map_file
from kellerlab.expr_io import parse_polynomial as P
from kellerlab.fibers import bifurcation_data, poly_D
from kellerlab.polyring import (
    Polynomial,
    PolyMap,
    _from_powers,
    _grlex_layout,
    _prs,
    _times,
    squarefree_part,
    substitute,
    with_variables,
)
from kellerlab.transforms import conjugate_by_linear

from _support import (
    bundled_map_names,
    discriminant,
    load_hardgen,
    map_coefficients,
    random_polynomial,
    reference_eliminate,
    reference_generic_fiber_degree,
    reference_graph_ideal,
    reference_groebner,
    reference_inverse_map,
    reference_key_function,
    reference_minimal_poly,
    reference_reduce_poly,
    reference_resultant,
    reference_s_polynomial,
)

V = ("x", "y")


def _gb(gens, variables, kind="lex"):
    order = TermOrder.lex(variables) if kind == "lex" else TermOrder.grlex(variables)
    return groebner(Ideal(tuple(gens)), order)


def test_groebner_linear_system():
    G = _gb([P("x - 1", V), P("y - x", V)], V)
    assert set(G.generators) == {P("x - 1", V), P("y - 1", V)}


def test_groebner_monomial_ideal_already_reduced():
    # hand Buchberger: the single S-polynomial reduces to 0
    G = _gb([P("x^2", V), P("x*y", V)], V)
    assert set(G.generators) == {P("x^2", V), P("x*y", V)}


def test_groebner_elimination_by_lex():
    # hand elimination x = y^2 gives y^4 - y
    G = _gb([P("x^2 - y", V), P("y^2 - x", V)], V)
    assert P("y^4 - y", V) in set(G.generators)


def test_groebner_correctness_properties():
    rng = random.Random(808)
    for trial in range(40):
        variables = V if trial % 2 else ("x", "y", "z")
        order = TermOrder.grlex(variables) if trial % 3 else TermOrder.lex(variables)
        key = order.key_function(variables)
        gens = [
            random_polynomial(rng, variables, max_degree=3, max_terms=3,
                              allow_zero=False)
            for _ in range(rng.randint(2, 3))
        ]
        I = Ideal(tuple(gens))
        G = groebner(I, order)
        if G.is_zero():
            continue
        basis = list(G.generators)
        # every input generator reduces to zero modulo the basis
        for g in gens:
            assert reduce_poly(g, basis, key).is_zero()
        # every S-polynomial of the basis reduces to zero
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = reference_s_polynomial(basis[i], basis[j], key)
                assert reduce_poly(s, basis, key).is_zero()
        # the basis is reduced: no monomial is divisible by another lead
        for i, g in enumerate(basis):
            for k, h in enumerate(basis):
                if i == k:
                    continue
                lm_h = max(h.terms, key=key)
                assert not any(
                    all(a <= b for a, b in zip(lm_h, m)) for m in g.terms
                )


def _orders(variables):
    rev = tuple(reversed(variables))
    return [
        TermOrder.lex(variables),
        TermOrder.lex(rev),
        TermOrder.grlex(variables),
        TermOrder.grlex(rev),
        TermOrder.block(variables[:1], variables[1:]),
        TermOrder.block(rev[:2], rev[2:]),
        TermOrder.block((), variables),
    ]


def test_packed_keys_sort_like_reference_keys():
    rng = random.Random(1010)
    W = ("x", "y", "z", "w")
    for order in _orders(W):
        key = order.key_function(W)
        ref = reference_key_function(order, W)
        exps = [tuple(rng.choice((0, 0, 1, 2, 5, 300)) for _ in W) for _ in range(150)]
        exps += [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)]
        assert [key.unpack(key(e)) for e in exps] == exps
        assert sorted(exps, key=key) == sorted(exps, key=ref)


def test_layout_degree_reads_the_degree_fields():
    # groebner's degree budget sums each graded block's degree field and
    # unpacks only the exponents of ungraded (lex) blocks
    rng = random.Random(1212)
    W = ("x", "y", "z", "w")
    layouts = [order.key_function(W) for order in _orders(W)] + [_grlex_layout(4, 300)]
    for layout in layouts:
        for _ in range(150):
            m = layout(tuple(rng.choice((0, 0, 1, 2, 5, 300)) for _ in W))
            assert layout.degree(m) == sum(layout.unpack(m))
        assert layout.degree(layout((0, 0, 0, 0))) == 0


def test_reduce_poly_matches_reference():
    rng = random.Random(1111)
    W = ("x", "y", "z")
    for order in _orders(W):
        key = order.key_function(W)
        ref = reference_key_function(order, W)
        for _ in range(15):
            basis = [
                random_polynomial(rng, W, max_degree=3, max_terms=3, allow_zero=False)
                for _ in range(rng.randint(1, 3))
            ]
            basis = [
                map_coefficients(b, lambda c: c / rng.choice((1, 2, 3)))
                for b in basis
                if not b.is_zero()
            ]
            p = random_polynomial(rng, W, max_degree=5, max_terms=6)
            p = map_coefficients(p, lambda c: c / rng.choice((1, 4, 9, 11)))
            assert reduce_poly(p, basis, key) == reference_reduce_poly(p, basis, ref)


def test_groebner_elements_list_their_terms_in_descending_order():
    # generic_fiber_degree reads each element's first term as its leading term
    rng = random.Random(1818)
    W = ("x", "y", "z")
    for order in _orders(W):
        key = order.key_function(W)
        for _ in range(8):
            gens = [
                map_coefficients(
                    random_polynomial(rng, W, max_degree=3, max_terms=5, allow_zero=False),
                    lambda c: c / rng.choice((1, 2, 3)),
                )
                for _ in range(2)
            ]
            for g in groebner(Ideal(tuple(gens)), order).generators:
                assert next(iter(g.terms)) == max(g.terms, key=key)
                assert list(g.terms) == sorted(g.terms, key=key, reverse=True)


def _rational_generators(rng, variables, count):
    """Random generators with denominators and non-monic leading terms."""
    gens = []
    for _ in range(count):
        g = random_polynomial(rng, variables, max_degree=3, max_terms=3,
                              allow_zero=False)
        gens.append(map_coefficients(g, lambda c: c / rng.choice((1, 2, 3, 5, 7))))
    return gens


def test_groebner_on_rational_non_monic_generators_matches_reference():
    # the integer kernel clears denominators and keeps primitive elements;
    # the reduced basis is unique, so it must equal plain Buchberger on
    # Fractions element for element
    rng = random.Random(1212)
    W = ("x", "y", "z")
    for trial in range(24):
        variables = V if trial % 2 else W
        order = _orders(W)[trial % 7] if variables == W else (
            TermOrder.grlex(V) if trial % 4 == 1 else TermOrder.lex(V))
        gens = _rational_generators(rng, variables, 2)
        G = groebner(Ideal(tuple(gens)), order)
        ref = reference_groebner(gens, reference_key_function(order, variables))
        assert set(G.generators) == ref


def test_groebner_on_rational_non_monic_generators_matches_sympy():
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols("x y z")
    W = ("x", "y", "z")
    rng = random.Random(1313)

    def to_sympy(p):
        return sum(
            (sympy.Rational(c.numerator, c.denominator)
             * sympy.Mul(*(s**e for s, e in zip(syms, m)))
             for m, c in p.terms.items()),
            sympy.Integer(0),
        )

    for trial in range(12):
        kind = "lex" if trial % 2 else "grlex"
        gens = _rational_generators(rng, W, 2)
        ours = groebner(Ideal(tuple(gens)), getattr(TermOrder, kind)(W))
        theirs = sympy.groebner([to_sympy(g) for g in gens], *syms, order=kind)
        got = {to_sympy(g) for g in ours.generators}
        assert got == {sympy.expand(e / sympy.LC(e, *syms, order=kind))
                       for e in theirs.exprs}


def _monomial(rng, variables, low, high):
    exps = [0] * len(variables)
    for _ in range(rng.randint(low, high)):
        exps[rng.randrange(len(variables))] += 1
    return Polynomial._raw(variables, {tuple(exps): Fraction(1)})


def _criteria_generators(rng, variables, shape):
    """Generators whose pairs make the Gebauer-Moeller criteria fire.

    'binomial': three binomials m1 - c*m2 of degree <= 3 in few variables,
    whose leads share factors, so many pairs have equal lcms or lcms that are
    multiples of others (M, F, B_k).  'coprime': univariate generators in
    distinct variables, whose leads are coprime under every order (product
    criterion), and one mixed generator.
    """
    if shape == "binomial":
        return [_monomial(rng, variables, 1, 3)
                - rng.choice((1, -1, 2)) * _monomial(rng, variables, 0, 3)
                for _ in range(3)]
    gens = []
    for v in variables[:2]:
        x = Polynomial.variable(variables, v)
        gens.append(x ** rng.randint(1, 3) - rng.randint(-2, 2) * x - rng.randint(1, 3))
    gens.append(random_polynomial(rng, variables, max_degree=2, max_terms=3,
                                  allow_zero=False))
    return gens


def test_groebner_pair_criteria_match_reference():
    # inputs on which criteria M, F, B_k and the product criterion each drop
    # pairs; the reduced basis is unique, so a pair dropped wrongly shows as
    # a basis different from plain Buchberger's
    rng = random.Random(1414)
    W = ("x", "y", "z")
    for trial in range(42):
        order = _orders(W)[trial % 7]
        gens = _criteria_generators(rng, W, ("binomial", "coprime")[trial % 2])
        G = groebner(Ideal(tuple(gens)), order)
        assert set(G.generators) == reference_groebner(
            gens, reference_key_function(order, W))


def test_groebner_hard_tier_block_elimination_matches_sympy():
    # the graph ideal of the n = 4 stretch conjugate under the block order
    # that eliminates x2, x3, x4 (h_1's elimination): about 0.4 s in sympy
    sympy = pytest.importorskip("sympy")
    from sympy.polys.orderings import ProductOrder, grlex

    F = parse_map_file(N4_STRETCH).to_poly_map()
    I, ys = graph_ideal(F)
    gone, kept = ("x2", "x3", "x4"), ("x1",) + tuple(ys)
    G = groebner(I, TermOrder.block(gone, kept))
    syms = sympy.symbols(gone + kept)
    by_name = dict(zip(gone + kept, syms))

    def to_sympy(p):
        return sum(
            (sympy.Rational(c.numerator, c.denominator)
             * sympy.Mul(*(by_name[v] ** e for v, e in zip(p.variables, m)))
             for m, c in p.terms.items()),
            sympy.Integer(0),
        )

    order = ProductOrder((grlex, lambda m: m[:3]), (grlex, lambda m: m[3:]))
    theirs = sympy.groebner([to_sympy(g) for g in I.generators], *syms, order=order)
    assert {to_sympy(g) for g in G.generators} == {
        sympy.expand(e / sympy.LC(e, *syms, order=order)) for e in theirs.exprs}


def test_groebner_zero_reductions_on_n4_stretch_coordinate_2(monkeypatch):
    # h_2 of the stretch conjugate is where most S-pairs reduce to zero: 17
    # of 39 normal forms with the product and chain criteria alone, 11 of 33
    # with the Gebauer-Moeller update; more than 11 means a criterion is lost
    from kellerlab import elim

    zero = []
    normal_form = elim._normal_form

    def counting(*args):
        scale, r = normal_form(*args)
        zero.append(not r)
        return scale, r

    monkeypatch.setattr(elim, "_normal_form", counting)
    F = parse_map_file(N4_STRETCH).to_poly_map()
    h = minimal_poly_of_coordinate(F, 2)
    assert len(h.terms) == 120
    assert sum(zero) <= 11


def test_reduce_poly_is_exact_with_denominators():
    # fraction-free reduction, then division by the scale and by p's
    # denominator: x = 3/10 modulo 2/3 x - 1/5, so 1/2 (3/10)^2 + 1/3 = 227/600
    X = ("x",)
    r = reduce_poly(P("1/2*x^2 + 1/3", X), [P("2/3*x - 1/5", X)],
                    TermOrder.lex(X).key_function(X))
    assert r == P("227/600", X)


# An n = 4 conjugate A F A^-1 of the bundled triangular_4 map: the hard
# benchmark tier's stretch map at seed 1 (A = 1,1,0,0;0,-1,-1,0;0,0,-1,0;
# 0,0,0,-1).  Its h_4 has 2104 terms.
N4_STRETCH = """vars: x1 x2 x3 x4
F1 = x1 + x1^3 + 3*x1^2*x2 - 3*x1^2*x3 + 3*x1*x2^2 - 6*x1*x2*x3 + 3*x1*x3^2 + x2^3 - 3*x2^2*x3 + 3*x2*x3^2 - x3^3
F2 = x2 - x1^3 - 3*x1^2*x2 + 3*x1^2*x3 - 3*x1*x2^2 + 6*x1*x2*x3 - 3*x1*x3^2 + 7*x2^3 - 21*x2^2*x3 + 21*x2*x3^2 - 7*x3^3
F3 = x3 + 8*x2^3 - 24*x2^2*x3 + 24*x2*x3^2 - 8*x3^3
F4 = x4 - x1^3 - 3*x1^2*x2 + 6*x1^2*x3 - 3*x1*x2^2 + 12*x1*x2*x3 - 12*x1*x3^2 - x2^3 + 6*x2^2*x3 - 12*x2*x3^2 + 8*x3^3
"""


def test_bifurcation_of_n4_stretch_conjugate_is_its_inverse():
    # an automorphism has h_i = a_i (T - G_i(Y)) with G = F^-1, a_i and H
    # nonzero constants, no cone and d_F = 1
    A = [[1, 1, 0, 0], [0, -1, -1, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    F = parse_map_file(N4_STRETCH).to_poly_map()
    assert F == conjugate_by_linear(load_bundled_map("triangular_4.map").to_poly_map(), A)
    # G = A G_tri A^-1, with G_tri the back-substituted inverse of triangular_4
    ys = ("Y1", "Y2", "Y3", "Y4")
    G_tri = PolyMap([P(g, ys) for g in (
        "Y1",
        "Y2 - Y1^3",
        "Y3 - 8*(Y2 - Y1^3)^3",
        "Y4 - (Y1 + Y3 - 8*(Y2 - Y1^3)^3)^3",
    )])
    G = conjugate_by_linear(G_tri, A)
    data = bifurcation_data(F)
    ring = ys + ("T",)
    T = Polynomial.variable(ring, "T")
    for h, a, g in zip(data.h, data.a, G.components):
        assert a.is_constant() and not a.is_zero()
        assert h == a.constant_value() * (T - with_variables(g, ring))
    assert len(data.h[3].terms) == 2104
    assert data.H.is_constant() and not data.H.is_zero()
    assert data.cone_form is None
    assert data.fiber_degree == 1


def test_exponent_past_field_width_is_budget_exit():
    big = 1 << 15  # first value a 16-bit packed field cannot hold
    with pytest.raises(BudgetExceededError, match="packed monomial"):
        groebner(Ideal((P(f"x^{big} - y", V),)), TermOrder.lex(V))
    # a reduction step whose new term overflows: y^(big/2) * y^(big/2)
    half = big // 2
    with pytest.raises(BudgetExceededError, match="packed monomial"):
        groebner(Ideal((P(f"x - y^{half}", V), P("x^2 - x", V))), TermOrder.lex(V))
    # an lcm whose degree field overflows, though each lead fits: x^half*y^half
    with pytest.raises(BudgetExceededError, match="packed monomial"):
        groebner(Ideal((P(f"x^{half} - 1", V), P(f"y^{half} - 1", V))), TermOrder.grlex(V))
    key = TermOrder.lex(V).key_function(V)
    with pytest.raises(BudgetExceededError, match="packed monomial"):
        reduce_poly(P("x^2", V), [P(f"x - y^{half}", V)], key)
    # just inside the field width
    assert reduce_poly(P("x", V), [P(f"x - y^{big - 1}", V)], key) == P(f"y^{big - 1}", V)


def test_eliminate_examples():
    W = ("x", "y", "y1", "y2")
    E = eliminate(Ideal((P("x - y1", W), P("x*y - y2", W))), ["y1", "y2", "y"])
    assert E.variables == ("y", "y1", "y2")
    assert set(E.generators) == {P("y*y1 - y2", ("y", "y1", "y2"))}

    E2 = eliminate(Ideal((P("x - y1", ("x", "y1")),)), ["y1"])
    assert E2.is_zero()
    E3 = eliminate(Ideal((P("x^2 - y1", ("x", "y1")),)), ["y1"])
    assert E3.is_zero()


def test_eliminate_soundness_membership():
    # each eliminated generator lies in the original ideal
    rng = random.Random(909)
    W = ("x", "y", "z")
    order = TermOrder.grlex(W)
    key = order.key_function(W)
    for _ in range(10):
        gens = [
            random_polynomial(rng, W, max_degree=2, max_terms=3, allow_zero=False)
            for _ in range(2)
        ]
        I = Ideal(tuple(gens))
        E = eliminate(I, ["y", "z"])
        if E.is_zero():
            continue
        G = groebner(I, order)
        basis = [g for g in G.generators if not g.is_zero()]
        for g in E.generators:
            lifted = with_variables(g, W)
            assert reduce_poly(lifted, basis, key).is_zero()


def test_minimal_poly_examples():
    F = PolyMap([P("x", V), P("x*y", V)])
    h2 = minimal_poly_of_coordinate(F, 2)
    ring = ("Y1", "Y2", "T")
    assert h2 in (P("Y1*T - Y2", ring), P("Y2 - Y1*T", ring))

    Fi = PolyMap([P("x", V), P("y", V)])
    h1 = minimal_poly_of_coordinate(Fi, 1)
    assert h1 in (P("T - Y1", ring), P("Y1 - T", ring))

    Ft = PolyMap([P("x + y^3", V), P("y", V)])
    h2t = minimal_poly_of_coordinate(Ft, 2)
    assert h2t in (P("T - Y2", ring), P("Y2 - T", ring))


def test_minimal_poly_defining_identity():
    # h_i(F(X), X_i) = 0 exactly
    for F in (
        PolyMap([P("x", V), P("x*y", V)]),
        PolyMap([P("x + y^3", V), P("y", V)]),
        PolyMap([P("x", V), P("x*(x-1)*y", V)]),
    ):
        for i in (1, 2):
            h = minimal_poly_of_coordinate(F, i)
            bindings = {f"Y{k}": c for k, c in enumerate(F.components, start=1)}
            bindings["T"] = Polynomial.variable(V, V[i - 1])
            assert substitute(h, bindings, V).is_zero()


def test_minimal_poly_is_already_squarefree():
    # h_i generates a prime ideal, so a squarefree pass would not change it
    maps = [
        load_bundled_map(name).to_poly_map()
        for name in bundled_map_names()
        if name != "triangular_6.map"  # its h_1 exceeds the default budget
    ]
    # the hard-tier c3 conjugate of triangular_3
    maps.append(conjugate_by_linear(
        load_bundled_map("triangular_3.map").to_poly_map(),
        [[1, 0, 1], [1, 1, 0], [0, 0, 1]],
    ))
    for F in maps:
        for i in range(1, F.n + 1):
            h = minimal_poly_of_coordinate(F, i)
            assert squarefree_part(h) == h


def test_minimal_poly_detects_non_dominant():
    # constant first coordinate: x1 is algebraic, x2 nowhere constrained
    F = PolyMap([P("x", V), P("x", V)])
    with pytest.raises(NotDominantError):
        minimal_poly_of_coordinate(F, 2)


def test_generic_fiber_degree_examples():
    assert generic_fiber_degree(PolyMap([P("x^2", V), P("y", V)]), [4, 1]) == 2
    assert generic_fiber_degree(PolyMap([P("x", V), P("y", V)]), [3, 5]) == 1
    assert generic_fiber_degree(PolyMap([P("x", V), P("x*y", V)]), [1, 1]) == 1


def test_generic_fiber_degree_degenerate_sample():
    with pytest.raises(NotZeroDimensionalError):
        generic_fiber_degree(PolyMap([P("x", V), P("x*y", V)]), [0, 0])


def test_budget_exceeded_is_clean(monkeypatch):
    import kellerlab.elim

    I = Ideal((P("x^2 - y", V), P("y^2 - x", V)))
    monkeypatch.setattr(kellerlab.elim, "MAX_BASIS", 2)
    with pytest.raises(BudgetExceededError, match="basis size exceeds budget 2"):
        groebner(I, TermOrder.lex(V))


def test_resultant_examples():
    T1 = ("t",)
    assert resultant(P("t - 2", T1), P("t - 3", T1), "t").constant_value() == -1
    assert resultant(P("t^2 - 1", T1), P("t - 1", T1), "t").is_zero()
    TA = ("t", "a", "b")
    assert resultant(P("t - a", TA), P("t - b", TA), "t") == P("a - b", TA)


def test_resultant_formal_degree_and_errors():
    T1 = ("t",)
    # a constant has t-degree 0: against degree 2 it gives c^2
    c = P("5", T1)
    r = resultant(c, P("t^2 - 1", T1), "t")
    assert r.constant_value() == 25
    with pytest.raises(ValueError):  # both t-degrees 0
        resultant(P("1", T1), P("2", T1), "t")
    with pytest.raises(ValueError):  # unknown variable
        resultant(P("t", T1), P("t + 1", T1), "s")


def test_resultant_multiplicativity():
    rng = random.Random(111)
    T1 = ("t",)
    t = Polynomial.variable(T1, "t")

    def from_roots(roots, lead):
        p = Polynomial.constant(T1, lead)
        for r in roots:
            p = p * (t - r)
        return p

    for _ in range(25):
        p = from_roots([rng.randint(-4, 4) for _ in range(rng.randint(1, 2))],
                       rng.randint(1, 3))
        q = from_roots([rng.randint(-4, 4) for _ in range(rng.randint(1, 2))],
                       rng.randint(1, 3))
        r = from_roots([rng.randint(-4, 4) for _ in range(rng.randint(1, 2))],
                       rng.randint(1, 3))
        lhs = resultant(p * q, r, "t")
        rhs = resultant(p, r, "t") * resultant(q, r, "t")
        assert lhs == rhs


def test_resultant_zero_iff_shared_root():
    rng = random.Random(222)
    T1 = ("t",)
    t = Polynomial.variable(T1, "t")
    for _ in range(40):
        roots_p = {rng.randint(-3, 3) for _ in range(rng.randint(1, 3))}
        roots_q = {rng.randint(-3, 3) for _ in range(rng.randint(1, 3))}
        p = Polynomial.one(T1)
        for r in roots_p:
            p = p * (t - r)
        q = Polynomial.one(T1)
        for r in roots_q:
            q = q * (t - r)
        res = resultant(p, q, "t")
        assert res.is_zero() == bool(roots_p & roots_q)


def test_resultant_root_product_oracle():
    # Res_t(p, q) = lc(p)^deg(q) * prod q(alpha) over the roots alpha of p
    rng = random.Random(333)
    T1 = ("t",)
    t = Polynomial.variable(T1, "t")
    for _ in range(25):
        roots = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        lead = rng.choice([1, 2, 3])
        p = Polynomial.constant(T1, lead)
        for r in roots:
            p = p * (t - r)
        q = random_polynomial(rng, T1, max_degree=3, max_terms=3, allow_zero=False)
        dq = q.total_degree()
        if dq < 1:
            continue
        expected = Fraction(lead) ** dq
        for r in roots:
            expected *= q.evaluate([r])
        assert resultant(p, q, "t").constant_value() == expected


TAB = ("t", "a", "b")


def _random_in_t(rng, degree, lead_constant=False):
    """Random polynomial of t-degree exactly `degree` over Q[a, b] with
    rational coefficients; its leading coefficient is a nonzero constant
    when `lead_constant`, otherwise a non-constant polynomial in a, b."""

    def coefficient(allow_zero=True):
        c = random_polynomial(rng, TAB[1:], max_degree=2, max_terms=2, coeff_bound=4,
                              allow_zero=allow_zero)
        return with_variables(map_coefficients(c, lambda x: x / rng.choice((1, 2, 3))), TAB)

    lead = Polynomial.constant(TAB, rng.choice((1, -2, Fraction(3, 2))))
    while not lead_constant and lead.is_constant():
        lead = coefficient(allow_zero=False)
    t = Polynomial.variable(TAB, "t")
    p = lead * t**degree
    for k in range(degree):
        p = p + coefficient() * t**k
    return p


def _check_against_sylvester(p, q):
    m, n = max(p.degree_in("t"), 0), max(q.degree_in("t"), 0)
    assert resultant(p, q, "t") == reference_resultant(p, q, "t", m, n)


def test_resultant_matches_sylvester_on_random_inputs():
    # rational coefficients and non-constant leading coefficients in Q[a, b][t],
    # every pair of t-degrees up to 4 including both parities and m < n
    rng = random.Random(4401)
    for dp in range(1, 5):
        for dq in range(1, 5):
            for _ in range(3):
                p = _random_in_t(rng, dp, lead_constant=rng.random() < 0.25)
                q = _random_in_t(rng, dq, lead_constant=rng.random() < 0.25)
                _check_against_sylvester(p, q)


def test_resultant_abnormal_remainder_sequence():
    # p = (t + a) q + r with deg r <= deg q - 2: the second remainder drops
    # the degree by delta >= 2, where the subresultant scale h is not lc
    rng = random.Random(4402)
    t = Polynomial.variable(TAB, "t")
    for dq, dr in ((3, 1), (3, 0), (4, 2), (4, 1), (4, 0)):
        for _ in range(2):
            q = _random_in_t(rng, dq)
            r = _random_in_t(rng, dr)
            p = (t + P("a", TAB)) * q + r
            assert p.degree_in("t") == dq + 1
            _check_against_sylvester(p, q)
            _check_against_sylvester(q, p)
            if dq == 3:  # a common factor: the sequence ends in zero
                _check_against_sylvester(p * (t - 1), q * (t - 1))


def test_resultant_zero_and_constant_operands():
    rng = random.Random(4403)
    zero = Polynomial.zero(TAB)
    c = P("2*a", TAB) - Fraction(1, 3) * P("b", TAB)
    for _ in range(4):
        q = _random_in_t(rng, rng.randint(1, 3))
        n = q.degree_in("t")
        # the zero polynomial and a constant both have t-degree 0
        for p in (zero, c):
            _check_against_sylvester(p, q)
            _check_against_sylvester(q, p)
        assert resultant(c, q, "t") == c**n
        assert resultant(q, c, "t") == c**n
        assert resultant(zero, q, "t").is_zero()
    for p, q in ((zero, zero), (zero, c), (c, c)):
        with pytest.raises(ValueError):
            resultant(p, q, "t")


# ---- the packed subresultant PRS behind resultant and the gcd ----


def _with_denominators(rng, p):
    """p with every coefficient divided by one of 7, 11, 13 and 14."""
    scaled = map_coefficients(p, lambda c: c / rng.choice((7, 11, 13, 14)))
    assert not scaled.is_integral()
    return scaled


def test_packed_prs_clears_denominators_on_both_sides():
    # Res(P/d_p, Q/d_q) = d_p^(-n) d_q^(-m) Res(P, Q): resultant rescales
    # once, and the PRS runs on the integer numerators
    rng = random.Random(4404)
    for dp in range(1, 5):
        for dq in range(1, 5):
            p = _with_denominators(rng, _random_in_t(rng, dp))
            q = _with_denominators(rng, _random_in_t(rng, dq))
            _check_against_sylvester(p, q)


def test_packed_prs_t_degree_zero_operands():
    rng = random.Random(4405)
    c = P("1/2*a - 3/5*b", TAB)
    for dq in (1, 2, 3):
        q = _with_denominators(rng, _random_in_t(rng, dq))
        for p in (c, P("-2/7", TAB), c * c):
            _check_against_sylvester(p, q)
            _check_against_sylvester(q, p)
    # t-degree 1 against t-degree 1: the first remainder has t-degree 0
    _check_against_sylvester(P("1/2*a*t - b", TAB), P("3*t + a*b", TAB))
    # the PRS ring has no variable besides t
    T1 = ("t",)
    assert resultant(P("1/2*t^2 - 1/3", T1), P("2/3", T1), "t").constant_value() == Fraction(4, 9)
    p, q = P("1/2*t^3 - t + 1/3", T1), P("5*t^2 - 1/4", T1)
    assert resultant(p, q, "t") == reference_resultant(p, q, "t", 3, 2)


def test_packed_prs_abnormal_sequence():
    # p = (t + a) q + r with deg r = deg q - 2: the member after q has
    # t-degree deg q - 2, so the next step has delta = 2 and h = g^2 / h
    rng = random.Random(4406)
    t = Polynomial.variable(TAB, "t")
    for dq in (3, 4):
        for _ in range(3):
            q = map_coefficients(_random_in_t(rng, dq), lambda c: c * 30)
            r = map_coefficients(_random_in_t(rng, dq - 2), lambda c: c * 30)
            p = (t + P("a", TAB)) * q + r
            assert p.is_integral() and q.is_integral()
            a, b, *_, layout = _prs(p, q, 0)
            a, b = (_from_powers(f, TAB, 0, layout) for f in (a, b))
            assert a.degree_in("t") <= dq - 2 and b.degree_in("t") < 1
            _check_against_sylvester(p, q)
            _check_against_sylvester(_with_denominators(rng, q), _with_denominators(rng, p))


def test_packed_prs_common_factor_gives_zero():
    rng = random.Random(4407)
    common = P("a*t^2 - 1/2*t + b", TAB)
    for dp, dq in ((1, 1), (2, 1), (3, 2), (2, 3)):
        p = _with_denominators(rng, _random_in_t(rng, dp)) * common
        q = _random_in_t(rng, dq) * common
        assert resultant(p, q, "t").is_zero()
        _check_against_sylvester(p, q)
        # the PRS of the numerators ends in 0, and its last member is a
        # multiple of the factor
        first, second = (p, q) if dp >= dq else (q, p)
        last, zero, _, _, den_1, den_2, layout = _prs(first, second, 0)
        assert (den_1, den_2) == tuple(
            lcm(*(c.denominator for c in f.terms.values())) for f in (first, second))
        last = _from_powers(last, TAB, 0, layout)
        assert zero == [] and last.degree_in("t") >= 2
        assert resultant(last, common, "t").is_zero()


def test_resultant_of_dense_operands_fits_the_prs_layout():
    # b^da / h^(da - 1) is taken in the PRS's own packed layout: at t-degrees
    # (5, 4) with dense coefficients of total degree 3 in a, b, b^da reaches
    # total degree 4 D for D = 4 * 3 + 5 * 3, inside the fields' 6 D
    rng = random.Random(4408)
    monomials = [(i, j) for i in range(4) for j in range(4 - i)]
    t = Polynomial.variable(TAB, "t")

    def dense(degree):
        f = Polynomial.zero(TAB)
        for k in range(degree + 1):
            coeff = {(0, i, j): Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                         rng.choice((1, 1, 2, 3)))
                     for i, j in monomials}
            f = f + Polynomial(TAB, coeff) * t**k
        return f

    p, q = dense(5), dense(4)
    expected = reference_resultant(p, q, "t", 5, 4)
    assert expected.total_degree() == 27
    assert resultant(p, q, "t") == expected
    assert resultant(q, p, "t") == expected  # (-1)^(5 * 4) = 1


HARD_XP4Y = """name: hard-xp4y-++
base: x_p4y
matrix: 2,1;1,1
vars: x y
F1 = 2*x - 2*y - 6*x^2 + 18*x*y - 12*y^2 + 5*x^3 - 20*x^2*y + 25*x*y^2 - 10*y^3 + 2*x^4 - 10*x^3*y + 18*x^2*y^2 - 14*x*y^3 + 4*y^4 - x^5 + 6*x^4*y - 14*x^3*y^2 + 16*x^2*y^3 - 9*x*y^4 + 2*y^5
F2 = x - y - 6*x^2 + 18*x*y - 12*y^2 + 5*x^3 - 20*x^2*y + 25*x*y^2 - 10*y^3 + 2*x^4 - 10*x^3*y + 18*x^2*y^2 - 14*x*y^3 + 4*y^4 - x^5 + 6*x^4*y - 14*x^3*y^2 + 16*x^2*y^3 - 9*x*y^4 + 2*y^5
"""


def test_poly_D_of_the_hard_tier_xp4y():
    # the benchmark's hard sigma job: D = (-1)^(d(d-1)/2) Res_t(p, dp/dt) for
    # p = H(U + tV), here with d = 4 and the 7 x 7 Sylvester determinant
    F = parse_map_file(HARD_XP4Y).to_poly_map()
    H = bifurcation_data(F, compute_fiber_degree=False).H
    assert H.total_degree() == 4
    ring = ("U1", "U2", "V1", "V2", "t")
    line = dict(zip(H.variables, (P("U1 + t*V1", ring), P("U2 + t*V2", ring))))
    p = substitute(H, line, ring)
    expected = reference_resultant(p, p.partial_derivative("t"), "t", 4, 3)
    assert with_variables(poly_D(H), ring) == expected  # (-1)^6 = 1


def test_packed_prs_guards_its_fields():
    # fields that hold degree 7: a degree-8 product term sets a guard bit
    layout = _grlex_layout(1, 7)
    x4 = {layout((4,)): 1}
    assert _times({layout((3,)): 2}, x4, layout) == {layout((7,)): 2}
    with pytest.raises(InternalCheckError, match="overflows"):
        _times(x4, x4, layout)


def test_discriminant_examples():
    TB = ("t", "b", "c")
    assert discriminant(P("t^2 + b*t + c", TB), "t") == P("b^2 - 4*c", TB)
    TC = ("t", "a", "b", "c")
    assert discriminant(P("a*t^2 + b*t + c", TC), "t") == P("b^2 - 4*a*c", TC)
    assert discriminant(P("t - 5", ("t",)), "t").constant_value() == 1
    # depressed cubic: disc(t^3 + p t + q) = -4 p^3 - 27 q^2
    TP = ("t", "p", "q")
    assert discriminant(P("t^3 + p*t + q", TP), "t") == P(
        "-4*p^3 - 27*q^2", TP
    )
    for p in (P("b", TB), Polynomial.zero(TB)):  # t-degree below 1
        with pytest.raises(ValueError):
            discriminant(p, "t")


def test_graph_ideal_names_avoid_collision():
    W = ("x", "Y1")
    F = PolyMap([P("x", W), P("Y1", W)])
    I, ys = graph_ideal(F)
    assert len(set(ys)) == 2
    assert not (set(ys) & set(W))
    h = minimal_poly_of_coordinate(F, 2)
    assert h.variables == ("Y1", "Y2", "T")


# ---- the eliminations read the packed basis: against the Fraction path ----


def _shown(result):
    """A Polynomial as (variables, terms in their order), also each one of
    an Ideal or a PolyMap; any other result as it is."""
    if isinstance(result, Polynomial):
        return result.variables, list(result.terms.items())
    if isinstance(result, Ideal):
        return [_shown(g) for g in result.generators]
    if isinstance(result, PolyMap):
        return [_shown(c) for c in result.components]
    return result


def _outcome(fn, *args):
    """_shown(fn(*args)), or the type and text of the error it raises."""
    try:
        return _shown(fn(*args))
    except (BudgetExceededError, InternalCheckError, NotDominantError,
            NotZeroDimensionalError) as e:
        return type(e), str(e)


def _assert_eliminations_match(F, sample):
    I, ys = graph_ideal(F)
    J, ys_ref = reference_graph_ideal(F)
    assert ys == ys_ref and _shown(I) == _shown(J)
    for i in range(1, F.n + 1):
        assert _outcome(minimal_poly_of_coordinate, F, i) == _outcome(
            reference_minimal_poly, F, i)
    keep = ys + [F.variables[-1]]
    assert _outcome(eliminate, I, keep) == _outcome(reference_eliminate, I, keep)
    assert _outcome(inverse_map, F) == _outcome(reference_inverse_map, F)
    assert _outcome(generic_fiber_degree, F, sample) == _outcome(
        reference_generic_fiber_degree, F, sample)


@pytest.mark.parametrize("name", ["c3", "s3", "n4a", "n4b", "xy", "xxm1y", "xp3y", "xp4y"])
def test_packed_eliminations_match_the_fraction_path_on_the_hard_tier(name):
    hardgen = load_hardgen()
    rng = random.Random(name)
    for signs in hardgen.members(name):
        F, _ = hardgen.build_map(name, signs)
        _assert_eliminations_match(F, [rng.randint(-9, 9) for _ in range(F.n)])


def test_packed_eliminations_match_the_fraction_path_on_n4s_and_the_bundled_maps():
    maps = [parse_map_file(N4_STRETCH).to_poly_map()]  # n4s at seed 1
    maps += [load_bundled_map(name).to_poly_map() for name in bundled_map_names()
             if name != "triangular_6.map"]  # below: its h_1 exceeds the budget
    rng = random.Random(2121)
    for F in maps:
        _assert_eliminations_match(F, [rng.randint(-9, 9) for _ in range(F.n)])


def test_packed_eliminations_fail_as_the_fraction_path_does():
    t6 = load_bundled_map("triangular_6.map").to_poly_map()
    budget = _outcome(minimal_poly_of_coordinate, t6, 1)
    assert budget == (BudgetExceededError,
                      "basis element degree 81 exceeds budget 80; input beyond desk scale")
    assert budget == _outcome(reference_minimal_poly, t6, 1)
    for F in (PolyMap([P("x", V), P("x", V)]), PolyMap([P("x^2", V), P("x^2", V)])):
        for i in (1, 2):
            got = _outcome(minimal_poly_of_coordinate, F, i)
            assert got[0] is NotDominantError
            assert got == _outcome(reference_minimal_poly, F, i)
    for F in (PolyMap([P("x^2", V), P("y", V)]), PolyMap([P("x", V), P("x*y", V)]),
              PolyMap([P("x + y^2", V), P("x", V)])):
        assert inverse_map(F) is None and reference_inverse_map(F) is None


def test_eliminations_leave_the_integer_kernel_once_per_answer(monkeypatch):
    # `_from_packed` builds a Polynomial from packed integers: h_4 and each
    # G_i are built once, and the fiber count reads the leads only
    calls = []
    inner = polyring._from_packed

    def counting(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(polyring, "_from_packed", counting)
    monkeypatch.setattr(elim, "_from_packed", counting)
    F = parse_map_file(N4_STRETCH).to_poly_map()
    assert len(minimal_poly_of_coordinate(F, 4).terms) == 2104
    assert len(calls) <= 1
    calls.clear()
    assert len(inverse_map(F).components) == 4
    assert len(calls) <= 4
    calls.clear()
    assert generic_fiber_degree(F, [1, 2, 3, 4]) == 1
    assert calls == []


def _fiber_count_maps():
    # every bundled map but triangular_6, and every member of every
    # hard-tier class
    for name in bundled_map_names():
        if name != "triangular_6.map":
            yield name, load_bundled_map(name).to_poly_map()
    hardgen = load_hardgen()
    for name in hardgen.CLASSES:
        for signs in hardgen.members(name):
            yield f"{name} {hardgen.sign_tag(signs)}", hardgen.build_map(name, signs)[0]


def test_fiber_count_of_the_minimal_basis_is_that_of_the_reduced_basis():
    # generic_fiber_degree reads the leads of the minimal basis, which are
    # the reduced basis's, so it counts what groebner's basis counts
    rng = random.Random(3535)
    for tag, F in _fiber_count_maps():
        for _ in range(2):
            sample = [rng.randint(-9, 9) for _ in range(F.n)]
            assert _outcome(generic_fiber_degree, F, sample) == _outcome(
                reference_generic_fiber_degree, F, sample), (tag, sample)


def test_fiber_count_runs_no_autoreduction(monkeypatch):
    # autoreduction runs one _normal_form per minimal element on top of
    # Buchberger's; the fiber count runs Buchberger's alone
    calls = []
    inner = elim._normal_form

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(elim, "_normal_form", counting)
    F = load_hardgen().build_map("c3", (1, 1, 1))[0]
    sample = [2, -1, 3]
    layout = TermOrder.grlex(F.variables).key_function(F.variables)
    gens = elim._packed_generators([f - s for f, s in zip(F.components, sample)], layout)
    minimal = elim._minimal_basis(gens, layout, elim.MAX_DEGREE)
    buchberger = len(calls)
    calls.clear()
    elim._reduced_basis(gens, layout, elim.MAX_DEGREE)
    assert buchberger > 0 and len(minimal) > 1
    assert len(calls) == buchberger + len(minimal)
    calls.clear()
    assert generic_fiber_degree(F, sample) == 1
    assert len(calls) == buchberger


def test_block_order_lead_filter_matches_the_support_filter():
    # under a block order an element whose lead is free of the first block
    # is free of it in every term; eliminate keeps exactly the elements the
    # support filter keeps
    rng = random.Random(1515)
    for trial in range(42):
        W = tuple(rng.sample(("x", "y", "z"), 3))
        gens = _criteria_generators(rng, W, ("binomial", "coprime")[trial % 2])
        keep = [v for v in W if rng.random() < 0.5]
        gone = [v for v in W if v not in keep]
        layout = TermOrder.block(gone, keep).key_function(W)
        gone_part = layout.unpacker([W.index(v) for v in gone])
        basis = elim._reduced_basis(elim._packed_generators(gens, layout), layout,
                                    elim.MAX_DEGREE)
        for g in basis:
            free = [not any(gone_part(m)) for m in g]
            assert free[0] == all(free)
        I = Ideal(tuple(gens))
        assert _outcome(eliminate, I, keep) == _outcome(reference_eliminate, I, keep)
