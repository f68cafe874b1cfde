import random
from fractions import Fraction

import pytest

import kellerlab.fibers
import kellerlab.keller
from kellerlab.bundled import load_bundled_map
from kellerlab.errors import BudgetExceededError, InternalCheckError, NotZeroDimensionalError
from kellerlab.expr_io import parse_polynomial as P
from kellerlab.fibers import (
    C2Status,
    ComponentData,
    Line,
    _on_slice,
    _radical_lcm,
    _sample_fiber_degree,
    _slice_resultant,
    assert_c2,
    assertion3_feasible,
    bifurcation_data,
    hurwitz_genus,
    poly_D,
    poly_R,
    sigma,
    sigma_with_route,
)
from kellerlab.polyring import (
    Polynomial,
    PolyMap,
    coefficients_in,
    exact_div,
    rename_variables,
    substitute,
    with_variables,
)
from kellerlab.transforms import conjugate_by_linear, extend_variables, scale_conjugate

from _support import (
    bundled_map_names,
    discriminant,
    is_scalar_multiple,
    leading_coefficient_lists,
    load_hardgen,
    map_coefficients,
    random_polynomial,
    random_rational,
    reference_bifurcation_H,
    reference_resultant,
    reference_squarefree_part,
    random_sl2,
    reference_poly_D,
    reference_poly_R,
    univariate_coeffs,
    univariate_gcd_degree,
)

V = ("x", "y")
Y2 = ("Y1", "Y2")
F_XY = PolyMap([P("x", V), P("x*y", V)])
F_TRI = PolyMap([P("x + y^3", V), P("y", V)])
F_QUAD = PolyMap([P("x", V), P("x*(x - 1)*y", V)])


def test_bifurcation_data_xy():
    data = bifurcation_data(F_XY)
    assert data.H == P("Y1", Y2)
    assert data.cone_form == P("Y1", Y2)
    assert data.a[1] == P("Y1", Y2)
    assert data.fiber_degree == 1
    assert not data.empty_bifurcation_set


def test_bifurcation_data_invertible_is_empty():
    data = bifurcation_data(F_TRI)
    assert data.H == Polynomial.one(Y2)
    assert data.cone_form is None
    assert data.empty_bifurcation_set
    assert data.fiber_degree == 1


def test_bifurcation_data_two_lines():
    data = bifurcation_data(F_QUAD)
    assert is_scalar_multiple(data.H, P("Y1^2 - Y1", Y2))
    assert data.cone_form == P("Y1^2", Y2)


def test_bifurcation_defining_identity_and_rationality():
    for F in (F_XY, F_TRI, F_QUAD):
        data = bifurcation_data(F, compute_fiber_degree=False)
        for i, h in enumerate(data.h, start=1):
            bindings = {f"Y{k}": c for k, c in enumerate(F.components, start=1)}
            bindings["T"] = Polynomial.variable(V, V[i - 1])
            assert substitute(h, bindings, V).is_zero()
            assert all(isinstance(c, Fraction) for c in h.terms.values())
        # a_i is the coefficient of T^deg in h_i
        for h, a in zip(data.h, data.a):
            top = h.degree_in("T")
            lead = {m: c for m, c in h.terms.items() if m[-1] == top}
            got = Polynomial(("Y1", "Y2", "T"), {m[:-1] + (0,): c for m, c in lead.items()})
            assert with_variables(got, Y2) == a


def test_poly_D_degree_one():
    D = poly_D(P("Y1", ("Y1",)))
    assert D == P("V1", ("U1", "V1"))


def test_poly_D_two_lines_is_v1_fourth():
    D = poly_D(P("Y1^2 - Y1", Y2))
    UV = ("U1", "U2", "V1", "V2")
    assert is_scalar_multiple(D, P("V1^4", UV))


def test_poly_D_hyperbola_sample():
    D = poly_D(P("Y1*Y2 - 1", Y2))
    # the line u = 0, v = (1, 1) meets the hyperbola transversally
    assert D.evaluate([0, 0, 1, 1]) != 0


def _cone_times_discriminant(H):
    """coneform(V) * Disc_t(H(U + tV)) over (U, V), built term by term: the
    leading form renamed to V, times `discriminant` of H(U + tV)."""
    n = len(H.variables)
    us = tuple(f"U{k}" for k in range(1, n + 1))
    vs = tuple(f"V{k}" for k in range(1, n + 1))
    ring = us + vs + ("t",)
    line = {x: P(f"{u} + t*{v}", ring) for x, u, v in zip(H.variables, us, vs)}
    disc = discriminant(substitute(H, line, ring), "t")
    cone = rename_variables(H.leading_form(), dict(zip(H.variables, vs)))
    return with_variables(with_variables(cone, ring) * disc, us + vs)


def test_poly_D_is_the_cone_factor_times_the_discriminant():
    rng = random.Random(1919)
    for trial in range(60):
        ring = ("Y1", "Y2", "Y3")[: 2 + trial % 2]
        d = 1 + trial % 4
        H = random_polynomial(rng, ring, max_degree=d, max_terms=4, allow_zero=False)
        H = map_coefficients(H, lambda c: c / rng.choice((1, 2, 3)))
        if H.is_constant():
            continue
        assert poly_D(H) == _cone_times_discriminant(H)


def test_poly_D_hard_tier_matches_sylvester():
    # the benchmark's deg H = 2, 3, 4 sigma inputs: x, x p(x) y conjugated by
    # D A, A = ((2, 1), (1, 1)), D = diag(1, +-1).  The t-leading coefficient
    # of H(U + tV) is coneform(V), so its t-degree is the formal degree d =
    # deg H, and D = coneform(V) (-1)^(d(d-1)/2) Res_t(H(U + tV), d/dt) / lc_t
    # with the resultant taken as the Sylvester determinant at (d, d - 1)
    ring = ("U1", "U2", "V1", "V2", "t")
    line = (P("U1 + t*V1", ring), P("U2 + t*V2", ring))
    direction = (P("V1", ring), P("V2", ring))
    for d, p in ((2, "(x - 1)"), (3, "(x - 1)*(x + 2)"), (4, "(x - 1)*(x + 2)*(x - 3)")):
        base = PolyMap([P("x", V), P(f"x*{p}*y", V)])
        for sign in (1, -1):
            F = conjugate_by_linear(base, ((2, 1), (sign, sign)))
            H = bifurcation_data(F, compute_fiber_degree=False).H
            assert H.total_degree() == d
            restricted = substitute(H, dict(zip(H.variables, line)), ring)
            cone = substitute(H.leading_form(), dict(zip(H.variables, direction)), ring)
            lead = coefficients_in(restricted, "t")[d]
            assert lead == cone
            res = reference_resultant(restricted, restricted.partial_derivative("t"),
                                      "t", d, d - 1)
            expected = cone * exact_div(res, lead) * (-1) ** (d * (d - 1) // 2)
            assert with_variables(poly_D(H), ring) == expected
            assert poly_D(H) == _cone_times_discriminant(H)


def _rational_polynomial(rng, ring, d, max_terms=4):
    """A seeded polynomial over `ring` of total degree d with rational
    coefficients."""
    while True:
        p = random_polynomial(rng, ring, max_degree=d, max_terms=max_terms, allow_zero=False)
        if p.total_degree() == d:
            return map_coefficients(p, lambda c: c / rng.choice((1, 2, 3, 5)))


def _ring(n):
    return tuple(f"Y{k}" for k in range(1, n + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_poly_D_matches_the_full_ring_resultant(n):
    rng = random.Random(3030 + n)
    for d in (1, 2, 3, 4):
        for max_terms in (3, 2 + 2 * d):
            H = _rational_polynomial(rng, _ring(n), d, max_terms)
            assert poly_D(H) == reference_poly_D(H), (n, d, H)


def test_poly_D_of_a_non_squarefree_H_is_zero():
    for ring in (("Y1",), Y2, _ring(3)):
        f = P(" + ".join(ring) + " - 1", ring)
        g = P(f"2*{ring[0]} - 3", ring)
        for H in (f * f, f * f * g, g * g * g * f):
            assert poly_D(H).is_zero()
            assert reference_poly_D(H).is_zero()


def test_poly_R_matches_the_full_ring_resultants():
    rng = random.Random(3131)
    for n in (1, 2, 3):
        for _ in range(4):
            components = [
                ComponentData(
                    _rational_polynomial(rng, _ring(n), rng.randint(1, 3)),
                    tuple(_rational_polynomial(rng, _ring(n), rng.randint(0, 2))
                          for _ in range(rng.randint(1, 2))),
                )
                for _ in range(2)
            ]
            assert poly_R(components) == reference_poly_R(components), components


@pytest.mark.parametrize("n", [1, 2, 3])
def test_poly_D_is_invariant_along_the_line_and_homogeneous_in_the_direction(n):
    # D(U + sV, V) = D(U, V) and D(U, lambda V) = lambda^(d^2) D(U, V), with s
    # and lambda fresh variables
    rng = random.Random(3232 + n)
    us = tuple(f"U{k}" for k in range(1, n + 1))
    vs = tuple(f"V{k}" for k in range(1, n + 1))
    ring = us + vs + ("s", "lam")
    s, lam = P("s", ring), P("lam", ring)
    for d in (1, 2, 3):
        H = _rational_polynomial(rng, _ring(n), d)
        D = with_variables(poly_D(H), ring)
        same = {x: P(x, ring) for x in us + vs}
        shifted = dict(same, **{u: P(u, ring) + s * P(v, ring) for u, v in zip(us, vs)})
        scaled = dict(same, **{v: lam * P(v, ring) for v in vs})
        assert substitute(D, shifted, ring) == D
        assert substitute(D, scaled, ring) == lam ** (d * d) * D


def test_a_wrong_homogeneity_degree_is_an_internal_check_error():
    # Res_t(Y1, Y2) on the line is U2 V1 - U1 V2, of degree k = 1 in V;
    # rebuilt with k = 0, its U1 V2 term would need V1^-1
    h, g = (_on_slice(P(y, Y2)) for y in Y2)
    assert _slice_resultant(h, g, 1, 2) == P("U2*V1 - U1*V2", ("U1", "U2", "V1", "V2"))
    with pytest.raises(InternalCheckError, match="negative power of V1"):
        _slice_resultant(h, g, 0, 2)


def test_poly_R_examples():
    assert poly_R([]).constant_value() == 1
    comp = ComponentData(P("Y1", Y2), (P("Y2", Y2),))
    R = poly_R([comp])
    UV = ("U1", "U2", "V1", "V2")
    assert is_scalar_multiple(R, P("U2*V1 - U1*V2", UV))
    assert R.evaluate([1, 0, 0, 1]) in (1, -1)


def test_poly_R_refuses_components_over_different_rings(monkeypatch):
    # poly_R binds variables by position, so components over different
    # rings have no common line: refused in either order, before any resultant
    def no_resultant(*args):
        raise AssertionError("a resultant ran before the ring check")

    monkeypatch.setattr(kellerlab.fibers, "resultant", no_resultant)
    c1 = ComponentData(P("Y1 + Y2", Y2), (P("Y2", Y2),))
    c2 = ComponentData(P("Y1", ("Y1",)), (P("Y1 - 1", ("Y1",)),))
    for components in ([c1, c2], [c2, c1]):
        with pytest.raises(ValueError, match="component polynomials over different variables"):
            poly_R(components)


def test_sigma_examples():
    UV = ("U1", "U2", "V1", "V2")
    assert sigma(F_TRI) == Polynomial.one(UV)
    assert sigma(F_XY) == P("V1", UV)


def test_sigma_with_components_checks_divisibility():
    bad = ComponentData(P("Y2", Y2), (P("Y1", Y2),))
    with pytest.raises(ValueError, match="divide"):
        sigma(F_XY, components=[bad])
    good = ComponentData(P("Y1", Y2), (P("Y2", Y2),))
    s = sigma(F_XY, components=[good])
    UV = ("U1", "U2", "V1", "V2")
    assert is_scalar_multiple(s, P("U2*V1^2 - U1*V1*V2", UV))


def test_sigma_binds_component_variables_by_name():
    # the same component written over (Y1, Y2) and over (Y2, Y1) is one
    # component, so it gives one sigma
    UV = ("U1", "U2", "V1", "V2")
    F = load_bundled_map("bif_x_xy.map").to_poly_map()
    expected = P("V1^2 - U1*V1*V2 + U2*V1^2", UV)
    for ring in (Y2, ("Y2", "Y1")):
        comp = ComponentData(P("Y1", ring), (P("Y2 + 1", ring),))
        s = sigma(F, components=[comp])
        assert s.variables == UV
        assert s == expected, ring
        assert s.evaluate([0, 0, 1, 0]) == 1


# the hard tier's automorphism classes (base map, conjugating matrix A),
# copied from the benchmark's generator
HARD_AUTOMORPHISMS = {
    "c3": ("triangular_3", ((1, 0, 1), (1, 1, 0), (0, 0, 1))),
    "s3": ("triangular_3", ((1, 0, 1), (0, 1, 0), (0, 0, 1))),
    "n4a": ("triangular_4", ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1))),
    "n4b": ("triangular_4", ((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    "n4s": ("triangular_4", ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
}


def test_squarefree_part_of_the_hard_tier_sigma_products():
    # the hard tier's conjugated non-Keller exemplars, H of degree 1 to 4:
    # x, x*p(x)*y conjugated by A_2 = [[2, 1], [1, 1]]
    for p in ("1", "(x - 1)", "(x - 1)*(x + 2)", "(x - 1)*(x + 2)*(x - 3)"):
        F = conjugate_by_linear(PolyMap([P("x", V), P(f"x*{p}*y", V)]), ((2, 1), (1, 1)))
        data = bifurcation_data(F, compute_fiber_degree=False)
        product = data.a[0]
        for a in data.a[1:]:
            product = product * a
        assert data.H == reference_squarefree_part(product)
        assert data.H.total_degree() == p.count("x") + 1


def test_radical_lcm_is_the_squarefree_part_of_the_product():
    for shape, aas, _ in leading_coefficient_lists():
        ring = aas[0].variables
        assert _radical_lcm(aas, ring) == reference_bifurcation_H(aas, ring), shape
    assert _radical_lcm([P("3", Y2), P("-1/2", Y2)], Y2) == Polynomial.one(Y2)
    assert _radical_lcm([], Y2) == Polynomial.one(Y2)


def test_radical_lcm_takes_one_squarefree_part_per_distinct_a(monkeypatch):
    # the radical of each distinct a_i, never of a product of them
    degrees = []
    inner = kellerlab.fibers.squarefree_part

    def counting(p):
        degrees.append(p.total_degree())
        return inner(p)

    monkeypatch.setattr(kellerlab.fibers, "squarefree_part", counting)
    for shape, aas, distinct in leading_coefficient_lists():
        degrees.clear()
        _radical_lcm(aas, aas[0].variables)
        assert len(degrees) == distinct, shape
        assert max(degrees) <= max(a.total_degree() for a in aas), shape


def _bifurcation_maps():
    # triangular_6's eliminations exceed the Groebner degree budget
    for name in bundled_map_names():
        if name != "triangular_6.map":
            yield name, load_bundled_map(name).to_poly_map()
    hardgen = load_hardgen()
    for name in ("xy", "xxm1y", "xp3y", "xp4y"):
        for signs in hardgen.members(name):
            yield f"{name} {hardgen.sign_tag(signs)}", hardgen.build_map(name, signs)[0]


@pytest.mark.parametrize("tag, F", list(_bifurcation_maps()))
def test_bifurcation_H_is_the_squarefree_part_of_the_product(tag, F):
    data = bifurcation_data(F, compute_fiber_degree=False)
    H = reference_bifurcation_H(data.a, data.H.variables)
    assert data.H == H
    assert data.cone_form == (None if H.is_constant() else H.leading_form())


def _hard_automorphism(tag):
    base, A = HARD_AUTOMORPHISMS[tag]
    return conjugate_by_linear(load_bundled_map(base + ".map").to_poly_map(), A)


def _sigma_cases():
    # triangular_6's eliminations exceed the Groebner degree budget
    for name in bundled_map_names():
        if name != "triangular_6.map":
            yield name, load_bundled_map(name).to_poly_map()
    for tag in HARD_AUTOMORPHISMS:
        yield tag, _hard_automorphism(tag)


def _automorphisms():
    # every bundled map but the two bifurcation exemplars, and the hard tier
    for name in bundled_map_names():
        if not name.startswith("bif_"):
            yield name, load_bundled_map(name).to_poly_map()
    for tag in HARD_AUTOMORPHISMS:
        yield tag, _hard_automorphism(tag)


@pytest.mark.parametrize("name, F", list(_automorphisms()))
def test_polynomial_inverse_is_the_formal_inverse(name, F):
    # sigma's inverse route asks formal_inverse at its default cap d^(n-1),
    # the Bass-Connell-Wright bound, which every polynomial inverse meets
    inv = kellerlab.keller.formal_inverse(F)
    assert inv.map.max_degree() <= inv.degree_bound == kellerlab.keller.default_degree_cap(F)


@pytest.mark.parametrize("name, F", list(_sigma_cases()))
def test_sigma_by_inverse_matches_sigma_by_elimination(name, F):
    s, route = sigma_with_route(F)
    assert s == sigma(F, data=bifurcation_data(F, compute_fiber_degree=False))
    assert sigma(F) == s
    # every bundled map but the two bifurcation exemplars is an automorphism
    assert route == ("elimination" if name.startswith("bif_") else "inverse")


def _count_inverse_map(monkeypatch):
    calls = []
    inner = kellerlab.keller.inverse_map

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(kellerlab.keller, "inverse_map", counting)
    return calls


def test_sigma_skips_the_basis_without_a_unit_jacobian(monkeypatch):
    calls = _count_inverse_map(monkeypatch)
    UV = ("U1", "U2", "V1", "V2")
    # DF(0) is singular on (x, xy)
    F = load_bundled_map("bif_x_xy.map").to_poly_map()
    assert sigma_with_route(F) == (P("V1", UV), "elimination")
    # DF(0) is the identity on x -> x + x^3, but det DF = 1 + 3x^2; the map
    # is finite, so the eliminations find an empty bifurcation set
    F = PolyMap([P("x + x^3", ("x",))])
    assert sigma_with_route(F) == (Polynomial.one(("U1", "V1")), "elimination")
    assert calls == []
    # a Keller map reaches the basis once, and so does (2x, y), whose det DF
    # is the nonzero constant 2
    assert sigma_with_route(F_TRI)[1] == "inverse"
    assert sigma_with_route(PolyMap([P("2*x", V), P("y", V)]))[1] == "inverse"
    assert len(calls) == 2


def test_sigma_with_components_eliminates_on_an_automorphism():
    bad = ComponentData(P("Y1", Y2), (P("Y2", Y2),))
    with pytest.raises(ValueError, match="divide"):
        sigma(F_TRI, components=[bad])


def test_sigma_falls_back_when_the_inverse_basis_exceeds_its_budget(monkeypatch):
    def over_budget(F, max_degree):
        raise BudgetExceededError("basis size exceeds budget 0")

    F = _hard_automorphism("c3")
    expected = sigma(F, data=bifurcation_data(F, compute_fiber_degree=False))
    monkeypatch.setattr(kellerlab.keller, "inverse_map", over_budget)
    assert sigma_with_route(F) == (expected, "elimination")
    assert sigma_with_route(F_XY) == (P("V1", ("U1", "U2", "V1", "V2")), "elimination")


def test_assert_c2_examples():
    first, second = assert_c2(F_XY, (1, 0), (1, 0))
    assert first.ok is True
    assert second.ok is True
    bad_u, _ = assert_c2(F_XY, (0, 0), (1, 0))
    assert bad_u.ok is None
    _, bad_v = assert_c2(F_XY, (1, 0), (0, 1))
    assert bad_v.ok is None


def test_assert_c2_reads_an_automorphism_off_its_inverse(monkeypatch):
    # triangular_6's eliminations exceed the Groebner degree budget; its
    # certified inverse gives H = 1 and no cone, so both sides hold
    F6 = load_bundled_map("triangular_6.map").to_poly_map()
    ok = (C2Status(True, "sigma(u, V) is not identically zero"),
          C2Status(True, "sigma(U, v) is not identically zero"))
    assert assert_c2(F6, (1,) * 6, (1,) * 6) == ok
    # the other automorphisms: the statuses of the elimination route, with
    # the eliminations left out
    rng = random.Random(2424)
    cases = [(tag, _hard_automorphism(tag)) for tag in ("c3", "s3")]
    cases += [(name, load_bundled_map(name).to_poly_map())
              for name in ("triangular_2.map", "triangular_3.map")]
    expected = {}
    for tag, F in cases:
        u = [rng.randint(-3, 3) for _ in range(F.n)]
        v = [rng.randint(-3, 3) or 1 for _ in range(F.n)]
        data = bifurcation_data(F, compute_fiber_degree=False)
        expected[tag] = (u, v, assert_c2(F, u, v, data=data))
        assert expected[tag][2] == ok
    monkeypatch.setattr(kellerlab.fibers, "bifurcation_data", None)
    for tag, F in cases:
        u, v, statuses = expected[tag]
        assert assert_c2(F, u, v) == statuses


@pytest.mark.parametrize("F", [
    load_bundled_map("triangular_2.map").to_poly_map(),  # the inverse route
    PolyMap([P("x + x^3", ("x",))]),  # elimination, H = 1
    F_XY,  # elimination, with a cone
], ids=["triangular_2", "x+x^3", "x,xy"])
def test_assert_c2_rejects_a_zero_direction(F):
    # sigma(U, 0) is the constant sigma(U + t 0) and says nothing about lines
    u = (1,) * F.n
    with pytest.raises(ValueError, match="^direction must be nonzero$"):
        assert_c2(F, u, (0,) * F.n)
    with pytest.raises(ValueError, match=f"^point and direction must have {F.n} coordinates$"):
        assert_c2(F, u + (1,), (1,) * (F.n + 1))


def test_assert_c2_takes_one_route(monkeypatch):
    # one assert_c2 call: one inverse basis on an automorphism and no
    # elimination; one bifurcation_data on (x, xy), whose DF(0) is singular
    inverse_calls = _count_inverse_map(monkeypatch)
    data_calls = []
    inner = kellerlab.fibers.bifurcation_data

    def counting(*args, **kwargs):
        data_calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(kellerlab.fibers, "bifurcation_data", counting)
    first, second = assert_c2(_hard_automorphism("c3"), (1, 2, 3), (1, -1, 2))
    assert first.ok is second.ok is True
    assert (len(inverse_calls), len(data_calls)) == (1, 0)
    assert assert_c2(F_XY, (1, 0), (1, 1))[1].ok is True
    assert (len(inverse_calls), len(data_calls)) == (1, 1)


def test_assert_c2_fails_both_sides_when_sigma_vanishes():
    # H = Y1 on (x, xy); a component g = Y1 Y2 shares h_W = Y1, so every
    # line resultant of R vanishes, sigma = 0, and both preconditions hold
    comp = ComponentData(P("Y1", Y2), (P("Y1*Y2", Y2),))
    assert sigma(F_XY, components=[comp]).is_zero()
    first, second = assert_c2(F_XY, (1, 0), (1, 1), components=[comp])
    assert first == C2Status(False, "sigma(u, V) vanishes identically")
    assert second == C2Status(False, "sigma(U, v) vanishes identically")


def _counting_fiber_degree(monkeypatch, failures):
    """Samples passed to `generic_fiber_degree`, which raises
    NotZeroDimensionalError on the first `failures` of them."""
    samples = []
    inner = kellerlab.fibers.generic_fiber_degree

    def flaky(F, sample):
        samples.append(tuple(sample))
        if len(samples) <= failures:
            raise NotZeroDimensionalError("fiber ideal is not zero-dimensional")
        return inner(F, sample)

    monkeypatch.setattr(kellerlab.fibers, "generic_fiber_degree", flaky)
    return samples


def test_sample_fiber_degree_skips_points_on_H(monkeypatch):
    # the seeded stream's first point is (3, 7), which lies on Y1 - 3 = 0
    samples = _counting_fiber_degree(monkeypatch, 0)
    assert _sample_fiber_degree(F_TRI, Polynomial.one(Y2)) == 1
    assert samples == [(3, 7)]
    samples.clear()
    assert _sample_fiber_degree(F_TRI, P("Y1 - 3", Y2)) == 1
    assert len(samples) == 1 and samples[0][0] != 3


def test_sample_fiber_degree_retries_and_gives_up(monkeypatch):
    samples = _counting_fiber_degree(monkeypatch, 3)
    assert _sample_fiber_degree(F_TRI, Polynomial.one(Y2)) == 1
    assert len(samples) == 4 and len(set(samples)) > 1
    samples = _counting_fiber_degree(monkeypatch, float("inf"))
    with pytest.raises(NotZeroDimensionalError,
                       match="^could not find a sample with a zero-dimensional fiber$"):
        _sample_fiber_degree(F_TRI, Polynomial.one(Y2))
    assert len(samples) == 40


def test_cone_vanishing_samples():
    rng = random.Random(676)
    for F in (F_XY, F_QUAD):
        data = bifurcation_data(F, compute_fiber_degree=False)
        D = poly_D(data.H)
        for _ in range(50):
            # sample directions on the cone: V1 = 0 for both exemplars
            u = [random_rational(rng), random_rational(rng)]
            v = [Fraction(0), random_rational(rng)]
            if not any(v):
                continue
            assert data.cone_form.evaluate(v) == 0
            assert D.evaluate(list(u) + list(v)) == 0


def test_transversality_matches_root_oracle():
    # D(u,v) != 0 exactly when H(u+tv) is a degree-2 squarefree polynomial,
    # squarefreeness checked independently by Euclid's algorithm
    rng = random.Random(787)
    H = P("Y1^2 - Y1", Y2)
    D = poly_D(H)
    mismatches = 0
    for _ in range(100):
        u = [random_rational(rng), random_rational(rng)]
        v = [random_rational(rng), random_rational(rng)]
        if not any(v):
            continue
        d_val = D.evaluate(list(u) + list(v))
        ring = ("t",)
        t = Polynomial.variable(ring, "t")
        restricted = substitute(
            H, {"Y1": u[0] + t * v[0], "Y2": u[1] + t * v[1]}, ring
        )
        coeffs = univariate_coeffs(restricted, "t")
        deg = len(coeffs) - 1
        while deg >= 0 and coeffs[deg] == 0:
            deg -= 1
        if deg == 2:
            dcoeffs = [k * coeffs[k] for k in range(1, len(coeffs))]
            distinct = univariate_gcd_degree(coeffs, dcoeffs) == 0
        else:
            distinct = False
        if (d_val != 0) != distinct:
            mismatches += 1
    assert mismatches == 0


def test_prop1_scale_identity_on_H():
    for F in (F_XY, F_QUAD):
        H = bifurcation_data(F, compute_fiber_degree=False).H
        for r in (Fraction(2), Fraction(3), Fraction(-1)):
            H_scaled = bifurcation_data(
                scale_conjugate(F, r), compute_fiber_degree=False
            ).H
            expected = substitute(
                H,
                {name: r * Polynomial.variable(Y2, name) for name in Y2},
                Y2,
            )
            assert is_scalar_multiple(H_scaled, expected)


def test_prop1_extension_identity_on_H():
    for F in (F_XY, F_QUAD):
        H = bifurcation_data(F, compute_fiber_degree=False).H
        ext = extend_variables(F, 1)
        H_ext = bifurcation_data(ext, compute_fiber_degree=False).H
        bigger = H_ext.variables
        assert is_scalar_multiple(H_ext, with_variables(H, bigger))


def test_prop1_conjugation_identity_on_H():
    rng = random.Random(898)
    from kellerlab._linalg import fraction_matrix_inverse

    for F in (F_XY, F_QUAD):
        H = bifurcation_data(F, compute_fiber_degree=False).H
        for _ in range(3):
            A = random_sl2(rng)
            conj = conjugate_by_linear(F, A)
            H_conj = bifurcation_data(conj, compute_fiber_degree=False).H
            Ainv = fraction_matrix_inverse(A)
            ys = [Polynomial.variable(Y2, n) for n in Y2]
            bindings = {
                Y2[i]: Ainv[i][0] * ys[0] + Ainv[i][1] * ys[1] for i in range(2)
            }
            expected = substitute(H, bindings, Y2)
            assert is_scalar_multiple(H_conj, expected)


def test_three_variable_stack():
    # F = (x, xy, xyz): H = Y1 Y2, cone = V1 V2, and the discriminant part
    # of D is the cross term (U1 V2 - U2 V1)^2
    W = ("x", "y", "z")
    F = PolyMap([P("x", W), P("x*y", W), P("x*y*z", W)])
    data = bifurcation_data(F)
    Y3 = ("Y1", "Y2", "Y3")
    assert is_scalar_multiple(data.H, P("Y1*Y2", Y3))
    assert data.cone_form == P("Y1*Y2", Y3)
    assert data.fiber_degree == 1

    D = poly_D(data.H)
    UV = ("U1", "U2", "U3", "V1", "V2", "V3")
    expected = P("V1*V2*(U1*V2 - U2*V1)^2", UV)
    assert is_scalar_multiple(D, expected)
    assert sigma(F, data=data) == D

    # a sample line through a generic point with generic direction
    first, second = assert_c2(F, (1, 1, 0), (1, 2, 3))
    assert first.ok is True and second.ok is True


def test_line_type():
    l = Line((0, 0), (1, 1))
    assert l.n == 2
    with pytest.raises(ValueError):
        Line((0, 0), (0, 0))
    with pytest.raises(ValueError):
        Line((0,), (1, 0))


def test_hurwitz_genus_examples():
    # 2 - 2g = 2d - sum(deg_a - 1)
    assert hurwitz_genus(2, [2, 2]) == 0
    assert hurwitz_genus(1, [1]) == 0
    assert hurwitz_genus(3, [3]) == -1
    assert hurwitz_genus(2, [2]) == Fraction(-1, 2)
    assert hurwitz_genus(3, [3, 3, 3]) == 1
    with pytest.raises(ValueError):
        hurwitz_genus(2, [3])
    with pytest.raises(ValueError):
        hurwitz_genus(0, [])


def test_assertion3_examples():
    assert assertion3_feasible(2, [2, 2], 0) == (True, "consistent branch data")
    ok, reason = assertion3_feasible(2, [2], Fraction(-1, 2))
    assert not ok and reason == "non-integral genus"
    assert assertion3_feasible(1, [1], 0)[0]
    ok, reason = assertion3_feasible(3, [3], hurwitz_genus(3, [3]))
    assert not ok and reason == "n_F=1 forces d=1, g=0"
    ok, reason = assertion3_feasible(3, [2, 2], 1)
    assert not ok and reason == "n_F=2 forces g=0"
    ok, reason = assertion3_feasible(4, [2, 2, 2], -1)
    assert not ok and reason == "negative genus"


def test_hurwitz_entry_points_refuse_non_integral_local_degrees():
    for bad in (Fraction(3, 2), 2.5):
        with pytest.raises(ValueError, match="expected an integer"):
            hurwitz_genus(3, (bad,))
        with pytest.raises(ValueError, match="expected an integer"):
            assertion3_feasible(3, (bad,), 0)
    assert hurwitz_genus(3, (Fraction(3),)) == hurwitz_genus(3, (3,)) == -1
    assert assertion3_feasible(3, (Fraction(2), Fraction(1)), 0) == (True, "consistent branch data")


def test_assertion3_feasible_checks_the_branch_data_as_hurwitz_genus_does():
    # a local degree above d, and a non-integral d, used to be "consistent"
    with pytest.raises(ValueError, match=r"local degree 5 outside \[1, 1\]"):
        assertion3_feasible(1, [5], 0)
    with pytest.raises(ValueError, match="expected an integer"):
        assertion3_feasible(2.5, [1, 1], 0)
    with pytest.raises(ValueError, match="covering degree must be at least 1"):
        assertion3_feasible(0, [], 0)
    assert assertion3_feasible(2.0, (Fraction(1), 1), 0) == (True, "consistent branch data")


def test_hurwitz_genus_refuses_a_non_integral_covering_degree():
    # 2.5 used to reach Fraction(2 - 2d, 2), a TypeError
    for bad in (2.5, Fraction(5, 2)):
        with pytest.raises(ValueError, match="expected an integer"):
            hurwitz_genus(bad, (2,))
    assert hurwitz_genus(2.0, (2, 2)) == hurwitz_genus(Fraction(2), (2, 2)) == 0
