import random
from fractions import Fraction

import pytest

import kellerlab.keller
from kellerlab.elim import inverse_map
from kellerlab.errors import BudgetExceededError, NotInvertibleError, SingularMatrixError
from kellerlab.expr_io import parse_polynomial as P
from kellerlab.keller import (
    CubicLinearForm,
    CubicLinearRejection,
    FormalInverse,
    as_cubic_linear,
    formal_inverse,
    is_keller,
    jacobian_det,
)
from kellerlab.polyring import Polynomial, PolyMap, substitute
from kellerlab.transforms import conjugate_by_linear

from _support import (
    load_hardgen,
    random_poly_map,
    random_rational,
    random_rational_matrix,
    random_triangular_form,
    reference_as_cubic_linear,
    reference_cubic_map,
)

V = ("x", "y")


def test_jacobian_examples():
    assert jacobian_det(PolyMap([P("x + y^3", V), P("y", V)])) == Polynomial.one(V)
    assert jacobian_det(PolyMap([P("x^2", V), P("y", V)])) == P("2*x", V)
    assert jacobian_det(PolyMap([P("x + y^3", V), P("y + x^3", V)])) == P(
        "1 - 9*x^2*y^2", V
    )


def test_jacobian_requires_square():
    with pytest.raises(ValueError):
        jacobian_det(PolyMap([P("x + y", V)]))


def test_is_keller_examples():
    assert is_keller(PolyMap([P("x + y^3", V), P("y", V)]))
    assert not is_keller(PolyMap([P("x^2", V), P("y", V)]))
    # strictly lower-triangular integer cubic-linear form, n = 3
    form = CubicLinearForm(((0, 0, 0), (2, 0, 0), (1, -1, 0)))
    assert is_keller(form.to_map())


def test_formal_inverse_triangular():
    F = PolyMap([P("x + y^3", V), P("y", V)])
    assert formal_inverse(F, 3) == FormalInverse(
        map=PolyMap([P("x - y^3", V), P("y", V)]), degree_bound=3)


def test_formal_inverse_non_keller_not_exact():
    # det DF = 1 - 9x^2y^2: no inverse, and the answer names the cap
    F = PolyMap([P("x + y^3", V), P("y + x^3", V)])
    with pytest.raises(NotInvertibleError,
                       match=r"^not invertible within bound \(cap 8\)$"):
        formal_inverse(F, 8)


def test_formal_inverse_of_linear_automorphism_with_jacobian_two():
    # not Keller (det = 2), yet an automorphism
    inv = formal_inverse(PolyMap([P("2*x", V), P("y", V)]), 1)
    assert inv.map == PolyMap([P("1/2*x", V), P("y", V)])


def _no_basis(monkeypatch):
    def no_basis(*args):
        raise AssertionError("Groebner basis run")

    monkeypatch.setattr(kellerlab.keller, "inverse_map", no_basis)


def test_formal_inverse_runs_no_basis_without_constant_jacobian(monkeypatch):
    _no_basis(monkeypatch)
    for comps in (("x + y^3", "y + x^3"), ("x + x^2", "y")):
        with pytest.raises(NotInvertibleError):
            formal_inverse(PolyMap([P(c, V) for c in comps]), 8)


def test_formal_inverse_cap_below_degree_bound_runs_no_basis(monkeypatch):
    # Bass-Connell-Wright applied to G = F^-1 gives deg F <= (deg G)^(n-1),
    # so at cap 1 this cubic Keller map in 3 variables has no inverse within
    # cap, and neither det DF nor the basis is needed to say so
    variables = ("x1", "x2", "x3")
    F = CubicLinearForm(((0, 1, 1), (0, 0, 1), (0, 0, 0))).to_map(variables)
    G = inverse_map(F)
    assert G is not None and G.max_degree() > 1
    _no_basis(monkeypatch)
    monkeypatch.setattr(kellerlab.keller, "jacobian_det", None)
    with pytest.raises(NotInvertibleError, match=r"\(cap 1\)$"):
        formal_inverse(F, 1)


def test_formal_inverse_non_exact_map_is_linear_part():
    # DF(0) is invertible, but det DF = 6 - 3*y^2 rules out an inverse; the
    # linear part's inverse L^-1 Y is not one, so it is not offered as a result
    F = PolyMap([P("2*x + y^3", V), P("x + 3*y", V)])
    with pytest.raises(NotInvertibleError,
                       match=r"^not invertible within bound \(cap 2\)$"):
        formal_inverse(F, 2)
    linear_part = PolyMap([P("1/2*x", V), P("-1/6*x + 1/3*y", V)])
    assert F.compose(linear_part) != PolyMap.identity(V)


def test_formal_inverse_identity():
    inv = formal_inverse(PolyMap.identity(V), 1)
    assert inv == FormalInverse(map=PolyMap.identity(V), degree_bound=1)


def test_formal_inverse_preconditions(monkeypatch):
    with pytest.raises(ValueError, match="as many components"):
        formal_inverse(PolyMap([P("x + y", V)]))
    with pytest.raises(ValueError, match="at least 1"):
        formal_inverse(PolyMap.identity(V), 0)
    # a singular DF(0) is refused before det DF and the basis
    _no_basis(monkeypatch)
    monkeypatch.setattr(kellerlab.keller, "jacobian_det", None)
    for comps in (("x", "x*y"), ("x^2", "y")):
        with pytest.raises(SingularMatrixError,
                           match=r"^DF\(0\) is singular; no formal inverse$"):
            formal_inverse(PolyMap([P(c, V) for c in comps]), 2)


def test_formal_inverse_needs_no_fixed_origin():
    # F(0) = (1, -3): the criterion does not ask that F fix the origin
    F = PolyMap([P("2*x + y^2 + 1", V), P("y - 3", V)])
    inv = formal_inverse(F)
    assert inv.degree_bound == 2
    assert F.compose(inv.map) == PolyMap.identity(V) == inv.map.compose(F)
    with pytest.raises(NotInvertibleError, match=r"\(cap 1\)$"):
        formal_inverse(PolyMap([P("x + x^3 + 1", ("x",))]))


def test_inverse_roundtrip_when_exact():
    rng = random.Random(313)
    for n in (2, 3):
        variables = tuple(f"x{i}" for i in range(1, n + 1))
        for _ in range(5):
            F = random_triangular_form(rng, n).to_map(variables)
            inv = formal_inverse(F, 3 ** (n - 1))
            ident = PolyMap.identity(variables)
            assert F.compose(inv.map) == ident
            assert inv.map.compose(F) == ident
            assert inv.map.max_degree() <= 3 ** (n - 1)


def back_substitution_inverse(form, variables):
    """Inverse of X_i + <a_i, X>^3 for strictly lower-triangular A:
    G_i = Y_i - <a_i, G>^3, solved in order."""
    G = []
    for i, row in enumerate(form.matrix):
        lin = sum((a * g for a, g in zip(row[:i], G)), Polynomial.zero(variables))
        G.append(Polynomial.variable(variables, variables[i]) - lin**3)
    return PolyMap(G)


def random_sl(rng, n, steps=3):
    """Product of elementary integer matrices I + k E_ij, k = +-1."""
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-1, 1))
        A[i] = [a + k * b for a, b in zip(A[i], A[j])]
    return A


def test_basis_inverse_equals_back_substitution():
    rng = random.Random(2718)
    for n in (2, 3):
        variables = tuple(f"x{i}" for i in range(1, n + 1))
        for _ in range(4):
            form = random_triangular_form(rng, n)
            F = form.to_map(variables)
            G = back_substitution_inverse(form, variables)
            assert inverse_map(F) == G
            A = random_sl(rng, n)
            assert inverse_map(conjugate_by_linear(F, A)) == conjugate_by_linear(G, A)


def test_inverse_map_rejects_non_automorphisms():
    # the graph basis of a non-injective map is not {X_i - G_i(Y)}
    assert inverse_map(PolyMap([P("x^2", V), P("y", V)])) is None
    assert inverse_map(PolyMap([P("x", V), P("x*y", V)])) is None


def test_chain_inverse_at_cap_81_is_not_a_budget_exit():
    # x1, x_i + x_(i-1)^3 for n = 5: deg G = 3^4 = 81, the default cap, one
    # above the default Groebner degree budget
    X = tuple(f"x{i}" for i in range(1, 6))
    F = PolyMap([P("x1", X)] + [P(f"x{i} + x{i - 1}^3", X) for i in range(2, 6)])
    with pytest.raises(BudgetExceededError):
        inverse_map(F)
    inv = formal_inverse(F)
    assert inv.degree_bound == inv.map.max_degree() == 81


def test_polynomial_inverse_budget_reaches_the_default_cap():
    # the same chain: with no cap given, formal_inverse reads the cap
    # d^(n-1) = 81 and runs the basis at budget 81, so it finds the inverse
    # instead of stopping at the Groebner budget 80; an explicit cap 81 agrees
    X = tuple(f"x{i}" for i in range(1, 6))
    F = PolyMap([P("x1", X)] + [P(f"x{i} + x{i - 1}^3", X) for i in range(2, 6)])
    G = formal_inverse(F).map
    assert G.max_degree() == 81
    assert G == formal_inverse(F, 81).map
    assert F.compose(G) == PolyMap.identity(X)


def test_permutation_triangular_is_keller_and_invertible():
    # strictly triangular only after reordering the variables (x2, x3, x1)
    form = CubicLinearForm(((0, 0, 1), (0, 0, 0), (0, 2, 0)))
    F = form.to_map()
    assert is_keller(F)
    inv = formal_inverse(F)  # default cap 3^(n-1) = 9
    assert inv.degree_bound == 9
    assert inv.map.max_degree() <= 9


def test_chain_rule():
    rng = random.Random(414)
    for _ in range(12):
        F = random_poly_map(rng, V, max_degree=3, max_terms=2)
        G = random_poly_map(rng, V, max_degree=3, max_terms=2)
        JGF = jacobian_det(G.compose(F))
        JG_at_F = substitute(jacobian_det(G), dict(zip(V, F.components)), V)
        assert JGF == JG_at_F * jacobian_det(F)


def test_keller_closure_under_composition():
    F = CubicLinearForm(((0, 0), (1, 0))).to_map(V)
    G = PolyMap([P("x + y^3", V), P("y", V)])
    assert is_keller(F) and is_keller(G)
    assert is_keller(F.compose(G))
    assert is_keller(G.compose(F))


def test_as_cubic_linear_examples():
    got = as_cubic_linear(PolyMap([P("x + (x + 2*y)^3", V), P("y", V)]))
    assert isinstance(got, CubicLinearForm)
    assert got.matrix == ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(0)))

    ident = as_cubic_linear(PolyMap.identity(V))
    assert isinstance(ident, CubicLinearForm)
    assert all(x == 0 for row in ident.matrix for x in row)

    rej = as_cubic_linear(PolyMap([P("x + y^2", V), P("y", V)]))
    assert isinstance(rej, CubicLinearRejection)
    assert rej.component == 1


def test_as_cubic_linear_rational_and_integrality():
    form = as_cubic_linear(PolyMap([P("x + 1/8*y^3", V), P("y", V)]))
    assert isinstance(form, CubicLinearForm)
    assert form.matrix[0] == (Fraction(0), Fraction(1, 2))
    assert not form.is_integral()
    assert CubicLinearForm(((0, 1), (0, 0))).is_integral()


def test_icbrt_exact_beyond_float_precision():
    from kellerlab.keller import _icbrt

    r = 10**20 + 1
    assert _icbrt(r**3) == r
    assert _icbrt(-(r**3)) == -r
    assert _icbrt(r**3 + 1) is None
    assert _icbrt(r**3 - 1) is None
    big = 3**200 + 7
    assert _icbrt(big**3) == big
    assert _icbrt(big**3 - 1) is None
    assert [_icbrt(k) for k in (0, 1, -1, 8, -27, 2, 7, 9)] == [
        0, 1, -1, 2, -3, None, None, None
    ]


def test_as_cubic_linear_large_row():
    r = 10**20 + 1
    form = CubicLinearForm(((r, 0), (0, 0)))
    got = as_cubic_linear(form.to_map(V))
    assert isinstance(got, CubicLinearForm)
    assert got.matrix == form.matrix


def test_cubic_linear_roundtrip_random_matrices():
    rng = random.Random(515)
    for n in (2, 3, 4):
        variables = tuple(f"x{i}" for i in range(1, n + 1))
        for _ in range(8):
            rows = tuple(
                tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)
            )
            form = CubicLinearForm(rows)
            got = as_cubic_linear(form.to_map(variables))
            assert isinstance(got, CubicLinearForm)
            assert got.matrix == form.matrix


def test_as_cubic_linear_matches_the_fraction_cube_rule():
    # the packed test P_f^3 * d_rest == P_rest * d_f^3 gives the same form,
    # or the same rejection, as form**3 != rest on Fractions
    rng = random.Random(2929)
    outcomes = set()
    for trial in range(120):
        n = trial % 3 + 2
        variables = tuple(f"x{i}" for i in range(1, n + 1))
        xs = [Polynomial.variable(variables, v) for v in variables]
        components = []
        for x in xs:
            # rational rows: each entry over its own denominator
            row = [random_rational(rng, 3, (1, 2, 3, 4)) if rng.random() < 0.7 else 0
                   for _ in range(n)]
            cube = sum((c * y for c, y in zip(row, xs)), Polynomial.zero(variables)) ** 3
            kind = rng.choice(("cube", "twice", "eight", "perturbed", "headless", "low"))
            if kind == "twice":
                cube = cube * 2  # the remainder 2 * cube
            elif kind == "eight":
                cube = cube * 8  # the cube of twice the form
            elif kind == "perturbed" and not cube.is_zero():
                m = rng.choice(sorted(cube.terms))
                cube = cube + Polynomial(variables, {m: random_rational(rng, 2, (1, 5))})
            elif kind == "headless" and not cube.is_zero():
                lead = max(cube.terms)  # the cube of a variable; no other term is
                cube = cube - Polynomial(variables, {lead: cube.terms[lead]})
            elif kind == "low":
                cube = cube + rng.choice(xs) * rng.choice(xs)
            components.append(x + cube)
        F = PolyMap(components)
        got, ref = as_cubic_linear(F), reference_as_cubic_linear(F)
        assert got == ref, (F, got, ref)
        outcomes.add(got.reason if isinstance(got, CubicLinearRejection) else "form")
    assert outcomes == {
        "form",
        "component minus X_i is not homogeneous of degree 3",
        "leading term is not the cube of a variable",
        "leading coefficient is not a perfect cube",
        "remainder is not the cube of a linear form",
    }


def test_to_map_matches_the_fraction_expansion():
    # the packed cube: each row's denominators cleared once, zero rows and
    # rows with one entry included
    rng = random.Random(3838)
    zero_rows = 0
    for n in range(1, 8):
        variables = tuple(f"x{i}" for i in range(1, n + 1))
        for _ in range(6):
            matrix = random_rational_matrix(rng, n)
            zero_rows += sum(not any(row) for row in matrix)
            assert CubicLinearForm(matrix).to_map(variables) == reference_cubic_map(
                matrix, variables), matrix
    assert zero_rows


def test_to_map_expands_once_per_form(monkeypatch):
    cubes = []
    inner = kellerlab.keller._packed_cube

    def counting(packed):
        cubes.append(packed)
        return inner(packed)

    monkeypatch.setattr(kellerlab.keller, "_packed_cube", counting)
    form = CubicLinearForm(((0, 1, 1), (0, 0, Fraction(1, 2)), (0, 0, 0)))
    F = form.to_map()
    assert form.to_map(("x1", "x2", "x3")) is F
    G = form.to_map(("a", "b", "c"))  # other names: the kept map, renamed
    assert len(cubes) == 2  # one per nonzero row
    assert G.variables == ("a", "b", "c")
    assert [c.terms for c in G.components] == [c.terms for c in F.components]
    # the kept maps take no part in equality, hashing or repr
    fresh = CubicLinearForm(form.matrix)
    assert (form, hash(form), repr(form)) == (fresh, hash(fresh), repr(fresh))


def test_as_cubic_linear_keeps_the_map_it_recognized():
    rng = random.Random(3939)
    for n in range(1, 5):
        variables = tuple(f"y{i}" for i in range(1, n + 1))
        F = reference_cubic_map(random_rational_matrix(rng, n), variables)
        form = as_cubic_linear(F)
        assert isinstance(form, CubicLinearForm)
        assert form.to_map(F.variables) is F


@pytest.mark.parametrize("name", ["c3", "s3"])
def test_inverse_composed_with_the_map_is_the_identity_on_the_hard_tier(name):
    # G o F = X for every sign variant of the n = 3 hard-tier automorphisms
    hardgen = load_hardgen()
    for signs in hardgen.members(name):
        F, _ = hardgen.build_map(name, signs)
        G = formal_inverse(F).map
        assert G.compose(F) == PolyMap.identity(F.variables), signs
