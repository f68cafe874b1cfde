import random
from fractions import Fraction

import pytest

from kellerlab.elim import inverse_map
from kellerlab.errors import BudgetExceededError, SingularMatrixError
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

from _support import random_poly_map, random_triangular_form

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
    inv = formal_inverse(F, 3)
    assert inv.exact
    assert inv.map == PolyMap([P("x - y^3", V), P("y", V)])


def test_formal_inverse_non_keller_not_exact():
    F = PolyMap([P("x + y^3", V), P("y + x^3", V)])
    inv = formal_inverse(F, 8)
    assert not inv.exact
    # a non-exact result carries the inverse of the linear part only
    assert inv.map == PolyMap.identity(V)
    assert F.compose(inv.map) != PolyMap.identity(V)


def test_formal_inverse_of_linear_automorphism_with_jacobian_two():
    # not Keller (det = 2), yet an automorphism
    inv = formal_inverse(PolyMap([P("2*x", V), P("y", V)]), 1)
    assert inv.exact
    assert inv.map == PolyMap([P("1/2*x", V), P("y", V)])


def test_formal_inverse_runs_no_basis_without_constant_jacobian(monkeypatch):
    import kellerlab.keller

    def no_basis(*args):
        raise AssertionError("Groebner basis run")

    monkeypatch.setattr(kellerlab.keller, "inverse_map", no_basis)
    for comps in (("x + y^3", "y + x^3"), ("x + x^2", "y")):
        assert not formal_inverse(PolyMap([P(c, V) for c in comps]), 8).exact


def test_formal_inverse_cap_below_degree_bound_runs_no_basis(monkeypatch):
    import kellerlab.keller

    # Bass-Connell-Wright applied to G = F^-1 gives deg F <= (deg G)^(n-1),
    # so at cap 1 this cubic Keller map in 3 variables has no inverse within cap
    variables = ("x1", "x2", "x3")
    F = CubicLinearForm(((0, 1, 1), (0, 0, 1), (0, 0, 0))).to_map(variables)
    G = inverse_map(F)
    assert G is not None and G.max_degree() > 1
    expected = FormalInverse(map=PolyMap.identity(variables), degree_bound=1, exact=False)

    def no_basis(*args):
        raise AssertionError("Groebner basis run")

    monkeypatch.setattr(kellerlab.keller, "inverse_map", no_basis)
    assert formal_inverse(F, 1) == expected


def test_formal_inverse_non_exact_map_is_linear_part():
    # DF(0) is invertible, but det DF = 6 - 3*y^2 rules out an inverse
    F = PolyMap([P("2*x + y^3", V), P("x + 3*y", V)])
    inv = formal_inverse(F, 2)
    assert not inv.exact
    assert inv.map == PolyMap([P("1/2*x", V), P("-1/6*x + 1/3*y", V)])
    assert F.compose(inv.map) != PolyMap.identity(V)


def test_formal_inverse_identity():
    inv = formal_inverse(PolyMap.identity(V), 1)
    assert inv.exact and inv.map == PolyMap.identity(V)


def test_formal_inverse_preconditions():
    with pytest.raises(ValueError, match="origin"):
        formal_inverse(PolyMap([P("x + 1", V), P("y", V)]), 2)
    with pytest.raises(SingularMatrixError):
        formal_inverse(PolyMap([P("x", V), P("x*y", V)]), 2)


def test_inverse_roundtrip_when_exact():
    rng = random.Random(313)
    for n in (2, 3):
        variables = tuple(f"x{i}" for i in range(1, n + 1))
        for _ in range(5):
            F = random_triangular_form(rng, n).to_map(variables)
            inv = formal_inverse(F, 3 ** (n - 1))
            assert inv.exact
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
    assert inv.exact and inv.map.max_degree() == 81


def test_permutation_triangular_is_keller_and_invertible():
    # strictly triangular only after reordering the variables (x2, x3, x1)
    form = CubicLinearForm(((0, 0, 1), (0, 0, 0), (0, 2, 0)))
    F = form.to_map()
    assert is_keller(F)
    inv = formal_inverse(F)  # default cap 3^(n-1) = 9
    assert inv.exact
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
