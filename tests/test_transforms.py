import random
from fractions import Fraction

import pytest

from kellerlab.bundled import load_bundled_map
from kellerlab.errors import SingularMatrixError
from kellerlab.expr_io import parse_polynomial as P
from kellerlab.keller import CubicLinearForm, is_keller
from kellerlab.polyring import Polynomial, PolyMap
from kellerlab.transforms import (
    DiagonalTransform,
    choose_clearing_scale,
    conjugate_by_linear,
    cor1_extension,
    extend_variables,
    scale_conjugate,
    theoremB_diagonal,
    translate_to_origin,
)

from _support import (
    bundled_map_names,
    homogeneous_components,
    random_map_fixing_origin,
    random_poly_map,
    random_sl2,
    random_triangular_form,
    reference_extend_variables,
    reference_scale_conjugate,
    reference_translate_to_origin,
)

V = ("x", "y")


def test_scale_conjugate_examples():
    F = PolyMap([P("x + y^3", V), P("y", V)])
    assert scale_conjugate(F, 2) == PolyMap([P("x + 4*y^3", V), P("y", V)])
    assert scale_conjugate(F, 1) == F
    G = PolyMap([P("x", V), P("x*y", V)])
    assert scale_conjugate(G, 2) == PolyMap([P("x", V), P("2*x*y", V)])


def test_scale_conjugate_homogeneous_expansion():
    # (1/r) F(rX) = G1 + r G2 + ... + r^(k-1) Gk on the homogeneous pieces
    rng = random.Random(616)
    F = PolyMap([P("x + x*y + y^3", V), P("y + x^2", V)])
    for r in (Fraction(2), Fraction(-3), Fraction(1, 2)):
        scaled = scale_conjugate(F, r)
        for orig, got in zip(F.components, scaled.components):
            expected = Polynomial.zero(V)
            for d, comp in homogeneous_components(orig):
                expected = expected + comp * r ** (d - 1)
            assert got == expected


def _bundled_maps():
    return [load_bundled_map(name).to_poly_map() for name in bundled_map_names()]


def _random_maps(rng, count, fixing_origin=False):
    make = random_map_fixing_origin if fixing_origin else random_poly_map
    return [make(rng, V if k % 2 else ("x", "y", "z")) for k in range(count)]


def test_scale_conjugate_matches_substitution():
    rng = random.Random(1616)
    maps = _bundled_maps() + _random_maps(rng, 60, fixing_origin=True)
    assert all(F.fixes_origin() for F in maps)
    for F in maps:
        for r in (2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 5)):
            assert scale_conjugate(F, r) == reference_scale_conjugate(F, r)


def test_scale_conjugate_errors():
    F = PolyMap([P("x + 1", V), P("y", V)])
    with pytest.raises(ValueError):
        scale_conjugate(F, 2)
    with pytest.raises(ValueError):
        scale_conjugate(PolyMap.identity(V), 0)


def test_extend_variables_examples():
    F = PolyMap([P("x + y^3", V), P("y", V)])
    ext = extend_variables(F, 1)
    W = ext.variables
    assert len(W) == 3
    assert ext.components[2] == Polynomial.variable(W, W[2])
    assert extend_variables(F, 0) == F
    assert ext.variables == ("x", "y", "z1")
    clash = PolyMap([P("x", ("x", "z2")), P("z2", ("x", "z2"))])
    assert extend_variables(clash, 2).variables == ("x", "z2", "zz1", "zz2")
    from kellerlab.keller import jacobian_det

    assert jacobian_det(ext) == Polynomial.one(W)


def test_extend_variables_matches_substitution():
    rng = random.Random(1717)
    for F in _bundled_maps() + _random_maps(rng, 40):
        for m in (1, 2, 3):
            ext = extend_variables(F, m)
            assert ext.variables[: len(F.variables)] == F.variables
            assert ext == reference_extend_variables(F, ext.variables)


def test_conjugate_by_linear_examples():
    F = PolyMap([P("x + y^3", V), P("y", V)])
    assert conjugate_by_linear(F, [[1, 0], [0, 1]]) == F
    swapped = conjugate_by_linear(F, [[0, 1], [1, 0]])
    assert swapped == PolyMap([P("x", V), P("y + x^3", V)])
    with pytest.raises(SingularMatrixError):
        conjugate_by_linear(F, [[1, 1], [1, 1]])


def test_conjugate_preserves_keller_for_sl():
    rng = random.Random(717)
    F = PolyMap([P("x + y^3", V), P("y", V)])
    for _ in range(5):
        A = random_sl2(rng)
        assert is_keller(conjugate_by_linear(F, A))


def test_translate_to_origin_examples():
    F = PolyMap([P("x^2", V), P("y", V)])
    got = translate_to_origin(F, [1, 0])
    assert got == PolyMap([P("x^2 - 2*x", V), P("y", V)])
    # a = 0 subtracts F(0)
    G = PolyMap([P("x + 3", V), P("y", V)])
    assert translate_to_origin(G, [0, 0]) == PolyMap([P("x", V), P("y", V)])
    # output always vanishes at the origin
    rng = random.Random(818)
    for _ in range(5):
        a = [rng.randint(-3, 3), rng.randint(-3, 3)]
        out = translate_to_origin(F, a)
        assert out.evaluate([0, 0]) == (0, 0)


def test_translate_to_origin_matches_substitution():
    rng = random.Random(1818)
    for F in _bundled_maps() + _random_maps(rng, 60):
        for _ in range(3):
            a = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in F.variables]
            assert translate_to_origin(F, a) == reference_translate_to_origin(F, a)


def test_diagonal_transform_validation():
    T = DiagonalTransform((1, 2))
    assert T.cubes == (1, 8)
    assert T.delta == 8
    with pytest.raises(ValueError):
        DiagonalTransform((1, 0))


def test_theoremB_identity_weights():
    form = CubicLinearForm(((0, 1), (0, 0)))
    out = theoremB_diagonal(form, DiagonalTransform((1, 1)))
    assert out.matrix == form.matrix


def test_theoremB_worked_example():
    # b1 = (0,1), b2 = (0,0), w = (1,2):
    # a1 = (1^-1 * (1*4)) * (1*0, 8*1) = (0, 32), a2 = (0, 0)
    form = CubicLinearForm(((0, 1), (0, 0)))
    out = theoremB_diagonal(form, DiagonalTransform((1, 2)))
    assert out.matrix == ((Fraction(0), Fraction(32)), (Fraction(0), Fraction(0)))
    # independent check of the defining composition at a sample point
    variables = ("x1", "x2")
    G = out.to_map(variables)
    F = form.to_map(variables)
    delta = 8
    for point in [(1, 1), (2, -1), (0, 3)]:
        scaled = [delta * 1 * point[0], delta * 8 * point[1]]
        value = F.evaluate(scaled)
        expected = (value[0] / (delta * 1), value[1] / (delta * 8))
        assert G.evaluate(point) == expected


def test_theoremB_keller_preserved_and_integral():
    rng = random.Random(919)
    for n in (2, 3):
        variables = tuple(f"x{i}" for i in range(1, n + 1))
        for _ in range(6):
            form = random_triangular_form(rng, n)
            w = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n))
            out = theoremB_diagonal(form, DiagonalTransform(w))
            assert out.is_integral()
            assert is_keller(out.to_map(variables)) == is_keller(form.to_map(variables))


def test_theoremB_requires_integer_input():
    form = CubicLinearForm(((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(0))))
    with pytest.raises(ValueError):
        theoremB_diagonal(form, DiagonalTransform((1, 1)))


def test_cor1_extension_examples():
    zero = CubicLinearForm(((0, 0), (0, 0)))
    ext = cor1_extension(zero)
    assert all(x == 0 for row in ext.matrix for x in row)

    form = CubicLinearForm(((0, 1), (0, 0)))
    ext = cor1_extension(form)
    assert ext.matrix == (
        (Fraction(0), Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(0)),
    )
    # last row zero, last component is X_{n+1}
    M = ext.to_map()
    W = M.variables
    assert M.components[-1] == Polynomial.variable(W, W[-1])


def test_cor1_extension_row_sums():
    rng = random.Random(121)
    for _ in range(6):
        form = random_triangular_form(rng, 3)
        ext = cor1_extension(form)
        for i, row in enumerate(form.matrix):
            assert ext.matrix[i][:3] == row
            assert ext.matrix[i][3] == sum(row)
        assert all(x == 0 for x in ext.matrix[3])


def test_choose_clearing_scale_examples():
    assert choose_clearing_scale([(0, 0)]) == 1
    assert choose_clearing_scale([(0, 0), (2, 3)]) == 4
    assert choose_clearing_scale([(0, 0), (8, 0)]) == 9
    # guarantee: no nonzero element of S is divisible by r
    rng = random.Random(232)
    for _ in range(30):
        S = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(5)]
        r = choose_clearing_scale(S)
        for s in S:
            if any(s):
                assert any(x % r for x in s)


def test_integer_entry_points_refuse_non_integral_values():
    for bad in (Fraction(3, 2), 2.5):
        with pytest.raises(ValueError, match="expected an integer"):
            DiagonalTransform((bad, 1))
        with pytest.raises(ValueError, match="expected an integer"):
            choose_clearing_scale([(bad, 0)])
    assert DiagonalTransform((Fraction(2), -1)).weights == (2, -1)
    assert choose_clearing_scale([(Fraction(3), 0), (0, Fraction(-5))]) == 6
