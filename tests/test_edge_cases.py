"""Edge cases and cross-module interactions not covered by the per-module
suites."""

import random
import time

import pytest

from kellerlab.bundled import load_bundled_map
from kellerlab.diophantine import EquationSystem, curve_CF, search_box
from kellerlab.elim import generic_fiber_degree
from kellerlab.errors import BudgetExceededError, ParseError, VariableMismatchError
from kellerlab.expr_io import parse_polynomial as P
from kellerlab.expr_io import print_polynomial
from kellerlab.fibers import bifurcation_data
from kellerlab.keller import CubicLinearForm, formal_inverse, is_keller
from kellerlab.polyring import Polynomial, PolyMap, with_variables
from kellerlab.transforms import DiagonalTransform, conjugate_by_linear, theoremB_diagonal

from _support import naive_grid_points, random_sl2

V = ("x", "y")


def test_with_variables_reorders():
    p = P("x + 2*y^3", ("y", "x"))
    q = with_variables(p, ("x", "y"))
    assert q == P("x + 2*y^3", ("x", "y"))
    assert with_variables(q, ("y", "x")) == p


def test_with_variables_drops_only_absent_variables():
    p = P("x + 2*x^3", ("y", "x", "t"))
    assert with_variables(p, ("x",)) == P("x + 2*x^3", ("x",))
    for target in (("y", "t"), ()):
        with pytest.raises(VariableMismatchError, match="'x' absent"):
            with_variables(p, target)


def test_formal_inverse_of_conjugated_keller_map():
    rng = random.Random(1414)
    F = PolyMap([P("x + y^3", V), P("y", V)])
    for _ in range(4):
        A = random_sl2(rng)
        G = conjugate_by_linear(F, A)
        assert is_keller(G)
        inv = formal_inverse(G, 3)
        assert inv.exact
        assert G.compose(inv.map) == PolyMap.identity(V)


def test_fiber_degree_counts_multiplicity():
    # sample on the degenerate value: one double point, staircase size 2
    F = PolyMap([P("x^2", V), P("y", V)])
    assert generic_fiber_degree(F, [0, 1]) == 2


def test_bifurcation_budget_is_clean():
    # the n = 6 triangular map's first relation needs a basis element of
    # degree 81, one above the shipped degree budget: a clean, fast exit
    F = load_bundled_map("triangular_6.map").to_poly_map()
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="basis element degree 81 exceeds budget 80"):
        bifurcation_data(F)
    assert time.perf_counter() - start < 5.0


def test_theoremB_weight_count_mismatch():
    form = CubicLinearForm(((0, 1), (0, 0)))
    with pytest.raises(ValueError):
        theoremB_diagonal(form, DiagonalTransform((1, 2, 3)))


def test_search_constant_equations():
    unsat = EquationSystem((P("1", V),))
    rep = search_box(unsat, 3)
    assert rep.points == () and rep.exhausted

    trivial = EquationSystem((P("0", V),))
    rep = search_box(trivial, 1)
    assert rep.points == tuple(naive_grid_points(trivial, 1))
    assert len(rep.points) == 9


def test_search_duplicate_and_zero_equations():
    system = EquationSystem((P("x - y", V), P("x - y", V), P("0", V)))
    rep = search_box(system, 4)
    assert rep.points == tuple((k, k) for k in range(-4, 5))


def test_search_univariate_only_system():
    system = EquationSystem((P("x^2 - 4", ("x",)),))
    rep = search_box(system, 5)
    assert rep.points == ((-2,), (2,))
    rep0 = search_box(system, 1)
    assert rep0.points == ()


def test_search_threads_with_root_pinning():
    # first equation is univariate at the root: x is pinned to its root
    system = EquationSystem((P("x - 2", V), P("x*y - 2*y - 0", V)))
    assert search_box(system, 6).points == tuple((2, k) for k in range(-6, 7))


def test_search_big_coefficients_prune():
    # huge constant terms exercise the divisor test without overflow issues
    F = CubicLinearForm(((0, 1568), (0, 0))).to_map(V)
    rep = search_box(curve_CF(F), 10)
    assert rep.points == ((0, 0),)
    assert rep.exhausted


def test_parser_rejects_rational_exponent_literal():
    with pytest.raises(ParseError, match="non-integer exponent"):
        P("x^3/2", V)


def test_print_parse_handles_zero_components_in_maps():
    zero = Polynomial.zero(V)
    assert print_polynomial(zero) == "0"
    assert P("0", V) == zero
    F = PolyMap([zero, P("y", V)])
    assert F.evaluate([5, 7]) == (0, 7)


def test_map_file_fuzz_roundtrip():
    from kellerlab.expr_io import format_map_file, map_file_from_poly_map, parse_map_file
    from _support import random_polynomial

    rng = random.Random(1515)
    for _ in range(50):
        n = rng.choice([1, 2, 3])
        variables = tuple(f"v_{i}" for i in range(1, n + 1))
        comps = [
            random_polynomial(rng, variables, max_degree=4, max_terms=4)
            for _ in range(n)
        ]
        F = PolyMap(comps)
        mf = map_file_from_poly_map(F, {"name": "fuzz", "notes": "round trip"})
        again = parse_map_file(format_map_file(mf))
        assert again.to_poly_map() == F
        assert again.metadata == mf.metadata


def test_line_preimage_semantics_oracle():
    # the zero set of the system is exactly {x : F(x) lies on the line},
    # checked pointwise on a grid
    from itertools import product as iproduct

    from kellerlab.diophantine import line_preimage
    from kellerlab.fibers import Line
    from fractions import Fraction

    rng = random.Random(1616)
    W = ("x", "y", "z")
    F = PolyMap([P("x + y^3", W), P("x*y - 2", W), P("z + x^2", W)])
    for _ in range(6):
        u = tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
        v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
        if not any(v):
            continue
        line = Line(u, v)
        system = line_preimage(F, line)
        for x in iproduct(range(-3, 4), repeat=3):
            value = F.evaluate(x)
            delta = tuple(a - b for a, b in zip(value, u))
            # on the line iff delta is parallel to v: all 2x2 minors vanish
            parallel = all(
                delta[i] * v[j] == delta[j] * v[i]
                for i in range(3)
                for j in range(i + 1, 3)
            )
            assert system.satisfied_by(x) == parallel


def test_cubic_linear_negative_leading_cube():
    F = PolyMap([P("x + (-x - 2*y)^3", V), P("y", V)])
    from kellerlab.keller import as_cubic_linear

    form = as_cubic_linear(F)
    assert isinstance(form, CubicLinearForm)
    assert form.matrix[0] == (-1, -2)
