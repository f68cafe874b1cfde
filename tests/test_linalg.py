import itertools
import random
from fractions import Fraction

import pytest

from kellerlab._linalg import (
    fraction_matrix_det,
    fraction_matrix_inverse,
    int_matrix_det,
    mat_mul,
    poly_matrix_det,
)
from kellerlab.errors import SingularMatrixError
from kellerlab.keller import jacobian_matrix
from kellerlab.polyring import Polynomial, PolyMap

from _support import random_polynomial, reference_det


def test_fraction_matrix_inverse_roundtrip():
    rng = random.Random(1111)
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        A = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        try:
            inv = fraction_matrix_inverse(A)
        except SingularMatrixError:
            continue
        prod = mat_mul(A, inv)
        assert prod == [tuple(Fraction(int(i == j)) for j in range(n))
                        for i in range(n)]


def test_fraction_matrix_inverse_singular():
    with pytest.raises(SingularMatrixError):
        fraction_matrix_inverse([[1, 2], [2, 4]])


def _naive_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _naive_det(minor)
        total += -term if j % 2 else term
    return total


def test_int_matrix_det_against_naive_expansion():
    rng = random.Random(2222)
    for _ in range(30):
        n = rng.choice([2, 3, 4, 5])
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert int_matrix_det(rows) == _naive_det(rows)


def test_fraction_matrix_det_against_naive_expansion():
    rng = random.Random(2323)
    singular = 0
    for _ in range(60):
        n = rng.choice([1, 2, 3, 4])
        rows = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)]
        det = fraction_matrix_det(rows)
        assert type(det) is Fraction and det == _naive_det(rows)
        singular += det == 0
    assert singular > 0
    with pytest.raises(ValueError, match="not square"):
        fraction_matrix_det([[1, 2]])


def test_int_matrix_det_zero_pivot_column_is_int_zero():
    # a column with no pivot returns its own zero entry, an int here
    for rows in ([[1, 2, 3], [2, 4, 5], [3, 6, 7]], [[0, 1], [0, 2]]):
        det = int_matrix_det(rows)
        assert det == 0 and type(det) is int


def _cubic_linear_jacobian(rng, n, min_nonzero=0):
    """The Jacobian of X + (AX)^3 for a nonsingular A over {-1, 0, 1} with
    at least min_nonzero nonzero entries."""
    V = tuple(f"x{k}" for k in range(1, n + 1))
    xs = [Polynomial.variable(V, v) for v in V]
    A = [[0] * n for _ in range(n)]
    while int_matrix_det(A) == 0 or sum(map(bool, sum(A, []))) < min_nonzero:
        A = [[rng.choice((0, 1, -1)) for _ in range(n)] for _ in range(n)]
    F = PolyMap([x + sum((a * y for a, y in zip(row, xs)), Polynomial.zero(V)) ** 3
                 for x, row in zip(xs, A)])
    return jacobian_matrix(F)


def test_poly_matrix_det_matches_int_det_at_points():
    # Jacobians of X + (AX)^3 with a nonsingular A over {0, 1, -1} at n = 5
    # and 6: the determinant evaluated at integer points against Bareiss on
    # the evaluated integer matrix
    rng = random.Random(4444)
    for n in (5, 6):
        J = _cubic_linear_jacobian(rng, n)
        det = poly_matrix_det(J)
        assert det.total_degree() == 2 * n
        for _ in range(4):
            point = [rng.randint(-3, 3) for _ in range(n)]
            at_point = [[int(e.evaluate(point)) for e in row] for row in J]
            assert det.evaluate(point) == int_matrix_det(at_point)


def test_poly_matrix_det_singular_and_constant():
    V = ("x",)
    x = Polynomial.variable(V, "x")
    zero = Polynomial.zero(V)
    assert poly_matrix_det([[x, x], [x, x]]).is_zero()
    assert poly_matrix_det([[zero, x], [x, zero]]) == -(x * x)
    five = Polynomial.constant(V, 5)
    assert poly_matrix_det([[five]]) == five


def test_poly_matrix_det_zero_column():
    V = ("x", "y")
    x = Polynomial.variable(V, "x")
    y = Polynomial.variable(V, "y")
    rows = [[x + k * y + j for j in range(5)] for k in range(5)]
    for row in rows:
        row[2] = Polynomial.zero(V)
    assert poly_matrix_det(rows) == Polynomial.zero(V)


def _leibniz_det(rows):
    """The permutation sum: sign(p) * prod_i rows[i][p(i)] over all p."""
    n = len(rows)
    total = Polynomial.zero(rows[0][0].variables)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Polynomial.one(total.variables)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total - term if inversions % 2 else total + term
    return total


def _random_poly_matrix(rng, n, variables):
    """Sparse random polynomial matrix; every third one has a zero column,
    and every third a repeated row."""
    rows = [[random_polynomial(rng, variables, max_degree=2, max_terms=3)
             for _ in range(n)] for _ in range(n)]
    shape = rng.randrange(3)
    if shape == 1:
        col = rng.randrange(n)
        for row in rows:
            row[col] = Polynomial.zero(variables)
    elif shape == 2 and n > 1:
        rows[rng.randrange(1, n)] = list(rows[0])
    return rows


def test_poly_matrix_det_matches_leibniz_sum():
    # an oracle that shares nothing with the minor expansion: n <= 4
    rng = random.Random(5555)
    V = ("x", "y")
    for trial in range(60):
        n = trial % 4 + 1
        rows = _random_poly_matrix(rng, n, V)
        assert poly_matrix_det(rows) == _leibniz_det(rows)


def test_poly_matrix_det_matches_int_det_at_random_points():
    # n up to 6, past the Leibniz sum's reach: the determinant evaluated at
    # seeded integer points against Bareiss on the evaluated matrix
    rng = random.Random(6666)
    V = ("x", "y", "z")
    for trial in range(30):
        n = trial % 6 + 1
        rows = _random_poly_matrix(rng, n, V)
        det = poly_matrix_det(rows)
        for _ in range(3):
            point = [rng.randint(-4, 4) for _ in V]
            at_point = [[int(e.evaluate(point)) for e in row] for row in rows]
            assert det.evaluate(point) == int_matrix_det(at_point)


def test_int_matrix_det_refuses_non_integral_entries():
    for bad in (Fraction(3, 2), 2.5):
        with pytest.raises(ValueError, match="expected an integer"):
            int_matrix_det(((bad, 1), (0, 1)))
    assert int_matrix_det(((Fraction(3), 1), (Fraction(4, 2), 1))) == 1


# ---- the packed Laplace expansion against the Fraction one ----


def _assert_same_det(rows):
    det, ref = poly_matrix_det(rows), reference_det(rows)
    # the same terms with the same reduced Fractions
    assert det == ref
    assert all(type(c) is Fraction for c in det.terms.values())
    return det


def test_poly_matrix_det_matches_the_fraction_oracle_at_small_n():
    rng = random.Random(2929)
    V = ("x", "y", "z")
    for trial in range(75):
        n = trial % 5 + 1
        rows = [[random_polynomial(rng, V, max_degree=2, max_terms=3) for _ in range(n)]
                for _ in range(n)]
        _assert_same_det(rows)


def test_poly_matrix_det_with_denominators_that_differ_within_a_row():
    rng = random.Random(3030)
    V = ("x", "y")
    for trial in range(40):
        n = trial % 5 + 1
        rows = []
        for _ in range(n):
            # each entry over its own denominator, so no row has one common
            # denominator and the row's lcm is a proper multiple of most
            row = [random_polynomial(rng, V, max_degree=2, max_terms=3)
                   * Fraction(rng.choice((1, 2, 3, 5, 7)), rng.choice((1, 2, 3, 4, 9)))
                   for _ in range(n)]
            rows.append(row)
        _assert_same_det(rows)
    # det [[x/2, 1/3], [y/5, 1/7]] = x/14 - y/15
    x, y = (Polynomial.variable(V, v) for v in V)
    det = _assert_same_det([[x * Fraction(1, 2), Polynomial.constant(V, Fraction(1, 3))],
                            [y * Fraction(1, 5), Polynomial.constant(V, Fraction(1, 7))]])
    assert det == x * Fraction(1, 14) - y * Fraction(1, 15)


def test_poly_matrix_det_with_zero_entries_and_a_zero_column():
    rng = random.Random(3131)
    V = ("x", "y", "z")
    zero = Polynomial.zero(V)
    for trial in range(40):
        n = trial % 5 + 1
        rows = [[random_polynomial(rng, V, max_degree=2, max_terms=2)
                 if rng.random() < 0.5 else zero for _ in range(n)] for _ in range(n)]
        _assert_same_det(rows)
        col = rng.randrange(n)
        for row in rows:
            row[col] = zero
        assert _assert_same_det(rows).is_zero()
    # an all-zero matrix, and a zero first row
    assert _assert_same_det([[zero] * 3 for _ in range(3)]).is_zero()
    rows = [[zero] * 4] + [[random_polynomial(rng, V) for _ in range(4)] for _ in range(3)]
    assert _assert_same_det(rows).is_zero()


def test_poly_matrix_det_of_a_dense_cubic_linear_jacobian_at_n_6():
    # A with at most 4 zeros of 36, so nearly every entry of J is dense
    J = _cubic_linear_jacobian(random.Random(3232), 6, min_nonzero=32)
    det = _assert_same_det(J)
    assert det.total_degree() == 12 and len(det.terms) > 10000
