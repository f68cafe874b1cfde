import itertools
import random
from fractions import Fraction

import pytest

from kellerlab._linalg import fraction_matrix_inverse, int_matrix_det, mat_mul, poly_matrix_det
from kellerlab.errors import SingularMatrixError
from kellerlab.keller import jacobian_matrix
from kellerlab.polyring import Polynomial, PolyMap

from _support import random_polynomial


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


def test_int_matrix_det_against_naive_expansion():
    def naive(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = 0
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = rows[0][j] * naive(minor)
            total += -term if j % 2 else term
        return total

    rng = random.Random(2222)
    for _ in range(30):
        n = rng.choice([2, 3, 4, 5])
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert int_matrix_det(rows) == naive(rows)


def test_int_matrix_det_zero_pivot_column_is_int_zero():
    # a column with no pivot returns its own zero entry, an int here
    for rows in ([[1, 2, 3], [2, 4, 5], [3, 6, 7]], [[0, 1], [0, 2]]):
        det = int_matrix_det(rows)
        assert det == 0 and type(det) is int


def test_poly_matrix_det_matches_int_det_at_points():
    # Jacobians of X + (AX)^3 with a nonsingular A over {0, 1, -1} at n = 5
    # and 6: the determinant evaluated at integer points against Bareiss on
    # the evaluated integer matrix
    rng = random.Random(4444)
    for n in (5, 6):
        V = tuple(f"x{k}" for k in range(1, n + 1))
        xs = [Polynomial.variable(V, v) for v in V]
        A = [[0] * n for _ in range(n)]
        while int_matrix_det(A) == 0:
            A = [[rng.choice((0, 1, -1)) for _ in range(n)] for _ in range(n)]
        F = PolyMap([x + sum((a * y for a, y in zip(row, xs)), Polynomial.zero(V)) ** 3
                     for x, row in zip(xs, A)])
        J = jacobian_matrix(F)
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
