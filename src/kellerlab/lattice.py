"""Constructive SL(n, Z): completing a primitive vector to a unimodular
matrix and mapping one primitive vector onto another.

K = Q only (O_K = Z); number rings with nontrivial ideal arithmetic are an
extension point, not implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._linalg import fraction_matrix_inverse, int_matrix_det, mat_mul, mat_vec
from .errors import InternalCheckError
from .polyring import _as_int


def egcd(a: int, b: int):
    """(g, x, y) with a x + b y = g = gcd(a, b), g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def is_primitive(v) -> bool:
    """True iff gcd of the coordinates is 1; the zero vector is an error."""
    v = tuple(map(_as_int, v))
    if not any(v):
        raise ValueError("the zero vector is not primitive nor imprimitive")
    return math.gcd(*(abs(x) for x in v)) == 1


@dataclass(frozen=True)
class PrimitiveVector:
    coords: tuple

    def __post_init__(self):
        coords = tuple(map(_as_int, self.coords))
        if not is_primitive(coords):
            raise ValueError(f"{coords} is not primitive")
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class UnimodularMatrix:
    """Square integer matrix with determinant exactly 1."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(map(_as_int, row)) for row in self.rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        if int_matrix_det(rows) != 1:
            raise ValueError("determinant is not 1")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    def apply(self, v):
        return mat_vec(self.rows, tuple(v))

    def multiply(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(tuple(map(tuple, mat_mul(self.rows, other.rows))))

    def column(self, j):
        return tuple(row[j] for row in self.rows)


def _coerce_primitive(v) -> tuple:
    if isinstance(v, PrimitiveVector):
        return v.coords
    v = tuple(map(_as_int, v))
    if not is_primitive(v):
        raise ValueError(f"{v} is not primitive")
    return v


def _complete(v):
    """Rows of an SL(n, Z) matrix with first column v (list of lists)."""
    n = len(v)
    if n == 1:
        if v[0] == 1:
            return [[1]]
        raise ValueError("SL(1, Z) cannot reach (-1)")
    if v[0] == 0:
        k = next(i for i, x in enumerate(v) if x)
        swapped = list(v)
        swapped[0], swapped[k] = swapped[k], swapped[0]
        rows = _complete(swapped)
        rows[0], rows[k] = rows[k], rows[0]  # first column back to v, det flips
        for i in range(n):
            rows[i][1] = -rows[i][1]  # fix the sign in a column != first
        return rows
    if n == 2:
        g, x, y = egcd(v[0], v[1])
        # primitivity gives g = 1, so v0 x + v1 y = 1
        return [[v[0], -y], [v[1], x]]

    r = math.gcd(*(abs(x) for x in v[1:]))
    if r == 0:
        # v = (v0, 0, ..., 0) with v0 = +-1
        rows = [[0] * n for _ in range(n)]
        rows[0][0] = v[0]
        rows[1][1] = v[0]
        for i in range(2, n):
            rows[i][i] = 1
        return rows
    # The bordered matrix A(alpha, beta) has first column v, last column
    # (beta, alpha vbar) and abar's other columns below row 0.  Its
    # determinant is c1 alpha + c2 beta, and expanding along the last column
    # with det abar = 1 gives c1 = (-1)^n v0 and c2 = (-1)^(n-1) r.
    # Extended Euclid solves c1 alpha + c2 beta = 1.
    sign = -1 if n % 2 else 1
    g, alpha, beta = egcd(sign * v[0], -sign * r)
    if g != 1:
        raise InternalCheckError("gcd bookkeeping of the induction failed")
    vbar = [x // r for x in v[1:]]
    abar = _complete(vbar)
    rows = [[v[0]] + [0] * (n - 2) + [beta]]
    for i in range(1, n):
        rows.append([v[i]] + abar[i - 1][1:] + [alpha * vbar[i - 1]])
    return rows


def sl_complete(v) -> UnimodularMatrix:
    """A in SL(n, Z) with A e_1 = v, by induction on the dimension.

    Base cases via extended Euclid; the step borders the (n-1)-dimensional
    completion of (v_2, ..., v_n)/gcd and solves the resulting linear
    determinant form for the two free entries.
    """
    coords = _coerce_primitive(v)
    rows = _complete(list(coords))
    A = UnimodularMatrix(tuple(map(tuple, rows)))
    if A.column(0) != coords:
        raise InternalCheckError("completion lost the first column")
    return A


def sl_inverse(A: UnimodularMatrix) -> UnimodularMatrix:
    """Integer inverse: the rational inverse is integral since det A = 1."""
    inv = UnimodularMatrix(tuple(fraction_matrix_inverse(A.rows)))
    n = A.n
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    if tuple(map(tuple, mat_mul(A.rows, inv.rows))) != identity:
        raise InternalCheckError("A times its computed inverse is not the identity")
    return inv


def map_primitive_pair(v, w) -> UnimodularMatrix:
    """A in SL(n, Z) with A v = w, as sl_complete(w) sl_complete(v)^-1."""
    cv = _coerce_primitive(v)
    cw = _coerce_primitive(w)
    if len(cv) != len(cw):
        raise ValueError("vectors live in different dimensions")
    A = sl_complete(cw).multiply(sl_inverse(sl_complete(cv)))
    if A.apply(cv) != cw:
        raise InternalCheckError("constructed matrix does not map v to w")
    return A
