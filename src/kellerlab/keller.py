"""Keller-map predicates, formal inversion, and the cubic-linear form
F_i(X) = X_i + <a_i, X>^3."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._linalg import fraction_matrix_inverse, poly_matrix_det
from .elim import MAX_DEGREE, inverse_map
from .errors import SingularMatrixError
from .polyring import Polynomial, PolyMap, integer_root


def jacobian_matrix(F: PolyMap):
    """Rows of partial derivatives dF_i/dX_j."""
    if not F.is_square():
        raise ValueError("map must have as many components as variables")
    return [
        [c.partial_derivative(v) for v in F.variables] for c in F.components
    ]


def jacobian_det(F: PolyMap) -> Polynomial:
    """det DF, expanded exactly."""
    return poly_matrix_det(jacobian_matrix(F))


def is_keller(F: PolyMap) -> bool:
    """True iff det DF is the constant 1."""
    return jacobian_det(F) == Polynomial.one(F.variables)


def default_degree_cap(F: PolyMap) -> int:
    """d^(n-1) for d = deg F: the Bass-Connell-Wright bound on the degree
    of a polynomial inverse."""
    return max(1, F.max_degree()) ** (F.n - 1)


@dataclass(frozen=True)
class FormalInverse:
    """Inverse of a map fixing the origin, decided up to a degree cap.

    When `exact` is true, `map` is the polynomial inverse G: F o G = G o F =
    identity and deg G <= degree_bound.  Otherwise `map` is the inverse
    L^-1 Y of the linear part alone.
    """

    map: PolyMap
    degree_bound: int
    exact: bool


def formal_inverse(
    F: PolyMap, degree_cap: int | None = None, det: Polynomial | None = None
) -> FormalInverse:
    """Polynomial inverse of F, if F is an automorphism of degree <= the cap.

    Requires F(0) = 0 and DF(0) invertible.  A Jacobian determinant that is
    not a nonzero constant rules out an inverse; otherwise the inverse is
    read off one Groebner basis (`elim.inverse_map`), whose degree budget
    is at least the cap.  The default cap is `default_degree_cap(F)`.  The
    same bound applied to G = F^-1 gives d <= (deg G)^(n-1), so a cap with
    cap^(n-1) < d returns at once, without the basis.  A non-exact result
    carries the linear part's inverse L^-1 Y as its map; at a lower cap it
    means "not invertible within bound", never "not invertible".
    A caller that already has det DF passes it as `det`.
    """
    if not F.is_square():
        raise ValueError("map must have as many components as variables")
    if not F.fixes_origin():
        raise ValueError("map must fix the origin")
    variables = F.variables
    n = F.n
    if degree_cap is None:
        degree_cap = default_degree_cap(F)
    if degree_cap < 1:
        raise ValueError("degree cap must be at least 1")

    unit = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    L = [[F.components[i].coefficient(unit[j]) for j in range(n)] for i in range(n)]
    try:
        Linv = fraction_matrix_inverse(L)
    except SingularMatrixError:
        raise SingularMatrixError("DF(0) is singular; no formal inverse") from None

    if degree_cap ** (n - 1) >= F.max_degree():
        if det is None:
            det = jacobian_det(F)
        if det.is_constant() and not det.is_zero():
            G = inverse_map(F, max(MAX_DEGREE, degree_cap))
            if G is not None and G.max_degree() <= degree_cap:
                return FormalInverse(map=G, degree_bound=degree_cap, exact=True)
    return FormalInverse(
        map=PolyMap.linear(Linv, variables), degree_bound=degree_cap, exact=False
    )


# ---- cubic-linear (Druzkowski) forms ----


@dataclass(frozen=True)
class CubicLinearForm:
    """Matrix A whose rows a_i realize F_i(X) = X_i + <a_i, X>^3."""

    matrix: tuple  # tuple of row tuples of Fractions

    def __post_init__(self):
        n = len(self.matrix)
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.matrix)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "matrix", rows)

    @property
    def n(self) -> int:
        return len(self.matrix)

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.matrix for x in row)

    def to_map(self, variables=None) -> PolyMap:
        if variables is None:
            variables = tuple(f"x{i}" for i in range(1, self.n + 1))
        variables = tuple(variables)
        if len(variables) != self.n:
            raise ValueError("variable count does not match matrix size")
        forms = PolyMap.linear(self.matrix, variables).components
        return PolyMap([
            Polynomial.variable(variables, v) + form**3 for v, form in zip(variables, forms)
        ])


@dataclass(frozen=True)
class CubicLinearRejection:
    """Why a map is not of cubic-linear shape; `component` is 1-based, and
    0 when the whole map is rejected."""

    component: int
    reason: str

    def __str__(self):
        if self.component == 0:
            return self.reason
        return f"component {self.component}: {self.reason}"


def _rational_cube_root(c: Fraction):
    num = _icbrt(c.numerator)
    den = _icbrt(c.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _icbrt(n: int):
    """Exact integer cube root, or None."""
    r = integer_root(abs(n), 3)
    if r**3 != abs(n):
        return None
    return -r if n < 0 else r


def as_cubic_linear(F: PolyMap):
    """Recognize F_i = X_i + <a_i, X>^3 and return the matrix A.

    Returns a CubicLinearForm, or a CubicLinearRejection naming the first
    offending component.  Works over Q; integrality of A is a separate
    query on the result.
    """
    if not F.is_square():
        return CubicLinearRejection(0, "map is not square")
    variables = F.variables
    n = F.n
    rows = []
    for i, comp in enumerate(F.components, start=1):
        rest = comp - Polynomial.variable(variables, variables[i - 1])
        if rest.is_zero():
            rows.append(tuple(Fraction(0) for _ in range(n)))
            continue
        if any(sum(m) != 3 for m in rest.terms):
            return CubicLinearRejection(
                i, "component minus X_i is not homogeneous of degree 3"
            )
        lm = max(rest.terms)  # lex-leading: exponent tuples compare lexicographically
        lc = rest.terms[lm]
        k = next((j for j, e in enumerate(lm) if e), None)
        if lm.count(0) != n - 1 or lm[k] != 3:
            return CubicLinearRejection(i, "leading term is not the cube of a variable")
        ck = _rational_cube_root(lc)
        if ck is None:
            return CubicLinearRejection(i, "leading coefficient is not a perfect cube")
        coeffs = [Fraction(0)] * n
        coeffs[k] = ck
        for j in range(n):
            if j == k:
                continue
            exps = tuple(2 if t == k else (1 if t == j else 0) for t in range(n))
            coeffs[j] = rest.coefficient(exps) / (3 * ck * ck)
        (form,) = PolyMap.linear([coeffs], variables).components
        if form**3 != rest:
            return CubicLinearRejection(i, "remainder is not the cube of a linear form")
        rows.append(tuple(coeffs))
    return CubicLinearForm(tuple(rows))
