"""Keller-map predicates, formal inversion, and the cubic-linear form
F_i(X) = X_i + <a_i, X>^3."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ._linalg import fraction_matrix_det, poly_matrix_det
from .elim import MAX_DEGREE, inverse_map
from .errors import NotInvertibleError, SingularMatrixError
from .polyring import (Polynomial, PolyMap, _clear_denominators, _from_packed,
                       _grlex_layout, _mul_into, _pack, integer_root)


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


def _linear_part(F: PolyMap):
    """DF(0): the matrix of F's linear coefficients."""
    n = F.n
    unit = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return [[c.coefficient(unit[j]) for j in range(n)] for c in F.components]


@dataclass(frozen=True)
class FormalInverse:
    """The polynomial inverse G of F: F o G = G o F = identity and
    deg G <= degree_bound."""

    map: PolyMap
    degree_bound: int


def formal_inverse(
    F: PolyMap, degree_cap: int | None = None, det: Polynomial | None = None
) -> FormalInverse:
    """F^-1 of degree <= the cap, `default_degree_cap(F)` unless given, or
    an exception that names why there is none.

    The inverse is `elim.inverse_map` (van den Essen's criterion) within
    the degree budget max(`elim.MAX_DEGREE`, cap); its BudgetExceededError
    propagates.  SingularMatrixError, raised before any basis, means DF(0),
    the matrix of linear coefficients, is singular, so F is no automorphism.
    NotInvertibleError means no inverse of degree <= the cap: det DF is not
    a nonzero constant, or the basis certifies none within the cap.  The
    same bound applied to G = F^-1 gives d <= (deg G)^(n-1), so a cap with
    cap^(n-1) < d raises it at once, without det DF or the basis.  At the
    default cap it means "not invertible"; at a lower one, only "not
    invertible within bound".  A caller that already has det DF passes it
    as `det`.
    """
    if not F.is_square():
        raise ValueError("map must have as many components as variables")
    if degree_cap is None:
        degree_cap = default_degree_cap(F)
    if degree_cap < 1:
        raise ValueError("degree cap must be at least 1")
    if fraction_matrix_det(_linear_part(F)) == 0:
        raise SingularMatrixError("DF(0) is singular; no formal inverse")
    if degree_cap ** (F.n - 1) >= F.max_degree():
        if det is None:
            det = jacobian_det(F)
        if det.is_constant() and not det.is_zero():
            G = inverse_map(F, max(MAX_DEGREE, degree_cap))
            if G is not None and G.max_degree() <= degree_cap:
                return FormalInverse(map=G, degree_bound=degree_cap)
    raise NotInvertibleError(f"not invertible within bound (cap {degree_cap})")


# ---- cubic-linear (Druzkowski) forms ----


@dataclass(frozen=True)
class CubicLinearForm:
    """Matrix A whose rows a_i realize F_i(X) = X_i + <a_i, X>^3.

    `to_map` expands the map once for each variable tuple and keeps it on
    the form; the kept maps take no part in equality, hashing or repr."""

    matrix: tuple  # tuple of row tuples of Fractions
    _maps: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
        """F over `variables` (x1..xn unless given).  A map the form already
        holds over other names is renamed, not expanded again."""
        if variables is None:
            variables = tuple(f"x{i}" for i in range(1, self.n + 1))
        variables = tuple(variables)
        if len(variables) != self.n:
            raise ValueError("variable count does not match matrix size")
        F = self._maps.get(variables)
        if F is None:
            if self._maps:
                held = next(iter(self._maps.values()))
                F = PolyMap([Polynomial._raw(variables, c.terms) for c in held.components])
            else:
                F = _expand(self.matrix, variables)
            self._maps[variables] = F
        return F


def _packed_cube(packed):
    """The {packed monomial: int} cube of a packed term list; a sum that
    cancels stays as a 0.  The one cube of `to_map` and `as_cubic_linear`."""
    return _mul_into({}, packed, _mul_into({}, packed, packed).items())


def _expand(matrix, variables) -> PolyMap:
    """X_i + <a_i, X>^3 for each row a_i, on packed integers: a row's
    denominators are cleared once, and each output term is one Fraction."""
    n = len(variables)
    layout = _grlex_layout(n, 3)
    units = [layout(tuple(int(j == i) for j in range(n))) for i in range(n)]
    comps = []
    for v, unit, row in zip(variables, units, matrix):
        den, nums = _clear_denominators(row)
        form = [(u, a) for u, a in zip(units, nums) if a]
        if not form:  # a zero row: F_i = X_i
            comps.append(Polynomial.variable(variables, v))
            continue
        scale = den**3
        terms = [*_packed_cube(form).items(), (unit, scale)]
        comps.append(_from_packed(variables, terms, scale, layout))
    return PolyMap(comps)


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


def _is_cube(form: Polynomial, rest: Polynomial) -> bool:
    """form**3 == rest for a linear form and a homogeneous cubic, on packed
    integers: with form = P_f/d_f and rest = P_rest/d_rest, the test is
    P_f^3 * d_rest == P_rest * d_f^3."""
    layout = _grlex_layout(len(form.variables), 3)
    d_f, p_f = _pack(form.terms, layout)
    d_rest, p_rest = _pack(rest.terms, layout)
    scale = d_f**3
    cube = {m: c * d_rest for m, c in _packed_cube(p_f).items() if c}
    return cube == {m: c * scale for m, c in p_rest}


def as_cubic_linear(F: PolyMap):
    """Recognize F_i = X_i + <a_i, X>^3 and return the matrix A.

    Returns a CubicLinearForm, or a CubicLinearRejection naming the first
    offending component.  Works over Q; integrality of A is a separate
    query on the result.  Recognition proves F_i = X_i + <a_i, X>^3 term by
    term, so the form holds F itself as its map over F.variables.
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
        if not _is_cube(form, rest):
            return CubicLinearRejection(i, "remainder is not the cube of a linear form")
        rows.append(tuple(coeffs))
    form = CubicLinearForm(tuple(rows))
    form._maps[variables] = F
    return form
