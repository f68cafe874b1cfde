"""Map surgeries: scaling conjugation, variable extension, linear conjugation,
translation to the origin, the diagonal weight transform that keeps
cubic-linear forms integral, and the one-variable extension used by the
sum-of-squares reduction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._linalg import fraction_matrix_inverse
from .errors import InternalCheckError
from .keller import CubicLinearForm, is_keller
from .polyring import Polynomial, PolyMap, _as_int, fresh_names, with_variables


def scale_conjugate(F: PolyMap, r) -> PolyMap:
    """(1/r) F(rX) for r != 0; requires F(0) = 0.

    On homogeneous components this is G1 + r G2 + ... + r^(k-1) Gk, so
    integrality is preserved for integer r and maps with integer
    coefficients.  It is computed term by term: c X^m becomes
    c r^(|m|-1) X^m.
    """
    r = Fraction(r)
    if r == 0:
        raise ValueError("scale factor must be nonzero")
    if not F.fixes_origin():
        raise ValueError("map must fix the origin")
    return PolyMap([
        Polynomial._raw(F.variables, {m: c * r ** (sum(m) - 1) for m, c in p.terms.items()})
        for p in F.components
    ])


def _diagonal_conjugate(F: PolyMap, s) -> PolyMap:
    """S^-1 F(S X) for a square F and S = diag(s), s nonzero: the rule of
    `scale_conjugate` with one scale per variable, c X^m in component i
    becoming c prod_j s_j^m_j / s_i X^m."""
    top = max(0, F.max_degree())
    powers = [[x**e for e in range(top + 1)] for x in s]
    comps = []
    for si, p in zip(s, F.components):
        terms = {}
        for m, c in p.terms.items():
            for pw, e in zip(powers, m):
                if e:
                    c *= pw[e]
            terms[m] = c / si
        comps.append(Polynomial._raw(F.variables, terms))
    return PolyMap(comps)


def extend_variables(F: PolyMap, m: int) -> PolyMap:
    """(F(X), Y): append m fresh coordinates that the map fixes; F is re-embedded.

    The fresh names are z1..zm, or zz1..zzm (and so on) when those clash."""
    if m < 0:
        raise ValueError("number of new variables must be non-negative")
    if m == 0:
        return F
    new_names = fresh_names("z", m, F.variables)
    ring = F.variables + tuple(new_names)
    comps = [with_variables(c, ring) for c in F.components]
    comps.extend(Polynomial.variable(ring, v) for v in new_names)
    return PolyMap(comps)


def conjugate_by_linear(F: PolyMap, A) -> PolyMap:
    """A o F o A^-1 for an invertible rational matrix A."""
    variables = F.variables
    n = len(variables)
    rows = [[Fraction(x) for x in row] for row in A]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("matrix size does not match the variable count")
    mid = F.compose(PolyMap.linear(fraction_matrix_inverse(rows), variables))
    return PolyMap.linear(rows, variables).compose(mid)


def translate_to_origin(F: PolyMap, a) -> PolyMap:
    """Z -> F(Z - a) - F(-a); the result vanishes at 0.

    The subtracted constant is the value of the shifted map at the origin,
    that is its constant term, so the output fixes 0 by construction (for
    even maps this coincides with subtracting F(a)).
    """
    variables = F.variables
    a = [Fraction(x) for x in a]
    if len(a) != len(variables):
        raise ValueError("translation vector length does not match variables")
    shift = PolyMap([Polynomial.variable(variables, v) - ai for v, ai in zip(variables, a)])
    origin = (0,) * len(variables)
    return PolyMap([c - c.coefficient(origin) for c in F.compose(shift).components])


@dataclass(frozen=True)
class DiagonalTransform:
    """Nonzero integer weights w, acting through T_i(X) = w_i^3 X_i."""

    weights: tuple

    def __post_init__(self):
        w = tuple(map(_as_int, self.weights))
        if not w or any(x == 0 for x in w):
            raise ValueError("all weights must be nonzero integers")
        object.__setattr__(self, "weights", w)

    @property
    def cubes(self):
        return tuple(w**3 for w in self.weights)

    @property
    def delta(self) -> int:
        return math.prod(self.cubes)


def _theoremB_rows(matrix, w):
    """a_i = (w_i^-1 prod_j w_j^2) (w_j^3 b_ij)_j for the rows b_i of `matrix`."""
    prod_w2 = math.prod(x * x for x in w)
    rows = []
    for i, b in enumerate(matrix):
        scale = Fraction(prod_w2, w[i])
        row = tuple(scale * w[j] ** 3 * b[j] for j in range(len(b)))
        if any(x.denominator != 1 for x in row):
            raise InternalCheckError("diagonal transform produced a non-integer row")
        rows.append(row)
    return rows


def theoremB_diagonal(form: CubicLinearForm, transform: DiagonalTransform) -> CubicLinearForm:
    """Integer cubic-linear form of (1/delta) T^-1 o F o T(delta X).

    Closed form for the output rows: a_i = (w_i^-1 prod_j w_j^2) (v_j b_ij)_j
    with v_j = w_j^3.  The closed formula is verified against the defining
    composition on every call; a mismatch raises InternalCheckError.  X ->
    delta T X is diagonal, so the composition is taken term by term: c X^m
    in component i becomes c prod_j (delta v_j)^m_j / (delta v_i) X^m.  The
    output form keeps the map it was checked against.
    """
    if len(transform.weights) != form.n:
        raise ValueError("weight count does not match the form dimension")
    if not form.is_integral():
        raise ValueError("input form must have integer entries")
    result = CubicLinearForm(tuple(_theoremB_rows(form.matrix, transform.weights)))

    variables = tuple(f"x{i}" for i in range(1, form.n + 1))
    delta = transform.delta
    composed = _diagonal_conjugate(form.to_map(variables), [delta * v for v in transform.cubes])
    if composed != result.to_map(variables):
        raise InternalCheckError("closed row formula disagrees with the composition")
    return result


def _cor1_rows(matrix):
    """The rows of `matrix`, each with its sum appended, and a zero row."""
    rows = [tuple(row) + (sum(row),) for row in matrix]
    rows.append(tuple(Fraction(0) for _ in range(len(matrix) + 1)))
    return rows


def cor1_extension(form: CubicLinearForm) -> CubicLinearForm:
    """Extend an n-dimensional cubic-linear form by one variable.

    The new matrix keeps the old rows, appends each row's sum as the last
    column, and adds a zero row, realizing
    G_i = F_i(X_1 + X_{n+1}, ..., X_n + X_{n+1}) - X_{n+1} with
    G_{n+1} = X_{n+1}.  Verifies the composition identity and that the
    extension is Keller whenever the input is; F and G are the forms' own
    maps, so the output form keeps the G it was checked against.
    """
    n = form.n
    result = CubicLinearForm(tuple(_cor1_rows(form.matrix)))

    variables = tuple(f"x{i}" for i in range(1, n + 2))
    last = Polynomial.variable(variables, variables[n])
    shift = [[int(j in (i, n)) for j in range(n + 1)] for i in range(n)]
    F = form.to_map(variables[:n])
    expected = [c - last for c in F.compose(PolyMap.linear(shift, variables)).components]
    expected.append(last)
    G = result.to_map(variables)
    if PolyMap(expected) != G:
        raise InternalCheckError("extension matrix disagrees with the composition")

    if is_keller(F) and not is_keller(G):
        raise InternalCheckError("extension of a Keller form is not Keller")
    return result


def choose_clearing_scale(S) -> int:
    """Positive r with S cap rZ^n = {0}: 1 + the largest coordinate size.

    Any nonzero s in S has some coordinate in [1, r-1], hence is not
    divisible by r.  r = 1 when S has no nonzero element.
    """
    best = 0
    for s in S:
        s = tuple(map(_as_int, s))
        if any(s):
            best = max(best, max(abs(x) for x in s))
    return best + 1 if best else 1
