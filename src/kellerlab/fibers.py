"""Bifurcation machinery for polynomial maps: the hypersurface polynomial
H built from the leading coefficients of the coordinate relations h_i, the
cone form at infinity, the line-genericity polynomial sigma(U, V) = D * R,
and the arithmetic feasibility checker for branched covers of the line.

H comes from n per-coordinate Groebner eliminations.  `sigma` and
`assert_c2`, given no data or components, skip them when
`keller.formal_inverse` certifies F^-1: an automorphism is proper, so
H = 1, there is no cone and sigma is 1.  Its default cap, the
Bass-Connell-Wright bound, holds every inverse there is.  When it raises,
because there is no inverse or the basis exceeds its budget, they fall
back to the eliminations.

Every line resultant r(U, V) of sigma (D, and each factor of R) is one
resultant in t of p(U + tV) and q(U + tV), and two identities let it be
computed on the slice U1 = 0, V1 = 1 of the 2n line parameters:
Res_t(p(t + s), q(t + s)) = Res_t(p, q) gives r(U + sV, V) = r(U, V), and
p(U + t lambda V) = p(U + (lambda t) V) gives r(U, lambda V) =
lambda^k r(U, V) for k = deg p deg q (k = d^2 for D, whose dp/dt brings one
more lambda).  So r(U, V) = V1^k E((V1 U_j - U1 V_j) / V1, V_j / V1) for
E(u, w) = r((0, u), (1, w)), a resultant over 2n - 2 parameters, which is
re-expanded exactly on packed integers (`_slice_resultant`).

All outputs have rational coefficients by construction.
"""

from __future__ import annotations

import math
import random
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .elim import generic_fiber_degree, minimal_poly_of_coordinate, resultant
from .errors import (
    BudgetExceededError,
    InternalCheckError,
    NotInvertibleError,
    NotZeroDimensionalError,
    SingularMatrixError,
)
from .keller import formal_inverse
from .polyring import (
    Polynomial,
    PolyMap,
    _as_int,
    _clear_denominators,
    _from_packed,
    _grlex_layout,
    _mul_into,
    coefficients_in,
    divides,
    exact_div,
    make_primitive,
    poly_gcd,
    squarefree_part,
    substitute,
    with_variables,
)


@dataclass(frozen=True)
class Line:
    """The line {u + t v} through u with direction v != 0."""

    u: tuple
    v: tuple

    def __post_init__(self):
        u = tuple(Fraction(x) for x in self.u)
        v = tuple(Fraction(x) for x in self.v)
        if len(u) != len(v):
            raise ValueError("point and direction have different lengths")
        if not any(v):
            raise ValueError("direction must be nonzero")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return len(self.u)

    def in_dimension(self, n: int) -> "Line":
        """This line, once checked to lie in n-space."""
        if self.n != n:
            raise ValueError(f"point and direction must have {n} coordinates")
        return self


@dataclass(frozen=True)
class BifurcationData:
    """Per-map bundle: relations h_i over (Y, T), their leading coefficients
    a_i over Y, the reduced hypersurface polynomial H (constant 1 when the
    bifurcation set is empty), its leading form (None when H is constant),
    and the generic fiber degree when computed."""

    h: tuple
    a: tuple
    H: Polynomial
    cone_form: Polynomial | None
    fiber_degree: int | None

    @property
    def empty_bifurcation_set(self) -> bool:
        return self.H.is_constant()


@dataclass(frozen=True)
class ComponentData:
    """One irreducible component h_W of H with its restriction-map
    polynomials g_VW (both user-supplied; computing g_VW needs component
    decompositions that are out of scope)."""

    h_W: Polynomial
    g_list: tuple


def bifurcation_data(F: PolyMap, compute_fiber_degree: bool = True) -> BifurcationData:
    """Compute h_i, a_i, H, and the cone form for a dominant rational map.

    H is the lcm of the radicals of the distinct nonconstant a_i, which
    equals the squarefree part of their product (the radical of a product
    is the lcm of the factors' radicals), integer-primitive with a positive
    lex-leading coefficient; the constant 1 marks an empty bifurcation set.
    Each squarefree part is taken at the degree of one a_i, not of the
    product.
    The fiber degree is sampled at seeded random integer points, resampling
    when the fiber ideal is degenerate or the sample lies on {H = 0}.  The
    cone form is the top-degree part of H.

    The a_i construction captures the non-proper (asymptotic) value set;
    for locally diffeomorphic maps that is the whole bifurcation set, which
    is the intended use.  Maps with critical points also have critical
    values outside {H = 0}.
    """
    hs = tuple(minimal_poly_of_coordinate(F, i) for i in range(1, F.n + 1))
    y_ring = hs[0].variables[:-1]  # (Y1, ..., Yn, T) without T
    aas = tuple(with_variables(coefficients_in(h, "T")[-1], y_ring) for h in hs)
    H = _radical_lcm(aas, y_ring)
    cone = None if H.is_constant() else H.leading_form()

    degree = None
    if compute_fiber_degree:
        degree = _sample_fiber_degree(F, H)
    return BifurcationData(h=hs, a=aas, H=H, cone_form=cone, fiber_degree=degree)


def _radical_lcm(aas, ring) -> Polynomial:
    """The lcm of the radicals of the nonconstant a_i, over `ring`: the
    squarefree part of their product, 1 when there are none.

    Each a_i is made primitive, so that a_i and -a_i count once, and each
    distinct one gets one `squarefree_part`; a radical r joins H as
    H * (r / gcd(H, r)).  A radical is unique up to a unit, and the sign
    rule, applied once at the end, picks the representative that the
    squarefree part of the product has."""
    H = None
    seen = set()
    for a in aas:
        if a.is_constant():
            continue
        a = make_primitive(a)
        if a in seen:
            continue
        seen.add(a)
        r = squarefree_part(a)
        H = r if H is None else H * exact_div(r, poly_gcd(H, r))
    return Polynomial.one(ring) if H is None else make_primitive(H)


def _sample_fiber_degree(F, H):
    rng = random.Random(1729)  # a fixed stream, so d_F is reproducible
    for trial in range(40):
        span = 7 + 2 * trial
        sample = [Fraction(rng.randint(-span, span)) for _ in range(F.n)]
        if H.evaluate(sample) == 0:
            continue
        try:
            d = generic_fiber_degree(F, sample)
        except NotZeroDimensionalError:
            continue
        if d > 0:
            return d
    raise NotZeroDimensionalError(
        "could not find a sample with a zero-dimensional fiber"
    )


def _uv_ring(n):
    us = tuple(f"U{k}" for k in range(1, n + 1))
    vs = tuple(f"V{k}" for k in range(1, n + 1))
    return us, vs


def _on_slice(p: Polynomial) -> Polynomial:
    """p(U + tV) on the slice U1 = 0, V1 = 1: p's first variable goes to t
    and its k-th to U_k + t V_k, over the ring (U2..Un, V2..Vn, t)."""
    us, vs = _uv_ring(len(p.variables))
    ring = us[1:] + vs[1:] + ("t",)
    t = Polynomial.variable(ring, "t")
    line = [t] + [
        Polynomial.variable(ring, u) + t * Polynomial.variable(ring, v)
        for u, v in zip(us[1:], vs[1:])
    ]
    return substitute(p, dict(zip(p.variables, line)), ring)


def _slice_resultant(p: Polynomial, q: Polynomial, k: int, n: int) -> Polynomial:
    """The line resultant r(U, V) over (U, V), from p and q on the slice.

    E(u, w) = Res_t(p, q) is r((0, u), (1, w)), and r is invariant under
    U -> U + sV and homogeneous of degree k in V, so

        r(U, V) = V1^k E((V1 U_j - U1 V_j) / V1, V_j / V1).

    A term c u^a w^b of E gives c prod_j L_j^(a_j) V^b V1^(k - |a| - |b|)
    with L_j = V1 U_j - U1 V_j, an exponent of V1 that only the sum need
    keep non-negative.  So every term is lifted by V1^(top - |a| - |b|),
    top = max(k, largest |a| + |b|), the terms are grouped by a and each
    group multiplied once by prod_j L_j^(a_j) on packed integers, and V1 is
    shifted down by top - k at the end; a term that this would leave with
    a negative exponent raises InternalCheckError.
    """
    us, vs = _uv_ring(n)
    E = resultant(p, q, "t")
    if E.is_zero():
        return Polynomial.zero(us + vs)
    m = n - 1
    top = max(k, max(sum(e) for e in E.terms))  # e's t exponent is 0
    # a lifted product has degree top + |a| <= 2 top
    layout = _grlex_layout(2 * n, 2 * top)

    zero = (0,) * (2 * n)
    units = [layout(zero[:i] + (1,) + zero[i + 1 :]) for i in range(2 * n)]  # U, then V
    powers = {}

    def power(j, e):
        # L_j^e = sum_i C(e, i) (V1 U_j)^(e - i) (-U1 V_j)^i, for U_j at index j
        if (j, e) not in powers:
            a, b = units[j] + units[n], units[0] + units[n + j]
            powers[j, e] = [((e - i) * a + i * b, (-1) ** i * math.comb(e, i))
                            for i in range(e + 1)]
        return powers[j, e]

    den, nums = _clear_denominators(E.terms.values())
    groups = {}
    for e, c in zip(E.terms, nums):
        alpha, beta = e[:m], e[m : 2 * m]
        key = (top - sum(e)) * units[n] + sum(map(mul, beta, units[n + 1 :]))
        groups.setdefault(alpha, []).append((key, c))
    acc = {}
    for alpha, group in groups.items():
        factor = [(0, 1)]
        for j, a in enumerate(alpha, start=1):
            if a:
                factor = _mul_into({}, factor, power(j, a)).items()
        _mul_into(acc, group, factor)
    shift = (top - k) * units[n]
    guard = layout.guard
    out = []
    for key, c in acc.items():
        if c:
            key -= shift
            if key < 0 or key & guard:
                raise InternalCheckError("a line resultant has a negative power of V1")
            out.append((key, c))
    return _from_packed(us + vs, out, den, layout)


def poly_D(H: Polynomial) -> Polynomial:
    """coneform(V) * Disc_t(H(U + tV)), over (U, V).

    The t-leading coefficient of p = H(U + tV) is coneform(V), a nonzero
    polynomial, so p has t-degree d = deg H and D is one resultant:
    coneform(V) * Disc_t(p) = (-1)^(d(d-1)/2) Res_t(p, dp/dt).  The cone
    factor makes D vanish whenever a specialized direction lies on the cone
    at infinity (where the t-degree drops), which the discriminant alone
    would miss; for d = 1, dp/dt is coneform(V) itself and D is the cone
    factor alone.

    D is computed on the slice U1 = 0, V1 = 1 and re-expanded exactly
    (`_slice_resultant`), by two identities: Res_t(p(t + s), q(t + s)) =
    Res_t(p, q), so D(U + sV, V) = D(U, V); and H(U + t lambda V) =
    p(lambda t), whose t-derivative brings one more factor lambda, so
    D(U, lambda V) = lambda^(d^2) D(U, V).  On the slice the t-leading
    coefficient is coneform(1, V2, ..., Vn), still nonzero, so the slice
    resultant is taken at the same degrees (d, d - 1).
    """
    if H.is_constant():
        raise ValueError("H must be nonconstant")
    d = H.total_degree()
    p = _on_slice(H)
    if d * (d - 1) // 2 % 2:  # Res_t(-p, -dp/dt) = (-1)^(d + d - 1) Res_t(p, dp/dt)
        p = -p
    return _slice_resultant(p, p.partial_derivative("t"), d * d, len(H.variables))


def poly_R(components) -> Polynomial:
    """Product over components of Res_t(h_W(U+tV), g_VW(U+tV)); the empty
    product is the constant 1.  A polynomial p(U + tV) has t-degree deg p
    (its t-leading coefficient is the leading form of p at V), so these are
    the resultants at formal degrees (a, b) = (deg h_W, deg g_VW).  The k-th
    variable of each component's ring is bound to U_k + t V_k, so every
    component must be over one ring.

    Each factor r is invariant under U -> U + sV and satisfies r(U, lambda
    V) = lambda^(ab) r(U, V), so it is computed on the slice U1 = 0, V1 = 1
    and re-expanded exactly, as in `poly_D`."""
    components = tuple(components)
    if not components:
        return Polynomial.one(())
    ring = components[0].h_W.variables
    for comp in components:
        if comp.h_W.variables != ring or any(g.variables != ring for g in comp.g_list):
            raise ValueError("component polynomials over different variables")
    n = len(ring)
    us, vs = _uv_ring(n)
    total = Polynomial.one(us + vs)
    for comp in components:
        h = comp.h_W
        h_slice = _on_slice(h)
        for g in comp.g_list:
            k = h.total_degree() * g.total_degree()
            total = total * _slice_resultant(h_slice, _on_slice(g), k, n)
    return total


def _sigma_and_data(F: PolyMap, components, data) -> tuple:
    """(sigma, data), with data None when a certified inverse answered: the
    one route of `sigma`, `sigma_with_route` and `assert_c2`."""
    us, vs = _uv_ring(F.n)
    ring = us + vs
    if data is None:
        if not components:
            # no inverse, or a basis past its budget, leaves H to the eliminations
            with suppress(BudgetExceededError, NotInvertibleError, SingularMatrixError):
                formal_inverse(F)
                return Polynomial.one(ring), None
        data = bifurcation_data(F, compute_fiber_degree=False)
    if components:
        # poly_R binds variables by position, so put every component in H's
        # ring by name first
        components = [
            ComponentData(
                with_variables(comp.h_W, data.H.variables),
                tuple(with_variables(g, data.H.variables) for g in comp.g_list),
            )
            for comp in components
        ]
        if not all(divides(comp.h_W, data.H) for comp in components):
            raise ValueError("component polynomial does not divide H")
    if data.empty_bifurcation_set:
        s = Polynomial.one(ring)
    else:
        s = poly_D(data.H)
        if components:
            s = s * poly_R(components)
    return s, data


def sigma(
    F: PolyMap,
    components=None,
    data: BifurcationData | None = None,
) -> Polynomial:
    """The genericity certificate polynomial D(U, V) R(U, V).

    Vanishes exactly on the lines that fail transversality, have direction
    on the cone at infinity, or meet the supplied bad components.  When the
    bifurcation set is empty the constant 1 is returned: every line is
    generic.  Component data is optional input; with none supplied R = 1.
    Component variables are matched to H's by name.  H comes by the
    module's route; `sigma_with_route` also says which way.
    """
    return _sigma_and_data(F, components, data)[0]


def sigma_with_route(
    F: PolyMap,
    components=None,
    data: BifurcationData | None = None,
) -> tuple:
    """(sigma(F, components, data), route), where route is "inverse" when a
    certified polynomial inverse gave sigma = 1 and "elimination" when H
    did."""
    s, data = _sigma_and_data(F, components, data)
    return s, "inverse" if data is None else "elimination"


@dataclass(frozen=True)
class C2Status:
    """Outcome of one side of the genericity check; `ok` is None when the
    precondition (base point off the hypersurface, direction off the cone)
    fails, so the check does not apply."""

    ok: bool | None
    detail: str


def assert_c2(
    F: PolyMap,
    u,
    v,
    components=None,
    data: BifurcationData | None = None,
):
    """Check sigma(u, V) != 0 and sigma(U, v) != 0 as polynomials.

    Returns a pair of C2Status: the first for the fixed base point u (needs
    H(u) != 0), the second for the fixed direction v (needs coneform(v) != 0,
    vacuous when the bifurcation set is empty).  (u, v) must be a `Line` in
    F's space; a certified inverse answers, as in `sigma`.
    """
    line = Line(u, v).in_dimension(F.n)
    u, v = line.u, line.v
    us, vs = _uv_ring(F.n)
    ring = us + vs
    s, data = _sigma_and_data(F, components, data)

    def side(fixed_names, values, label):
        bind = {name: Polynomial.variable(ring, name) for name in ring}
        bind.update(zip(fixed_names, values))
        if substitute(s, bind, ring).is_zero():
            return C2Status(False, f"{label} vanishes identically")
        return C2Status(True, f"{label} is not identically zero")

    if data is not None and not data.empty_bifurcation_set and data.H.evaluate(u) == 0:
        first = C2Status(None, "precondition violated: u lies on {H = 0}")
    else:
        first = side(us, u, "sigma(u, V)")
    if data is not None and data.cone_form is not None and data.cone_form.evaluate(v) == 0:
        second = C2Status(None, "precondition violated: v lies on the cone at infinity")
    else:
        second = side(vs, v, "sigma(U, v)")
    return first, second


# ---- arithmetic feasibility of the branch data ----


def _branch_data(d, local_degrees) -> tuple:
    """(d, local degrees) as ints, d >= 1 and each degree in [1, d]."""
    d = _as_int(d)
    if d < 1:
        raise ValueError("covering degree must be at least 1")
    local_degrees = list(map(_as_int, local_degrees))
    for e in local_degrees:
        if not 1 <= e <= d:
            raise ValueError(f"local degree {e} outside [1, {d}]")
    return d, local_degrees


def hurwitz_genus(d: int, local_degrees) -> Fraction:
    """Genus solving 2 - 2g = 2d - sum(deg_a - 1) over the points at infinity.

    This is the Riemann-Hurwitz count for a degree-d cover of the line
    ramified only over infinity, so g = (2 - 2d + sum(deg_a - 1)) / 2.  The
    result may be negative or non-integral; the caller interprets that as
    infeasibility of the proposed branch data.
    """
    d, local_degrees = _branch_data(d, local_degrees)
    ramification = sum(e - 1 for e in local_degrees)
    return Fraction(2 - 2 * d + ramification, 2)


def assertion3_feasible(d: int, local_degrees, g) -> tuple:
    """(feasible, reason) for branch data of a degree-d cover of the line.

    Rejects a non-integral genus, then the two impossible shapes for the
    curves at hand (a single branch at infinity forces d = 1 and g = 0, two
    branches force g = 0), then a negative genus.  d and the local degrees
    are checked as in `hurwitz_genus`.
    """
    d, local_degrees = _branch_data(d, local_degrees)
    g = Fraction(g)
    if g.denominator != 1:
        return False, "non-integral genus"
    n_branches = len(local_degrees)
    if n_branches == 1 and (d != 1 or g != 0):
        return False, "n_F=1 forces d=1, g=0"
    if n_branches == 2 and g != 0:
        return False, "n_F=2 forces g=0"
    if g < 0:
        return False, "negative genus"
    return True, "consistent branch data"
