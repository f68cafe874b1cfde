"""Bifurcation machinery for polynomial maps: the hypersurface polynomial
H built from the leading coefficients of the coordinate relations h_i, the
cone form at infinity, the line-genericity polynomial sigma(U, V) = D * R,
and the arithmetic feasibility checker for branched covers of the line.

H comes from n per-coordinate Groebner eliminations.  `sigma` and
`assert_c2` skip them when `keller.polynomial_inverse` certifies F^-1 with
one basis: an automorphism is proper, so its bifurcation set is empty and
sigma is 1.  When no inverse is found, or the basis exceeds its budget,
both fall back to the eliminations.

All outputs have rational coefficients by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .elim import generic_fiber_degree, minimal_poly_of_coordinate, resultant
from .errors import BudgetExceededError, NotZeroDimensionalError
from .keller import polynomial_inverse
from .polyring import (
    Polynomial,
    PolyMap,
    _as_int,
    coefficients_in,
    divides,
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

    H is the squarefree part of the product of the a_i, integer-primitive
    with a positive sign; the constant 1 marks an empty bifurcation set.
    The fiber degree is sampled at seeded random integer points, resampling
    when the fiber ideal is degenerate or the sample lies on {H = 0}.  The
    cone form is the top-degree part of H.

    The a_i construction captures the non-proper (asymptotic) value set;
    for locally diffeomorphic maps that is the whole bifurcation set, which
    is the intended use.  Maps with critical points also have critical
    values outside {H = 0}.
    """
    hs = tuple(minimal_poly_of_coordinate(F, i) for i in range(1, F.n + 1))
    y_ring = tuple(f"Y{k}" for k in range(1, F.n + 1))
    aas = []
    for h in hs:
        coeffs = coefficients_in(h, "T")
        lead = coeffs[-1]
        aas.append(with_variables(lead, y_ring))
    product = Polynomial.one(y_ring)
    for a in aas:
        product = product * a
    if product.is_constant():
        H = Polynomial.one(y_ring)
        cone = None
    else:
        H = squarefree_part(product)
        cone = H.leading_form()

    degree = None
    if compute_fiber_degree:
        degree = _sample_fiber_degree(F, H)
    return BifurcationData(
        h=hs, a=tuple(aas), H=H, cone_form=cone, fiber_degree=degree
    )


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


def _on_line(p: Polynomial, us, vs):
    """p(U + t V) over the ring (U..., V..., t)."""
    ring = us + vs + ("t",)
    t = Polynomial.variable(ring, "t")
    bindings = {}
    for name, uname, vname in zip(p.variables, us, vs):
        bindings[name] = (
            Polynomial.variable(ring, uname) + t * Polynomial.variable(ring, vname)
        )
    return substitute(p, bindings, ring)


def _line_resultant(p: Polynomial, q: Polynomial, us, vs) -> Polynomial:
    """Res_t(p, q) over (U..., V...), for p and q over (U..., V..., t)."""
    return with_variables(resultant(p, q, "t"), us + vs)


def poly_D(H: Polynomial) -> Polynomial:
    """coneform(V) * Disc_t(H(U + tV)), over (U, V).

    The t-leading coefficient of p = H(U + tV) is coneform(V), a nonzero
    polynomial, so p has t-degree d = deg H and D is one resultant:
    coneform(V) * Disc_t(p) = (-1)^(d(d-1)/2) Res_t(p, dp/dt).  The cone
    factor makes D vanish whenever a specialized direction lies on the cone
    at infinity (where the t-degree drops), which the discriminant alone
    would miss; for d = 1, dp/dt is coneform(V) itself and D is the cone
    factor alone.
    """
    if H.is_constant():
        raise ValueError("H must be nonconstant")
    us, vs = _uv_ring(len(H.variables))
    p = _on_line(H, us, vs)
    D = _line_resultant(p, p.partial_derivative("t"), us, vs)
    d = H.total_degree()
    return -D if d * (d - 1) // 2 % 2 else D


def poly_R(components) -> Polynomial:
    """Product over components of Res_t(h_W(U+tV), g_VW(U+tV)); the empty
    product is the constant 1.  A polynomial p(U + tV) has t-degree deg p
    (its t-leading coefficient is the leading form of p at V), so these are
    the resultants at formal degrees (deg h_W, deg g_VW).  The k-th
    variable of each component's ring is bound to U_k + t V_k."""
    components = tuple(components)
    if not components:
        return Polynomial.one(())
    n = len(components[0].h_W.variables)
    us, vs = _uv_ring(n)
    total = Polynomial.one(us + vs)
    for comp in components:
        h = comp.h_W
        h_line = _on_line(h, us, vs)
        for g in comp.g_list:
            if g.variables != h.variables:
                raise ValueError("component polynomials over different variables")
            total = total * _line_resultant(h_line, _on_line(g, us, vs), us, vs)
    return total


def _certified_inverse(F: PolyMap) -> bool:
    """Whether `keller.polynomial_inverse` certifies F^-1 (then H = 1, there
    is no cone and sigma = 1); a basis past its budget certifies nothing."""
    try:
        return polynomial_inverse(F) is not None
    except BudgetExceededError:
        return False


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
    Component variables are matched to H's by name.

    With neither `data` nor `components`, a polynomial inverse certified by
    `keller.polynomial_inverse` gives 1 at once, without the n coordinate
    eliminations of `bifurcation_data`.  When there is no such inverse, or
    its basis exceeds the Groebner budget, H comes from the eliminations.
    `sigma_with_route` also says which of the two answered.
    """
    return sigma_with_route(F, components, data)[0]


def sigma_with_route(
    F: PolyMap,
    components=None,
    data: BifurcationData | None = None,
) -> tuple:
    """(sigma(F, components, data), route), where route is "inverse" when a
    certified polynomial inverse gave sigma = 1 and "elimination" when H
    did."""
    us, vs = _uv_ring(F.n)
    ring = us + vs
    if data is None and not components and _certified_inverse(F):
        return Polynomial.one(ring), "inverse"
    if data is None:
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
        for comp in components:
            if not divides(comp.h_W, data.H):
                raise ValueError("component polynomial does not divide H")
    if data.empty_bifurcation_set:
        s = Polynomial.one(ring)
    else:
        s = poly_D(data.H)
        if components:
            s = s * poly_R(components)
    return s, "elimination"


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
    vacuous when the bifurcation set is empty).  With neither `data` nor
    `components` a certified inverse answers, as in `sigma`.
    """
    n = F.n
    u = [Fraction(x) for x in u]
    v = [Fraction(x) for x in v]
    if len(u) != n or len(v) != n:
        raise ValueError("point/direction length does not match the map")
    us, vs = _uv_ring(n)
    ring = us + vs
    inverse = data is None and not components and _certified_inverse(F)
    if not inverse and data is None:
        data = bifurcation_data(F, compute_fiber_degree=False)
    s = Polynomial.one(ring) if inverse else sigma(F, components=components, data=data)

    def side(fixed_names, values, label):
        bind = {name: Polynomial.variable(ring, name) for name in ring}
        bind.update(zip(fixed_names, values))
        if substitute(s, bind, ring).is_zero():
            return C2Status(False, f"{label} vanishes identically")
        return C2Status(True, f"{label} is not identically zero")

    if not inverse and not data.empty_bifurcation_set and data.H.evaluate(u) == 0:
        first = C2Status(None, "precondition violated: u lies on {H = 0}")
    else:
        first = side(us, u, "sigma(u, V)")
    if not inverse and data.cone_form is not None and data.cone_form.evaluate(v) == 0:
        second = C2Status(None, "precondition violated: v lies on the cone at infinity")
    else:
        second = side(vs, v, "sigma(U, v)")
    return first, second


# ---- arithmetic feasibility of the branch data ----


def hurwitz_genus(d: int, local_degrees) -> Fraction:
    """Genus solving 2 - 2g = 2d - sum(deg_a - 1) over the points at infinity.

    This is the Riemann-Hurwitz count for a degree-d cover of the line
    ramified only over infinity, so g = (2 - 2d + sum(deg_a - 1)) / 2.  The
    result may be negative or non-integral; the caller interprets that as
    infeasibility of the proposed branch data.
    """
    d = _as_int(d)
    if d < 1:
        raise ValueError("covering degree must be at least 1")
    local_degrees = list(map(_as_int, local_degrees))
    for e in local_degrees:
        if not 1 <= e <= d:
            raise ValueError(f"local degree {e} outside [1, {d}]")
    ramification = sum(e - 1 for e in local_degrees)
    return Fraction(2 - 2 * d + ramification, 2)


def assertion3_feasible(d: int, local_degrees, g) -> tuple:
    """(feasible, reason) for branch data of a degree-d cover of the line.

    Rejects a non-integral genus, then the two impossible shapes for the
    curves at hand (a single branch at infinity forces d = 1 and g = 0, two
    branches force g = 0), then a negative genus.
    """
    local_degrees = list(map(_as_int, local_degrees))
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
