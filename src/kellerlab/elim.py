"""Groebner bases over Q: elimination ideals, minimal polynomials of map
coordinates, fiber counting, and formal-degree resultants/discriminants.

Buchberger with the normal selection strategy and both classical criteria,
on polyring's packed monomials: a term order is a `MonomialLayout`, and the
working basis holds packed ints mapped to Fractions.  A hard budget (basis
size, total degree, field overflow) turns runaway computations into clean
BudgetExceededError instead of hangs.  Desk scale only: elimination tasks
with roughly n <= 4 variables and total degree <= 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._linalg import poly_matrix_det
from .errors import (
    BudgetExceededError,
    InternalCheckError,
    NotDominantError,
    NotZeroDimensionalError,
    VariableMismatchError,
)
from .polyring import (
    MonomialLayout,
    Polynomial,
    PolyMap,
    coefficients_in,
    exact_div,
    make_primitive,
    rename_variables,
    with_variables,
)

# ---- term orders ----


@dataclass(frozen=True)
class TermOrder:
    """Monomial order given by a kind and a variable priority permutation.

    kind 'lex' or 'grlex' uses the priority list directly; kind 'block'
    compares the first `split` priority variables grlex, then the rest
    grlex (an elimination order for the first block).
    """

    kind: str
    priority: tuple
    split: int = 0

    def __post_init__(self):
        if self.kind not in ("lex", "grlex", "block"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == "block" and not (0 <= self.split <= len(self.priority)):
            raise ValueError("block split index out of range")

    @classmethod
    def lex(cls, variables):
        return cls("lex", tuple(variables))

    @classmethod
    def grlex(cls, variables):
        return cls("grlex", tuple(variables))

    @classmethod
    def block(cls, eliminate, keep):
        eliminate, keep = tuple(eliminate), tuple(keep)
        return cls("block", eliminate + keep, len(eliminate))

    def key_function(self, variables):
        """Packed-monomial layout over `variables`: packed ints sort in this order."""
        variables = tuple(variables)
        if set(self.priority) != set(variables) or len(self.priority) != len(variables):
            raise VariableMismatchError(
                "order priority is not a permutation of the ring variables"
            )
        idx = tuple(variables.index(name) for name in self.priority)
        if self.kind == "block":
            blocks = ((True, idx[: self.split]), (True, idx[self.split :]))
        else:
            blocks = ((self.kind == "grlex", idx),)
        return MonomialLayout(blocks, _FIELD_WIDTH)


@dataclass(frozen=True)
class Ideal:
    """Generator list over one shared variable list.

    The zero ideal is represented by a single zero generator.
    """

    generators: tuple

    def __post_init__(self):
        if not self.generators:
            raise ValueError("ideal needs at least one generator")
        vars0 = self.generators[0].variables
        for g in self.generators[1:]:
            if g.variables != vars0:
                raise VariableMismatchError("generators over different variables")

    @property
    def variables(self):
        return self.generators[0].variables

    def is_zero(self) -> bool:
        return all(g.is_zero() for g in self.generators)


@dataclass(frozen=True)
class GroebnerBudget:
    max_basis: int = 300
    max_degree: int = 80


DEFAULT_BUDGET = GroebnerBudget()


# ---- reduction and Buchberger on packed monomials ----
#
# Polynomials are {packed monomial: Fraction} maps under the order's layout.
# A new term that sets a guard bit overflowed its field: that raises
# BudgetExceededError instead of wrapping into a wrong basis.

_FIELD_WIDTH = 16  # bits per packed field, guard bit included
_OVERFLOW = "exponent exceeds a packed monomial field; input beyond desk scale"


def _packed(p: Polynomial, layout):
    """p as a {packed monomial: Fraction} map; no field can exceed its degree."""
    if p.total_degree() >= 1 << (layout.width - 1):
        raise BudgetExceededError(_OVERFLOW)
    return {layout(m): c for m, c in p.terms.items()}


def _unpacked(p, variables, layout) -> Polynomial:
    unpack = layout.unpack
    return Polynomial._raw(variables, {unpack(m): c for m, c in p.items()})


def _sub_multiple(work, shift, factor, g, layout):
    """work -= factor * (monomial `shift`) * g, in place."""
    get, guard = work.get, layout.guard
    for m, c in g.items():
        t = m + shift
        s = get(t)
        if s is None:
            if t & guard:
                raise BudgetExceededError(_OVERFLOW)
            work[t] = -factor * c
            continue
        s -= factor * c
        if s:
            work[t] = s
        else:
            del work[t]


def _normal_form(work, basis, layout):
    """Full normal form of `work` (consumed) modulo (lead, polynomial) pairs;
    each step reduces the largest term by the first lead dividing it."""
    guard = layout.guard
    remainder = {}
    while work:
        m = max(work)
        for lead, g in basis:
            d = m - lead
            if d >= 0 and not d & guard:
                _sub_multiple(work, d, work[m] / g[lead], g, layout)
                break
        else:
            remainder[m] = work.pop(m)
    return remainder


def _lcm(a, b, layout):
    # each field of the lcm is below twice the field range: it cannot carry
    lcm = layout(map(max, layout.unpack(a), layout.unpack(b)))
    if lcm & layout.guard:
        raise BudgetExceededError(_OVERFLOW)
    return lcm


def _s_polynomial(f, g, layout):
    lf, lg = max(f), max(g)
    lcm = _lcm(lf, lg, layout)
    work = {}
    _sub_multiple(work, lcm - lf, -1 / f[lf], f, layout)
    _sub_multiple(work, lcm - lg, 1 / g[lg], g, layout)
    return work


def _monic(p):
    lc = p[max(p)]
    if lc == 1:
        return p
    return {m: c / lc for m, c in p.items()}


def reduce_poly(p: Polynomial, basis, key) -> Polynomial:
    """Full normal form of p modulo nonzero polynomials; `key` from key_function."""
    packed = [_packed(g, key) for g in basis]
    work = _normal_form(_packed(p, key), [(max(g), g) for g in packed], key)
    return _unpacked(work, p.variables, key)


def _spoly(f: Polynomial, g: Polynomial, key) -> Polynomial:
    s = _s_polynomial(_packed(f, key), _packed(g, key), key)
    return _unpacked(s, f.variables, key)


def groebner(I: Ideal, order: TermOrder, budget: GroebnerBudget = DEFAULT_BUDGET) -> Ideal:
    """Reduced Groebner basis of I with respect to `order`."""
    variables = I.variables
    layout = order.key_function(variables)
    guard = layout.guard
    basis = []  # (lead, monic packed polynomial)
    for g in sorted(
        (_packed(g, layout) for g in I.generators if not g.is_zero()),
        key=lambda g: sorted(g, reverse=True),
    ):
        g = _monic(g)
        if all(g != h for _, h in basis):
            basis.append((max(g), g))
    if not basis:
        return Ideal((Polynomial.zero(variables),))

    def divides(a, b):
        d = b - a
        return d >= 0 and not d & guard

    # pending pairs (i, j), i < j, with the lcm of their leads
    pairs = {
        (i, j): _lcm(basis[i][0], basis[j][0], layout)
        for i in range(len(basis))
        for j in range(i + 1, len(basis))
    }
    while pairs:
        i, j = min(pairs, key=lambda ij: (pairs[ij], ij))
        lcm = pairs.pop((i, j))
        # product criterion: coprime leading monomials
        if lcm == basis[i][0] + basis[j][0]:
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not divides(basis[k][0], lcm):
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik not in pairs and pjk not in pairs:
                skip = True
                break
        if skip:
            continue
        s = _s_polynomial(basis[i][1], basis[j][1], layout)
        r = _normal_form(s, basis, layout)
        if not r:
            continue
        degree = max(sum(layout.unpack(m)) for m in r)
        if degree > budget.max_degree:
            raise BudgetExceededError(
                f"basis element degree {degree} exceeds budget "
                f"{budget.max_degree}; input beyond desk scale"
            )
        r_lead = max(r)
        r = _monic(r)
        basis.append((r_lead, r))
        if len(basis) > budget.max_basis:
            raise BudgetExceededError(
                f"basis size exceeds budget {budget.max_basis}; input beyond desk scale"
            )
        t = len(basis) - 1
        pairs.update(((s, t), _lcm(basis[s][0], r_lead, layout)) for s in range(t))

    # minimalize (drop generators whose lead is divisible by another lead),
    # then autoreduce every survivor against the others; a minimal lead is
    # divisible by no other lead, so it survives with coefficient 1
    minimal = []
    for lead, g in sorted(basis, key=lambda lg: lg[0]):
        if not any(divides(h, lead) for h, _ in minimal):
            minimal.append((lead, g))
    for idx, (lead, g) in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        minimal[idx] = (lead, _normal_form(dict(g), others, layout))
    minimal.sort(key=lambda lg: lg[0])
    return Ideal(tuple(_unpacked(g, variables, layout) for _, g in minimal))


def eliminate(I: Ideal, keep, budget: GroebnerBudget = DEFAULT_BUDGET) -> Ideal:
    """Generators of I intersected with Q[keep], via a block order."""
    keep = list(keep)
    variables = I.variables
    unknown = [v for v in keep if v not in variables]
    if unknown:
        raise VariableMismatchError(f"unknown variable(s) {unknown}")
    gone = [v for v in variables if v not in keep]
    kept = tuple(v for v in variables if v in keep)
    order = TermOrder.block(gone, kept)
    G = groebner(I, order, budget)
    if G.is_zero():
        return Ideal((Polynomial.zero(kept),))
    gens = [
        with_variables(g, kept)
        for g in G.generators
        if not (g.support_variables() & set(gone))
    ]
    if not gens:
        return Ideal((Polynomial.zero(kept),))
    return Ideal(tuple(gens))


# ---- minimal polynomials and fiber degree ----


def _fresh_names(base, count, taken):
    prefix = base
    while any(f"{prefix}{k}" in taken for k in range(1, count + 1)):
        prefix += base
    return [f"{prefix}{k}" for k in range(1, count + 1)]


def graph_ideal(F: PolyMap):
    """<F_1(X) - Y_1, ..., F_n(X) - Y_n> over Q[X, Y], with the Y names used."""
    xs = F.variables
    ys = _fresh_names("Y", F.n, set(xs))
    ring = tuple(xs) + tuple(ys)
    gens = []
    for f, y in zip(F.components, ys):
        gens.append(with_variables(f, ring) - Polynomial.variable(ring, y))
    return Ideal(tuple(gens)), ys


def inverse_map(F: PolyMap, budget: GroebnerBudget = DEFAULT_BUDGET):
    """F^-1 over F's variables when F is an automorphism, else None.

    van den Essen's criterion (Comm. Algebra 18, 1990): F is invertible iff
    the reduced Groebner basis of <Y - F(X)> under a block order with X > Y
    is {X_i - G_i(Y)}, and then G = F^-1.  The basis is its own
    certificate: X_i - G_i(Y) in the ideal gives G o F = X, so substitution
    by F is a surjective, hence bijective, endomorphism of Q[X].
    """
    if not F.is_square():
        raise ValueError("map must have as many components as variables")
    I, ys = graph_ideal(F)
    xs, n = F.variables, F.n
    G = [None] * n
    for g in groebner(I, TermOrder.block(xs, ys), budget).generators:
        # exactly one term meets X, and it is X_i with coefficient 1
        lead = [m for m in g.terms if any(m[:n])]
        if len(lead) != 1 or sum(lead[0]) != 1 or g.terms[lead[0]] != 1:
            return None
        i = lead[0].index(1)
        G[i] = Polynomial._raw(
            xs, {m[n:]: -c for m, c in g.terms.items() if m != lead[0]}
        )
    if None in G:
        return None
    return PolyMap(G)


def minimal_poly_of_coordinate(
    F: PolyMap, i: int, budget: GroebnerBudget = DEFAULT_BUDGET
) -> Polynomial:
    """h_i(Y, T): the algebraic relation satisfied by the i-th coordinate.

    `i` is 1-based, matching the h_i notation.  Returns the irreducible
    integer-primitive generator of the elimination ideal
    <F_1(X)-Y_1, ..., F_n(X)-Y_n> cap Q[Y, X_i], with X_i renamed to T, over
    the ring (Y1, ..., Yn, T).  It satisfies h_i(F(X), X_i) = 0 exactly.
    """
    if not 1 <= i <= F.n:
        raise ValueError(f"coordinate index {i} out of range 1..{F.n}")
    if not F.is_square():
        raise ValueError("map must have as many components as variables")
    I, ys = graph_ideal(F)
    xi = F.variables[i - 1]
    keep = ys + [xi]
    E = eliminate(I, keep, budget)
    if E.is_zero():
        raise NotDominantError(
            f"coordinate {xi!r} satisfies no algebraic relation over the image; "
            "map is not dominant"
        )
    gens = [g for g in E.generators if not g.is_zero()]
    if any(g.degree_in(xi) == 0 for g in gens):
        # a relation purely among the Y's: the image lies in a hypersurface
        raise NotDominantError(
            "image satisfies a relation not involving the coordinate; "
            "map is not dominant"
        )
    if len(gens) != 1:
        raise InternalCheckError(
            "elimination ideal of a dominant map coordinate is not principal"
        )
    h = gens[0]
    canonical = {y: f"Y{k}" for k, y in enumerate(ys, start=1)}
    canonical[xi] = "T"
    h = rename_variables(h, canonical)
    h = with_variables(h, tuple(f"Y{k}" for k in range(1, F.n + 1)) + ("T",))
    # Q[X, Y]/I is Q[X], a domain, so I and its contraction to Q[Y, X_i] are
    # prime: the principal generator h is irreducible, hence squarefree.
    return make_primitive(h)


def generic_fiber_degree(
    F: PolyMap, sample, budget: GroebnerBudget = DEFAULT_BUDGET
) -> int:
    """Dimension of Q[X]/<F_i(X) - sample_i>: fiber size with multiplicity.

    The sample must avoid degenerate values (caller's duty); a fiber ideal
    of positive dimension raises NotZeroDimensionalError.
    """
    if not F.is_square():
        raise ValueError("map must have as many components as variables")
    sample = [Fraction(s) for s in sample]
    if len(sample) != F.n:
        raise ValueError("sample length does not match component count")
    gens = tuple(f - s for f, s in zip(F.components, sample))
    order = TermOrder.grlex(F.variables)
    G = groebner(Ideal(gens), order, budget)
    if G.is_zero():
        raise NotZeroDimensionalError("fiber ideal is zero")
    key = order.key_function(F.variables)
    lms = [max(g.terms, key=key) for g in G.generators if not g.is_zero()]
    if any(sum(m) == 0 for m in lms):
        return 0  # 1 in the ideal: empty fiber
    nvars = len(F.variables)
    bounds = []
    for v in range(nvars):
        pure = [m[v] for m in lms if sum(m) == m[v] and m[v] > 0]
        if not pure:
            raise NotZeroDimensionalError(
                "fiber ideal is not zero-dimensional (sample hit a degenerate value)"
            )
        bounds.append(min(pure))

    # the standard monomials form a downset, so unit steps from the origin
    # reach all of them without leaving it
    count = 0
    stack = [(0,) * nvars]
    seen = {(0,) * nvars}
    while stack:
        m = stack.pop()
        if any(all(a <= b for a, b in zip(lm, m)) for lm in lms):
            continue
        count += 1
        for v in range(nvars):
            if m[v] + 1 <= bounds[v]:
                t = m[:v] + (m[v] + 1,) + m[v + 1 :]
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return count


# ---- resultants and discriminants ----


def resultant(
    p: Polynomial,
    q: Polynomial,
    t: str,
    formal_deg_p: int | None = None,
    formal_deg_q: int | None = None,
) -> Polynomial:
    """Determinant of the Sylvester matrix of (p, q) in t at formal degrees.

    Formal degrees default to the actual t-degrees; they may exceed them,
    in which case the top coefficients are zero polynomials.  Computing at a
    declared formal degree keeps the output a single polynomial identity
    when the coefficients are themselves polynomials that may drop degree
    on specialization.
    """
    if p.variables != q.variables:
        raise VariableMismatchError("resultant operands over different variables")
    variables = p.variables
    if t not in variables:
        raise ValueError(f"unknown variable {t!r}")
    dp = -1 if p.is_zero() else p.degree_in(t)
    dq = -1 if q.is_zero() else q.degree_in(t)
    m = max(dp, 0) if formal_deg_p is None else formal_deg_p
    n = max(dq, 0) if formal_deg_q is None else formal_deg_q
    if m < max(dp, 0) or n < max(dq, 0):
        raise ValueError("formal degree below actual degree")
    if m <= 0 and n <= 0:
        raise ValueError("at least one formal degree must be positive")
    zero = Polynomial.zero(variables)
    cp = coefficients_in(p, t)
    cq = coefficients_in(q, t)
    # row vectors of coefficients, highest power first, padded to formal degree
    rp = [(cp[k] if k < len(cp) else zero) for k in range(m, -1, -1)]
    rq = [(cq[k] if k < len(cq) else zero) for k in range(n, -1, -1)]
    size = m + n
    rows = []
    for shift in range(n):
        rows.append([zero] * shift + rp + [zero] * (size - shift - m - 1))
    for shift in range(m):
        rows.append([zero] * shift + rq + [zero] * (size - shift - n - 1))
    return poly_matrix_det(rows)


def discriminant(p: Polynomial, t: str, formal_degree: int) -> Polynomial:
    """Discriminant of p in t at a declared formal degree.

    For d >= 2 this is (-1)^(d(d-1)/2) Res_t(p, dp/dt) at formal degrees
    (d, d-1), divided exactly by the coefficient of t^d; for d = 1 it is
    the constant 1.
    """
    d = formal_degree
    if d < 1:
        raise ValueError("formal degree must be at least 1")
    if d == 1:
        return Polynomial.one(p.variables)
    coeffs = coefficients_in(p, t)
    if d >= len(coeffs) or coeffs[d].is_zero():
        raise InternalCheckError(
            "leading coefficient at the formal degree is zero; discriminant division "
            "is not defined"
        )
    lead = coeffs[d]
    res = resultant(p, p.partial_derivative(t), t, d, d - 1)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return exact_div(sign * res, lead)
