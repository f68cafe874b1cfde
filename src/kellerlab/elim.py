"""Groebner bases over Q: elimination ideals, minimal polynomials of map
coordinates, fiber counting, and resultants.

`resultant` (Res_t at the actual t-degrees) is `polyring.resultant`, read
off the subresultant PRS that the gcd runs; it is imported here, where
`fibers` takes it from.

Buchberger with the normal selection strategy and the Gebauer-Moeller
pair update (JSC 6, 1988), on polyring's packed monomials: a term order is
a `MonomialLayout`.  The working basis holds primitive integer
polynomials, {packed monomial: int} maps with a positive leading
coefficient; normal forms are fraction-free and take the leading term from
a heap.  `_minimal_basis` runs Buchberger and drops the elements whose
lead another lead divides, and `_autoreduce` reduces minimal elements
against each other; each caller reads the result in packed form:
`groebner` makes every element of the reduced basis monic, `inverse_map`
builds each G_i with one Fraction per term, `eliminate` and
`minimal_poly_of_coordinate` autoreduce and convert only the elements free
of the eliminated variables, and `generic_fiber_degree` unpacks the leads
of the minimal basis alone, which are the reduced basis's leads.

A budget on basis size, total degree and packed-field overflow stops many
runaway computations with BudgetExceededError, but it bounds no time: a run
can stay below every budget for minutes.  The elimination behind
`bifurcation --no-fiber-degree` on the dense cubic (x1 + (x1+x2)^3,
x2 + (x2-x3)^3, x3 + (x1+x3)^3) is one such run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

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
    _from_packed,
    _pack,
    fresh_names,
    resultant,  # noqa: F401  (elim.resultant is the resultant of `fibers`)
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


# the Groebner budget: at most MAX_BASIS elements, each of total degree at
# most the caller's max_degree (MAX_DEGREE unless raised)
MAX_BASIS = 300
MAX_DEGREE = 80


# ---- reduction and Buchberger on packed monomials ----
#
# Polynomials are {packed monomial: int} maps under the order's layout; a
# basis element is primitive with a positive leading coefficient.  A new
# term that sets a guard bit overflowed its field: that raises
# BudgetExceededError instead of wrapping into a wrong basis.

_FIELD_WIDTH = 16  # bits per packed field, guard bit included
_OVERFLOW = "exponent exceeds a packed monomial field; input beyond desk scale"


def _packed(p: Polynomial, layout):
    """(den, P) with p = P/den and P a {packed monomial: int} map; no field
    can exceed p's degree."""
    if p.total_degree() >= 1 << (layout.width - 1):
        raise BudgetExceededError(_OVERFLOW)
    den, terms = _pack(p.terms, layout)
    return den, dict(terms)


def _primitive(p, lead):
    """p divided by its content, with a positive coefficient at `lead`."""
    content = gcd(*p.values())
    if p[lead] < 0:
        content = -content
    return p if content == 1 else {m: c // content for m, c in p.items()}


def _normal_form(work, basis, layout):
    """(scale, R) with R = scale * (full normal form of the integer map `work`)
    modulo (lead, primitive polynomial) pairs; `work` is left as it is.

    Each step reduces the largest term c*m by the first lead l*x^lead
    dividing it, fraction-free: with q = gcd(c, l) and d = m - lead,
    work <- (l/q)*work - (c/q)*x^d*g.  The largest term comes from a heap
    with lazy deletion: an entry whose monomial has left `work` is skipped.
    Inside the loop `work` is keyed by negated monomials, the heap's own
    entries, so the heap adds no int objects.  R is in descending order,
    so its first key is its leading monomial.
    """
    guard = layout.guard
    heap = [-m for m in work]
    work = dict(zip(heap, work.values()))
    heapify(heap)
    split = []  # (monomial, coefficient, scale when split off)
    scale = 1
    while heap:
        m = heappop(heap)
        c = work.get(m)
        if c is None:
            continue
        for lead, g in basis:
            d = -m - lead
            if d >= 0 and not d & guard:
                lc = g[lead]
                q = gcd(c, lc)
                a, b = lc // q, c // q
                if a != 1:
                    for t in work:
                        work[t] *= a
                    scale *= a
                get = work.get
                nd = -d
                for t, s in g.items():
                    t = nd - t
                    old = get(t)
                    if old is None:
                        if -t & guard:
                            raise BudgetExceededError(_OVERFLOW)
                        work[t] = -b * s
                        heappush(heap, t)
                        continue
                    old -= b * s
                    if old:
                        work[t] = old
                    else:
                        del work[t]
                break
        else:
            split.append((-m, work.pop(m), scale))
    return scale, {m: c * (scale // s) for m, c, s in split}


def _s_polynomial(f, g, lcm, guard):
    """(b/q)*x^(L - lf)*f - (a/q)*x^(L - lg)*g for basis pairs (lf, f) and
    (lg, g) with leading coefficients a, b, q = gcd(a, b), L = lcm(lf, lg)."""
    (lf, f), (lg, g) = f, g
    a, b = f[lf], g[lg]
    q = gcd(a, b)
    work = {}
    get = work.get
    for d, factor, p in ((lcm - lf, b // q, f), (lcm - lg, -a // q, g)):
        for t, s in p.items():
            t += d
            old = get(t)
            if old is None:
                if t & guard:
                    raise BudgetExceededError(_OVERFLOW)
                work[t] = factor * s
                continue
            old += factor * s
            if old:
                work[t] = old
            else:
                del work[t]
    return work


def reduce_poly(p: Polynomial, basis, key) -> Polynomial:
    """Full normal form of p modulo nonzero polynomials; `key` from key_function."""
    reducers = []
    for g in basis:
        _, g = _packed(g, key)
        reducers.append((max(g), g))
    den, work = _packed(p, key)
    scale, r = _normal_form(work, reducers, key)
    return _from_packed(p.variables, r.items(), scale * den, key)


def _packed_generators(polys, layout):
    """The nonzero polynomials among `polys` as integer maps under `layout`,
    each den * p for den the lcm of its denominators."""
    return [_packed(g, layout)[1] for g in polys if not g.is_zero()]


def _minimal_basis(gens, layout, max_degree: int):
    """Minimal Groebner basis of the ideal of the nonzero integer maps
    `gens` under `layout`'s order, as (lead, element) pairs in ascending
    order of their leads; [] when there are none.

    Each element is a primitive {packed monomial: int} map with a positive
    leading coefficient, and no lead divides another.  Its leads are those
    of the reduced basis, which `_reduced_basis` reaches by autoreduction.
    """
    guard = layout.guard

    def divides(a, b):
        d = b - a
        return d >= 0 and not d & guard

    # (lead, primitive packed polynomial with lead coefficient > 0), every
    # element in order of arrival; each one reduces
    basis = []
    leads = []  # the exponents of each basis lead, unpacked once
    active = []  # indices of the elements whose lead no later lead divides
    pairs = {}  # pending pair (i, j), i < j -> lcm of the two leads
    queue = []  # heap of (lcm, i, j); an entry no longer in `pairs` is stale

    def update(lead, g):
        """Add (lead, g) to the basis and update the pairs (Gebauer-Moeller)."""
        t = len(basis)
        exps = layout.unpack(lead)
        lcms = []  # lcm(s, t) for s < t
        for h in leads:
            # each field of the lcm is below twice the field range: it cannot carry
            m = layout(map(max, h, exps))
            if m & guard:
                raise BudgetExceededError(_OVERFLOW)
            lcms.append(m)
        basis.append((lead, g))
        leads.append(exps)
        # B_k: lead(t) divides lcm(i, j), and lcm(i, j) is neither lcm(i, t)
        # nor lcm(j, t), so the S-pairs (i, t) and (j, t) cover (i, j)
        for (i, j), m in list(pairs.items()):
            if divides(lead, m) and m != lcms[i] and m != lcms[j]:
                del pairs[i, j]
        # M: drop a new pair whose lcm is a proper multiple of another's;
        # F: of the pairs with equal lcm keep the first; the product
        # criterion drops a coprime pair with every other pair of its lcm
        new = {}  # lcm -> index s of the kept pair (s, t), None if dropped
        distinct = {lcms[s] for s in active}
        for s in active:
            m = lcms[s]
            if any(o != m and divides(o, m) for o in distinct):
                continue
            if m == basis[s][0] + lead:
                new[m] = None
            else:
                new.setdefault(m, s)
        for m, s in new.items():
            if s is not None:
                pairs[s, t] = m
                heappush(queue, (m, s, t))
        active[:] = [s for s in active if not divides(lead, basis[s][0])]
        active.append(t)

    for g in sorted(gens, key=lambda g: sorted(g, reverse=True)):
        lead = max(g)
        g = _primitive(g, lead)
        if all(g != h for _, h in basis):
            update(lead, g)
    while queue:
        lcm, i, j = heappop(queue)
        if pairs.pop((i, j), None) is None:
            continue
        s = _s_polynomial(basis[i], basis[j], lcm, guard)
        _, r = _normal_form(s, basis, layout)
        if not r:
            continue
        degree = max(map(layout.degree, r))
        if degree > max_degree:
            raise BudgetExceededError(
                f"basis element degree {degree} exceeds budget "
                f"{max_degree}; input beyond desk scale"
            )
        r_lead = next(iter(r))
        update(r_lead, _primitive(r, r_lead))
        if len(basis) > MAX_BASIS:
            raise BudgetExceededError(
                f"basis size exceeds budget {MAX_BASIS}; input beyond desk scale"
            )

    # minimalize: drop the elements whose lead another lead divides
    minimal = []
    for lead, g in sorted(basis, key=lambda lg: lg[0]):
        if not any(divides(h, lead) for h, _ in minimal):
            minimal.append((lead, g))
    return minimal


def _autoreduce(minimal, layout):
    """The elements of the minimal basis `minimal`, each reduced against
    the others and taken in their list order.

    Each element is a primitive {packed monomial: int} map with a positive
    leading coefficient that lists its terms in descending order, so its
    first key is its lead.  A minimal lead is divisible by no other lead, so
    it survives as the remainder's lead.  A lone element has nothing to be
    reduced by: its terms are only sorted into descending order.
    """
    if len(minimal) == 1:
        ((_, g),) = minimal
        return [{m: g[m] for m in sorted(g, reverse=True)}]
    reduced = []
    for idx, (lead, g) in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        _, r = _normal_form(g, others, layout)
        reduced.append(_primitive(r, lead))
    return reduced


def _reduced_basis(gens, layout, max_degree: int):
    """Reduced Groebner basis of the ideal of the nonzero integer maps
    `gens` under `layout`'s order, in ascending order of the leads; [] when
    there are none.  See `_autoreduce` for the form of its elements."""
    return _autoreduce(_minimal_basis(gens, layout, max_degree), layout)


def groebner(I: Ideal, order: TermOrder, max_degree: int = MAX_DEGREE) -> Ideal:
    """Reduced Groebner basis of I with respect to `order`.

    Each element is monic and lists its terms in descending order, so
    `next(iter(g.terms))` is its leading monomial.  The zero ideal gives the
    single zero generator.
    """
    variables = I.variables
    layout = order.key_function(variables)
    basis = _reduced_basis(_packed_generators(I.generators, layout), layout, max_degree)
    if not basis:
        return Ideal((Polynomial.zero(variables),))
    # an element's first coefficient is its leading one
    return Ideal(tuple(
        _from_packed(variables, g.items(), next(iter(g.values())), layout)
        for g in basis
    ))


def _eliminate(I: Ideal, gone, kept):
    """(layout, elements): the layout of the block order that eliminates
    `gone`, and the elements of I's reduced basis under it that lie in
    Q[kept] (`gone` and `kept` split I's variables, each in their order).

    Under the block order each monomial with a variable of `gone` is above
    each monomial without one, so an element lies in Q[kept] exactly when
    its lead does: only the leads are read.  Only the minimal elements with
    such a lead are autoreduced.  Every term of theirs, and every term a
    reduction step brings in, is free of `gone`, and such a monomial is
    divisible only by leads free of `gone`: their normal forms against the
    whole minimal basis are those against the kept elements, taken in the
    same list order.
    """
    variables = I.variables
    layout = TermOrder.block(gone, kept).key_function(variables)
    minimal = _minimal_basis(_packed_generators(I.generators, layout), layout, MAX_DEGREE)
    gone_part = layout.unpacker([variables.index(v) for v in gone])
    return layout, _autoreduce(
        [(lead, g) for lead, g in minimal if not any(gone_part(lead))], layout)


def eliminate(I: Ideal, keep) -> Ideal:
    """Generators of I intersected with Q[keep], via a block order."""
    keep = list(keep)
    variables = I.variables
    unknown = [v for v in keep if v not in variables]
    if unknown:
        raise VariableMismatchError(f"unknown variable(s) {unknown}")
    gone = [v for v in variables if v not in keep]
    kept = tuple(v for v in variables if v in keep)
    layout, elements = _eliminate(I, gone, kept)
    idx = [variables.index(v) for v in kept]
    gens = tuple(
        _from_packed(kept, g.items(), next(iter(g.values())), layout, idx)
        for g in elements
    )
    # no generator free of `gone`: the zero ideal of Q[keep]
    return Ideal(gens or (Polynomial.zero(kept),))


# ---- minimal polynomials and fiber degree ----


def graph_ideal(F: PolyMap):
    """<F_1(X) - Y_1, ..., F_n(X) - Y_n> over Q[X, Y], with the Y names used.

    The Y names are Y1..Yn, lengthened past F's variables by `fresh_names`,
    and each generator is F_j's terms over (X, Y) with the term -Y_j.
    """
    xs = tuple(F.variables)
    ys = fresh_names("Y", F.n, xs)
    ring = xs + tuple(ys)
    x0, y0 = (0,) * len(xs), (0,) * F.n
    gens = []
    for j, f in enumerate(F.components):
        terms = {m + y0: c for m, c in f.terms.items()}
        terms[x0 + y0[:j] + (1,) + y0[j + 1 :]] = Fraction(-1)
        gens.append(Polynomial._raw(ring, terms))
    return Ideal(tuple(gens)), ys


def inverse_map(F: PolyMap, max_degree: int = MAX_DEGREE):
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
    layout = TermOrder.block(xs, ys).key_function(I.variables)
    basis = _reduced_basis(_packed_generators(I.generators, layout), layout, max_degree)
    unit = {layout(tuple(int(k == i) for k in range(2 * n))): i for i in range(n)}
    x_part = layout.unpacker(range(n))
    G = [None] * n
    for g in basis:
        # each term that meets X is above each term that does not, so g is
        # lc*(X_i - G_i(Y)) exactly when its lead is X_i and its next term
        # is free of X
        terms = iter(g.items())
        lead, lc = next(terms)
        tail = list(terms)
        i = unit.get(lead)
        if i is None or tail and any(x_part(tail[0][0])):
            return None
        G[i] = _from_packed(xs, [(m, -c) for m, c in tail], lc, layout, range(n, 2 * n))
    if None in G:
        return None
    return PolyMap(G)


def minimal_poly_of_coordinate(F: PolyMap, i: int) -> Polynomial:
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
    n = F.n
    xi = F.variables[i - 1]
    layout, elements = _eliminate(
        I, [v for v in F.variables if v != xi], (xi,) + tuple(ys))
    if not elements:
        raise NotDominantError(
            f"coordinate {xi!r} satisfies no algebraic relation over the image; "
            "map is not dominant"
        )
    idx = [*range(n, 2 * n), i - 1]  # (Y1, ..., Yn, T) in the graph ring
    unpack = layout.unpacker(idx)
    if any(all(unpack(m)[-1] == 0 for m in g) for g in elements):
        # a relation purely among the Y's: the image lies in a hypersurface
        raise NotDominantError(
            "image satisfies a relation not involving the coordinate; "
            "map is not dominant"
        )
    if len(elements) != 1:
        raise InternalCheckError(
            "elimination ideal of a dominant map coordinate is not principal"
        )
    # Q[X, Y]/I is Q[X], a domain, so I and its contraction to Q[Y, X_i] are
    # prime: the principal generator h is irreducible, hence squarefree.
    # h is primitive, so of make_primitive's rule only the sign is left: the
    # lex-leading coefficient over (Y1, ..., Yn, T) is positive.
    (h,) = elements
    terms = h.items()
    if h[max(h, key=unpack)] < 0:
        terms = [(m, -c) for m, c in terms]
    names = tuple(f"Y{k}" for k in range(1, n + 1)) + ("T",)
    return _from_packed(names, terms, 1, layout, idx)


def generic_fiber_degree(F: PolyMap, sample) -> int:
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
    layout = TermOrder.grlex(F.variables).key_function(F.variables)
    # the count reads only the leads, which minimal and reduced bases share
    basis = _minimal_basis(_packed_generators(gens, layout), layout, MAX_DEGREE)
    if not basis:
        raise NotZeroDimensionalError("fiber ideal is zero")
    lms = [layout.unpack(lead) for lead, _ in basis]  # the leading monomials
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
