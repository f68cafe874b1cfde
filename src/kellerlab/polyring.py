"""Exact sparse multivariate polynomials over Q.

The carrier type for everything else in the package: coefficients are
`fractions.Fraction` (always reduced, positive denominator), monomials are
exponent tuples aligned with an ordered variable list, and the zero
polynomial has an empty term map.  Values are immutable after construction,
safe to share across threads and picklable.

`Fraction` is the interface, not the arithmetic: products, exact division,
the subresultant PRS and GCDHEU convert their operands once to integer
numerators (over a common denominator) with each monomial packed into one
int, run on integers, and build a `Fraction` only for the terms of the
result (`_clear_denominators` is the one way in, `_from_packed` the one way
out).  A product with a single-term operand packs nothing: it shifts the
other operand's exponent tuples and scales its coefficients, and a power of
a single term is one term.  `substitute` and `PolyMap.compose` pack each
binding once and add every term's product into one packed accumulator.
Sums stay on fractions, added in place into one accumulator by
`_add_terms`.

Gcds, and so squarefree parts, take integer gcds of values first: GCDHEU
evaluates at integer points xi >= 2 min(|p|oo, |q|oo) + 29 and accepts the
candidate rebuilt from the xi-adic digits of the value gcd only when exact
division shows that it divides both sides.  It runs on packed monomials:
evaluating a variable subtracts its field from each key, a digit adds it
back, and a candidate is checked by the heap division that `exact_div`
runs.  When HEU_GCD_POINTS points per variable fail, or a point passes
HEU_GCD_MAX_BITS bits, the recursive subresultant PRS computes the same
gcd.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from operator import add, mul

from .errors import ExactDivisionError, InternalCheckError, VariableMismatchError

Exponents = tuple  # exponent vector, one non-negative int per variable


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be int or Fraction, got {type(value).__name__}")


def _as_int(value) -> int:
    """`value` as an int: an int, or a Fraction or float with no fractional
    part.  Anything else is a ValueError; nothing is truncated."""
    integral = (
        isinstance(value, int)
        or isinstance(value, Fraction) and value.denominator == 1
        or isinstance(value, float) and value.is_integer()
    )
    if not integral:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


# ---- integer kernel: packed monomials over a common denominator ----
#
# A MonomialLayout packs a monomial into one int of fixed-width fields, each
# with a guard bit above the values it holds.  Adding two packed monomials
# with clear guard bits never carries from one field into the next, and sets
# a guard bit exactly when a field overflows; m - n sets a guard bit or goes
# negative exactly when some exponent of n exceeds that of m.


class MonomialLayout:
    """Packs exponent vectors into ints that sort in a term order.

    `blocks` lists (graded, variable indices) pairs, most significant first,
    covering every variable once.  Each block packs its total degree if it
    is graded, then its exponents: grlex is one graded block, lex one
    ungraded block, an elimination order two graded blocks.  Fields are
    `width` bits wide, guard bit included; calling the layout packs.
    """

    __slots__ = ("width", "guard", "_mults", "_shifts", "_degree_shifts")

    def __init__(self, blocks, width):
        nvars = sum(len(idx) for _, idx in blocks)
        top = sum(len(idx) + graded for graded, idx in blocks) * width
        mults, shifts, guard = [0] * nvars, [0] * nvars, 0
        degree_shifts = []  # the fields whose sum is the total degree
        for graded, idx in blocks:
            degree_unit = 0
            if graded:
                top -= width
                degree_unit = 1 << top
                guard |= degree_unit << (width - 1)
                degree_shifts.append(top)
            for i in idx:
                top -= width
                shifts[i] = top
                mults[i] = (1 << top) + degree_unit
                guard |= 1 << (top + width - 1)
                if not graded:
                    degree_shifts.append(top)
        self.width = width
        self.guard = guard
        self._mults = tuple(mults)
        self._shifts = tuple(shifts)
        self._degree_shifts = tuple(degree_shifts)

    def __call__(self, exps) -> int:
        return sum(map(mul, exps, self._mults))

    def unpack(self, key) -> Exponents:
        mask = (1 << self.width) - 1
        return tuple([(key >> s) & mask for s in self._shifts])

    def unpacker(self, idx):
        """`unpack` restricted to the variables at the indices `idx`, in
        that order: a function of a packed monomial."""
        mask = (1 << self.width) - 1
        shifts = [self._shifts[i] for i in idx]
        return lambda key: tuple([(key >> s) & mask for s in shifts])

    def degree(self, key) -> int:
        """Total degree of a packed monomial: the degree field of each graded
        block plus the exponents of each ungraded one."""
        mask = (1 << self.width) - 1
        return sum([(key >> s) & mask for s in self._degree_shifts])


@lru_cache(maxsize=128)
def _grlex_layout(nvars: int, degree: int) -> MonomialLayout:
    """grlex layout whose fields hold every value up to `degree`."""
    return MonomialLayout(((True, range(nvars)),), degree.bit_length() + 1)


def _clear_denominators(values):
    """(den, [integer numerator over den]) for a collection of rationals
    (ints carry `numerator` and `denominator` too), den the lcm of their
    denominators: (1, []) for none.  The one way into the integer kernel."""
    den = 1
    for c in values:
        if c.denominator != 1:
            den = math.lcm(den, c.denominator)
    if den == 1:
        return 1, [c.numerator for c in values]
    return den, [c.numerator * (den // c.denominator) for c in values]


def _pack(terms, layout):
    """(common denominator, [(packed monomial, integer numerator)]) of a
    term map, rational or integer."""
    den, nums = _clear_denominators(terms.values())
    # the bound method skips the call slot's lookup on each monomial
    return den, list(zip(map(layout.__call__, terms), nums))


def _from_packed(variables, packed, den, layout, idx=None) -> Polynomial:
    """The Polynomial of (packed monomial, numerator) pairs over `den`,
    zeros dropped; `variables[k]` is the layout's variable `idx[k]` (by
    default `variables` are the layout's own, in order), and any other
    field is not read.  The one way out of the integer kernel
    (`_from_powers` is its form for a list indexed by a main variable's
    power)."""
    unpack = layout.unpack if idx is None else layout.unpacker(idx)
    if den == 1:
        terms = {unpack(key): Fraction(c) for key, c in packed if c}
    else:
        terms = {unpack(key): Fraction(c, den) for key, c in packed if c}
    return Polynomial._raw(variables, terms)


def _mul_into(acc, pa, pb):
    """Add the product of two packed term lists, iterables of (packed
    monomial, int) pairs, into the {packed monomial: int} map acc and return
    acc.  The one packed product loop; a sum that cancels stays as a 0."""
    get = acc.get
    for ka, ca in pa:
        for kb, cb in pb:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    return acc


def _times_term(terms, mono, coef):
    """The term map of terms * coef*x^mono, for a nonzero coef: each
    exponent tuple shifted by mono and each coefficient scaled, unpacked."""
    if any(mono):
        terms = {tuple(map(add, m, mono)): c for m, c in terms.items()}
        if coef == 1:
            return terms
    elif coef == 1:
        return dict(terms)
    return {m: c * coef for m, c in terms.items()}


def _add_terms(acc, terms, scale=1):
    """Add scale * terms into the term map acc in place and return acc.

    The one term-map sum: a sum that cancels is deleted, so acc never holds
    a zero coefficient, and a zero scale adds nothing."""
    if scale != 1:
        terms = {m: c * scale for m, c in terms.items()} if scale else {}
    get = acc.get
    for m, c in terms.items():
        s = get(m)
        if s is None:
            acc[m] = c
        elif s := s + c:
            acc[m] = s
        else:
            del acc[m]
    return acc


class Polynomial:
    """Sparse polynomial with rational coefficients over a fixed variable list."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        variables = tuple(variables)
        nvars = len(variables)
        clean = {}
        if terms:
            for exps, coef in terms.items():
                coef = _as_fraction(coef)
                if coef == 0:
                    continue
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(
                        f"exponent vector {exps} does not match {nvars} variables"
                    )
                if any(e < 0 or not isinstance(e, int) for e in exps):
                    raise ValueError(f"exponents must be non-negative ints: {exps}")
                clean[exps] = coef
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, variables, terms):
        """Internal constructor; `terms` must already be clean (no zeros)."""
        self = object.__new__(cls)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return (Polynomial, (self.variables, self.terms))

    # ---- constructors ----

    @classmethod
    def zero(cls, variables):
        return cls._raw(tuple(variables), {})

    @classmethod
    def constant(cls, variables, value):
        variables = tuple(variables)
        value = _as_fraction(value)
        if value == 0:
            return cls._raw(variables, {})
        return cls._raw(variables, {(0,) * len(variables): value})

    @classmethod
    def one(cls, variables):
        return cls.constant(variables, 1)

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls._raw(variables, {exps: Fraction(1)})

    # ---- predicates and basic data ----

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial (raises otherwise)."""
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def is_integral(self) -> bool:
        """True when every coefficient lies in Z."""
        return all(c.denominator == 1 for c in self.terms.values())

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        idx = self.variables.index(name)
        if not self.terms:
            return -1
        return max(e[idx] for e in self.terms)

    def coefficient(self, exps) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def support_variables(self):
        """Names of the variables that actually occur."""
        used = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(self.variables[i])
        return used

    # ---- ring operations ----

    def _check_same_ring(self, other):
        if self.variables != other.variables:
            raise VariableMismatchError(
                f"variable lists differ: {self.variables} vs {other.variables}"
            )

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.variables, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def _plus(self, other, scale):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.variables, other)
        self._check_same_ring(other)
        res = _add_terms(dict(self.terms), other.terms, scale)
        return Polynomial._raw(self.variables, res)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.variables, other)
        self._check_same_ring(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return Polynomial.zero(self.variables)
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            ((mono, coef),) = b.items()
            return Polynomial._raw(self.variables, _times_term(a, mono, coef))
        degree = self.total_degree() + other.total_degree()
        layout = _grlex_layout(len(self.variables), degree)
        da, pa = _pack(self.terms, layout)
        db, pb = _pack(other.terms, layout)
        res = _mul_into({}, pa, pb)
        return _from_packed(self.variables, res.items(), da * db, layout)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative int")
        if len(self.terms) == 1 and n:
            ((mono, coef),) = self.terms.items()
            return Polynomial._raw(self.variables, {tuple(e * n for e in mono): coef**n})
        result = Polynomial.one(self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.variables, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        from .expr_io import print_polynomial

        return print_polynomial(self)

    def __repr__(self):
        return f"Polynomial({', '.join(self.variables)}: {self})"

    # ---- calculus / structure ----

    def partial_derivative(self, name):
        """Formal partial derivative with respect to `name`."""
        idx = self.variables.index(name)
        res = {}
        for m, c in self.terms.items():
            e = m[idx]
            if e == 0:
                continue
            dm = m[:idx] + (e - 1,) + m[idx + 1 :]
            res[dm] = c * e
        return Polynomial._raw(self.variables, res)

    def leading_form(self):
        """Highest-degree homogeneous component (the form at infinity)."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading form")
        top = self.total_degree()
        return Polynomial._raw(
            self.variables, {m: c for m, c in self.terms.items() if sum(m) == top}
        )

    # ---- substitution / evaluation ----

    def evaluate(self, point) -> Fraction:
        """Exact value at a rational point (sequence aligned with variables)."""
        point = [_as_fraction(v) for v in point]
        if len(point) != len(self.variables):
            raise ValueError("point length does not match variable count")
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for x, e in zip(point, m):
                if e:
                    v *= x**e
            total += v
        return total


def substitute(p: Polynomial, bindings, target_variables) -> Polynomial:
    """Image of `p` under variable -> polynomial/number bindings.

    Every occurring variable must be bound, and every polynomial value must
    live over `target_variables`, the output ring.
    """
    return _substitute_all((p,), bindings, target_variables)[0]


def _substitute_all(polys, bindings, target_variables) -> list:
    """`substitute` of each polynomial of `polys`, which share a variable
    list, under the same bindings, on packed integers.

    Each binding P_j/d_j is packed once, in a grlex layout sized for the
    largest image degree, and its powers go into one table that every
    polynomial shares.  A polynomial's image is taken over the lcm of its
    coefficients' denominators times d_j^e_j, e_j the largest exponent of
    variable j in it: each term's product is added into one {packed
    monomial: int} map as soon as it is formed, and the map is unpacked once.
    """
    ring_vars = tuple(target_variables)
    for v in bindings.values():
        if isinstance(v, Polynomial) and v.variables != ring_vars:
            raise VariableMismatchError("a bound polynomial is not over the target ring")
    names = polys[0].variables
    tops = []  # the largest exponent of each variable, per polynomial
    for p in polys:
        top = [0] * len(names)
        for m in p.terms:
            top = list(map(max, top, m))
        tops.append(top)
    used = {j for top in tops for j, e in enumerate(top) if e}
    missing = sorted({names[j] for j in used} - set(bindings))
    if missing:
        raise ValueError(f"unbound variable(s): {', '.join(missing)}")

    bound = {}  # j -> the binding of variable j, as a polynomial
    degrees = [0] * len(names)
    for j in used:
        v = bindings[names[j]]
        bound[j] = v if isinstance(v, Polynomial) else Polynomial.constant(ring_vars, v)
        degrees[j] = max(0, bound[j].total_degree())
    image_degree = max((sum(map(mul, m, degrees)) for p in polys for m in p.terms), default=0)
    layout = _grlex_layout(len(ring_vars), image_degree)
    dens, tables = {}, {}  # j -> d_j, and j -> [P_j, P_j^2, ...] filled in on demand
    for j, v in bound.items():
        dens[j], packed = _pack(v.terms, layout)
        tables[j] = [packed]

    def power(j, e):
        table = tables[j]
        while len(table) < e:
            prod = _mul_into({}, table[-1], table[0])
            table.append([(k, c) for k, c in prod.items() if c])
        return table[e - 1]

    images = []
    for p, top in zip(polys, tops):
        den, nums = _clear_denominators(p.terms.values())
        scaled = [(j, dens[j], e) for j, e in enumerate(top) if e and dens[j] != 1]
        for _, d, e in scaled:
            den *= d**e
        acc = {}
        for m, num in zip(p.terms, nums):
            for j, d, e in scaled:
                num *= d ** (e - m[j])
            prod = [(0, num)]  # packed 0 is the monomial 1
            factors = [power(j, e) for j, e in enumerate(m) if e]
            for f in factors[:-1]:
                prod = [(k, c) for k, c in _mul_into({}, prod, f).items() if c]
            _mul_into(acc, prod, factors[-1] if factors else [(0, 1)])
        images.append(_from_packed(ring_vars, acc.items(), den, layout))
    return images


# ---- ring-surgery helpers ----


def fresh_names(base, count, taken):
    """Names P1..P<count> for the shortest prefix P = base, base*2, ... such
    that none of them is in `taken`."""
    prefix = base
    while any(f"{prefix}{k}" in taken for k in range(1, count + 1)):
        prefix += base
    return [f"{prefix}{k}" for k in range(1, count + 1)]


def with_variables(p: Polynomial, new_variables) -> Polynomial:
    """Re-express `p` over a variable list containing all its used variables."""
    new_variables = tuple(new_variables)
    for name in p.support_variables():
        if name not in new_variables:
            raise VariableMismatchError(f"variable {name!r} absent from target ring")
    index = {name: i for i, name in enumerate(new_variables)}
    width = len(new_variables)
    res = {}
    for m, c in p.terms.items():
        exps = [0] * width
        for name, e in zip(p.variables, m):
            if e:
                exps[index[name]] = e
        res[tuple(exps)] = c
    return Polynomial._raw(new_variables, res)


def rename_variables(p: Polynomial, mapping) -> Polynomial:
    """Rename variables via an old-name -> new-name mapping (bijective)."""
    new_vars = tuple(mapping.get(v, v) for v in p.variables)
    if len(set(new_vars)) != len(new_vars):
        raise ValueError("renaming is not injective")
    return Polynomial._raw(new_vars, dict(p.terms))


def coefficients_in(p: Polynomial, name) -> list:
    """Coefficients of powers of one variable, index = exponent.

    Entries are polynomials in the same ring with that variable zeroed out;
    the list runs from degree 0 to deg_name(p) (empty list for p = 0).
    """
    idx = p.variables.index(name)
    if p.is_zero():
        return []
    top = max(e[idx] for e in p.terms)
    buckets = [dict() for _ in range(top + 1)]
    for m, c in p.terms.items():
        stripped = m[:idx] + (0,) + m[idx + 1 :]
        buckets[m[idx]][stripped] = c
    return [Polynomial._raw(p.variables, b) for b in buckets]


# ---- integer normalization ----


def integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for an int n >= 0 and k >= 1, exactly."""
    if n == 0:
        return 0
    # Integer Newton from above: 2^ceil(bits/k) exceeds the k-th root, and
    # the iterates decrease strictly until they reach floor(n^(1/k)).
    r = 1 << -(-n.bit_length() // k)
    while True:
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            return r
        r = nxt


def integer_content(p: Polynomial) -> Fraction:
    """Positive rational c with p/c integral, primitive (0 for p = 0)."""
    if p.is_zero():
        return Fraction(0)
    den, nums = _clear_denominators(p.terms.values())
    return Fraction(math.gcd(*nums), den)


def make_primitive(p: Polynomial) -> Polynomial:
    """Scale to integer coefficients with content 1, lex-leading coefficient > 0.

    Divides on integers: p = (g/den) * q with g the gcd of the numerators
    over the common denominator den, its sign that of the lex-leading one."""
    if p.is_zero():
        return p
    den, nums = _clear_denominators(p.terms.values())
    g = math.gcd(*nums)
    if p.terms[max(p.terms)] < 0:  # exponent tuples compare lexicographically
        g = -g
    if den == 1 and g == 1:
        return p
    return Polynomial._raw(p.variables, {m: Fraction(a // g) for m, a in zip(p.terms, nums)})


# ---- exact division and gcd ----


def exact_div(p: Polynomial, q: Polynomial) -> Polynomial:
    """Quotient p/q when q divides p exactly; ExactDivisionError otherwise.

    With p = P/dp and q = cq*Q/dq for integer P, primitive integer Q and
    cq = content, p/q = (P/Q) * dq/(dp*cq), and by Gauss's lemma Q divides P
    over Q only if the quotient is integral.  So P/Q is computed on
    integers and a step whose coefficient division leaves a remainder
    proves that q does not divide p.
    """
    if isinstance(q, (int, Fraction)):
        q = Polynomial.constant(p.variables, q)
    p._check_same_ring(q)
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return p
    layout = _grlex_layout(len(p.variables), max(p.total_degree(), q.total_degree()))
    dp, dividend = _pack(p.terms, layout)
    dq, divisor = _pack(q.terms, layout)
    cq = math.gcd(*(c for _, c in divisor))
    divisor = [(k, c // cq) for k, c in divisor]
    dividend.sort(reverse=True)
    divisor.sort(reverse=True)
    quot = _divide_packed(dividend, divisor, layout.guard)
    scale = Fraction(dq, dp * cq)
    quot = [(k, c * scale.numerator) for k, c in quot]
    return _from_packed(p.variables, quot, scale.denominator, layout)


def _divide_packed(dividend, divisor, guard):
    """Integer quotient of packed term lists sorted by descending monomial.

    Heap division (Monagan & Pearce, "Sparse polynomial division using a
    heap", JSC 2011): the heap merges the dividend's terms with the streams
    quot[j] * divisor[1:], so each remainder term is formed once, largest
    first.  Raises ExactDivisionError at the first term that does not
    divide.
    """
    (lead, lc), rest = divisor[0], divisor[1:]
    quot = []
    # entries (-monomial, stream, index); stream -1 is the dividend
    heap = [(-dividend[0][0], -1, 0)]
    while heap:
        m = -heap[0][0]
        c = 0
        while heap and heap[0][0] == -m:
            _, j, i = heappop(heap)
            if j < 0:
                c += dividend[i][1]
                i += 1
                if i < len(dividend):
                    heappush(heap, (-dividend[i][0], -1, i))
            else:
                qk, qc = quot[j]
                c -= qc * rest[i][1]
                i += 1
                if i < len(rest):
                    heappush(heap, (-(qk + rest[i][0]), j, i))
        if not c:
            continue
        d = m - lead
        if d < 0 or d & guard:
            raise ExactDivisionError("division has a remainder")
        s, r = divmod(c, lc)
        if r:
            raise ExactDivisionError("division has a remainder")
        quot.append((d, s))
        if rest:
            heappush(heap, (-(d + rest[0][0]), len(quot) - 1, 0))
    return quot


def divides(q: Polynomial, p: Polynomial) -> bool:
    try:
        exact_div(p, q)
        return True
    except ExactDivisionError:
        return False


def _checked(acc, layout):
    """acc, a {packed monomial: int} map of the grlex `layout`, with its
    zero entries dropped.  The degree field is the most significant, and it
    holds a term's total degree, so a term sets a guard bit exactly when it
    reaches the degree field's guard bit: such a term raises
    InternalCheckError instead of wrapping into the next field."""
    if acc and max(acc).bit_length() >= layout.guard.bit_length():
        raise InternalCheckError("a packed term overflows its monomial layout")
    return {k: c for k, c in acc.items() if c}


def _times(a, b, layout):
    """Product of two {packed monomial: int} maps of the grlex `layout`."""
    return _checked(_mul_into({}, a.items(), b.items()), layout)


def _power(g, e, layout):
    """g^e of a {packed monomial: int} map, e >= 0."""
    acc = {0: 1}
    for _ in range(e):
        acc = _times(acc, g, layout)
    return acc


def _quotient(a, divisor, layout):
    """Exact quotient of a {packed monomial: int} map by a packed term list
    sorted by descending monomial."""
    if not a:
        return {}
    return dict(_divide_packed(sorted(a.items(), reverse=True), divisor, layout.guard))


def _power_quotient(g, h, e, layout):
    """g^e / h^(e - 1) for e >= 1, an exact quotient of {packed monomial:
    int} maps (g itself for e = 1)."""
    if e == 1:
        return g
    divisor = sorted(_power(h, e - 1, layout).items(), reverse=True)
    return _quotient(_power(g, e, layout), divisor, layout)


def _in_powers(f: Polynomial, idx: int, layout):
    """(den, coeffs): f = F/den for the lcm den of f's denominators, and
    coeffs lists, indexed by the power of x_idx, the {packed monomial of
    the other variables: int} maps of F."""
    den, nums = _clear_denominators(f.terms.values())
    out = [{} for _ in range(1 + max(e[idx] for e in f.terms))]
    for e, c in zip(f.terms, nums):
        out[e[idx]][layout(e[:idx] + e[idx + 1 :])] = c
    return den, out


def _from_powers(coeffs, variables, idx: int, layout, den=1) -> Polynomial:
    """The Polynomial of an `_in_powers` list over `den` (which may be
    negative); its maps hold no zeros."""
    unpack = layout.unpack
    terms = {}
    for k, coeff in enumerate(coeffs):
        for key, c in coeff.items():
            e = unpack(key)
            terms[e[:idx] + (k,) + e[idx:]] = Fraction(c, den)
    return Polynomial._raw(variables, terms)


def _prem(a, b, layout):
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) a mod b of `_in_powers`
    lists with nonzero last entries; [] for the zero remainder."""
    db = len(b) - 1
    lc = b[db].items()
    r = a[:]
    e = len(a) - db
    while len(r) > db:
        top = r.pop()
        if not top:
            continue
        # r <- lc * r - top * x^shift * b, which cancels the popped term
        shift = len(r) - db
        neg = [(k, -c) for k, c in top.items()]
        for i in range(len(r)):
            acc = _mul_into({}, lc, r[i].items())
            if i >= shift:
                _mul_into(acc, neg, b[i - shift].items())
            r[i] = _checked(acc, layout)
        e -= 1
    while r and not r[-1]:
        r.pop()
    if e and r:
        scale = _power(b[db], e, layout)
        r = [_times(scale, c, layout) for c in r]
    return r


def _prs(p: Polynomial, q: Polynomial, idx: int):
    """Run the subresultant PRS of P = den_p p and Q = den_q q in x_idx
    down to degree 0, for deg p >= deg q >= 1 in x_idx.

    Collins's sequence in the form of Cohen, *A Course in Computational
    Algebraic Number Theory*, Alg. 3.3.7 (without its content step): each
    pseudo-remainder is divided exactly by g h^delta, then g = lc of the
    divisor and h = h^(1 - delta) g^delta, so every member stays in the
    coefficient ring.  Returns (a, b, h, sign, den_p, den_q, layout): a and
    b are `_in_powers` lists, b the first member of degree < 1 ([] when P
    and Q share a factor of positive degree) and a the member before it; h
    is a {packed monomial: int} map, sign = (-1)^(sum of deg a * deg b over
    the steps), and Res(P, Q) = sign * b[0]^deg a / h^(deg a - 1).  `layout`
    packs the variables other than x_idx.

    Degree bound of the fields: let m = deg p, n = deg q and A, B the
    largest total degree of a coefficient of p and of q.  Every member is a
    subresultant up to sign, a determinant of at most n rows of P's
    coefficients and m rows of Q's, and h and g are leading coefficients of
    members, so each has total degree at most D = n A + m B.  A step of
    degree drop delta <= m - 1 multiplies by lc^(delta + 1); its products,
    g h^delta and g^delta stay within (delta + 2) D.  The fields hold
    (m + 1) D, and a term past it raises InternalCheckError.
    """
    m = max(e[idx] for e in p.terms)
    n = max(e[idx] for e in q.terms)

    def coefficient_degree(f):
        return max(sum(e) - e[idx] for e in f.terms)

    bound = (m + 1) * (n * coefficient_degree(p) + m * coefficient_degree(q))
    layout = _grlex_layout(len(p.variables) - 1, bound)
    (den_p, a), (den_q, b) = _in_powers(p, idx, layout), _in_powers(q, idx, layout)
    one = {0: 1}
    g = h = one
    sign = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da & db & 1:
            sign = -sign
        r = _prem(a, b, layout)
        if not r:
            a, b = b, r
            break
        if g is not one:  # the first step divides by 1
            divisor = _times(g, _power(h, delta, layout), layout)
            divisor = sorted(divisor.items(), reverse=True)
            r = [_quotient(c, divisor, layout) for c in r]
        a, g = b, b[-1]
        if delta:
            h = _power_quotient(g, h, delta, layout)
        b = r
        if len(b) == 1:
            break
    return a, b, h, sign, den_p, den_q, layout


def resultant(p: Polynomial, q: Polynomial, t: str) -> Polynomial:
    """Res_t(p, q) at the actual t-degrees (m, n): the determinant of the
    Sylvester matrix of p and q as polynomials in t.

    Read off the gcd's PRS `_prs`: Res(p, q) = d_p^(-n) d_q^(-m) sign b^da /
    h^(da - 1), taken in the PRS's own layout, which holds b^da (total
    degree da D <= m D).  An operand c of t-degree 0 (the zero polynomial
    counts as degree 0) gives c^n (c^m).
    """
    if p.variables != q.variables:
        raise VariableMismatchError("resultant operands over different variables")
    if t not in p.variables:
        raise ValueError(f"unknown variable {t!r}")
    dp, dq = max(p.degree_in(t), 0), max(q.degree_in(t), 0)
    if dp == dq == 0:
        raise ValueError("at least one t-degree must be positive")
    # a degree-0 operand leaves only the other operand's rows: c times the identity
    if dq == 0:
        return q**dp
    if dp < dq:  # Res(p, q) = (-1)^(m n) Res(q, p)
        res = resultant(q, p, t)
        return -res if dp & dq & 1 else res
    idx = p.variables.index(t)
    a, b, h, sign, den_p, den_q, layout = _prs(p, q, idx)
    if not b:
        return Polynomial.zero(p.variables)
    res = _power_quotient(b[0], h, len(a) - 1, layout)
    return _from_powers([res], p.variables, idx, layout, sign * den_p**dq * den_q**dp)


def _prs_gcd(f: Polynomial, g: Polynomial, idx: int) -> Polynomial:
    """Subresultant PRS gcd of polynomials primitive in x_idx.

    Returns the x_idx-primitive gcd (contents handled by the caller).
    """
    name = f.variables[idx]
    if f.degree_in(name) < g.degree_in(name):
        f, g = g, f
    a, b, *_, layout = _prs(f, g, idx)
    if b:
        return Polynomial.one(f.variables)
    last = _from_powers(a, f.variables, idx, layout)
    coeffs = [c for c in coefficients_in(last, name) if not c.is_zero()]
    cont = _gcd_many(coeffs)
    return exact_div(last, cont)


def _gcd_many(polys):
    g = polys[0]
    for q in polys[1:]:
        g = _gcd_z(g, q)
        if g.is_constant() and g.constant_value() == 1:
            break
    return g


def _gcd_z(a: Polynomial, b: Polynomial) -> Polynomial:
    """Gcd of integer polynomials, including integer content, sign positive."""
    if a.is_zero():
        return make_positive(b)
    if b.is_zero():
        return make_positive(a)
    # a constant has no variables, so it shares none with the other side
    common = a.support_variables() & b.support_variables()
    if not common:
        g = math.gcd(int(integer_content(a)), int(integer_content(b)))
        return Polynomial.constant(a.variables, g)

    # least-frequent common variable: fewest monomials touched across a and b
    def frequency(name):
        i = a.variables.index(name)
        return sum(1 for m in a.terms if m[i]) + sum(1 for m in b.terms if m[i])

    main = min(sorted(common), key=frequency)
    idx = a.variables.index(main)

    coeffs_a = [c for c in coefficients_in(a, main) if not c.is_zero()]
    coeffs_b = [c for c in coefficients_in(b, main) if not c.is_zero()]
    cont_a = _gcd_many(coeffs_a)
    cont_b = _gcd_many(coeffs_b)
    pp_a = exact_div(a, cont_a)
    pp_b = exact_div(b, cont_b)
    d = _gcd_z(cont_a, cont_b)
    g = _prs_gcd(pp_a, pp_b, idx)
    return make_positive(d * g)


def make_positive(p: Polynomial) -> Polynomial:
    if p.is_zero():
        return p
    # exponent tuples compare lexicographically
    return -p if p.terms[max(p.terms)] < 0 else p


# ---- heuristic gcd ----
#
# GCDHEU (Char, Geddes & Gonnet, "GCDHEU: heuristic polynomial GCD
# algorithm based on integer GCD computation", J. Symbolic Comput. 7, 1989)
# on {packed monomial: int} maps.  Its theorem: for A, B primitive and an
# integer xi > 1 + 2 min(|A|oo, |B|oo), if the primitive part G of the
# symmetric xi-adic expansion of gcd(A(xi), B(xi)) divides A and B, then G
# is their gcd.  So a candidate is accepted only after exact division, and
# a point that gives none is replaced by a larger one.

# evaluation points tried per evaluated variable before the pair goes to
# the PRS
HEU_GCD_POINTS = 6
# an evaluation point of more bits than this sends the pair to the PRS
HEU_GCD_MAX_BITS = 1 << 14


def _heu_gcd(a: Polynomial, b: Polynomial):
    """(g, a / g) for the gcd g of nonzero Z-primitive polynomials by
    GCDHEU, g Z-primitive with a positive lex-leading coefficient; None when
    every point tried gives a candidate that does not divide both, or a
    point passes the bit cap.  The cofactor a / g is the quotient of the
    exact division that accepted g.

    Both sides are packed once, in a grlex layout whose fields hold twice
    their degree D: an accepted gcd of the values has degree at most D, and
    its xi-adic digits add at most D more (`_adic`)."""
    degree = max(a.total_degree(), b.total_degree())
    layout = _grlex_layout(len(a.variables), 2 * degree)
    names = a.support_variables() | b.support_variables()
    used = [i for i, name in enumerate(a.variables) if name in names]
    found = _heu(dict(_pack(a.terms, layout)[1]), dict(_pack(b.terms, layout)[1]),
                 used, layout, degree)
    if found is None:
        return None
    g, cofactor = (_from_packed(a.variables, t.items(), 1, layout) for t in found)
    positive = make_positive(g)
    return positive, cofactor if positive is g else -cofactor


def _heu(a, b, used, layout, degree):
    """(g, a / g) for the gcd g of nonzero {packed monomial: int} maps of
    total degree at most `degree`, with the gcd of their integer contents,
    up to sign; None on failure.

    The variables x_i, i in `used`, are evaluated in turn: x_used[0] at xi,
    and the gcd of the images taken recursively, down to `math.gcd` on
    integers."""
    ca, cb = math.gcd(*a.values()), math.gcd(*b.values())
    c = math.gcd(ca, cb)
    if a.keys() == {0} or b.keys() == {0}:  # a constant side
        return {0: c}, {k: v // c for k, v in a.items()}
    a = {k: v // ca for k, v in a.items()}
    b = {k: v // cb for k, v in b.items()}
    i, rest = used[0], used[1:]
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    for _ in range(HEU_GCD_POINTS):
        if xi.bit_length() > HEU_GCD_MAX_BITS:
            return None
        ea, eb = _at(a, xi, i, layout), _at(b, xi, i, layout)
        if ea and eb:
            g = _heu(ea, eb, rest, layout, degree)
            g = g and g[0]
        else:
            g = ea or eb
        if g:
            g = _adic(g, xi, layout._mults[i], degree)
        if g:
            cg = math.gcd(*g.values())
            g = {k: v // cg for k, v in g.items()}
            if g.keys() == {0}:  # a unit, which divides both
                quotient = {k: v * g[0] for k, v in a.items()}
            else:
                divisor = sorted(g.items(), reverse=True)
                try:
                    _quotient(b, divisor, layout)
                    quotient = _quotient(a, divisor, layout)
                except ExactDivisionError:
                    quotient = None
            if quotient is not None:
                k = ca // c
                return {m: v * c for m, v in g.items()}, {m: v * k for m, v in quotient.items()}
        xi = xi * 73794 * integer_root(xi, 4) // 27011
    return None


def _at(a, xi, i, layout):
    """The map of a with x_i set to xi: each key loses e units of x_i for
    its exponent e, and its coefficient gains xi^e; zeros dropped."""
    shift, unit = layout._shifts[i], layout._mults[i]
    mask = (1 << layout.width) - 1
    exps = [(k >> shift) & mask for k in a]
    powers = [1]
    for _ in range(max(exps)):
        powers.append(powers[-1] * xi)
    out = {}
    get = out.get
    for (k, c), e in zip(a.items(), exps):
        k -= e * unit
        out[k] = get(k, 0) + c * powers[e]
    return {k: v for k, v in out.items() if v}


def _adic(g, xi, unit, degree):
    """The map whose variable of packed `unit` carries the symmetric xi-adic
    digits, in (-xi/2, xi/2], of each coefficient of g, digit e adding e
    units; None once a digit would sit above `degree`, where no divisor of
    the operands has a term."""
    half = xi // 2
    out = {}
    for k, c in g.items():
        e = 0
        while c:
            if e > degree:
                return None
            r = c % xi
            if r > half:
                r -= xi
            if r:
                out[k + e * unit] = r
            c = (c - r) // xi
            e += 1
    return out


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Gcd in Q[X]: Z-primitive, positive lex-leading coefficient.

    Both sides are made Z-primitive, then GCDHEU (`_heu_gcd`) evaluates
    the variables in turn at integer points xi >= 2 min(|p|oo, |q|oo) + 29,
    above the theorem's bound, takes the integer gcd of the values, rebuilds
    a candidate by symmetric xi-adic expansion and keeps it only when exact
    division shows that it divides both sides.  A failed point is replaced
    by a larger one, up to HEU_GCD_POINTS points per variable; after that,
    or once a point passes HEU_GCD_MAX_BITS bits, the pair goes to the
    recursive subresultant PRS in the least-frequent variable (`_gcd_z`),
    which gives the same gcd.
    """
    if isinstance(q, (int, Fraction)):
        q = Polynomial.constant(p.variables, q)
    p._check_same_ring(q)
    if p.is_zero() and q.is_zero():
        return p
    if p.is_zero():
        return make_primitive(q)
    if q.is_zero():
        return make_primitive(p)
    p, q = make_primitive(p), make_primitive(q)
    found = _heu_gcd(p, q)
    return _gcd_z(p, q) if found is None else found[0]


def squarefree_part(p: Polynomial) -> Polynomial:
    """Product of the distinct irreducible factors of p.

    Computed as p / gcd(p, dp/dx_1, ..., dp/dx_n), a generator of the
    radical of (p).  p and the gcd are integer-primitive with positive
    lex-leading coefficients, so their quotient is too (Gauss's lemma).
    Each gcd is a `poly_gcd`: GCDHEU at points xi >= 2 min(|g|oo,
    |dp/dx_i|oo) + 29, its candidate checked by exact division, with the
    subresultant PRS as the fallback.  On a dense degree-18 product f g f
    in 3 variables it takes milliseconds where the PRS alone took about
    half a minute.  GCDHEU accepts gcd(p, dp/dx_1) only after dividing p by
    it; while the later gcds leave it as it is, that quotient is the
    answer, and p is divided again only when they do not.
    """
    if p.is_zero():
        raise ValueError("squarefree part of the zero polynomial is undefined")
    p = make_primitive(p)
    if p.is_constant():
        return Polynomial.one(p.variables)
    first, *rest = sorted(p.support_variables())
    dp = make_primitive(p.partial_derivative(first))
    found = _heu_gcd(p, dp)
    g, quotient = (_gcd_z(p, dp), None) if found is None else found
    for name in rest:
        if g.is_constant():
            break
        h = poly_gcd(g, p.partial_derivative(name))
        if h != g:
            g, quotient = h, None
    return exact_div(p, g) if quotient is None else quotient


# ---- polynomial maps ----


class PolyMap:
    """Ordered tuple of polynomials over one shared variable list."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("a polynomial map needs at least one component")
        vars0 = components[0].variables
        for c in components[1:]:
            if c.variables != vars0:
                raise VariableMismatchError("components live over different variables")
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMap is immutable")

    def __reduce__(self):
        return (PolyMap, (self.components,))

    @classmethod
    def linear(cls, rows, variables):
        """X -> rows X over `variables`: component i is sum_j rows[i][j] X_j.

        Each row needs one int or Fraction entry per variable."""
        variables = tuple(variables)
        n = len(variables)
        units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        comps = []
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix row length does not match the variable count")
            comps.append(Polynomial._raw(variables, {
                u: _as_fraction(a) for u, a in zip(units, row) if a
            }))
        return cls(comps)

    @classmethod
    def identity(cls, variables):
        n = len(tuple(variables))
        return cls.linear([[int(i == j) for j in range(n)] for i in range(n)], variables)

    @property
    def variables(self):
        return self.components[0].variables

    @property
    def n(self) -> int:
        return len(self.components)

    def is_square(self) -> bool:
        return self.n == len(self.variables)

    def fixes_origin(self) -> bool:
        zero = (0,) * len(self.variables)
        return all(c.coefficient(zero) == 0 for c in self.components)

    def is_integral(self) -> bool:
        return all(c.is_integral() for c in self.components)

    def max_degree(self) -> int:
        return max(c.total_degree() for c in self.components)

    def evaluate(self, point):
        return tuple(c.evaluate(point) for c in self.components)

    def compose(self, inner: "PolyMap") -> "PolyMap":
        """self after inner: components self_i(inner_1, ..., inner_k)."""
        if len(self.variables) != inner.n:
            raise VariableMismatchError(
                "outer map arity does not match inner component count"
            )
        bindings = dict(zip(self.variables, inner.components))
        return PolyMap(_substitute_all(self.components, bindings, inner.variables))

    def compose_truncated(self, inner: "PolyMap", cap: int) -> "PolyMap":
        # kept only because bench/tracing.py wraps this name; nothing calls it
        return PolyMap([
            Polynomial._raw(p.variables, {m: c for m, c in p.terms.items()
                                          if sum(m) <= cap})
            for p in self.compose(inner).components
        ])

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        body = "; ".join(str(c) for c in self.components)
        return f"PolyMap({', '.join(self.variables)} -> {body})"
