"""Exact sparse multivariate polynomials over Q.

The carrier type for everything else in the package: coefficients are
`fractions.Fraction` (always reduced, positive denominator), monomials are
exponent tuples aligned with an ordered variable list, and the zero
polynomial has an empty term map.  Values are immutable after construction,
safe to share across threads and picklable.

`Fraction` is the interface, not the arithmetic: products and exact
division convert their operands once to integer numerators over a common
denominator with each monomial packed into one int, run on integers, and
build a `Fraction` only for the terms of the result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from operator import mul

from .errors import ExactDivisionError, VariableMismatchError

Exponents = tuple  # exponent vector, one non-negative int per variable


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be int or Fraction, got {type(value).__name__}")


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

    __slots__ = ("width", "guard", "_mults", "_shifts")

    def __init__(self, blocks, width):
        nvars = sum(len(idx) for _, idx in blocks)
        top = sum(len(idx) + graded for graded, idx in blocks) * width
        mults, shifts, guard = [0] * nvars, [0] * nvars, 0
        for graded, idx in blocks:
            degree_unit = 0
            if graded:
                top -= width
                degree_unit = 1 << top
                guard |= degree_unit << (width - 1)
            for i in idx:
                top -= width
                shifts[i] = top
                mults[i] = (1 << top) + degree_unit
                guard |= 1 << (top + width - 1)
        self.width = width
        self.guard = guard
        self._mults = tuple(mults)
        self._shifts = tuple(shifts)

    def __call__(self, exps) -> int:
        return sum(map(mul, exps, self._mults))

    def unpack(self, key) -> Exponents:
        mask = (1 << self.width) - 1
        return tuple([(key >> s) & mask for s in self._shifts])


@lru_cache(maxsize=128)
def _grlex_layout(nvars: int, degree: int) -> MonomialLayout:
    """grlex layout whose fields hold every value up to `degree`."""
    return MonomialLayout(((True, range(nvars)),), degree.bit_length() + 1)


def _pack(terms, layout):
    """(common denominator, [(packed monomial, integer numerator)])."""
    den = 1
    for c in terms.values():
        if c.denominator != 1:
            den = math.lcm(den, c.denominator)
    packed = []
    for exps, c in terms.items():
        packed.append((layout(exps), c.numerator * (den // c.denominator)))
    return den, packed


def _unpack(packed, den, layout):
    """Term map of (packed monomial, numerator) pairs over `den`; zeros dropped."""
    unpack = layout.unpack
    if den == 1:
        return {unpack(key): Fraction(c) for key, c in packed if c}
    return {unpack(key): Fraction(c, den) for key, c in packed if c}


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
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.variables, other)
        self._check_same_ring(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m)
            if s is None:
                res[m] = c
                continue
            s += c
            if s:
                res[m] = s
            else:
                del res[m]
        return Polynomial._raw(self.variables, res)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.variables, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.variables, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_fraction(other)
            if other == 0:
                return Polynomial.zero(self.variables)
            return Polynomial._raw(
                self.variables, {m: c * other for m, c in self.terms.items()}
            )
        self._check_same_ring(other)
        if not self.terms or not other.terms:
            return Polynomial.zero(self.variables)
        degree = self.total_degree() + other.total_degree()
        layout = _grlex_layout(len(self.variables), degree)
        da, pa = _pack(self.terms, layout)
        db, pb = _pack(other.terms, layout)
        res = {}
        get = res.get
        for ka, ca in pa:
            for kb, cb in pb:
                k = ka + kb
                res[k] = get(k, 0) + ca * cb
        return Polynomial._raw(self.variables, _unpack(res.items(), da * db, layout))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative int")
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

    def homogeneous_components(self):
        """List of (degree, component) pairs, degrees strictly increasing."""
        buckets = {}
        for m, c in self.terms.items():
            buckets.setdefault(sum(m), {})[m] = c
        return [
            (d, Polynomial._raw(self.variables, buckets[d])) for d in sorted(buckets)
        ]

    def leading_form(self):
        """Highest-degree homogeneous component (the form at infinity)."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading form")
        comps = self.homogeneous_components()
        return comps[-1][1]

    def truncated(self, cap):
        """Drop every monomial of total degree above `cap`."""
        terms = {m: c for m, c in self.terms.items() if sum(m) <= cap}
        return Polynomial._raw(self.variables, terms)

    # ---- substitution / evaluation ----

    def substitute(self, bindings, target_variables=None):
        """Image of the polynomial under variable -> polynomial/number bindings.

        Every occurring variable must be bound.  All polynomial values must
        share one variable list, which becomes the output ring (explicit
        `target_variables` required when every binding is a number).
        """
        return substitute(self, bindings, target_variables)

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

    def map_coefficients(self, fn):
        res = {}
        for m, c in self.terms.items():
            v = fn(c)
            if v:
                res[m] = v
        return Polynomial._raw(self.variables, res)


def substitute(p: Polynomial, bindings, target_variables=None) -> Polynomial:
    """Substitute polynomials (or numbers) for the variables of `p`."""
    ring_vars = None
    for v in bindings.values():
        if isinstance(v, Polynomial):
            if ring_vars is None:
                ring_vars = v.variables
            elif ring_vars != v.variables:
                raise VariableMismatchError("bound polynomials live in different rings")
    if ring_vars is None:
        if target_variables is None:
            ring_vars = ()
        else:
            ring_vars = tuple(target_variables)
    elif target_variables is not None and tuple(target_variables) != ring_vars:
        raise VariableMismatchError("target_variables conflicts with bound values")

    needed = p.support_variables()
    missing = sorted(needed - set(bindings))
    if missing:
        raise ValueError(f"unbound variable(s): {', '.join(missing)}")

    values = {}
    for name in needed:
        v = bindings[name]
        if not isinstance(v, Polynomial):
            v = Polynomial.constant(ring_vars, v)
        values[name] = v

    # sum of c * prod(values[x]^e), caching the powers of each value
    one = Polynomial.one(ring_vars)
    powers = {name: [one, v] for name, v in values.items()}

    def power(name, e):
        cache = powers[name]
        while len(cache) <= e:
            cache.append(cache[-1] * cache[1])
        return cache[e]

    total = Polynomial.zero(ring_vars)
    for m, c in p.terms.items():
        prod = Polynomial.constant(ring_vars, c)
        for name, e in zip(p.variables, m):
            if e:
                prod = prod * power(name, e)
                if prod.is_zero():
                    break
        total = total + prod
    return total


# ---- ring-surgery helpers ----


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


def drop_variables(p: Polynomial, names) -> Polynomial:
    """Remove unused variables from the ring (error if any occurs in p)."""
    names = set(names)
    used = p.support_variables()
    clash = sorted(names & used)
    if clash:
        raise VariableMismatchError(f"cannot drop occurring variable(s) {clash}")
    keep = [v for v in p.variables if v not in names]
    return with_variables(p, keep)


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
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // math.gcd(den, c.denominator)
    num = 0
    for c in p.terms.values():
        num = math.gcd(num, abs(c.numerator * (den // c.denominator)))
    return Fraction(num, den)


def make_primitive(p: Polynomial) -> Polynomial:
    """Scale to integer coefficients with content 1, lex-leading coefficient > 0."""
    if p.is_zero():
        return p
    c = integer_content(p)
    q = p.map_coefficients(lambda x: x / c)
    # exponent tuples compare lexicographically
    if q.terms[max(q.terms)] < 0:
        q = -q
    return q


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
    return Polynomial._raw(p.variables, _unpack(quot, scale.denominator, layout))


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


def _lead_in(p: Polynomial, idx: int):
    """(degree, leading coefficient poly) of p viewed in the idx-th variable."""
    top = max(e[idx] for e in p.terms)
    lead = {
        m[:idx] + (0,) + m[idx + 1 :]: c for m, c in p.terms.items() if m[idx] == top
    }
    return top, Polynomial._raw(p.variables, lead)


def _shift_in(p: Polynomial, idx: int, k: int):
    """p * x_idx^k without building the monomial."""
    return Polynomial._raw(
        p.variables, {m[:idx] + (m[idx] + k,) + m[idx + 1 :]: c for m, c in p.terms.items()}
    )


def _pseudo_rem(f: Polynomial, g: Polynomial, idx: int) -> Polynomial:
    """Pseudo-remainder prem(f, g) = lc(g)^(deg f - deg g + 1) f mod g in x_idx."""
    df, _ = _lead_in(f, idx)
    dg, lcg = _lead_in(g, idx)
    r = f
    e = df - dg + 1
    while not r.is_zero():
        dr, lcr = _lead_in(r, idx)
        if dr < dg:
            break
        r = lcg * r - _shift_in(lcr * g, idx, dr - dg)
        e -= 1
    if e > 0:
        r = (lcg**e) * r
    return r


def _prs_gcd(f: Polynomial, g: Polynomial, idx: int) -> Polynomial:
    """Subresultant PRS gcd of polynomials primitive in x_idx.

    Returns the x_idx-primitive gcd (contents handled by the caller).
    """
    if _lead_in(f, idx)[0] < _lead_in(g, idx)[0]:
        f, g = g, f
    prev, cur = f, g
    d = _lead_in(prev, idx)[0] - _lead_in(cur, idx)[0]
    psi = Polynomial.constant(f.variables, -1)
    beta = Polynomial.constant(f.variables, (-1) ** (d + 1))
    while True:
        rem = _pseudo_rem(prev, cur, idx)
        if rem.is_zero():
            break
        nxt = exact_div(rem, beta)
        _, c = _lead_in(cur, idx)
        if d == 1:
            psi = -c
        elif d > 1:
            psi = exact_div((-c) ** d, psi ** (d - 1))
        prev, cur = cur, nxt
        d = _lead_in(prev, idx)[0] - _lead_in(cur, idx)[0]
        beta = -c * psi**d
    if _lead_in(cur, idx)[0] == 0:
        return Polynomial.one(f.variables)
    coeffs = [c for c in coefficients_in(cur, f.variables[idx]) if not c.is_zero()]
    cont = _gcd_many(coeffs)
    return exact_div(cur, cont)


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
    if a.is_constant() or b.is_constant():
        ca = int(integer_content(a))
        cb = int(integer_content(b))
        return Polynomial.constant(a.variables, math.gcd(ca, cb))
    used_a = a.support_variables()
    used_b = b.support_variables()
    common = used_a & used_b
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
    return -p if p.terms[max(p.terms)] < 0 else p


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Gcd in Q[X]: Z-primitive, positive lex-leading coefficient.

    Recursive subresultant PRS in the least-frequent variable; adequate at
    desk scale (total degree <= 12, <= 6 variables) and a known performance
    cliff beyond that.
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
    return _gcd_z(make_primitive(p), make_primitive(q))


def squarefree_part(p: Polynomial) -> Polynomial:
    """Product of the distinct irreducible factors of p.

    Computed as p / gcd(p, dp/dx_1, ..., dp/dx_n); the result is a generator
    of the radical of (p), integer-primitive with positive lex-leading
    coefficient.
    """
    if p.is_zero():
        raise ValueError("squarefree part of the zero polynomial is undefined")
    p = make_primitive(p)
    if p.is_constant():
        return Polynomial.one(p.variables)
    g = p
    for name in sorted(p.support_variables()):
        g = poly_gcd(g, p.partial_derivative(name))
        if g.is_constant():
            break
    return make_primitive(exact_div(p, g))


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
    def identity(cls, variables):
        variables = tuple(variables)
        return cls([Polynomial.variable(variables, v) for v in variables])

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
        return PolyMap(
            [substitute(c, bindings, inner.variables) for c in self.components]
        )

    def compose_truncated(self, inner: "PolyMap", cap: int) -> "PolyMap":
        # kept only because bench/tracing.py wraps this name; nothing calls it
        return PolyMap([c.truncated(cap) for c in self.compose(inner).components])

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        body = "; ".join(str(c) for c in self.components)
        return f"PolyMap({', '.join(self.variables)} -> {body})"
