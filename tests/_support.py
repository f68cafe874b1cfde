"""Deterministic random generators and independent oracles shared by tests."""

import math
from fractions import Fraction
from itertools import product
from operator import mul

from kellerlab._linalg import fraction_matrix_inverse, int_matrix_det, mat_mul
from kellerlab.bundled import bundled_names, bundled_text
from kellerlab.diophantine import _integer_roots
from kellerlab.elim import resultant
from kellerlab.errors import ExactDivisionError
from kellerlab.expr_io import parse_system_file
from kellerlab.keller import CubicLinearForm
from kellerlab.lattice import egcd
from kellerlab.polyring import (
    Polynomial,
    PolyMap,
    coefficients_in,
    exact_div,
    poly_gcd,
    substitute,
    with_variables,
)


def bundled_map_names() -> list:
    """Sorted names of the bundled map files."""
    return [n for n in bundled_names() if n.endswith(".map")]


def load_bundled_system(name: str):
    """The bundled system file `name`, parsed."""
    return parse_system_file(bundled_text(name))


def random_polynomial(rng, variables, max_degree=3, max_terms=4, coeff_bound=6,
                      allow_zero=True):
    """Random sparse polynomial with small integer coefficients."""
    n = len(variables)
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        exps = [0] * n
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exps[rng.randrange(n)] += 1
        c = 0
        while c == 0:
            c = rng.randint(-coeff_bound, coeff_bound)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + c
    return Polynomial(variables, {m: c for m, c in terms.items() if c})


def random_rational(rng, num_bound=5, den_choices=(1, 2, 3)):
    return Fraction(rng.randint(-num_bound, num_bound), rng.choice(den_choices))


def random_linear_bindings(rng, variables):
    """Variable -> random invertible-ish linear polynomial (not necessarily
    invertible; fine for functoriality checks)."""
    out = {}
    for v in variables:
        p = Polynomial.zero(variables)
        for w in variables:
            c = rng.randint(-3, 3)
            if c:
                p = p + c * Polynomial.variable(variables, w)
        p = p + rng.randint(-2, 2)
        if p.is_zero():
            p = Polynomial.variable(variables, v)
        out[v] = p
    return out


def random_poly_map(rng, variables, max_degree=3, max_terms=3):
    comps = [
        random_polynomial(rng, variables, max_degree, max_terms, coeff_bound=3,
                          allow_zero=False)
        for _ in variables
    ]
    return PolyMap(comps)


def random_primitive_vector(rng, n, bound=50):
    import math

    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(n))
        if any(v) and math.gcd(*(abs(x) for x in v)) == 1:
            return v


def reference_sl_complete(v):
    """Rows of an SL(n, Z) matrix with first column v, by the induction of
    `lattice.sl_complete` with its determinant form c1 alpha + c2 beta
    computed from two bordered matrices by Bareiss elimination."""
    v = list(v)
    n = len(v)
    if n == 1:
        if v[0] != 1:
            raise ValueError("SL(1, Z) cannot reach (-1)")
        return [[1]]
    if v[0] == 0:
        k = next(i for i, x in enumerate(v) if x)
        swapped = list(v)
        swapped[0], swapped[k] = swapped[k], swapped[0]
        rows = reference_sl_complete(swapped)
        rows[0], rows[k] = rows[k], rows[0]
        for row in rows:
            row[1] = -row[1]
        return rows
    if n == 2:
        _, x, y = egcd(v[0], v[1])
        return [[v[0], -y], [v[1], x]]
    r = math.gcd(*v[1:])
    if r == 0:
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        rows[0][0] = rows[1][1] = v[0]
        return rows
    vbar = [x // r for x in v[1:]]
    abar = reference_sl_complete(vbar)

    def bordered(alpha, beta):
        rows = [[v[0]] + [0] * (n - 2) + [beta]]
        for i in range(1, n):
            rows.append([v[i]] + abar[i - 1][1 : n - 1] + [alpha * vbar[i - 1]])
        return rows

    _, x, y = egcd(int_matrix_det(bordered(1, 0)), int_matrix_det(bordered(0, 1)))
    return bordered(x, y)


def reference_map_primitive_pair(v, w):
    """Rows of reference_sl_complete(w) times the inverse of
    reference_sl_complete(v)."""
    inv = fraction_matrix_inverse(reference_sl_complete(v))
    return [[int(x) for x in row] for row in mat_mul(reference_sl_complete(w), inv)]


def random_sl2(rng, steps=6):
    """Random SL(2, Z) matrix as a word in the elementary generators."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(steps):
        k = rng.randint(-3, 3)
        if rng.random() < 0.5:
            a, b, c, d = a + k * c, b + k * d, c, d
        else:
            a, b, c, d = a, b, c + k * a, d + k * b
    return [[a, b], [c, d]]


def random_triangular_form(rng, n, coeff_bound=2) -> CubicLinearForm:
    """Strictly lower-triangular integer cubic-linear form (always Keller)."""
    rows = []
    for i in range(n):
        row = [0] * n
        for j in range(i):
            row[j] = rng.randint(-coeff_bound, coeff_bound)
        rows.append(tuple(row))
    return CubicLinearForm(tuple(rows))


def is_scalar_multiple(p: Polynomial, q: Polynomial) -> bool:
    """True iff p = c q for some nonzero rational c (over one ring)."""
    if p.variables != q.variables:
        raise ValueError("compare polynomials over the same ring")
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    if set(p.terms) != set(q.terms):
        return False
    ratio = None
    for m, c in p.terms.items():
        r = c / q.terms[m]
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return True


def embed(p: Polynomial, variables) -> Polynomial:
    return with_variables(p, variables)


def coprime_pair(rng, variables, max_degree=4):
    """Random nonconstant coprime pair for the squarefree-part property."""
    one = Polynomial.one(variables)
    while True:
        p = random_polynomial(rng, variables, max_degree=max_degree, max_terms=3,
                              coeff_bound=3, allow_zero=False)
        q = random_polynomial(rng, variables, max_degree=max_degree, max_terms=3,
                              coeff_bound=3, allow_zero=False)
        if p.is_constant() or q.is_constant():
            continue
        if poly_gcd(p, q) == one:
            return p, q


# ---- independent oracles ----


def homogeneous_components(p: Polynomial):
    """List of (degree, component) pairs, degrees strictly increasing."""
    buckets = {}
    for m, c in p.terms.items():
        buckets.setdefault(sum(m), {})[m] = c
    return [(d, Polynomial(p.variables, buckets[d])) for d in sorted(buckets)]


def naive_mul(a: dict, b: dict):
    """Dict-of-exponent-tuples product by plain distribution."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = tuple(x + y for x, y in zip(m1, m2))
            out[key] = out.get(key, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def reference_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """p * q by the plain Fraction double loop over exponent tuples."""
    res = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = res.get(m, Fraction(0)) + c1 * c2
            if s:
                res[m] = s
            else:
                res.pop(m, None)
    return Polynomial(p.variables, res)


def grlex_key(exps):
    """Sort key realizing graded lex (earlier variables dominate ties)."""
    return (sum(exps), exps)


def reference_exact_div(p: Polynomial, q: Polynomial) -> Polynomial:
    """p / q by Fraction long division, reselecting the grlex-largest
    remainder term each step; ExactDivisionError on a remainder."""
    qlm = max(q.terms, key=grlex_key)
    qlc = q.terms[qlm]
    rem = dict(p.terms)
    quot = {}
    while rem:
        m = max(rem, key=grlex_key)
        diff = tuple(a - b for a, b in zip(m, qlm))
        if any(e < 0 for e in diff):
            raise ExactDivisionError("division has a remainder")
        k = rem[m] / qlc
        quot[diff] = k
        for qm, qc in q.terms.items():
            t = tuple(a + b for a, b in zip(diff, qm))
            s = rem.get(t, Fraction(0)) - k * qc
            if s:
                rem[t] = s
            else:
                rem.pop(t, None)
    return Polynomial(p.variables, quot)


def reference_key_function(order, variables):
    """Tuple sort key of a TermOrder over `variables`: lex compares the
    exponents in priority order, grlex the total degree first, and a block
    order each block's degree and exponents in turn."""
    variables = tuple(variables)
    idx = tuple(variables.index(name) for name in order.priority)
    if order.kind == "lex":
        return lambda e: tuple(e[i] for i in idx)
    if order.kind == "grlex":
        return lambda e: (sum(e), tuple(e[i] for i in idx))
    head, tail = idx[: order.split], idx[order.split :]

    def block_key(e):
        h = tuple(e[i] for i in head)
        t = tuple(e[i] for i in tail)
        return (sum(h), h, sum(t), t)

    return block_key


def reference_reduce_poly(p: Polynomial, basis, key) -> Polynomial:
    """Full normal form of p modulo nonzero polynomials by the Fraction term
    loop: reselect the key-largest term, reduce it by the first basis element
    whose leading monomial divides it."""
    lead = [(max(g.terms, key=key), g) for g in basis]
    work = dict(p.terms)
    remainder = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for lm, g in lead:
            if all(x <= y for x, y in zip(lm, m)):
                shift = tuple(a - b for a, b in zip(m, lm))
                factor = c / g.terms[lm]
                for gm, gc in g.terms.items():
                    t = tuple(a + b for a, b in zip(shift, gm))
                    if t == m:
                        continue
                    s = work.get(t, Fraction(0)) - factor * gc
                    if s:
                        work[t] = s
                    else:
                        work.pop(t, None)
                break
        else:
            remainder[m] = c
    return Polynomial(p.variables, remainder)


def reference_s_polynomial(f: Polynomial, g: Polynomial, key) -> Polynomial:
    """S-polynomial (L / lt(f)) f - (L / lt(g)) g, L the lcm of the key-largest
    monomials, by Polynomial arithmetic."""
    lf, lg = max(f.terms, key=key), max(g.terms, key=key)
    lcm = tuple(map(max, lf, lg))

    def cofactor(lead, coef):
        shift = tuple(a - b for a, b in zip(lcm, lead))
        return Polynomial(f.variables, {shift: 1 / coef})

    return cofactor(lf, f.terms[lf]) * f - cofactor(lg, g.terms[lg]) * g


def reference_groebner(gens, key):
    """Reduced Groebner basis, as a set of monic polynomials, by plain
    Buchberger on Fractions: every S-polynomial of the growing basis is
    reduced by reference_reduce_poly, with no criteria; then the basis is
    minimalized, autoreduced and made monic."""
    basis = [g for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        s = reference_s_polynomial(basis[i], basis[j], key)
        r = reference_reduce_poly(s, basis, key)
        if not r.is_zero():
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(r)

    def lead(g):
        return max(g.terms, key=key)

    minimal = []
    for g in sorted(basis, key=lambda g: key(lead(g))):
        if not any(all(a <= b for a, b in zip(lead(h), lead(g))) for h in minimal):
            minimal.append(g)
    reduced = set()
    for idx, g in enumerate(minimal):
        r = reference_reduce_poly(g, minimal[:idx] + minimal[idx + 1 :], key)
        reduced.add(r * (1 / r.terms[lead(r)]))
    return reduced


def reference_det(rows) -> Polynomial:
    """Determinant of a square polynomial matrix by Laplace expansion along
    the columns, each minor (a set of rows against the trailing columns)
    computed once."""
    n = len(rows)
    variables = rows[0][0].variables
    minors = {(): Polynomial.one(variables)}

    def det(free):
        if free not in minors:
            col = n - len(free)
            total = Polynomial.zero(variables)
            for k, i in enumerate(free):
                if not rows[i][col].is_zero():
                    term = rows[i][col] * det(free[:k] + free[k + 1:])
                    total = total - term if k % 2 else total + term
            minors[free] = total
        return minors[free]

    return det(tuple(range(n)))


def reference_resultant(p: Polynomial, q: Polynomial, t, m, n) -> Polynomial:
    """Res_t(p, q) at formal degrees (m, n) as the determinant of the
    (m + n) x (m + n) Sylvester matrix, coefficient rows padded with zeros
    up to the formal degrees; m + n >= 1."""
    zero = Polynomial.zero(p.variables)
    cp, cq = coefficients_in(p, t), coefficients_in(q, t)
    rp = [(cp[k] if k < len(cp) else zero) for k in range(m, -1, -1)]
    rq = [(cq[k] if k < len(cq) else zero) for k in range(n, -1, -1)]
    size = m + n
    rows = [[zero] * s + rp + [zero] * (size - s - m - 1) for s in range(n)]
    rows += [[zero] * s + rq + [zero] * (size - s - n - 1) for s in range(m)]
    return reference_det(rows)


def discriminant(p: Polynomial, t: str) -> Polynomial:
    """Discriminant of p in t at its t-degree d >= 1.

    For d >= 2 this is (-1)^(d(d-1)/2) Res_t(p, dp/dt) divided exactly by
    the coefficient of t^d; for d = 1 it is the constant 1.
    """
    d = p.degree_in(t)
    if d < 1:
        raise ValueError("t-degree must be at least 1")
    if d == 1:
        return Polynomial.one(p.variables)
    res = resultant(p, p.partial_derivative(t), t)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return exact_div(sign * res, coefficients_in(p, t)[d])


def reference_scale_conjugate(F: PolyMap, r) -> PolyMap:
    """(1/r) F(rX) by substituting r x for each variable x."""
    r = Fraction(r)
    bindings = {v: r * Polynomial.variable(F.variables, v) for v in F.variables}
    return PolyMap([substitute(c, bindings, F.variables) * (1 / r) for c in F.components])


def reference_extend_variables(F: PolyMap, ring) -> PolyMap:
    """(F(X), Y) over `ring` = X followed by Y, substituting each x by itself."""
    bindings = {v: Polynomial.variable(ring, v) for v in F.variables}
    comps = [substitute(c, bindings, ring) for c in F.components]
    comps.extend(Polynomial.variable(ring, v) for v in ring[len(F.variables):])
    return PolyMap(comps)


def reference_translate_to_origin(F: PolyMap, a) -> PolyMap:
    """F(Z - a) - F(-a), with F(-a) evaluated at the point."""
    variables = F.variables
    bindings = {v: Polynomial.variable(variables, v) - x for v, x in zip(variables, a)}
    values = F.evaluate([-Fraction(x) for x in a])
    return PolyMap([substitute(c, bindings, variables) - val
                    for c, val in zip(F.components, values)])


def random_map_fixing_origin(rng, variables, max_degree=4, max_terms=4) -> PolyMap:
    """Random map with its constant terms removed."""
    origin = (0,) * len(variables)
    F = random_poly_map(rng, variables, max_degree, max_terms)
    return PolyMap([c - c.coefficient(origin) for c in F.components])


def naive_grid_points(system, B):
    """Full-grid enumeration oracle for box searches."""
    pts = []
    n = system.n
    for cand in product(range(-B, B + 1), repeat=n):
        if system.satisfied_by(cand):
            pts.append(cand)
    return sorted(pts)


def _reference_support(monomial) -> int:
    mask = 0
    for i, e in enumerate(monomial):
        if e:
            mask |= 1 << i
    return mask


def _reference_split(terms, idx):
    rows = {}
    for m, c in terms.items():
        e = m[idx]
        rest = m[:idx] + (0,) + m[idx + 1 :]
        coeffs = rows.get(rest)
        if coeffs is None:
            coeffs = rows[rest] = []
        if len(coeffs) <= e:
            coeffs.extend([0] * (e + 1 - len(coeffs)))
        coeffs[e] = c
    return [(rest, _reference_support(rest), coeffs) for rest, coeffs in rows.items()]


class ReferenceBoxSearch:
    """The box search with one code path at every level: child dicts.

    Every node, the last level included, builds its children's equation
    maps and recurses, so it is an oracle for the engine's points,
    exhausted flag and node count.  Root extraction is the engine's
    `_integer_roots`, which its own tests check against brute force.
    """

    def __init__(self, system, B, budget):
        self.system = system
        self.B = B
        self.budget = budget
        self.nodes = 0
        self.hit_budget = False
        self.points = set()
        self.nvars = system.n
        scores = {}
        for i, name in enumerate(system.variables):
            touching = [
                p.total_degree()
                for p in system.polynomials
                if name in p.support_variables()
            ]
            scores[i] = (min(touching) if touching else 10**9, i)
        self.var_order = sorted(range(self.nvars), key=lambda i: scores[i])

    def run(self):
        eqs = []
        for p in self.system.polynomials:
            if p.is_zero():
                continue
            terms = {m: int(c) for m, c in p.terms.items()}
            mask = 0
            for m in terms:
                mask |= _reference_support(m)
            eqs.append((terms, mask))
        self._explore(eqs, [None] * self.nvars)
        return tuple(sorted(self.points)), not self.hit_budget, self.nodes

    def _explore(self, eqs, assignment):
        self.nodes += 1
        if self.nodes > self.budget:
            self.hit_budget = True
            return
        for terms, mask in eqs:
            if terms and not mask:
                return
        if None not in assignment:
            point = tuple(assignment)
            if self.system.satisfied_by(point):
                self.points.add(point)
            return
        for terms, mask in eqs:
            if mask and not mask & (mask - 1):
                idx = mask.bit_length() - 1
                coeffs = []
                for m, c in terms.items():
                    e = m[idx]
                    if len(coeffs) <= e:
                        coeffs.extend([0] * (e + 1 - len(coeffs)))
                    coeffs[e] = c
                self._branch(eqs, assignment, idx, _integer_roots(coeffs, self.B))
                return
        idx = next(i for i in self.var_order if assignment[i] is None)
        self._branch(eqs, assignment, idx, range(-self.B, self.B + 1))

    def _branch(self, eqs, assignment, idx, values):
        if not values:
            return
        bit = 1 << idx
        plans = [
            _reference_split(terms, idx) if mask & bit else None for terms, mask in eqs
        ]
        top = max((len(row[2]) for plan in plans if plan for row in plan), default=1)
        for value in values:
            if self.hit_budget:
                break
            powers = [1] * top
            for e in range(1, top):
                powers[e] = powers[e - 1] * value
            children = []
            for eq, plan in zip(eqs, plans):
                if plan is None:
                    children.append(eq)
                    continue
                terms = {}
                mask = 0
                for rest, rest_mask, coeffs in plan:
                    c = sum(map(mul, coeffs, powers))
                    if c:
                        terms[rest] = c
                        mask |= rest_mask
                children.append((terms, mask))
            assignment[idx] = value
            self._explore(children, assignment)
        assignment[idx] = None


def reference_search_box(system, B, budget=10**6):
    """(points, exhausted, nodes) of the child-dict box search."""
    return ReferenceBoxSearch(system, B, budget).run()


def univariate_coeffs(p: Polynomial, name):
    """Rational coefficient list (low to high) of a poly univariate in name."""
    idx = p.variables.index(name)
    top = 0 if p.is_zero() else max(m[idx] for m in p.terms)
    out = [Fraction(0)] * (top + 1)
    for m, c in p.terms.items():
        if sum(m) != m[idx]:
            raise ValueError("polynomial is not univariate in the given variable")
        out[m[idx]] += c
    return out


def univariate_gcd_degree(a, b):
    """Degree of gcd of two rational coefficient lists, by plain Euclid."""

    def deg(c):
        d = len(c) - 1
        while d >= 0 and c[d] == 0:
            d -= 1
        return d

    def rem(f, g):
        f = list(f)
        dg = deg(g)
        while deg(f) >= dg >= 0:
            df = deg(f)
            factor = f[df] / g[dg]
            for i in range(dg + 1):
                f[df - dg + i] -= factor * g[i]
            f[df] = Fraction(0)
        return f

    fa, fb = list(a), list(b)
    while deg(fb) >= 0:
        fa, fb = fb, rem(fa, fb)
    return deg(fa)
