"""Curve equation systems and exhaustive integer-point search in a box.

Systems are cleared to integer-primitive equations on construction and store
each one once more as a map from exponent tuples to int coefficients; the
search and the point check run on that form alone.  At each node `_split`
groups the equations by their monomials in the other variables, so assigning
a value is one int dot product per group; no Fraction or Polynomial is
built.  The depth-first search assigns variables in a heuristic order and,
whenever a specialized equation involves exactly one unassigned variable,
replaces range scanning by exact integer root extraction.  The leaf level,
where at most one variable is left after the assignment, builds no child
maps: the `_split` rows of each equation are keyed by the power of the last
variable, so a value gives its coefficient lists in that variable directly,
and the roots of the first non-constant one are checked on every equation.
A root extraction is a divisor test on the constant term for candidates
up to a root bound of the polynomial, cut at the box radius.  Every
reported point is re-verified on the int equations.

A residue sieve drops the leaf's scanned values at which the first nonzero
equation E cannot vanish.  With idx = v, E reads c_0(v) + c_1(v) y + ... +
c_d(v) y^d in the last variable y, and v is dropped when, for some m of
SIEVE_MODULI, -c_0(v) mod m is not a value of c_1(v) y + ... + c_d(v) y^d
mod m: then E has no root mod m, so no integer root.  Each m tests the
values still alive on scanned ranges of at least 3m values and is skipped
on shorter ones, so 5, the last, alone sieves 15 to 20 values.  A value
kept on 27 or more gives E a root mod 8, 9, 7 and 5, hence mod 2, 3 and 4,
so the root extraction tests no residues: it would reject only where E
vanishes at v, a zero root was stripped, the values were not sieved, or
above the leaf.  Only the residues v mod m of the values alive are tested,
and each verdict is memoised under (m, E's index, idx, the assigned values
mod m), which fix E's coefficients mod m, and each image set under (m,
c_1, ..., c_d mod m).  On the CF curves c_1..c_d do not depend on v, so
one image set per modulus serves the whole search.  The leaf evaluates the
surviving values only and counts the dropped ones as nodes in bulk, one
each, as the plain recursion does: it gives each exactly one node and no
point, since the equations before E are zero, so either E or a later
equation is a nonzero constant and prunes, or E is the non-constant
equation whose roots would be branched on, and it has none.  A budget that
trips inside a dropped run stops at budget + 1.  Node counts, points and
budget stops are therefore those of the unsieved search.  The report's
`stats` count the dropped values, the root extractions and the memo
entries built.

A node budget turns large searches into a reported non-exhaustive result.
The node at which the budget trips is counted, so a stopped search reports
budget + 1 nodes.  The budget does not count a root extraction's trial
divisions, so at a large radius one node can take seconds.  A system in
which some variable's degree times bit_length(B) passes
MAX_SEARCH_POWER_BITS is refused with BudgetExceededError before any
powers table is built.

Reports cannot certify emptiness: "none in box" always means "no nonzero
integer point with max-norm <= B", nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from math import prod
from operator import mul

from .errors import BudgetExceededError, VariableMismatchError
from .fibers import Line
from .polyring import Polynomial, PolyMap, _add_terms, integer_root, make_primitive

DEFAULT_NODE_BUDGET = 1_000_000
# Largest degree * bit_length(B) of a variable of a searched system: the
# powers tables of `_branch` and `_leaf` hold value^e for every e up to the
# degree, about degree^2 * bit_length(B) / 2 bits per value, so x^3000000 at
# radius 2 would fill the memory.
MAX_SEARCH_POWER_BITS = 1 << 14
# moduli of the leaf's residue sieve, in the order they are tried
SIEVE_MODULI = (7, 8, 9, 11, 13, 5)


@dataclass(frozen=True)
class EquationSystem:
    """Equations p = 0 over one shared variable list, integer-primitive,
    each also kept as an {exponent tuple: int} map in `integer_terms`."""

    polynomials: tuple
    integer_terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        polys = tuple(self.polynomials)
        if not polys:
            raise ValueError("system needs at least one equation")
        vars0 = polys[0].variables
        cleaned = []
        for p in polys:
            if p.variables != vars0:
                raise VariableMismatchError("equations over different variables")
            cleaned.append(make_primitive(p))
        object.__setattr__(self, "polynomials", tuple(cleaned))
        object.__setattr__(self, "integer_terms", tuple(
            {m: c.numerator for m, c in p.terms.items()} for p in cleaned
        ))

    @property
    def variables(self):
        return self.polynomials[0].variables

    @property
    def n(self) -> int:
        return len(self.variables)

    def satisfied_by(self, point) -> bool:
        point = tuple(point)
        if len(point) != self.n:
            raise ValueError("point length does not match variable count")
        return not any(
            sum(c * prod(map(pow, point, m)) for m, c in terms.items())
            for terms in self.integer_terms
        )


def curve_CF(F: PolyMap) -> EquationSystem:
    """The curve F_1(X) = F_2(X) = ... = F_n(X) as n-1 differences."""
    return curve_CFm(F, 0)


def curve_CFm(F: PolyMap, m: int) -> EquationSystem:
    """F_1 = ... = F_m = 0 together with F_{m+1} = ... = F_n."""
    if not 0 <= m < F.n:
        raise ValueError(f"m must satisfy 0 <= m < {F.n}")
    if F.n < 2:
        raise ValueError("need at least two components")
    eqs = list(F.components[:m])
    for i in range(m, F.n - 1):
        eqs.append(F.components[i] - F.components[i + 1])
    return EquationSystem(tuple(eqs))


def line_preimage(F: PolyMap, line: Line) -> EquationSystem:
    """Equations cutting out {x : F(x) on the line u + t v}.

    With p the least index where v_p != 0, the n-1 equations are
    (F_i - u_i) v_p - (F_p - u_p) v_i = 0 for i != p.
    """
    line.in_dimension(F.n)
    p = next(i for i, x in enumerate(line.v) if x)
    Fp = F.components[p] - line.u[p]
    eqs = []
    for i in range(F.n):
        if i == p:
            continue
        Fi = F.components[i] - line.u[i]
        eqs.append(Fi * line.v[p] - Fp * line.v[i])
    return EquationSystem(tuple(eqs))


def cor1_sum_of_squares(F: PolyMap) -> Polynomial:
    """F_1^2 + ... + F_{n-1}^2; its integer zeros are the common zeros."""
    if F.n < 2:
        raise ValueError("need at least two components")
    total = {}
    for c in F.components[: F.n - 1]:
        _add_terms(total, (c * c).terms)
    return Polynomial._raw(F.variables, total)


# ---- box search ----


@dataclass(frozen=True)
class SearchReport:
    box_radius: int
    points: tuple  # lexicographically sorted integer tuples
    exhausted: bool
    nodes_visited: int
    # work counters, not part of the answer: "sieved" values dropped by the
    # leaf sieve (a leaf's whole range, also past a budget stop), root
    # "extractions" and sieve "memo_entries" built
    stats: dict = field(default_factory=dict, compare=False, repr=False)


def format_report(report: SearchReport) -> str:
    """Line format: one point per line, then the exhausted/nodes footer."""
    lines = [" ".join(str(x) for x in p) for p in report.points]
    lines.append(f"exhausted: {'yes' if report.exhausted else 'no'}")
    lines.append(f"nodes: {report.nodes_visited}")
    return "\n".join(lines) + "\n"


def _root_bound(coeffs, cap=None) -> int:
    """Integer R >= every positive real root of sum coeffs[k] y^k, or cap if lower.

    Fujiwara's bound 2 max(|c_{d-i}/c_d|^(1/i), |c_0/(2 c_d)|^(1/d)), each
    term rounded up with an exact integer k-th root, taken only over the
    coefficients c_{d-i} of sign opposite to c_d: for y > 2 max those terms
    cannot cancel c_d y^d, and the others have its sign.  With every c_k of
    k < d negated to -|c_k| it is Fujiwara's bound on the modulus of every
    complex root.  The first term t with 2t >= cap returns cap; the lower
    estimate 2^((bit_length(n) - 1) // i) <= n^(1/i) often shows that
    without the root.  No cap means one above every term.  coeffs[-1] is
    nonzero.
    """
    d = len(coeffs) - 1
    lead = coeffs[d]
    if cap is None:
        cap = 2 * max(map(abs, coeffs)) + 1  # each term t <= n <= |c_k|
    half = (cap + 1) // 2  # least t with 2t >= cap
    r = 0
    for i in range(1, d + 1):
        a = coeffs[d - i]
        if a and (a < 0) != (lead < 0):
            scale = abs(lead) * (2 if i == d else 1)
            # least t with t^i >= |a| / scale, i.e. t^i >= ceil(|a| / scale)
            n = -(-abs(a) // scale)
            if 1 << ((n.bit_length() - 1) // i) >= half:
                return cap
            t = integer_root(n, i)
            if t**i != n:
                t += 1
            if t >= half:
                return cap
            r = max(r, t)
    return 2 * r


def _horner(coeffs, y):
    val = 0
    for c in reversed(coeffs):
        val = val * y + c
    return val


def _integer_roots(coeffs, B):
    """Sorted integer roots within [-B, B] of sum coeffs[k] y^k (not all 0).

    Zero roots are stripped.  A nonzero root y divides the remaining
    constant term, and |y| is at most the root bound of p(y) for y > 0 and
    of p(-y) for y < 0, so only those candidates up to B are trial-divided
    and then checked exactly (residues are the leaf sieve's test).
    """
    shift = 0
    while coeffs[shift] == 0:
        shift += 1
    roots = [0] if shift else []
    body = coeffs[shift:]
    c0 = body[0]
    pos = _root_bound(body, B)
    neg = _root_bound([-c if k & 1 else c for k, c in enumerate(body)], B)
    for y in range(1, max(pos, neg) + 1):
        if c0 % y:
            continue
        if y <= neg and _horner(body, -y) == 0:
            roots.append(-y)
        if y <= pos and _horner(body, y) == 0:
            roots.append(y)
    return sorted(roots)


def _support(monomial) -> int:
    """Bit i set iff variable i occurs in the exponent tuple."""
    mask = 0
    for i, e in enumerate(monomial):
        if e:
            mask |= 1 << i
    return mask


def _split(terms, idx):
    """Group {monomial: int} by the monomial with variable idx set to 0.

    Returns {rest: coefficients of idx^0, idx^1, ...}, so specializing
    idx = v is one dot product per row.
    """
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
    return rows


class _BoxSearch:
    """Depth-first search on int equations.

    An equation is a pair ({exponent tuple: nonzero int}, support mask);
    assigned variables have exponent 0 everywhere.  An empty map is the zero
    equation, a nonempty map with mask 0 a nonzero constant.
    """

    def __init__(self, system: EquationSystem, B: int, budget: int):
        self.system = system
        self.B = B
        self.budget = budget
        self.nodes = 0
        self.hit_budget = False
        self.points = set()
        self.nvars = system.n
        # (m, first, idx, assignment mod m) -> verdict per residue of idx
        self.verdicts = {}
        # (m, c_1, ..., c_d) -> {sum c_e y^e mod m : y mod m}
        self.images = {}
        self.sieved = 0  # values the leaf sieve dropped
        self.extractions = 0  # calls of _integer_roots

        # assignment order: variables in the lowest-degree equations first
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
        for terms in self.system.integer_terms:
            if terms:
                mask = 0
                for m in terms:
                    mask |= _support(m)
                eqs.append((terms, mask))
        self._explore(eqs, [None] * self.nvars)

    def _explore(self, eqs, assignment):
        if not self._count(1):
            return

        for terms, mask in eqs:
            if terms and not mask:
                return  # nonzero constant: contradiction, prune

        if None not in assignment:
            self._record(assignment)
            return

        # exact roots when an equation involves exactly one unassigned variable
        for terms, mask in eqs:
            if mask and not mask & (mask - 1):
                idx = mask.bit_length() - 1
                # every other variable is gone, so _split gives one row
                [coeffs] = _split(terms, idx).values()
                self.extractions += 1
                self._branch(eqs, assignment, idx, _integer_roots(coeffs, self.B))
                return

        idx = next(i for i in self.var_order if assignment[i] is None)
        self._branch(eqs, assignment, idx, range(-self.B, self.B + 1))

    def _branch(self, eqs, assignment, idx, values):
        """Explore idx = value for each value, specializing every equation."""
        if not values:
            return
        if assignment.count(None) <= 2:
            self._leaf(eqs, assignment, idx, values)
            return
        bit = 1 << idx
        plans = [
            [(rest, _support(rest), row) for rest, row in _split(terms, idx).items()]
            if mask & bit else None
            for terms, mask in eqs
        ]
        top = max(
            (len(row[2]) for plan in plans if plan for row in plan), default=1
        )
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

    def _leaf(self, eqs, assignment, idx, values):
        """_branch when at most one variable, `last`, is unassigned after idx.

        Each equation is grouped once into rows by the power of `last`, each
        row a coefficient list in powers of idx, so a value gives the
        coefficients of the equation in `last` as one dot product per row; no
        child dict is built.  The children and grandchildren follow
        _explore's rules inline: each value is a counted node that a nonzero
        constant prunes; the first non-constant equation gives the roots for
        `last`, and each root is a counted node that must zero every
        equation; when every equation vanishes, `last` is scanned.  Only the
        values that _survivors keeps are evaluated; the dropped ones between
        them are counted as nodes in bulk, since the first nonzero equation
        has no root there.  Points are re-verified on the system.
        """
        last = next(
            (i for i, a in enumerate(assignment) if a is None and i != idx), None
        )
        tables = []
        for terms, _ in eqs:
            # each _split row is a monomial in `last` alone
            rows = []
            for rest, coeffs in _split(terms, idx).items():
                e = 0 if last is None else rest[last]
                if len(rows) <= e:
                    rows.extend([] for _ in range(e + 1 - len(rows)))
                rows[e] = coeffs
            tables.append(rows)
        top = max((len(row) for rows in tables for row in rows), default=1)
        first = next((k for k, rows in enumerate(tables) if rows), None)
        keep = self._survivors(first, tables, idx, assignment, values)
        B = self.B
        counted = -1  # position in values of the last counted value
        for i in keep:
            if not self._count(i - counted):
                break
            counted = i
            value = values[i]
            powers = [1] * top
            for e in range(1, top):
                powers[e] = powers[e - 1] * value
            polys = []  # each equation's coefficients in `last`, zeros trimmed
            for rows in tables:
                p = [sum(map(mul, row, powers)) for row in rows]
                while p and not p[-1]:
                    p.pop()
                if len(p) == 1:
                    break  # nonzero constant: contradiction, prune
                polys.append(p)
            else:
                assignment[idx] = value
                if last is None:
                    self._record(assignment)
                    continue
                lead = next((p for p in polys if p), None)
                if lead is None:
                    ys = range(-B, B + 1)
                else:
                    self.extractions += 1
                    ys = _integer_roots(lead, B)
                for y in ys:
                    if not self._count(1):
                        break
                    if not any(_horner(p, y) for p in polys):
                        assignment[last] = y
                        self._record(assignment)
                if self.hit_budget:
                    break
        else:
            self._count(len(values) - 1 - counted)  # the dropped tail
        assignment[idx] = None
        if last is not None:
            assignment[last] = None

    def _count(self, k):
        """Count k nodes; False, with nodes at budget + 1, if that trips
        the budget, as counting them one by one would stop there."""
        self.nodes += k
        if self.nodes > self.budget:
            self.nodes = self.budget + 1
            self.hit_budget = True
            return False
        return True

    def _survivors(self, first, tables, idx, assignment, values):
        """Positions in `values` of the values that the leaf sieve keeps.

        E is the equation `first` (None when every equation is zero), given
        by _leaf's `tables[first]`.  With idx = v, E reads c_0(v) + c_1(v) y
        + ... + c_d(v) y^d in `last`, and for each m of SIEVE_MODULI in turn
        the values still alive are tested by their residue v mod m: v is
        dropped when -c_0(v) mod m is not in the image of c_1(v) y + ... +
        c_d(v) y^d mod m, since then E has no root mod m, so no integer
        root.  Only a range(-B, B + 1) is sieved, by each m for which it
        holds at least 3m values, so that a residue's test costs less than
        it saves; lists of extracted roots, at most a degree long, are kept
        whole.  E's rows mod m depend only on (m, first, idx, the assigned
        values mod m), so each residue's verdict is memoised under that key.
        """
        n = len(values)
        if first is None or not isinstance(values, range):
            return range(n)
        rows = tables[first]
        alive = range(n)
        for m in SIEVE_MODULI:
            if not alive:
                break
            if 3 * m > n:
                continue
            key = (m, first, idx, tuple(a if a is None else a % m for a in assignment))
            verdicts = self.verdicts.get(key)
            if verdicts is None:
                verdicts = self.verdicts[key] = [None] * m
            if len(alive) == n:
                # every residue is present, and the verdicts repeat every m
                # positions
                for r in range(m):
                    if verdicts[r] is None:
                        verdicts[r] = self._has_root_mod(rows, m, r)
                shift = values.start % m
                period = verdicts[shift:] + verdicts[:shift]
                alive = list(compress(range(n), period * (n // m + 1)))
                continue
            kept = []
            for i in alive:
                r = (values.start + i) % m
                verdict = verdicts[r]
                if verdict is None:
                    verdict = verdicts[r] = self._has_root_mod(rows, m, r)
                if verdict:
                    kept.append(i)
            alive = kept
        self.sieved += n - len(alive)
        return alive

    def _has_root_mod(self, rows, m, r):
        """Whether sum_e rows[e](r) y^e, rows[e] a coefficient list in
        powers of v, has a root y mod m; the images of c_1 y + ... + c_d y^d
        are memoised by (m, c_1, ..., c_d) mod m."""
        c0, *rest = [_horner(row, r) % m for row in rows]
        key = (m, *rest)
        image = self.images.get(key)
        if image is None:
            image = self.images[key] = {_horner([0, *rest], y) % m for y in range(m)}
        return -c0 % m in image

    def stats(self) -> dict:
        """Work counters: values dropped, root extractions, and the sieve's
        memo entries built (residue verdicts and images)."""
        verdicts = sum(len(v) - v.count(None) for v in self.verdicts.values())
        return {"sieved": self.sieved, "extractions": self.extractions,
                "memo_entries": verdicts + len(self.images)}

    def _record(self, assignment):
        point = tuple(assignment)
        if self.system.satisfied_by(point):
            self.points.add(point)


def search_box(
    system: EquationSystem,
    B: int,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SearchReport:
    """All integer solutions with max-norm <= B, within a node budget.

    Every reported point is re-verified against all equations exactly.
    `exhausted` is true iff the budget was never hit.  BudgetExceededError
    when a variable's degree times bit_length(B) passes
    MAX_SEARCH_POWER_BITS.
    """
    if B < 0:
        raise ValueError("box radius must be non-negative")
    for i, name in enumerate(system.variables):
        degree = max((e[i] for terms in system.integer_terms for e in terms), default=0)
        bits = degree * B.bit_length()
        if bits > MAX_SEARCH_POWER_BITS:
            raise BudgetExceededError(
                f"variable {name} has degree {degree}: its powers at box radius {B} "
                f"take up to {bits} bits, past the bound of {MAX_SEARCH_POWER_BITS} bits"
            )
    engine = _BoxSearch(system, B, budget)
    engine.run()
    return SearchReport(
        box_radius=B,
        points=tuple(sorted(engine.points)),
        exhausted=not engine.hit_budget,
        nodes_visited=engine.nodes,
        stats=engine.stats(),
    )


@dataclass(frozen=True)
class SearchVerdict:
    """Outcome of the nonzero-point probe; never a proof of emptiness."""

    kind: str  # found | none_in_box | budget_exceeded
    point: tuple | None
    report: SearchReport

    def message(self) -> str:
        if self.kind == "found":
            return "found nonzero point " + " ".join(str(x) for x in self.point)
        if self.kind == "none_in_box":
            return (
                f"no nonzero integer point with max-norm <= {self.report.box_radius}"
            )
        return "node budget exceeded before the box was exhausted"


def nonzero_point_exists(
    system: EquationSystem, B: int, budget: int = DEFAULT_NODE_BUDGET
) -> SearchVerdict:
    """Probe for a nonzero integer point with max-norm <= B."""
    report = search_box(system, B, budget)
    nonzero = [p for p in report.points if any(p)]
    if nonzero:
        return SearchVerdict("found", nonzero[0], report)
    if report.exhausted:
        return SearchVerdict("none_in_box", None, report)
    return SearchVerdict("budget_exceeded", None, report)
