"""Curve equation systems and exhaustive integer-point search in a box.

Systems are cleared to integer-primitive equations on construction, so the
search arithmetic is purely integral.  The depth-first search assigns
variables in a heuristic order and, whenever a specialized equation involves
exactly one unassigned variable, replaces range scanning by exact integer
root extraction (divisor test on the constant term).  A node budget turns
oversized searches into a reported non-exhaustive result, never a hang.

Reports cannot certify emptiness: "none in box" always means "no nonzero
integer point with max-norm <= B", nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from .errors import VariableMismatchError
from .fibers import Line
from .polyring import Polynomial, PolyMap, make_primitive

DEFAULT_NODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class EquationSystem:
    """Equations p = 0 over one shared variable list, integer-primitive."""

    polynomials: tuple

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

    @property
    def variables(self):
        return self.polynomials[0].variables

    @property
    def n(self) -> int:
        return len(self.variables)

    def satisfied_by(self, point) -> bool:
        return all(p.evaluate(point) == 0 for p in self.polynomials)


def curve_CF(F: PolyMap) -> EquationSystem:
    """The curve F_1(X) = F_2(X) = ... = F_n(X) as n-1 differences."""
    if F.n < 2:
        raise ValueError("need at least two components")
    eqs = [F.components[i] - F.components[i + 1] for i in range(F.n - 1)]
    return EquationSystem(tuple(eqs))


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
    if line.n != F.n:
        raise ValueError("line dimension does not match component count")
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
    total = Polynomial.zero(F.variables)
    for c in F.components[: F.n - 1]:
        total = total + c * c
    return total


# ---- box search ----


@dataclass(frozen=True)
class SearchReport:
    box_radius: int
    points: tuple  # lexicographically sorted integer tuples
    exhausted: bool
    nodes_visited: int


def format_report(report: SearchReport) -> str:
    """Line format: one point per line, then the exhausted/nodes footer."""
    lines = [" ".join(str(x) for x in p) for p in report.points]
    lines.append(f"exhausted: {'yes' if report.exhausted else 'no'}")
    lines.append(f"nodes: {report.nodes_visited}")
    return "\n".join(lines) + "\n"


def _integer_coeff_list(p: Polynomial, idx: int):
    """Coefficients of powers of variable idx for a poly univariate in it."""
    top = max(m[idx] for m in p.terms)
    coeffs = [0] * (top + 1)
    for m, c in p.terms.items():
        coeffs[m[idx]] = int(c)
    return coeffs


def _integer_roots(coeffs, B):
    """Integer roots within [-B, B]: strip zero roots, then trial-divide the
    constant term by the candidates in the box."""
    shift = 0
    while shift < len(coeffs) and coeffs[shift] == 0:
        shift += 1
    roots = [0] if shift > 0 else []
    body = coeffs[shift:]
    if not body:
        return roots
    c0 = body[0]
    for y in range(-B, B + 1):
        if y == 0 or c0 % y != 0:
            continue
        val = 0
        for c in reversed(body):
            val = val * y + c
        if val == 0:
            roots.append(y)
    return sorted(set(roots))


class _BoxSearch:
    def __init__(self, system: EquationSystem, B: int, budget: int):
        self.system = system
        self.B = B
        self.budget = budget
        self.nodes = 0
        self.hit_budget = False
        self.points = set()
        self.nvars = system.n

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
        eqs = [p for p in self.system.polynomials if not p.is_zero()]
        assignment = [None] * self.nvars
        self._explore(eqs, assignment)

    def _specialize(self, p: Polynomial, idx: int, value: int):
        terms = {}
        for m, c in p.terms.items():
            e = m[idx]
            coef = c * value**e if e else c
            if coef == 0:
                continue
            key = m[:idx] + (0,) + m[idx + 1 :]
            s = terms.get(key, 0) + coef
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return Polynomial._raw(p.variables, terms)

    def _explore(self, eqs, assignment):
        if self.hit_budget:
            return
        self.nodes += 1
        if self.nodes > self.budget:
            self.hit_budget = True
            return

        live = []
        for p in eqs:
            if p.is_zero():
                continue
            if p.is_constant():
                return  # nonzero constant: contradiction, prune
            live.append(p)

        unassigned = [i for i in range(self.nvars) if assignment[i] is None]
        if not unassigned:
            point = tuple(assignment)
            if self.system.satisfied_by(point):
                self.points.add(point)
            return

        # exact roots when an equation involves exactly one unassigned variable
        for p in live:
            touched = {i for m in p.terms for i in range(self.nvars) if m[i]}
            if len(touched) == 1:
                (idx,) = touched
                coeffs = _integer_coeff_list(p, idx)
                for root in _integer_roots(coeffs, self.B):
                    self._assign(eqs, assignment, idx, root)
                return

        idx = next(i for i in self.var_order if assignment[i] is None)
        for value in range(-self.B, self.B + 1):
            self._assign(eqs, assignment, idx, value)

    def _assign(self, eqs, assignment, idx, value):
        if self.hit_budget:
            return
        assignment[idx] = value
        nxt = [self._specialize(p, idx, value) for p in eqs]
        self._explore(nxt, assignment)
        assignment[idx] = None


def search_box(
    system: EquationSystem,
    B: int,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SearchReport:
    """All integer solutions with max-norm <= B, within a node budget.

    Every reported point is re-verified against all equations exactly.
    `exhausted` is true iff the budget was never hit.
    """
    if B < 0:
        raise ValueError("box radius must be non-negative")
    engine = _BoxSearch(system, B, budget)
    engine.run()
    return SearchReport(
        box_radius=B,
        points=tuple(sorted(engine.points)),
        exhausted=not engine.hit_budget,
        nodes_visited=engine.nodes,
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
