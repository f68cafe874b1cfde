import random

import pytest

from kellerlab.bundled import load_bundled_map
from kellerlab.diophantine import (
    SIEVE_MODULI,
    EquationSystem,
    _BoxSearch,
    cor1_sum_of_squares,
    curve_CF,
    curve_CFm,
    format_report,
    _integer_roots,
    _root_bound,
    line_preimage,
    nonzero_point_exists,
    search_box,
)
from kellerlab.expr_io import parse_polynomial as P
from kellerlab.fibers import Line
from kellerlab.polyring import Polynomial, PolyMap, substitute
from kellerlab.transforms import choose_clearing_scale, conjugate_by_linear, scale_conjugate

from _support import (
    ReferenceBoxSearch,
    bundled_map_names,
    load_bundled_system,
    naive_grid_points,
    random_polynomial,
    random_rational,
    reference_search_box,
)

V = ("x", "y")
F_TRI = PolyMap([P("x + y^3", V), P("y", V)])


def test_curve_cf_examples():
    assert curve_CF(PolyMap.identity(("x1", "x2"))).polynomials == (
        P("x1 - x2", ("x1", "x2")),
    )
    assert curve_CF(F_TRI).polynomials == (P("x + y^3 - y", V),)
    sys3 = curve_CF(PolyMap.identity(("x1", "x2", "x3")))
    W = ("x1", "x2", "x3")
    assert sys3.polynomials == (P("x1 - x2", W), P("x2 - x3", W))
    with pytest.raises(ValueError):
        curve_CF(PolyMap([P("x + y", V)]))


def test_curve_cfm_examples():
    F = PolyMap.identity(("x1", "x2", "x3"))
    W = F.variables
    assert curve_CFm(F, 0).polynomials == curve_CF(F).polynomials
    assert curve_CFm(F, 2).polynomials == (P("x1", W), P("x2", W))
    assert curve_CFm(F, 1).polynomials == (P("x1", W), P("x2 - x3", W))
    with pytest.raises(ValueError):
        curve_CFm(F, 3)
    for name in bundled_map_names():
        G = load_bundled_map(name).to_poly_map()
        assert curve_CF(G) == curve_CFm(G, 0)


def test_line_preimage_examples():
    ident = PolyMap.identity(V)
    sys1 = line_preimage(ident, Line((0, 0), (1, 1)))
    assert sys1.polynomials in ((P("y - x", V),), (P("x - y", V),))

    sys2 = line_preimage(F_TRI, Line((0, 0), (0, 1)))
    assert sys2.polynomials == (P("x + y^3", V),)

    # l(0, (1,...,1)) cuts out the same zero set as curve_CF
    for F in (ident, F_TRI):
        a = line_preimage(F, Line((0, 0), (1, 1)))
        b = curve_CF(F)
        assert naive_grid_points(a, 4) == naive_grid_points(b, 4)


def test_cor1_sum_of_squares_examples():
    assert cor1_sum_of_squares(PolyMap.identity(V)) == P("x^2", V)
    assert cor1_sum_of_squares(F_TRI) == P("(x + y^3)^2", V)


def test_cor1_equivalence_over_box():
    W = ("x1", "x2", "x3")
    F = PolyMap([P("x1 + x2^3", W), P("x2 - x1", W), P("x3", W)])
    sumsq = EquationSystem((cor1_sum_of_squares(F),))
    separate = EquationSystem(F.components[:2])
    assert naive_grid_points(sumsq, 3) == naive_grid_points(separate, 3)
    rep_a = search_box(sumsq, 3)
    rep_b = search_box(separate, 3)
    assert rep_a.points == rep_b.points


def test_search_box_examples():
    rep = search_box(curve_CF(PolyMap.identity(("x1", "x2"))), 3)
    assert rep.points == tuple((k, k) for k in range(-3, 4))
    assert rep.exhausted

    rep2 = search_box(curve_CF(F_TRI), 10)
    assert rep2.points == ((-6, 2), (0, -1), (0, 0), (0, 1), (6, -2))
    assert rep2.exhausted

    rep3 = search_box(curve_CF(PolyMap.identity(("x1", "x2"))), 0)
    assert rep3.points == ((0, 0),)


def test_search_box_matches_grid_oracle():
    rng = random.Random(987)
    for trial in range(12):
        n = rng.choice([2, 2, 3])
        variables = tuple(f"x{i}" for i in range(1, n + 1))
        eqs = []
        for _ in range(rng.randint(1, 2)):
            p = random_polynomial(rng, variables, max_degree=4, max_terms=3,
                                  coeff_bound=4, allow_zero=False)
            eqs.append(p)
        system = EquationSystem(tuple(eqs))
        B = rng.randint(0, 8 if n == 2 else 5)
        report = search_box(system, B)
        assert report.exhausted
        assert list(report.points) == naive_grid_points(system, B)


def test_search_box_soundness_and_monotonicity():
    system = curve_CF(F_TRI)
    small = search_box(system, 5)
    big = search_box(system, 12)
    assert set(small.points) <= set(big.points)
    for p in big.points:
        assert system.satisfied_by(p)


def test_search_box_budget_stops():
    system = curve_CF(PolyMap.identity(("x1", "x2", "x3")))
    limited = search_box(system, 6, budget=5)
    assert not limited.exhausted
    assert search_box(system, 6).exhausted


def test_report_serialization():
    rep = search_box(curve_CF(F_TRI), 2)
    text = format_report(rep)
    assert text.endswith(f"exhausted: yes\nnodes: {rep.nodes_visited}\n")
    assert "0 1" in text.splitlines()


def test_nonzero_point_exists_verdicts():
    found = nonzero_point_exists(curve_CF(PolyMap.identity(("x1", "x2"))), 1)
    assert found.kind == "found" and any(found.point)

    none = nonzero_point_exists(EquationSystem((P("x^2 + y^2 + 1", V),)), 100)
    assert none.kind == "none_in_box"
    assert "max-norm <= 100" in none.message()

    tri = nonzero_point_exists(curve_CF(F_TRI), 1)
    assert tri.kind == "found" and tri.point in ((0, -1), (0, 1))

    capped = nonzero_point_exists(
        EquationSystem((P("x^2 + y^2 + 1", V),)), 50, budget=3
    )
    assert capped.kind == "budget_exceeded"


def test_scaling_clears_box_points():
    # Theorem A' scaling: after r-scaling no nonzero points survive in the
    # shrunken box, on instances where the full point set S is known
    cases = [
        (F_TRI, Line((0, 0), (1, 1)), 10),
        (PolyMap([P("x", V), P("x*y", V)]), Line((0, 0), (1, 1)), 5),
    ]
    for G, line, B in cases:
        sys_G = line_preimage(G, line)
        S = search_box(sys_G, B)
        assert S.exhausted
        r = choose_clearing_scale(S.points)
        H = scale_conjugate(G, r)
        sys_H = line_preimage(H, line)
        small = search_box(sys_H, B // r)
        assert small.exhausted
        assert [p for p in small.points if any(p)] == []


def test_equation_system_clears_denominators():
    system = EquationSystem((P("1/2*x + 1/3*y", V),))
    (eq,) = system.polynomials
    assert eq.is_integral()
    assert eq in (P("3*x + 2*y", V), P("-3*x - 2*y", V))


# ---- root extraction below a root bound ----


def _planted(rng, roots, gaussian, lead, shift):
    """Coefficients (low to high) of lead * y^shift * prod(y - r) * prod(y^2 + s^2)."""
    coeffs = [lead]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    for s in gaussian:
        coeffs = [a + s * s * b for a, b in zip([0, 0] + coeffs, coeffs + [0, 0])]
    return [0] * shift + coeffs


def _value(coeffs, y):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def _brute_roots(coeffs, B):
    return [y for y in range(-B, B + 1) if _value(coeffs, y) == 0]


def test_integer_roots_match_trial_division():
    rng = random.Random(4242)
    for trial in range(160):
        degree = rng.randint(1, 6)
        gaussian = [rng.randint(1, 40) for _ in range(rng.randint(0, degree // 2))]
        big = trial % 4 == 0
        roots = [
            rng.choice([rng.randint(-12, 12), rng.randint(-1500, 1500),
                        rng.randint(-10**4, 10**4) if big else 7])
            for _ in range(degree - 2 * len(gaussian))
        ]
        lead = rng.choice([1, -1, 2, -3, 7])
        coeffs = _planted(rng, roots, gaussian, lead, rng.choice([0, 0, 1, 2]))
        if big:
            # perturb the constant term up to 10^24: usually kills every root
            coeffs[0] += rng.choice([0, rng.randint(-10**24, 10**24)])
        if not any(coeffs):
            continue
        for B in (0, 1, 5, 1000):
            assert _integer_roots(coeffs, B) == _brute_roots(coeffs, B), (coeffs, B)


def test_integer_roots_huge_constant():
    c = 10**24
    # y^2 - c: roots +-10^12 lie outside the box
    assert _integer_roots([-c, 0, 1], 1000) == []
    # (y - 3)(y^2 + c): the bound is about 10^12, the box keeps the scan short
    assert _integer_roots([-3 * c, c, -3, 1], 1000) == [3]
    # constant with zero roots stripped: y^3 (y - 999)
    assert _integer_roots([0, 0, 0, -999, 1], 1000) == [0, 999]
    assert _integer_roots([0, 0, 0, -999, 1], 5) == [0]
    assert _integer_roots([5], 1000) == []


def test_root_bound_covers_planted_roots():
    rng = random.Random(77)
    for _ in range(300):
        degree = rng.randint(1, 6)
        gaussian = [rng.randint(1, 10**6) for _ in range(rng.randint(0, degree // 2))]
        roots = [rng.randint(-10**8, 10**8) for _ in range(degree - 2 * len(gaussian))]
        lead = rng.choice([1, -1, 5, -11])
        coeffs = _planted(rng, roots, gaussian, lead, 0)
        flipped = [-c if k & 1 else c for k, c in enumerate(coeffs)]
        pos, neg = _root_bound(coeffs), _root_bound(flipped)
        assert all(r <= pos for r in roots) and all(-r <= neg for r in roots)
        # on Cauchy's companion |c_d| y^d - sum |c_k| y^k it bounds every modulus
        cauchy = [-abs(c) for c in coeffs[:-1]] + [abs(coeffs[-1])]
        bound = _root_bound(cauchy)
        assert isinstance(bound, int) and bound >= max(pos, neg)
        assert all(abs(r) <= bound for r in roots + gaussian), (coeffs, bound)
    # the box for x1 + x2 - x2^3 at x1 = 1500 shrinks to a few candidates
    assert _root_bound([1500, 1, 0, -1]) <= 20
    assert _root_bound([-1500, -1, 0, 1]) <= 20
    # no coefficient opposes the leading one: no positive root
    assert _root_bound([3, 0, 2, 1]) == 0


def test_integer_roots_without_residue_roots_match_brute_force():
    # real roots in the box, but m divides p(r) for no residue r mod m
    assert _value([-105, 1, 1], 9) < 0 < _value([-105, 1, 1], 10)
    assert _integer_roots([-105, 1, 1], 1000) == []
    assert _integer_roots([0, -105, 1, 1], 1000) == [0]
    rng = random.Random(3131)
    seen = {m: 0 for m in (2, 3, 4, 5)}
    negative_c0 = 0
    while min(seen.values()) < 25:
        # planted roots a, b, ... shifted by k: real roots near a and b
        roots = rng.sample(range(-60, 61), 2) + rng.choice([[], [rng.randint(-9, 9)]])
        gaussian = rng.choice([[], [rng.randint(1, 3)]])
        coeffs = _planted(rng, roots, gaussian, rng.choice([1, -1, 3]), 0)
        coeffs[0] += rng.choice([-3, -2, -1, 1, 2, 3])
        rejected = [m for m in seen if all(_value(coeffs, r) % m for r in range(m))]
        if not rejected or all(_value(coeffs, y) * _value(coeffs, y + 1) > 0
                               for y in range(-62, 62)):
            continue
        for m in rejected:
            seen[m] += 1
        negative_c0 += coeffs[0] < 0
        for B in (0, 1, 7, 100):
            assert _integer_roots(coeffs, B) == _brute_roots(coeffs, B), (coeffs, B)
    assert negative_c0 >= 10


def test_integer_roots_in_one_residue_class():
    # the only residue r with m | p(r) is the root's own class, for every m, r
    rng = random.Random(5151)
    for m in (2, 3, 4, 5, 7):
        for r in range(m):
            while True:
                a = r + m * rng.randint(-30, 30)
                q = [rng.randint(-40, 40), rng.randint(-40, 40), rng.choice([1, -1, 2, -3])]
                # (y - a) q(y)
                coeffs = [-a * q[0], q[0] - a * q[1], q[1] - a * q[2], q[2]]
                classes = [s for s in range(m) if _value(coeffs, s) % m == 0]
                if coeffs[0] and a and classes == [r]:
                    break
            for B in (abs(a) - 1, abs(a), 1000):
                assert _integer_roots(coeffs, B) == _brute_roots(coeffs, B), (coeffs, B)
            assert a in _integer_roots(coeffs, 1000)


def test_integer_roots_of_shifted_cubes():
    # (y + a)^3 + k: cubing is a bijection mod 2, 3 and 5, and the cubes mod 7
    # are 0 and +-1, so -k = +-2 or +-3 mod 7 leaves no integer root
    rng = random.Random(7171)
    rejected_by_7_only = 0
    for _ in range(300):
        a = rng.randint(-50, 50)
        k = rng.choice([7 * rng.randint(-10**4, 10**4) + r for r in (2, 3, 4, 5)])
        assert -k % 7 not in (0, 1, 6)
        # (y + a)^3 + k = y^3 + 3a y^2 + 3a^2 y + a^3 + k
        coeffs = [a**3 + k, 3 * a * a, 3 * a, 1]  # a^3 + k != 0: -k is no cube mod 7
        for B in (0, 1, 60, 1000):
            assert _integer_roots(coeffs, B) == _brute_roots(coeffs, B) == [], (coeffs, B)
        rejected_by_7_only += all(
            any(_value(coeffs, r) % m == 0 for r in range(m)) for m in (2, 3, 4, 5)
        )
    assert rejected_by_7_only >= 150
    # -k a cube mod 7: the integer root -a + c of (y + a)^3 - c^3 is found
    for a, c in ((5, 2), (-4, 3), (11, -6)):
        coeffs = [a**3 - c**3, 3 * a * a, 3 * a, 1]
        assert _integer_roots(coeffs, 1000) == _brute_roots(coeffs, 1000) == [c - a]


def test_root_bound_cap_equals_min_of_uncapped():
    rng = random.Random(6161)
    for _ in range(600):
        degree = rng.randint(1, 6)
        lead = rng.choice([1, -1, 2, -3, 5])
        coeffs = []
        for k in range(degree):
            # |c_k| / |lead| a power of two, so that n = 2^j exactly
            power = rng.choice([-1, 1]) * abs(lead) * 2 ** rng.randint(0, 70)
            coeffs.append(rng.choice([0, rng.randint(-50, 50), power, 2 * power]))
        coeffs.append(lead)
        bound = _root_bound(coeffs)
        caps = {0, 1, 2, 3, bound - 1, bound, bound + 1, rng.randint(0, 2 * bound + 5)}
        for B in caps - {-1}:
            assert _root_bound(coeffs, B) == min(B, bound), (coeffs, B)


# ---- pinned search results (recorded before the integer engine) ----


def test_search_box_pinned_cf_triangular_2():
    system = EquationSystem(tuple(load_bundled_system("cf_triangular_2.sys").to_polynomials()))
    rep = search_box(system, 1500)
    ks = range(-11, 12)
    expected = sorted([(k**3 - k, -k) for k in ks])
    assert list(rep.points) == expected
    assert rep.nodes_visited == 3025
    assert rep.exhausted


def _conjugated_triangular_3():
    from kellerlab.bundled import load_bundled_map
    from kellerlab.transforms import conjugate_by_linear

    F = load_bundled_map("triangular_3.map").to_poly_map()
    return conjugate_by_linear(F, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])


def test_search_box_pinned_cf_scan_three_variables():
    rep = search_box(curve_CF(_conjugated_triangular_3()), 40)
    assert rep.points == ((0, -8, -9), (0, 0, 0), (0, 8, 9))
    assert rep.nodes_visited == 6898
    assert rep.exhausted


def test_search_box_pinned_sum_of_squares_budget_stop():
    system = EquationSystem((cor1_sum_of_squares(_conjugated_triangular_3()),))
    rep = search_box(system, 200, budget=3000)
    assert rep.points == ()
    # the node at which the budget tripped is counted: budget + 1
    assert rep.nodes_visited == 3001
    assert not rep.exhausted


# ---- the engine against the child-dict reference search ----


def _rootless_mod_some_m(terms, last, moduli):
    """Whether a map in `last` alone is nonzero mod m at every y mod m, for
    some m of `moduli`."""
    return any(
        all(sum(c * y ** mono[last] for mono, c in terms.items()) % m for y in range(m))
        for m in moduli
    )


class _KindRecorder(ReferenceBoxSearch):
    """Reference search that records each node's kind, in visiting order.

    A kind is (unassigned variables at the node, whether its value came from
    root extraction); node i + 1 is kinds[i], so budget i trips at it.
    `sieved` lists the i at which node i + 1 is a value the leaf sieve
    drops: one variable is left after it, and the first nonzero equation of
    its parent has no root mod some m of SIEVE_MODULI, where m is used only
    on a scanned range of at least 3m values.  `dropped` lists the
    assignments at those nodes, in the same order.
    """

    def __init__(self, system, B):
        super().__init__(system, B, 10**6)
        self.kinds = []
        self.sieved = []
        self.dropped = []
        self._parents = [(False, None, [])]

    def _branch(self, eqs, assignment, idx, values):
        extracted = not isinstance(values, range)
        first = next((k for k, (terms, _) in enumerate(eqs) if terms), None)
        used = [] if extracted else [m for m in SIEVE_MODULI if 3 * m <= len(values)]
        self._parents.append((extracted, first, used))
        super()._branch(eqs, assignment, idx, values)
        self._parents.pop()

    def _explore(self, eqs, assignment):
        extracted, first, used = self._parents[-1]
        unassigned = assignment.count(None)
        if unassigned == 1 and first is not None:
            if _rootless_mod_some_m(eqs[first][0], assignment.index(None), used):
                self.sieved.append(len(self.kinds))
                self.dropped.append(tuple(assignment))
        self.kinds.append((unassigned, extracted))
        super()._explore(eqs, assignment)


def _stop_budgets(system, B, rng):
    """Budgets that trip at a leaf child, a root grandchild, a scanned one
    and a value the sieve drops.

    Returns ({kind: budget}, the reference's unbudgeted answer, the
    assignments at the values the sieve drops, in visiting order); a leaf
    child is a node with one variable left (none when n = 1), a grandchild
    one with none left below a leaf child.
    """
    recorder = _KindRecorder(system, B)
    answer = recorder.run()
    leaf_unassigned = 0 if system.n == 1 else 1
    at = {"leaf": [], "root": [], "scan": [], "sieved": recorder.sieved}
    for i, (unassigned, extracted) in enumerate(recorder.kinds):
        if unassigned == leaf_unassigned:
            at["leaf"].append(i)
        elif unassigned == 0:
            at["root" if extracted else "scan"].append(i)
    budgets = {kind: rng.choice(ix) for kind, ix in at.items() if ix}
    return budgets, answer, recorder.dropped


def _check_against_reference(system, B, budget, expected=None):
    rep = search_box(system, B, budget)
    if expected is None:
        expected = reference_search_box(system, B, budget)
    assert (rep.points, rep.exhausted, rep.nodes_visited) == expected, (system, B, budget)
    return rep


def _random_system(rng):
    n = rng.randint(1, 4)
    names = tuple(f"x{i}" for i in range(1, n + 1))
    planted = [rng.randint(-3, 3) for _ in names]
    eqs = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.1:
            eqs.append(Polynomial.zero(names))
            continue
        p = random_polynomial(rng, names, max_degree=3, max_terms=4)
        if rng.random() < 0.6:
            p = p - p.evaluate(planted)  # vanishes at the planted point
        if rng.random() < 0.2:
            # vanishes identically at x_i = c, so the last variable gets scanned
            x = Polynomial.variable(names, rng.choice(names))
            p = p * (x - rng.randint(-2, 2))
        eqs.append(p)
    return EquationSystem(tuple(eqs))


def test_search_box_matches_reference_on_random_systems():
    rng = random.Random(1616)
    # boxes of at most 15 values: only m = 5 sieves, at B = 7
    stops = {"leaf": 0, "root": 0, "scan": 0, "sieved": 0}
    found = 0
    for _ in range(2000):
        system = _random_system(rng)
        B = rng.randint(0, (7, 7, 4, 2)[system.n - 1])  # at most 820 nodes
        budgets, answer, _ = _stop_budgets(system, B, rng)
        rep = _check_against_reference(system, B, 10**6, answer)
        found += bool(rep.points)
        for kind, budget in budgets.items():
            stopped = _check_against_reference(system, B, budget)
            assert stopped.nodes_visited == budget + 1 and not stopped.exhausted
            stops[kind] += 1
    assert min(stops["leaf"], stops["root"], stops["scan"]) >= 200 and found >= 500, (
        stops, found)
    assert stops["sieved"] >= 10, stops


def _s3_map(signs):
    # the benchmark's hard-tier class s3: triangular_3 conjugated by D A
    A = ((1, 0, 1), (0, 1, 0), (0, 0, 1))
    F = load_bundled_map("triangular_3.map").to_poly_map()
    return conjugate_by_linear(F, [[s * x for x in row] for s, row in zip(signs, A)])


def _cf_t2_variant(signs):
    # the benchmark's cf-t2 inputs: the bundled curve under x_i -> s_i x_i
    (curve,) = load_bundled_system("cf_triangular_2.sys").to_polynomials()
    names = curve.variables
    bindings = {v: s * Polynomial.variable(names, v) for v, s in zip(names, signs)}
    return EquationSystem((substitute(curve, bindings, names),))


def _benchmark_curves():
    """The benchmark's search inputs: the cf-t2 variants at B = 1500, and
    the s3 curves at B = 40 and at B = 7, where the sieve stays off."""
    cases = [(_cf_t2_variant(signs), 1500) for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    for signs in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)):
        F = _s3_map(signs)
        for system in (curve_CF(F), EquationSystem((cor1_sum_of_squares(F),))):
            cases += [(system, 7), (system, 40)]
    return cases


def test_search_box_matches_reference_on_curves(monkeypatch):
    # the benchmark's search inputs, where the sieve fires at B = 40 and 1500
    dropped = [[]]  # per case, the assignment at each value the engine drops
    survivors = _BoxSearch._survivors

    def recording(self, first, tables, idx, assignment, values):
        keep = survivors(self, first, tables, idx, assignment, values)
        kept = set(keep)
        for i, value in enumerate(values):
            if i not in kept:
                point = list(assignment)
                point[idx] = value
                dropped[-1].append(tuple(point))
        return keep

    monkeypatch.setattr(_BoxSearch, "_survivors", recording)
    rng = random.Random(1717)
    for system, B in _benchmark_curves():
        budgets, answer, sieved = _stop_budgets(system, B, rng)
        assert "leaf" in budgets and "root" in budgets
        assert ("sieved" in budgets) == (B > 7), (system, B)
        dropped.append([])
        rep = _check_against_reference(system, B, 10**6, answer)
        # the engine drops exactly the values the reference says it may
        assert dropped[-1] == sieved, (system, B)
        assert rep.stats["sieved"] == len(sieved), (system, B)
        for kind, budget in budgets.items():
            stopped = _check_against_reference(system, B, budget)
            assert stopped.nodes_visited == budget + 1 and not stopped.exhausted
            assert format_report(stopped).endswith(
                f"exhausted: no\nnodes: {budget + 1}\n")


def _runs(positions):
    """Maximal runs of consecutive ints in a sorted list, as (first, last)."""
    runs = []
    for i in positions:
        if runs and runs[-1][1] == i - 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    return [tuple(run) for run in runs]


def test_bulk_node_count_matches_reference_inside_dropped_runs():
    # the leaf counts the values it drops in bulk; a budget that trips
    # anywhere in a run of them must stop where counting one by one would
    checked = 0
    for system, B in _benchmark_curves():
        if B == 7:
            continue
        recorder = _KindRecorder(system, B)
        answer = recorder.run()
        first, last = max(_runs(recorder.sieved), key=lambda run: run[1] - run[0])
        assert last - first >= 40, (system, B)
        middle = (first + last) // 2
        for budget in (first - 1, first, first + 1, middle, last - 1, last, last + 1):
            stopped = _check_against_reference(system, B, budget)
            assert stopped.nodes_visited == budget + 1 and not stopped.exhausted
            checked += 1
        # and a budget of exactly the node count does not trip
        _check_against_reference(system, B, answer[2], answer)
    assert checked == 12 * 7


def test_search_box_matches_reference_on_the_budget_job():
    # the benchmark's budget job: s3 sum of squares, B = 200, budget 10000
    for signs in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)):
        system = EquationSystem((cor1_sum_of_squares(_s3_map(signs)),))
        rep = _check_against_reference(system, 200, 10000)
        assert rep.nodes_visited == 10001 and not rep.exhausted
        assert rep.stats["sieved"] > 0


@pytest.mark.parametrize("shift", [7, -7])
def test_sieve_memo_key_names_the_first_nonzero_equation(shift):
    # x1 is scanned and the leaf scans x2 with x3 last.  At x1 = -shift the
    # first equation (x1 + shift) q vanishes, so the leaf's first nonzero
    # equation is the second; at x1 = 0, with the same residue mod 7, it is
    # the first, +-7 q, which has a root at every residue mod 7.  The range
    # visits x1 = -7 before 0 and 0 before 7, so the two shifts cover both
    # orders of the two leaves, which must not share memoised verdicts.  At
    # x1 = -7 the second equation is x3^2 - x2 - 3, which has no root mod 7
    # when x2 = 0, 2 or 3 mod 7.
    W = ("x1", "x2", "x3")
    system = EquationSystem((
        P(f"(x1 + {shift})*(x3 - x2^2)", W),
        P("x3^2 - x2 - 3 + (x1 + 7)*x2", W),
    ))
    for B in (10, 12, 20):
        rep = _check_against_reference(system, B, 10**6)
        assert rep.stats["sieved"] > 0 and rep.points, B


def test_sieve_memo_key_names_the_assigned_variables():
    # x1 is scanned.  At x1 = 0 the first equation is -7 (x4 - 2), so x4 = 2
    # is extracted and the leaf scans x2 with x3 last; at x1 = 7 it is
    # 7 (x3 - 2), so x3 = 2 and the leaf scans x2 with x4 last.  Both
    # leaves assign the values 0 and 2 mod 7, to different variables, and
    # the second equation there is x3^2 - x2 - 3 (no root mod 7 at x2 = 0,
    # 2 or 3) and x4 - x2 - 1 (a root at every x2): they must not share
    # memoised verdicts.
    W = ("x1", "x2", "x3", "x4")
    system = EquationSystem((
        P("x1*(x3 - 2) + (x1 - 7)*(x4 - 2)", W),
        P("x3^2 - x2 - 3 + x4 - 2", W),
    ))
    for B in (10, 12):
        rep = _check_against_reference(system, B, 10**6)
        assert rep.stats["sieved"] > 0 and rep.points, B


def test_satisfied_by_matches_rational_evaluation():
    # the integer form against Polynomial.evaluate on the rational equations
    # the system was built from
    rng = random.Random(1818)
    on_curve = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        names = tuple(f"x{i}" for i in range(1, n + 1))
        planted = [rng.randint(-3, 3) for _ in names]
        eqs = []
        for _ in range(rng.randint(1, 3)):
            p = random_polynomial(rng, names, max_degree=3, max_terms=4)
            p = p * random_rational(rng, den_choices=(2, 3, 7)) + random_rational(rng)
            if rng.random() < 0.7:
                p = p - p.evaluate(planted)
            eqs.append(p)
        system = EquationSystem(tuple(eqs))
        points = [planted] + [[rng.randint(-4, 4) for _ in names] for _ in range(5)]
        for pt in points:
            expected = all(p.evaluate(pt) == 0 for p in eqs)
            assert system.satisfied_by(pt) == expected
            on_curve += expected
        for bad in (planted[:-1], planted + [0]):
            with pytest.raises(ValueError):
                system.satisfied_by(bad)
    assert on_curve >= 50


def test_search_box_point_rich_plane_union():
    # x y (x + y + z - 1) = 0 in a box of side 31: a point-rich search
    W = ("x", "y", "z")
    system = EquationSystem((P("x*y*(x + y + z - 1)", W),))
    B = 15
    grid = range(-B, B + 1)
    expected = [
        (x, y, z) for x in grid for y in grid for z in grid
        if x * y * (x + y + z - 1) == 0
    ]
    rep = search_box(system, B)
    assert len(expected) == 2552
    assert list(rep.points) == expected
    assert rep.nodes_visited == 3545 and rep.exhausted


# ---- the leaf's residue sieve ----


def _random_rows(rng):
    """(rows, planted) for a random integer p(v, y); rows[e] lists the
    coefficients of y^e in powers of v, and planted maps values v in
    [-60, 60] to a known integer root y.

    Mixes free polynomials, planted roots (y - r0 - r1 v) q(v, y) +
    k (v - a), polynomials that vanish identically mod 7, 8, 9, 11 or 13
    and nonzero constants.
    """
    kind = rng.choice(["free", "free", "planted", "planted", "zero mod m", "constant"])
    if kind == "constant":
        c = rng.choice([rng.randint(-30, 30) or 1, rng.choice(SIEVE_MODULI)])
        return [[c]], {}
    terms = {}
    for _ in range(rng.randint(1, 5)):
        key = (rng.randint(0, 3), rng.randint(0, 3))
        terms[key] = terms.get(key, 0) + rng.randint(-20, 20)
    planted = {}
    if kind == "planted":
        r0, r1 = rng.randint(-9, 9), rng.choice([-1, 0, 1, 2])
        product = {}
        for (i, e), c in terms.items():
            for key, f in (((i, e + 1), 1), ((i, e), -r0), ((i + 1, e), -r1)):
                product[key] = product.get(key, 0) + f * c
        k, a = rng.randint(-3, 3), rng.randint(-60, 60)
        product[(1, 0)] = product.get((1, 0), 0) + k
        product[(0, 0)] = product.get((0, 0), 0) - k * a
        terms = product
        planted = {v: r0 + r1 * v for v in (range(-60, 61) if k == 0 else [a])}
    if kind == "zero mod m":
        m = rng.choice(SIEVE_MODULI)
        terms = {key: m * c for key, c in terms.items()}
    rows = [[0] * (1 + max(i for i, _ in terms)) for _ in range(1 + max(e for _, e in terms))]
    for (i, e), c in terms.items():
        rows[e][i] += c
    return rows, planted


def test_residue_marks_match_brute_force():
    # the leaf sieve on one equation p(v, y) in the leaf's value v and last
    # variable y: idx 0 of two unassigned variables, equation index 0
    rng = random.Random(1919)
    system = EquationSystem((P("x", ("x",)),))
    marked = {m: 0 for m in SIEVE_MODULI}
    zero_mod_m = with_root = 0
    for _ in range(120):
        rows, planted = _random_rows(rng)
        terms = [(i, e, c) for e, row in enumerate(rows) for i, c in enumerate(row) if c]
        tables = {}
        # the memo keys assume one system, so each p gets its own engine
        engine = _BoxSearch(system, 60, 10**6)
        for m in SIEVE_MODULI:
            # marked iff no y mod m zeroes p(v, y) mod m
            tables[m] = [
                all(sum(c * v**i * y**e for i, e, c in terms) % m for y in range(m))
                for v in range(m)
            ]
            verdicts = [engine._has_root_mod(rows, m, r) for r in range(m)]
            assert [not ok for ok in verdicts] == tables[m], (rows, m)
            marked[m] += sum(tables[m])
            zero_mod_m += all(c % m == 0 for _, _, c in terms)
        # the values dropped: a modulus m sieves ranges of at least 3m
        # values, and lists of roots are not sieved
        box = range(-60, 61)
        for values in (box, range(-10, 11), range(-9, 31), list(box)):
            engine = _BoxSearch(system, 60, 10**6)
            keep = engine._survivors(0, [rows], 0, [None, None], values)
            used = [m for m in SIEVE_MODULI if 3 * m <= len(values)]
            if not isinstance(values, range):
                used = []
            flags = [any(tables[m][v % m] for m in used) for v in values]
            assert list(keep) == [i for i, flag in enumerate(flags) if not flag], (
                rows, values)
            assert engine.sieved == sum(flags)
            # each modulus tests only the residues of the values still alive
            alive = list(values)
            for m in used:
                if not alive:
                    break
                [verdicts] = [v for key, v in engine.verdicts.items() if key[0] == m]
                tested = [r for r, verdict in enumerate(verdicts) if verdict is not None]
                assert tested == sorted({v % m for v in alive}), (rows, values, m)
                alive = [v for v in alive if not tables[m][v % m]]
        # a dropped value has no integer root in [-200, 200], so a planted
        # one is never dropped
        engine = _BoxSearch(system, 60, 10**6)
        keep = set(engine._survivors(0, [rows], 0, [None, None], box))
        for pos, v in enumerate(box):
            coeffs = [sum(c * v**i for i, c in enumerate(row)) for row in rows]
            if pos not in keep:
                assert all(_value(coeffs, y) for y in range(-200, 201)), (rows, v)
            elif v in planted:
                assert _value(coeffs, planted[v]) == 0
                with_root += 1
    assert min(marked.values()) >= 200 and zero_mod_m >= 20 and with_root >= 300, (
        marked, zero_mod_m, with_root)


def test_short_ranges_are_sieved_by_five_alone():
    # 15 to 20 values fail the 3m gate of every modulus but 5, the last one
    # tried: a gated modulus is skipped, and the sieve goes on to the next
    rng = random.Random(2020)
    system = EquationSystem((P("x", ("x",)),))
    assert [m for m in SIEVE_MODULI if 3 * m <= 20] == [5]
    dropped = 0
    for _ in range(120):
        rows, planted = _random_rows(rng)
        start = rng.randint(-30, 10)
        values = range(start, start + rng.randint(15, 20))
        engine = _BoxSearch(system, 60, 10**6)
        keep = list(engine._survivors(0, [rows], 0, [None, None], values))
        expected = []
        for pos, v in enumerate(values):
            coeffs = [sum(c * v**i for i, c in enumerate(row)) for row in rows]
            # v survives iff p(v, y) has a root y mod 5
            if any(_value(coeffs, y) % 5 == 0 for y in range(5)):
                expected.append(pos)
            elif v in planted:
                raise AssertionError((rows, v))
        assert keep == expected, (rows, values)
        assert engine.sieved == len(values) - len(keep)
        dropped += engine.sieved
    assert dropped >= 300, dropped


def test_search_box_matches_reference_where_the_sieve_fires():
    # random systems in boxes wide enough for the sieve
    rng = random.Random(2121)
    fired = 0
    for _ in range(150):
        system = _random_system(rng)
        B = (60, 25, 11, 5)[system.n - 1]
        budgets, answer, _ = _stop_budgets(system, B, rng)
        _check_against_reference(system, B, 10**6, answer)
        fired += "sieved" in budgets
        for budget in budgets.values():
            stopped = _check_against_reference(system, B, budget)
            assert stopped.nodes_visited == budget + 1 and not stopped.exhausted
    assert fired >= 15, fired
