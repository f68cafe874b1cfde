"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and sample count is pinned here.
"""

import random
import time
from fractions import Fraction

from kellerlab.bundled import load_bundled_map
from kellerlab.diophantine import (
    EquationSystem,
    curve_CF,
    nonzero_point_exists,
    search_box,
)
from kellerlab.expr_io import parse_polynomial as P
from kellerlab.fibers import (
    assertion3_feasible,
    bifurcation_data,
    hurwitz_genus,
    poly_D,
)
from kellerlab.keller import CubicLinearForm, as_cubic_linear, formal_inverse, is_keller
from kellerlab.lattice import map_primitive_pair, sl_complete
from kellerlab.polyring import Polynomial, PolyMap, substitute, with_variables
from kellerlab.transforms import (
    DiagonalTransform,
    conjugate_by_linear,
    cor1_extension,
    extend_variables,
    scale_conjugate,
    theoremB_diagonal,
)

from _support import (
    is_scalar_multiple,
    naive_grid_points,
    random_polynomial,
    random_primitive_vector,
    random_rational,
    random_sl2,
    random_triangular_form,
    univariate_coeffs,
    univariate_gcd_degree,
)

TRIANGULAR = [f"triangular_{n}.map" for n in range(2, 7)]
IDENTITIES = ["identity_2.map", "identity_3.map"]


def _load(name):
    return load_bundled_map(name).to_poly_map()


def _passline(num, label, t0):
    print(f"ACCEPTANCE {num} {label}: PASS ({time.perf_counter() - t0:.2f}s)")


def _perturbations(form: CubicLinearForm, variables):
    """Four provably non-Keller variants of a triangular cubic-linear map."""
    F = form.to_map(variables)
    xs = [Polynomial.variable(variables, v) for v in variables]
    n = form.n
    out = []
    # (a) add X_1^2 to the first component: det picks up 1 + 2 X_1
    out.append(PolyMap([F.components[0] + xs[0] ** 2] + list(F.components[1:])))
    # (b) put 1 on a diagonal entry of A: det picks up 1 + 3(...)^2
    rows = [list(row) for row in form.matrix]
    rows[n - 1][n - 1] = 1
    out.append(CubicLinearForm(tuple(map(tuple, rows))).to_map(variables))
    # (c) scale the last component: det = 2
    out.append(PolyMap(list(F.components[:-1]) + [2 * F.components[-1]]))
    # (d) add X_2^3 to the second component: det picks up 1 + 3 X_2^2
    out.append(
        PolyMap(
            [F.components[0], F.components[1] + xs[1] ** 3] + list(F.components[2:])
        )
    )
    return out


def test_criterion_01_keller_verification():
    t0 = time.perf_counter()
    perturbed = []
    for name in TRIANGULAR:
        F = _load(name)
        assert is_keller(F), f"{name} must be a Keller map"
        form = as_cubic_linear(F)
        assert isinstance(form, CubicLinearForm)
        perturbed.extend(_perturbations(form, F.variables))
    assert len(perturbed) == 20
    for G in perturbed:
        assert not is_keller(G)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 1 ran {elapsed:.2f}s, budget 5s"
    _passline(1, "keller-verification", t0)


def test_criterion_02_inverse_roundtrip():
    t0 = time.perf_counter()
    names = IDENTITIES + [f"triangular_{n}.map" for n in (2, 3, 4)]
    for name in names:
        F = _load(name)
        n = F.n
        assert n <= 4 and is_keller(F)
        cap = 3 ** (n - 1)
        inv = formal_inverse(F, cap)  # raises when there is none within the cap
        ident = PolyMap.identity(F.variables)
        assert F.compose(inv.map) == ident
        assert inv.map.compose(F) == ident
    _passline(2, "inverse-roundtrip", t0)


def test_criterion_03_bifurcation_exemplars():
    Y2 = ("Y1", "Y2")
    cases = [
        ("bif_x_xy.map", P("Y1", Y2), 10.0),
        ("bif_x_xxm1y.map", P("Y1^2 - Y1", Y2), 10.0),
        ("triangular_2.map", Polynomial.one(Y2), 10.0),
    ]
    t0 = time.perf_counter()
    for name, expected, limit in cases:
        t1 = time.perf_counter()
        data = bifurcation_data(_load(name))
        if expected.is_constant():
            assert data.H == Polynomial.one(Y2)
        else:
            assert is_scalar_multiple(data.H, expected)
        elapsed = time.perf_counter() - t1
        assert elapsed < limit, f"{name} bifurcation took {elapsed:.2f}s"
    _passline(3, "bifurcation-exemplars", t0)


def test_criterion_04_sigma_transversality_semantics():
    t0 = time.perf_counter()
    H = P("Y1^2 - Y1", ("Y1", "Y2"))
    D = poly_D(H)
    rng = random.Random(40404)
    mismatches = 0
    samples = 0
    while samples < 100:
        u = [random_rational(rng), random_rational(rng)]
        v = [random_rational(rng), random_rational(rng)]
        if not any(v):
            continue
        samples += 1
        d_val = D.evaluate(list(u) + list(v))
        ring = ("t",)
        t = Polynomial.variable(ring, "t")
        restricted = substitute(H, {"Y1": u[0] + t * v[0], "Y2": u[1] + t * v[1]}, ring)
        coeffs = univariate_coeffs(restricted, "t")
        deg = len(coeffs) - 1
        while deg >= 0 and coeffs[deg] == 0:
            deg -= 1
        if deg == 2:
            dcoeffs = [k * coeffs[k] for k in range(1, len(coeffs))]
            two_distinct_roots = univariate_gcd_degree(coeffs, dcoeffs) == 0
        else:
            two_distinct_roots = False
        if (d_val != 0) != two_distinct_roots:
            mismatches += 1
    assert mismatches == 0
    _passline(4, "sigma-transversality", t0)


def test_criterion_05_proposition1_identities():
    t0 = time.perf_counter()
    Y2 = ("Y1", "Y2")
    rng = random.Random(50505)
    matrices = [random_sl2(rng) for _ in range(3)]
    from kellerlab._linalg import fraction_matrix_inverse

    for name in ("bif_x_xy.map", "bif_x_xxm1y.map"):
        F = _load(name)
        H = bifurcation_data(F).H
        ys = [Polynomial.variable(Y2, n) for n in Y2]

        for r in (Fraction(2), Fraction(3), Fraction(-1)):
            H_scaled = bifurcation_data(scale_conjugate(F, r)).H
            expected = substitute(H, {n: r * y for n, y in zip(Y2, ys)}, Y2)
            assert is_scalar_multiple(H_scaled, expected)

        H_ext = bifurcation_data(extend_variables(F, 1)).H
        assert is_scalar_multiple(H_ext, with_variables(H, H_ext.variables))

        for A in matrices:
            H_conj = bifurcation_data(conjugate_by_linear(F, A)).H
            Ainv = fraction_matrix_inverse(A)
            bindings = {
                Y2[i]: Ainv[i][0] * ys[0] + Ainv[i][1] * ys[1] for i in range(2)
            }
            assert is_scalar_multiple(H_conj, substitute(H, bindings, Y2))
    _passline(5, "proposition1-identities", t0)


def test_criterion_06_claim1_sl_completion():
    t0 = time.perf_counter()
    rng = random.Random(60606)
    for n in range(2, 7):
        vectors = [random_primitive_vector(rng, n, bound=50) for _ in range(100)]
        for v in vectors:
            A = sl_complete(v)  # det == 1 enforced by the UnimodularMatrix type
            assert A.column(0) == v
        for i in range(0, 100, 2):
            v, w = vectors[i], vectors[i + 1]
            assert map_primitive_pair(v, w).apply(v) == w
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"criterion 6 ran {elapsed:.2f}s, budget 2s"
    _passline(6, "claim1-sl-completion", t0)


def _random_theoremB_samples(count=50, seed=70707):
    rng = random.Random(seed)
    samples = []
    for _ in range(count):
        n = rng.choice([2, 3, 4])
        form = random_triangular_form(rng, n)
        w = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n))
        samples.append((form, w))
    return samples


def test_criterion_07_theoremB_construction():
    t0 = time.perf_counter()
    for form, w in _random_theoremB_samples():
        n = form.n
        variables = tuple(f"x{i}" for i in range(1, n + 1))
        transform = DiagonalTransform(w)
        out = theoremB_diagonal(form, transform)  # internally double-checked
        assert out.is_integral()

        # independent re-derivation of the defining composition
        delta = transform.delta
        v = transform.cubes
        F = form.to_map(variables)
        inner = {
            name: delta * v[j] * Polynomial.variable(variables, name)
            for j, name in enumerate(variables)
        }
        composed = PolyMap(
            [
                substitute(c, inner, variables) * Fraction(1, delta * v[i])
                for i, c in enumerate(F.components)
            ]
        )
        assert composed == out.to_map(variables)
        assert is_keller(out.to_map(variables))
    _passline(7, "theoremB-construction", t0)


def test_criterion_08_corollary1_construction():
    t0 = time.perf_counter()
    for form, _ in _random_theoremB_samples():
        n = form.n
        ext = cor1_extension(form)  # asserts composition + Keller preservation
        for i, row in enumerate(form.matrix):
            assert ext.matrix[i][:n] == row
            assert ext.matrix[i][n] == sum(row)
        assert all(x == 0 for x in ext.matrix[n])
        assert is_keller(ext.to_map())

    # box-search correspondence on a deterministic subsample
    B = 5
    for form, _ in _random_theoremB_samples(count=12, seed=80808):
        n = form.n
        variables = tuple(f"x{i}" for i in range(1, n + 1))
        F = form.to_map(variables)
        ext = cor1_extension(form)
        G = ext.to_map()

        g_system = EquationSystem(G.components[:n])
        g_points = search_box(g_system, B)
        assert g_points.exhausted

        cf_points = search_box(curve_CF(F), 2 * B)
        assert cf_points.exhausted
        matched = set()
        for z in cf_points.points:
            t = F.components[0].evaluate(z)
            if t.denominator != 1 or abs(t) > B:
                continue
            x = tuple(zi - int(t) for zi in z)
            if max(abs(c) for c in x) <= B:
                matched.add(x + (int(t),))

        assert set(g_points.points) == matched
        # nonzero solutions correspond to nonzero solutions
        g_nonzero = {p for p in g_points.points if any(p)}
        assert bool(g_nonzero) == bool({p for p in matched if any(p)})
        for p in g_points.points:
            x, t = p[:n], p[n]
            z = tuple(c + t for c in x)
            values = F.evaluate(z)
            assert len(set(values)) == 1  # z lies on the curve C_F
            assert (z == (0,) * n) == (p == (0,) * (n + 1))
    _passline(8, "corollary1-construction", t0)


def test_criterion_09_search_oracle_and_pruning():
    t0 = time.perf_counter()
    rng = random.Random(90909)
    for _ in range(30):
        n = rng.choice([2, 2, 3])
        variables = tuple(f"x{i}" for i in range(1, n + 1))
        eqs = tuple(
            random_polynomial(rng, variables, max_degree=4, max_terms=3,
                              coeff_bound=4, allow_zero=False)
            for _ in range(rng.randint(1, 2))
        )
        system = EquationSystem(eqs)
        B = rng.randint(0, 8 if n == 2 else 5)
        report = search_box(system, B)
        assert report.exhausted
        assert list(report.points) == naive_grid_points(system, B)

    # pruning on the structured exemplars: visit <= 20% of the full grid
    B = 10
    structured = IDENTITIES + [f"triangular_{n}.map" for n in (2, 3, 4)]
    for name in structured:
        F = _load(name)
        system = curve_CF(F)
        report = search_box(system, B)
        grid = (2 * B + 1) ** F.n
        assert report.exhausted
        assert report.nodes_visited <= 0.2 * grid, (
            f"{name}: visited {report.nodes_visited} of {grid}"
        )
    _passline(9, "search-oracle-pruning", t0)


def test_criterion_10_hurwitz_sweep():
    t0 = time.perf_counter()
    from itertools import product

    for d in range(1, 7):
        for length in range(1, 5):
            for degrees in product(range(1, d + 1), repeat=length):
                g = hurwitz_genus(d, degrees)
                # Riemann--Hurwitz identity holds exactly
                assert 2 - 2 * g == 2 * d - sum(e - 1 for e in degrees)
                feasible, reason = assertion3_feasible(d, degrees, g)
                if length == 1 and d > 1:
                    assert not feasible
                if length == 2 and g > 0:
                    assert not feasible
                if g.denominator != 1 or g < 0:
                    assert not feasible
    _passline(10, "hurwitz-assertion3", t0)


def test_criterion_11_djc_sanity():
    t0 = time.perf_counter()
    found_names = []
    for name in IDENTITIES + TRIANGULAR:
        F = _load(name)
        assert F.is_integral() and F.fixes_origin() and is_keller(F)
        verdict = nonzero_point_exists(curve_CF(F), 10)
        assert verdict.kind == "found", f"{name}: {verdict.message()}"
        found_names.append(name)
    assert len(found_names) == 7
    _passline(11, "djc-sanity", t0)
