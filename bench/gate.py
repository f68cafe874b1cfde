"""The correctness gate, applied to every job after the timed region.

A job passes when it returned normally, did not exit on a Groebner budget,
did not hit its cap, its exit code and `--json` results match the answer
recorded at the seed commit (stored as a digest in expected.json), and
every independent check listed for it holds.  A job with no recorded answer
(the n = 4 stretch job) passes only on its independent checks; for the
stretch job these pin down the whole answer.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

import hardgen

EXPECTED_PATH = os.path.join(hardgen.HERE, "expected.json")


def digest(results) -> str:
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def answer(outcome) -> dict:
    """The recorded form of an outcome: exit code, results digest, error text."""
    return {
        "rc": outcome.rc,
        "results": None if outcome.results is None else digest(outcome.results),
        "error": outcome.error or None,
    }


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


# ---- independent checks; each returns None or a failure message ----


def _int_det(rows) -> int:
    a = [[Fraction(x) for x in row] for row in rows]
    n, det = len(a), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return int(det)


def _vector(text):
    return tuple(int(x) for x in text.split(","))


def _arg(job, flag):
    return next(a.split("=", 1)[1] for a in job.argv if a.startswith(flag + "="))


def _map_of(text):
    kl = hardgen._kellerlab()
    return kl.expr_io.parse_map_file(text).to_poly_map()


def _cubic_map(rows, variables):
    """x_i + (sum_j a_ij x_j)^3, built term by term."""
    kl = hardgen._kellerlab()
    xs = [kl.Polynomial.variable(variables, v) for v in variables]
    comps = []
    for i, row in enumerate(rows):
        lin = sum((Fraction(a) * x for a, x in zip(row, xs)), kl.Polynomial.zero(variables))
        comps.append(xs[i] + lin * lin * lin)
    return kl.PolyMap(comps)


def _input_rows(job):
    kl = hardgen._kellerlab()
    F = kl.expr_io.load_map_file(job.inputs[0]).to_poly_map()
    return kl.keller.as_cubic_linear(F).matrix


def check_theoremB_rows(job, out):
    """Output rows equal (w_i^-1 prod_k w_k^2) w_j^3 b_ij for input rows b."""
    w = job.context["weights"]
    prod_w2 = 1
    for x in w:
        prod_w2 *= x * x
    rows = [[Fraction(prod_w2, w[i]) * w[j] ** 3 * b for j, b in enumerate(row)]
            for i, row in enumerate(_input_rows(job))]
    G = _map_of(out.results["map"])
    if G != _cubic_map(rows, G.variables):
        return "output map is not the Theorem B form known by construction"
    return None


def check_cor1_rows(job, out):
    """Output rows are the input rows with their sums appended, plus a zero row."""
    rows = [list(r) + [sum(r)] for r in _input_rows(job)]
    rows.append([0] * len(rows[0]))
    G = _map_of(out.results["map"])
    if G != _cubic_map(rows, G.variables):
        return "output map is not the Corollary 1 form known by construction"
    return None


def check_cubic_linear_integral(job, out):
    cl = out.results["cubic_linear"]
    if not (cl.get("recognized") and cl.get("integral")):
        return f"a Theorem B / Corollary 1 output is cubic-linear by construction: {cl}"
    return None


def check_keller_inverse(job, out):
    r = out.results
    if r["keller"] is not True or r["inverse"]["exact"] is not True:
        return "a conjugate of a triangular Keller map is Keller with an exact inverse"
    return None


def check_points_satisfy(job, out):
    kl = hardgen._kellerlab()
    sf = kl.expr_io.load_system_file(job.inputs[0])
    polys = sf.to_polynomials()
    for point in out.results["points"]:
        if any(p.evaluate(point) != 0 for p in polys):
            return f"point {point} does not satisfy the system"
    return None


def check_sl_complete(job, out):
    v = _vector(_arg(job, "--vector"))
    A = out.results["matrix"]
    if _int_det(A) != 1 or tuple(row[0] for row in A) != v:
        return "completion is not unimodular with first column v"
    return None


def check_sl_map(job, out):
    v, w = _vector(_arg(job, "--from")), _vector(_arg(job, "--to"))
    A = out.results["matrix"]
    if _int_det(A) != 1 or tuple(sum(a * x for a, x in zip(row, v)) for row in A) != w:
        return "matrix is not unimodular with A v = w"
    return None


def check_h_vanishes(job, out):
    """h_i(F(X), X_i) = 0 for every reported minimal polynomial."""
    kl = hardgen._kellerlab()
    F = kl.expr_io.load_map_file(job.inputs[0]).to_poly_map()
    n = F.n
    ring = tuple(f"Y{k}" for k in range(1, n + 1)) + ("T",)
    for i in range(1, n + 1):
        h = kl.expr_io.parse_polynomial(out.results[f"h{i}"], ring)
        bindings = dict(zip(ring, F.components))
        bindings["T"] = kl.Polynomial.variable(F.variables, F.variables[i - 1])
        if not kl.polyring.substitute(h, bindings, F.variables).is_zero():
            return f"h{i}(F(X), X_{i}) is not zero"
    return None


def _triangular_inverse(F, ring):
    """Inverse of F_i = x_i + p_i(x_1, ..., x_{i-1}) by back-substitution, in `ring`."""
    kl = hardgen._kellerlab()
    G = []
    for i, (x, f) in enumerate(zip(F.variables, F.components)):
        p = f - kl.Polynomial.variable(F.variables, x)
        if not set(p.support_variables()) <= set(F.variables[:i]):
            raise ValueError(f"base component {i + 1} is not triangular")
        bindings = dict(zip(F.variables, G))
        G.append(kl.Polynomial.variable(ring, ring[i])
                 - kl.polyring.substitute(p, bindings, ring))
    return kl.PolyMap(G)


def check_automorphism_answer(job, out):
    """The bifurcation answer of a conjugate A F A^-1 of a triangular map F.

    Such a map is an automorphism with inverse A G A^-1, G = F^-1 by
    back-substitution, so by construction h_i = a_i (T - (A G A^-1)_i(Y))
    with a_i a nonzero constant, H is a nonzero constant, there is no cone
    and d_F = 1.
    """
    kl = hardgen._kellerlab()
    r = out.results
    meta = kl.expr_io.load_map_file(job.inputs[0]).metadata
    F = _map_of(hardgen.base_text(meta["base"]))
    n = F.n
    ys = tuple(f"Y{k}" for k in range(1, n + 1))
    A = [_vector(row) for row in meta["matrix"].split(";")]
    inverse = kl.transforms.conjugate_by_linear(_triangular_inverse(F, ys), A)
    ring = ys + ("T",)
    embed = {y: kl.Polynomial.variable(ring, y) for y in ys}
    T = kl.Polynomial.variable(ring, "T")
    for i, g in enumerate(inverse.components, start=1):
        a = kl.expr_io.parse_polynomial(r[f"a{i}"], ring)
        h = kl.expr_io.parse_polynomial(r[f"h{i}"], ring)
        if a.is_zero() or not a.is_constant():
            return f"a{i} = {r[f'a{i}']} is not a nonzero constant"
        if h != a * (T - kl.polyring.substitute(g, embed, ring)):
            return f"h{i} is not a{i} (T - G{i}(Y)) for the inverse G known by construction"
    H = kl.expr_io.parse_polynomial(r["H"], ring)
    if H.is_zero() or not H.is_constant():
        return f"H = {r['H']} is not a nonzero constant"
    if r["cone"] != "none" or r["d_F"] != 1:
        return f"an automorphism has no cone and d_F = 1, not {r['cone']}, {r['d_F']}"
    return None


CHECKS = {
    "theoremB_rows": check_theoremB_rows,
    "cor1_rows": check_cor1_rows,
    "cubic_linear_integral": check_cubic_linear_integral,
    "keller_inverse": check_keller_inverse,
    "points_satisfy": check_points_satisfy,
    "sl_complete": check_sl_complete,
    "sl_map": check_sl_map,
    "h_vanishes": check_h_vanishes,
    "automorphism_answer": check_automorphism_answer,
}


def verdict(job, out, expected):
    """None when the job passes, otherwise the reason it failed."""
    if out.capped:
        return f"hit its {job.cap:g} s cap"
    if out.exception:
        return f"raised {out.exception}"
    if out.rc == 3 and job.verb != "search":
        return f"budget exit: {out.error}"
    want = expected.get(job.key)
    if want is None and not job.checks:
        return "no recorded answer"
    if want is not None and answer(out) != want:
        return f"answer differs from the recorded one (exit code {out.rc})"
    if out.rc == 0 or (job.verb == "search" and out.rc == 3):
        for name in job.checks:
            msg = CHECKS[name](job, out)
            if msg:
                return f"{name}: {msg}"
    elif want is None:
        return f"exit code {out.rc}: {out.error}"
    return None
