"""Batch front door: run any pipeline on map/system files.

Verbs: check, bifurcation, sigma, transform (scale/extend/conjugate/
translate/theoremB/cor1), sl-complete, sl-map, curve, search, hurwitz.
Exit codes: 0 success, 1 domain error (including an infeasible hurwitz
configuration), 2 usage error, 3 budget exhaustion.  All error messages go
to standard error; reports are plain text with a --json switch.

Every verb is a thin adapter over the library; no numerical logic lives
here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from . import diophantine, expr_io, fibers, keller, lattice, transforms
from .errors import BudgetExceededError, KellerlabError


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise KellerlabError(f"bad rational literal {text!r}") from exc


def _parse_vector(text: str):
    return tuple(_parse_fraction(x) for x in text.split(","))


def _parse_int_vector(text: str):
    vec = _parse_vector(text)
    if any(x.denominator != 1 for x in vec):
        raise KellerlabError(f"expected integers, got {text!r}")
    return tuple(int(x) for x in vec)


def _parse_matrix(text: str):
    rows = [_parse_vector(row) for row in text.split(";")]
    if any(len(r) != len(rows) for r in rows):
        raise KellerlabError("matrix rows must be square (use 'a,b;c,d')")
    return rows


def _parse_uv(text: str, n: int):
    halves = text.split(";")
    if len(halves) != 2:
        raise KellerlabError("expected 'u1,...,un;v1,...,vn'")
    u, v = _parse_vector(halves[0]), _parse_vector(halves[1])
    if len(u) != n or len(v) != n:
        raise KellerlabError(f"point and direction must have {n} coordinates")
    return u, v


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _load_map(path: str):
    try:
        mf = expr_io.load_map_file(path)
    except OSError as exc:
        raise KellerlabError(f"cannot read {path}: {exc}") from exc
    return mf, mf.to_poly_map()


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(repr(c).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


class _Reporter:
    """Collects result lines / fields, prints text or a stable JSON object."""

    def __init__(self, verb, as_json, digest):
        self.verb = verb
        self.as_json = as_json
        self.digest = digest
        self.lines = []
        self.results = {}

    def add(self, key, value, line=None):
        self.results[key] = value
        self.lines.append(line if line is not None else f"{key} = {value}")

    def raw(self, text):
        self.lines.append(text)

    def emit(self, path=None):
        """Print the JSON object, or write the text lines to `path` or stdout."""
        if self.as_json:
            doc = {
                "verb": self.verb,
                "inputs": {"digest": self.digest},
                "results": self.results,
            }
            print(json.dumps(doc, sort_keys=True))
            return
        text = "".join(f"{line}\n" for line in self.lines)
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            print(text, end="")


# ---- verb implementations ----


def _cmd_check(args) -> int:
    mf, F = _load_map(args.mapfile)
    rep = _Reporter("check", args.json, _digest(mf, args.degree_cap))
    keller_ok = keller.is_keller(F)
    cl = keller.as_cubic_linear(F)
    if isinstance(cl, keller.CubicLinearForm):
        cl_text = "yes"
        cl_json = {"recognized": True, "integral": cl.is_integral()}
    else:
        cl_text = f"no (component {cl.component}: {cl.reason})"
        cl_json = {"recognized": False, "component": cl.component, "reason": cl.reason}
    cap = args.degree_cap
    if cap is None:
        cap = max(1, F.max_degree()) ** (F.n - 1)
    try:
        inv = keller.formal_inverse(F, cap)
    except BudgetExceededError:
        raise  # main's exit 3, not an answer
    except (KellerlabError, ValueError) as exc:
        inv = None
        inv_text = f"not defined ({exc})"
        inv_json = {"exact": False, "degree_cap": cap, "reason": str(exc)}
    if inv is not None:
        if inv.exact:
            inv_text = f"exact (degree {max(0, inv.map.max_degree())})"
        else:
            inv_text = f"not invertible within bound (cap {cap})"
        inv_json = {"exact": inv.exact, "degree_cap": cap,
                    "degree": inv.map.max_degree() if inv.exact else None}
    rep.results.update(
        {"keller": keller_ok, "cubic_linear": cl_json, "inverse": inv_json}
    )
    rep.raw(
        f"keller: {'yes' if keller_ok else 'no'}, cubic-linear: {cl_text}, "
        f"inverse: {inv_text}"
    )
    rep.emit()
    return 0


def _cmd_bifurcation(args) -> int:
    mf, F = _load_map(args.mapfile)
    rep = _Reporter("bifurcation", args.json, _digest(mf))
    data = fibers.bifurcation_data(F, compute_fiber_degree=not args.no_fiber_degree)
    for i, (h, a) in enumerate(zip(data.h, data.a), start=1):
        rep.add(f"h{i}", expr_io.print_polynomial(h))
        rep.add(f"a{i}", expr_io.print_polynomial(a))
    rep.add("H", expr_io.print_polynomial(data.H))
    cone = "none" if data.cone_form is None else expr_io.print_polynomial(data.cone_form)
    rep.add("cone", cone)
    rep.add("d_F", data.fiber_degree if data.fiber_degree is not None else "skipped")
    rep.emit()
    return 0


def _cmd_sigma(args) -> int:
    mf, F = _load_map(args.mapfile)
    rep = _Reporter("sigma", args.json, _digest(mf, args.eval))
    s = fibers.sigma(F)
    rep.add("sigma", expr_io.print_polynomial(s))
    if args.eval:
        u, v = _parse_uv(args.eval, F.n)
        value = s.evaluate(list(u) + list(v))
        rep.add("value", expr_io.format_fraction(value),
                line=f"sigma(u, v) = {expr_io.format_fraction(value)}")
    rep.emit()
    return 0


def _require_cubic_linear(F):
    cl = keller.as_cubic_linear(F)
    if isinstance(cl, keller.CubicLinearRejection):
        raise KellerlabError(
            f"map is not cubic-linear (component {cl.component}: {cl.reason})"
        )
    return cl


def _cmd_transform(args) -> int:
    mf, F = _load_map(args.mapfile)
    sub = args.subverb
    if sub == "scale":
        r = _parse_fraction(args.r)
        out = transforms.scale_conjugate(F, r)
    elif sub == "extend":
        out = transforms.extend_variables(F, args.m)
    elif sub == "conjugate":
        out = transforms.conjugate_by_linear(F, _parse_matrix(args.matrix))
    elif sub == "translate":
        out = transforms.translate_to_origin(F, _parse_vector(args.vector))
    elif sub == "theoremB":
        form = _require_cubic_linear(F)
        weights = transforms.DiagonalTransform(_parse_int_vector(args.weights))
        out = transforms.theoremB_diagonal(form, weights).to_map(F.variables)
    elif sub == "cor1":
        form = _require_cubic_linear(F)
        ext = transforms.cor1_extension(form)
        out = ext.to_map()
    else:  # pragma: no cover - argparse restricts choices
        raise KellerlabError(f"unknown transform {sub!r}")
    meta = {"name": f"{mf.metadata.get('name', args.mapfile)}-{sub}"}
    text = expr_io.format_map_file(expr_io.map_file_from_poly_map(out, meta))
    rep = _Reporter(f"transform {sub}", args.json, _digest(mf, sub))
    rep.add("map", text, line=text.removesuffix("\n"))
    rep.emit(args.output)
    return 0


def _matrix_lines(rows):
    return [" ".join(str(x) for x in row) for row in rows]


def _cmd_sl_complete(args) -> int:
    v = _parse_int_vector(args.vector)
    A = lattice.sl_complete(v)
    rep = _Reporter("sl-complete", args.json, _digest(v))
    rep.results["matrix"] = [list(r) for r in A.rows]
    for line in _matrix_lines(A.rows):
        rep.raw(line)
    rep.emit()
    return 0


def _cmd_sl_map(args) -> int:
    v = _parse_int_vector(args.src)
    w = _parse_int_vector(args.dst)
    A = lattice.map_primitive_pair(v, w)
    rep = _Reporter("sl-map", args.json, _digest(v, w))
    rep.results["matrix"] = [list(r) for r in A.rows]
    for line in _matrix_lines(A.rows):
        rep.raw(line)
    rep.emit()
    return 0


def _cmd_curve(args) -> int:
    mf, F = _load_map(args.mapfile)
    kind = args.kind
    if kind == "cf":
        system = diophantine.curve_CF(F)
    elif kind == "cfm":
        if args.m is None:
            raise KellerlabError("--m is required for kind cfm")
        system = diophantine.curve_CFm(F, args.m)
    elif kind == "line":
        if not args.u or not args.v:
            raise KellerlabError("--u and --v are required for kind line")
        line = fibers.Line(_parse_vector(args.u), _parse_vector(args.v))
        system = diophantine.line_preimage(F, line)
    elif kind == "sumsq":
        system = diophantine.EquationSystem((diophantine.cor1_sum_of_squares(F),))
    else:  # pragma: no cover
        raise KellerlabError(f"unknown curve kind {kind!r}")
    sf = expr_io.SystemFile(
        variables=system.variables,
        equations=tuple(expr_io.print_polynomial(p) for p in system.polynomials),
        metadata={"name": f"{mf.metadata.get('name', args.mapfile)}-{kind}"},
    )
    text = expr_io.format_system_file(sf)
    rep = _Reporter("curve", args.json, _digest(mf, kind, args.m, args.u, args.v))
    rep.add("system", text, line=text.removesuffix("\n"))
    rep.emit(args.output)
    return 0


def _cmd_search(args) -> int:
    try:
        sf = expr_io.load_system_file(args.sysfile)
    except OSError as exc:
        raise KellerlabError(f"cannot read {args.sysfile}: {exc}") from exc
    system = diophantine.EquationSystem(tuple(sf.to_polynomials()))
    report = diophantine.search_box(system, args.radius, budget=args.budget)
    rep = _Reporter("search", args.json, _digest(sf, args.radius, args.budget))
    rep.results["points"] = [list(p) for p in report.points]
    rep.results["exhausted"] = report.exhausted
    rep.results["nodes"] = report.nodes_visited
    rep.raw(diophantine.format_report(report).removesuffix("\n"))
    rep.emit()
    return 0 if report.exhausted else 3


def _cmd_hurwitz(args) -> int:
    branches = _parse_int_vector(args.branches)
    g = fibers.hurwitz_genus(args.d, branches)
    feasible, reason = fibers.assertion3_feasible(args.d, branches, g)
    rep = _Reporter("hurwitz", args.json, _digest(args.d, branches))
    rep.add("g", expr_io.format_fraction(g))
    if feasible:
        rep.add("feasible", True, line="feasible")
    else:
        rep.add("feasible", False, line=f"infeasible: {reason}")
        rep.results["reason"] = reason
    rep.emit()
    return 0 if feasible else 1


# ---- parser wiring ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kellerlab",
        description="Exact workbench for Keller maps, bifurcation sets, and "
        "integer points on the associated curves.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", parents=[common], help="Keller/cubic-linear/inverse checks")
    p.add_argument("mapfile")
    p.add_argument("--degree-cap", type=int, default=None)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("bifurcation", parents=[common], help="h_i, a_i, H, cone, d_F")
    p.add_argument("mapfile")
    p.add_argument("--no-fiber-degree", action="store_true")
    p.set_defaults(fn=_cmd_bifurcation)

    p = sub.add_parser("sigma", parents=[common], help="line-genericity polynomial")
    p.add_argument("mapfile")
    p.add_argument("--eval", metavar="U;V", help="evaluate at 'u1,...,un;v1,...,vn'")
    p.set_defaults(fn=_cmd_sigma)

    p = sub.add_parser("transform", parents=[common], help="map surgeries")
    p.add_argument(
        "subverb",
        choices=["scale", "extend", "conjugate", "translate", "theoremB", "cor1"],
    )
    p.add_argument("mapfile")
    p.add_argument("--r", help="scale factor (rational)")
    p.add_argument("--m", type=int, help="number of fresh variables")
    p.add_argument("--matrix", help="rational matrix 'a,b;c,d'")
    p.add_argument("--vector", help="rational vector 'a1,...,an'")
    p.add_argument("--weights", help="nonzero integer weights 'w1,...,wn'")
    p.add_argument("--output", help="write the resulting map file here")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("sl-complete", parents=[common], help="complete a primitive vector")
    p.add_argument("--vector", required=True, help="integer vector 'v1,...,vn'")
    p.set_defaults(fn=_cmd_sl_complete)

    p = sub.add_parser("sl-map", parents=[common], help="map one primitive vector to another")
    p.add_argument("--from", dest="src", required=True, help="integer vector")
    p.add_argument("--to", dest="dst", required=True, help="integer vector")
    p.set_defaults(fn=_cmd_sl_map)

    p = sub.add_parser("curve", parents=[common], help="emit a curve system file")
    p.add_argument("mapfile")
    p.add_argument("--kind", choices=["cf", "cfm", "line", "sumsq"], default="cf")
    p.add_argument("--m", type=int, help="m for kind cfm")
    p.add_argument("--u", help="line base point 'u1,...,un'")
    p.add_argument("--v", help="line direction 'v1,...,vn'")
    p.add_argument("--output", help="write the system file here")
    p.set_defaults(fn=_cmd_curve)

    p = sub.add_parser("search", parents=[common], help="box search on a system file")
    p.add_argument("sysfile")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument(
        "--budget",
        type=_non_negative_int,
        default=diophantine.DEFAULT_NODE_BUDGET,
        help="node budget; a stopped search counts the node that tripped it, "
        "so it reports budget + 1 nodes",
    )
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("hurwitz", parents=[common], help="branch-data feasibility")
    p.add_argument("--d", type=int, required=True, help="covering degree")
    p.add_argument("--branches", required=True, help="local degrees 'e1,...,ek'")
    p.set_defaults(fn=_cmd_hurwitz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (KellerlabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
