"""Batch front door: run any pipeline on map/system files.

Verbs: check, bifurcation, sigma, transform (scale/extend/conjugate/
translate/theoremB/cor1), sl-complete, sl-map, curve, search, hurwitz.
Exit codes: 0 success, 1 domain error (including an infeasible hurwitz
configuration), 2 usage error, 3 budget exhaustion.  All error messages go
to standard error; reports are plain text with a --json switch.

Every verb is a thin adapter over the library; no numerical logic lives
here.  A handler only computes: it returns its digest inputs, its results,
its text and, if it can exit other than 0, its exit code; search also
returns its work counters.  `main` alone reports: it prints the text or the
JSON envelope {"verb", "inputs": {"digest"}, "results"}, with a "stats" key
beside "results" for search, and writes --output.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from . import diophantine, expr_io, fibers, keller, lattice, transforms
from .errors import BudgetExceededError, KellerlabError


# a signed integer or ratio of integers, read exactly at any length
_INT_RATIO = re.compile(r"([+-]?)(\d+)(?:/(\d+))?")


def _parse_fraction(text: str) -> Fraction:
    literal = text.strip()
    match = _INT_RATIO.fullmatch(literal)
    try:
        if match is None:
            return Fraction(literal)
        sign, num, den = match.groups()
        value = Fraction(expr_io.parse_int(num), expr_io.parse_int(den or "1"))
        return -value if sign == "-" else value
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


def _int_at_least(text: str, low: int, word: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be {word}, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0, "non-negative")


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "positive")


def _read(load, path: str):
    """`load(path)`, with an unreadable or non-UTF-8 file as a domain error."""
    try:
        return load(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise KellerlabError(f"cannot read {path}: {exc}") from exc


def _load_map(path: str):
    mf = _read(expr_io.load_map_file, path)
    return mf, mf.to_poly_map()


def _derived_metadata(mf, path: str, suffix: str) -> dict:
    """Metadata of a file derived from the map file `mf` read from `path`:
    its name, or else the path, with `-suffix` appended."""
    return {"name": f"{mf.metadata.get('name', path)}-{suffix}"}


def _repr(value) -> str:
    """repr(value), with each int in nested tuples and lists written by
    `expr_io.format_int`, which has no length limit."""
    if type(value) is int:
        return expr_io.format_int(value)
    if type(value) is tuple:
        return "(" + ", ".join(map(_repr, value)) + ("," if len(value) == 1 else "") + ")"
    if type(value) is list:
        return "[" + ", ".join(map(_repr, value)) + "]"
    return repr(value)


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(_repr(c).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


_PLACEHOLDER = re.compile(r'"\\u0000(\d+)"')


def _json_text(doc) -> str:
    """json.dumps(doc, sort_keys=True) with ints of any size.

    An int past 64 bits goes in as the placeholder string NUL + its index,
    which json writes as "\\u0000<index>"; its `expr_io.format_int` digits
    then replace that.  No report string is a NUL followed by digits alone.
    """
    big = []

    def swap(value):
        if type(value) is int and value.bit_length() > 64:
            big.append(value)
            return f"\x00{len(big) - 1}"
        if type(value) in (list, tuple):
            return [swap(v) for v in value]
        if type(value) is dict:
            return {k: swap(v) for k, v in value.items()}
        return value

    text = json.dumps(swap(doc), sort_keys=True)
    if not big:
        return text
    return _PLACEHOLDER.sub(lambda m: expr_io.format_int(big[int(m[1])]), text)


# ---- verb implementations ----


def _cmd_check(args) -> tuple:
    mf, F = _load_map(args.mapfile)
    det = keller.jacobian_det(F)
    keller_ok = det == 1
    cl = keller.as_cubic_linear(F)
    if isinstance(cl, keller.CubicLinearForm):
        cl_text = "yes"
        cl_json = {"recognized": True, "integral": cl.is_integral()}
    else:
        cl_text = f"no ({cl})"
        cl_json = {"recognized": False, "component": cl.component, "reason": cl.reason}
    cap = args.degree_cap
    if cap is None:
        cap = keller.default_degree_cap(F)
    try:
        inv = keller.formal_inverse(F, cap, det)
    except BudgetExceededError:
        raise  # main's exit 3, not an answer
    except (KellerlabError, ValueError) as exc:
        inv_text = f"not defined ({exc})"
        inv_json = {"exact": False, "degree_cap": cap, "reason": str(exc)}
    else:
        if inv.exact:
            inv_text = f"exact (degree {max(0, inv.map.max_degree())})"
        else:
            inv_text = f"not invertible within bound (cap {cap})"
        inv_json = {"exact": inv.exact, "degree_cap": cap,
                    "degree": inv.map.max_degree() if inv.exact else None}
    results = {"keller": keller_ok, "cubic_linear": cl_json, "inverse": inv_json}
    text = (f"keller: {'yes' if keller_ok else 'no'}, cubic-linear: {cl_text}, "
            f"inverse: {inv_text}\n")
    return (mf, args.degree_cap), results, text


def _cmd_bifurcation(args) -> tuple:
    mf, F = _load_map(args.mapfile)
    data = fibers.bifurcation_data(F, compute_fiber_degree=not args.no_fiber_degree)
    results = {}
    for i, (h, a) in enumerate(zip(data.h, data.a), start=1):
        results[f"h{i}"] = expr_io.print_polynomial(h)
        results[f"a{i}"] = expr_io.print_polynomial(a)
    results["H"] = expr_io.print_polynomial(data.H)
    cone = "none" if data.cone_form is None else expr_io.print_polynomial(data.cone_form)
    results["cone"] = cone
    results["d_F"] = data.fiber_degree if data.fiber_degree is not None else "skipped"
    return (mf,), results, "".join(f"{k} = {v}\n" for k, v in results.items())


def _cmd_sigma(args) -> tuple:
    mf, F = _load_map(args.mapfile)
    s = fibers.sigma(F)
    results = {"sigma": expr_io.print_polynomial(s)}
    text = f"sigma = {results['sigma']}\n"
    if args.eval:
        u, v = _parse_uv(args.eval, F.n)
        results["value"] = expr_io.format_fraction(s.evaluate(list(u) + list(v)))
        text += f"sigma(u, v) = {results['value']}\n"
    return (mf, args.eval), results, text


def _require_cubic_linear(F):
    cl = keller.as_cubic_linear(F)
    if isinstance(cl, keller.CubicLinearRejection):
        raise KellerlabError(f"map is not cubic-linear ({cl})")
    return cl


def _theoremB(F, weights):
    form = _require_cubic_linear(F)
    T = transforms.DiagonalTransform(_parse_int_vector(weights))
    return transforms.theoremB_diagonal(form, T).to_map(F.variables)


# subverb -> (the option it requires, or None; its map from F and that option)
_TRANSFORMS = {
    "scale": ("r", lambda F, r: transforms.scale_conjugate(F, _parse_fraction(r))),
    "extend": ("m", lambda F, m: transforms.extend_variables(F, m)),
    "conjugate": ("matrix", lambda F, A: transforms.conjugate_by_linear(F, _parse_matrix(A))),
    "translate": ("vector", lambda F, v: transforms.translate_to_origin(F, _parse_vector(v))),
    "theoremB": ("weights", _theoremB),
    "cor1": (None, lambda F, _: transforms.cor1_extension(_require_cubic_linear(F)).to_map()),
}


def _cmd_transform(args) -> tuple:
    sub = args.subverb
    option, build = _TRANSFORMS[sub]
    value = getattr(args, option) if option else None
    if option and value is None:
        raise KellerlabError(f"--{option} is required for transform {sub}")
    mf, F = _load_map(args.mapfile)
    meta = _derived_metadata(mf, args.mapfile, sub)
    text = expr_io.format_map_file(expr_io.map_file_from_poly_map(build(F, value), meta))
    return (mf, sub, value), {"map": text}, text


def _cmd_sl(args) -> tuple:
    """sl-complete (one vector) and sl-map (a pair): an SL(n, Z) matrix."""
    if args.verb == "sl-complete":
        vectors = (_parse_int_vector(args.vector),)
        A = lattice.sl_complete(*vectors)
    else:
        vectors = (_parse_int_vector(args.src), _parse_int_vector(args.dst))
        A = lattice.map_primitive_pair(*vectors)
    text = "".join(" ".join(map(expr_io.format_int, row)) + "\n" for row in A.rows)
    return vectors, {"matrix": [list(r) for r in A.rows]}, text


def _cmd_curve(args) -> tuple:
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
    else:  # sumsq; argparse restricts the choices
        system = diophantine.EquationSystem((diophantine.cor1_sum_of_squares(F),))
    sf = expr_io.SystemFile(
        variables=system.variables,
        equations=tuple(expr_io.print_polynomial(p) for p in system.polynomials),
        metadata=_derived_metadata(mf, args.mapfile, kind),
    )
    text = expr_io.format_system_file(sf)
    return (mf, kind, args.m, args.u, args.v), {"system": text}, text


def _cmd_search(args) -> tuple:
    sf = _read(expr_io.load_system_file, args.sysfile)
    system = diophantine.EquationSystem(tuple(sf.to_polynomials()))
    report = diophantine.search_box(system, args.radius, budget=args.budget)
    results = {"points": [list(p) for p in report.points],
               "exhausted": report.exhausted, "nodes": report.nodes_visited}
    text = diophantine.format_report(report)
    code = 0 if report.exhausted else 3
    return (sf, args.radius, args.budget), results, text, code, report.stats


def _cmd_hurwitz(args) -> tuple:
    branches = _parse_int_vector(args.branches)
    g = fibers.hurwitz_genus(args.d, branches)
    feasible, reason = fibers.assertion3_feasible(args.d, branches, g)
    results = {"g": expr_io.format_fraction(g), "feasible": feasible}
    verdict = "feasible" if feasible else f"infeasible: {reason}"
    if not feasible:
        results["reason"] = reason
    text = f"g = {results['g']}\n{verdict}\n"
    return (args.d, branches), results, text, 0 if feasible else 1


class _Outcome(NamedTuple):
    """What a handler returns; handlers leave off the defaults they keep."""

    inputs: tuple
    results: dict
    text: str
    code: int = 0
    stats: dict | None = None


def _emit(args, out: _Outcome) -> None:
    """The one place that reports: write the text to --output, if given, then
    print the JSON envelope, or else the text when there is no --output.
    Work counters go under "stats", beside the deterministic "results"."""
    path = getattr(args, "output", None)
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(out.text)
        except OSError as exc:
            raise KellerlabError(f"cannot write {path}: {exc}") from exc
    if args.json:
        verb = f"transform {args.subverb}" if args.verb == "transform" else args.verb
        doc = {"verb": verb, "inputs": {"digest": _digest(*out.inputs)},
               "results": out.results}
        if out.stats is not None:
            doc["stats"] = out.stats
        print(_json_text(doc))
    elif not path:
        print(out.text, end="")


# ---- parser wiring ----


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every later call.

    Sharing is safe: argparse keeps no state between `parse_args` calls, and
    each handler reaches the library through module attributes at call time.
    Only the `--budget` default is read once, here.
    """
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
    p.add_argument("--degree-cap", type=_positive_int, default=None)
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
    p.add_argument("subverb", choices=list(_TRANSFORMS))
    p.add_argument("mapfile")
    p.add_argument("--r", help="scale factor (rational)")
    p.add_argument("--m", type=_non_negative_int, help="number of fresh variables")
    p.add_argument("--matrix", help="rational matrix 'a,b;c,d'")
    p.add_argument("--vector", help="rational vector 'a1,...,an'")
    p.add_argument("--weights", help="nonzero integer weights 'w1,...,wn'")
    p.add_argument("--output", help="write the resulting map file here")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("sl-complete", parents=[common], help="complete a primitive vector")
    p.add_argument("--vector", required=True, help="integer vector 'v1,...,vn'")
    p.set_defaults(fn=_cmd_sl)

    p = sub.add_parser("sl-map", parents=[common], help="map one primitive vector to another")
    p.add_argument("--from", dest="src", required=True, help="integer vector")
    p.add_argument("--to", dest="dst", required=True, help="integer vector")
    p.set_defaults(fn=_cmd_sl)

    p = sub.add_parser("curve", parents=[common], help="emit a curve system file")
    p.add_argument("mapfile")
    p.add_argument("--kind", choices=["cf", "cfm", "line", "sumsq"], default="cf")
    p.add_argument("--m", type=_non_negative_int, help="m for kind cfm")
    p.add_argument("--u", help="line base point 'u1,...,un'")
    p.add_argument("--v", help="line direction 'v1,...,vn'")
    p.add_argument("--output", help="write the system file here")
    p.set_defaults(fn=_cmd_curve)

    p = sub.add_parser("search", parents=[common], help="box search on a system file")
    p.add_argument("sysfile")
    p.add_argument("--radius", type=_non_negative_int, required=True)
    p.add_argument(
        "--budget",
        type=_non_negative_int,
        default=diophantine.DEFAULT_NODE_BUDGET,
        help="node budget; a stopped search counts the node that tripped it, "
        "so it reports budget + 1 nodes",
    )
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("hurwitz", parents=[common], help="branch-data feasibility")
    p.add_argument("--d", type=_positive_int, required=True, help="covering degree")
    p.add_argument("--branches", required=True, help="local degrees 'e1,...,ek'")
    p.set_defaults(fn=_cmd_hurwitz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = _Outcome(*args.fn(args))
        _emit(args, out)
        sys.stdout.flush()
        return out.code
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): point the descriptor at
        # the null device so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (KellerlabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
