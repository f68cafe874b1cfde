"""Deterministic generator of the benchmark's hard-tier inputs.

Every hard input is a linear conjugate M F M^-1 of a small base map, built
with `kellerlab.transforms.conjugate_by_linear`.  A *class* fixes the base
map and a matrix A; its members conjugate by D A, where D = diag(s) runs
over the sign vectors with s_1 = +1.  Conjugating by D A gives
x -> D G(D x) for G = A F A^-1, so the members differ only in coefficient
signs and cost the same to process.  The workload seed picks one member per
class.  Picking freely among conjugates would not do: over the unipotent
{0,1} conjugates of triangular_3 the cost of `formal_inverse` spans four
orders of magnitude and the term count predicts it poorly.

Each written `.map`/`.sys` file carries its provenance in header lines:
base map, conjugating matrix, variables, term count, degree and maximum
coefficient bits.

Usage: python3 bench/hardgen.py --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import itertools
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(SRC, "kellerlab", "data")

# Base maps that are not in the bundled corpus: the bifurcation exemplar
# x, x*p(x)*y with deg p = 2 and 3, so that H has degree 3 and 4.
EXTRA_BASES = {
    "x_p3y": "name: x-p3-y\nvars: x y\nF1 = x\nF2 = x*(x - 1)*(x + 2)*y\n",
    "x_p4y": "name: x-p4-y\nvars: x y\nF1 = x\nF2 = x*(x - 1)*(x + 2)*(x - 3)*y\n",
}

A_2 = ((2, 1), (1, 1))

# name -> (base, matrix A)
CLASSES = {
    # n = 3 conjugate whose `check` takes about 2 s (coupling (0,2)+(1,0))
    "c3": ("triangular_3", ((1, 0, 1), (1, 1, 0), (0, 0, 1))),
    # n = 3 conjugate whose `check` is cheap; its curves feed the search workload
    "s3": ("triangular_3", ((1, 0, 1), (0, 1, 0), (0, 0, 1))),
    # n = 4 conjugates N1 and N2
    "n4a": ("triangular_4", ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1))),
    "n4b": ("triangular_4", ((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    # n = 4 conjugate whose elimination does not finish at the seed commit
    "n4s": ("triangular_4", ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    # conjugated non-Keller exemplars, deg H = 1, 2, 3, 4
    "xy": ("bif_x_xy", A_2),
    "xxm1y": ("bif_x_xxm1y", A_2),
    "xp3y": ("x_p3y", A_2),
    "xp4y": ("x_p4y", A_2),
}


def _kellerlab():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import kellerlab.cli  # imports every pipeline module

    return kellerlab


def base_text(base: str) -> str:
    if base in EXTRA_BASES:
        return EXTRA_BASES[base]
    with open(os.path.join(DATA, base + ".map"), encoding="utf-8") as fh:
        return fh.read()


def sign_vectors(n: int):
    """All sign vectors of length n with first entry +1, in a fixed order."""
    return [(1,) + rest for rest in itertools.product((1, -1), repeat=n - 1)]


def sign_tag(signs) -> str:
    return "".join("+" if s > 0 else "-" for s in signs)


def members(name: str):
    return sign_vectors(len(CLASSES[name][1]))


def pick(name: str, seed: int):
    """The sign vector the workload seed picks for a class."""
    options = members(name)
    return options[random.Random(f"{seed}:{name}").randrange(len(options))]


def conjugating_matrix(name: str, signs):
    _, A = CLASSES[name]
    return tuple(tuple(s * x for x in row) for s, row in zip(signs, A))


def coeff_bits(polys) -> int:
    bits = 0
    for p in polys:
        for c in p.terms.values():
            bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return bits


def provenance(polys, variables, extra):
    """Header lines describing an input file, shared by maps and systems."""
    meta = dict(extra)
    meta["variables"] = str(len(variables))
    meta["terms"] = str(sum(len(p.terms) for p in polys))
    meta["degree"] = str(max(p.total_degree() for p in polys))
    meta["coeff_bits"] = str(coeff_bits(polys))
    return meta


def matrix_text(M) -> str:
    return ";".join(",".join(str(x) for x in row) for row in M)


def build_map(name: str, signs):
    """(PolyMap, metadata) of one class member."""
    kl = _kellerlab()
    base, _ = CLASSES[name]
    F = kl.expr_io.parse_map_file(base_text(base)).to_poly_map()
    M = conjugating_matrix(name, signs)
    G = kl.transforms.conjugate_by_linear(F, M)
    meta = provenance(
        G.components,
        G.variables,
        {"name": f"hard-{name}-{sign_tag(signs)}", "base": base, "matrix": matrix_text(M)},
    )
    return G, meta


def write_map(path: str, G, meta) -> str:
    kl = _kellerlab()
    text = kl.expr_io.format_map_file(kl.expr_io.map_file_from_poly_map(G, meta))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def write_system(path: str, polys, meta) -> str:
    kl = _kellerlab()
    sf = kl.expr_io.SystemFile(
        variables=polys[0].variables,
        equations=tuple(kl.expr_io.print_polynomial(p) for p in polys),
        metadata=provenance(polys, polys[0].variables, meta),
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(kl.expr_io.format_system_file(sf))
    return path


def write_member(name: str, signs, out_dir: str):
    """Build one class member and write it to out_dir; returns (tag, path)."""
    G, meta = build_map(name, signs)
    tag = f"{name}{sign_tag(signs)}"
    return tag, write_map(os.path.join(out_dir, f"hard-{tag}.map"), G, meta)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for the generated files")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for name in CLASSES:
        tag, path = write_member(name, pick(name, args.seed), args.out)
        print(f"{tag} {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
