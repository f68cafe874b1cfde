#!/usr/bin/env python3
"""End-to-end pipeline: from an integer cubic-linear Keller map to a curve
whose integer points certify the map's behavior.

Steps:
  1. start from a bundled triangular cubic-linear Keller map (its
     bifurcation set is empty, so every line direction is generic);
  2. for a weight vector w with all w_i nonzero, take the direction
     v = (w_1^3, ..., w_n^3) and enumerate the integer points of the
     preimage of the line {t v} in a box;
  3. choose a clearing scale r so no nonzero point survives in r Z^n, and
     rescale the map (the rows stay integral);
  4. conjugate by the diagonal weight transform, which keeps the rows
     integral by the weight bookkeeping;
  5. emit the curve F_1 = ... = F_n for the final map and search it.

Run:  python3 demos/theorem_b_pipeline.py
"""

from kellerlab.bundled import load_bundled_map
from kellerlab.diophantine import curve_CF, format_report, line_preimage, search_box
from kellerlab.expr_io import print_polynomial
from kellerlab.fibers import Line, bifurcation_data, sigma
from kellerlab.keller import as_cubic_linear, is_keller
from kellerlab.transforms import (
    DiagonalTransform,
    choose_clearing_scale,
    scale_conjugate,
    theoremB_diagonal,
)


def show_map(title, F):
    print(f"{title}:")
    for i, comp in enumerate(F.components, start=1):
        print(f"  F{i} = {print_polynomial(comp)}")


def main():
    F = load_bundled_map("triangular_2.map").to_poly_map()
    show_map("start map (triangular cubic-linear)", F)
    print(f"  keller: {is_keller(F)}")

    data = bifurcation_data(F)
    print(f"  H = {print_polynomial(data.H)} (empty bifurcation set)")
    print(f"  sigma = {print_polynomial(sigma(F))}, "
          "so every direction is generic")

    weights = (1, 2)
    v = tuple(w**3 for w in weights)
    box = 10

    # demonstrate the clearing scale on a direction whose line preimage has
    # nonzero integer points in the box
    probe = Line((0, 0), (1, 1))
    probe_pts = search_box(line_preimage(F, probe), box)
    print(f"\npreimage of the line with direction (1, 1), box {box}:")
    print(format_report(probe_pts), end="")
    r = choose_clearing_scale(probe_pts.points)
    print(f"clearing scale r = {r}")
    scaled = scale_conjugate(F, r)
    show_map(f"rescaled map (1/{r}) F({r} X)", scaled)
    cleared = search_box(line_preimage(scaled, probe), box // r)
    print(f"its preimage points in the shrunken box {box // r}: "
          f"{list(cleared.points)} (only the origin)")
    print("note: plain r-scaling multiplies the cubic rows by r^(2/3), so it"
          " leaves the cubic-linear shape only for cube scales:")
    print(f"  recognition after scaling by {r}: "
          f"{type(as_cubic_linear(scaled)).__name__}")

    # cube scaling keeps the rows integral: rows pick up the factor r^2
    cubed = scale_conjugate(F, r**3)
    form = as_cubic_linear(cubed)
    assert form.is_integral()
    print(f"\nafter scaling by r^3 = {r ** 3}, rows (factor r^2 = {r * r}):")
    for row in form.matrix:
        print("  " + " ".join(str(x) for x in row))

    out = theoremB_diagonal(form, DiagonalTransform(weights))
    print(f"diagonal transform with weights {weights}, direction v = {v}:")
    for row in out.matrix:
        print("  " + " ".join(str(x) for x in row))

    G = out.to_map(F.variables)
    show_map("final map (integer cubic-linear, Keller)", G)
    print(f"  keller: {is_keller(G)}")

    curve = curve_CF(G)
    print("\ncurve F1 = F2 of the final map:")
    for p in curve.polynomials:
        print(f"  {print_polynomial(p)} = 0")
    print("box search at radius 10:")
    print(format_report(search_box(curve, 10)), end="")
    print("(the report claims nothing beyond the box: this map is invertible,"
          " and a nonzero point exists at much larger height)")


if __name__ == "__main__":
    main()
