#!/usr/bin/env python3
"""Bifurcation machinery on the two classic exemplars.

For F = (x, xy) the image misses the line Y1 = 0 except the origin, so the
hypersurface polynomial is H = Y1; for F = (x, x(x-1)y) two vertical lines
are special and H = Y1(Y1 - 1).  An invertible map has empty bifurcation
set, hence H = 1 and every line is generic.

Run:  python3 demos/bifurcation_walkthrough.py
"""

from kellerlab.bundled import load_bundled_map
from kellerlab.expr_io import print_polynomial
from kellerlab.fibers import assert_c2, bifurcation_data, sigma


def walk(name):
    F = load_bundled_map(name).to_poly_map()
    print(f"== {name} ==")
    data = bifurcation_data(F)
    for i, (h, a) in enumerate(zip(data.h, data.a), start=1):
        print(f"  h{i}(Y, T) = {print_polynomial(h)}")
        print(f"  a{i}(Y)    = {print_polynomial(a)}")
    print(f"  H = {print_polynomial(data.H)}")
    if data.cone_form is not None:
        print(f"  cone form at infinity = {print_polynomial(data.cone_form)}")
    else:
        print("  bifurcation set empty: every line is generic")
    print(f"  generic fiber degree d_F = {data.fiber_degree}")
    s = sigma(F)
    print(f"  sigma(U, V) = {print_polynomial(s)}")
    return F


def main():
    walk("bif_x_xy.map")
    print()
    F = walk("bif_x_xxm1y.map")

    print("\ngenericity checks for F = (x, x(x-1)y):")
    for u, v in [((2, 0), (1, 1)), ((0, 0), (1, 1)), ((2, 0), (0, 1))]:
        first, second = assert_c2(F, u, v)
        print(f"  u = {u}, v = {v}")
        print(f"    base point side: {first.detail}")
        print(f"    direction side:  {second.detail}")

    print()
    walk("triangular_2.map")


if __name__ == "__main__":
    main()
