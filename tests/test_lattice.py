import math
import random
from fractions import Fraction

import pytest

from kellerlab.lattice import (
    PrimitiveVector,
    UnimodularMatrix,
    egcd,
    is_primitive,
    map_primitive_pair,
    sl_complete,
    sl_inverse,
)
from kellerlab._linalg import int_matrix_det

from _support import (
    random_primitive_vector,
    reference_map_primitive_pair,
    reference_sl_complete,
)


def test_egcd():
    for a, b in [(2, 3), (0, 5), (-4, 6), (12, 18), (7, 0), (-1, -1)]:
        g, x, y = egcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g


def test_is_primitive_examples():
    assert is_primitive((2, 3))
    assert not is_primitive((2, 4))
    assert is_primitive((0, 0, 1))
    with pytest.raises(ValueError):
        is_primitive((0, 0))


def test_primitive_vector_type():
    v = PrimitiveVector((2, 3, 5))
    assert v.n == 3
    with pytest.raises(ValueError):
        PrimitiveVector((2, 4))


def test_unimodular_matrix_validation():
    UnimodularMatrix(((2, 1), (3, 2)))
    with pytest.raises(ValueError):
        UnimodularMatrix(((2, 0), (0, 2)))
    with pytest.raises(ValueError):
        UnimodularMatrix(((1, 0, 0), (0, 1, 0)))


def test_sl_complete_examples():
    ident = sl_complete((1, 0, 0, 0))
    assert ident.rows == tuple(
        tuple(int(i == j) for j in range(4)) for i in range(4)
    )

    A = sl_complete((2, 3))
    assert int_matrix_det(A.rows) == 1
    assert A.column(0) == (2, 3)

    B = sl_complete((2, 3, 5))
    assert int_matrix_det(B.rows) == 1
    assert B.column(0) == (2, 3, 5)


def test_sl_complete_edge_vectors():
    for v in [(-1, 0), (0, -1), (0, 0, 1), (-1, 0, 0), (0, 7, -3), (1,)]:
        A = sl_complete(v)
        assert A.column(0) == v
    with pytest.raises(ValueError):
        sl_complete((-1,))  # SL(1, Z) cannot reach -1
    with pytest.raises(ValueError):
        sl_complete((2, 4))


def test_sl_complete_random_sample():
    rng = random.Random(343)
    for n in range(2, 7):
        for _ in range(30):
            v = random_primitive_vector(rng, n, bound=50)
            A = sl_complete(v)
            assert A.column(0) == v  # det == 1 checked by the type


def _seeded_vectors(rng, n):
    """Primitive vectors of length n: +-e1, ones with v0 = 0 and random ones."""
    e1 = (1,) + (0,) * (n - 1)
    vs = [e1, tuple(-x for x in e1)]
    if n > 1:
        vs += [(0,) + random_primitive_vector(rng, n - 1, bound=9) for _ in range(4)]
        vs += [random_primitive_vector(rng, n, bound=rng.choice((3, 40))) for _ in range(12)]
    return vs


def test_sl_complete_and_pair_match_bordered_determinant_reference():
    rng = random.Random(676)
    for n in range(1, 9):
        vs = _seeded_vectors(rng, n)
        for v in vs:
            try:
                expected = reference_sl_complete(v)
            except ValueError:
                with pytest.raises(ValueError):
                    sl_complete(v)
                continue
            assert sl_complete(v).rows == tuple(map(tuple, expected))
        ok = [v for v in vs if n > 1 or v == (1,)]
        for v, w in zip(ok, ok[1:] + ok[:1]):
            assert map_primitive_pair(v, w).rows == tuple(
                map(tuple, reference_map_primitive_pair(v, w))
            )


def test_map_primitive_pair_examples():
    v = (2, 3, 5)
    A = map_primitive_pair(v, v)
    assert A.apply(v) == v

    B = map_primitive_pair((1, 0), (0, 1))
    assert B.apply((1, 0)) == (0, 1)

    C = map_primitive_pair((2, 3, 5), (0, 1, 1))
    assert C.apply((2, 3, 5)) == (0, 1, 1)

    with pytest.raises(ValueError):
        map_primitive_pair((1, 0), (0, 0, 1))


def test_map_primitive_pair_random():
    rng = random.Random(454)
    for n in (2, 3, 4):
        for _ in range(15):
            v = random_primitive_vector(rng, n, bound=30)
            w = random_primitive_vector(rng, n, bound=30)
            A = map_primitive_pair(v, w)
            assert A.apply(v) == w


def test_sl_inverse_examples():
    I2 = UnimodularMatrix(((1, 0), (0, 1)))
    assert sl_inverse(I2).rows == I2.rows
    A = UnimodularMatrix(((2, 1), (3, 2)))
    assert sl_inverse(A).rows == ((2, -1), (-3, 2))


def test_sl_inverse_roundtrip_random():
    rng = random.Random(565)
    for _ in range(15):
        # random unimodular product of elementary row operations
        n = rng.choice([2, 3, 4])
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(8):
            i, j = rng.sample(range(n), 2)
            k = rng.randint(-3, 3)
            for c in range(n):
                rows[i][c] += k * rows[j][c]
        A = UnimodularMatrix(tuple(map(tuple, rows)))
        inv = sl_inverse(A)
        assert A.multiply(inv).rows == UnimodularMatrix(
            tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        ).rows


@pytest.mark.parametrize("bad", [Fraction(3, 2), 2.5])
def test_entry_points_refuse_non_integral_coordinates(bad):
    # int() truncated these: ((3/2, 1), (1/2, 1)) was taken for ((1, 1), (0, 1))
    # and (2.5, 1) was completed as (2, 1)
    for call in (
        lambda: UnimodularMatrix(((bad, 1), (Fraction(1, 2), 1))),
        lambda: is_primitive((bad, 1)),
        lambda: PrimitiveVector((bad, 1)),
        lambda: sl_complete((bad, 1)),
        lambda: map_primitive_pair((bad, 1), (1, 0)),
        lambda: map_primitive_pair((1, 0), (bad, 1)),
    ):
        with pytest.raises(ValueError, match="expected an integer"):
            call()


def test_entry_points_accept_integral_fractions():
    two, one = Fraction(2), Fraction(1)
    assert UnimodularMatrix(((two, one), (one, one))).rows == ((2, 1), (1, 1))
    assert is_primitive((two, one)) and not is_primitive((two, Fraction(4)))
    assert PrimitiveVector((two, one)).coords == (2, 1)
    assert sl_complete((two, one)) == sl_complete((2, 1))
    assert map_primitive_pair((two, one), (one, 0)) == map_primitive_pair((2, 1), (1, 0))
