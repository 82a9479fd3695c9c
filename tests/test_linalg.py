import random
from fractions import Fraction

import pytest

from corrpoly.linalg import (
    clear_to_int,
    dot,
    integer_rank,
    primitive,
    reduce_mod_rowspace,
    rref,
)
from oracles import frac_rank, frac_rref


def test_dot():
    assert dot((3, -2, 5), (-1, 4, 2)) == -3 - 8 + 10
    big = 2**64 + 7
    assert dot((big, -big), (big, 3)) == big * big - 3 * big
    assert type(dot((big, 1), (-big, 1))) is int
    out = dot((), ())
    assert out == 0 and type(out) is int
    out = dot((Fraction(1, 3), Fraction(-1, 2)), (Fraction(3, 4), 5))
    assert out == Fraction(-9, 4) and type(out) is Fraction


def test_primitive():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, 0, 0)) == (0, 0, 0)
    assert primitive((-3, 0, 9)) == (-1, 0, 3)  # sign preserved
    assert primitive((7,)) == (1,)


def test_clear_to_int():
    cases = [
        ((Fraction(1, 2), Fraction(1, 3)), (3, 2)),   # Fraction
        ((2, 4), (1, 2)),                             # int
        ((-6, 0, 9), (-2, 0, 3)),
        ((0, 0), (0, 0)),
        (iter((3, 6)), (1, 2)),
        ((True, False, True), (1, 0, 1)),             # bool
        ((Fraction(-1, 2), 1), (-1, 2)),              # mixed
        ((Fraction(4), 2, True), (4, 2, 1)),
    ]
    for vec, expected in cases:
        out = clear_to_int(vec)
        assert out == expected
        assert all(type(x) is int for x in out)
    for vec in ((0.5, 1), (1, 2.0), (Fraction(1, 2), 1.5)):
        with pytest.raises(TypeError):
            clear_to_int(vec)


def test_integer_rank_matches_rational_elimination():
    rng = random.Random(5150)
    for trial in range(800):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        mat = [
            [rng.choice([0, 0, 1, -1, rng.randint(-9, 9)]) for _ in range(n)]
            for _ in range(m)
        ]
        if trial % 3 == 0 and m >= 2:
            mat[-1] = [2 * a - b for a, b in zip(mat[0], mat[m // 2])]
        expected = frac_rank(mat) if any(any(r) for r in mat) else 0
        assert integer_rank(mat) == expected, mat


def test_reduce_mod_rowspace_is_canonical():
    rows = [(1, 0, 2), (0, 1, -1)]
    reduced, pivots = rref(rows)
    # any two vectors differing by a row-space element reduce identically
    v = (3, 5, 7)
    shifted = tuple(a + 2 * b - c for a, (b, c) in zip(v, zip(rows[0], rows[1])))
    assert reduce_mod_rowspace(v, reduced, pivots) == reduce_mod_rowspace(
        shifted, reduced, pivots
    )
    out = reduce_mod_rowspace(v, reduced, pivots)
    assert out[0] == 0 and out[1] == 0  # pivot coordinates eliminated


def test_rref_is_the_rational_rref_cleared_of_denominators():
    # independent oracle: Gauss-Jordan over Fraction, each row then scaled
    # to a primitive integer vector (its pivot, 1, stays positive)
    rng = random.Random(31)
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.choice([0, 0, rng.randint(-9, 9),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 7))])
                for _ in range(n)] for _ in range(m)]
        if m >= 3:
            mat[-1] = [a - 2 * b for a, b in zip(mat[0], mat[1])]
        reduced, pivots = rref(mat)
        expected, expected_pivots = frac_rref(mat)
        assert pivots == expected_pivots, mat
        assert reduced == [clear_to_int(r) for r in expected], mat
        assert all(type(x) is int for r in reduced for x in r)
        vec = [rng.randint(-9, 9) for _ in range(n)]
        out = [Fraction(x) for x in vec]
        for row, piv in zip(expected, expected_pivots):
            out = [x - out[piv] * y for x, y in zip(out, row)]
        assert reduce_mod_rowspace(vec, reduced, pivots) == clear_to_int(out), mat
