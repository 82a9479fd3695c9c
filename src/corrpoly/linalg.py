"""Exact linear algebra on integer and rational vectors.

Small, dependency-free routines backing the polyhedral kernel: gcd
normalization, fraction-free rank, reduced row echelon form and
reduction modulo a row space.  All arithmetic is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .core import NumberLike, as_rational

IntVec = tuple[int, ...]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def primitive(vec: Iterable[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    vec = tuple(vec)
    g = 0
    for x in vec:
        g = math.gcd(g, x)
        if g == 1:
            return vec
    if g <= 1:
        return vec
    return tuple(x // g for x in vec)


def clear_to_int(vec: Iterable[NumberLike]) -> IntVec:
    """Scale a rational vector by a positive factor to a primitive int vector."""
    vec = tuple(vec)
    if all(type(v) is int for v in vec):
        return primitive(vec)
    fracs = [as_rational(v) for v in vec]
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // math.gcd(lcm, f.denominator)
    return primitive(int(f * lcm) for f in fracs)


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix via fraction-free Gaussian elimination."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return 0
    cols = len(mat[0])
    rank = 0
    prev_pivot = 1
    for col in range(cols):
        pivot_row = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        p = mat[rank][col]
        for i in range(rank + 1, len(mat)):
            factor = mat[i][col]
            if factor == 0:
                # Bareiss division keeps entries bounded even on skipped rows.
                for j in range(col, cols):
                    mat[i][j] = mat[i][j] * p // prev_pivot
                continue
            for j in range(col, cols):
                mat[i][j] = (mat[i][j] * p - factor * mat[rank][j]) // prev_pivot
        prev_pivot = p
        rank += 1
        if rank == len(mat):
            break
    return rank


def rref(rows: Sequence[Sequence[NumberLike]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals.

    Returns the nonzero rows and their pivot column indices.
    """
    mat = [[as_rational(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def reduce_mod_rowspace(
    vec: Sequence[int], reduced: Sequence[Sequence[Fraction]], pivots: Sequence[int]
) -> IntVec:
    """Canonical representative of ``vec`` modulo a row space in RREF.

    The pivot coordinates are eliminated, yielding the unique member of
    ``vec + rowspace`` supported on the non-pivot columns, scaled primitive.
    """
    out = [as_rational(x) for x in vec]
    for row, piv in zip(reduced, pivots):
        factor = out[piv]
        if factor != 0:
            out = [x - factor * y for x, y in zip(out, row)]
    return clear_to_int(out)
