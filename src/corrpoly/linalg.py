"""Exact linear algebra on integer and rational vectors.

Small, dependency-free routines backing the polyhedral kernel: gcd
normalization, rank and reduced row echelon form by one fraction-free
elimination, and reduction modulo a row space.  All arithmetic is exact.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Iterable, Sequence

from .core import NumberLike, as_rational

IntVec = tuple[int, ...]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def primitive(vec: Iterable[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    vec = tuple(vec)
    g = math.gcd(*vec)
    return vec if g <= 1 else tuple(x // g for x in vec)


def clear_to_int(vec: Iterable[NumberLike]) -> IntVec:
    """Scale a rational vector by a positive factor to a primitive int vector."""
    vec = tuple(vec)
    if all(type(v) is int for v in vec):
        return primitive(vec)
    fracs = [as_rational(v) for v in vec]
    lcm = math.lcm(*(f.denominator for f in fracs))
    return primitive(int(f * lcm) for f in fracs)


def _echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Row echelon form of an integer matrix by fraction-free (Bareiss)
    elimination: the nonzero rows and their pivot column indices."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return [], []
    cols = len(mat[0])
    rank = 0
    prev_pivot = 1
    pivots = []
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
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return mat[:rank], pivots


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix via fraction-free Gaussian elimination."""
    return len(_echelon(rows)[1])


def rref(rows: Sequence[Sequence[NumberLike]]) -> tuple[list[IntVec], list[int]]:
    """Reduced row echelon form over the rationals: the nonzero rows, each
    scaled to a primitive integer vector with a positive pivot, and their
    pivot column indices."""
    echelon, pivots = _echelon([clear_to_int(r) for r in rows])
    reduced: list[IntVec] = []
    for k in reversed(range(len(pivots))):  # reduce by the final rows below
        row = reduce_mod_rowspace(echelon[k], reduced, pivots[k + 1:])
        reduced.insert(0, row if row[pivots[k]] > 0 else tuple(-x for x in row))
    return reduced, pivots


def reduce_mod_rowspace(
    vec: Sequence[NumberLike], reduced: Sequence[Sequence[int]], pivots: Sequence[int]
) -> IntVec:
    """Canonical representative of ``vec`` modulo a row space in RREF.

    The pivot coordinates are eliminated, yielding the unique member of
    ``vec + rowspace`` supported on the non-pivot columns, scaled primitive.
    Each step scales ``vec`` by a pivot of ``rref``'s rows, which is positive.
    """
    out = list(vec)
    for row, piv in zip(reduced, pivots):
        factor = out[piv]
        if factor:
            p = row[piv]
            out = [x * p - factor * y for x, y in zip(out, row)]
    return clear_to_int(out)
