"""Integer vectors packed coordinate by coordinate.

A row's dot product with every packed vector then takes a few big-int
operations instead of one interpreted loop per vector, which is how the
double description kernel classifies its rays against a new constraint.
The signs come back as bit sets, read from the same bytes without a loop
over the vectors.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Sequence

#: ``struct`` code of each signed lane width it has.
_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}
#: ``bytes.translate`` tables to ASCII binary digits: ``_BITS[j]`` gives ``1``
#: for a byte with bit ``j`` set, ``_NONZERO`` for a nonzero byte.
_BITS = [(b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j) for j in range(8)]
_NONZERO = bytes(b"01"[b != 0] for b in range(256))
#: Vectors per flat pack in ``Lanes.append``: it never copies the coordinates
#: of more vectors than this at once.
_BLOCK = 256


def _bits(values: Sequence[int]) -> int:
    """The largest bit length of the absolute values, 0 if there are none."""
    distinct = set(values)  # few distinct values in practice: cheaper to scan twice
    return max(max(distinct, default=0), -min(distinct, default=0)).bit_length()


def _to_lanes(values: Sequence[int], width: int) -> bytes:
    """``values`` as two's complement lanes of ``width`` bytes, little-endian."""
    code = _CODES.get(width)
    if code:
        return struct.pack(f"<{len(values)}{code}", *values)
    return b"".join([x.to_bytes(width, "little", signed=True) for x in values])


def _from_lanes(data: bytes, width: int) -> Sequence[int]:
    """The values of the two's complement lanes of ``width`` bytes in ``data``."""
    code = _CODES.get(width)
    if code:
        return struct.unpack(f"<{len(data) // width}{code}", data)
    return [int.from_bytes(data[i:i + width], "little", signed=True)
            for i in range(0, len(data), width)]


def _bit_set(data: bytes, width: int, k: int) -> int:
    """Bit set of the lanes of ``width`` bytes in ``data`` whose bit ``k`` is set.

    Bit ``i`` stands for lane ``i`` of ``data``, which holds at least one.
    Slicing backwards from the last lane puts lane 0's digit last, where
    ``int(..., 2)`` reads bit 0; base 2 is exempt from the limit on the
    digits of a str-to-int parse.
    """
    return int(data[len(data) - width + (k >> 3)::-width].translate(_BITS[k & 7]), 2)


def _signs(data: bytes, width: int) -> tuple[int, int]:
    """Bit sets of the negative and of the nonzero lanes of ``width`` bytes,
    read as ``_bit_set`` reads one: a lane is negative iff its top bit is set.
    """
    last = len(data) - width  # the first byte of the last lane
    if last < 0:
        return 0, 0  # int(b"", 2) raises
    negative = _bit_set(data, width, 8 * width - 1)
    nonzero = 0
    for j in range(width):
        nonzero |= int(data[last + j::-width].translate(_NONZERO), 2)
    return negative, nonzero


class Lanes:
    """The coordinates of integer vectors ``0, 1, 2, ...``, packed.

    ``planes[j]`` holds coordinate ``j`` of vector ``i`` in lane ``i``, a
    two's complement integer of ``width`` bytes, little-endian.  No lane's
    value has more than ``coord_bits`` bits and ``coord_bits + 1 < 8 *
    width``.  A row whose absolute values sum to ``s`` has exact dot
    products with every lane while ``s.bit_length() + coord_bits < 8 *
    width``; ``width`` starts at 1 and doubles, repacking every plane, before
    a row or an appended vector would break either bound.  It never shrinks:
    fresh lanes are how a new set of vectors starts again from 1 byte.
    """

    __slots__ = ("planes", "width", "coord_bits")

    def __init__(self, dimension: int):
        self.planes = [bytearray() for _ in range(dimension)]
        self.width = 1
        self.coord_bits = 0

    def append(self, vectors: Sequence[Sequence[int]]) -> None:
        """Pack ``vectors`` into the next lanes, one flat pack per block."""
        for start in range(0, len(vectors), _BLOCK):
            block = vectors[start:start + _BLOCK]
            flat = list(chain.from_iterable(zip(*block)))  # plane by plane
            self.coord_bits = max(self.coord_bits, _bits(flat))
            self._widen(self.coord_bits + 1)
            data = memoryview(_to_lanes(flat, self.width))
            size = len(block) * self.width
            for j, plane in enumerate(self.planes):
                plane += data[j * size:(j + 1) * size]

    def dot(self, row: Sequence[int]) -> tuple[Sequence[int], int, int]:
        """The dot product of ``row`` with every vector, in lane order.

        Also returns the bit sets of the vectors on which it is negative and
        on which it is nonzero.
        """
        self._widen(sum(map(abs, row)).bit_length() + self.coord_bits)
        w = self.width
        size = len(self.planes[0])
        half = 1 << (8 * w - 1)
        halves = int.from_bytes(half.to_bytes(w, "little") * (size // w), "little")
        # Flipping the top bit of a two's complement lane turns its value c
        # into c + half, in [0, 2 * half), so acc is the sum over i of
        # (dot(row, vector i) + half * sum(row)) << 8 * w * i.  Adding
        # (1 - sum(row)) * halves leaves dot + half in every term, which the
        # width bound keeps within a lane, so no lane carries into the next;
        # flipping the top bits back gives two's complement lanes.
        acc = 0
        for x, plane in zip(row, self.planes):
            if x:
                acc += x * (int.from_bytes(plane, "little") ^ halves)
        acc = (acc + (1 - sum(row)) * halves) ^ halves
        data = acc.to_bytes(size, "little")
        return (_from_lanes(data, w), *_signs(data, w))

    def _widen(self, bits: int) -> None:
        """Double ``width`` until lanes hold ``bits``-bit values, then repack."""
        old = self.width
        while bits >= 8 * self.width:
            self.width *= 2
        if self.width != old:
            self.planes = [bytearray(_to_lanes(_from_lanes(p, old), self.width))
                           for p in self.planes]
