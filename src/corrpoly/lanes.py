"""Integer vectors packed coordinate by coordinate.

A row's dot product with every packed vector then takes a few big-int
operations instead of one interpreted loop per vector, which is how the
double description kernel classifies its rays against a new constraint.
The values are read in place from the bytes of the result, and the signs
come back as bit sets, read from the same bytes without a loop over the
vectors.
"""

from __future__ import annotations

import struct
import sys
from itertools import chain
from typing import Sequence

#: ``struct`` code of each signed lane width it has.
_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}
#: ``memoryview.cast`` code of each signed lane width a native code has, and
#: the host's byte order: lanes are little-endian, so only a little-endian
#: host reads them in place.
_VIEWS = {struct.calcsize(c): c for c in "bhilq"}
_BYTEORDER = sys.byteorder
#: ``bytes.translate`` tables to ASCII binary digits: ``_BITS[j]`` gives ``1``
#: for a byte with bit ``j`` set, ``_NONZERO`` for a nonzero byte.
_BITS = [(b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j) for j in range(8)]
_NONZERO = bytes(b"01"[b != 0] for b in range(256))


def _bits(vectors: Sequence[Sequence[int]]) -> int:
    """The largest bit length of the absolute coordinates, 0 if there are none."""
    distinct = set(chain.from_iterable(vectors))  # few in practice: cheaper to scan twice
    return max(max(distinct, default=0), -min(distinct, default=0)).bit_length()


def _to_lanes(values: Sequence[int], width: int) -> bytes:
    """``values`` as two's complement lanes of ``width`` bytes, little-endian."""
    code = _CODES.get(width)
    if code:
        return struct.pack(f"<{len(values)}{code}", *values)
    return b"".join([x.to_bytes(width, "little", signed=True) for x in values])


def _values(data: bytes, width: int) -> Sequence[int]:
    """The values of the two's complement lanes of ``width`` bytes in ``data``,
    read in place where the host can."""
    view = _VIEWS.get(width) if _BYTEORDER == "little" else None
    if view:
        return memoryview(data).cast(view)
    code = _CODES.get(width)
    if code:
        return struct.unpack(f"<{len(data) // width}{code}", data)
    return [int.from_bytes(data[i:i + width], "little", signed=True)
            for i in range(0, len(data), width)]


def _halves(count: int, width: int) -> int:
    """``count`` lanes of ``width`` bytes, each holding ``2**(8*width - 1)``."""
    return int.from_bytes((1 << 8 * width - 1).to_bytes(width, "little") * count, "little")


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

    ``planes[j]`` is one integer whose lane ``i``, ``width`` bytes from bit
    ``8 * width * i`` on, holds coordinate ``j`` of vector ``i`` plus
    ``half = 2**(8*width - 1)``, so every lane is in ``[0, 2 * half)``;
    ``halves`` holds ``half`` in each of the ``count`` lanes.  No lane's
    value has more than ``coord_bits`` bits and ``coord_bits + 1 < 8 *
    width``.  A row whose absolute values sum to ``s`` has exact dot
    products with every lane while ``s.bit_length() + coord_bits < 8 *
    width``; ``width`` starts at 1 and doubles, repacking every plane, before
    a row or an appended vector would break either bound.  It never shrinks:
    fresh lanes are how a new set of vectors starts again from 1 byte.
    """

    __slots__ = ("planes", "halves", "count", "width", "coord_bits")

    def __init__(self, dimension: int):
        self.planes = [0] * dimension
        self.halves = 0
        self.count = 0
        self.width = 1
        self.coord_bits = 0

    def append(self, vectors: Sequence[Sequence[int]]) -> None:
        """Pack ``vectors`` into the next lanes, each plane from one column of them."""
        self.coord_bits = max(self.coord_bits, _bits(vectors))
        self._widen(self.coord_bits + 1)
        halves = _halves(len(vectors), self.width)
        shift = 8 * self.width * self.count
        for j, column in enumerate(zip(*vectors)):
            self.planes[j] |= (int.from_bytes(_to_lanes(column, self.width), "little")
                               ^ halves) << shift
        self.halves |= halves << shift
        self.count += len(vectors)

    def dot(self, row: Sequence[int]) -> tuple[Sequence[int], int, int]:
        """The dot product of ``row`` with every vector, in lane order.

        Also returns the bit sets of the vectors on which it is negative and
        on which it is nonzero.
        """
        self._widen(sum(map(abs, row)).bit_length() + self.coord_bits)
        # Lane i of the sum of x * plane over the row holds dot(row, vector
        # i) + half * sum(row).  Adding (1 - sum(row)) * halves leaves dot +
        # half in every lane, which the width bound keeps in [0, 2 * half),
        # so no lane carries into the next; flipping the top bits gives two's
        # complement lanes.
        halves = self.halves
        acc = (1 - sum(row)) * halves
        for x, plane in zip(row, self.planes):
            if x:
                acc += x * plane
        data = (acc ^ halves).to_bytes(self.count * self.width, "little")
        return (_values(data, self.width), *_signs(data, self.width))

    def _widen(self, bits: int) -> None:
        """Double ``width`` until lanes hold ``bits``-bit values, then repack."""
        old = self.width
        while bits >= 8 * self.width:
            self.width *= 2
        if self.width != old:
            size, halves = self.count * old, self.halves
            self.halves = _halves(self.count, self.width)
            for j, p in enumerate(self.planes):
                values = _values((p ^ halves).to_bytes(size, "little"), old)
                self.planes[j] = (int.from_bytes(_to_lanes(values, self.width), "little")
                                  ^ self.halves)
