import random
import sys

import pytest

from corrpoly import lanes as lanes_module
from corrpoly.lanes import _BLOCK, Lanes, _signs, _to_lanes


def plain(row, vectors):
    return [sum(a * b for a, b in zip(row, v)) for v in vectors]


def sign_sets(values):
    """The negative and the nonzero bit sets of ``values``, bit i for value i."""
    return (sum(1 << i for i, v in enumerate(values) if v < 0),
            sum(1 << i for i, v in enumerate(values) if v))


def checked_dot(lanes, row, vectors):
    """``lanes.dot(row)``'s values, after checking its sign sets."""
    values, negative, nonzero = lanes.dot(row)
    assert (negative, nonzero) == sign_sets(plain(row, vectors))
    return list(values)


def test_dot_matches_plain_dot_while_lanes_widen():
    # Appended vectors and rows grow from a few bits to 300, so the lanes
    # widen step by step from 1 byte, through every struct-packed width,
    # past 8 bytes; every dot product and its sign sets must stay exact, and
    # the width never shrinks.  Fresh lanes for small vectors start again
    # from 1 byte.
    rng = random.Random(31)
    dim = 5
    lanes = Lanes(dim)
    vectors = []
    widths = [lanes.width]
    for bits in (1, 2, 3, 5, 8, 13, 20, 31, 40, 63, 64, 100, 300):
        for _ in range(2):
            batch = [tuple(rng.randint(-2**bits, 2**bits) for _ in range(dim))
                     for _ in range(rng.randint(0, 4))]
            lanes.append(batch)
            vectors += batch
            widths.append(lanes.width)
            row = tuple(rng.randint(-2**bits, 2**bits) for _ in range(dim))
            assert checked_dot(lanes, row, vectors) == plain(row, vectors)
            widths.append(lanes.width)
    assert widths == sorted(widths)
    assert {1, 2, 4, 8, 16} <= set(widths) and widths[-1] > 64
    small = [(1, -1, 0, 2, 0), (0, 0, 0, 0, 0)]
    lanes = Lanes(dim)
    lanes.append(small)
    assert lanes.width == 1
    assert checked_dot(lanes, (3, 1, 0, 0, -2), small) == [2, 0]


def test_width_follows_the_exact_bound():
    lanes = Lanes(2)
    assert checked_dot(lanes, (1, -1), []) == []
    # 6-bit coordinates fit one-byte lanes; a row whose absolute values sum
    # to 1 keeps every product within 7 bits, one summing to 2 may not.
    vectors = [(63, -63), (-63, 63), (0, 0)]
    lanes.append(vectors)
    assert (lanes.width, lanes.coord_bits) == (1, 6)
    assert checked_dot(lanes, (1, 0), vectors) == plain((1, 0), vectors) and lanes.width == 1
    assert checked_dot(lanes, (1, 1), vectors) == plain((1, 1), vectors) and lanes.width == 2
    lanes.append([(-2**14, 2**14 - 1)])
    assert lanes.width == 4


def test_append_packs_a_long_batch_block_by_block():
    # A batch longer than one block is packed a block at a time, at the
    # width that its widest vector, here in the last block, needs from the
    # start.  The lanes must be those of the same vectors appended one per
    # call, where that last vector widens, and so repacks, all before it.
    rng = random.Random(7)
    vectors = [(rng.randint(-3, 3), rng.randint(-3, 3), 0) for _ in range(2 * _BLOCK + 5)]
    vectors[-1] = (2**40, -1, 7)
    lanes, one_by_one = Lanes(3), Lanes(3)
    lanes.append(vectors)
    for v in vectors:
        one_by_one.append([v])
    assert (lanes.width, lanes.coord_bits) == (8, 41)
    assert lanes.count == len(vectors)
    assert all(p.bit_length() <= 64 * len(vectors) for p in lanes.planes)
    assert {s: getattr(lanes, s) for s in Lanes.__slots__} == {
        s: getattr(one_by_one, s) for s in Lanes.__slots__}
    for row in ((1, 1, 1), (0, -2, 1), (0, 0, 1)):
        assert checked_dot(lanes, row, vectors) == plain(row, vectors)


@pytest.mark.parametrize("reader", ["view", "fallback"])
@pytest.mark.parametrize("width", [1, 2, 4, 8, 16])
def test_values_read_in_place_or_unpacked(width, reader, monkeypatch):
    # On a little-endian host, lanes of a native code's size are read in
    # place; a big-endian host and wider lanes unpack them.  Both readers
    # must give the plain dot products up to the edges of the lanes:
    # coordinates of 4 * width - 1 bits and a row whose absolute values sum
    # to 4 * width bits fill all but the top bit.  Empty lanes give no values.
    if reader == "fallback":
        monkeypatch.setattr(lanes_module, "_BYTEORDER", "big")
    top = 2 ** (4 * width - 1) - 1
    row = (top, -top, 0)
    lanes = Lanes(3)
    values, negative, nonzero = lanes.dot(row)
    assert (len(values), negative, nonzero) == (0, 0, 0)
    rng = random.Random(width)
    vectors = [(top, -top, 0), (-top, top, 1), (0, 0, 0)]
    vectors += [tuple(rng.randint(-top, top) for _ in range(3)) for _ in range(20)]
    lanes.append(vectors)
    for r in (row, (-top, -top, 0), (1, 0, -1), (0, 0, 1)):
        values = lanes.dot(r)[0]
        assert isinstance(values, memoryview) == (
            reader == "view" and width <= 8 and sys.byteorder == "little")
        assert checked_dot(lanes, r, vectors) == plain(r, vectors)
    assert lanes.width == width


@pytest.mark.parametrize("width", [1, 2, 4, 8, 16])
def test_sign_sets_of_extreme_lanes(width):
    # Every byte of a lane decides its nonzero bit, and the top byte alone
    # its negative bit: the extremes of two's complement put 0x80, 0x7f,
    # 0xff and 0x00 into the top byte, and single nonzero bytes into each
    # position.  Widths 1-8 are struct-packed, 16 is joined byte by byte.
    top = 1 << (8 * width - 1)
    values = [0, 1, -1, top - 1, -top, -top + 255, -top + 1, 255, -256]
    values += [1 << (8 * j) for j in range(width)]
    values += [-(1 << (8 * j)) for j in range(width)]
    values = [v for v in values if -top <= v < top] + [0] * 3
    rng = random.Random(width)
    for _ in range(50):
        shuffled = rng.sample(values, len(values))
        assert _signs(_to_lanes(shuffled, width), width) == sign_sets(shuffled)
    assert _signs(_to_lanes([0] * 5, width), width) == (0, 0)
    assert _signs(b"", width) == (0, 0)  # no lanes: int(b"", 2) would raise


def test_sign_sets_past_the_digit_limit():
    # A str-to-int parse of more than 4,300 decimal digits raises, but base 2
    # is exempt, so 5,000 lanes read as one bit set each way, at 1-byte lanes
    # and, after the coordinates widen them, at 4-byte lanes.
    rng = random.Random(5)
    vectors = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(5000)]
    lanes = Lanes(2)
    lanes.append(vectors)
    for row in ((1, 2), (0, 1), (0, 0)):
        assert checked_dot(lanes, row, vectors) == plain(row, vectors)
    assert lanes.width == 1
    vectors += [(2**20, -2**20)]
    lanes.append(vectors[-1:])
    assert checked_dot(lanes, (-1, 1), vectors) == plain((-1, 1), vectors)
    assert lanes.width == 4
    zeros = [(0, 0)] * 5000
    lanes = Lanes(2)
    lanes.append(zeros)
    assert checked_dot(lanes, (1, 2), zeros) == [0] * 5000
