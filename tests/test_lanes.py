import random

from corrpoly.lanes import Lanes


def plain(row, vectors):
    return [sum(a * b for a, b in zip(row, v)) for v in vectors]


def test_dot_matches_plain_dot_while_lanes_widen():
    # Appended vectors and rows grow from a few bits to 300, so the lanes
    # widen step by step from 1 byte, through every struct-packed width,
    # past 8 bytes; every dot product must stay exact, and the width never
    # shrinks, not even on a refill with small vectors.
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
            assert list(lanes.dot(row)) == plain(row, vectors)
            widths.append(lanes.width)
    assert widths == sorted(widths)
    assert {1, 2, 4, 8, 16} <= set(widths) and widths[-1] > 64
    small = [(1, -1, 0, 2, 0), (0, 0, 0, 0, 0)]
    lanes.fill(small)
    assert lanes.width == widths[-1]
    assert list(lanes.dot((3, 1, 0, 0, -2))) == [2, 0]


def test_width_follows_the_exact_bound():
    lanes = Lanes(2)
    assert list(lanes.dot((1, -1))) == []
    # 6-bit coordinates fit one-byte lanes; a row whose absolute values sum
    # to 1 keeps every product within 7 bits, one summing to 2 may not.
    vectors = [(63, -63), (-63, 63), (0, 0)]
    lanes.append(vectors)
    assert (lanes.width, lanes.coord_bits) == (1, 6)
    assert list(lanes.dot((1, 0))) == plain((1, 0), vectors) and lanes.width == 1
    assert list(lanes.dot((1, 1))) == plain((1, 1), vectors) and lanes.width == 2
    lanes.append([(-2**14, 2**14 - 1)])
    assert lanes.width == 4
