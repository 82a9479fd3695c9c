import random
from fractions import Fraction

import pytest

from corrpoly import (
    Configuration,
    HRepresentation,
    Inequality,
    builtin_model,
    contains,
    from_hrep,
    hull,
    parse_angles,
    parse_text,
    sample_violation_curve,
    sample_violation_grid,
    scan_violations,
    to_text,
    truth_table,
)
from corrpoly.core import ParseError, event_count
from corrpoly.inequalities import numbered_rows
from corrpoly.linalg import clear_to_int, primitive

URN = Configuration((1, 1))


def test_from_hrep_urn_listing():
    h = hull(truth_table(URN))
    texts = {to_text(q) for q in from_hrep(h)}
    assert texts == {
        "a1 - a1b1 + b1 <= 1",
        "-a1 + a1b1 <= 0",
        "a1b1 - b1 <= 0",
        "-a1b1 <= 0",
    }


def test_from_hrep_preserves_row_order():
    h = hull(truth_table(URN))
    ineqs = from_hrep(h)
    assert [q.to_hrow() for q in ineqs] == [tuple(r) for r in h.rows]


def test_from_hrep_dimension_mismatch():
    h = hull(truth_table(URN))
    with pytest.raises(ValueError):
        from_hrep(h, Configuration.uniform(2, 2))


def test_from_hrep_skips_linearity_rows():
    h = HRepresentation(
        dimension=3,
        rows=((1, -1, -1, 1), (0, 0, 0, 1)),
        linearity=frozenset({0}),
        config=URN,
    )
    ineqs = from_hrep(h)
    assert len(ineqs) == 1
    assert to_text(ineqs[0]) == "-a1b1 <= 0"


def test_to_text_unit_and_scaled_coefficients():
    c = Configuration.uniform(2, 2)
    q = Inequality((0, 2, 0, 0, -1, 0, 0, 1), 1, c)
    assert to_text(q) == "-a1b1 + 2 a2 + a2b2 <= 1"


def test_to_text_leading_negative():
    q = Inequality((0, 0, -1), 0, URN)
    assert to_text(q) == "-a1b1 <= 0"


def test_parse_text_examples():
    q = parse_text("a1 - a1b1 + b1 <= 1", URN)
    assert q.coefficients == (1, 1, -1) and q.rhs == 1
    q = parse_text("-a1b1 <= 0", URN)
    assert q.coefficients == (0, 0, -1) and q.rhs == 0
    # unicode relation and minus are accepted
    q = parse_text("a1 − a1b1 + b1 ≤ 1", URN)
    assert q.coefficients == (1, 1, -1)


def test_parse_text_spacing_and_coefficients():
    c = Configuration.uniform(3, 2)
    q = parse_text("-3 a1+2 a1b1-b1c2 <= 0", c)
    assert to_text(q) == "-3 a1 + 2 a1b1 - b1c2 <= 0"


def test_parse_text_errors():
    with pytest.raises(ParseError):
        parse_text("a1 + b7 <= 1", URN)  # unknown event
    with pytest.raises(ParseError):
        parse_text("a1 + b1", URN)  # missing relation
    with pytest.raises(ParseError):
        parse_text("a1 ++ b1 <= 1", URN)
    with pytest.raises(ParseError, match="missing sign before term 'b1'"):
        parse_text("a1 b1 <= 1", URN)
    with pytest.raises(ParseError):
        parse_text("<= 1", URN)
    with pytest.raises(ParseError):
        parse_text("a1 <= 1/2", URN)
    # numbers are ASCII digits, where int() and \d take 1_0 as 10 and other
    # scripts' digits by their value
    for text in ("a1 - a1b1 + b1 <= 1_0", "\u0663 a1 <= 1", "a1 <= \u0663",
                 "a1 <= \uff11", "1_0 a1 <= 1", "a\u0661 <= 1"):
        with pytest.raises(ParseError):
            parse_text(text, URN)


def test_canonicalization_gcd_and_scaling():
    c = URN
    q = Inequality((2, 4, -6), 8, c)
    assert q.coefficients == (1, 2, -3) and q.rhs == 4
    assert Inequality((2, 4, -6), 8, c) == Inequality((1, 2, -3), 4, c)
    with pytest.raises(ValueError):
        Inequality((0, 0, 0), 1, c)


def test_only_a_non_primitive_inequality_is_rewritten(hull_2_3, config_2_3):
    # the gcd with the rhs is divided out, signs kept; a primitive row keeps
    # the tuple it was given
    q = Inequality((-4, 0, 6), -2, URN)
    assert (q.coefficients, q.rhs) == ((-2, 0, 3), -1)
    assert Inequality((0, 0, 5), 0, URN).coefficients == (0, 0, 1)
    coefficients = (2, 4, -6)
    assert Inequality(coefficients, 7, URN).coefficients is coefficients
    listed = Inequality([2, 4, -6], 7, URN)  # a list still becomes a tuple
    assert type(listed.coefficients) is tuple and listed.coefficients == coefficients
    # from_hrep's inequalities have the fields of the primitive rows
    got = [(q.coefficients, q.rhs) for q in from_hrep(hull_2_3)]
    want = [(tuple(-a for a in row[1:]), row[0])
            for row in map(primitive, hull_2_3.rows)]
    assert got == want
    tripled = HRepresentation(hull_2_3.dimension, tuple(tuple(3 * v for v in row)
                                                        for row in hull_2_3.rows),
                              config=config_2_3)
    assert [(q.coefficients, q.rhs) for q in from_hrep(tripled)] == want


def test_from_hrep_integer_fraction_and_mixed_rows(hull_2_2, config_2_2):
    # integer rows skip clear_to_int; the result must be the same
    def cleared(row):
        row = clear_to_int(row)
        return Inequality(tuple(-a for a in row[1:]), row[0], config_2_2)

    facets = from_hrep(hull_2_2)
    scaled = tuple(tuple(3 * v for v in row) for row in hull_2_2.rows)
    halved = tuple(tuple(Fraction(v, 2) for v in row) for row in hull_2_2.rows)
    mixed = tuple(tuple(Fraction(v, 2) if i % 2 else v for i, v in enumerate(row))
                  for row in scaled)
    for rows in (scaled, halved, mixed, scaled[:5] + halved[5:]):
        hrep = HRepresentation(hull_2_2.dimension, rows, config=config_2_2)
        got = from_hrep(hrep)
        assert got == [cleared(row) for row in rows]
        assert all(type(c) is int for q in got for c in q.coefficients + (q.rhs,))
    assert from_hrep(HRepresentation(hull_2_2.dimension, scaled, config=config_2_2)) == facets


def test_constant_row_is_rejected():
    # a row with every coefficient zero is no inequality over the events;
    # scans, curves and grids reject it too, although (1, 0, 0), which
    # holds everywhere, never passes their bound
    config = Configuration((2,))
    model = builtin_model("singlet")
    readers = (
        from_hrep, numbered_rows,
        lambda h: scan_violations(h, model, parse_angles("0,1", config)),
        lambda h: sample_violation_curve(h, model, parse_angles("x,1", config), samples=3),
        lambda h: sample_violation_grid(h, model, parse_angles("x,y", config),
                                        samples_x=2, samples_y=2),
    )
    for row in ((1, 0, 0), (Fraction(1, 2), 0, 0), (-3, 0, 0)):
        hrep = HRepresentation(2, ((0, 1, 0), row), config=config)
        for read in readers:
            with pytest.raises(ValueError, match="^inequality needs at least one "
                                                 "nonzero coefficient$"):
                read(hrep)
        # a row outside the range is not read
        assert numbered_rows(hrep, rows=(1, 1)) == [(1, (-1, 0), 0)]
    with pytest.raises(ValueError, match="no configuration attached"):
        numbered_rows(HRepresentation(2, ((0, 1, 0),)))
    with pytest.raises(ValueError, match="empty inequality list"):
        numbered_rows([], URN)


def test_inequality_needs_a_layout():
    # without one, str() used to fail later with an AttributeError
    with pytest.raises(ValueError, match="layout"):
        Inequality((1, 0, 0), 1, None)
    assert str(Inequality((1, 0, 0), 1, URN)) == "a1 <= 1"


def test_round_trip_random_inequalities():
    rng = random.Random(4242)
    for config in (URN, Configuration.uniform(2, 2), Configuration.uniform(2, 3)):
        n = event_count(config)
        for _ in range(400):
            coeffs = tuple(rng.randint(-5, 5) for _ in range(n))
            if not any(coeffs):
                continue
            q = Inequality(coeffs, rng.randint(-4, 4), config)
            assert parse_text(to_text(q), config) == q


def test_reembedded_rows_keep_solution_set(hull_2_2, config_2_2):
    ineqs = from_hrep(hull_2_2)
    back = HRepresentation(
        dimension=hull_2_2.dimension,
        rows=tuple(q.to_hrow() for q in ineqs),
        config=config_2_2,
    )
    rng = random.Random(11)
    verts = truth_table(config_2_2).vertices
    for v in verts:
        assert contains(back, v) == contains(hull_2_2, v)
    from fractions import Fraction

    for _ in range(50):
        pt = tuple(Fraction(rng.randint(-4, 8), 4) for _ in range(8))
        assert contains(back, pt) == contains(hull_2_2, pt)
