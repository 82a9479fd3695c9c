import random
from fractions import Fraction

import pytest

from corrpoly import Configuration, EventLabel, enumerate_events, event_count
from corrpoly.core import (
    ParseError,
    ProbabilityVector,
    format_number,
    parse_count,
    parse_number,
)


def labels(config):
    return [ev.label() for ev in enumerate_events(config)]


def test_event_order_2_2():
    assert labels(Configuration.uniform(2, 2)) == [
        "a1", "a2", "b1", "b2", "a1b1", "a1b2", "a2b1", "a2b2",
    ]


def test_event_order_single():
    assert labels(Configuration.uniform(1, 1)) == ["a1"]


def test_event_order_2_3():
    expected = [
        "a1", "a2", "a3", "b1", "b2", "b3",
        "a1b1", "a1b2", "a1b3", "a2b1", "a2b2", "a2b3",
        "a3b1", "a3b2", "a3b3",
    ]
    assert labels(Configuration.uniform(2, 3)) == expected


def test_event_order_3_2():
    got = labels(Configuration.uniform(3, 2))
    assert len(got) == 26
    assert got[:6] == ["a1", "a2", "b1", "b2", "c1", "c2"]
    assert got[6:10] == ["a1b1", "a1b2", "a2b1", "a2b2"]
    assert got[-8:] == [
        "a1b1c1", "a1b1c2", "a1b2c1", "a1b2c2",
        "a2b1c1", "a2b1c2", "a2b2c1", "a2b2c2",
    ]


@pytest.mark.parametrize(
    "particles,settings,count",
    [(2, 2, 8), (3, 2, 26), (2, 3, 15), (1, 1, 1), (4, 2, 80)],
)
def test_event_count_uniform(particles, settings, count):
    config = Configuration.uniform(particles, settings)
    assert event_count(config) == count
    assert len(enumerate_events(config)) == count


def test_event_count_matches_enumeration_randomized():
    rng = random.Random(20240)
    for _ in range(40):
        n = rng.randint(1, 4)
        config = Configuration(tuple(rng.randint(1, 4) for _ in range(n)))
        events = enumerate_events(config)
        assert len(events) == event_count(config)
        # injective and canonically sorted
        assert len(set(events)) == len(events)
        keys = [(e.arity, e.particles, e.choices) for e in events]
        assert keys == sorted(keys)


def test_joint_support_contains_singles():
    config = Configuration((2, 3, 2))
    events = enumerate_events(config)
    singles = {(ev.particles[0], ev.choices[0]) for ev in events if ev.arity == 1}
    for ev in events:
        for p, s in zip(ev.particles, ev.choices):
            assert (p, s) in singles


def test_non_uniform_configuration():
    config = Configuration((1, 2))
    assert labels(config) == ["a1", "b1", "b2", "a1b1", "a1b2"]
    assert [str(ev) for ev in enumerate_events(config)] == labels(config)
    assert event_count(config) == 5


def test_invalid_configurations():
    with pytest.raises(ValueError):
        Configuration(())
    with pytest.raises(ValueError):
        Configuration((2, 0))
    # Rejected before the 10**12-long settings tuple is built.
    with pytest.raises(ValueError, match="26 particles"):
        Configuration.uniform(10**12, 2)


def test_event_label_validation():
    with pytest.raises(ValueError):
        EventLabel((), ())
    with pytest.raises(ValueError):
        EventLabel((0, 0), (0, 1))  # two settings for one particle
    with pytest.raises(ValueError):
        EventLabel((1, 0), (0, 0))  # support not ascending
    with pytest.raises(ValueError, match="one setting choice per supported particle"):
        EventLabel((0, 1), (0,))


def test_rational_arithmetic_is_exact():
    # cross-multiplication oracle over big random operands
    rng = random.Random(7)
    for _ in range(300):
        a, b = rng.randint(-10**12, 10**12), rng.randint(1, 10**12)
        c, d = rng.randint(-10**12, 10**12), rng.randint(1, 10**12)
        s = Fraction(a, b) + Fraction(c, d)
        assert s.numerator * b * d == (a * d + c * b) * s.denominator
        p = Fraction(a, b) * Fraction(c, d)
        assert p.numerator * b * d == a * c * p.denominator
        # normalization invariants
        for f in (s, p):
            import math
            assert f.denominator > 0
            assert math.gcd(abs(f.numerator), f.denominator) == 1
    assert Fraction(0, 5) == Fraction(0, 1)
    assert Fraction(0).denominator == 1


def test_probability_vector_validation(config_2_2):
    good = ProbabilityVector((0.5,) * 8, config_2_2)
    assert len(good) == 8
    with pytest.raises(ValueError):
        ProbabilityVector((0.5,) * 7, config_2_2)
    with pytest.raises(ValueError):
        ProbabilityVector((0.5,) * 7 + (1.5,), config_2_2)
    with pytest.raises(ValueError, match="layout"):
        ProbabilityVector((0.5,) * 8, None)


@pytest.mark.parametrize(
    "token,value",
    [
        ("3", 3),
        ("-7", -7),
        ("3/5", Fraction(3, 5)),
        ("-4/8", Fraction(-1, 2)),
        ("0.25", Fraction(1, 4)),
        ("2.000E+00", 2),
    ],
)
def test_parse_number(token, value):
    assert parse_number(token) == value


@pytest.mark.parametrize("token", ["1_0", "1_0/3", "0.5_0", "\u0663", "\uff11\uff12", "1\u0663"])
def test_parse_number_rejects_spellings_cdd_does_not_write(token):
    # Python's int and Fraction read underscores and non-ASCII digits
    with pytest.raises(ParseError, match="bad numeric token"):
        parse_number(token)


def test_format_number_round_trip():
    rng = random.Random(99)
    for _ in range(200):
        f = Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
        assert parse_number(format_number(f)) == f


@pytest.mark.parametrize("token", ["0", "7", "007", "12345678901234567890"])
def test_parse_count(token):
    assert parse_count(token) == int(token)


@pytest.mark.parametrize("token",
                         ["", "-1", "+1", " 1", "1_0", "\u0662", "1\u0663", "1.0", "x"])
def test_parse_count_rejects_what_cdd_does_not_write(token):
    # int reads signs, spaces, underscores and non-ASCII digits
    with pytest.raises(ValueError, match="expected a count in ASCII digits"):
        parse_count(token)
