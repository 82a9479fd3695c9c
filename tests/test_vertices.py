import pytest

from corrpoly import CapacityError, Configuration, truth_table, vertex_for_assignment

URN = Configuration((1, 1))

# canonical row order: the first proposition's bit varies fastest
URN_ROWS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1))


def test_urn_truth_table():
    assert truth_table(URN).vertices == URN_ROWS


def test_vertex_for_assignment_2_2():
    config = Configuration.uniform(2, 2)
    row = vertex_for_assignment(config, (1, 0, 1, 0))
    assert row == (1, 0, 1, 0, 1, 0, 0, 0)
    assert vertex_for_assignment(config, (0, 0, 0, 0)) == (0,) * 8
    assert vertex_for_assignment(config, (1, 1, 1, 1)) == (1,) * 8


def test_vertex_for_assignment_errors():
    config = Configuration.uniform(2, 2)
    with pytest.raises(ValueError):
        vertex_for_assignment(config, (1, 0, 1))
    with pytest.raises(ValueError):
        vertex_for_assignment(config, (1, 0, 1, 2))


def test_truth_table_2_2_rows():
    table = [
        (0, 0, 0, 0, 0, 0, 0, 0),
        (1, 0, 0, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0, 0, 0),
        (1, 1, 0, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0, 0, 0),
        (1, 0, 1, 0, 1, 0, 0, 0),
        (0, 1, 1, 0, 0, 0, 1, 0),
        (1, 1, 1, 0, 1, 0, 1, 0),
        (0, 0, 0, 1, 0, 0, 0, 0),
        (1, 0, 0, 1, 0, 1, 0, 0),
        (0, 1, 0, 1, 0, 0, 0, 1),
        (1, 1, 0, 1, 0, 1, 0, 1),
        (0, 0, 1, 1, 0, 0, 0, 0),
        (1, 0, 1, 1, 1, 1, 0, 0),
        (0, 1, 1, 1, 0, 0, 1, 1),
        (1, 1, 1, 1, 1, 1, 1, 1),
    ]
    # columns a1 a2 b1 b2 a1b1 a1b2 a2b1 a2b2 (canonical order)
    assert list(truth_table(Configuration.uniform(2, 2)).vertices) == table


def test_truth_table_2_3_row_order_and_extremes():
    vrep = truth_table(Configuration.uniform(2, 3))
    rows = vrep.vertices
    assert len(rows) == 64
    assert vrep.dimension == 15
    assert rows[0] == (0,) * 15
    assert rows[1] == (1,) + (0,) * 14  # a1 varies fastest
    assert rows[2][:6] == (0, 1, 0, 0, 0, 0)
    # row for a1=1, b1=1 sits at index 9 = binary 001001
    assert rows[9][:6] == (1, 0, 0, 1, 0, 0)
    assert rows[9][6] == 1 and sum(rows[9]) == 3
    assert rows[-1] == (1,) * 15


def test_rows_distinct_and_projection_bijective():
    for config in (Configuration.uniform(2, 2), Configuration((2, 1, 2))):
        vrep = truth_table(config)
        k = sum(config.settings)
        assert len(vrep.vertices) == 2**k
        singles = {row[:k] for row in vrep.vertices}
        assert len(singles) == 2**k  # single-event block enumerates all bits


def test_joint_coordinates_are_products():
    from corrpoly.core import enumerate_events

    for config in (Configuration.uniform(3, 2), Configuration((3, 2))):
        events = enumerate_events(config)
        single_pos = {
            (ev.particles[0], ev.choices[0]): i
            for i, ev in enumerate(events)
            if ev.arity == 1
        }
        for row in truth_table(config).vertices:
            for i, ev in enumerate(events):
                expected = 1
                for p, s in zip(ev.particles, ev.choices):
                    expected &= row[single_pos[(p, s)]]
                assert row[i] == expected


def test_all_zero_and_all_one_present():
    vrep = truth_table(Configuration((2, 2)))
    assert (0,) * vrep.dimension in vrep.vertices
    assert (1,) * vrep.dimension in vrep.vertices


def test_vertex_cap():
    with pytest.raises(CapacityError):
        truth_table(Configuration.uniform(2, 3), max_rows=32)
    # override allows it
    assert len(truth_table(Configuration.uniform(2, 3), max_rows=64).vertices) == 64
    # a negative cap is a bad argument, as DDPair.insert's negative ray cap
    with pytest.raises(ValueError, match="vertex cap must be non-negative, got -1"):
        truth_table(URN, max_rows=-1)
