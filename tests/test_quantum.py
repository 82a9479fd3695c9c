import math
import random
import tracemalloc
from array import array
from dataclasses import replace
from fractions import Fraction

import pytest

from corrpoly import (
    AngleAssignment,
    Configuration,
    HRepresentation,
    Inequality,
    ProbabilityModel,
    ProbabilityVector,
    builtin_model,
    contains,
    enumerate_events,
    from_hrep,
    hull,
    parse_angles,
    parse_text,
    probability_vector,
    sample_violation_curve,
    sample_violation_grid,
    scan_probability_vector,
    scan_violations,
    to_text,
    truth_table,
)
from corrpoly.core import CapacityError, ParseError
from corrpoly.inequalities import numbered_rows
from corrpoly.io import format_polyhedra_file, parse_polyhedra_file
from corrpoly.quantum import (
    MAX_POINTS,
    VIOLATION_EPS,
    _linspace,
    _singlet_pair,
    _spans,
    parse_angle_expression,
)

C22 = Configuration.uniform(2, 2)
C23 = Configuration.uniform(2, 3)
C32 = Configuration.uniform(3, 2)

# angles reproducing the pair probabilities (3/8, 0, 3/8, 3/8)
CH_ANGLES = "0,2pi/3;-2pi/3,0"


def test_builtin_singlet_values():
    m = builtin_model("singlet")
    assert m.probability((0.3,)) == 0.5
    assert m.probability((-math.pi / 3, math.pi / 3)) == pytest.approx(3 / 8)
    assert m.probability((1.234, 1.234)) == 0.0


def test_builtin_ghz3_values():
    m = builtin_model("ghz3")
    assert m.probability((0.1,)) == 0.5
    assert m.probability((0.1, 0.2)) == 0.25
    assert m.probability((0, math.pi / 2, math.pi / 2)) == pytest.approx(1 / 8)
    assert m.probability((0.0, 0.0, 0.0)) == pytest.approx(1 / 8)


def test_builtin_uniform_is_product_measure():
    m = builtin_model("uniform")
    for k in range(1, 6):
        assert m.probability((0.0,) * k) == 0.5**k


def test_unknown_model_and_missing_arity():
    with pytest.raises(ValueError):
        builtin_model("bogus")
    singlet = builtin_model("singlet")
    assert repr(singlet) == "ProbabilityModel('singlet')"
    with pytest.raises(ValueError):
        singlet.probability((1.0, 2.0, 3.0))


def test_model_outputs_stay_probabilities():
    # 100k random angle tuples across the stock models
    rng = random.Random(31)
    models = [builtin_model(n) for n in ("singlet", "ghz3", "uniform")]
    for _ in range(12500):
        for m in models:
            for k in (1, 2, 3):
                if k not in m.functions and m.default is None:
                    continue
                angles = tuple(rng.uniform(-10, 10) for _ in range(k))
                p = m.probability(angles)
                assert 0.0 <= p <= 1.0
                if m.name == "singlet" and k == 2:
                    assert p <= 0.5 + 1e-12  # never above its marginal


def test_probability_vector_ch_angles():
    angles = parse_angles(CH_ANGLES, C22)
    vec = probability_vector(builtin_model("singlet"), angles)
    expected = (0.5, 0.5, 0.5, 0.5, 3 / 8, 0.0, 3 / 8, 3 / 8)
    assert tuple(vec) == pytest.approx(expected, abs=1e-12)


def test_probability_vector_uniform_2_2():
    angles = AngleAssignment.constant(C22, ((0.0, 1.0), (2.0, 3.0)))
    vec = probability_vector(builtin_model("uniform"), angles)
    assert tuple(vec) == (0.5, 0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25)


def test_probability_vector_ghz3_zero_angles():
    angles = AngleAssignment.constant(C32, ((0, 0), (0, 0), (0, 0)))
    vec = tuple(probability_vector(builtin_model("ghz3"), angles))
    assert vec[:6] == (0.5,) * 6
    assert vec[6:18] == (0.25,) * 12
    assert vec[18:] == pytest.approx((1 / 8,) * 8)


def test_probability_vector_free_variable_errors():
    angles = parse_angles("x,0;0,0", C22)
    with pytest.raises(ValueError, match="free variable x; pass x="):
        probability_vector(builtin_model("singlet"), angles)
    with pytest.raises(ValueError, match="free variable y; pass y="):
        probability_vector(builtin_model("singlet"), parse_angles("0,0;y,0", C22))
    vec = probability_vector(builtin_model("singlet"), angles, x=0.5)
    assert len(vec) == 8


def test_scan_violations_ch(hull_2_2):
    reports = scan_violations(
        hull_2_2, builtin_model("singlet"), angles=parse_angles(CH_ANGLES, C22)
    )
    assert len(reports) == 1
    assert reports[0].amount == pytest.approx(1 / 8, abs=1e-9)
    assert to_text(reports[0].inequality) == (
        "a1b1 - a1b2 - a2 + a2b1 + a2b2 - b1 <= 0"
    )


def test_scan_exact_rational_vector(hull_2_2):
    pinned = ProbabilityVector(
        (Fraction(1, 2),) * 4
        + (Fraction(3, 8), Fraction(0), Fraction(3, 8), Fraction(3, 8)),
        C22,
    )
    reports = scan_probability_vector(hull_2_2, pinned)
    assert len(reports) == 1
    assert reports[0].amount == Fraction(1, 8)


def test_scan_uniform_model_never_violates(hull_2_2, hull_2_3):
    uniform = builtin_model("uniform")
    for config, h in ((C22, hull_2_2), (C23, hull_2_3)):
        angles = AngleAssignment.constant(
            config, tuple((0.0,) * m for m in config.settings)
        )
        assert scan_violations(h, uniform, angles=angles) == []
        vec = probability_vector(uniform, angles)
        exact = ProbabilityVector(
            tuple(Fraction(v).limit_denominator(2**10) for v in vec), config
        )
        assert contains(h, tuple(exact))


def test_scan_threshold_is_monotone(hull_2_3):
    angles = parse_angles("0,2pi/3,4pi/3;0,2pi/3,4pi/3", C23)
    model = builtin_model("singlet")
    all_reports = scan_violations(hull_2_3, model, angles=angles)
    strong = scan_violations(hull_2_3, model, angles=angles, threshold=0.2)
    assert {r.row for r in strong} <= {r.row for r in all_reports}
    assert all(r.amount > 0.2 for r in strong)


def test_scan_row_range(hull_2_2):
    angles = parse_angles(CH_ANGLES, C22)
    model = builtin_model("singlet")
    full = scan_violations(hull_2_2, model, angles=angles)
    row = full[0].row
    assert scan_violations(hull_2_2, model, angles=angles, rows=(row, row)) == full
    assert scan_violations(hull_2_2, model, angles=angles, rows=(1, row - 1)) == []
    with pytest.raises(ValueError):
        scan_violations(hull_2_2, model, angles=angles, rows=(0, 5))
    with pytest.raises(ValueError):
        scan_violations(hull_2_2, model, angles=angles, rows=(1, 99))


def test_scan_results_sorted(hull_2_3):
    angles = parse_angles("0,2pi/3,4pi/3;0,2pi/3,4pi/3", C23)
    reports = scan_violations(hull_2_3, builtin_model("singlet"), angles=angles)
    amounts = [r.amount for r in reports]
    assert amounts == sorted(amounts, reverse=True)


# ------------------------------------------------------------------ sampling

PLOT_INEQ_TEXT = "-a1b1 + a1b2 + a2 - a2b1 - a2b2 + b1 <= 1"


def worked_curve(x):
    # independent closed form for the worked single-variable example:
    # angles a = (-pi/3 + x, 0), b = (0, 2x)
    s = math.sin
    return (
        0.5 * s((-math.pi / 3 - x) / 2) ** 2
        - 0.5 * s(x) ** 2
        - 0.5 * s((-math.pi / 3 + x) / 2) ** 2
    )


def row_of(hrep, text, config):
    """1-based row number of an inequality given in text form."""
    target = parse_text(text, config)
    return next(
        i + 1
        for i, q in zip(hrep.inequality_indices, from_hrep(hrep))
        if q == target
    )


def angles_at(assignment, x=0.0, y=0.0):
    """Freeze an assignment's free variables to concrete values."""
    return AngleAssignment.constant(
        assignment.config,
        tuple(
            tuple(expr.evaluate(x, y) for expr in row)
            for row in assignment.angles
        ),
    )


def test_curve_matches_worked_form(hull_2_2):
    row = row_of(hull_2_2, PLOT_INEQ_TEXT, C22)
    angles = parse_angles("-pi/3+x,0;0,2x", C22)
    curves = sample_violation_curve(
        hull_2_2,
        builtin_model("singlet"),
        angles=angles,
        x_range=(0.0, math.pi),
        samples=41,
        rows=(row, row),
    )
    assert len(curves) == 1
    curve = curves[0]
    for x, value in zip(curve.xs, curve.values):
        assert value == pytest.approx(worked_curve(x), abs=1e-12)


def test_curve_max_consistent_with_scan(hull_2_2):
    angles = parse_angles("-pi/3+x,0;0,2x", C22)
    model = builtin_model("singlet")
    curves = sample_violation_curve(
        hull_2_2, model, angles=angles, x_range=(0.0, math.pi), samples=81
    )
    assert curves
    for curve in curves:
        best = max(range(len(curve.xs)), key=lambda i: curve.values[i])
        x_star = curve.xs[best]
        reports = scan_violations(
            hull_2_2,
            model,
            angles=angles_at(angles, x_star),
            rows=(curve.row, curve.row),
        )
        assert reports and reports[0].amount == pytest.approx(
            curve.values[best], abs=1e-12
        )


def test_curve_rejects_second_variable(hull_2_2):
    with pytest.raises(ValueError):
        sample_violation_curve(
            hull_2_2,
            builtin_model("singlet"),
            angles=parse_angles("x,0;0,y", C22),
        )


def test_curve_empty_range(hull_2_2):
    with pytest.raises(ValueError):
        sample_violation_curve(
            hull_2_2,
            builtin_model("singlet"),
            angles=parse_angles("x,0;0,0", C22),
            x_range=(1.0, 1.0),
        )


def test_curve_range_that_is_not_finite(hull_2_2):
    # An infinite bound, or a width that overflows, would sample the model
    # at inf or nan; the range is refused before any model call.
    for x_range in ((0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308)):
        with pytest.raises(ValueError, match=r"range \[.*\] is empty or not finite"):
            sample_violation_curve(hull_2_2, builtin_model("singlet"),
                                   angles=parse_angles("x,0;0,0", C22), x_range=x_range)
    with pytest.raises(ValueError, match="not finite"):
        sample_violation_grid(hull_2_2, builtin_model("singlet"),
                              angles=parse_angles("x,0;0,y", C22), y_range=(0.0, math.inf))


def test_grid_matches_worked_form(hull_2_2):
    row = row_of(hull_2_2, PLOT_INEQ_TEXT, C22)
    # this inequality only ever touches zero at these angles, so force its
    # inclusion with a negative threshold to compare sampled values
    grids = sample_violation_grid(
        hull_2_2,
        builtin_model("singlet"),
        angles=parse_angles("x,0;0,y", C22),
        x_range=(0.0, math.pi),
        y_range=(0.0, math.pi),
        samples_x=13,
        samples_y=11,
        rows=(row, row),
        threshold=-10.0,
    )
    assert len(grids) == 1
    grid = grids[0]
    s = math.sin
    for iy, y in enumerate(grid.ys):
        for ix, x in enumerate(grid.xs):
            expected = (
                0.5 * s((x - y) / 2) ** 2
                - 0.5 * s(x / 2) ** 2
                - 0.5 * s(y / 2) ** 2
            )
            got = grid.values[iy * len(grid.xs) + ix]
            assert got == pytest.approx(expected, abs=1e-12)
    assert max(grid.values) == pytest.approx(0.0, abs=1e-12)


def test_grid_symmetry_and_diagonal(hull_2_2):
    angles = parse_angles("x,0;0,y", C22)
    model = builtin_model("singlet")
    grids = sample_violation_grid(
        hull_2_2, model, angles=angles,
        x_range=(0.0, math.pi), y_range=(0.0, math.pi),
        samples_x=9, samples_y=9,
    )
    assert grids
    for grid in grids:
        # diagonal of the grid equals pointwise evaluation with y = x
        n = len(grid.xs)
        for i, x in enumerate(grid.xs):
            direct = probability_vector(model, angles, x=x, y=x)
            ineq = grid.inequality
            f = sum(c * p for c, p in zip(ineq.coefficients, direct)) - ineq.rhs
            assert grid.values[i * n + i] == pytest.approx(f, abs=1e-12)


def event_order_value(ineq, vec):
    """``sum(c_e p_e) - rhs`` over the nonzero terms, one event at a time."""
    return sum(c * p for c, p in zip(ineq.coefficients, vec) if c) - ineq.rhs


def edge_thresholds(top):
    """``(drop, keep)``: the lowest threshold at which a row whose largest
    value is ``top`` is not reported (``top > drop + VIOLATION_EPS`` is
    false) and the next float below it, at which the row is reported."""
    t = top - VIOLATION_EPS
    up = top > t + VIOLATION_EPS  # t keeps the row: walk up to the first drop
    while (top > t + VIOLATION_EPS) == up:
        t = math.nextafter(t, math.inf if up else -math.inf)
    return (t, math.nextafter(t, -math.inf)) if up else (math.nextafter(t, math.inf), t)


def assert_edges(sample, rows, vectors, floor=-math.inf):
    """Group the rows by their largest value over ``vectors`` under the
    event-order oracle.  ``sample(group, t)`` gives ``(inequality, values)``
    pairs: none at the group's drop threshold, and at its keep threshold
    every row of the group with exactly the oracle's values (``repr`` tells
    -0.0 from 0.0 and a ``Fraction`` from a float)."""
    groups = {}
    for ineq in rows:
        values = [event_order_value(ineq, v) for v in vectors]
        groups.setdefault(max(values), []).append((ineq, list(map(repr, values))))
    for top, group in groups.items():
        drop, keep = edge_thresholds(top)
        if keep < floor:
            continue
        ineqs = [ineq for ineq, _ in group]
        assert sample(ineqs, drop) == [], top
        got = [(ineq, list(map(repr, values))) for ineq, values in sample(ineqs, keep)]
        assert got == group, top
    return groups


def test_grid_and_curve_bit_identical_to_event_order_loop(hull_2_3):
    model = builtin_model("singlet")
    angles = parse_angles("x,0,2pi/3;0,y,4pi/3", C23)
    grids = sample_violation_grid(hull_2_3, model, angles=angles,
                                  samples_x=9, samples_y=7, threshold=-100.0)
    assert len(grids) == 684
    vectors = [probability_vector(model, angles, x=x, y=y)
               for y in grids[0].ys for x in grids[0].xs]
    for grid in grids:
        expected = [event_order_value(grid.inequality, v) for v in vectors]
        # float.hex tells -0.0 from 0.0, which == would not
        assert [v.hex() for v in grid.values] == [e.hex() for e in expected]

    # On both sides of each row's maximum, the rows reported are exactly
    # those the oracle keeps, with its values, although most rows are
    # skipped unsummed; most rows have negative coefficients.
    rows = from_hrep(hull_2_3, C23)
    assert sum(min(q.coefficients) < 0 for q in rows) > 600
    for name in ("singlet", "uniform"):
        model = builtin_model(name)
        vectors = [probability_vector(model, angles, x=x, y=y)
                   for y in grids[0].ys for x in grids[0].xs]
        tops = assert_edges(
            lambda ineqs, t: [(g.inequality, g.values) for g in sample_violation_grid(
                ineqs, model, angles=angles, samples_x=9, samples_y=7, threshold=t)],
            rows, vectors)
        assert len(tops) > {"singlet": 200, "uniform": 2}[name]  # distinct maxima

    model = builtin_model("singlet")
    angles = parse_angles("x,0,2pi/3;0,2pi/3,4pi/3", C23)
    curves = sample_violation_curve(hull_2_3, model, angles=angles,
                                    samples=17, threshold=-100.0)
    assert len(curves) == 684
    vectors = [probability_vector(model, angles, x=x) for x in curves[0].xs]
    for curve in curves:
        expected = [event_order_value(curve.inequality, v) for v in vectors]
        assert [v.hex() for v in curve.values] == [e.hex() for e in expected]
    assert_edges(
        lambda ineqs, t: [(c.inequality, c.values) for c in sample_violation_curve(
            ineqs, model, angles=angles, samples=17, threshold=t)],
        rows, vectors)

    # One vector, floats and exact; scans take only nonnegative thresholds.
    floats = probability_vector(model, parse_angles("0,2pi/3,4pi/3;0,2pi/3,4pi/3", C23))
    exact = ProbabilityVector(tuple(Fraction(round(8 * p), 8) for p in floats), C23)
    for vec in (floats, exact):
        tops = assert_edges(
            lambda ineqs, t: [(r.inequality, [r.amount])
                              for r in scan_probability_vector(ineqs, vec, threshold=t)],
            rows, [vec], floor=0.0)
        assert sum(len(tops[top]) for top in tops if top > 0) == 12


def exact_singlet(a):
    """The singlet law rounded to eighths, as ``Fraction`` values."""
    return Fraction(1, 2) if len(a) == 1 else Fraction(round(8 * _singlet_pair(a)), 8)


MODELS = {"singlet": builtin_model("singlet"), "uniform": builtin_model("uniform"),
          "exact": ProbabilityModel("exact", {}, default=exact_singlet)}


@pytest.mark.parametrize("name", MODELS)
def test_tiled_grid_and_curve_match_the_oracle_at_every_edge(hull_2_3, name):
    # 13 and 11 samples cut into 3 uneven tiles per axis, 41 into 6 runs
    assert [b - a for a, b in _spans(13)] == [4, 4, 5]
    assert [b - a for a, b in _spans(11)] == [3, 4, 4]
    assert [b - a for a, b in _spans(41)] == [6, 7, 7, 7, 7, 7]
    model = MODELS[name]
    # every third row for the exact law, whose Fraction sums are slow
    rows = from_hrep(hull_2_3, C23)[::3 if name == "exact" else 1]
    angles = parse_angles("x,0,2pi/3;0,y,4pi/3", C23)
    grid = dict(angles=angles, samples_x=13, samples_y=11)
    vectors = [probability_vector(model, angles, x=x, y=y)
               for y in _linspace(0.0, math.pi, 11) for x in _linspace(0.0, math.pi, 13)]
    tops = assert_edges(
        lambda ineqs, t: [(g.inequality, g.values) for g in sample_violation_grid(
            ineqs, model, threshold=t, **grid)],
        rows, vectors)
    assert len(tops) > {"singlet": 200, "uniform": 2, "exact": 10}[name]  # distinct maxima
    assert (max(tops) > 0) == (name != "uniform")  # the product measure violates nothing

    angles = parse_angles("x,0,2pi/3;0,2pi/3,4pi/3", C23)
    assert_edges(
        lambda ineqs, t: [(c.inequality, c.values) for c in sample_violation_curve(
            ineqs, model, angles=angles, samples=41, threshold=t)],
        rows, [probability_vector(model, angles, x=x) for x in _linspace(0.0, math.pi, 41)])


def needle(at):
    """Pairs 3/4 at the angle tuple ``at``, 1/4 elsewhere; singles 1/2."""
    return ProbabilityModel("needle", {1: lambda a: 0.5},
                            default=lambda a: 0.75 if a == at else 0.25)


def test_a_needle_inside_one_tile_is_found():
    # 2 p - 1 is 1/2 at the needle and -1/2 at every other point, so the
    # row passes the bound of one tile alone.  13 samples make 3 tiles per
    # axis, (0, 4), (4, 8) and (8, 13); (5, 6) lies inside the middle one.
    grid_angles = parse_angles("x,0;0,y", C22)  # event a1b2 sees (x, y)
    curve_angles = parse_angles("x,0;0,0", C22)  # event a1b1 sees (x, 0)
    xs = _linspace(0.0, math.pi, 13)
    for ix, iy in ((5, 6), (0, 0), (12, 12), (4, 3), (7, 11)):
        model = needle((xs[ix], xs[iy]))
        row = parse_text("2 a1b2 <= 1", C22)
        vectors = [probability_vector(model, grid_angles, x=x, y=y) for y in xs for x in xs]
        tops = assert_edges(
            lambda ineqs, t: [(g.inequality, g.values) for g in sample_violation_grid(
                ineqs, model, angles=grid_angles, samples_x=13, samples_y=13, threshold=t)],
            [row], vectors)
        assert list(tops) == [0.5]
        model = needle((xs[ix], 0.0))
        row = parse_text("2 a1b1 <= 1", C22)
        vectors = [probability_vector(model, curve_angles, x=x) for x in xs]
        tops = assert_edges(
            lambda ineqs, t: [(c.inequality, c.values) for c in sample_violation_curve(
                ineqs, model, angles=curve_angles, samples=13, threshold=t)],
            [row], vectors)
        assert list(tops) == [0.5]


def test_sample_count_above_the_cap_is_a_capacity_error(hull_2_2):
    def law(a):
        raise AssertionError("a point was evaluated")

    refuse = ProbabilityModel("refuse", {}, default=law)
    grid = parse_angles("x,0;0,y", C22)
    with pytest.raises(CapacityError, match="65537 sample points exceed the cap of 65536"):
        sample_violation_curve(hull_2_2, refuse, angles=parse_angles("x,0;0,0", C22),
                               samples=MAX_POINTS + 1)
    with pytest.raises(CapacityError, match="66049 sample points"):
        sample_violation_grid(hull_2_2, refuse, angles=grid, samples_x=257, samples_y=257)
    with pytest.raises(CapacityError):
        sample_violation_grid(hull_2_2, refuse, angles=grid, samples_x=2, samples_y=10**15)
    with pytest.raises(AssertionError):
        sample_violation_grid(hull_2_2, refuse, angles=grid, samples_x=256, samples_y=256)


def test_a_count_below_two_is_refused_before_any_axis_is_built(hull_2_2):
    def law(a):
        raise AssertionError("a point was evaluated")

    refuse = ProbabilityModel("refuse", {}, default=law)
    grid = parse_angles("x,0;0,y", C22)
    tracemalloc.start()
    try:
        # a negative count makes the product pass the cap
        for counts in ((2**20, -1), (-1, 2**20), (2**20, 1), (0, 0)):
            with pytest.raises(ValueError, match="need at least 2 samples"):
                sample_violation_grid(hull_2_2, refuse, angles=grid,
                                      samples_x=counts[0], samples_y=counts[1])
        for samples in (-1, 0, 1):
            with pytest.raises(ValueError, match="need at least 2 samples"):
                sample_violation_curve(hull_2_2, refuse, angles=parse_angles("x,0;0,0", C22),
                                       samples=samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # an x axis of 2**20 floats alone takes about 40 MB


def test_model_called_once_per_distinct_angle_tuple(hull_2_3):
    angles = parse_angles("x,0,2pi/3;0,y,4pi/3", C23)
    singlet = builtin_model("singlet")
    calls = []

    def law(a):
        calls.append(a)
        return singlet.probability(a)

    grid = dict(angles=angles, samples_x=41, samples_y=41)
    got = sample_violation_grid(hull_2_3, ProbabilityModel("counting", {}, default=law), **grid)
    want = sample_violation_grid(hull_2_3, singlet, **grid)
    assert [(g.row, g.values) for g in got] == [(g.row, g.values) for g in want]
    xs, ys = got[0].xs, got[0].ys
    assert xs == ys
    tuples = {
        tuple(angles.angles[p][s].evaluate(x, y) for p, s in zip(ev.particles, ev.choices))
        for ev in enumerate_events(C23) for y in ys for x in xs
    }
    assert len(calls) == len(set(calls)) == len(tuples)
    assert set(calls) == tuples
    # Singles: the 41 grid values (0 among them), 2pi/3 and 4pi/3.  Pairs:
    # (x, y), (x, 4pi/3), (2pi/3, y) and (2pi/3, 4pi/3); the other five
    # pairs, such as (x, 0) and (0, 4pi/3), repeat tuples of those four.
    assert len(tuples) == (41 + 2) + (41 * 41 + 41 + 41 + 1)  # against 15 * 41 * 41


class Refused(Exception):
    pass


def refusing(bad):
    """Singles 1/2 and pairs 1/4, but an error at any angle equal to ``bad``."""
    def law(a):
        if bad in a:
            raise Refused(a)
        return 0.5 ** len(a)
    return ProbabilityModel("refusing", {}, default=law)


def test_law_errors_propagate_from_every_evaluation(hull_2_3):
    step = math.pi / 40  # a 41-point grid over [0, pi]
    with pytest.raises(Refused):
        sample_violation_grid(hull_2_3, refusing(7 * step),
                              angles=parse_angles("x,0,2pi/3;0,y,4pi/3", C23))
    with pytest.raises(Refused):
        sample_violation_curve(hull_2_3, refusing(math.pi / 16 * 5), samples=17,
                               angles=parse_angles("x,0,2pi/3;0,2pi/3,4pi/3", C23))
    with pytest.raises(Refused):
        scan_violations(hull_2_3, refusing(2.5), angles=parse_angles("0,1,2;0,2.5,3", C23))
    # the same laws away from the refused angle
    assert sample_violation_grid(hull_2_3, refusing(-1.0),
                                 angles=parse_angles("x,0,2pi/3;0,y,4pi/3", C23)) == []


def test_law_outside_the_unit_interval_is_rejected():
    two = ProbabilityModel("two", {}, default=lambda a: 2.0)
    with pytest.raises(ValueError, match=r"model 'two' produced probability 2.0 "
                                         r"outside \[0, 1\]"):
        probability_vector(two, parse_angles("0,0;0,0", C22))


def test_exact_vector_gives_exact_amounts(hull_2_3):
    # singlet at the symmetric setting: pairs 0 on equal settings, else 3/8
    floats = probability_vector(
        builtin_model("singlet"),
        parse_angles("0,2pi/3,4pi/3;0,2pi/3,4pi/3", C23),
    )
    exact = ProbabilityVector(tuple(Fraction(round(8 * p), 8) for p in floats), C23)
    reports = scan_probability_vector(hull_2_3, exact)
    assert all(type(r.amount) is Fraction for r in reports)
    assert sorted(r.amount for r in reports) == [Fraction(1, 8)] * 6 + [Fraction(1, 4)] * 6


def test_exact_law_keeps_fractions_at_zero_and_one():
    # singles 1, pairs 0: both ends of [0, 1], where a float clamp would bite
    law = ProbabilityModel("exact", {}, default=lambda a: Fraction(len(a) % 2))
    vec = probability_vector(law, parse_angles("0,1;0,1", C22))
    assert vec.values == (1,) * 4 + (0,) * 4
    assert all(type(p) is Fraction for p in vec.values)


#: Exact laws on 2x3: ``Fraction`` values, float singles with ``Fraction``
#: pairs, and the 0/1 int law of singles 1 and pairs 0.
EXACT_LAWS = {
    "fraction": ProbabilityModel("fraction", {}, default=exact_singlet),
    "mixed": ProbabilityModel("mixed", {1: lambda a: 0.5, 2: exact_singlet}),
    "int": ProbabilityModel("int", {}, default=lambda a: len(a) % 2),
}
#: Grid and curve angles on 2x3.
GRID_2_3, CURVE_2_3 = "x,0,2pi/3;0,y,4pi/3", "x,0,2pi/3;0,2pi/3,4pi/3"


def sampled(hrep, model, grid_angles=GRID_2_3, curve_angles=CURVE_2_3, **kwargs):
    """``(sample, vectors)`` pairs: a 5x4 grid and a 6-sample curve of
    every selected row, each with the probability vectors at its points."""
    grid = parse_angles(grid_angles, hrep.config)
    curve = parse_angles(curve_angles, hrep.config)
    grids = sample_violation_grid(hrep, model, angles=grid, samples_x=5, samples_y=4,
                                  threshold=-10.0, **kwargs)
    curves = sample_violation_curve(hrep, model, angles=curve, samples=6,
                                    threshold=-10.0, **kwargs)
    xs, ys = _linspace(0.0, math.pi, 5), _linspace(0.0, math.pi, 4)
    at_grid = [probability_vector(model, grid, x=x, y=y) for y in ys for x in xs]
    at_curve = [probability_vector(model, curve, x=x) for x in _linspace(0.0, math.pi, 6)]
    return [(g, at_grid) for g in grids] + [(c, at_curve) for c in curves]


def test_float_laws_give_packed_doubles(hull_2_3):
    # an array('d') of the summed doubles, 8 bytes a value
    ghz = hull(truth_table(Configuration.uniform(3, 1)))
    for hrep, name, angles in ((hull_2_3, "singlet", ()), (hull_2_3, "uniform", ()),
                               (ghz, "ghz3", ("x;y;pi/3", "x;0;pi/2"))):
        samples = sampled(hrep, builtin_model(name), *angles)
        assert len(samples) == 2 * len(hrep.inequality_indices), name
        for sample, vectors in samples:
            assert type(sample.values) is array and sample.values.typecode == "d", name
            assert len(sample.values) == len(vectors)
        with pytest.raises(TypeError, match="unhashable"):
            hash(samples[0][0])


@pytest.mark.parametrize("name", EXACT_LAWS)
def test_exact_laws_keep_tuples_of_the_summed_values(hull_2_3, name):
    # each value as the event-order sum gives it: Fraction, int, or float
    # where a float single meets a Fraction pair
    samples = sampled(hull_2_3, EXACT_LAWS[name], rows=(1, 60))
    assert len(samples) == 2 * 60
    for sample, vectors in samples:
        assert type(sample.values) is tuple
        want = [event_order_value(sample.inequality, v) for v in vectors]
        assert list(map(repr, sample.values)) == list(map(repr, want))
    kinds = {type(v) for sample, _ in samples for v in sample.values}
    assert kinds == {"fraction": {Fraction}, "mixed": {Fraction, float}, "int": {int}}[name]


def test_grid_peak_memory_stays_below_five_megabytes(hull_2_3):
    # The 41x41 singlet contour of the benchmark keeps 94 rows of 1,681
    # values; as boxed floats in tuples the traced peak was 7.2 MB.
    angles = parse_angles(GRID_2_3, C23)
    model = builtin_model("singlet")
    tracemalloc.start()
    try:
        grids = sample_violation_grid(hull_2_3, model, angles=angles,
                                      samples_x=41, samples_y=41)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grids) == 94
    assert peak < 5e6


def test_scaled_rows_give_the_same_reports(hull_2_3):
    # The facets times 3, and halved as p/q tokens, are the same
    # inequalities: bounded only once normalised, they give == reports,
    # curves and grids with the same row numbers, at a negative cut too,
    # within a range and around linearity rows, which keep their numbers.
    model = builtin_model("singlet")
    scan_angles = [parse_angles(text, C23) for text in (SYMMETRIC_2_3, "0.3,1.9,4;2.2,0.1,5.5")]
    curve_angles = parse_angles("x,2pi/3,4pi/3;0,2pi/3,4pi/3", C23)
    grid_angles = parse_angles("x,0,2pi/3;0,y,4pi/3", C23)
    for linearity in (frozenset(), frozenset({0, 5, 17, 400})):
        plain = replace(hull_2_3, linearity=linearity)
        scaled = [replace(s, linearity=linearity) for s in scaled_sources(hull_2_3.rows)]
        for rows in (None, (100, 600)):
            lo, hi = rows or (1, len(hull_2_3.rows))
            assert [i for i, _, _ in numbered_rows(plain, rows=rows)] == [
                i for i in range(lo, hi + 1) if i - 1 not in linearity]
            for t in (0.0, -0.5):
                readers = [
                    lambda s: sample_violation_curve(s, model, curve_angles, samples=9,
                                                     rows=rows, threshold=t),
                    lambda s: sample_violation_grid(s, model, grid_angles, samples_x=5,
                                                    samples_y=4, rows=rows, threshold=t),
                ]
                if t == 0:  # scans take no negative threshold
                    readers += [lambda s, a=a: scan_violations(s, model, a, rows)
                                for a in scan_angles]
                for read in readers:
                    want = read(plain)
                    assert want and all(lo <= w.row <= hi and w.row - 1 not in linearity
                                        for w in want)
                    assert all(read(source) == want for source in scaled)


def test_positive_cut_bounds_integer_multiples_as_read(hull_2_3, monkeypatch):
    # Above a positive cut an integer row s >= 1 times its primitive row is
    # bounded as read, without a gcd per row; a row halved as p/q tokens is
    # normalised first, and below a negative cut every row's gcd is taken.
    # Either way the facets scaled by 2, 5 and 7, and halved, give ==
    # reports and grids to the facets themselves.
    model = builtin_model("singlet")
    scaled = [replace(hull_2_3, rows=tuple(tuple(s * v for v in r) for r in hull_2_3.rows))
              for s in (2, 5, 7)]
    halved = replace(hull_2_3, rows=tuple(tuple(Fraction(v, 2) for v in r)
                                          for r in hull_2_3.rows))
    read_halved = parse_polyhedra_file(format_polyhedra_file(halved))
    assert read_halved.rows == halved.rows
    sources = [*scaled, read_halved]
    gcd, calls = math.gcd, []
    monkeypatch.setattr(math, "gcd", lambda *a: calls.append(a) or gcd(*a))
    reported = 0
    for text in (SYMMETRIC_2_3, "0.3,1.9,4;2.2,0.1,5.5"):
        angles = parse_angles(text, C23)
        for t in (0.0, 1e-9, 0.1):
            want = scan_violations(hull_2_3, model, angles, threshold=t)
            for source in sources:
                calls.clear()
                assert scan_violations(source, model, angles, threshold=t) == want
                if source is not read_halved:  # a gcd per row that passes, not per row
                    assert len(calls) < len(hull_2_3.rows) / 4
            reported += len(want)
    assert reported > 24
    angles = parse_angles("x,0,2pi/3;0,y,4pi/3", C23)

    def grid(source):
        return sample_violation_grid(source, model, angles, samples_x=5, samples_y=4,
                                     threshold=-0.5)

    want = grid(hull_2_3)
    assert len(want) > 100
    for source in sources:
        calls.clear()
        assert grid(source) == want
        assert len(calls) >= len(hull_2_3.rows)


SYMMETRIC_2_3 = "0,2pi/3,4pi/3;0,2pi/3,4pi/3"


def random_rows(seed, count):
    """Seeded 2x3 rows: coefficients in -9..9, zeros included, and a random rhs."""
    rng = random.Random(seed)
    events = len(list(enumerate_events(C23)))
    rows = []
    while len(rows) < count:
        coefficients = [rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(events)]
        if any(coefficients):
            rows.append(Inequality(tuple(coefficients), rng.randint(-8, 8), C23))
    return rows


def scaled_sources(rows):
    """``rows`` (``Inequality`` objects or H-rows) as two H-representations
    of the same inequalities: every row times 3, and every row halved,
    written and read back through its ``p/q`` tokens."""
    rows = [q.to_hrow() if isinstance(q, Inequality) else q for q in rows]
    tripled = HRepresentation(len(rows[0]) - 1, tuple(tuple(3 * v for v in r) for r in rows),
                              config=C23)
    text = format_polyhedra_file(replace(tripled, rows=tuple(
        tuple(Fraction(v, 2) for v in r) for r in rows)))
    assert "/2 " in text
    return tripled, parse_polyhedra_file(text)


def on_scaled_rows(sample):
    """``sample`` on a list of inequalities, after checking that it gives
    ``==`` results on the ``scaled_sources`` of the list."""
    def run(ineqs, t):
        got = sample(ineqs, t)
        assert all(sample(source, t) == got for source in scaled_sources(ineqs))
        return got
    return run


def test_random_rows_match_the_oracle_at_every_edge():
    # Many rows share a coefficient on an event, so the first-box bound
    # reads most of its terms from entries an earlier row filled.  Each
    # sample is checked on the rows scaled by 3 and by 1/2 too, at every
    # edge: an integer row is bounded as read at a positive cut, and at any
    # other only when it is primitive; a Fraction row is normalised first.
    rows = random_rows(3501, 60)
    assert sum(c == 0 for q in rows for c in q.coefficients) > 100
    model = builtin_model("singlet")
    floats = probability_vector(model, parse_angles("0.3,1.9,4;2.2,0.1,5.5", C23))
    exact = ProbabilityVector(tuple(Fraction(round(8 * p), 8) for p in floats), C23)
    for vec in (floats, exact):
        scan = on_scaled_rows(lambda source, t: scan_probability_vector(source, vec, threshold=t))
        tops = assert_edges(
            lambda ineqs, t: [(r.inequality, [r.amount]) for r in scan(ineqs, t)],
            rows, [vec], floor=0.0)
        assert sum(len(group) for top, group in tops.items() if top > 0) > 10

    angles = parse_angles("x,0,2pi/3;0,2pi/3,4pi/3", C23)
    curves = on_scaled_rows(lambda source, t: sample_violation_curve(
        source, model, angles=angles, samples=17, threshold=t))
    assert_edges(
        lambda ineqs, t: [(c.inequality, c.values) for c in curves(ineqs, t)],
        rows, [probability_vector(model, angles, x=x) for x in _linspace(0.0, math.pi, 17)])

    # 13 x 11 samples make 3 x 3 tiles
    angles = parse_angles("x,0,2pi/3;0,y,4pi/3", C23)
    grids = on_scaled_rows(lambda source, t: sample_violation_grid(
        source, model, angles=angles, samples_x=13, samples_y=11, threshold=t))
    tops = assert_edges(
        lambda ineqs, t: [(g.inequality, g.values) for g in grids(ineqs, t)],
        rows, [probability_vector(model, angles, x=x, y=y)
               for y in _linspace(0.0, math.pi, 11) for x in _linspace(0.0, math.pi, 13)])
    assert min(tops) < 0 < max(tops)


def test_back_to_back_scans_use_their_own_extremes():
    # At equal angles every pair has probability 0, so a row violated at
    # the symmetric setting alone would be missed if the second scan read
    # bounds left over from the first.
    rows = random_rows(3502, 80)
    model = builtin_model("singlet")
    reported = []
    for text in ("0,0,0;0,0,0", SYMMETRIC_2_3):
        vec = probability_vector(model, parse_angles(text, C23))
        want = [(i, repr(v)) for i, q in enumerate(rows, 1)
                if (v := event_order_value(q, vec)) > VIOLATION_EPS]
        got = sorted((r.row, repr(r.amount)) for r in scan_probability_vector(rows, vec))
        assert got == want
        reported.append({i for i, _ in got})
    assert reported[0] and reported[1] - reported[0]


def test_scans_read_rows_without_from_hrep(hull_2_3, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("from_hrep called on a scan path")

    monkeypatch.setattr("corrpoly.quantum.from_hrep", refuse)
    monkeypatch.setattr("corrpoly.inequalities.from_hrep", refuse)
    built = []
    post_init = Inequality.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Inequality, "__post_init__", counting)
    model = builtin_model("singlet")
    reports = scan_violations(hull_2_3, model, angles=parse_angles(SYMMETRIC_2_3, C23))
    assert len(reports) == 12 and len(built) == 12
    assert [r.inequality for r in sorted(reports, key=lambda r: r.row)] == built
    curves = sample_violation_curve(hull_2_3, model, samples=5,
                                    angles=parse_angles("x,2pi/3,4pi/3;0,2pi/3,4pi/3", C23))
    grids = sample_violation_grid(hull_2_3, model, samples_x=4, samples_y=3,
                                  angles=parse_angles("x,0,2pi/3;0,y,4pi/3", C23))
    assert curves and grids and len(built) == 12 + len(curves) + len(grids)


def numbered_inequalities(source):
    """``(row, inequality)`` pairs of a source, the H-representation's by ``from_hrep``."""
    if isinstance(source, HRepresentation):
        return list(zip((i + 1 for i in source.inequality_indices), from_hrep(source, C23)))
    return list(enumerate(source, 1))


def oracle_reports(numbered, vec, rows=None, threshold=0.0):
    """``(row, inequality, amount.hex())`` of an event-order loop, sorted as scans sort."""
    found = []
    for row, q in numbered:
        if rows is None or rows[0] <= row <= rows[1]:
            value = event_order_value(q, vec.values)
            if value > threshold + VIOLATION_EPS:
                found.append((row, q, value))
    found.sort(key=lambda t: (-t[2], t[0]))
    return [(row, q, value.hex()) for row, q, value in found]


def test_row_triples_match_event_order_loop(hull_2_3):
    rows = hull_2_3.rows
    tripled = tuple(tuple(3 * v for v in row) for row in rows)
    halved = tuple(tuple(Fraction(v, 2) for v in row) for row in rows)
    mixed = tuple(tuple(Fraction(v, 2) if i % 3 else v for i, v in enumerate(row))
                  for row in tripled)
    sources = [HRepresentation(hull_2_3.dimension, r, config=C23)
               for r in (rows, tripled, halved, mixed, tripled[:300] + halved[300:])]
    # linearity rows are skipped but keep their numbers
    sources.append(HRepresentation(hull_2_3.dimension, rows,
                                   frozenset({0, 5, 17, 400}), config=C23))
    sources.append(from_hrep(hull_2_3))
    numbered = [numbered_inequalities(source) for source in sources]
    model = builtin_model("singlet")
    rng = random.Random(1601)
    settings = [SYMMETRIC_2_3] + [
        ";".join(",".join(repr(rng.uniform(0, 2 * math.pi)) for _ in range(3))
                 for _ in range(2))
        for _ in range(2)
    ]
    seen = 0
    for text in settings:
        angles = parse_angles(text, C23)
        vec = probability_vector(model, angles)
        for source, pairs in zip(sources, numbered):
            for rows_range in (None, (100, 600)):
                want = oracle_reports(pairs, vec, rows_range)
                got = [(r.row, r.inequality, r.amount.hex()) for r in scan_violations(
                    source, model, angles=angles, rows=rows_range)]
                assert got == want
                seen += len(got)
        # a negative threshold keeps rows that only the bound could skip
        for source, pairs in list(zip(sources, numbered))[::3]:
            got = [(r.row, r.inequality, r.amount.hex())
                   for r in scan_probability_vector(source, vec)]
            assert got == oracle_reports(pairs, vec)
            curves = sample_violation_curve(source, model, angles=angles, samples=2,
                                            x_range=(0.0, 1.0), threshold=-0.25)
            want = sorted(oracle_reports(pairs, vec, threshold=-0.25), key=lambda t: t[0])
            assert [(c.row, c.inequality, c.values[0].hex()) for c in curves] == want
    assert seen > 100


def test_inequality_list_from_another_layout_is_rejected(hull_2_2, hull_2_3):
    facets_2_2 = from_hrep(hull_2_2)
    model = builtin_model("singlet")
    vec = probability_vector(model, parse_angles(SYMMETRIC_2_3, C23))
    match = r"layout 2,2 \(8 events\).* 3,3 \(15 events\)"
    with pytest.raises(ValueError, match=match):
        scan_probability_vector(facets_2_2, vec)
    with pytest.raises(ValueError, match=match):
        scan_violations(facets_2_2, model, angles=parse_angles(SYMMETRIC_2_3, C23))
    with pytest.raises(ValueError, match=match):
        sample_violation_curve(facets_2_2, model, samples=3,
                               angles=parse_angles("x,2pi/3,4pi/3;0,2pi/3,4pi/3", C23))
    with pytest.raises(ValueError, match=match):
        sample_violation_grid(facets_2_2, model, samples_x=3, samples_y=3,
                              angles=parse_angles("x,0,2pi/3;0,y,4pi/3", C23))
    # one stray row in an otherwise matching list is found too
    mixed = from_hrep(hull_2_3)[:5] + facets_2_2[:1]
    with pytest.raises(ValueError, match="inequality 6 is over the layout 2,2"):
        scan_probability_vector(mixed, vec)
    with pytest.raises(ValueError, match="15 events but the H-representation has dimension 8"):
        scan_probability_vector(hull_2_2, vec)


def test_layout_rule_is_one_for_lists_and_h_representations(hull_2_3):
    # 3,3 and 1,1,1,1 both have 15 events: a source's own layout wins, and
    # one over another layout is rejected, as a list and as an H-representation
    four = Configuration((1, 1, 1, 1))
    model = builtin_model("uniform")
    angles = parse_angles("0;0;0;0", four)
    vec = probability_vector(model, angles)
    for source, name in ((hull_2_3, "the H-representation"),
                         (from_hrep(hull_2_3), "inequality 1")):
        match = rf"^{name} is over the layout 3,3 \(15 events\), not 1,1,1,1 \(15 events\)$"
        with pytest.raises(ValueError, match=match):
            scan_violations(source, model, angles=angles)
        with pytest.raises(ValueError, match=match):
            scan_probability_vector(source, vec)
        with pytest.raises(ValueError, match=match):
            sample_violation_curve(source, model, samples=3,
                                   angles=parse_angles("x;0;0;0", four))
        with pytest.raises(ValueError, match=match):
            sample_violation_grid(source, model, samples_x=3, samples_y=3,
                                  angles=parse_angles("x;y;0;0", four))
    with pytest.raises(ValueError, match="the H-representation is over the layout 3,3"):
        from_hrep(hull_2_3, four)
    # a layout-less H-representation takes the angles' layout, and
    # dataclasses.replace relabels one
    bare = replace(hull_2_3, config=None)
    relabelled = replace(hull_2_3, config=four)
    curves = sample_violation_curve(bare, model, angles=angles, samples=2, threshold=-10.0)
    assert len(curves) == 684 and {c.inequality.config for c in curves} == {four}
    assert curves == sample_violation_curve(relabelled, model, angles=angles, samples=2,
                                            threshold=-10.0)
    assert from_hrep(bare, four) == from_hrep(relabelled) == [
        Inequality(q.coefficients, q.rhs, four) for q in from_hrep(hull_2_3)]
    with pytest.raises(ValueError, match="no configuration attached"):
        from_hrep(bare)


def test_negative_zero_terms_sum_to_positive_zero():
    # equal angles make p_a1b1 = p_a2b2 = 0.0, so every term is -1 * 0.0
    ineq = parse_text("-a1b1 - a2b2 <= 0", C22)
    curves = sample_violation_curve([ineq], builtin_model("singlet"),
                                    angles=parse_angles("x,0;x,0", C22),
                                    samples=5, threshold=-1.0)
    assert [v.hex() for v in curves[0].values] == [(0.0).hex()] * 5


def test_constant_angles_give_constant_curves(hull_2_2):
    angles = parse_angles(CH_ANGLES, C22)
    curves = sample_violation_curve(
        hull_2_2, builtin_model("singlet"), angles=angles,
        x_range=(0.0, 1.0), samples=5,
    )
    assert len(curves) == 1  # exactly the violated one
    assert curves[0].values == pytest.approx((1 / 8,) * 5)


# ------------------------------------------------------------- angle parsing

@pytest.mark.parametrize(
    "text,value",
    [
        ("0", 0.0),
        ("pi", math.pi),
        ("2pi/3", 2 * math.pi / 3),
        ("-pi/3", -math.pi / 3),
        ("0.5", 0.5),
        ("2*pi/3", 2 * math.pi / 3),
        ("(1+2)/4", 0.75),
        ("pi/2 - pi/2", 0.0),
        ("-" * 198 + "pi", math.pi),
        ("(" * 99 + "-pi" + ")" * 99, -math.pi),
        ("2 pi", 2 * math.pi),
        ("02", 2.0),  # a number is what float() reads, not a Python literal
        (".5pi", 0.5 * math.pi),
        (" 2pi / 3 ", 2 * math.pi / 3),  # whitespace around every token
        ("\t-pi\n", -math.pi),
    ],
)
def test_angle_expression_constants(text, value):
    expr = parse_angle_expression(text)
    assert expr.is_constant
    assert expr.evaluate() == pytest.approx(value, abs=1e-15)


def test_angle_expression_affine():
    expr = parse_angle_expression("-pi/3 + x")
    assert expr.evaluate(x=1.0) == pytest.approx(1 - math.pi / 3)
    expr = parse_angle_expression("2x")
    assert expr.cx == 2.0
    expr = parse_angle_expression("x/2 + 3y")
    assert (expr.cx, expr.cy) == (0.5, 3.0)
    # implied products after a closing parenthesis and before a name
    for text, cx in (("(x)2", 2.0), ("(x) 2", 2.0), ("2.x", 2.0), ("+x", 1.0),
                     ("- -x", 1.0), ("x/2/2", 0.25), ("x - (1 - -x)2", -1.0)):
        expr = parse_angle_expression(text)
        assert (expr.cx, expr.cy) == (cx, 0.0), text


def test_angle_expression_errors():
    # Nesting too deep for a recursive descent is an error, not a crash.
    too_long = ("(" * 300 + "x" + ")" * 300, "-" * 3000 + "1",
                "(" * 100 + "x" + ")" * 100)
    # Beyond the float range: inf, inf from a product, inf * x, inf - inf.
    big, half = "9" * 400, "9" * 200
    not_finite = (big, f"{half}*{half}", f"{big}x", f"{big}-{big}")
    for bad in ("x*y", "x*x", "1/x", "2 +", "(1", "foo", "1//2", "", *too_long,
                "2(x)", "x(2)", "(x)(y)", "()", "1e5", "2**3", "1_0", "0x1f",
                "pi2", "x/0", "x/(1-1)", "1 2", " ", "x,y", *not_finite,
                "\u0663", "\uff13"):  # ARABIC-INDIC and FULLWIDTH digit three
        with pytest.raises(ParseError):
            parse_angle_expression(bad)
    # Grammar the tokens allow but the fold does not: the message quotes the
    # input, not the node Python's parser made of it.
    for bad in ("2(x)", "x(2)", "(x)(y)", "()"):
        with pytest.raises(ParseError) as err:
            parse_angle_expression(bad)
        assert str(err.value) == f"bad angle expression {bad!r}"


def test_parse_angles_shape_checks():
    assignment = parse_angles("0,2pi/3,4pi/3;0,2pi/3,4pi/3", C23)
    assert assignment.angles[0][2].evaluate() == pytest.approx(4 * math.pi / 3)
    assert parse_angles(" 0, 2pi/3 ,4pi/3 ;0,2pi/3,4pi/3 ", C23) == assignment
    with pytest.raises(ParseError):
        parse_angles("0,1;0", C22)
    with pytest.raises(ParseError):
        parse_angles("0,1", C22)


def test_inequality_evaluate_refuses_another_layout_or_length(hull_2_2):
    # zip would stop at the shorter side and return a number for any vector.
    ch = from_hrep(hull_2_2)[0]
    singlet_2_3 = probability_vector(builtin_model("singlet"), parse_angles(SYMMETRIC_2_3, C23))
    with pytest.raises(ValueError, match="layout"):
        ch.evaluate(singlet_2_3)
    for values in ((0.5,), (0.5,) * 9, ()):
        with pytest.raises(ValueError, match="probabilities for 8 events"):
            ch.evaluate(values)
    # a vector over the layout, or its values as a plain list, still evaluates
    half = ProbabilityVector((Fraction(1, 2),) * 8, C22)
    assert ch.evaluate(half) == ch.evaluate(list(half.values))


def test_inequality_evaluate_matches_scan_amounts(hull_2_2, hull_2_3):
    # Inequality.evaluate is the oracle of the benchmark's answer gates: on
    # every row it must agree with the scan about violation and amount.
    half = Fraction(1, 2)
    # exact: singles 1/2, three pairs 1/2 and a2b2 = 0 break CH by 1/2
    box = ProbabilityVector((half,) * 4 + (half, half, half, Fraction(0)), C22)
    rng = random.Random(1902)
    exact = [ProbabilityVector(tuple(Fraction(rng.randint(0, 8), 8) for _ in range(8)), C22)
             for _ in range(20)]
    floats = probability_vector(builtin_model("singlet"), parse_angles(SYMMETRIC_2_3, C23))
    kept = 0
    for hrep, vec in [(hull_2_2, box), (hull_2_3, floats)] + [(hull_2_2, v) for v in exact]:
        facets = from_hrep(hrep)
        reports = scan_probability_vector(hrep, vec)
        assert {r.row for r in reports} == {
            i for i, q in enumerate(facets, 1) if q.evaluate(vec) > VIOLATION_EPS}
        for r in reports:
            assert r.inequality == facets[r.row - 1]
            if vec is floats:
                assert r.amount == pytest.approx(r.inequality.evaluate(vec), abs=1e-12)
            else:
                assert r.amount == r.inequality.evaluate(vec)
                assert isinstance(r.amount, Fraction)
        kept += len(reports)
    assert [r.amount for r in scan_probability_vector(hull_2_2, box)] == [half]
    assert len(scan_probability_vector(hull_2_3, floats)) == 12
    assert kept > 40


@pytest.mark.parametrize("angles", ["x,0;0,0", "0,0;y,0"])
def test_scan_violations_needs_concrete_angles(hull_2_2, angles):
    # scan_violations takes no x or y, so the message must not ask for them
    with pytest.raises(ValueError, match="violation scans need concrete angles"):
        scan_violations(hull_2_2, builtin_model("singlet"), parse_angles(angles, C22))
