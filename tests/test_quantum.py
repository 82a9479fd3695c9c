import math
import random
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
    parse_angles,
    parse_text,
    probability_vector,
    sample_violation_curve,
    sample_violation_grid,
    scan_probability_vector,
    scan_violations,
    to_text,
)
from corrpoly.core import ParseError
from corrpoly.quantum import VIOLATION_EPS, parse_angle_expression

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
    with pytest.raises(ValueError):
        probability_vector(builtin_model("singlet"), angles)
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


def test_scaled_rows_give_the_same_reports(hull_2_3):
    # a row times 3 is the same inequality, read without clear_to_int
    scaled = HRepresentation(hull_2_3.dimension,
                             tuple(tuple(3 * v for v in row) for row in hull_2_3.rows),
                             config=hull_2_3.config)
    model = builtin_model("singlet")
    for text in ("0,2pi/3,4pi/3;0,2pi/3,4pi/3", "0.3,1.9,4;2.2,0.1,5.5"):
        angles = parse_angles(text, C23)
        want = scan_violations(hull_2_3, model, angles=angles)
        got = scan_violations(scaled, model, angles=angles)
        assert want and [(r.row, r.inequality, r.amount) for r in got] == [
            (r.row, r.inequality, r.amount) for r in want]


SYMMETRIC_2_3 = "0,2pi/3,4pi/3;0,2pi/3,4pi/3"


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


def test_parse_angles_shape_checks():
    assignment = parse_angles("0,2pi/3,4pi/3;0,2pi/3,4pi/3", C23)
    assert assignment.angles[0][2].evaluate() == pytest.approx(4 * math.pi / 3)
    assert parse_angles(" 0, 2pi/3 ,4pi/3 ;0,2pi/3,4pi/3 ", C23) == assignment
    with pytest.raises(ParseError):
        parse_angles("0,1;0", C22)
    with pytest.raises(ParseError):
        parse_angles("0,1", C22)
