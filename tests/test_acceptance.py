"""Acceptance suite: one test (and one printed verdict line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``; add ``--extended`` for
the multi-hour three-particle hull.
"""

import random
import time
from fractions import Fraction

import pytest

from corrpoly import (
    Configuration,
    HRepresentation,
    ProbabilityVector,
    VRepresentation,
    builtin_model,
    contains,
    enumerate_events,
    enumerate_vertices,
    from_hrep,
    hull,
    parse_angles,
    parse_text,
    probability_vector,
    read_ext,
    read_ine,
    scan_probability_vector,
    scan_violations,
    truth_table,
    verify_facet,
    write_ext,
    write_ine,
)
from corrpoly.polyhedra import DDPair
from oracles import brute_force_cone
from test_polyhedra import cone_signature

URN = Configuration((1, 1))
C22 = Configuration.uniform(2, 2)
C23 = Configuration.uniform(2, 3)
C32 = Configuration.uniform(3, 2)


def verdict(criterion, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: PASS{suffix}")


# criterion 1 ---------------------------------------------------------------

URN_FACETS = {
    (0, 0, 0, 1),       # p12 >= 0
    (0, 1, 0, -1),      # p1 - p12 >= 0
    (0, 0, 1, -1),      # p2 - p12 >= 0
    (1, -1, -1, 1),     # 1 - p1 - p2 + p12 >= 0
}


def test_criterion_1_urn_facets():
    start = time.perf_counter()
    h = hull(truth_table(URN))
    elapsed = time.perf_counter() - start
    assert set(h.rows) == URN_FACETS
    assert not h.linearity
    assert elapsed < 1.0
    verdict("criterion 1 (urn facets)", f"4 facets exact, {elapsed:.3f}s")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated expectation is unattainable: 3/5 + 18/25 - 8/25 equals 1 "
        "exactly, so the point lies on the p1 + p2 - p12 <= 1 facet and "
        "closed-polytope membership accepts it (see notes/decisions ledger); "
        "only floating-point roundoff makes it look exterior"
    ),
)
def test_criterion_1_urn_point_rejected():
    h = hull(truth_table(URN))
    point = (Fraction(3, 5), Fraction(18, 25), Fraction(8, 25))
    print(
        "ACCEPTANCE criterion 1 (point rejection): FAIL expected -- the "
        "point lies exactly on a facet, membership is true"
    )
    assert contains(h, point) is False


def test_criterion_1_urn_point_is_boundary_not_interior():
    # pin the actual geometry: the point sits on exactly one facet
    h = hull(truth_table(URN))
    point = (Fraction(3, 5), Fraction(18, 25), Fraction(8, 25))
    assert contains(h, point)
    tight = [
        row for row in h.rows
        if row[0] + sum(a * x for a, x in zip(row[1:], point)) == 0
    ]
    assert tight == [(1, -1, -1, 1)]
    # its classical decomposition: weights 0, 2/5, 7/25, 8/25 over the rows
    weights = (Fraction(0), Fraction(2, 5), Fraction(7, 25), Fraction(8, 25))
    verts = truth_table(URN).vertices  # (0,0,0), (1,0,0), (0,1,0), (1,1,1)
    mix = tuple(
        sum(w * Fraction(v[i]) for w, v in zip(weights, (verts[0], verts[2], verts[1], verts[3])))
        for i in range(3)
    )
    assert mix == point and sum(weights) == 1


# criterion 2 ---------------------------------------------------------------

# frozen output of tests/oracles.py brute_force_facets on the 16 truth-table
# vertices: 16 nonnegativity/monotonicity/union bounds plus 8 nontrivial rows
FROZEN_2_2_FACETS = [
    "-a1 + a1b1 + a1b2 + a2b1 - a2b2 - b1 <= 0",
    "-a1 + a1b1 + a1b2 - a2b1 + a2b2 - b2 <= 0",
    "-a1 + a1b1 <= 0",
    "-a1 + a1b2 <= 0",
    "-a1b1 + a1b2 + a2 - a2b1 - a2b2 + b1 <= 1",
    "-a1b1 + a1b2 - a2 + a2b1 + a2b2 - b2 <= 0",
    "-a1b1 <= 0",
    "-a1b2 <= 0",
    "-a2 + a2b1 <= 0",
    "-a2 + a2b2 <= 0",
    "-a2b1 <= 0",
    "-a2b2 <= 0",
    "a1 - a1b1 + b1 <= 1",
    "a1 - a1b1 - a1b2 + a2b1 - a2b2 + b2 <= 1",
    "a1 - a1b1 - a1b2 - a2b1 + a2b2 + b1 <= 1",
    "a1 - a1b2 + b2 <= 1",
    "a1b1 - a1b2 + a2 - a2b1 - a2b2 + b2 <= 1",
    "a1b1 - a1b2 - a2 + a2b1 + a2b2 - b1 <= 0",
    "a1b1 - b1 <= 0",
    "a1b2 - b2 <= 0",
    "a2 - a2b1 + b1 <= 1",
    "a2 - a2b2 + b2 <= 1",
    "a2b1 - b1 <= 0",
    "a2b2 - b2 <= 0",
]

# the Clauser-Horne inequalities in double-bounded form; each contributes
# its upper bound and, negated, the lower bound
CH_UPPER = [
    "a1b1 + a1b2 + a2b2 - a2b1 - a1 - b2 <= 0",
    "a2b1 + a2b2 + a1b2 - a1b1 - a2 - b2 <= 0",
    "a1b2 + a1b1 + a2b1 - a2b2 - a1 - b1 <= 0",
    "a2b2 + a2b1 + a1b1 - a1b2 - a2 - b1 <= 0",
]
CH_LOWER = [
    "-a1b1 - a1b2 - a2b2 + a2b1 + a1 + b2 <= 1",
    "-a2b1 - a2b2 - a1b2 + a1b1 + a2 + b2 <= 1",
    "-a1b2 - a1b1 - a2b1 + a2b2 + a1 + b1 <= 1",
    "-a2b2 - a2b1 - a1b1 + a1b2 + a2 + b1 <= 1",
]

# the trivial facet families over all setting pairs (i, j)
def trivial_2_2_facets():
    out = []
    for i in (1, 2):
        for j in (1, 2):
            out.append(f"-a{i}b{j} <= 0")
            out.append(f"a{i}b{j} - a{i} <= 0")
            out.append(f"a{i}b{j} - b{j} <= 0")
            out.append(f"a{i} + b{j} - a{i}b{j} <= 1")
    return out


def test_criterion_2_two_by_two_facets(hull_2_2):
    start = time.perf_counter()
    h = hull(truth_table(C22))
    elapsed = time.perf_counter() - start
    assert h.rows == hull_2_2.rows

    ineqs = set(from_hrep(h))
    assert len(h.rows) == 24 and not h.linearity

    frozen = {parse_text(text, C22) for text in FROZEN_2_2_FACETS}
    assert ineqs == frozen

    ch = {parse_text(t, C22) for t in CH_UPPER + CH_LOWER}
    assert len(ch) == 8
    assert ch <= ineqs

    trivial = {parse_text(t, C22) for t in trivial_2_2_facets()}
    assert len(trivial) == 16
    assert trivial <= ineqs
    assert ch | trivial == ineqs

    assert elapsed < 5.0
    verdict(
        "criterion 2 (2x2 polytope)",
        f"24 facets = 16 trivial + 8 nontrivial, {elapsed:.3f}s",
    )


# criterion 3 ---------------------------------------------------------------

def test_criterion_3_two_by_three_facet_count():
    start = time.perf_counter()
    h = hull(truth_table(C23))
    elapsed = time.perf_counter() - start
    assert len(h.rows) == 684
    assert not h.linearity
    assert elapsed < 600.0
    verdict("criterion 3 (2x3 polytope)", f"684 facets, {elapsed:.1f}s")


# criterion 4 ---------------------------------------------------------------

FIRST_3_2_INEQ = (
    "-3 a1 + 2 a1b1 + a1b1c1 - 4 a1b1c2 + 3 a1b2 - 3 a1b2c1 - a1b2c2"
    " + a1c1 + 3 a1c2 + 2 a2b1 - 2 a2b1c1 - a2b1c2 - 2 a2b2 + a2b2c1"
    " + 3 a2b2c2 + a2c1 - a2c2 - 2 b1 + b1c1 + 2 b1c2 + b2c1 - 2 b2c2"
    " - c1 <= 0"
)


def test_criterion_4_three_particle_facet_check():
    ineq = parse_text(FIRST_3_2_INEQ, C32)
    vrep = truth_table(C32)
    start = time.perf_counter()
    report = verify_facet(ineq.to_hrow(), vrep)
    elapsed = time.perf_counter() - start
    assert report.valid and report.is_facet
    assert elapsed < 1.0
    verdict(
        "criterion 4 (3x2 facet spot check)",
        f"valid facet, tight on {report.tight_count} vertices, {elapsed:.3f}s",
    )


@pytest.mark.extended
def test_criterion_4_three_particle_full_hull(tmp_path):
    start = time.perf_counter()
    h = hull(truth_table(C32))
    elapsed = time.perf_counter() - start
    assert len(h.rows) == 53856
    assert not h.linearity
    # the .ine reader and writer on a file ~80x the largest tier-1 input
    assert read_ine(write_ine(h, tmp_path / "3_2")).rows == h.rows
    verdict("criterion 4 (3x2 full hull)", f"53856 facets, {elapsed:.0f}s")


# criterion 5 ---------------------------------------------------------------

def test_criterion_5_ch_violation(hull_2_2):
    angles = parse_angles("0,2pi/3;-2pi/3,0", C22)
    vec = probability_vector(builtin_model("singlet"), angles)
    assert tuple(vec) == pytest.approx(
        (0.5, 0.5, 0.5, 0.5, 3 / 8, 0.0, 3 / 8, 3 / 8), abs=1e-12
    )
    reports = scan_violations(hull_2_2, builtin_model("singlet"), angles=angles)
    assert len(reports) == 1
    assert abs(reports[0].amount - 1 / 8) <= 1e-9

    pinned = ProbabilityVector(
        (Fraction(1, 2),) * 4
        + (Fraction(3, 8), Fraction(0), Fraction(3, 8), Fraction(3, 8)),
        C22,
    )
    exact = scan_probability_vector(hull_2_2, pinned)
    assert len(exact) == 1 and exact[0].amount == Fraction(1, 8)
    verdict(
        "criterion 5 (singlet violation)",
        f"one violated row, amount {reports[0].amount}",
    )


# criterion 6 ---------------------------------------------------------------

EXPECTED_2_3_QUARTER = [
    "-a1 - a1b1 + a1b2 + a1b3 - a2 + a2b1 + a2b3 + a3b1 + a3b2 - a3b3 - b1 - b2 <= 0",
    "-a1 - a1b1 + a1b2 + a1b3 + a2b1 - a2b2 + a2b3 - a3 + a3b1 + a3b2 - b1 - b3 <= 0",
    "-a1 + a1b2 + a1b3 - a2 + a2b1 - a2b2 + a2b3 + a3b1 + a3b2 - a3b3 - b1 - b2 <= 0",
    "-a1b1 + a1b2 + a1b3 - a2 + a2b1 - a2b2 + a2b3 - a3 + a3b1 + a3b2 - b2 - b3 <= 0",
    "-a1 + a1b2 + a1b3 + a2b1 - a2b2 + a2b3 - a3 + a3b1 + a3b2 - a3b3 - b1 - b3 <= 0",
    "-a1b1 + a1b2 + a1b3 - a2 + a2b1 + a2b3 - a3 + a3b1 + a3b2 - a3b3 - b2 - b3 <= 0",
]
EXPECTED_2_3_EIGHTH = [
    "-a1 + a1b2 + a1b3 - a2b2 + a2b3 - b3 <= 0",
    "-a1b1 + a1b3 - a2 + a2b1 + a2b3 - b3 <= 0",
    "-a1b1 + a1b2 - a3 + a3b1 + a3b2 - b2 <= 0",
    "-a1 + a1b2 + a1b3 + a3b2 - a3b3 - b2 <= 0",
    "a2b1 - a2b2 - a3 + a3b1 + a3b2 - b1 <= 0",
    "-a2 + a2b1 + a2b3 + a3b1 - a3b3 - b1 <= 0",
]

# the same three-setting labels apply to both particles
VIOLATION_ANGLES_2_3 = "0,2pi/3,4pi/3;0,2pi/3,4pi/3"


def test_criterion_6_two_by_three_scan(hull_2_3):
    angles = parse_angles(VIOLATION_ANGLES_2_3, C23)
    reports = scan_violations(hull_2_3, builtin_model("singlet"), angles=angles)
    assert len(reports) == 12
    quarter = [r for r in reports if abs(r.amount - 0.25) <= 1e-9]
    eighth = [r for r in reports if abs(r.amount - 0.125) <= 1e-9]
    assert len(quarter) == 6 and len(eighth) == 6

    assert {r.inequality for r in quarter} == {
        parse_text(t, C23) for t in EXPECTED_2_3_QUARTER
    }
    assert {r.inequality for r in eighth} == {
        parse_text(t, C23) for t in EXPECTED_2_3_EIGHTH
    }
    verdict("criterion 6 (2x3 scan)", "12 rows: six 1/4, six 1/8")


# criterion 7 ---------------------------------------------------------------

def test_criterion_7_three_particle_spot_violation():
    ineq = parse_text(FIRST_3_2_INEQ, C32)
    report = verify_facet(ineq.to_hrow(), truth_table(C32))
    assert report.valid and report.is_facet
    angles = parse_angles("0,pi/2;0,pi/2;0,pi/2", C32)
    reports = scan_violations([ineq], builtin_model("ghz3"), angles=angles)
    assert len(reports) == 1
    assert abs(reports[0].amount - 0.5) <= 1e-9
    verdict(
        "criterion 7 (3x2 spot violation)", f"amount {reports[0].amount:.9f}"
    )


# criterion 8 ---------------------------------------------------------------

def test_criterion_8_vertex_enumeration():
    system = HRepresentation(
        dimension=3,
        rows=(
            (2, -1, 0, 0),
            (2, 0, -1, 0),
            (-1, 1, 0, 0),
            (-1, 0, 1, 0),
            (-1, 0, 0, 1),
            (4, -1, -1, 0),
        ),
    )
    start = time.perf_counter()
    v = enumerate_vertices(system)
    elapsed = time.perf_counter() - start
    assert set(v.vertices) == {(2, 1, 1), (1, 1, 1), (1, 2, 1), (2, 2, 1)}
    assert v.rays == ((0, 0, 1),)
    assert elapsed < 1.0
    verdict(
        "criterion 8 (vertex enumeration)",
        f"4 vertices + 1 ray, {elapsed:.3f}s",
    )


# criterion 9: always-on property suites -------------------------------------

def test_criterion_9a_dd_vs_brute_force():
    rng = random.Random(90210)
    for _ in range(500):
        dim = rng.randint(2, 5)
        rows = [
            tuple(rng.randint(-3, 3) for _ in range(dim))
            for _ in range(rng.randint(1, 10))
        ]
        rows = [r for r in rows if any(r)]
        pair = DDPair(dim)
        for r in rows:
            pair.insert(r)
        assert cone_signature(pair) == brute_force_cone(rows, dim), rows
    verdict("criterion 9a (cone oracle)", "500 random cones")


def test_criterion_9b_roundtrip_identity():
    for settings in ((1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)):
        tt = truth_table(Configuration(settings))
        back = enumerate_vertices(hull(tt))
        assert set(back.vertices) == set(tt.vertices)
        assert not back.rays

    rng = random.Random(31415)
    done = 0
    while done < 100:
        d = rng.randint(1, 6)
        count = rng.randint(1, min(2**d, 12))
        verts = list({
            tuple(rng.randint(0, 1) for _ in range(d)) for _ in range(count)
        })
        vrep = VRepresentation(d, tuple(verts))
        back = enumerate_vertices(hull(vrep))
        assert set(back.vertices) == set(verts), verts
        assert not back.rays
        done += 1
    verdict("criterion 9b (V-H-V identity)", "small layouts + 100 random 0/1 polytopes")


def test_criterion_9c_insertion_order_independence():
    for settings in ((1, 1), (2, 1), (2, 2)):
        tt = truth_table(Configuration(settings))
        reference = hull(tt, order="lexmin")
        for seed in range(5):
            h = hull(tt, order=f"random:{seed}")
            assert h.rows == reference.rows
            assert h.linearity == reference.linearity
    verdict("criterion 9c (order independence)", "lexmin vs 5 random orders")


def test_criterion_9c_enum_insertion_order_independence():
    orders = ["lexmin", "support"] + [f"random:{seed}" for seed in range(5)]
    for settings in ((1, 1), (2, 1), (2, 2), (2, 3)):
        h = hull(truth_table(Configuration(settings)))
        reference = enumerate_vertices(h, order="given")
        for order in orders:
            assert enumerate_vertices(h, order=order) == reference, order
    # exact-rank adjacency cross-check on (2, 3) under the default order
    assert enumerate_vertices(h, debug=True) == reference
    verdict("criterion 9c (enum order independence)",
            "given vs lexmin, support and 5 random orders")


def test_criterion_9d_uniform_model_inside_hull(hull_2_2, hull_2_3):
    uniform = builtin_model("uniform")
    for config, h in ((C22, hull_2_2), (C23, hull_2_3)):
        exact = tuple(
            Fraction(1, 2**ev.arity) for ev in enumerate_events(config)
        )
        assert contains(h, exact)
        assert scan_probability_vector(h, ProbabilityVector(exact, config)) == []
    verdict("criterion 9d (uniform model inside)", "2x2 and 2x3 hulls")


def test_criterion_9e_file_round_trips(tmp_path):
    from test_io import random_hrep, random_vrep

    rng = random.Random(60601)
    for i in range(100):
        vrep = random_vrep(rng)
        back = read_ext(write_ext(vrep, tmp_path / f"v{i}"))
        assert set(back.vertices) == set(vrep.vertices)
        assert set(back.rays) == set(vrep.rays)
    for i in range(100):
        hrep = random_hrep(rng)
        back = read_ine(write_ine(hrep, tmp_path / f"h{i}"))
        assert [tuple(r) for r in back.rows] == [tuple(r) for r in hrep.rows]
        assert back.linearity == hrep.linearity
    verdict("criterion 9e (file round trips)", "200 random representations")
