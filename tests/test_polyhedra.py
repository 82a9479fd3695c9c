import random
from fractions import Fraction

import pytest

from corrpoly import (
    CapacityError,
    Configuration,
    DDPair,
    HRepresentation,
    VRepresentation,
    contains,
    enumerate_vertices,
    hull,
    truth_table,
    verify_facet,
)
from oracles import (
    brute_force_cone,
    brute_force_facets,
    frac_rref,
    reduce_mod,
    to_primitive,
)

URN = Configuration((1, 1))

URN_FACETS = {
    (0, 0, 0, 1),       # a1b1 >= 0
    (0, 1, 0, -1),      # a1 - a1b1 >= 0
    (0, 0, 1, -1),      # b1 - a1b1 >= 0
    (1, -1, -1, 1),     # 1 - a1 - b1 + a1b1 >= 0
}


def cone_signature(pair):
    """Canonical (lineality, rays) of a DD state, comparable to the oracle."""
    lin_rref, lin_pivots = frac_rref(pair.lineality) if pair.lineality else ([], [])
    lineality = {to_primitive(r) for r in lin_rref}
    rays = {reduce_mod(r, lin_rref, lin_pivots) for r in pair.rays}
    return lineality, rays


# ---------------------------------------------------------------- DDPair.insert

def test_dd_insert_halfplane():
    pair = DDPair(2)
    pair.insert((1, 0))
    assert cone_signature(pair) == brute_force_cone([(1, 0)], 2)
    # x >= 0 turns one lineality direction into the ray (1, 0)
    assert pair.rays == [(1, 0)] and len(pair.lineality) == 1


def test_dd_insert_redundant_row_keeps_generators():
    pair = DDPair(2)
    for row in ((1, 0), (0, 1)):
        pair.insert(row)
    before = (list(pair.rays), list(pair.lineality))
    pair.insert((1, 1))  # implied by the first quadrant
    assert (pair.rays, pair.lineality) == before


def test_dd_insert_negation_collapses_to_hyperplane():
    pair = DDPair(2)
    pair.insert((1, 0))
    pair.insert((0, 1))
    pair.insert((-1, 0))  # negation of the first, tight rows collapse
    assert cone_signature(pair) == brute_force_cone(
        [(1, 0), (0, 1), (-1, 0)], 2
    )
    # remaining cone is the nonnegative y axis
    assert cone_signature(pair)[1] == {(0, 1)}


def test_dd_insert_equality_mode_matches_double_insertion():
    rows = [(1, 2, -1), (0, 1, 1), (2, -1, 3)]
    a = DDPair(3)
    b = DDPair(3)
    for r in rows:
        a.insert(r)
        b.insert(r)
    a.insert((1, 1, 1), equality=True)
    b.insert((1, 1, 1))
    b.insert((-1, -1, -1))
    assert cone_signature(a) == cone_signature(b)


def test_random_cones_match_brute_force():
    rng = random.Random(12345)
    for trial in range(120):
        dim = rng.randint(2, 5)
        n_rows = rng.randint(1, 10)
        rows = [
            tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(n_rows)
        ]
        rows = [r for r in rows if any(r)]
        pair = DDPair(dim, debug=(trial % 10 == 0))
        for r in rows:
            pair.insert(r)
        assert cone_signature(pair) == brute_force_cone(rows, dim), rows


def test_random_polytope_cones_renumber_ray_ids():
    # Long insertion runs into a pointed cone retire many rays, so dead ids
    # come to outnumber live ones and get renumbered along the way;
    # debug=True checks the incidence columns against `active` after every
    # insert.
    rng = random.Random(2718)
    renumbered = 0
    for trial in range(3):
        rows = [(1, 0, 0, 0)] + [
            (rng.randint(3, 9),) + tuple(rng.randint(-3, 3) for _ in range(3))
            for _ in range(18)
        ]
        pair = DDPair(4, debug=True)
        for r in rows:
            before = pair.next_id
            pair.insert(r)
            renumbered += pair.next_id < before
        assert pair.rays
        assert cone_signature(pair) == brute_force_cone(rows, 4), rows
    assert renumbered


def test_pair_filter_matches_brute_count(monkeypatch):
    # The count filter must yield, for each ray of the side that drives it,
    # exactly the rays of the other sign side sharing at least `need` tight
    # rows with it, as the plain pairwise count finds them.  Covered: need 0
    # (dimension 2), ids left sparse after a renumbering, and either side
    # being the smaller one that drives.
    original = DDPair._partners
    current = {}
    seen = set()

    def checked(pair, drive, need):
        row = current["row"]
        vals = {i: sum(a * b for a, b in zip(row, r)) for i, r in pair._rays.items()}
        positive = vals[drive[0]] > 0
        other = [i for i, v in vals.items() if v and (v > 0) != positive]
        active = pair._active
        expected = {}
        for d in drive:
            hit = sum(1 << o for o in other
                      if (active[d] & active[o]).bit_count() >= need)
            if hit:
                expected[d] = hit
        got = list(original(pair, drive, need))
        assert got == list(expected.items())
        assert need == max(pair.dimension - len(pair.lineality) - 2, 0)
        assert len(drive) <= len(other)
        seen.add("need 0" if need == 0 else "need > 0")
        seen.add("positive drives" if positive else "negative drives")
        if current["renumbered"] and any(c & ~pair.alive for c in pair.cols):
            seen.add("dead ids after renumbering")
        return iter(got)

    monkeypatch.setattr(DDPair, "_partners", checked)
    rng = random.Random(4242)
    for trial in range(44):
        dim = 2 if trial < 20 else rng.randint(3, 5)
        if trial < 40:
            rows = [tuple(rng.randint(-3, 3) for _ in range(dim))
                    for _ in range(rng.randint(3, 10))]
            rows = [r for r in rows if any(r)]
        else:  # long polytope runs, which renumber the ray ids
            dim = 4
            rows = [(1, 0, 0, 0)] + [
                (rng.randint(3, 9),) + tuple(rng.randint(-3, 3) for _ in range(3))
                for _ in range(18)
            ]
        pair = DDPair(dim)
        current["renumbered"] = False
        for r in rows:
            current["row"] = r
            before = pair.next_id
            pair.insert(r)
            current["renumbered"] |= pair.next_id < before
        assert cone_signature(pair) == brute_force_cone(rows, dim), rows
    assert seen == {"need 0", "need > 0", "positive drives", "negative drives",
                    "dead ids after renumbering"}


# --------------------------------------------------------------------- hull

def test_urn_hull_exact_facets():
    h = hull(truth_table(URN))
    assert set(h.rows) == URN_FACETS
    assert not h.linearity


def test_unit_square():
    square = VRepresentation(2, ((0, 0), (1, 0), (0, 1), (1, 1)))
    h = hull(square)
    assert set(h.rows) == {(0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1)}


def test_hull_empty_input_rejected():
    with pytest.raises(ValueError):
        hull(VRepresentation(2, ()))


def test_hull_facet_count_2_3(hull_2_3):
    assert len(hull_2_3.inequality_indices) == 684
    assert not hull_2_3.linearity


def test_hull_against_facet_oracle_small_random():
    rng = random.Random(777)
    done = 0
    while done < 25:
        d = rng.randint(2, 5)
        count = rng.randint(d + 1, min(2**d, 10))
        verts = list({
            tuple(rng.randint(0, 1) for _ in range(d)) for _ in range(count)
        })
        vrep = VRepresentation(d, tuple(verts))
        try:
            expected = brute_force_facets(verts)
        except ValueError:
            continue  # not full-dimensional, oracle does not apply
        h = hull(vrep)
        assert set(h.rows) == expected
        done += 1


def test_hull_insertion_order_independence(hull_2_2, config_2_2):
    tt = truth_table(config_2_2)
    for order in ("given", "random:1", "random:2", "random:3"):
        h = hull(tt, order=order)
        assert h.rows == hull_2_2.rows
        assert h.linearity == hull_2_2.linearity


def test_unknown_insertion_order_rejected(config_2_2):
    tt = truth_table(config_2_2)
    for order in ("bogus", "random:x", "Support"):
        with pytest.raises(ValueError, match="insertion order"):
            hull(tt, order=order)


def test_hull_ray_cap():
    tt = truth_table(Configuration.uniform(2, 2))
    with pytest.raises(CapacityError):
        hull(tt, ray_cap=5)


def test_hull_progress_reporting(config_2_2):
    seen = []
    hull(truth_table(config_2_2), progress=lambda i, n, r: seen.append((i, n, r)))
    assert seen[0][0] == 1 and seen[-1][0] == seen[-1][1] == 16


def test_hull_lower_dimensional_segment():
    seg = VRepresentation(
        2, ((Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2)))
    )
    h = hull(seg)
    assert sorted(h.linearity) == [0]
    assert h.rows[0] == (1, 0, -2)  # 1 - 2y = 0
    assert set(h.rows[1:]) == {(0, 1, 0), (0, -1, 2)}
    assert contains(h, (Fraction(1, 2), Fraction(1, 2)))
    assert not contains(h, (Fraction(1, 2), Fraction(1, 4)))
    assert not contains(h, (2, Fraction(1, 2)))


def test_hull_single_point_is_all_equalities():
    h = hull(VRepresentation(3, ((1, 2, 3),)))
    assert len(h.linearity) == 3 and len(h.rows) == 3
    assert contains(h, (1, 2, 3))
    assert not contains(h, (1, 2, 4))


def test_hull_with_ray_generators():
    # half strip: conv{(0,0),(1,0)} + cone{(0,1)}
    strip = VRepresentation(2, ((0, 0), (1, 0)), rays=((0, 1),))
    h = hull(strip)
    assert set(h.rows) == {(0, 1, 0), (1, -1, 0), (0, 0, 1)}


def test_hull_rational_coordinates():
    tri = VRepresentation(
        2,
        (
            (Fraction(1, 2), 0),
            (0, Fraction(1, 3)),
            (Fraction(1, 2), Fraction(1, 3)),
        ),
    )
    h = hull(tri)
    assert contains(h, (Fraction(1, 4), Fraction(1, 6)))
    assert not contains(h, (0, 0))
    assert len(h.rows) == 3


def test_hull_ignores_non_extreme_points(hull_2_2, config_2_2):
    # The centroid and the midpoints come after the 0/1 vertices in lexmin
    # order, so each is a row that no ray violates; debug=True checks the
    # kernel state after each of them.
    vertices = truth_table(config_2_2).vertices
    centroid = tuple(Fraction(sum(c), len(vertices)) for c in zip(*vertices))
    midpoints = tuple(tuple(Fraction(a + b, 2) for a, b in zip(u, v))
                      for u, v in zip(vertices, vertices[1:]))
    points = VRepresentation(8, vertices + (centroid,) + midpoints, config=config_2_2)
    assert hull(points, debug=True) == hull_2_2


# ------------------------------------------------------- enumerate_vertices

SYSTEM_6x4 = HRepresentation(
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


def test_enumerate_vertices_mixed_system():
    v = enumerate_vertices(SYSTEM_6x4)
    assert set(v.vertices) == {(2, 1, 1), (1, 1, 1), (1, 2, 1), (2, 2, 1)}
    assert v.rays == ((0, 0, 1),)


def test_enumerate_vertices_cube():
    rows = []
    for i in range(3):
        unit = tuple(1 if j == i else 0 for j in range(3))
        rows.append((0,) + unit)
        rows.append((1,) + tuple(-x for x in unit))
    cube = HRepresentation(3, tuple(rows))
    v = enumerate_vertices(cube)
    assert len(v.vertices) == 8
    assert not v.rays
    assert set(v.vertices) == {
        (x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)
    }


def test_enumerate_vertices_infeasible_is_empty():
    infeasible = HRepresentation(1, ((-1, -1), (-1, 1)))
    v = enumerate_vertices(infeasible)
    assert v.is_empty
    assert v.vertices == () and v.rays == ()


def test_enumerate_vertices_equalities():
    # unit square cut to the diagonal x + y = 1
    rows = ((0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (-1, 1, 1))
    sliced = HRepresentation(2, rows, linearity=frozenset({4}))
    v = enumerate_vertices(sliced)
    assert set(v.vertices) == {(0, 1), (1, 0)}


def test_enumerate_vertices_with_lines():
    # single constraint x >= 0 in the plane: point + ray + a full line
    half = HRepresentation(2, ((0, 1, 0),))
    v = enumerate_vertices(half)
    assert not v.is_empty
    assert (0, 1) in v.rays and (0, -1) in v.rays and (1, 0) in v.rays


def test_roundtrip_v_h_v(config_2_2):
    tt = truth_table(config_2_2)
    back = enumerate_vertices(hull(tt))
    assert set(back.vertices) == set(tt.vertices)
    assert not back.rays


def test_roundtrip_v_h_v_2_3(hull_2_3, config_2_3):
    peak = 0

    def progress(done, total, rays):
        nonlocal peak
        peak = max(peak, rays)

    back = enumerate_vertices(hull_2_3, progress=progress)
    assert set(back.vertices) == set(truth_table(config_2_3).vertices)
    assert len(back.vertices) == 64
    assert not back.rays
    assert peak < 2000  # lexmin order peaks at 9,371 rays here


def test_enumerate_vertices_ignores_redundant_rows(hull_2_2, config_2_2):
    # The sum of two facets and a loosened facet are implied by the facets
    # inserted before them, so no ray violates them.
    rows = hull_2_2.rows
    redundant = (tuple(a + b for a, b in zip(rows[0], rows[1])),
                 (rows[2][0] + 1,) + rows[2][1:])
    hrep = HRepresentation(8, rows + redundant, hull_2_2.linearity, config_2_2)
    v = enumerate_vertices(hrep, debug=True)
    assert set(v.vertices) == set(truth_table(config_2_2).vertices)
    assert len(v.vertices) == 16 and not v.rays


def test_roundtrip_h_v_h():
    h1 = hull(truth_table(URN))
    v1 = enumerate_vertices(h1)
    h2 = hull(VRepresentation(h1.dimension, v1.vertices, v1.rays))
    assert set(h1.rows) == set(h2.rows)


# ------------------------------------------------------ membership, facets

def test_contains_urn_examples():
    h = hull(truth_table(URN))
    # boundary of the p1 + p2 - p12 <= 1 facet: contained (closed polytope)
    assert contains(h, (Fraction(3, 5), Fraction(18, 25), Fraction(8, 25)))
    assert contains(h, (0, 0, 0))
    assert contains(h, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)))
    assert not contains(h, (Fraction(1, 2), Fraction(9, 10), Fraction(1, 10)))
    with pytest.raises(ValueError):
        contains(h, (0, 0))


def test_contains_accepts_vertices_and_midpoints(hull_2_2, config_2_2):
    from itertools import combinations

    verts = truth_table(config_2_2).vertices
    for v in verts:
        assert contains(hull_2_2, v)
    for a, b in combinations(verts, 2):
        mid = tuple(Fraction(x + y, 2) for x, y in zip(a, b))
        assert contains(hull_2_2, mid)


def test_verify_facet_urn():
    vrep = truth_table(URN)
    report = verify_facet((0, 1, 0, -1), vrep)  # a1 - a1b1 >= 0
    assert report.valid and report.is_facet
    assert report.tight_count == 3


def test_verify_facet_valid_but_not_facet(config_2_2):
    vrep = truth_table(config_2_2)
    # 1 - a1 >= 0 is valid but supporting only a low-dimensional face
    row = (1, -1, 0, 0, 0, 0, 0, 0, 0)
    report = verify_facet(row, vrep)
    assert report.valid and not report.is_facet


def test_verify_facet_invalid(config_2_2):
    vrep = truth_table(config_2_2)
    row = (-1, 1, 0, 0, 0, 0, 0, 0, 0)  # a1 >= 1 fails at the origin
    report = verify_facet(row, vrep)
    assert not report.valid and not report.is_facet


def test_verify_facet_lower_dimensional():
    # a triangle in R^3: facets are its three edges within the plane z = 0
    tri = VRepresentation(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0)))
    h = hull(tri)
    assert len(h.linearity) == 1 and len(h.inequality_indices) == 3
    for i in h.inequality_indices:
        report = verify_facet(h.rows[i], tri)
        assert report.valid and report.is_facet and report.tight_count == 2
    assert not verify_facet((0, 0, 0, 1), tri).is_facet  # z >= 0 holds everywhere
    assert not verify_facet((1, -1, 0, 0), tri).is_facet  # x <= 1: one vertex only
    # a single point has no facets, as hull reports none
    point = VRepresentation(3, ((1, 2, 3),))
    assert not verify_facet((1, 0, 0, 0), point).is_facet
    assert (tri.rank, point.rank) == (3, 1)  # affine hull dimension plus one

def test_verify_facet_dimension_mismatch(config_2_2):
    with pytest.raises(ValueError):
        verify_facet((1, -1, 0), truth_table(config_2_2))


def test_verify_facet_counts_tight_rays():
    strip = VRepresentation(2, ((0, 0), (1, 0)), rays=((0, 1),))
    report = verify_facet((0, 1, 0), strip)  # x >= 0, tight on vertex and ray
    assert report.valid and report.is_facet
    assert report.tight_count == 2


def test_hull_output_is_sound_and_facets(hull_2_2, config_2_2):
    vrep = truth_table(config_2_2)
    for i, row in enumerate(hull_2_2.rows):
        if i in hull_2_2.linearity:
            continue
        report = verify_facet(row, vrep)
        assert report.valid and report.is_facet


def test_debug_mode_cross_checks_adjacency(config_2_2):
    h = hull(truth_table(config_2_2), debug=True)
    assert len(h.rows) == 24
