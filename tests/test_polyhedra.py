import random
from fractions import Fraction
from itertools import islice, product

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
from corrpoly import polyhedra
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
    # An equality is the row's step and then its negation's, so the whole
    # state matches, the rows and columns of both steps included.  Covered:
    # an equality positive on every ray, one that splits the rays into
    # pairs, and one that meets the lineality space (a free cone's first row).
    pointed = [(1, 2, -1), (0, 1, 1), (2, -1, 3)]
    for rows, eq in [(pointed, (1, 1, 1)), (pointed, (1, -1, 0)), ([], (1, 1, 1))]:
        a = DDPair(3, debug=True)
        b = DDPair(3, debug=True)
        for r in rows:
            a.insert(r)
            b.insert(r)
        a.insert(eq, equality=True)
        b.insert(eq)
        b.insert(tuple(-x for x in eq))
        assert cone_signature(a) == cone_signature(b)
        assert ((a.rows, a.cols, a.alive, a._rays, a._active, a.lineality)
                == (b.rows, b.cols, b.alive, b._rays, b._active, b.lineality))
        assert a.rows[-2:] == [eq, tuple(-x for x in eq)]


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
    # come to outnumber live ones and get renumbered along the way (counted
    # on splits); debug=True checks the incidence columns against `active`
    # after every insert.
    rng = random.Random(2718)
    renumbered = 0
    for trial in range(3):
        rows = [(1, 0, 0, 0)] + [
            (rng.randint(3, 9),) + tuple(rng.randint(-3, 3) for _ in range(3))
            for _ in range(18)
        ]
        pair = DDPair(4, debug=True)
        for r in rows:
            before = len(pair._rays), len(pair.lineality)
            pair.insert(r)
            renumbered += (len(pair._rays) < before[0]
                           and len(pair.lineality) == before[1])
        assert pair.rays
        assert cone_signature(pair) == brute_force_cone(rows, 4), rows
    assert renumbered


def test_lineality_step_numbers_ray_ids_densely():
    pair = DDPair(4, debug=True)
    for row in [(1, 0, 0, 0), (0, 1, 0, 0), (1, -1, 0, 0)]:
        pair.insert(row)
    # The last split dropped ray e2 (id 1) and added e1 + e2 (id 2), below
    # the dead-id threshold, so id 1 stays dead until the next rebuild.
    assert (len(pair._rays), len(pair.rays)) == (3, 2)
    # A lineality step is committed like a split: it consumes e3, keeps the
    # zero ray e1 (id 0) and the dead id 1, drops e1 + e2 (id 2), and admits
    # its projection e1 + e2 - e3 and then e3 under the next ids, 3 and 4.
    pair.insert((0, 1, 1, 0))
    assert pair.alive == 0b11001 and pair._rays[1:3] == [None, None]
    assert pair.rays == [(1, 0, 0, 0), (1, 1, -1, 0), (0, 0, 1, 0)]
    assert pair.active == [0b1010, 0b1100, 0b0111]
    # The equality x1 = 0 drops ids 0 and 3: five ids, one live, so the
    # dead-id rebuild numbers the live ray e3 densely, from 0.
    pair.insert((1, 0, 0, 0), equality=True)
    assert (pair._rays, pair.alive) == ([(0, 0, 1, 0)], 0b1)
    rows = [(1, 0, 0, 0), (0, 1, 0, 0), (1, -1, 0, 0), (0, 1, 1, 0),
            (1, 0, 0, 0), (-1, 0, 0, 0)]
    assert cone_signature(pair) == brute_force_cone(rows, 4)


def test_rebuild_packs_the_live_rays_into_fresh_lanes():
    # The row (300, -1) widens the lanes to 2 bytes for its dot products and
    # admits the ray (1, 300); the equality x1 = x2 then leaves one live ray
    # of four ids, and the dead-id rebuild packs it into lanes worked out
    # again from 1 byte.
    pair = DDPair(2, debug=True)
    for row in [(1, 0), (0, 1), (300, -1), (-1, 1)]:
        pair.insert(row)
    assert (len(pair._rays), pair.rays) == (4, [(1, 300), (1, 1)])
    assert (pair.lanes.width, pair.lanes.coord_bits) == (2, 9)
    pair.insert((1, -1), equality=True)
    assert (pair._rays, pair.rays) == ([(1, 1)], [(1, 1)])
    assert (pair.lanes.width, pair.lanes.coord_bits) == (1, 1)


@pytest.mark.parametrize("rows", [1, 7, 8, 9, 64, 700])
@pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 600])
@pytest.mark.parametrize("dead", [0, 5])
def test_admit_fills_columns_like_the_bit_loop(rows, count, dead):
    # `_admit` reads the columns from byte lanes, a block of 256 tight sets
    # at a time; `_transpose` sets them one incidence at a time.  The row
    # counts cross byte boundaries, the counts block boundaries, and `dead`
    # ids admitted and dropped first move the start id off 0.
    rng = random.Random(rows * 10_000 + count * 10 + dead)
    full = (1 << rows) - 1

    def tight_sets(n):
        return [rng.choice((0, full, rng.getrandbits(rows), 1 << rng.randrange(rows)))
                for _ in range(n)]

    pair = DDPair(1)
    pair.cols = [0] * rows
    first, tights = tight_sets(dead), tight_sets(count)
    pair._admit([(1,)] * dead, first)
    pair.alive = 0  # the first ids die; their bits stay in the columns
    pair._admit([(1,)] * count, tights)
    assert pair.cols == polyhedra._transpose(enumerate(first + tights), [0] * rows)
    assert pair.alive == ((1 << count) - 1) << dead


def test_debug_hull_whose_split_admits_more_than_a_block(monkeypatch):
    # The cross-polytope of dimension 10 has the 2**10 facets 1 + s.x >= 0.
    # In lexmin order its last point splits the 512 rays before it, and the
    # split admits 512 new rays, two blocks; debug=True checks the columns.
    admitted = []
    admit = DDPair._admit

    def counted(pair, rays, tights):
        admitted.append(len(rays))
        admit(pair, rays, tights)

    monkeypatch.setattr(DDPair, "_admit", counted)
    d = 10
    points = tuple(tuple(s if j == i else 0 for j in range(d))
                   for s in (1, -1) for i in range(d))
    h = hull(VRepresentation(dimension=d, vertices=points, rays=()), debug=True)
    assert admitted[-1] == 512
    assert set(h.rows) == {(1, *s) for s in product((1, -1), repeat=d)}


def test_lineality_steps_after_splits_match_brute_force():
    # Rows on the first k coordinates split the rays while the others stay
    # in the lineality space; rows on every coordinate then meet it, and
    # their steps project rays beside the dead ids the splits left.  Every
    # fourth case makes one row an equality.  debug=True checks the lanes,
    # the sign sets and the columns after every step.
    rng = random.Random(2829)
    seen = set()
    for case in range(40):
        dim = rng.randint(3, 6)
        k = rng.randint(2, dim - 1)
        rows = [tuple(rng.randint(-3, 3) for _ in range(k)) + (0,) * (dim - k)
                for _ in range(rng.randint(k + 1, k + 4))]
        rows += [tuple(rng.randint(-3, 3) for _ in range(dim))
                 for _ in range(rng.randint(1, dim - k))]
        rows = [r for r in rows if any(r)]
        equality = rng.randrange(len(rows)) if case % 4 == 3 else None
        pair = DDPair(dim, debug=True)
        for i, r in enumerate(rows):
            lineality, alive, ids = len(pair.lineality), pair.alive, len(pair._rays)
            pair.insert(r, equality=i == equality)
            if len(pair.lineality) < lineality:
                if alive != (1 << ids) - 1 and alive & ~pair.alive:
                    seen.add("projection beside dead ids")
                if i == equality:
                    seen.add("equality step")
        implied = rows + ([tuple(-x for x in rows[equality])] if equality is not None else [])
        assert cone_signature(pair) == brute_force_cone(implied, dim), (rows, equality)
    assert seen == {"projection beside dead ids", "equality step"}


def test_pair_filter_matches_brute_count(monkeypatch):
    # The count filter must yield, for each ray of the side that drives it,
    # exactly the rays of the other sign side sharing at least `need` tight
    # rows with it, as the plain pairwise count finds them; the other side
    # it is handed must be exactly the rays of the other sign.  Covered:
    # need 0 (dimension 2), ids left sparse after a renumbering, either side
    # being the smaller one that drives, and an empty drive side, which
    # yields nothing.  The filter adds a drive ray's rows four at a time
    # into 2-5 counter planes, so also covered: every residue mod 4 of the
    # drive ray's tight count, a partner reaching `need` inside a zero-padded
    # last group, and a drive ray whose partners all reach it before its
    # last group.
    original = DDPair._partners
    current = {}
    seen = set()

    def checked(pair, drive, others, need):
        if not drive:
            assert list(original(pair, drive, others, need)) == []
            seen.add("empty drive side")
            return iter([])
        row = current["row"]
        vals = {i: sum(a * b for a, b in zip(row, pair._rays[i]))
                for i in polyhedra._ids(pair.alive)}
        positive = vals[drive[0]] > 0
        other = [i for i, v in vals.items() if v and (v > 0) != positive]
        assert others == sum(1 << o for o in other)
        active = pair._active
        expected = {}
        for d in drive:
            hit = sum(1 << o for o in other
                      if (active[d] & active[o]).bit_count() >= need)
            if hit:
                expected[d] = hit
        got = list(original(pair, drive, others, need))
        assert got == list(expected.items())
        assert need == max(pair.dimension - len(pair.lineality) - 2, 0)
        assert len(drive) <= len(other)
        seen.add("need 0" if need == 0 else "need > 0")
        if need:
            seen.add(f"{max(need.bit_length(), 2)} planes")
            for d in drive:
                n = active[d].bit_count()
                seen.add(f"tight count {n % 4} mod 4")
                # The 0-based group of d's rows, added highest first, in which
                # each partner's count reaches need: the group of its need-th
                # common row counted from the top.
                groups = []
                for o in polyhedra._ids(expected.get(d, 0)):
                    common = active[d] & active[o]
                    for _ in range(need - 1):
                        common ^= 1 << common.bit_length() - 1
                    upto = active[d] >> common.bit_length() - 1
                    groups.append((upto.bit_count() - 1) // 4)
                last = (n - 1) // 4
                if n % 4 and last in groups:
                    seen.add("need reached in a padded last group")
                if others and expected.get(d) == others and max(groups) < last:
                    seen.add("every partner hit before the last group")
        seen.add("positive drives" if positive else "negative drives")
        if current["renumbered"] and any(c & ~pair.alive for c in pair.cols):
            seen.add("dead ids after renumbering")
        return iter(got)

    def run(dim, rows):
        pair = DDPair(dim)
        current["renumbered"] = False
        for r in rows:
            current["row"] = r
            before = len(pair._rays)
            pair.insert(r)
            current["renumbered"] |= len(pair._rays) < before
        return pair

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
        assert cone_signature(run(dim, rows)) == brute_force_cone(rows, dim), rows
    # Realistic widths, checked by the pairwise count alone: the 2x2 truth
    # table (need up to 7, 3 planes), random 0/1 generators in dimension
    # 10-12 (4 planes), the first 32 3x2 truth-table generators in hull
    # order (need up to 16, 5 planes) and random integer points in dimension
    # 5-6, whose simple polytopes leave the filter the most partners to reject.
    for layout, count in (((2, 2), 16), ((3, 2), 32)):
        gens = polyhedra._order_rows(
            truth_table(Configuration.uniform(*layout)).integer_rows, polyhedra.HULL_ORDER)
        run(len(gens[0]), gens[:count])
    for dim in (10, 11, 12):
        points = {tuple(rng.randint(0, 1) for _ in range(dim)) for _ in range(20)}
        run(dim + 1, [(1, *p) for p in sorted(points)])
    for dim, count in ((5, 24), (6, 16)):
        run(dim + 1, [(1, *(rng.randint(-9, 9) for _ in range(dim))) for _ in range(count)])
    assert seen == {"need 0", "need > 0", "positive drives", "negative drives",
                    "dead ids after renumbering", "empty drive side",
                    "2 planes", "3 planes", "4 planes", "5 planes",
                    *(f"tight count {r} mod 4" for r in range(4)),
                    "need reached in a padded last group",
                    "every partner hit before the last group"}


def test_witness_refutation_matches_full_and(monkeypatch):
    # A witness ray, one of the survivors of a full AND, strips from its
    # drive ray's remaining partners exactly the pairs it refutes, which
    # are never adjacent: on every split the kernel's new rays must have
    # exactly the tight sets that a plain full column AND over every
    # candidate pair finds.  The columns read outside the count filter,
    # those the strips OR included, show that some ANDs were skipped:
    # without the witnesses the kernel would read, per candidate, the
    # columns of its common rows until only the pair is left.
    original_combine = DDPair._combine_pairs
    original_partners = DDPair._partners
    candidates = []
    reads = {"kernel": 0, "plain": 0}

    class CountingColumns(list):
        counting = True

        def __getitem__(self, k):
            reads["kernel"] += self.counting
            return super().__getitem__(k)

    def partners(pair, drive, others, need):
        pair.cols.counting = False
        got = list(original_partners(pair, drive, others, need))
        pair.cols.counting = True
        candidates.extend(got)
        return iter(got)

    def combine(pair, vals, pos, neg, bit):
        candidates.clear()
        cols = pair.cols
        pair.cols = CountingColumns(cols)
        try:
            new = original_combine(pair, vals, pos, neg, bit)
        finally:
            pair.cols = cols
        active = pair._active
        expected = []
        for d, hit in candidates:
            for o in range(hit.bit_length()):
                if not hit >> o & 1:
                    continue
                common = active[d] & active[o]
                own = 1 << d | 1 << o
                tight = pair.alive
                for k in range(len(cols)):
                    if common >> k & 1:
                        reads["plain"] += tight != own
                        tight &= cols[k]
                if tight == own:
                    expected.append(common | bit)
        assert [t for _, t in new] == expected
        return new

    monkeypatch.setattr(DDPair, "_partners", partners)
    monkeypatch.setattr(DDPair, "_combine_pairs", combine)
    rng = random.Random(9090)
    for trial in range(48):
        dim = rng.randint(3, 6)
        rows = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(4, 12))]
        rows = [r for r in rows if any(r)]
        equalities = set(rng.sample(range(len(rows)), 1)) if trial % 4 == 0 else set()
        pair = DDPair(dim)
        for i, r in enumerate(rows):
            pair.insert(r, equality=i in equalities)
        implied = rows + [tuple(-x for x in rows[i]) for i in equalities]
        assert cone_signature(pair) == brute_force_cone(implied, dim), rows
    # Truth tables are highly degenerate; under shuffled insertion orders a
    # witness is also one of its drive ray's remaining partners, which its
    # strip must keep.
    for settings, facets in (((2, 2), 24), ((2, 3), 48)):
        vrep = truth_table(Configuration(settings))
        for order in ("lexmin", "random:0"):
            h = hull(vrep, order=order)
            assert len(h.rows) == facets
            v = enumerate_vertices(h, order=order)
            assert v.vertices == tuple(sorted(vrep.vertices))
    assert reads["kernel"] < reads["plain"]


def test_split_combines_from_the_state_before_it(monkeypatch):
    # A split commits only after its combine stage: an exception from the
    # count filter leaves the pair exactly as it was before the insert.
    rows = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, -1, 1, 0)]
    pair = DDPair(4)
    for row in rows:
        pair.insert(row)

    def state():
        return (list(pair.rows), list(pair.cols), pair.alive, len(pair._rays),
                pair.rays, pair.active)

    def failing(pair, drive, others, need):
        raise RuntimeError("count filter")

    before = state()
    monkeypatch.setattr(DDPair, "_partners", failing)
    with pytest.raises(RuntimeError, match="count filter"):
        pair.insert((0, 1, -1, 1))
    assert state() == before
    monkeypatch.undo()
    pair.insert((0, 1, -1, 1))  # the same insert splits untouched
    assert cone_signature(pair) == brute_force_cone(rows + [(0, 1, -1, 1)], 4)


def test_debug_cross_checks_packed_values():
    # debug=True compares every packed value of a split with a plain dot
    # product, so one corrupted lane must be caught on the next insert.
    intact = DDPair(3, debug=True)
    for row in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0)):
        intact.insert(row)  # the same inserts pass the check untouched
    pair = DDPair(3, debug=True)
    for row in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        pair.insert(row)
    i = pair._rays.index((1, 0, 0))
    pair.lanes.planes[0][i * pair.lanes.width] ^= 1  # low byte of its first coordinate
    with pytest.raises(AssertionError, match="packed lanes"):
        pair.insert((1, -1, 0))


@pytest.mark.parametrize("which", [1, 2])
def test_debug_cross_checks_packed_sign_sets(which, monkeypatch):
    # debug=True also compares the negative (which=1) and the nonzero
    # (which=2) bit set that the lanes read with the plain signs over the
    # live ids, so one flipped bit of a live ray must be caught.
    pair = DDPair(3, debug=True)
    for row in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        pair.insert(row)
    original = polyhedra.Lanes.dot

    def flipped(lanes, row):
        result = list(original(lanes, row))
        result[which] ^= 1 << min(polyhedra._ids(pair.alive))
        return tuple(result)

    monkeypatch.setattr(polyhedra.Lanes, "dot", flipped)
    with pytest.raises(AssertionError, match="packed sign sets"):
        pair.insert((1, -1, 0))


def _rank_one_too_high(monkeypatch, pair):
    rank = polyhedra.integer_rank
    monkeypatch.setattr(polyhedra, "integer_rank", lambda rows: rank(rows) + 1)


def _drop_one_partner(monkeypatch, pair):
    partners = DDPair._partners
    monkeypatch.setattr(DDPair, "_partners", lambda *args: islice(partners(*args), 1, None))


def _clear_one_live_column_bit(monkeypatch, pair):
    live = pair.cols[0] & pair.alive
    pair.cols[0] ^= live & -live


class _KeepsDroppedSlots(list):
    def __setitem__(self, i, value):
        if value is not None:
            super().__setitem__(i, value)


def _keep_the_dropped_ray_slots(monkeypatch, pair):
    pair._rays = _KeepsDroppedSlots(pair._rays)


def _keep_the_dropped_tight_set_slots(monkeypatch, pair):
    pair._active = _KeepsDroppedSlots(pair._active)


def _admit_without_one_tight_set(monkeypatch, pair):
    admit = DDPair._admit
    monkeypatch.setattr(DDPair, "_admit",
                        lambda self, rays, tights: admit(self, rays, tights[:-1]))


def _pack_no_new_lanes(monkeypatch, pair):
    monkeypatch.setattr(polyhedra.Lanes, "append", lambda lanes, vectors: None)


@pytest.mark.parametrize("corrupt,row,message", [
    (_rank_one_too_high, (1, -1, 0), "adjacency tests disagree"),
    (_drop_one_partner, (1, -1, 0), "count filter disagrees"),
    # (1, 1, 1) is positive on every ray: no pair is combined, so only the
    # column check reads the cleared bit
    (_clear_one_live_column_bit, (1, 1, 1), "incidence columns"),
    # (1, -1, 0) drops ray e2 and admits e1 + e2
    (_keep_the_dropped_ray_slots, (1, -1, 0), "dead ray slots"),
    (_keep_the_dropped_tight_set_slots, (1, -1, 0), "dead ray slots"),
    (_admit_without_one_tight_set, (1, -1, 0), "one entry per id"),
    (_pack_no_new_lanes, (1, -1, 0), "one entry per id"),
])
def test_debug_checks_catch_one_broken_decision(corrupt, row, message, monkeypatch):
    # Each debug=True cross-check must fire when the decision it guards is
    # broken once: the adjacency rank, the count filter's partners, the
    # incidence columns between two inserts, the clearing of a dropped
    # ray's two slots, and one tight set and one lane per id handed out.
    def orthant():
        pair = DDPair(3, debug=True)
        for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            pair.insert(unit)
        return pair

    orthant().insert(row)  # the same insert passes the checks untouched
    pair = orthant()
    corrupt(monkeypatch, pair)
    with pytest.raises(AssertionError, match=message):
        pair.insert(row)


def test_debug_checks_the_adjacency_of_every_candidate(monkeypatch):
    # A witness strips refuted candidates from its drive ray's partners
    # without an AND; debug=True must still cross-check the rank of each
    # of them, so the rank check runs once per candidate the count filter
    # yields.
    counts = {"yielded": 0, "checked": 0}
    partners = DDPair._partners
    check = DDPair._check_adjacency

    def counted_partners(pair, drive, others, need):
        for d, hit in partners(pair, drive, others, need):
            counts["yielded"] += hit.bit_count()
            yield d, hit

    def counted_check(pair, common, combinatorial):
        counts["checked"] += 1
        check(pair, common, combinatorial)

    monkeypatch.setattr(DDPair, "_partners", counted_partners)
    monkeypatch.setattr(DDPair, "_check_adjacency", counted_check)
    assert len(hull(truth_table(Configuration.uniform(2, 2)), debug=True).rows) == 24
    assert counts["checked"] == counts["yielded"] > 0
    rng = random.Random(5151)
    for trial in range(20):
        dim = rng.randint(3, 6)
        rows = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(4, 12))]
        pair = DDPair(dim, debug=True)
        for r in rows:
            if any(r):
                pair.insert(r)
        assert counts["checked"] == counts["yielded"]


@pytest.mark.parametrize("build,message", [
    (lambda: HRepresentation(2, ((1, 0),)), "constraint of length 2 in dimension 2"),
    (lambda: HRepresentation(2, ((1, 0, 0),), frozenset({1})),
     "linearity index 1 out of range"),
    (lambda: DDPair(0), "cone dimension must be positive"),
    (lambda: VRepresentation(2, ((0, 0), (1, 0, 0))), "generator of length 3 in dimension 2"),
])
def test_representations_reject_bad_shapes(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("bits", [3, 20, 40, 70])
def test_packed_values_exact_on_wide_coordinates(bits, monkeypatch):
    # The lanes of the packed coordinate planes widen with the coordinates
    # (here from 2 to 128 bytes); debug=True compares every packed value
    # with a plain dot product along the way.
    pairs = []

    class Recording(DDPair):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pairs.append(self)

    monkeypatch.setattr(polyhedra, "DDPair", Recording)
    rng = random.Random(bits)
    for trial in range(3):
        points = sorted({tuple(rng.randint(-2**bits, 2**bits) for _ in range(3))
                         for _ in range(7)})
        h = hull(VRepresentation(3, tuple(points)), debug=True)
        assert set(h.rows) == brute_force_facets(points)
        v = enumerate_vertices(h, debug=True)
        _, rays = brute_force_cone(h.rows, 4)
        expected = {tuple(Fraction(x, r[0]) for x in r[1:]) for r in rays}
        assert set(v.vertices) == expected and expected <= set(points)
        assert not v.rays
    # 3-bit points stay within the word-sized lanes, the others go beyond.
    assert (max(p.lanes.width for p in pairs) > 8) == (bits >= 20)


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
    # a seed is a count: int() would read a sign, a '_' or a non-ASCII digit
    for order in ("bogus", "random:x", "Support", "random:\u0661", "random:1_0",
                  "random:+1", "random:-1", "random: 1", "random:"):
        with pytest.raises(ValueError, match="insertion order"):
            hull(tt, order=order)


def test_hull_ray_cap():
    tt = truth_table(Configuration.uniform(2, 2))
    with pytest.raises(CapacityError):
        hull(tt, ray_cap=5)


def test_negative_ray_cap_rejected():
    tt = truth_table(Configuration.uniform(2, 2))
    for cap in (-5, -1):
        with pytest.raises(ValueError, match="ray cap") as err:
            hull(tt, ray_cap=cap)
        assert not isinstance(err.value, CapacityError)
    with pytest.raises(ValueError, match="ray cap"):
        enumerate_vertices(hull(tt), ray_cap=-1)
    with pytest.raises(CapacityError):
        hull(tt, ray_cap=0)
    assert len(hull(tt, ray_cap=None).rows) == 24


def test_hull_progress_reporting(config_2_2):
    seen = []
    hull(truth_table(config_2_2), progress=lambda i, n, r: seen.append((i, n, r)))
    assert seen[0][0] == 1 and seen[-1][0] == seen[-1][1] == 16


def test_hull_progress_reports_the_peak_ray_count_2_3(config_2_3):
    # The ray count after each insert is the live count: the 2x3 hull under
    # its default order peaks at 1,044 rays, whatever dead ids are kept.
    seen = []
    h = hull(truth_table(config_2_3), progress=lambda i, n, r: seen.append(r))
    assert len(seen) == 64 and max(seen) == 1044
    assert len(h.inequality_indices) == 684


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
    assert peak == 1548  # lexmin order peaks at 9,371 rays here


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


def test_contains_refuses_floats():
    # At the exact value of the float 0.3 the row -3 + 10x is -2**-53, which
    # a float product rounds to 0, so 0.3 would be accepted; a NaN compares
    # false against 0 and would count as contained.
    h = HRepresentation(1, ((-3, 10),))
    assert contains(h, (Fraction(3, 10),))
    for point in ((0.3,), (float("nan"),)):
        with pytest.raises(TypeError, match="expected an exact number, got float"):
            contains(h, point)
    with pytest.raises(TypeError, match="expected an exact number, got float"):
        contains(HRepresentation(1, ((-0.3, 1),)), (1,))


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


@pytest.mark.extended
def test_debug_mode_cross_checks_2x3_hull(config_2_3, hull_2_3):
    # The forward direction on the degenerate 2x3 truth table, whose drive
    # rays have up to 44 tight rows: every count filter decision is checked
    # against the pairwise counts and every adjacency against exact rank.
    assert hull(truth_table(config_2_3), debug=True) == hull_2_3


def test_dd_insert_zero_row_and_wrong_length():
    pair = DDPair(3)
    pair.insert((1, 0, 0))
    before = (pair.rays, pair.active, list(pair.lineality), list(pair.rows))
    pair.insert((0, 0, 0))  # 0 >= 0 constrains nothing and is not recorded
    pair.insert((0, 0, 0), equality=True)
    assert (pair.rays, pair.active, pair.lineality, pair.rows) == before
    for row in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            pair.insert(row)
    assert (pair.rays, pair.active, pair.lineality, pair.rows) == before
