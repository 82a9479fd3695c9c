"""Exact polyhedral kernel: double description conversions and queries.

Polytopes move between their two dual encodings here.  ``hull`` turns a
generator description into the minimal set of facet inequalities and
``enumerate_vertices`` goes the other way.  All computation is exact; a
constraint row ``(b, a1, ..., ad)`` always means ``b + a.x >= 0``.

The incremental kernel maintains a cone as a lineality basis plus the
extreme rays of its pointed part.  Inserting a constraint either consumes
one lineality dimension or splits the ray set by sign, combining adjacent
positive/negative pairs into new rays on the constraint hyperplane.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .core import CapacityError, Configuration, NumberLike, check_event_count, parse_count
from .lanes import Lanes, _bit_set
from .linalg import (
    IntVec,
    clear_to_int,
    dot,
    integer_rank,
    primitive,
    reduce_mod_rowspace,
    rref,
)
from .vertices import VRepresentation

#: Abort when an intermediate ray set grows beyond this (overridable).
DEFAULT_RAY_CAP = 5_000_000
#: Tight sets per block in ``DDPair._admit``: it never joins the bytes of more
#: of them than this, which bounds the transient copy of the incidence sets
#: when ``_reset`` admits every live ray again.
_BLOCK = 256

ProgressFn = Callable[[int, int, int], None]


@dataclass(frozen=True)
class HRepresentation:
    """Constraint description: rows ``b + a.x >= 0``, some marked equalities.

    ``linearity`` holds the (0-based) indices of rows to be read as
    equalities; they encode the affine hull when the polyhedron is not
    full-dimensional.  A ``config`` labels the coordinates, so its event
    count must be ``dimension``.
    """

    dimension: int
    rows: tuple[tuple[NumberLike, ...], ...]
    linearity: frozenset[int] = frozenset()
    config: Configuration | None = None

    def __post_init__(self) -> None:
        if set(map(len, self.rows)) - {self.dimension + 1}:
            bad = next(n for n in map(len, self.rows) if n != self.dimension + 1)
            raise ValueError(f"constraint of length {bad} in dimension {self.dimension}")
        if not all(map(any, self.rows)):
            raise ValueError("all-zero constraint row")
        for i in self.linearity:
            if not 0 <= i < len(self.rows):
                raise ValueError(f"linearity index {i} out of range")
        check_event_count(self.config, self.dimension, "the H-representation")

    @property
    def inequality_indices(self) -> list[int]:
        return [i for i in range(len(self.rows)) if i not in self.linearity]


@dataclass(frozen=True)
class FacetReport:
    valid: bool
    tight_count: int
    is_facet: bool


#: Ray ids are renumbered densely once dead ids outnumber live ones by this
#: factor, which bounds the column bitsets by a constant times the ray count.
_DEAD_ID_FACTOR = 2


def _id_set(ids: Iterable[int]) -> int:
    """Bit set of distinct ids."""
    return sum(1 << i for i in ids)


def _ids(bits: int) -> list[int]:
    """The ids in bit set ``bits``, ascending: one ``str.find`` per id."""
    digits = f"{bits:b}"[::-1]
    ids = []
    i = digits.find("1")
    while i >= 0:
        ids.append(i)
        i = digits.find("1", i + 1)
    return ids


def _transpose(active: Iterable[tuple[int, int]], cols: list[int]) -> list[int]:
    """OR the id of each ``(id, tight rows)`` pair into the columns of its rows,
    one incidence at a time: ``_check_columns``' oracle for ``DDPair._admit``.

    Returns ``cols``, updated in place.
    """
    for i, a in active:
        while a:
            low = a & -a
            cols[low.bit_length() - 1] |= 1 << i
            a ^= low
    return cols


class DDPair:
    """Mutable double description state over an ambient cone dimension.

    Invariant: the represented cone is ``span(lineality) + cone(rays)``
    where ``rays`` are exactly the extreme rays modulo the lineality space
    of the cone cut out by the processed rows.

    Every ray has an integer id, handed out in creation order by
    ``_admit``: ``_rays[i]`` is ray ``i`` and ``_active[i]`` the bit set of
    the processed rows tight at it.  ``alive`` is the bit set of the live
    ids; every other id is dead, and both its slots are ``None``.  The
    same incidences are kept transposed for the adjacency test:
    ``cols[k] & alive`` is exactly the bit set of the ids of the live rays
    tight on ``rows[k]``.  ``lanes`` packs the coordinates of the rays, so
    that a new row is evaluated on every ray with a few big-int operations:
    lane ``i`` is ray ``i`` for every id handed out.

    Every step drops rays and admits new ones, so the lists, the columns
    and the lanes keep dead ids, which ``alive`` masks out.  Once dead ids
    outnumber live ones, ``_reset`` admits the live rays again, densely
    numbered and into fresh lanes.
    """

    __slots__ = ("dimension", "rows", "_rays", "_active", "lineality", "debug",
                 "cols", "alive", "lanes")

    def __init__(self, dimension: int, debug: bool = False):
        if dimension < 1:
            raise ValueError("cone dimension must be positive")
        self.dimension = dimension
        self.rows: list[IntVec] = []
        self.lineality: list[IntVec] = [
            tuple(int(j == i) for j in range(dimension))
            for i in range(dimension)
        ]
        self.debug = debug
        self._reset([], [])

    @property
    def rays(self) -> list[IntVec]:
        """The extreme rays in id order: kept rays first, then new ones."""
        return list(map(self._rays.__getitem__, _ids(self.alive)))

    @property
    def active(self) -> list[int]:
        """The tight-row bit set of each ray of ``rays``, in the same order."""
        return list(map(self._active.__getitem__, _ids(self.alive)))

    def insert(self, row: Sequence[NumberLike], equality: bool = False) -> None:
        """Cut the cone by ``row.x >= 0``; an equality is that step, then the negated row's."""
        row = clear_to_int(row)
        if len(row) != self.dimension:
            raise ValueError("constraint dimension mismatch")
        if not any(row):
            return  # 0 >= 0 constrains nothing
        for row in (row, tuple(-x for x in row)) if equality else (row,):
            # Classify: ``neg`` and ``nonzero`` are bit sets over every lane, dead
            # ids included; ``hit`` is the first basis direction the row sees.
            vals, neg, nonzero = self.lanes.dot(row)
            if self.debug:
                self._check_values(row, vals, neg, nonzero)
            alive = self.alive
            neg &= alive
            nonzero &= alive
            zero = alive ^ nonzero
            bit = 1 << len(self.rows)
            lin_prods = [dot(row, l) for l in self.lineality]
            hit = next((i for i, p in enumerate(lin_prods) if p), None)

            # New rays, read from the state before the step only.  Only the ids
            # of the zero rays, of the dropped ones and of the smaller sign side
            # are ever listed.
            if hit is not None:
                new, lineality = self._project(vals, nonzero, bit, lin_prods, hit)
            else:
                new = self._combine_pairs(vals, nonzero ^ neg, neg, bit)
                lineality = self.lineality
            dropped = nonzero if hit is not None else neg

            # Commit, the same for every kind of step: the dropped rays free both
            # slots; the zero rays and the new ones (next ids) are tight on the row.
            active = self._active
            for i in _ids(dropped):
                self._rays[i] = active[i] = None
            for i in _ids(zero):
                active[i] |= bit
            self.rows.append(row)
            self.cols.append(zero)
            self.lineality = lineality
            self.alive = alive ^ dropped
            self._admit([ray for ray, _ in new], [tight for _, tight in new])
            if len(self._rays) > (_DEAD_ID_FACTOR + 1) * self.alive.bit_count():
                self._reset(self.rays, self.active)
            if self.debug:
                self._check_columns()

    def _project(self, vals: Sequence[int], nonzero: int, bit: int, lin_prods: list[int],
                 hit: int) -> tuple[list[tuple[IntVec, int]], list[IntVec]]:
        """New rays and basis of a step whose row sees basis direction ``hit``.

        That direction leaves the basis as ``l0``, the row positive on it.  The
        rays in ``nonzero`` and the later directions are projected onto the
        row's hyperplane along it: ``s*r - v*l0``, a split's combination with
        ``-l0`` as the partner.  The projections are tight on the row as well;
        ``l0`` is tight on every earlier row.
        """
        lin = self.lineality
        l0, s = lin[hit], lin_prods[hit]
        if s < 0:
            l0, s = tuple(-x for x in l0), -s
        lineality = lin[:hit] + [primitive(s * a - p * b for a, b in zip(l, l0)) if p else l
                                 for l, p in zip(lin[hit + 1:], lin_prods[hit + 1:])]
        new = [(primitive(s * a - vals[i] * b for a, b in zip(self._rays[i], l0)),
                self._active[i] | bit) for i in _ids(nonzero)]
        new.append((l0, bit - 1))
        return new, lineality

    def _reset(self, rays: list[IntVec], active: list[int]) -> None:
        """Give ``rays`` (tight rows ``active``) ids 0..n-1; rebuild the rest."""
        self._rays, self._active, self.alive = [], [], 0
        self.cols = [0] * len(self.rows)
        self.lanes = Lanes(self.dimension)
        self._admit(rays, active)

    def _admit(self, rays: list[IntVec], tights: list[int]) -> None:
        """Give ``rays`` (tight rows ``tights``) the next ids: set them in
        ``alive`` and ``cols`` and pack them into the next lanes.

        The columns are filled a block of tight sets at a time: the block is
        packed as lanes of ``size`` bytes, and its part of row ``k``'s column
        is the bit set of the lanes with bit ``k`` set (``lanes._bit_set``,
        which also reads the sign sets), shifted to the block's first id.
        That is one step per row the block touches, not one per incidence.
        """
        start = len(self._rays)
        self._rays += rays
        self._active += tights
        self.alive |= ((1 << len(rays)) - 1) << start
        self.lanes.append(rays)
        size = (len(self.cols) + 7) // 8
        for first in range(0, len(tights), _BLOCK):
            block = tights[first:first + _BLOCK]
            data = b"".join([a.to_bytes(size, "little") for a in block])
            touched = 0
            for a in block:
                touched |= a
            for k in _ids(touched):
                self.cols[k] |= _bit_set(data, size, k) << start + first

    def _combine_pairs(self, vals: Sequence[int], pos: int, neg: int,
                       bit: int) -> list[tuple[IntVec, int]]:
        # A pair with enough common tight rows is adjacent iff no other ray
        # is tight on all of them: ANDing the live columns of the common
        # rows leaves exactly the pair's own two ids.  Every common column is
        # read: only an adjacent AND narrows to those two before its last
        # column, by a column or two, so checking for it costs more than it saves.
        # Only the partners that ``_partners`` finds for the rays of the
        # smaller side (``pos`` and ``neg`` are bit sets of live ids) are
        # tested, in ascending id order, which fixes the new rays' order.
        #
        # Most candidates are not adjacent, and a ray that refutes one pair
        # of a drive ray ``d`` often refutes many more.  So when a full AND
        # finds a pair not adjacent, each of the ids it leaves besides the
        # pair's own two, highest first, strips from ``d``'s remaining
        # partners every one it refutes, until none remain.  A ray ``w``
        # refutes ``(d, o)`` iff it is tight on every common row and
        # ``w != o``, that is, iff ``o`` is tight on none of the rows of ``d``
        # that ``w`` misses: the OR of those rows' columns, plus ``w`` itself,
        # is what stays.  ``w`` is never ``d``, which the AND left as one of
        # the pair's own ids.
        # Adjacency is only ever concluded by the full AND.  The common rows,
        # the witnesses and the rows they miss are popped from the top bit,
        # which leaves a smaller int at each step; a low-bit pop negates the
        # whole rest of the set.  Returns each new ray with its tight rows.
        drive, others = (neg, pos) if neg.bit_count() < pos.bit_count() else (pos, neg)
        rays, active, cols, alive = self._rays, self._active, self.cols, self.alive
        debug = self.debug
        need = max(self.dimension - len(self.lineality) - 2, 0)
        new = []
        candidates = []
        for d, hit in self._partners(_ids(drive), others, need):
            a = active[d]
            rd = rays[d]
            vd = abs(vals[d])
            bd = 1 << d
            passed = hit
            joined = 0
            while hit:
                bo = hit & -hit
                hit ^= bo
                o = bo.bit_length() - 1
                common = a & active[o]
                own = bd | bo
                tight = alive
                c = common
                while c:
                    k = c.bit_length() - 1
                    tight &= cols[k]
                    c ^= 1 << k
                if tight == own:
                    joined |= bo
                    # |v_d| r_o + |v_o| r_d, which is v_p r_m - v_m r_p for
                    # the positive ray p and the negative ray m of the pair.
                    vo = abs(vals[o])
                    new.append((primitive(vd * x + vo * y for x, y in zip(rays[o], rd)),
                                common | bit))
                    continue
                tight ^= own
                while tight and hit:
                    k = tight.bit_length() - 1
                    keep = 1 << k
                    tight ^= keep
                    missed = a & ~active[k]
                    while missed:
                        k = missed.bit_length() - 1
                        keep |= cols[k]
                        missed ^= 1 << k
                    hit &= keep
            if debug:
                # Every candidate, the stripped ones included, is checked
                # against the verdict the kernel reached for it.
                for o in _ids(passed):
                    self._check_adjacency(a & active[o], bool(joined >> o & 1))
                    candidates.append((d, o))
        if debug:
            self._check_candidates(pos, neg, need, candidates)
        return new

    def _partners(self, drive: list[int], others: int,
                  need: int) -> Iterator[tuple[int, int]]:
        """Count filter of a split: for each id ``d`` of ``drive``, one sign
        side, yields ``d`` and the bit set of the ids in ``others``, the other
        side, that share at least ``need`` tight rows with it, skipping empty
        sets.
        """
        active = self._active
        cols = self.cols
        if need == 0:
            for d in drive:
                yield d, others
            return
        # A saturating counter, bit-sliced over the other side's ids: plane
        # j holds bit j of every lane's count.  The drive ray's tight-row
        # columns enter it four at a time, highest row first, zero columns
        # filling the last group.
        # Invariant, after every group: a lane in ``live`` reads 2**w - need
        # plus the number of the drive ray's rows walked so far that it is
        # tight on.  Its count reaching ``need`` is a carry out of the top
        # plane, which moves it from ``live`` to ``hit``.  A group adds at
        # most 4 <= 2**w, so it carries a live lane out at most once.  Every
        # other lane counts on unmasked, but its carries are dropped.
        w = max(need.bit_length(), 2)
        start = [others if (2 ** w - need) >> j & 1 else 0 for j in range(w)]
        for d in drive:
            p0, p1, *upper = start
            live = others
            hit = 0
            # Popped from the top bit: ``_ids`` would format the whole bit
            # set as a string.
            a = active[d]
            rows = []
            while a:
                k = a.bit_length() - 1
                a ^= 1 << k
                rows.append(cols[k])
            rows += 0, 0, 0
            rows = iter(rows)
            for r0, r1, r2, r3 in zip(rows, rows, rows, rows):
                # Carry-save adders: two fold the rows into plane 0, a third
                # folds their weight-2 carries into plane 1; one carry ripples
                # on from plane 2.
                s = p0 ^ r0
                c0 = p0 & r0 | s & r1
                s ^= r1
                t = s ^ r2
                c1 = s & r2 | t & r3
                p0 = t ^ r3
                s = p1 ^ c0
                carry = p1 & c0 | s & c1
                p1 = s ^ c1
                for j, p in enumerate(upper):
                    upper[j] = p ^ carry
                    carry &= p
                    if not carry:
                        break
                else:
                    carry &= live
                    live ^= carry
                    hit |= carry
                    if not live:
                        break
            if hit:
                yield d, hit

    def _check_adjacency(self, common: int, combinatorial: bool) -> None:
        tight = [row for i, row in enumerate(self.rows) if common >> i & 1]
        algebraic = integer_rank(tight) == self.dimension - len(self.lineality) - 2
        if algebraic != combinatorial:
            raise AssertionError(
                "combinatorial and algebraic adjacency tests disagree"
            )

    def _check_candidates(self, pos: int, neg: int, need: int,
                          candidates: list[tuple[int, int]]) -> None:
        active = self._active
        expected = [(p, m) for p in _ids(pos) for m in _ids(neg)
                    if (active[p] & active[m]).bit_count() >= need]
        if sorted(map(sorted, candidates)) != sorted(map(sorted, expected)):
            raise AssertionError("count filter disagrees with the pairwise count")

    def _check_values(self, row: IntVec, vals: Sequence[int], neg: int,
                      nonzero: int) -> None:
        plain = {i: dot(row, r) for i, r in zip(_ids(self.alive), self.rays)}
        if any(vals[i] != v for i, v in plain.items()):
            raise AssertionError("packed lanes disagree with the plain dot product")
        if (neg & self.alive != _id_set(i for i, v in plain.items() if v < 0)
                or self.alive & ~nonzero != _id_set(i for i, v in plain.items() if not v)):
            raise AssertionError("packed sign sets disagree with the plain signs")

    def _check_columns(self) -> None:
        rays, active, lanes, alive = self._rays, self._active, self.lanes, self.alive
        if not len(rays) == len(active) == lanes.count:
            raise AssertionError("ray lists and lanes do not hold one entry per id")
        if any(alive != _id_set(i for i, x in enumerate(slots) if x is not None)
               for slots in (rays, active)):
            raise AssertionError("dead ray slots are not cleared")
        if ([c & alive for c in self.cols]
                != _transpose(zip(_ids(alive), self.active), [0] * len(self.rows))):
            raise AssertionError("incidence columns are not the transpose of active")


#: Sort keys of the static insertion orders; ``random:SEED`` is the other.
#: ``support`` inserts the sparsest rows first (ties lexicographic), which
#: keeps the intermediate ray sets of vertex enumeration small.
_ORDER_KEYS = {
    "given": lambda r: 0,
    "lexmin": lambda r: r,
    "support": lambda r: (len(r) - r.count(0), r),
}
ORDERS = ", ".join([*_ORDER_KEYS, "random:SEED"])
#: Default insertion order of each direction, chosen from measured peak
#: ray counts: ``support`` blows up the generator side of ``hull`` (2x3:
#: 3,679 peak rays against 1,044) but tames ``enumerate_vertices`` (1,548
#: against 9,371).
HULL_ORDER = "lexmin"
ENUM_ORDER = "support"


def _order_rows(rows: Iterable[IntVec], order: str) -> list[IntVec]:
    rows = list(dict.fromkeys(rows))
    if order.startswith("random:"):
        try:
            seed = parse_count(order.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad insertion order {order!r}") from None
        random.Random(seed).shuffle(rows)
        return rows
    try:
        key = _ORDER_KEYS[order]
    except KeyError:
        raise ValueError(f"unknown insertion order {order!r}") from None
    return sorted(rows, key=key)


def _run(dimension: int, steps: Sequence[tuple[IntVec, bool]], ray_cap: int | None,
         progress: ProgressFn | None, debug: bool) -> tuple[list[IntVec], tuple]:
    """Insert ``(row, is_equality)`` steps into the free cone of ``dimension``.

    Both conversion directions run here.  Returns the extreme rays and the
    reduced row echelon form of the lineality space.
    """
    if ray_cap is not None and ray_cap < 0:
        raise ValueError(f"ray cap must be non-negative, got {ray_cap}")
    pair = DDPair(dimension, debug=debug)
    for i, (row, equality) in enumerate(steps):
        pair.insert(row, equality=equality)
        live = pair.alive.bit_count()
        if ray_cap is not None and live > ray_cap:
            raise CapacityError(f"intermediate ray count {live} exceeds cap {ray_cap}")
        if progress is not None:
            progress(i + 1, len(steps), live)
    return pair.rays, rref(pair.lineality)


def hull(vrep: VRepresentation, order: str = HULL_ORDER, *,
         ray_cap: int | None = DEFAULT_RAY_CAP,
         progress: ProgressFn | None = None,
         debug: bool = False) -> HRepresentation:
    """Minimal constraint description of ``conv(vertices) + cone(rays)``.

    Every returned non-linearity row is a facet; linearity rows appear
    exactly when the polytope is not full-dimensional and encode its affine
    hull.  Output rows are canonically normalized and sorted, so the result
    does not depend on the insertion order.  More than ``ray_cap`` rays
    (``None``: no cap) after any insertion raise ``CapacityError``.
    """
    if not vrep.vertices:
        raise ValueError("hull requires at least one vertex")
    gens = vrep.integer_rows
    vertex_rows = gens[:len(vrep.vertices)]
    steps = [(g, False) for g in _order_rows(gens, order)]
    rays, (lin_reduced, lin_pivots) = _run(vrep.dimension + 1, steps,
                                           ray_cap, progress, debug)
    lin_rows = sorted(lin_reduced)

    facets = []
    for ray in rays:
        if lin_rows:
            ray = reduce_mod_rowspace(ray, lin_reduced, lin_pivots)
        # A ray tight on no input point is the homogenization facet
        # ("1 >= 0" on the affine hull); it is not a facet of the polytope.
        if all(dot(ray, g) != 0 for g in vertex_rows):
            continue
        facets.append(tuple(ray))
    facets.sort()

    return HRepresentation(
        dimension=vrep.dimension,
        rows=tuple(lin_rows) + tuple(facets),
        linearity=frozenset(range(len(lin_rows))),
        config=vrep.config,
    )


def enumerate_vertices(hrep: HRepresentation, order: str = ENUM_ORDER, *,
                       ray_cap: int | None = DEFAULT_RAY_CAP,
                       progress: ProgressFn | None = None,
                       debug: bool = False) -> VRepresentation:
    """All vertices and extreme rays of a constraint-described polyhedron.

    The system is homogenized, run through the kernel and de-homogenized:
    rays with positive leading coordinate scale to points, the rest stay
    directions.  An infeasible system yields the empty representation
    (no generators), not an error.  ``ray_cap`` is checked as in ``hull``.
    """
    d = hrep.dimension
    rows = [clear_to_int(row) for row in hrep.rows]
    eq_rows = [rows[i] for i in sorted(hrep.linearity)]
    ineq_rows = [rows[i] for i in hrep.inequality_indices]
    steps = [(r, True) for r in _order_rows(eq_rows, order)]
    steps.append(((1,) + (0,) * d, False))
    steps.extend((r, False) for r in _order_rows(ineq_rows, order))
    rays, (lin_reduced, _) = _run(d + 1, steps, ray_cap, progress, debug)

    points = []
    directions = []
    for r in rays:
        if r[0] > 0:
            points.append(tuple(x // r[0] if x % r[0] == 0 else Fraction(x, r[0])
                                for x in r[1:]))
        else:
            directions.append(primitive(r[1:]))
    if not points:
        return VRepresentation(dimension=d, vertices=(), rays=(), config=hrep.config)

    for l in lin_reduced:
        line = l[1:]
        directions.append(line)
        directions.append(tuple(-x for x in line))

    return VRepresentation(
        dimension=d,
        vertices=tuple(sorted(set(points))),
        rays=tuple(sorted(set(directions))),
        config=hrep.config,
    )


def contains(hrep: HRepresentation, point: Sequence[NumberLike]) -> bool:
    """Exact membership test: every row satisfied, equalities exactly.

    Row entries and coordinates must be exact numbers; a float raises
    ``TypeError``.  Each row and the homogenized point are scaled by a
    positive factor to integers, which keeps every sign.
    """
    if len(point) != hrep.dimension:
        raise ValueError(
            f"point of length {len(point)} in dimension {hrep.dimension}"
        )
    point = clear_to_int((1, *point))
    for i, row in enumerate(hrep.rows):
        value = dot(clear_to_int(row), point)
        if value < 0 or value and i in hrep.linearity:
            return False
    return True


def verify_facet(row: Sequence[NumberLike], vrep: VRepresentation) -> FacetReport:
    """Check one constraint row against a generator set.

    ``valid`` means every generator satisfies the row; ``is_facet``
    additionally requires the tight generators to span a flat of dimension
    one less than the generators' own affine hull, which may be lower than
    the ambient space (exact rank computation).
    """
    if len(row) != vrep.dimension + 1:
        raise ValueError(
            f"constraint of length {len(row)} in dimension {vrep.dimension}"
        )
    r = clear_to_int(row)
    valid = True
    tight = []
    for g in vrep.integer_rows:
        value = dot(r, g)
        if value < 0:
            valid = False
        elif value == 0:
            tight.append(g)
    is_facet = (valid and bool(tight)
                and integer_rank(tight) == vrep.rank - 1)
    return FacetReport(valid=valid, tight_count=len(tight), is_facet=is_facet)
