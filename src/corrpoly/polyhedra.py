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

from .core import CapacityError, Configuration, NumberLike
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

ProgressFn = Callable[[int, int, int], None]


@dataclass(frozen=True)
class HRepresentation:
    """Constraint description: rows ``b + a.x >= 0``, some marked equalities.

    ``linearity`` holds the (0-based) indices of rows to be read as
    equalities; they encode the affine hull when the polyhedron is not
    full-dimensional.
    """

    dimension: int
    rows: tuple[tuple[NumberLike, ...], ...]
    linearity: frozenset[int] = frozenset()
    config: Configuration | None = None

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != self.dimension + 1:
                raise ValueError(
                    f"constraint of length {len(row)} in dimension {self.dimension}"
                )
            if not any(row):
                raise ValueError("all-zero constraint row")
        for i in self.linearity:
            if not 0 <= i < len(self.rows):
                raise ValueError(f"linearity index {i} out of range")

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


def _transpose(active: Iterable[tuple[int, int]], n_rows: int) -> list[int]:
    """Per row, the bit set of the ids of the ``(id, tight rows)`` pairs holding it."""
    cols = [0] * n_rows
    for i, a in active:
        b = 1 << i
        while a:
            low = a & -a
            cols[low.bit_length() - 1] |= b
            a ^= low
    return cols


class DDPair:
    """Mutable double description state over an ambient cone dimension.

    Invariant: the represented cone is ``span(lineality) + cone(rays)``
    where ``rays`` are exactly the extreme rays modulo the lineality space
    of the cone cut out by the processed rows.

    The rays are keyed by an integer id: ``_rays[i]`` is ray ``i`` and
    ``_active[i]`` the bit set of the processed rows tight at it, both in
    ascending id order, which is creation order.  The same incidences are
    kept transposed for the adjacency test: ``alive`` is the bit set of the
    keys of ``_rays`` and ``cols[k] & alive`` is exactly the bit set of the
    ids of the rays tight on ``rows[k]``.  Ids are never reused until
    ``_renumber`` rebuilds ``_rays``, ``_active`` and ``cols`` densely, so a
    column may still hold dead ids, which ``alive`` masks out.
    """

    __slots__ = ("dimension", "rows", "_rays", "_active", "lineality", "debug",
                 "cols", "alive", "next_id")

    def __init__(self, dimension: int, debug: bool = False):
        if dimension < 1:
            raise ValueError("cone dimension must be positive")
        self.dimension = dimension
        self.rows: list[IntVec] = []
        self._rays: dict[int, IntVec] = {}
        self._active: dict[int, int] = {}
        self.lineality: list[IntVec] = [
            tuple(1 if j == i else 0 for j in range(dimension))
            for i in range(dimension)
        ]
        self.debug = debug
        self.cols: list[int] = []
        self.alive = 0
        self.next_id = 0

    @property
    def rays(self) -> list[IntVec]:
        """The extreme rays in id order: kept rays first, then new ones."""
        return list(self._rays.values())

    @property
    def active(self) -> list[int]:
        """The tight-row bit set of each ray of ``rays``, in the same order."""
        return list(self._active.values())

    def insert(self, row: Sequence[NumberLike], equality: bool = False,
               ray_cap: int | None = DEFAULT_RAY_CAP) -> None:
        row = clear_to_int(row)
        if len(row) != self.dimension:
            raise ValueError("constraint dimension mismatch")
        if not any(row):
            return  # 0 >= 0 constrains nothing

        lin_prods = [dot(row, l) for l in self.lineality]
        hit = next((i for i, p in enumerate(lin_prods) if p), None)
        if hit is not None:
            self._consume_lineality(row, hit, lin_prods, equality)
        else:
            self._split(row, equality)
        if self.next_id > (_DEAD_ID_FACTOR + 1) * len(self._rays):
            self._renumber()
        if self.debug:
            self._check_columns()
        if ray_cap is not None and len(self._rays) > ray_cap:
            raise CapacityError(
                f"intermediate ray count {len(self._rays)} exceeds cap {ray_cap}"
            )

    def _split(self, row: IntVec, equality: bool) -> None:
        k = len(self.rows)
        bit = 1 << k
        rays = self._rays
        active = self._active
        vals = {i: dot(row, r) for i, r in rays.items()}
        pos = [i for i, v in vals.items() if v > 0]
        neg = [i for i, v in vals.items() if v < 0]
        zero = [i for i, v in vals.items() if not v]
        self.rows.append(row)
        self.cols.append(_id_set(zero))
        new = self._combine_pairs(vals, pos, neg, bit) if pos and neg else []

        dropped = neg + pos if equality else neg
        for i in dropped:
            del rays[i], active[i]
        for i in zero:
            active[i] |= bit
        # Each new ray's id joins the columns of its tight rows, this one's
        # included; the dropped rays' ids leave ``alive``.
        born = {}
        for i, (ray, tight) in enumerate(new, self.next_id):
            rays[i] = ray
            born[i] = tight
        active.update(born)
        self.cols = [c | t for c, t in zip(self.cols, _transpose(born.items(), k + 1))]
        self.alive = (self.alive & ~_id_set(dropped)) | _id_set(born)
        self.next_id += len(new)

    def _consume_lineality(self, row: IntVec, hit: int,
                           lin_prods: list[int], equality: bool) -> None:
        # The constraint sees the lineality space: one basis direction moves
        # to the pointed part (or disappears for an equality) and everything
        # else is projected onto the constraint hyperplane along it.
        l0 = self.lineality[hit]
        s = lin_prods[hit]
        if s < 0:
            l0 = tuple(-x for x in l0)
            s = -s
        new_lin = []
        for i, l in enumerate(self.lineality):
            if i == hit:
                continue
            p = lin_prods[i]
            new_lin.append(primitive(s * a - p * b for a, b in zip(l, l0)) if p else l)
        self.lineality = new_lin

        k = len(self.rows)
        bit = 1 << k
        rays = self._rays
        for i, r in rays.items():
            v = dot(row, r)
            if v:
                rays[i] = primitive(s * a - v * b for a, b in zip(r, l0))
        self._active = {i: a | bit for i, a in self._active.items()}
        self.cols.append(self.alive)  # every ray is tight on the new row
        if not equality:
            i = self.next_id
            b = 1 << i
            rays[i] = l0
            self._active[i] = bit - 1  # tight on every previous row, not this one
            self.cols[:k] = [c | b for c in self.cols[:k]]
            self.alive |= b
            self.next_id += 1
        self.rows.append(row)

    def _renumber(self) -> None:
        self._rays = dict(enumerate(self._rays.values()))
        self._active = dict(enumerate(self._active.values()))
        self.cols = _transpose(self._active.items(), len(self.rows))
        self.next_id = len(self._rays)
        self.alive = (1 << self.next_id) - 1

    def _combine_pairs(self, vals: dict[int, int], pos: list[int], neg: list[int],
                       bit: int) -> list[tuple[IntVec, int]]:
        # A pair with enough common tight rows is adjacent iff no other ray
        # is tight on all of them: ANDing the live columns of the common
        # rows leaves exactly the pair's own two ids.  Those two are in
        # every such column, so the AND can stop once nothing else is left.
        # Only the partners that ``_partners`` finds for the rays of the
        # smaller side are tested.  Returns each new ray with its tight rows.
        rays = self._rays
        active = self._active
        cols = self.cols
        alive = self.alive
        debug = self.debug
        need = max(self.dimension - len(self.lineality) - 2, 0)
        drive = neg if len(neg) < len(pos) else pos
        new = []
        candidates = []
        for d, hit in self._partners(drive, need):
            a = active[d]
            rd = rays[d]
            vd = abs(vals[d])
            bd = 1 << d
            while hit:
                bo = hit & -hit
                hit ^= bo
                o = bo.bit_length() - 1
                common = a & active[o]
                own = bd | bo
                tight = alive
                c = common
                while c and tight != own:
                    low = c & -c
                    tight &= cols[low.bit_length() - 1]
                    c ^= low
                adjacent = tight == own
                if debug:
                    self._check_adjacency(common, adjacent)
                    candidates.append((d, o))
                if adjacent:
                    # |v_d| r_o + |v_o| r_d, which is v_p r_m - v_m r_p for
                    # the positive ray p and the negative ray m of the pair.
                    vo = abs(vals[o])
                    new.append((primitive(vd * x + vo * y for x, y in zip(rays[o], rd)),
                                common | bit))
        if debug:
            self._check_candidates(pos, neg, need, candidates)
        return new

    def _partners(self, drive: list[int], need: int) -> Iterator[tuple[int, int]]:
        """Count filter of a split whose new row's column is ``cols[-1]``.

        For each ray id ``d`` of ``drive`` (one sign side), yields ``d``
        and the bit set of the ids of the rays on the other sign side that
        share at least ``need`` tight rows with it, skipping empty sets.
        """
        active = self._active
        cols = self.cols
        # alive = drive + other side + zero rays, and cols[-1] holds the
        # zero rays' ids.
        others = self.alive ^ cols[-1] ^ _id_set(drive)
        if need == 0:
            for d in drive:
                yield d, others
            return
        # A saturating counter, bit-sliced over the other side's ids: plane
        # j holds bit j of every lane's count.  Invariant: a lane in ``live``
        # reads 2**w - need plus the number of the drive ray's rows walked
        # so far that it is tight on.  Its count reaching ``need`` is a
        # carry out of the top plane, which moves it from ``live`` to
        # ``hit``; its planes wrap to 0 but no longer count.
        w = need.bit_length()
        start = [others if (2 ** w - need) >> j & 1 else 0 for j in range(w)]
        for d in drive:
            a = active[d]
            if a.bit_count() < need:
                continue
            planes = start.copy()
            live = others
            hit = 0
            while a and live:
                low = a & -a
                a ^= low
                carry = cols[low.bit_length() - 1] & live
                for j in range(w):
                    p = planes[j]
                    planes[j] = p ^ carry
                    carry &= p
                    if not carry:
                        break
                else:
                    live ^= carry
                    hit |= carry
            if hit:
                yield d, hit

    def _check_adjacency(self, common: int, combinatorial: bool) -> None:
        tight = [row for i, row in enumerate(self.rows) if common >> i & 1]
        algebraic = integer_rank(tight) == self.dimension - len(self.lineality) - 2
        if algebraic != combinatorial:
            raise AssertionError(
                "combinatorial and algebraic adjacency tests disagree"
            )

    def _check_candidates(self, pos: list[int], neg: list[int], need: int,
                          candidates: list[tuple[int, int]]) -> None:
        active = self._active
        expected = [(p, m) for p in pos for m in neg
                    if (active[p] & active[m]).bit_count() >= need]
        if sorted(map(sorted, candidates)) != sorted(map(sorted, expected)):
            raise AssertionError("count filter disagrees with the pairwise count")

    def _check_columns(self) -> None:
        ids = list(self._rays)
        alive = _id_set(ids)
        if (ids != list(self._active) or ids != sorted(ids) or alive != self.alive
                or [c & alive for c in self.cols]
                != _transpose(self._active.items(), len(self.rows))):
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
            seed = int(order.split(":", 1)[1])
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
    pair = DDPair(dimension, debug=debug)
    for i, (row, equality) in enumerate(steps):
        pair.insert(row, equality=equality, ray_cap=ray_cap)
        if progress is not None:
            progress(i + 1, len(steps), len(pair.rays))
    return pair.rays, rref(pair.lineality)


def hull(vrep: VRepresentation, order: str = HULL_ORDER, *,
         ray_cap: int | None = DEFAULT_RAY_CAP,
         progress: ProgressFn | None = None,
         debug: bool = False) -> HRepresentation:
    """Minimal constraint description of ``conv(vertices) + cone(rays)``.

    Every returned non-linearity row is a facet; linearity rows appear
    exactly when the polytope is not full-dimensional and encode its affine
    hull.  Output rows are canonically normalized and sorted, so the result
    does not depend on the insertion order.
    """
    if not vrep.vertices:
        raise ValueError("hull requires at least one vertex")
    gens = [clear_to_int(g) for g in vrep.homogenized]
    vertex_rows = gens[:len(vrep.vertices)]
    steps = [(g, False) for g in _order_rows(gens, order)]
    rays, (lin_reduced, lin_pivots) = _run(vrep.dimension + 1, steps,
                                           ray_cap, progress, debug)
    lin_rows = sorted(clear_to_int(r) for r in lin_reduced)

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
    (no generators), not an error.
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
            points.append(tuple(_tidy(Fraction(x, r[0])) for x in r[1:]))
        else:
            directions.append(primitive(r[1:]))
    if not points:
        return VRepresentation(dimension=d, vertices=(), rays=(), config=hrep.config)

    for l in lin_reduced:
        line = clear_to_int(l)[1:]
        directions.append(line)
        directions.append(tuple(-x for x in line))

    return VRepresentation(
        dimension=d,
        vertices=tuple(sorted(set(points))),
        rays=tuple(sorted(set(directions))),
        config=hrep.config,
    )


def _tidy(f: Fraction) -> NumberLike:
    return int(f) if f.denominator == 1 else f


def contains(hrep: HRepresentation, point: Sequence[NumberLike]) -> bool:
    """Exact membership test: every row satisfied, equalities exactly."""
    if len(point) != hrep.dimension:
        raise ValueError(
            f"point of length {len(point)} in dimension {hrep.dimension}"
        )
    for i, row in enumerate(hrep.rows):
        value = row[0] + sum(a * x for a, x in zip(row[1:], point))
        if i in hrep.linearity:
            if value != 0:
                return False
        elif value < 0:
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
    gens = [clear_to_int(g) for g in vrep.homogenized]
    for g in gens:
        value = dot(r, g)
        if value < 0:
            valid = False
        elif value == 0:
            tight.append(g)
    is_facet = (valid and bool(tight)
                and integer_rank(tight) == vrep.rank - 1)
    return FacetReport(valid=valid, tight_count=len(tight), is_facet=is_facet)
