"""Truth-table vertex generation (V-representation of correlation polytopes)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

from .core import (
    CapacityError,
    Configuration,
    NumberLike,
    check_event_count,
    enumerate_events,
    event_count,
)
from .linalg import IntVec, clear_to_int, integer_rank

#: Refuse to materialize truth tables larger than this unless overridden.
DEFAULT_VERTEX_CAP = 2**24


@dataclass(frozen=True)
class VRepresentation:
    """Generator description of a polyhedron: points plus ray directions.

    Truth-table output consists of 0/1 vertex rows only.  General instances
    (read from files or produced by vertex enumeration) may carry rays; a
    representation without any generators denotes the empty polyhedron.
    A ``config`` labels the coordinates, so its event count must be
    ``dimension``.
    """

    dimension: int
    vertices: tuple[tuple[NumberLike, ...], ...]
    rays: tuple[tuple[NumberLike, ...], ...] = ()
    config: Configuration | None = None

    def __post_init__(self) -> None:
        for row in chain(self.vertices, self.rays):
            if len(row) != self.dimension:
                raise ValueError(
                    f"generator of length {len(row)} in dimension {self.dimension}"
                )
        check_event_count(self.config, self.dimension, "the V-representation")

    @property
    def is_empty(self) -> bool:
        return not self.vertices and not self.rays

    @property
    def homogenized(self) -> tuple[tuple[NumberLike, ...], ...]:
        """cdd generator rows: ``(1, v)`` per vertex, then ``(0, r)`` per ray."""
        return (tuple((1,) + tuple(v) for v in self.vertices)
                + tuple((0,) + tuple(r) for r in self.rays))

    @cached_property
    def integer_rows(self) -> tuple[IntVec, ...]:
        """The ``homogenized`` rows scaled to primitive integer vectors, computed once."""
        return tuple(clear_to_int(g) for g in self.homogenized)

    @cached_property
    def rank(self) -> int:
        """Rank of the ``homogenized`` rows, computed once per representation."""
        return integer_rank(self.integer_rows)


def _event_members(config: Configuration) -> list[list[int]]:
    """Each canonical event's positions in ``config.proposition_pairs()``.

    On a vertex, an event's coordinate is the AND (the minimum) of the
    outcome bits at its positions: a single event copies its bit.
    """
    position = {prop: i for i, prop in enumerate(config.proposition_pairs())}
    return [[position[prop] for prop in zip(ev.particles, ev.choices)]
            for ev in enumerate_events(config)]


def vertex_for_assignment(
    config: Configuration, outcomes: Sequence[int]
) -> tuple[int, ...]:
    """Vertex row for one 0/1 outcome assignment to all elementary propositions.

    ``outcomes`` holds one bit per (particle, setting) pair in particle-major
    order.  Single-event coordinates copy their bit; every joint coordinate is
    the product (logical AND) of its constituents' bits.
    """
    k = sum(config.settings)
    if len(outcomes) != k:
        raise ValueError(f"expected {k} outcome bits, got {len(outcomes)}")
    for bit in outcomes:
        if bit not in (0, 1):
            raise ValueError(f"outcome bits must be 0 or 1, got {bit!r}")
    return tuple(min(outcomes[i] for i in members)
                 for members in _event_members(config))


def truth_table(
    config: Configuration, max_rows: int = DEFAULT_VERTEX_CAP
) -> VRepresentation:
    """All vertices of the correlation polytope of ``config``.

    Rows enumerate every 0/1 assignment to the elementary propositions with
    the first particle's first setting as the fastest-varying bit, so the
    row order reproduces the standard truth-table listings.  A negative
    ``max_rows`` is a ``ValueError``; a table above it a ``CapacityError``.
    """
    if max_rows < 0:
        raise ValueError(f"vertex cap must be non-negative, got {max_rows}")
    k = sum(config.settings)
    if k >= max_rows.bit_length():  # 2**k > max_rows, without building 2**k
        raise CapacityError("truth table would have more rows than the vertex cap; "
                            "raise the cap to proceed")
    event_bits = _event_members(config)
    rows = []
    for index in range(1 << k):
        bits = [(index >> i) & 1 for i in range(k)]
        rows.append(tuple(min(bits[i] for i in members) for members in event_bits))
    return VRepresentation(
        dimension=event_count(config),
        vertices=tuple(rows),
        config=config,
    )
