"""Experiment layout, event coordinate system and exact scalars.

Every module in the package shares the conventions defined here: event
coordinates are indexed by the canonical event order of a configuration,
and all polyhedral data is exact (arbitrary-precision rationals).
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Union

#: Anything accepted where an exact number is expected.
NumberLike = Union[int, Fraction]


class CorrPolyError(Exception):
    """Base class for errors raised by this package."""


class ParseError(CorrPolyError):
    """Malformed textual input (files, inequalities, angle expressions)."""


class CapacityError(CorrPolyError):
    """A configurable size guard was exceeded (vertex or ray cap)."""


def _check_particles(particles: int) -> None:
    if particles > len(string.ascii_lowercase):
        raise ValueError("at most 26 particles supported (letter labels)")


@dataclass(frozen=True)
class Configuration:
    """Measurement layout: one entry per particle giving its setting count.

    Uniform layouts (n particles, m settings each) are the common case but
    per-particle setting counts may differ.
    """

    settings: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.settings) < 1:
            raise ValueError("configuration needs at least one particle")
        if any(m < 1 for m in self.settings):
            raise ValueError("every particle needs at least one setting")
        _check_particles(len(self.settings))

    @classmethod
    def uniform(cls, particles: int, measurements: int) -> "Configuration":
        _check_particles(particles)  # before a huge count builds its tuple
        return cls((measurements,) * particles)

    @property
    def particles(self) -> int:
        return len(self.settings)

    def proposition_pairs(self) -> list[tuple[int, int]]:
        """(particle, setting) pairs in particle-major order."""
        return [(p, s) for p, m in enumerate(self.settings) for s in range(m)]

    def __str__(self) -> str:
        return ",".join(str(m) for m in self.settings)


@dataclass(frozen=True)
class EventLabel:
    """A single or joint detection event.

    ``particles`` lists the supporting particles in ascending order and
    ``choices`` the chosen setting for each of them.  Within one particle
    only a single setting can take part in an event.
    """

    particles: tuple[int, ...]
    choices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.particles:
            raise ValueError("event support must be non-empty")
        if len(self.particles) != len(self.choices):
            raise ValueError("one setting choice per supported particle")
        if list(self.particles) != sorted(set(self.particles)):
            raise ValueError("support must be strictly ascending particles")
        object.__setattr__(self, "_label", "".join(
            f"{string.ascii_lowercase[p]}{s + 1}"
            for p, s in zip(self.particles, self.choices)
        ))

    @property
    def arity(self) -> int:
        return len(self.particles)

    def label(self) -> str:
        """Render as concatenated letter+setting tokens, e.g. ``a1b2c1``."""
        return self._label

    def __str__(self) -> str:
        return self.label()


@lru_cache(maxsize=32)
def enumerate_events(config: Configuration) -> tuple[EventLabel, ...]:
    """Canonical ordered events of a configuration, built once per layout.

    Order: support cardinality ascending, then support lexicographically,
    then setting choices lexicographically.  All coefficient vectors and
    file columns in this package use this order.  The tuple is cached, so
    every module reads the same events and labels.
    """
    n = config.particles
    return tuple(
        EventLabel(support, choices)
        for k in range(1, n + 1)
        for support in itertools.combinations(range(n), k)
        for choices in itertools.product(*[range(config.settings[p]) for p in support])
    )


def event_count(config: Configuration) -> int:
    """Closed form for ``len(enumerate_events(config))``."""
    return math.prod(m + 1 for m in config.settings) - 1


def check_event_count(config: Configuration | None, dimension: int, name: str) -> None:
    """Reject a layout whose event count is not the ``dimension`` of ``name``."""
    if config is not None and event_count(config) != dimension:
        raise ValueError(f"configuration has {event_count(config)} events but "
                         f"{name} has dimension {dimension}")


def label_index(config: Configuration) -> dict[str, int]:
    """Map from rendered event label to canonical coordinate index."""
    return {ev.label(): i for i, ev in enumerate(enumerate_events(config))}


@dataclass(frozen=True)
class ProbabilityVector:
    """One probability per event, in canonical event order."""

    values: tuple
    config: Configuration = field(repr=False)

    def __post_init__(self) -> None:
        if self.config is None:
            raise ValueError("a probability vector needs a layout")
        check_event_count(self.config, len(self.values), "the probability vector")
        for v in self.values:
            if not 0 <= v <= 1:
                raise ValueError(f"probability {v!r} outside [0, 1]")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def as_rational(value: NumberLike) -> Fraction:
    """Coerce an exact number-like value to ``Fraction``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact number, got {type(value).__name__}")


#: Decimal tokens snap to the nearest rational with at most this denominator.
MAX_DENOMINATOR = 10**9


def parse_number(token: str) -> NumberLike:
    """Parse an exact numeric token: integer, ``p/q`` or decimal.

    Decimal tokens (cdd's ``real`` number type) are snapped to the nearest
    rational with denominator at most ``MAX_DENOMINATOR``.  Digits are
    ASCII and ``_`` is no separator, as in cdd, although Python's ``int``
    and ``Fraction`` accept both.
    """
    token = token.strip()
    if not token.isascii() or "_" in token:
        raise ParseError(f"bad numeric token {token!r}")
    try:
        if "/" in token:
            value = Fraction(token)
        elif "." in token or "e" in token or "E" in token:
            value = Fraction(token).limit_denominator(MAX_DENOMINATOR)
        else:
            return int(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad numeric token {token!r}") from exc
    return value if value.denominator != 1 else int(value)


def parse_count(token: str) -> int:
    """A non-negative integer in ASCII digits only, as cdd writes counts.

    ``int`` would also read a sign, surrounding spaces, ``_`` separators
    and non-ASCII digits; here each of them is a ``ValueError``.
    """
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"expected a count in ASCII digits, got {token!r}")
    return int(token)


def format_number(value: NumberLike) -> str:
    """Render an exact number as cdd writes it: bare integer or ``p/q``."""
    return str(as_rational(value))
