"""Canonical integer inequalities over event coordinates and their text form.

A constraint row ``(b, a)`` with ``b + a.p >= 0`` is presented to humans as
``sum(c_e p_e) <= rhs`` with ``c = -a`` and ``rhs = b``, coefficients scaled
to coprime integers.  The text rendering lists terms sorted by event label,
matching the usual computer-algebra printouts.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

from .core import (
    Configuration,
    NumberLike,
    ParseError,
    enumerate_events,
    event_count,
    label_index,
)
from .linalg import clear_to_int
from .polyhedra import HRepresentation


@dataclass(frozen=True)
class Inequality:
    """``sum(coefficients[e] * p_e) <= rhs`` in canonical event order."""

    coefficients: tuple[int, ...]
    rhs: int
    config: Configuration = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.coefficients) != event_count(self.config):
            raise ValueError(
                f"expected {event_count(self.config)} coefficients, "
                f"got {len(self.coefficients)}"
            )
        if not any(self.coefficients):
            raise ValueError("inequality needs at least one nonzero coefficient")
        g = math.gcd(*self.coefficients, self.rhs)
        if g > 1:
            object.__setattr__(
                self, "coefficients", tuple(c // g for c in self.coefficients)
            )
            object.__setattr__(self, "rhs", self.rhs // g)

    def evaluate(self, probabilities) -> NumberLike:
        """Left-hand side minus right-hand side (positive means violated)."""
        return sum(c * p for c, p in zip(self.coefficients, probabilities)) - self.rhs

    def to_hrow(self) -> tuple[int, ...]:
        """Embed back as a constraint row ``b + a.p >= 0``."""
        return (self.rhs,) + tuple(-c for c in self.coefficients)

    def __str__(self) -> str:
        return to_text(self)


def from_hrep(hrep: HRepresentation, config: Configuration | None = None) -> list[Inequality]:
    """All non-linearity rows of an H-representation, order preserved.

    Integer rows go to ``Inequality`` as they are, which divides out their
    gcd; only when an entry is not an int are the rows cleared of
    denominators first.
    """
    config = config or hrep.config
    if config is None:
        raise ValueError("no configuration attached; pass one explicitly")
    if event_count(config) != hrep.dimension:
        raise ValueError(
            f"configuration has {event_count(config)} events but the "
            f"H-representation has dimension {hrep.dimension}"
        )
    rows = [hrep.rows[i] for i in hrep.inequality_indices]
    if set(map(type, chain.from_iterable(rows))) != {int}:
        rows = [clear_to_int(row) for row in rows]
    return [Inequality(tuple([-a for a in row[1:]]), row[0], config) for row in rows]


@lru_cache(maxsize=32)
def _labels(config: Configuration) -> tuple[str, ...]:
    """The rendered event labels of a layout, in canonical order."""
    return tuple(ev.label() for ev in enumerate_events(config))


def to_text(ineq: Inequality) -> str:
    """Human-readable form, e.g. ``a1 - a1b1 + b1 <= 1``.

    Unit coefficients are elided; terms are sorted by event label.
    """
    terms = sorted(
        (label, c) for label, c in zip(_labels(ineq.config), ineq.coefficients) if c
    )
    parts: list[str] = []
    for label, c in terms:
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        body = label if mag == 1 else f"{mag} {label}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts) + f" <= {ineq.rhs}"


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<coeff>\d+)?\s*(?P<label>(?:[a-z]\d+)+)"
)


def parse_text(text: str, config: Configuration) -> Inequality:
    """Inverse of ``to_text`` (whitespace and term order are free).

    Accepts ASCII ``<=`` plus the unicode relation and minus signs; terms
    look like ``3 a1b2``, ``-a1`` or ``+2 b1``.
    """
    normalized = text.replace("≤", "<=").replace("−", "-")
    if "<=" not in normalized:
        raise ParseError(f"missing relation '<=' in {text!r}")
    lhs, _, rhs_text = normalized.partition("<=")
    try:
        rhs = int(rhs_text.strip())
    except ValueError:
        raise ParseError(f"right-hand side {rhs_text.strip()!r} is not an integer")
    index = label_index(config)
    coefficients = [0] * event_count(config)
    pos = 0
    seen_any = False
    while pos < len(lhs):
        if lhs[pos].isspace():
            pos += 1
            continue
        m = _TERM_RE.match(lhs, pos)
        if m is None:
            raise ParseError(f"malformed term near {lhs[pos:].strip()!r}")
        label = m.group("label")
        if label not in index:
            raise ParseError(f"unknown event token {label!r}")
        coeff = int(m.group("coeff") or 1)
        if m.group("sign") == "-":
            coeff = -coeff
        if m.group("sign") is None and seen_any:
            raise ParseError(f"missing sign before term {label!r}")
        coefficients[index[label]] += coeff
        seen_any = True
        pos = m.end()
    if not seen_any:
        raise ParseError(f"no terms found in {text!r}")
    return Inequality(coefficients=tuple(coefficients), rhs=rhs, config=config)
