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
from typing import Sequence

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


def numbered_rows(
    source: HRepresentation | Sequence[Inequality],
    config: Configuration | None = None,
    rows: tuple[int, int] | None = None,
) -> list[tuple[int, tuple[int, ...], int]]:
    """``(1-based row, coefficients, rhs)`` of each inequality within ``rows``.

    An H-representation's rows are numbered as in its file, equalities
    included (they are skipped); a row ``(b, a)`` gives ``c = -a`` and
    ``rhs = b``, divided by the row's gcd: the fields of its ``Inequality``,
    without building one.  A row with an entry that is not an int, which
    ``math.gcd`` rejects, is cleared of denominators first.  A list's
    inequalities are numbered from 1 and read as they are.

    A source's own layout wins; ``config`` only fills in a missing one, and
    a source over another layout is an error.  ``dataclasses.replace(hrep,
    config=...)`` relabels an H-representation.  A range outside
    ``1..total`` or reversed is an error.
    """
    if isinstance(source, HRepresentation):
        layout = config or source.config
        if layout is None:
            raise ValueError("no configuration attached; pass one explicitly")
        if event_count(layout) != source.dimension:
            raise ValueError(
                f"configuration has {event_count(layout)} events but the "
                f"H-representation has dimension {source.dimension}"
            )
        _check_layout("the H-representation", source.config, config)
        numbered = []
        for i in source.inequality_indices:
            row = source.rows[i]
            try:
                g = math.gcd(*row)
            except TypeError:  # a Fraction or other non-int entry
                row, g = clear_to_int(row), 1
            if g != 1:
                row = [a // g for a in row]
            coefficients = tuple([-a for a in row[1:]])
            if not any(coefficients):
                raise ValueError("inequality needs at least one nonzero coefficient")
            numbered.append((i + 1, coefficients, row[0]))
        total = len(source.rows)
    else:
        numbered = []
        for i, q in enumerate(source, 1):
            _check_layout(f"inequality {i}", q.config, config)
            numbered.append((i, q.coefficients, q.rhs))
        if not numbered:
            raise ValueError("empty inequality list")
        total = len(numbered)
    if rows is not None:
        lo, hi = rows
        if lo < 1 or hi > total or lo > hi:
            raise ValueError(f"row range {lo}:{hi} out of bounds (1..{total})")
        numbered = [t for t in numbered if lo <= t[0] <= hi]
    return numbered


def _check_layout(name: str, own: Configuration | None,
                  config: Configuration | None) -> None:
    """Reject a source whose own layout is not ``config``, when both are known."""
    if own is not None and config is not None and own != config:
        raise ValueError(
            f"{name} is over the layout {own} ({event_count(own)} events), "
            f"not {config} ({event_count(config)} events)"
        )


def from_hrep(hrep: HRepresentation, config: Configuration | None = None) -> list[Inequality]:
    """Every inequality row as an ``Inequality``, read by ``numbered_rows``."""
    numbered = numbered_rows(hrep, config)
    config = hrep.config or config
    return [Inequality(c, rhs, config) for _, c, rhs in numbered]


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
    r"\s*(?P<sign>[+-])?\s*(?P<coeff>[0-9]+)?\s*(?P<label>(?:[a-z][0-9]+)+)"
)
_RHS_RE = re.compile(r"\s*[+-]?[0-9]+\s*")


def parse_text(text: str, config: Configuration) -> Inequality:
    """Inverse of ``to_text`` (whitespace and term order are free).

    Accepts ASCII ``<=`` plus the unicode relation and minus signs; terms
    look like ``3 a1b2``, ``-a1`` or ``+2 b1``.  Numbers are ASCII digits
    only: ``1_0`` or a non-ASCII digit is an error, not the number ``int``
    would read.
    """
    normalized = text.replace("≤", "<=").replace("−", "-")
    if "<=" not in normalized:
        raise ParseError(f"missing relation '<=' in {text!r}")
    lhs, _, rhs_text = normalized.partition("<=")
    if not _RHS_RE.fullmatch(rhs_text):
        raise ParseError(f"right-hand side {rhs_text.strip()!r} is not an integer")
    rhs = int(rhs_text)
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
