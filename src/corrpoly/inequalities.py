"""Canonical integer inequalities over event coordinates and their text form.

A constraint row ``(b, a)`` with ``b + a.p >= 0`` is presented to humans as
``sum(c_e p_e) <= rhs`` with ``c = -a`` and ``rhs = b``, coefficients scaled
to coprime integers.  The text rendering lists terms sorted by event label,
matching the usual computer-algebra printouts.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Sequence

from .core import (
    Configuration,
    NumberLike,
    ParseError,
    ProbabilityVector,
    check_event_count,
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
        if self.config is None:
            raise ValueError("an inequality needs a layout")
        check_event_count(self.config, len(self.coefficients), "the inequality")
        if not any(self.coefficients):
            raise ValueError("inequality needs at least one nonzero coefficient")
        g = math.gcd(self.rhs, *self.coefficients)
        # rows read by normalised_row are primitive tuples already
        if g > 1 or type(self.coefficients) is not tuple:
            object.__setattr__(self, "coefficients", tuple([c // g for c in self.coefficients]))
            object.__setattr__(self, "rhs", self.rhs // g)

    def evaluate(self, probabilities) -> NumberLike:
        """Left-hand side minus right-hand side (positive means violated) at a
        ``ProbabilityVector`` over this layout or one probability per event.
        """
        if isinstance(probabilities, ProbabilityVector):
            _check_layout("the probability vector", probabilities.config, self.config)
        elif len(probabilities) != len(self.coefficients):
            raise ValueError(f"{len(probabilities)} probabilities for "
                             f"{len(self.coefficients)} events")
        return sum(c * p for c, p in zip(self.coefficients, probabilities)) - self.rhs

    def to_hrow(self) -> tuple[int, ...]:
        """Embed back as a constraint row ``b + a.p >= 0``."""
        return (self.rhs,) + tuple(-c for c in self.coefficients)

    def __str__(self) -> str:
        return to_text(self)


def numbered_rows(source: HRepresentation | Sequence[Inequality],
                  config: Configuration | None = None, rows: tuple[int, int] | None = None,
                  ) -> list[tuple[int, tuple[int, ...], int]]:
    """``(row, coefficients, rhs)``: ``selected_rows``, each read by ``normalised_row``."""
    return [(i, *normalised_row(row)) for i, row in selected_rows(source, config, rows)]


def selected_rows(source: HRepresentation | Sequence[Inequality],
                  config: Configuration | None = None, rows: tuple[int, int] | None = None,
                  ) -> list[tuple[int, tuple]]:
    """``(1-based row, (b, a))`` of each inequality within ``rows``, as read.

    An H-representation's rows are numbered as in its file, equalities
    included (they are skipped).  A list's inequalities are numbered from 1
    and give their ``to_hrow``.

    A source's own layout wins; ``config`` only fills in a missing one, and
    a source over another layout is an error (see ``with_layout``).
    ``dataclasses.replace(hrep, config=...)`` relabels an H-representation.
    A range outside ``1..total`` or reversed is an error.
    """
    if isinstance(source, HRepresentation):
        source = with_layout(source, config, "the H-representation")
        if source.config is None:
            raise ValueError("no configuration attached; pass one explicitly")
        selected = ([(i + 1, source.rows[i]) for i in source.inequality_indices]
                    if source.linearity else list(enumerate(source.rows, 1)))
        total = len(source.rows)
    else:
        selected = []
        for i, q in enumerate(source, 1):
            _check_layout(f"inequality {i}", q.config, config)
            selected.append((i, q.to_hrow()))
        if not selected:
            raise ValueError("empty inequality list")
        total = len(selected)
    if rows is not None:
        lo, hi = rows
        if lo < 1 or hi > total or lo > hi:
            raise ValueError(f"row range {lo}:{hi} out of bounds (1..{total})")
        selected = [t for t in selected if lo <= t[0] <= hi]
    return selected


def normalised_row(row: Sequence) -> tuple[tuple[int, ...], int]:
    """``(c, rhs)`` of a row ``(b, a)``, the fields of its ``Inequality``:
    ``c = -a`` and ``rhs = b`` divided by their gcd, denominators cleared
    first; a row with no nonzero coefficient is a ``ValueError``."""
    try:
        g = math.gcd(*row)
    except TypeError:  # a Fraction or other non-int entry
        row, g = clear_to_int(row), 1
    if g != 1:
        row = [a // g for a in row]
    coefficients = tuple([-a for a in row[1:]])
    if not any(coefficients):
        raise ValueError("inequality needs at least one nonzero coefficient")
    return coefficients, row[0]


def with_layout(hrep: HRepresentation, config: Configuration | None,
                name: str) -> HRepresentation:
    """``hrep`` with ``config`` filled in where it has no layout of its own.

    ``config`` only fills in: one whose event count is not the dimension,
    or one other than ``hrep``'s own layout, is a ``ValueError`` naming
    ``name``.  Without ``config``, ``hrep`` comes back as it is, with or
    without a layout.
    """
    if config is None or config == hrep.config:
        return hrep
    check_event_count(config, hrep.dimension, name)
    _check_layout(name, hrep.config, config)
    return replace(hrep, config=config)


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
    hrep = with_layout(hrep, config, "the H-representation")
    return [Inequality(c, rhs, hrep.config) for _, c, rhs in numbered_rows(hrep)]


def to_text(ineq: Inequality) -> str:
    """Human-readable form, e.g. ``a1 - a1b1 + b1 <= 1``.

    Unit coefficients are elided; terms are sorted by event label.
    """
    terms = sorted(
        (ev.label(), c) for ev, c in zip(enumerate_events(ineq.config), ineq.coefficients) if c
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
