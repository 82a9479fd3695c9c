"""Probability models, detector angles and violation scanning.

The polytope side of the package is exact; probabilities are evaluated in
double precision because physical angles are transcendental in general.  A
small absolute guard keeps floating noise from being reported as a
violation, so amounts such as 1/8 or 1/4 come out crisply.
"""

from __future__ import annotations

import ast
import math
import re
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Mapping, Sequence

from .core import CapacityError, Configuration, ParseError, ProbabilityVector, enumerate_events
# from_hrep is not called here, but perfbench/tracer.py patches it by this
# module's name, so it stays imported.
from .inequalities import (  # noqa: F401
    Inequality, from_hrep, normalised_row, selected_rows, to_text)
from .polyhedra import HRepresentation

#: Absolute guard for float violation comparisons.
VIOLATION_EPS = 1e-9

#: Most points a curve or grid samples: 256 x 256.  Peak RSS grows by
#: about 2.2 KB a point on the 2x3 singlet contour (94 rows kept, each
#: row's values packed as doubles) and 7.0 KB with all 684 rows kept
#: (CPython 3.11, 64-bit), 0.14 and 0.46 GB here.
MAX_POINTS = 2**16


@dataclass(frozen=True)
class AngleExpression:
    """Affine detector angle ``const + cx*x + cy*y`` in radians."""

    const: float = 0.0
    cx: float = 0.0
    cy: float = 0.0

    @property
    def free_variables(self) -> frozenset:
        return frozenset(v for v, c in (("x", self.cx), ("y", self.cy)) if c)

    @property
    def is_constant(self) -> bool:
        return not self.cx and not self.cy

    def evaluate(self, x: float = 0.0, y: float = 0.0) -> float:
        return self.const + self.cx * x + self.cy * y


@dataclass(frozen=True)
class AngleAssignment:
    """One angle expression per particle and setting; shape matches the layout."""

    config: Configuration
    angles: tuple[tuple[AngleExpression, ...], ...]

    def __post_init__(self) -> None:
        if len(self.angles) != self.config.particles:
            raise ValueError(
                f"expected angles for {self.config.particles} particles, "
                f"got {len(self.angles)}"
            )
        for p, (m, row) in enumerate(zip(self.config.settings, self.angles)):
            if len(row) != m:
                raise ValueError(
                    f"particle {p}: expected {m} setting angles, got {len(row)}"
                )

    @property
    def free_variables(self) -> frozenset:
        return frozenset().union(*[e.free_variables for row in self.angles for e in row])

    @classmethod
    def constant(cls, config: Configuration,
                 values: Sequence[Sequence[float]]) -> "AngleAssignment":
        return cls(config, tuple(
            tuple(AngleExpression(const=float(v)) for v in row) for row in values
        ))


class ProbabilityModel:
    """Maps an event's angle tuple to a probability, per event arity.

    ``functions`` provides one callable per arity; ``default`` (if given)
    covers every other arity.  Callers may register arbitrary callables;
    outputs must stay within [0, 1], up to a rounding slack that is clamped
    away.  A value in [0, 1] comes back as the law gave it, so exact laws
    keep ``Fraction`` values.

    A law is a function of its angle tuple: one evaluation (a vector, scan,
    curve or grid) calls it once per distinct tuple, compared by ``==`` (so
    ``0.0`` and ``-0.0`` are one angle), and reuses the value wherever the
    tuple recurs.  An error the law raises propagates.
    """

    def __init__(self, name: str,
                 functions: Mapping[int, Callable[[tuple[float, ...]], float]],
                 default: Callable[[tuple[float, ...]], float] | None = None):
        self.name = name
        self.functions = dict(functions)
        self.default = default

    def probability(self, angles: Sequence[float]) -> float:
        fn = self.functions.get(len(angles), self.default)
        if fn is None:
            raise ValueError(
                f"model {self.name!r} defines no law for {len(angles)}-fold events"
            )
        p = fn(tuple(angles))
        if not -1e-12 <= p <= 1 + 1e-12:
            raise ValueError(
                f"model {self.name!r} produced probability {p} outside [0, 1]"
            )
        return p if 0 <= p <= 1 else min(1.0, max(0.0, p))

    def __repr__(self) -> str:
        return f"ProbabilityModel({self.name!r})"


def _singlet_pair(angles: tuple[float, ...]) -> float:
    theta, phi = angles
    return 0.5 * math.sin((theta - phi) / 2) ** 2


def _ghz_triple(angles: tuple[float, ...]) -> float:
    x, y, z = angles
    return (1 - math.sin(x + y + z)) / 8


BUILTIN_MODELS = ("singlet", "ghz3", "uniform")


def builtin_model(name: str) -> ProbabilityModel:
    """Library of stock models.

    ``singlet``: spin-1/2 pair equal-outcome law, singles 1/2 and pairs
    ``sin^2((theta-phi)/2)/2``.  ``ghz3``: three-particle state with singles
    1/2, pairs 1/4 and triples ``(1 - sin(x+y+z))/8``.  ``uniform``: the
    classical product measure ``2^-k`` for k-fold events.
    """
    if name == "singlet":
        return ProbabilityModel("singlet", {1: lambda a: 0.5, 2: _singlet_pair})
    if name == "ghz3":
        return ProbabilityModel(
            "ghz3", {1: lambda a: 0.5, 2: lambda a: 0.25, 3: _ghz_triple}
        )
    if name == "uniform":
        return ProbabilityModel("uniform", {}, default=lambda a: 0.5 ** len(a))
    raise ValueError(f"unknown model {name!r} (choose from {', '.join(BUILTIN_MODELS)})")


def probability_vector(model: ProbabilityModel, angles: AngleAssignment,
                       x: float | None = None,
                       y: float | None = None) -> ProbabilityVector:
    """The model on every canonical event; ``x``/``y`` bind free variables."""
    free = angles.free_variables
    if "x" in free and x is None:
        raise ValueError("angle assignment has a free variable x; pass x=")
    if "y" in free and y is None:
        raise ValueError("angle assignment has a free variable y; pass y=")
    columns = _event_columns(model, angles, [(x or 0.0, y or 0.0)])
    return ProbabilityVector(tuple([col[0] for col in columns]), angles.config)


def _event_columns(model: ProbabilityModel, angles: AngleAssignment,
                   points: Sequence[tuple[float, float]]) -> list[list]:
    """``p_e`` at each ``(x, y)`` point, one column per canonical event.

    The model is called once per distinct angle tuple, events in order and
    points in order within an event, through a memo local to this call.
    """
    slots = [[[e.evaluate(x, y) for x, y in points] for e in row]
             for row in angles.angles]
    memo: dict = {}
    columns = []
    for ev in enumerate_events(angles.config):
        keys = list(zip(*[slots[p][s] for p, s in zip(ev.particles, ev.choices)]))
        memo.update({k: model.probability(k) for k in dict.fromkeys(keys) if k not in memo})
        columns.append(list(map(memo.__getitem__, keys)))
    return columns


@dataclass(frozen=True)
class ViolationReport:
    """One violated inequality: where it sits, what it says, by how much."""

    row: int  # 1-based row number in the source system
    inequality: Inequality
    amount: float

    def __str__(self) -> str:
        return f"row {self.row}: {to_text(self.inequality)}   [{self.amount}]"


class _Terms(dict):
    """``c`` -> ``c * hi`` for ``c > 0``, ``c * lo`` for ``c < 0``, int 0 for 0, filled on use."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi) -> None:
        self.lo, self.hi = lo, hi

    def __missing__(self, c: int):
        if type(c) is not int:  # a Fraction row is normalised, not bounded as read
            raise TypeError(f"{c!r} is not an int")
        term = self[c] = c * self.hi if c > 0 else c * self.lo if c else 0
        return term


def _violated(selected: list[tuple[int, tuple]],
              config: Configuration,
              threshold: float,
              columns: Sequence[Sequence],
              tiles: Sequence[tuple[int, int]],
              where: Sequence[int]) -> list[tuple[int, Inequality, Sequence]]:
    """``(row, inequality, values)`` for the rows whose largest value of
    ``sum(c_e p_e) - rhs`` over the points exceeds the threshold.

    ``columns`` holds one column per event, ``p_e`` at every point, as
    ``_event_columns`` gives them.  ``selected`` holds ``selected_rows``
    pairs, rows ``(b, a)`` as read; only a kept row becomes an
    ``Inequality``, in the layout ``config``.  ``tiles`` cuts the points
    into contiguous ``(start, stop)`` slices, in order (a scan passes one
    tile), and ``values[i]`` is the value at point ``where[i]``.  When every
    ``p_e`` is a float, ``values`` is an ``array('d')`` of the same doubles;
    otherwise (an exact law, or floats mixed with exact values) it is a
    tuple of the values as summed, ``Fraction``, int or float.

    Each scaled column ``c * p_e`` is built once and shared by every row
    with coefficient ``c`` on event ``e`` (``1 * p_e`` is the column
    itself).  A row is summed at many points at once, with ``sum`` over
    its zipped scaled columns: per point this adds the same terms
    ``c_e p_e`` in event order, starting from the int 0, as a plain loop
    would, so floats are bit-identical (``0 + -0.0`` is ``0.0``) and exact
    columns give exact values.

    Before that, a row gets an upper bound ``B`` on its sums over a box of
    points, read from the columns' extremes on the box alone: ``c * p_e``
    is largest at the largest ``p_e`` for ``c > 0`` and at the smallest for
    ``c < 0``, so ``B`` adds ``c * max(p_e)`` or ``c * min(p_e)`` in event
    order.  No point of a box with ``B - rhs <= cut`` keeps the row
    (subtracting ``rhs`` is monotone too).  Each row is bounded once on the
    box of every point, as read, which drops most rows unsummed: ``B - rhs``
    is ``sum(map(..., first, (b, a))) - b``, over ``_Terms`` tables of the
    int 0 for ``b`` and of ``c = -a`` (negation is exact) that work out each
    term once per call, so no gcd, slice or bytecode runs per coefficient.
    A zero's term is the int 0; it leaves a float sum as it was but for
    ``-0.0`` turning ``0.0``, which compares equal, so ``B`` is ``==`` the
    sum of the nonzero terms alone, and a float unless the row is constant.
    A row that passes, a ``Fraction`` row (``_Terms`` refuses its entries)
    and, at a cut of 0 or less, a row that is not primitive are normalised
    (``normalised_row`` rejects a constant row).  With more than one tile,
    such a row is summed only on the tiles whose own ``B`` passes, up to the
    first point above the cut, and dropped if there is none.  A row that is
    not dropped is summed once at every point.  So the kept rows and their
    values are exactly those of summing every row.

    ``B`` bounds every sum because exact sums grow with each term, and so
    do floats added one rounding at a time, each rounding being monotone.
    CPython 3.12+ compensates the rounding of a float ``sum``, and no such
    argument covers that.  So the extremes, exact ones too, are widened by
    ``pad = n * 2**-48`` (n events), which adds ``pad * sum(|c|)`` to ``B``:
    with every ``p`` in [0, 1], any way of summing n float terms is off the
    exact sum by less than ``2 * n * 2**-53 * sum(|c|)``, and rounding exact
    extremes to floats adds less than ``2**-52 * sum(|c|)``: far below the
    pad.  That holds at each point, so it holds on every box, a tile or all
    the points.  An integer row as read is its gcd ``s >= 1`` times its
    primitive row, and its bound ``s`` times that row's, pad and roundings
    included.  With a positive cut, a bound at most the cut leaves the
    primitive row's at most ``cut / s <= cut``, so no gcd is taken; at a cut
    of 0 or less, ``s`` times a bound above the cut may be at most it, so
    only a primitive row is dropped as read.

    A NaN threshold would compare false against every value and hide all
    violations, so it is rejected.
    """
    if math.isnan(threshold):
        raise ValueError("threshold must be a number, not NaN")
    cut = threshold + VIOLATION_EPS
    pad = len(columns) * 2.0**-48
    # lows[e][t], highs[e][t]: the padded extremes of p_e on tile t
    lows = list(zip(*[[min(col[a:b]) - pad for col in columns] for a, b in tiles]))
    highs = list(zip(*[[max(col[a:b]) + pad for col in columns] for a, b in tiles]))
    first = [_Terms(0, 0), *[_Terms(-max(h), -min(l)) for l, h in zip(lows, highs)]]
    # scaled[e][c]: c * p_e at every point, and its padded largest value per tile
    scaled = [{1: (col, top)} for col, top in zip(columns, highs)]

    floats = set(map(type, chain.from_iterable(columns))) == {float}
    kept = []
    gcd, lookup = math.gcd, dict.__getitem__  # faster than operator.getitem on a subclass
    for row, read in selected:
        try:  # a Fraction entry raises, in gcd or in _Terms
            if cut > 0 or gcd(*read) == 1:
                bound = sum(map(lookup, first, read)) - read[0]
                if bound <= cut and type(bound) is float:  # an int: a constant row
                    continue
        except TypeError:
            pass
        coefficients, rhs = normalised_row(read)
        pairs = []
        for k, c in enumerate(coefficients):
            if c:
                pair = scaled[k].get(c)
                if pair is None:
                    pair = scaled[k][c] = ([c * p for p in columns[k]],
                                           [c * x for x in (highs[k] if c > 0 else lows[k])])
                pairs.append(pair)
        terms, tops = zip(*pairs)
        if len(tiles) > 1 and not any(
                b - rhs > cut
                and any(s - rhs > cut for s in map(sum, zip(*[t[a:z] for t in terms])))
                for b, (a, z) in zip(map(sum, zip(*tops)), tiles)):
            continue
        sums = list(map(sum, zip(*terms)))
        if max(sums) - rhs > cut:
            values = [sums[i] - rhs for i in where]
            kept.append((row, Inequality(coefficients, rhs, config),
                         array("d", values) if floats else tuple(values)))
    return kept


def scan_probability_vector(
    source: HRepresentation | Sequence[Inequality],
    probabilities: ProbabilityVector,
    rows: tuple[int, int] | None = None,
    threshold: float = 0.0,
) -> list[ViolationReport]:
    """Violation scan against a precomputed (possibly exact) vector."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    config = probabilities.config
    kept = _violated(selected_rows(source, config, rows), config, threshold,
                     [[p] for p in probabilities.values], [(0, 1)], [0])
    return sorted((ViolationReport(row, ineq, values[0]) for row, ineq, values in kept),
                  key=lambda r: (-r.amount, r.row))


def scan_violations(
    source: HRepresentation | Sequence[Inequality],
    model: ProbabilityModel,
    angles: AngleAssignment,
    rows: tuple[int, int] | None = None,
    threshold: float = 0.0,
) -> list[ViolationReport]:
    """All inequalities the quantum model breaks at concrete detector angles.

    For each selected row the discrepancy ``sum(c_e p_e) - rhs`` is
    computed; rows exceeding ``threshold`` (default 0) are reported, sorted
    by descending amount, then row number.  Probabilities take the layout
    of ``angles``; the source must be over it, or have none (see
    ``selected_rows``).  Angles with a free variable are a ``ValueError``.
    """
    if angles.free_variables:
        raise ValueError("violation scans need concrete angles (no x or y)")
    vec = probability_vector(model, angles)
    return scan_probability_vector(source, vec, rows=rows, threshold=threshold)


@dataclass(frozen=True)
class CurveSamples:
    """Violation profile of one inequality along a single free variable.

    ``values[i]`` is ``sum(c_e p_e) - rhs`` at ``xs[i]``.  A law whose every
    probability is a ``float`` gives an ``array('d')`` of those doubles (8
    bytes a value, against a boxed float and a tuple slot); any other law
    gives a tuple of the values as summed, ``Fraction``, int or float.  An
    array-backed sample is not hashable, and its values must not be mutated.
    """

    row: int
    inequality: Inequality
    xs: tuple[float, ...]
    values: Sequence[float]


@dataclass(frozen=True)
class GridSamples:
    """Violation surface of one inequality over two free variables.

    ``values`` is row-major with x fastest: entry ``iy * len(xs) + ix``.
    It is an ``array('d')`` or a tuple, as in ``CurveSamples``, with the
    same caveats: an array-backed sample is not hashable, and its values
    must not be mutated.
    """

    row: int
    inequality: Inequality
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    values: Sequence[float]


def _linspace(lo: float, hi: float, samples: int) -> tuple[float, ...]:
    if not 0 < hi - lo < math.inf:
        raise ValueError(f"range [{lo}, {hi}] is empty or not finite")
    step = (hi - lo) / (samples - 1)
    return tuple(lo + i * step for i in range(samples - 1)) + (hi,)


def _spans(samples: int) -> list[tuple[int, int]]:
    """``isqrt(samples)`` runs of about ``sqrt(samples)`` samples, as slices."""
    k = math.isqrt(samples)
    return [(samples * i // k, samples * (i + 1) // k) for i in range(k)]


def _tiled_columns(model: ProbabilityModel, angles: AngleAssignment,
                   xs: Sequence[float], ys: Sequence[float]
                   ) -> tuple[list[list], list[tuple[int, int]], list[int]]:
    """``(columns, tiles, where)``: ``_event_columns`` at the points ``(x,
    y)``, taken tile by tile with ``_spans`` of each axis, the tiles as
    slices of the columns, and ``where[k]``, the column position of the
    point ``k`` in row-major order (x fastest)."""
    order, tiles = [], []  # order[j]: the row-major index of the j-th point
    for y0, y1 in _spans(len(ys)):
        for x0, x1 in _spans(len(xs)):
            tiles.append((len(order), len(order) + (y1 - y0) * (x1 - x0)))
            order += [iy * len(xs) + ix for iy in range(y0, y1) for ix in range(x0, x1)]
    points = [(xs[i % len(xs)], ys[i // len(xs)]) for i in order]
    return (_event_columns(model, angles, points), tiles,
            sorted(range(len(order)), key=order.__getitem__))


def _check_points(*samples: int) -> None:
    """Refuse an axis under 2 samples, then too many points, before any is built."""
    if min(samples) < 2:
        raise ValueError("need at least 2 samples")
    count = math.prod(samples)
    if count > MAX_POINTS:  # a count past 64 bits is not printed: it may be unbounded
        shown = count if count.bit_length() <= 64 else "more than 2**64"
        raise CapacityError(f"{shown} sample points exceed the cap of {MAX_POINTS}")


def sample_violation_curve(
    source: HRepresentation | Sequence[Inequality],
    model: ProbabilityModel,
    angles: AngleAssignment,
    x_range: tuple[float, float] = (0.0, math.pi),
    samples: int = 101,
    rows: tuple[int, int] | None = None,
    threshold: float = 0.0,
) -> list[CurveSamples]:
    """Sample ``f(x) = sum(c_e p_e(x)) - rhs`` for each selected inequality.

    Only inequalities whose sampled maximum exceeds the threshold are
    returned (the violated ones, for plotting).  Probabilities take the
    layout of ``angles``; the source must be over it, or have none.  More
    than ``MAX_POINTS`` samples are a ``CapacityError``.
    """
    if "y" in angles.free_variables:
        raise ValueError("curve sampling allows only the free variable x")
    _check_points(samples)
    selected = selected_rows(source, angles.config, rows)
    xs = _linspace(*x_range, samples)
    return [CurveSamples(row, ineq, xs, values) for row, ineq, values in _violated(
        selected, angles.config, threshold, *_tiled_columns(model, angles, xs, (0.0,)))]


def sample_violation_grid(
    source: HRepresentation | Sequence[Inequality],
    model: ProbabilityModel,
    angles: AngleAssignment,
    x_range: tuple[float, float] = (0.0, math.pi),
    y_range: tuple[float, float] = (0.0, math.pi),
    samples_x: int = 41,
    samples_y: int = 41,
    rows: tuple[int, int] | None = None,
    threshold: float = 0.0,
) -> list[GridSamples]:
    """Two-variable analogue of ``sample_violation_curve``."""
    _check_points(samples_x, samples_y)
    selected = selected_rows(source, angles.config, rows)
    xs = _linspace(*x_range, samples_x)
    ys = _linspace(*y_range, samples_y)
    return [GridSamples(row, ineq, xs, ys, values) for row, ineq, values in _violated(
        selected, angles.config, threshold, *_tiled_columns(model, angles, xs, ys))]


_TOKEN_RE = re.compile(r"\s*(?:([0-9]+(?:\.[0-9]*)?|\.[0-9]+)|(pi|x|y|[+\-*/()]))\s*")

#: Longest angle expression, in tokens, implied ``*`` included.  It bounds
#: the nesting of parentheses and unary signs, and so the recursion of
#: ``_affine``, well below the limits of Python's parser.
_MAX_TOKENS = 200

#: ``(const, cx, cy)`` of each name an angle expression may use.
_NAMES = {"pi": (math.pi, 0.0, 0.0), "x": (0.0, 1.0, 0.0), "y": (0.0, 0.0, 1.0)}


def parse_angle_expression(text: str) -> AngleExpression:
    """Parse one angle term, e.g. ``-pi/3 + x`` or ``2pi/3``.

    The tokens are numbers, ``pi``, ``x``, ``y``, ``+ - * / ( )``, with
    whitespace around any of them; ``2pi``, ``0.5x`` and ``(x)2`` mean
    multiplication.  Numbers are ASCII decimals.  Python's parser builds
    the tree of the tokens.  Each number reaches it as the index of its
    ``float`` value, so ``02`` is 2.0 although Python's literals reject it.
    A number, or a coefficient of the result, that is not finite (too large
    for a float, or ``inf - inf``) is an error.
    """
    numbers: list[float] = []
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"bad angle expression near {text[pos:]!r}")
        num, sym = m.groups()
        if tokens and (num and tokens[-1] == ")"
                       or sym in _NAMES and tokens[-1].isdigit()):
            tokens.append("*")
        if num:
            tokens.append(str(len(numbers)))
            numbers.append(float(num))
        else:
            tokens.append(sym)
        pos = m.end()
    if not tokens:
        raise ParseError("empty angle expression")
    if len(tokens) > _MAX_TOKENS:
        raise ParseError(f"angle expression longer than {_MAX_TOKENS} tokens")
    try:
        value = _affine(ast.parse(" ".join(tokens), mode="eval").body, numbers)
    except SyntaxError:
        raise ParseError(f"bad angle expression {text!r}") from None
    if not all(map(math.isfinite, (*numbers, *value))):
        raise ParseError(f"angle expression {text!r} is not finite")
    return AngleExpression(*value)


def _affine(node: ast.expr, numbers: list[float]) -> tuple[float, float, float]:
    """Fold numbers, names, signs and ``+ - * /`` into ``(const, cx, cy)``; else SyntaxError."""
    match node:
        case ast.Constant(value=k):
            return (numbers[k], 0.0, 0.0)
        case ast.Name(id=name):
            return _NAMES[name]
        case ast.UnaryOp(op=ast.UAdd()):
            return _affine(node.operand, numbers)
        case ast.UnaryOp(op=ast.USub()):
            c, x, y = _affine(node.operand, numbers)
            return (-c, -x, -y)
        case ast.BinOp(op=ast.Add() | ast.Sub() | ast.Mult() | ast.Div() as op):
            lhs, rhs = _affine(node.left, numbers), _affine(node.right, numbers)
            (c, x, y), (c2, x2, y2) = lhs, rhs
            if isinstance(op, ast.Add):
                return (c + c2, x + x2, y + y2)
            if isinstance(op, ast.Sub):
                return (c - c2, x - x2, y - y2)
            if isinstance(op, ast.Mult):
                if _is_const(lhs):
                    return (c * c2, c * x2, c * y2)
                if _is_const(rhs):
                    return (c2 * c, c2 * x, c2 * y)
                raise ParseError("angle expressions must stay affine in x, y")
            if not _is_const(rhs):
                raise ParseError("only constant denominators are allowed")
            if c2 == 0:
                raise ParseError("division by zero in angle expression")
            return (c / c2, x / c2, y / c2)
    raise SyntaxError(f"unexpected {type(node).__name__}")


def _is_const(value: tuple[float, float, float]) -> bool:
    return value[1] == 0.0 and value[2] == 0.0


def parse_angles(text: str, config: Configuration) -> AngleAssignment:
    """Parse the CLI angle syntax: settings comma-separated, particles by ';'.

    Example for two particles with three settings each:
    ``0,2pi/3,4pi/3;0,2pi/3,4pi/3``.
    """
    rows = tuple(tuple(parse_angle_expression(tok) for tok in part.split(","))
                 for part in text.split(";"))
    try:
        return AngleAssignment(config, rows)
    except ValueError as exc:  # a particle or setting count off the layout
        raise ParseError(str(exc)) from None
