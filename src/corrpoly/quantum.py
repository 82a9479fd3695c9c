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
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from .core import Configuration, ParseError, ProbabilityVector, enumerate_events
# from_hrep is not called here, but perfbench/tracer.py patches it by this
# module's name, so it stays imported.
from .inequalities import Inequality, from_hrep, numbered_rows, to_text  # noqa: F401
from .polyhedra import HRepresentation

#: Absolute guard for float violation comparisons.
VIOLATION_EPS = 1e-9


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

    Angles are ``AngleExpression.evaluate``'s ``const + cx*x + cy*y``.  The
    model is called once per distinct angle tuple, events in order and
    points in order within an event, through a memo local to this call.
    """
    slots = [[[e.const + e.cx * x + e.cy * y for x, y in points] for e in row]
             for row in angles.angles]
    memo: dict = {}
    columns = []
    for event in _event_slots(angles.config):
        keys = list(zip(*[slots[p][s] for p, s in event]))
        memo.update({k: model.probability(k) for k in dict.fromkeys(keys) if k not in memo})
        columns.append(list(map(memo.__getitem__, keys)))
    return columns


@lru_cache(maxsize=32)
def _event_slots(config: Configuration) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The ``(particle, setting)`` pairs of each canonical event, in order."""
    return tuple(tuple(zip(ev.particles, ev.choices))
                 for ev in enumerate_events(config))


@dataclass(frozen=True)
class ViolationReport:
    """One violated inequality: where it sits, what it says, by how much."""

    row: int  # 1-based row number in the source system
    inequality: Inequality
    amount: float

    def __str__(self) -> str:
        return f"row {self.row}: {to_text(self.inequality)}   [{self.amount}]"


def _violated(selected: list[tuple[int, tuple[int, ...], int]],
              config: Configuration,
              columns: Sequence[Sequence],
              threshold: float) -> list[tuple[int, Inequality, tuple]]:
    """``(row, inequality, values)`` for the rows whose largest value of
    ``sum(c_e p_e) - rhs`` over the points exceeds the threshold.

    ``columns`` holds one column per event, ``p_e`` at every point, as
    ``_event_columns`` gives them.  ``selected`` holds ``numbered_rows``
    triples; only a kept row becomes an ``Inequality``, in the layout
    ``config``.

    Each scaled column ``c * p_e`` is built once and shared by every row
    with coefficient ``c`` on event ``e`` (``1 * p_e`` is the column
    itself).  A row is then summed at all points at once, with ``sum``
    over its zipped scaled columns: per point this adds the same terms
    ``c_e p_e`` in event order, starting from the int 0, as a plain loop
    would, so floats are bit-identical (``0 + -0.0`` is ``0.0``) and exact
    columns give exact values.

    Before that, each row gets an upper bound ``B`` on its sums at every
    point, read from the columns' extremes alone: ``c * p_e`` is largest
    at the largest ``p_e`` for ``c > 0`` and at the smallest for ``c < 0``,
    so ``B`` adds ``c * max(p_e)`` or ``c * min(p_e)`` in event order.  A
    row with ``B - rhs <= cut`` cannot be kept (subtracting ``rhs`` is
    monotone too) and is never summed; any other row is summed once and
    kept if its largest value exceeds the cut.  So the kept rows and their
    values are exactly those of summing every row.

    ``B`` bounds every sum because exact sums grow with each term, and so
    do floats added one rounding at a time, each rounding being monotone.
    CPython 3.12+ compensates the rounding of a float ``sum``, and no such
    argument covers that.  So when any probability is a float, the
    extremes are widened by ``pad = n * 2**-48`` (n events), which adds
    ``pad * sum(|c|)`` to ``B``: with every ``p`` in [0, 1], any way of
    summing n float terms is off the exact sum by less than
    ``2 * n * 2**-53 * sum(|c|)``, far below the pad.

    A NaN threshold would compare false against every value and hide all
    violations, so it is rejected.
    """
    if math.isnan(threshold):
        raise ValueError("threshold must be a number, not NaN")
    cut = threshold + VIOLATION_EPS
    scaled = [{1: col} for col in columns]  # scaled[e][c] is c * p_e
    floats = any(isinstance(p, float) for col in columns for p in col)
    pad = len(columns) * 2.0**-48 if floats else 0
    lows = [min(col) - pad for col in columns]
    highs = [max(col) + pad for col in columns]

    kept = []
    for row, coefficients, rhs in selected:
        bound = sum([c * (hi if c > 0 else lo) for c, lo, hi
                     in zip(coefficients, lows, highs) if c])
        if bound - rhs <= cut:
            continue
        terms = []
        for k, c in enumerate(coefficients):
            if c:
                col = scaled[k].get(c)
                if col is None:
                    col = scaled[k][c] = [c * p for p in columns[k]]
                terms.append(col)
        sums = list(map(sum, zip(*terms)))
        if max(sums) - rhs > cut:
            kept.append((row, Inequality(coefficients, rhs, config),
                         tuple([s - rhs for s in sums])))
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
    columns = [[p] for p in probabilities.values]
    kept = _violated(numbered_rows(source, config, rows), config, columns, threshold)
    reports = [ViolationReport(row=row, inequality=ineq, amount=values[0])
               for row, ineq, values in kept]
    reports.sort(key=lambda r: (-r.amount, r.row))
    return reports


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
    ``numbered_rows``).
    """
    vec = probability_vector(model, angles)
    return scan_probability_vector(source, vec, rows=rows, threshold=threshold)


@dataclass(frozen=True)
class CurveSamples:
    """Violation profile of one inequality along a single free variable."""

    row: int
    inequality: Inequality
    xs: tuple[float, ...]
    values: tuple[float, ...]


@dataclass(frozen=True)
class GridSamples:
    """Violation surface of one inequality over two free variables.

    ``values`` is row-major with x fastest: entry ``iy * len(xs) + ix``.
    """

    row: int
    inequality: Inequality
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    values: tuple[float, ...]


def _linspace(lo: float, hi: float, samples: int) -> tuple[float, ...]:
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if not hi > lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    step = (hi - lo) / (samples - 1)
    return tuple(lo + i * step for i in range(samples - 1)) + (hi,)


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
    layout of ``angles``; the source must be over it, or have none.
    """
    if "y" in angles.free_variables:
        raise ValueError("curve sampling allows only the free variable x")
    selected = numbered_rows(source, angles.config, rows)
    xs = _linspace(*x_range, samples)
    columns = _event_columns(model, angles, [(x, 0.0) for x in xs])
    return [
        CurveSamples(row=row, inequality=ineq, xs=xs, values=values)
        for row, ineq, values in _violated(selected, angles.config, columns, threshold)
    ]


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
    selected = numbered_rows(source, angles.config, rows)
    xs = _linspace(*x_range, samples_x)
    ys = _linspace(*y_range, samples_y)
    columns = _event_columns(model, angles, [(x, y) for y in ys for x in xs])
    return [
        GridSamples(row=row, inequality=ineq, xs=xs, ys=ys, values=values)
        for row, ineq, values in _violated(selected, angles.config, columns, threshold)
    ]


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
        tree = ast.parse(" ".join(tokens), mode="eval")
    except SyntaxError:
        raise ParseError(f"bad angle expression {text!r}") from None
    value = _affine(tree.body, numbers)
    if not all(map(math.isfinite, (*numbers, *value))):
        raise ParseError(f"angle expression {text!r} is not finite")
    return AngleExpression(*value)


def _affine(node: ast.expr, numbers: list[float]) -> tuple[float, float, float]:
    """Fold a tree of numbers, names, signs and ``+ - * /`` into ``(const, cx, cy)``."""
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
    raise ParseError(f"unexpected {type(node).__name__} in angle expression")


def _is_const(value: tuple[float, float, float]) -> bool:
    return value[1] == 0.0 and value[2] == 0.0


def parse_angles(text: str, config: Configuration) -> AngleAssignment:
    """Parse the CLI angle syntax: settings comma-separated, particles by ';'.

    Example for two particles with three settings each:
    ``0,2pi/3,4pi/3;0,2pi/3,4pi/3``.
    """
    particles = [part for part in text.split(";")]
    if len(particles) != config.particles:
        raise ParseError(
            f"expected angle groups for {config.particles} particles, "
            f"got {len(particles)}"
        )
    rows = []
    for p, (part, m) in enumerate(zip(particles, config.settings)):
        exprs = [parse_angle_expression(tok) for tok in part.split(",")]
        if len(exprs) != m:
            raise ParseError(
                f"particle {p}: expected {m} angle expressions, got {len(exprs)}"
            )
        rows.append(tuple(exprs))
    return AngleAssignment(config, tuple(rows))
