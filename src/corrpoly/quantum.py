"""Probability models, detector angles and violation scanning.

The polytope side of the package is exact; probabilities are evaluated in
double precision because physical angles are transcendental in general.  A
small absolute guard keeps floating noise from being reported as a
violation, so amounts such as 1/8 or 1/4 come out crisply.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from .core import Configuration, ParseError, ProbabilityVector, enumerate_events
from .inequalities import Inequality, from_hrep, to_text
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
        out = set()
        if self.cx:
            out.add("x")
        if self.cy:
            out.add("y")
        return frozenset(out)

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
        out: set = set()
        for row in self.angles:
            for expr in row:
                out |= expr.free_variables
        return frozenset(out)

    def evaluated(self, x: float = 0.0, y: float = 0.0) -> tuple[tuple[float, ...], ...]:
        return tuple(
            tuple(expr.evaluate(x, y) for expr in row) for row in self.angles
        )

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
    outputs must stay within [0, 1].
    """

    def __init__(self, name: str,
                 functions: Mapping[int, Callable[[tuple[float, ...]], float]],
                 default: Callable[[tuple[float, ...]], float] | None = None):
        self.name = name
        self.functions = dict(functions)
        self.default = default

    def supports_arity(self, arity: int) -> bool:
        return arity in self.functions or self.default is not None

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
        return min(1.0, max(0.0, p))

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
    """Evaluate the model on every canonical event of the angles' layout.

    ``angles`` must be concrete unless the free variables are bound through
    ``x``/``y``.
    """
    free = angles.free_variables
    if "x" in free and x is None:
        raise ValueError("angle assignment has a free variable x; pass x=")
    if "y" in free and y is None:
        raise ValueError("angle assignment has a free variable y; pass y=")
    concrete = angles.evaluated(x or 0.0, y or 0.0)
    values = tuple(model.probability(tuple(concrete[p][s] for p, s in slots))
                   for slots in _event_slots(angles.config))
    return ProbabilityVector(values, angles.config)


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


def select_inequalities(
    source: HRepresentation | Sequence[Inequality],
    config: Configuration | None = None,
    rows: tuple[int, int] | None = None,
) -> list[tuple[int, Inequality]]:
    """The (1-based row, inequality) pairs within ``rows``.

    An H-representation's rows are numbered as in its file, equalities
    included, and read in the layout ``config`` or else its own.  A range
    outside ``1..total`` or reversed is an error.
    """
    if isinstance(source, HRepresentation):
        indexed = list(zip((i + 1 for i in source.inequality_indices),
                           from_hrep(source, config)))
        total = len(source.rows)
    else:
        indexed = list(enumerate(source, 1))
        if not indexed:
            raise ValueError("empty inequality list")
        total = len(indexed)
    if rows is not None:
        lo, hi = rows
        if lo < 1 or hi > total or lo > hi:
            raise ValueError(f"row range {lo}:{hi} out of bounds (1..{total})")
        indexed = [(i, q) for i, q in indexed if lo <= i <= hi]
    return indexed


def _violated(selected: list[tuple[int, Inequality]],
              vectors: Sequence[ProbabilityVector],
              threshold: float) -> list[tuple[int, Inequality, tuple]]:
    """``(row, inequality, values)`` for the rows whose largest value of
    ``sum(c_e p_e) - rhs`` over ``vectors`` exceeds the threshold.

    The vectors are transposed into one column per event, ``p_e`` over all
    vectors, and each scaled column ``c * p_e`` is built once and shared by
    every row with coefficient ``c`` on event ``e`` (``1 * p_e`` is the
    column itself).  A row is then summed over all vectors at once, with
    ``sum`` over the zipped columns: per vector this adds the same terms
    ``c_e p_e`` in event order, starting from the int 0, as a plain loop
    would, so floats are bit-identical (``0 + -0.0`` is ``0.0``) and exact
    vectors give exact values.

    A first pass keeps the rows whose largest sum minus ``rhs`` exceeds the
    cut (subtracting a constant is monotone, so these are the same rows);
    only those rows get their ``values`` built.  A NaN threshold would
    compare false against every value and hide all violations, so it is
    rejected.
    """
    if math.isnan(threshold):
        raise ValueError("threshold must be a number, not NaN")
    cut = threshold + VIOLATION_EPS
    columns = list(zip(*[vec.values for vec in vectors]))
    scaled = [{1: col} for col in columns]  # scaled[e][c] is c * p_e

    def sums(ineq: Inequality):
        terms = []
        for k, c in enumerate(ineq.coefficients):
            if c:
                col = scaled[k].get(c)
                if col is None:
                    col = scaled[k][c] = [c * p for p in columns[k]]
                terms.append(col)
        return map(sum, zip(*terms))

    kept = [(row, ineq) for row, ineq in selected
            if max(sums(ineq)) - ineq.rhs > cut]
    return [(row, ineq, tuple([s - ineq.rhs for s in sums(ineq)]))
            for row, ineq in kept]


def scan_probability_vector(
    source: HRepresentation | Sequence[Inequality],
    probabilities: ProbabilityVector,
    rows: tuple[int, int] | None = None,
    threshold: float = 0.0,
) -> list[ViolationReport]:
    """Violation scan against a precomputed (possibly exact) vector."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    selected = select_inequalities(source, probabilities.config, rows)
    reports = [ViolationReport(row=row, inequality=ineq, amount=values[0])
               for row, ineq, values in _violated(selected, [probabilities], threshold)]
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
    by descending amount, then row number.  Probabilities and inequalities
    take the layout of ``angles``.
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
    returned (the violated ones, for plotting).  Probabilities and
    inequalities take the layout of ``angles``.
    """
    if "y" in angles.free_variables:
        raise ValueError("curve sampling allows only the free variable x")
    selected = select_inequalities(source, angles.config, rows)
    xs = _linspace(*x_range, samples)
    vectors = [probability_vector(model, angles, x=x) for x in xs]
    return [
        CurveSamples(row=row, inequality=ineq, xs=xs, values=values)
        for row, ineq, values in _violated(selected, vectors, threshold)
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
    selected = select_inequalities(source, angles.config, rows)
    xs = _linspace(*x_range, samples_x)
    ys = _linspace(*y_range, samples_y)
    vectors = [
        probability_vector(model, angles, x=x, y=y) for y in ys for x in xs
    ]
    return [
        GridSamples(row=row, inequality=ineq, xs=xs, ys=ys, values=values)
        for row, ineq, values in _violated(selected, vectors, threshold)
    ]


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?|\.\d+)|(?P<name>pi|x|y)|(?P<op>[+\-*/()]))"
)


def _tokenize_angle(text: str) -> list:
    tokens: list = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"bad angle expression near {text[pos:]!r}")
        if m.group("num") is not None:
            # "2pi" and "0.5x" mean multiplication
            if tokens and tokens[-1] == ")":
                tokens.append("*")
            tokens.append(float(m.group("num")))
            nxt = _TOKEN_RE.match(text, m.end())
            if nxt is not None and nxt.group("name"):
                tokens.append("*")
        elif m.group("name"):
            tokens.append(m.group("name"))
        else:
            tokens.append(m.group("op"))
        pos = m.end()
    return tokens


#: Longest angle expression, in tokens.  It bounds the depth of the
#: recursive descent, which grows with nested parentheses and unary signs.
_MAX_TOKENS = 200


class _AngleParser:
    """Recursive descent over +,-,*,/ producing an affine form in x and y."""

    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> tuple[float, float, float]:
        value = self.expr()
        if self.peek() is not None:
            raise ParseError(f"unexpected token {self.peek()!r} in angle expression")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            value = tuple(
                a + b if op == "+" else a - b for a, b in zip(value, rhs)
            )
        return value

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.unary()
            if op == "*":
                if not _is_const(value) and not _is_const(rhs):
                    raise ParseError("angle expressions must stay affine in x, y")
                scale, affine = (value[0], rhs) if _is_const(value) else (rhs[0], value)
                value = tuple(scale * a for a in affine)
            else:
                if not _is_const(rhs):
                    raise ParseError("only constant denominators are allowed")
                if rhs[0] == 0:
                    raise ParseError("division by zero in angle expression")
                value = tuple(a / rhs[0] for a in value)
        return value

    def unary(self):
        if self.peek() == "-":
            self.next()
            return tuple(-a for a in self.unary())
        if self.peek() == "+":
            self.next()
            return self.unary()
        return self.primary()

    def primary(self):
        tok = self.next()
        if tok is None:
            raise ParseError("truncated angle expression")
        if isinstance(tok, float):
            return (tok, 0.0, 0.0)
        if tok == "pi":
            return (math.pi, 0.0, 0.0)
        if tok == "x":
            return (0.0, 1.0, 0.0)
        if tok == "y":
            return (0.0, 0.0, 1.0)
        if tok == "(":
            value = self.expr()
            if self.next() != ")":
                raise ParseError("unbalanced parentheses in angle expression")
            return value
        raise ParseError(f"unexpected token {tok!r} in angle expression")


def _is_const(value: tuple[float, float, float]) -> bool:
    return value[1] == 0.0 and value[2] == 0.0


def parse_angle_expression(text: str) -> AngleExpression:
    """Parse one angle term, e.g. ``-pi/3 + x`` or ``2pi/3``."""
    tokens = _tokenize_angle(text)
    if not tokens:
        raise ParseError("empty angle expression")
    if len(tokens) > _MAX_TOKENS:
        raise ParseError(f"angle expression longer than {_MAX_TOKENS} tokens")
    const, cx, cy = _AngleParser(tokens).parse()
    return AngleExpression(const=const, cx=cx, cy=cy)


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
