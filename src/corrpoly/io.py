"""Polyhedra file formats (.ext/.ine) plus CSV and SVG report emission.

The .ext/.ine layouts follow the cdd ecosystem: a kind header, an optional
``linearity`` line, ``begin``, a ``rows columns numbertype`` size line,
whitespace-separated data rows and ``end``.  Comment lines starting with
``*`` are ignored on input.  Of the option lines after ``end`` only the
``Konfiguration`` line, this package's record of the layout, is read and
written; cdd's own options are skipped.  Output is byte-stable: LF line
endings, canonical number rendering.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

from .core import (
    Configuration,
    NumberLike,
    ParseError,
    event_count,
    format_number,
    parse_number,
)
from .inequalities import to_text
from .polyhedra import HRepresentation
from .quantum import CurveSamples, GridSamples, ViolationReport
from .vertices import VRepresentation

_NUMBER_TYPES = ("integer", "rational", "real")


def _render_rows(rows: Iterable[Sequence[NumberLike]]) -> tuple[str, list[str]]:
    """The cdd number type of ``rows`` and their data lines, in one pass."""
    numbertype = "integer"
    lines = []
    for row in rows:
        if set(map(type, row)) == {int}:
            lines.append(" ".join(map(str, row)))
        else:
            line = " ".join(map(format_number, row))
            if "/" in line:
                numbertype = "rational"
            lines.append(line)
    return numbertype, lines


def format_polyhedra_file(rep: HRepresentation | VRepresentation) -> str:
    """The cdd text of ``rep``, the inverse of ``parse_polyhedra_file``.

    An ``HRepresentation`` is written from ``rows`` with its ``linearity``
    line, a ``VRepresentation`` from ``homogenized``; the layout, if any,
    follows ``end`` as a ``Konfiguration`` line.
    """
    if isinstance(rep, HRepresentation):
        kind, rows, linearity = "H", rep.rows, sorted(rep.linearity)
    else:
        kind, rows, linearity = "V", rep.homogenized, []
    lines = [f"{kind}-representation"]
    if linearity:
        indices = " ".join(str(i + 1) for i in linearity)
        lines.append(f"linearity {len(linearity)} {indices}")
    numbertype, data = _render_rows(rows)
    lines += ["begin", f"{len(rows)} {rep.dimension + 1} {numbertype}", *data, "end"]
    lines += _config_lines(rep.config)
    return "\n".join(lines) + "\n"


def _count(token: str, line: str, source: str) -> int:
    """A non-negative count in a header or option line, in ASCII digits only."""
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"{source}: bad count {token!r} in {line!r}")
    return int(token)


def _parse_row(line: str, tokens: list[str]) -> tuple[NumberLike, ...]:
    """The numbers of one data row; ``tokens`` is ``line.split()``.

    A line of ASCII integers is read by ``int`` alone.  Anything else
    (``p/q``, decimals, bad tokens) goes token by token through
    ``parse_number``, which also rejects what ``int`` would accept beyond
    cdd's spellings: ``_`` separators and non-ASCII digits.
    """
    if line.isascii() and "_" not in line:
        try:
            return tuple(map(int, tokens))
        except ValueError:
            pass
    return tuple(parse_number(t) for t in tokens)


def parse_polyhedra_file(
    text: str, source: str = "<string>"
) -> HRepresentation | VRepresentation:
    """The representation that cdd text describes; ``format_polyhedra_file`` inverts it.

    The header decides the type: ``H-representation`` gives an
    ``HRepresentation``, ``V-representation`` a ``VRepresentation`` whose
    rows starting with 1 are vertices and with 0 rays.  The first
    ``Konfiguration`` line after ``end`` sets ``config`` when its event
    count is the dimension.  Malformed text raises ``ParseError``.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    pos = 0

    def next_line() -> str:
        nonlocal pos
        while pos < len(lines):
            ln = lines[pos]
            pos += 1
            if ln and not ln.startswith("*"):
                return ln
        raise ParseError(f"{source}: unexpected end of file")

    header = next_line()
    if header not in ("H-representation", "V-representation"):
        raise ParseError(f"{source}: malformed header {header!r}")

    linearity: frozenset[int] = frozenset()
    line = next_line()
    if line.startswith("linearity"):
        if header[0] == "V":
            raise ParseError(f"{source}: linearity rows are not supported in .ext input")
        numbers = [_count(t, line, source) for t in line.split()[1:]]
        if not numbers or numbers[0] != len(numbers) - 1 or 0 in numbers[1:]:
            raise ParseError(f"{source}: malformed linearity line {line!r}")
        linearity = frozenset(i - 1 for i in numbers[1:])
        line = next_line()
    if line != "begin":
        raise ParseError(f"{source}: expected 'begin', found {line!r}")

    line = next_line()
    size = line.split()
    if len(size) != 3 or size[2] not in _NUMBER_TYPES:
        raise ParseError(f"{source}: malformed size line {line!r}")
    m, n = _count(size[0], line, source), _count(size[1], line, source)

    rows = []
    for k in range(1, m + 1):
        line = next_line()
        tokens = line.split()
        if tokens == ["end"]:
            raise ParseError(f"{source}: expected {m} data rows")
        if len(tokens) != n:
            raise ParseError(
                f"{source}: row has {len(tokens)} entries, expected {n}"
            )
        try:
            rows.append(_parse_row(line, tokens))
        except ParseError as exc:
            raise ParseError(f"{source}: data row {k}: {exc}") from None
    if next_line() != "end":
        raise ParseError(f"{source}: expected 'end' after {m} data rows")
    if linearity and max(linearity) >= m:
        raise ParseError(f"{source}: linearity index {max(linearity) + 1} out of range")

    dimension = max(n - 1, 0)
    config = _read_config(lines[pos:], dimension, source)
    if header[0] == "H":
        try:
            return HRepresentation(dimension, tuple(rows), linearity, config)
        except ValueError as exc:  # an all-zero row
            raise ParseError(f"{source}: {exc}") from None
    vertices, rays = [], []
    for row in rows:
        if row[0] not in (0, 1):
            raise ParseError(
                f"{source}: generator rows must start with 0 or 1, got {row[0]}"
            )
        (vertices if row[0] == 1 else rays).append(row[1:])
    return VRepresentation(dimension, tuple(vertices), tuple(rays), config)


def _read_config(options: Sequence[str], dimension: int,
                 source: str) -> Configuration | None:
    """The layout of the first ``Konfiguration N M`` (N particles with M settings
    each) or ``Konfiguration M1,M2,...`` line, if it has ``dimension`` events."""
    for line in options:
        fields = line.split()
        if fields[:1] != ["Konfiguration"]:
            continue
        try:
            if len(fields) == 3:
                config = Configuration.uniform(*(_count(f, line, source) for f in fields[1:]))
            elif len(fields) == 2 and "," in fields[1]:
                config = Configuration(
                    tuple(_count(f, line, source) for f in fields[1].split(","))
                )
            else:
                raise ValueError("expected 'N M' or 'M1,M2,...'")
        except ValueError as exc:
            raise ParseError(f"{source}: bad {line!r}: {exc}") from None
        return config if event_count(config) == dimension else None
    return None


def _config_lines(config: Configuration | None) -> tuple[str, ...]:
    """The Konfiguration line of a layout: ``N M`` if uniform, else ``M1,M2,...``."""
    if config is None:
        return ()
    if len(set(config.settings)) > 1:
        return (f"Konfiguration {config}",)
    return (f"Konfiguration {config.particles} {config.settings[0]}",)


def _read(path, kind: type) -> HRepresentation | VRepresentation:
    path = Path(path)
    rep = parse_polyhedra_file(path.read_text(), str(path))
    if not isinstance(rep, kind):
        raise ParseError(f"{path}: header is not {kind.__name__[0]}-representation")
    return rep


def _write(rep: HRepresentation | VRepresentation, path, suffix: str) -> Path:
    path = Path(path)
    if path.suffix != suffix:
        path = path.with_name(path.name + suffix)
    path.write_text(format_polyhedra_file(rep), newline="\n")
    return path


def write_ext(vrep: VRepresentation, path) -> Path:
    """Write a V-representation; the ``.ext`` suffix is appended if absent."""
    return _write(vrep, path, ".ext")


def read_ext(path) -> VRepresentation:
    return _read(path, VRepresentation)


def write_ine(hrep: HRepresentation, path) -> Path:
    """Write an H-representation; the ``.ine`` suffix is appended if absent."""
    return _write(hrep, path, ".ine")


def read_ine(path) -> HRepresentation:
    return _read(path, HRepresentation)


def write_violation_csv(reports: Sequence[ViolationReport], path) -> Path:
    """Columns ``row,inequality,violation``, one line per report."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["row", "inequality", "violation"])
        for report in reports:
            writer.writerow([report.row, to_text(report.inequality), report.amount])
    return path


def write_curve_csv(curves: Sequence[CurveSamples], path) -> Path:
    """Column ``x`` plus one value column per curve, named by source row."""
    if not curves:
        raise ValueError("no curves to write")
    xs = curves[0].xs
    for c in curves[1:]:
        if c.xs != xs:
            raise ValueError("curves were sampled on different grids")
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x"] + [f"row{c.row}" for c in curves])
        for i, x in enumerate(xs):
            writer.writerow([x] + [c.values[i] for c in curves])
    return path


def write_grid_csv(grid: GridSamples, path) -> Path:
    """Long form ``x,y,f`` rows, x fastest.

    The bytes are those of ``csv.writer`` with ``"\n"`` line ends, which
    writes a float as its ``repr``, the same text as ``str``.
    """
    path = Path(path)
    xs = [f"{x}," for x in grid.xs]
    prefixes = [x + y for y in [f"{y}," for y in grid.ys] for x in xs]
    with open(path, "w", newline="") as fh:
        fh.write("x,y,f\n")
        fh.write("".join([f"{p}{v}\n" for p, v in zip(prefixes, grid.values)]))
    return path


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#e377c2", "#17becf",
)


def _svg_header(width: int, height: int) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]


def curves_svg(curves: Sequence[CurveSamples]) -> str:
    """Self-contained SVG with one polyline per violation curve."""
    if not curves:
        raise ValueError("no curves to render")
    width, height, margin = 640, 480, 50
    xs = curves[0].xs
    x_lo, x_hi = min(xs), max(xs)
    all_values = [v for c in curves for v in c.values] + [0.0]
    y_lo, y_hi = min(all_values), max(all_values)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(v: float) -> float:
        return height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    out = _svg_header(width, height)
    out.append(
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>'
    )
    zero = py(0.0)
    out.append(
        f'<line x1="{margin}" y1="{zero:.2f}" x2="{width - margin}" '
        f'y2="{zero:.2f}" stroke="#888888" stroke-dasharray="4 3"/>'
    )
    for i, c in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(
            f"{px(x):.2f},{py(v):.2f}" for x, v in zip(c.xs, c.values)
        )
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        out.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * (i + 1)}" '
            f'font-size="11" fill="{color}">row {c.row}</text>'
        )
    for value, label_y in ((y_hi, margin), (y_lo, height - margin)):
        out.append(
            f'<text x="4" y="{label_y}" font-size="11">{value:.4g}</text>'
        )
    for value, label_x in ((x_lo, margin), (x_hi, width - margin)):
        out.append(
            f'<text x="{label_x}" y="{height - margin + 16}" '
            f'font-size="11">{value:.4g}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def grid_svg(grid: GridSamples) -> str:
    """Grayscale cell grid; darker cells mark stronger violation."""
    margin = 40
    nx, ny = len(grid.xs), len(grid.ys)
    cell = max(2, 400 // max(nx, ny))
    width = 2 * margin + cell * nx
    height = 2 * margin + cell * ny
    f_max = max(grid.values)
    if f_max > 0:
        levels = [round(255 * (1 - f / f_max)) if f > 0 else 255
                  for f in grid.values]
    else:
        levels = [255] * len(grid.values)
    fills = [f'{v:02x}{v:02x}{v:02x}"/>' for v in range(256)]
    heads = [f'<rect x="{margin + ix * cell}" y="' for ix in range(nx)]
    tail = f'" width="{cell}" height="{cell}" fill="#'
    out = _svg_header(width, height)
    for iy in range(ny):
        # y axis points up: last sample row sits at the top
        y_tail = f"{margin + (ny - 1 - iy) * cell}{tail}"
        out += [head + y_tail + fills[level]
                for head, level in zip(heads, levels[iy * nx:(iy + 1) * nx])]
    out.append(
        f'<rect x="{margin}" y="{margin}" width="{cell * nx}" '
        f'height="{cell * ny}" fill="none" stroke="black"/>'
    )
    out.append(
        f'<text x="{margin}" y="{height - margin + 16}" font-size="11">'
        f"x: {min(grid.xs):.4g} .. {max(grid.xs):.4g}, "
        f"y: {min(grid.ys):.4g} .. {max(grid.ys):.4g}, "
        f"max violation {f_max:.6g}</text>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_svg(data, path) -> Path:
    """Render a list of curve samples or one grid to a standalone SVG file."""
    path = Path(path)
    text = grid_svg(data) if isinstance(data, GridSamples) else curves_svg(list(data))
    path.write_text(text, newline="\n")
    return path
