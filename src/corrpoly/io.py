"""Polyhedra file formats (.ext/.ine) plus CSV and SVG report emission.

The .ext/.ine layouts follow the cdd ecosystem: a kind header, an optional
``linearity`` line, ``begin``, a ``rows columns numbertype`` size line,
whitespace-separated data rows and ``end``.  Comment lines starting with
``*`` are ignored on input.  Of the option lines after ``end`` only the
``Konfiguration`` line, this package's record of the layout, is read and
written; cdd's own options are skipped.  A layout must fit the file: its
event count is the dimension, or the file does not parse.  Output is
byte-stable: one UTF-8 writer, LF line ends, canonical number rendering.
"""

from __future__ import annotations

from array import array
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

from .core import (
    Configuration,
    NumberLike,
    ParseError,
    _shown,
    format_number,
    parse_count,
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
            try:
                lines.append(" ".join(map(str, row)))
                continue
            except ValueError:  # an int past the digit limit of ``str``
                pass
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
    """A count in a header or option line, read by ``parse_count``."""
    try:
        return parse_count(token)
    except ValueError:
        raise ParseError(f"{source}: bad count {_shown(token)} in {_shown(line)}") from None


# How many distinct tokens one parse keeps parsed: cdd files repeat a few
# small numbers, and the bound keeps a file of all-distinct tokens cheap.
_KNOWN_TOKENS = 4096


def _parse_row(line: str, tokens: list[str]) -> tuple[NumberLike, ...]:
    """The numbers of one data row; ``tokens`` is ``line.split()``.

    The reader calls it for a row with a token it has not parsed before.
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
    ``Konfiguration`` line after ``end`` sets ``config``.  Malformed text,
    a ``Konfiguration`` whose event count is not the dimension included,
    raises ``ParseError`` naming ``source``.
    """
    lines = iter([ln for ln in map(str.strip, text.splitlines())
                  if ln and not ln.startswith("*")])

    def next_line() -> str:
        line = next(lines, None)
        if line is None:
            raise ParseError(f"{source}: unexpected end of file")
        return line

    header = next_line()
    if header not in ("H-representation", "V-representation"):
        raise ParseError(f"{source}: malformed header {_shown(header)}")

    linearity: frozenset[int] = frozenset()
    line = next_line()
    if line.startswith("linearity"):
        if header[0] == "V":
            raise ParseError(f"{source}: linearity rows are not supported in .ext input")
        numbers = [_count(t, line, source) for t in line.split()[1:]]
        linearity = frozenset(i - 1 for i in numbers[1:])
        # a count, then that many distinct 1-based row indices
        if not numbers or not numbers[0] == len(numbers) - 1 == len(linearity) or -1 in linearity:
            raise ParseError(f"{source}: malformed linearity line {_shown(line)}")
        line = next_line()
    if line != "begin":
        raise ParseError(f"{source}: expected 'begin', found {_shown(line)}")

    line = next_line()
    size = line.split()
    if len(size) != 3 or size[2] not in _NUMBER_TYPES:
        raise ParseError(f"{source}: malformed size line {_shown(line)}")
    m, n = _count(size[0], line, source), _count(size[1], line, source)

    # A row of the right width whose tokens this call has parsed is looked
    # up in ``known``; any other row is checked, parsed and adds its tokens
    # while ``known`` is below ``_KNOWN_TOKENS``.
    rows = []
    known: dict[str, NumberLike] = {}
    get = known.__getitem__
    for k, line in enumerate(islice(lines, m), 1):
        tokens = line.split()
        if len(tokens) == n:
            try:
                rows.append(tuple(map(get, tokens)))
                continue
            except KeyError:
                pass
        if tokens == ["end"]:
            raise ParseError(f"{source}: expected {m} data rows")
        if len(tokens) != n:
            raise ParseError(
                f"{source}: row has {len(tokens)} entries, expected {n}"
            )
        try:
            row = _parse_row(line, tokens)
        except ParseError as exc:
            raise ParseError(f"{source}: data row {k}: {exc}") from None
        rows.append(row)
        if len(known) < _KNOWN_TOKENS:
            known.update(zip(tokens, row))
    if next_line() != "end":  # lines that ran out in the block raise here too
        raise ParseError(f"{source}: expected 'end' after {m} data rows")
    if linearity and max(linearity) >= m:
        index = _shown(format_number(max(linearity) + 1), str)
        raise ParseError(f"{source}: linearity index {index} out of range")

    dimension = max(n - 1, 0)
    config = _read_config(lines, source)
    try:
        if header[0] == "H":
            return HRepresentation(dimension, tuple(rows), linearity, config)
        vertices, rays = [], []
        for row in rows:
            if row[0] not in (0, 1):
                first = _shown(format_number(row[0]), str)
                raise ParseError(
                    f"{source}: generator rows must start with 0 or 1, got {first}"
                )
            (vertices if row[0] == 1 else rays).append(row[1:])
        return VRepresentation(dimension, tuple(vertices), tuple(rays), config)
    except ValueError as exc:  # an all-zero row, a layout of another dimension
        raise ParseError(f"{source}: {exc}") from None


def _read_config(options: Iterable[str], source: str) -> Configuration | None:
    """The layout of the first ``Konfiguration N M`` (N particles with M settings
    each) or ``Konfiguration M1,M2,...`` line, if there is one."""
    for line in options:
        fields = line.split()
        if fields[:1] != ["Konfiguration"]:
            continue
        try:
            if len(fields) == 3:
                return Configuration.uniform(*(_count(f, line, source) for f in fields[1:]))
            if len(fields) == 2 and "," in fields[1]:
                return Configuration(
                    tuple(_count(f, line, source) for f in fields[1].split(","))
                )
            raise ValueError("expected 'N M' or 'M1,M2,...'")
        except ValueError as exc:
            raise ParseError(f"{source}: bad {_shown(line)}: {exc}") from None
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
    try:
        text = path.read_text(encoding="utf-8-sig")  # skips a leading byte-order mark
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    rep = parse_polyhedra_file(text, str(path))
    if not isinstance(rep, kind):
        raise ParseError(f"{path}: header is not {kind.__name__[0]}-representation")
    return rep


def _write_text(path, text: str) -> Path:
    """Write ``text`` as UTF-8, whatever the locale, with its ``\\n`` line
    ends untranslated: the one way every output file is written."""
    path = Path(path)
    path.write_text(text, encoding="utf-8", newline="")
    return path


def _write(rep: HRepresentation | VRepresentation, path, suffix: str) -> Path:
    path = Path(path)
    if path.suffix != suffix:
        path = path.with_name(path.name + suffix)
    return _write_text(path, format_polyhedra_file(rep))


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


def _csv(rows: Iterable[Iterable]) -> str:
    """Fields as their ``str`` joined by ``,``, lines ended by ``\\n``: the bytes
    of ``csv.writer(lineterminator="\\n")``, as ``str`` of a float is the
    ``repr`` it writes and no field holds a comma, quote or line break."""
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def write_violation_csv(reports: Sequence[ViolationReport], path) -> Path:
    """Columns ``row,inequality,violation``, one line per report."""
    rows = [(r.row, to_text(r.inequality), r.amount) for r in reports]
    return _write_text(path, _csv([("row", "inequality", "violation"), *rows]))


def write_curve_csv(curves: Sequence[CurveSamples], path) -> Path:
    """Column ``x`` plus one value column per curve, named by source row."""
    if not curves:
        raise ValueError("no curves to write")
    if any(c.xs != curves[0].xs for c in curves):
        raise ValueError("curves were sampled on different grids")
    return _write_text(path, _csv([("x", *(f"row{c.row}" for c in curves)),
                                   *zip(curves[0].xs, *(c.values for c in curves))]))


def write_grid_csv(grid: GridSamples, path) -> Path:
    """Long form ``x,y,f`` rows, x fastest, by ``_csv``'s rule in one join."""
    parts = [""] * (3 * len(grid.values))
    parts[::3] = [f"\n{x}," for x in grid.xs] * len(grid.ys)
    parts[1::3] = [y for y in [f"{y}," for y in grid.ys] for _ in grid.xs]
    # an array holds floats, whose repr is their str but faster to call; a
    # tuple may hold Fractions, whose repr is not
    parts[2::3] = map(repr if isinstance(grid.values, array) else str, grid.values)
    return _write_text(path, "x,y,f" + "".join(parts) + "\n")


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#e377c2", "#17becf",
)
#: The end of a ``grid_svg`` cell for each grey level: its fill and the tag's close.
_GREYS = tuple(f'{v:02x}{v:02x}{v:02x}"/>\n' for v in range(256))


def _svg(width: int, height: int, body: Sequence[str]) -> str:
    """A standalone SVG document on a white page, ``body`` one entry per line."""
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        *body,
        "</svg>\n",
    ])


def curves_svg(curves: Sequence[CurveSamples]) -> str:
    """Self-contained SVG with one polyline per violation curve."""
    if not curves:
        raise ValueError("no curves to render")
    width, height, margin = 640, 480, 50
    xs = curves[0].xs
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
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

    zero = py(0.0)
    out = [
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>',
        f'<line x1="{margin}" y1="{zero:.2f}" x2="{width - margin}" '
        f'y2="{zero:.2f}" stroke="#888888" stroke-dasharray="4 3"/>',
    ]
    for i, c in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(v):.2f}" for x, v in zip(c.xs, c.values))
        out += [
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>',
            f'<text x="{width - margin + 4}" y="{margin + 14 * (i + 1)}" '
            f'font-size="11" fill="{color}">row {c.row}</text>',
        ]
    out += [f'<text x="4" y="{label_y}" font-size="11">{value:.4g}</text>'
            for value, label_y in ((y_hi, margin), (y_lo, height - margin))]
    out += [f'<text x="{label_x}" y="{height - margin + 16}" '
            f'font-size="11">{value:.4g}</text>'
            for value, label_x in ((x_lo, margin), (x_hi, width - margin))]
    return _svg(width, height, out)


def grid_svg(grid: GridSamples) -> str:
    """Grayscale cell grid; darker cells mark stronger violation."""
    margin = 40
    nx, ny = len(grid.xs), len(grid.ys)
    cell = max(2, 400 // max(nx, ny))
    width = 2 * margin + cell * nx
    height = 2 * margin + cell * ny
    f_max = max(grid.values)
    # One join interleaves per cell: the x head, the y part, the fill.
    tail = f'" width="{cell}" height="{cell}" fill="#'
    cells = [""] * (3 * nx * ny)
    cells[::3] = [f'<rect x="{margin + ix * cell}" y="' for ix in range(nx)] * ny
    # y axis points up: last sample row sits at the top
    cells[1::3] = [y for y in [f"{margin + (ny - 1 - iy) * cell}{tail}"
                               for iy in range(ny)] for _ in range(nx)]
    white = _GREYS[255]  # every cell when f_max <= 0, as then no f is above 0
    cells[2::3] = [_GREYS[round(255 * (1 - f / f_max))] if f > 0 else white
                   for f in grid.values]
    return _svg(width, height, [
        "".join(cells)
        + f'<rect x="{margin}" y="{margin}" width="{cell * nx}" '
        f'height="{cell * ny}" fill="none" stroke="black"/>',
        f'<text x="{margin}" y="{height - margin + 16}" font-size="11">'
        f"x: {min(grid.xs):.4g} .. {max(grid.xs):.4g}, "
        f"y: {min(grid.ys):.4g} .. {max(grid.ys):.4g}, "
        f"max violation {float(f_max):.6g}</text>",
    ])


def render_svg(data, path) -> Path:
    """Render a list of curve samples or one grid to a standalone SVG file."""
    text = grid_svg(data) if isinstance(data, GridSamples) else curves_svg(list(data))
    return _write_text(path, text)
