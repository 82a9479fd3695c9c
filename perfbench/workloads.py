"""The benchmark workloads: seeded inputs, one timed op, and its answer gate.

Every workload runs on the paper's 2x3 layout.  A workload object is built
during set-up (its inputs come from the seed), ``op(i)`` is the timed unit of
work and ``check(i, out)`` verifies that op's answer outside the timed
interval, returning an error message or ``None``.  Ops call the package
through module attributes (``cp.polyhedra.hull``) so that the tracer can
wrap the public entry points from outside.

Answers are compared in canonical form, by inequality text and vertex
tuples, because the seed permutes vertex and row order.  The expected
answers come from ``data/reference_2x3.json`` (written by
``make_reference.py``) and from evaluations that share no code with the
package's quantum layer.
"""

from __future__ import annotations

import json
import math
import random
from functools import cached_property
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data" / "reference_2x3.json"

#: Absolute tolerance for float answers, the package's own reporting guard.
EPS = 1e-9
#: The symmetric three-angle setting of the paper: 12 violations.
SYMMETRIC_ANGLES = "0,2pi/3,4pi/3;0,2pi/3,4pi/3"
#: The ``corrpoly contour`` angles of the ``grid`` workload.
GRID_ANGLES = "x,0,2pi/3;0,y,4pi/3"
GRID_SAMPLES = 41
#: Grid points re-evaluated independently per op by the ``grid`` gate.
GRID_CHECK_POINTS = 8
#: Seeded random settings drawn during set-up for the ``scan`` workload.
SCAN_SETTINGS = 64


def load_reference() -> dict:
    """The reference answers, with rows and vertices as integer tuples."""
    ref = json.loads(DATA.read_text())
    ref["facets"]["rows"] = [tuple(map(int, r.split())) for r in ref["facets"]["rows"]]
    ref["vertices"] = [tuple(map(int, v.split())) for v in ref["vertices"]]
    return ref


def singlet_vector(events, angles) -> list[float]:
    """Singlet probabilities computed without the package's quantum layer.

    ``angles[p][s]`` is the angle of particle ``p`` in setting ``s``;
    singles are 1/2 and pairs ``sin^2((theta - phi) / 2) / 2``.
    """
    out = []
    for ev in events:
        if len(ev.particles) == 1:
            out.append(0.5)
        else:
            (p, q), (s, t) = ev.particles, ev.choices
            out.append(0.5 * math.sin((angles[p][s] - angles[q][t]) / 2) ** 2)
    return out


def linspace(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def grid_angles(x: float, y: float) -> tuple[tuple[float, ...], ...]:
    """``GRID_ANGLES`` at one grid point."""
    return ((x, 0.0, 2 * math.pi / 3), (0.0, y, 4 * math.pi / 3))


def format_ine(rows) -> str:
    """cdd ``.ine`` text for full-dimensional integer rows on the 2x3 layout."""
    lines = ["H-representation", "begin", f"{len(rows)} {len(rows[0])} integer"]
    lines += [" ".join(str(x) for x in row) for row in rows]
    lines += ["end", "Konfiguration 2 3"]
    return "\n".join(lines) + "\n"


class Workload:
    """Shared set-up: the package modules, the reference, the seeded RNG."""

    def __init__(self, cp, seed: int, workdir: Path, layout=(2, 3)):
        self.cp = cp
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.config = cp.Configuration.uniform(*layout)
        self.ref = load_reference()

    def write_permuted_ine(self, name: str) -> Path:
        rows = list(self.ref["facets"]["rows"])
        self.rng.shuffle(rows)
        path = self.workdir / name
        path.write_text(format_ine(rows), newline="\n")
        return path

    @cached_property
    def ref_texts(self) -> set[str]:
        return set(self.ref["facets"]["texts"])

    @cached_property
    def ref_inequalities(self) -> dict:
        """Reference facets as ``Inequality`` objects, keyed by text."""
        Inequality = self.cp.inequalities.Inequality
        return {
            text: Inequality(tuple(-a for a in row[1:]), row[0], self.config)
            for text, row in zip(self.ref["facets"]["texts"],
                                 self.ref["facets"]["rows"])
        }

    @cached_property
    def events(self):
        return self.cp.core.enumerate_events(self.config)

    def text(self, ineq) -> str:
        return self.cp.inequalities.to_text(ineq)


class Hull(Workload):
    """truth_table -> hull -> write_ine: the forward DD direction."""

    def __init__(self, cp, seed, workdir, layout=(2, 3), expected_facets=None):
        super().__init__(cp, seed, workdir, layout)
        n = 1 << sum(self.config.settings)
        self.perm = list(range(n))
        self.rng.shuffle(self.perm)
        self.expected_facets = expected_facets
        self.out_path = workdir / "hull.ine"

    def op(self, i):
        cp = self.cp
        table = cp.vertices.truth_table(self.config)
        vrep = cp.vertices.VRepresentation(
            dimension=table.dimension,
            vertices=tuple(table.vertices[j] for j in self.perm),
            config=self.config,
        )
        hrep = cp.polyhedra.hull(vrep)
        cp.io.write_ine(hrep, self.out_path)
        return hrep

    def check(self, i, hrep):
        if hrep.linearity:
            return f"unexpected {len(hrep.linearity)} linearity rows"
        if self.expected_facets is not None:
            if len(hrep.rows) != self.expected_facets:
                return f"{len(hrep.rows)} facets, expected {self.expected_facets}"
        else:
            texts = {self.text(q) for q in self.cp.inequalities.from_hrep(hrep)}
            if len(hrep.rows) != len(self.ref_texts) or texts != self.ref_texts:
                return (f"{len(hrep.rows)} facets differ from the "
                        f"{len(self.ref_texts)} reference facets")
        if self.cp.io.read_ine(self.out_path).rows != hrep.rows:
            return "written .ine does not read back to the same rows"
        return None


class Enum(Workload):
    """read_ine -> enumerate_vertices -> write_ext: the reverse DD direction."""

    def __init__(self, cp, seed, workdir):
        super().__init__(cp, seed, workdir)
        self.in_path = self.write_permuted_ine("facets.ine")
        self.out_path = workdir / "vertices.ext"

    def op(self, i):
        cp = self.cp
        hrep = cp.io.read_ine(self.in_path)
        vrep = cp.polyhedra.enumerate_vertices(hrep)
        cp.io.write_ext(vrep, self.out_path)
        return vrep

    def check(self, i, vrep):
        expected = set(self.ref["vertices"])
        if vrep.rays:
            return f"{len(vrep.rays)} rays, expected none"
        if len(vrep.vertices) != len(expected) or set(vrep.vertices) != expected:
            return (f"{len(vrep.vertices)} vertices differ from the "
                    f"{len(expected)} truth-table vertices")
        return None


class Grid(Workload):
    """The ``corrpoly contour`` path: a 41x41 singlet grid plus its files."""

    def __init__(self, cp, seed, workdir):
        super().__init__(cp, seed, workdir)
        self.in_path = self.write_permuted_ine("facets.ine")
        self.out_dir = workdir / "contour"
        self.out_dir.mkdir()

    def op(self, i):
        cp = self.cp
        hrep = cp.io.read_ine(self.in_path)
        angles = cp.quantum.parse_angles(GRID_ANGLES, hrep.config)
        grids = cp.quantum.sample_violation_grid(
            hrep, cp.quantum.builtin_model("singlet"), angles=angles,
            samples_x=GRID_SAMPLES, samples_y=GRID_SAMPLES,
        )
        for grid in grids:
            stem = self.out_dir / f"contour_row{grid.row}"
            cp.io.write_grid_csv(grid, f"{stem}.csv")
            cp.io.render_svg(grid, f"{stem}.svg")
        return grids

    def check(self, i, grids):
        expected = self.ref["grid"]["max"]
        got = {self.text(g.inequality): g for g in grids}
        if len(got) != len(grids) or set(got) != set(expected):
            return (f"{len(grids)} violated rows differ from the "
                    f"{len(expected)} reference rows")
        for text, grid in got.items():
            if abs(max(grid.values) - expected[text]) > EPS:
                return f"maximum of {text!r} is {max(grid.values)}, expected {expected[text]}"
        written = sum(1 for _ in self.out_dir.iterdir())
        if written != 2 * len(grids):
            return f"{written} files written, expected {2 * len(grids)}"
        xs = linspace(0.0, math.pi, GRID_SAMPLES)
        rng = random.Random(self.seed * 1_000_003 + i)
        for _ in range(GRID_CHECK_POINTS):
            ix, iy = rng.randrange(GRID_SAMPLES), rng.randrange(GRID_SAMPLES)
            vec = singlet_vector(self.events, grid_angles(xs[ix], xs[iy]))
            for text, ineq in self.ref_inequalities.items():
                value = ineq.evaluate(vec)
                grid = got.get(text)
                if grid is None:
                    if value > EPS:
                        return f"{text!r} violated by {value} at ({ix}, {iy}) but not reported"
                elif abs(grid.values[iy * GRID_SAMPLES + ix] - value) > EPS:
                    return f"{text!r} at ({ix}, {iy}) reads {grid.values[iy * GRID_SAMPLES + ix]}, expected {value}"
        return None


class Scan(Workload):
    """The ``corrpoly violations`` path, one setting per op.

    Even ops use the symmetric reference setting; odd ops use one of
    ``SCAN_SETTINGS`` random settings drawn from the seed.
    """

    def __init__(self, cp, seed, workdir):
        super().__init__(cp, seed, workdir)
        self.in_path = self.write_permuted_ine("facets.ine")
        # Rounded to the digits written out, so the gate sees the same angles.
        self.settings = [
            [[round(self.rng.uniform(0.0, 2 * math.pi), 12) for _ in range(3)]
             for _ in range(2)]
            for _ in range(SCAN_SETTINGS)
        ]
        self.setting_texts = [
            ";".join(",".join(f"{a:.12f}" for a in part) for part in s)
            for s in self.settings
        ]

    def setting(self, i) -> tuple[str, list | None]:
        if i % 2 == 0:
            return SYMMETRIC_ANGLES, None
        k = (i // 2) % SCAN_SETTINGS
        return self.setting_texts[k], self.settings[k]

    def op(self, i):
        cp = self.cp
        text, _ = self.setting(i)
        hrep = cp.io.read_ine(self.in_path)
        angles = cp.quantum.parse_angles(text, hrep.config)
        reports = cp.quantum.scan_violations(
            hrep, cp.quantum.builtin_model("singlet"), angles=angles
        )
        return [(cp.inequalities.to_text(r.inequality), r.amount) for r in reports]

    def check(self, i, lines):
        got = dict(lines)
        if len(got) != len(lines):
            return "an inequality is reported twice"
        _, angles = self.setting(i)
        if angles is None:
            third = 2 * math.pi / 3
            angles = [[0.0, third, 2 * third]] * 2
            amounts = sorted(got.values())
            if len(amounts) != 12 or any(
                abs(a - want) > EPS
                for a, want in zip(amounts, [0.125] * 6 + [0.25] * 6)
            ):
                return f"symmetric setting gives {amounts}, expected six 1/8 and six 1/4"
        vec = singlet_vector(self.events, angles)
        expected = {}
        for text, ineq in self.ref_inequalities.items():
            value = ineq.evaluate(vec)
            if value > EPS:
                expected[text] = value
        if set(got) != set(expected):
            return f"{len(got)} violations reported, {len(expected)} expected"
        for text, amount in got.items():
            if abs(amount - expected[text]) > EPS:
                return f"{text!r} violated by {amount}, expected {expected[text]}"
        return None


WORKLOADS = {"hull": Hull, "enum": Enum, "grid": Grid, "scan": Scan}
