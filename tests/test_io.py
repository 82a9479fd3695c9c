import csv
import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest

from corrpoly import (
    Configuration,
    HRepresentation,
    VRepresentation,
    builtin_model,
    hull,
    parse_angles,
    read_ext,
    read_ine,
    render_svg,
    sample_violation_curve,
    sample_violation_grid,
    scan_violations,
    truth_table,
    write_ext,
    write_ine,
)
from corrpoly.core import ParseError, parse_number
from corrpoly.io import (
    grid_svg,
    parse_polyhedra_file,
    write_curve_csv,
    write_grid_csv,
    write_violation_csv,
)

URN = Configuration((1, 1))


def test_write_ext_urn_body(tmp_path):
    path = write_ext(truth_table(URN), tmp_path / "urn")
    assert path.name == "urn.ext"
    body = path.read_text()
    assert body == (
        "V-representation\n"
        "begin\n"
        "4 4 integer\n"
        "1 0 0 0\n"
        "1 1 0 0\n"
        "1 0 1 0\n"
        "1 1 1 1\n"
        "end\n"
        "Konfiguration 2 1\n"
    )


def test_write_ext_2_2_header(tmp_path):
    vrep = truth_table(Configuration.uniform(2, 2))
    body = write_ext(vrep, tmp_path / "t").read_text()
    lines = body.splitlines()
    assert lines[2] == "16 9 integer"
    assert lines[3] == "1 0 0 0 0 0 0 0 0"
    assert lines[18] == "1 1 1 1 1 1 1 1 1"


def test_minimal_v_fragment_parses():
    # minimal generator file: three vertices in three dimensions
    text = (
        "V-representation\n"
        "begin\n"
        "3 4 integer\n"
        "1 1 0 0\n"
        "1 0 1 0\n"
        "1 1 1 1\n"
        "end\n"
    )
    vrep = parse_polyhedra_file(text)
    assert isinstance(vrep, VRepresentation) and vrep.dimension == 3
    assert vrep.vertices == ((1, 0, 0), (0, 1, 0), (1, 1, 1))


def test_six_constraint_fragment_enumerates(tmp_path):
    text = (
        "H-representation\n"
        "begin\n"
        "6 4 real\n"
        "2 -1 0 0\n"
        "2 0 -1 0\n"
        "-1 1 0 0\n"
        "-1 0 1 0\n"
        "-1 0 0 1\n"
        "4 -1 -1 0\n"
        "end\n"
    )
    path = tmp_path / "sys.ine"
    path.write_text(text)
    hrep = read_ine(path)
    assert hrep.dimension == 3 and len(hrep.rows) == 6
    from corrpoly import enumerate_vertices

    v = enumerate_vertices(hrep)
    assert set(v.vertices) == {(2, 1, 1), (1, 1, 1), (1, 2, 1), (2, 2, 1)}
    assert v.rays == ((0, 0, 1),)


def test_solver_log_output_parses():
    # typical converter output: banner comments, stats, then the data block
    text = (
        "* cdd: Double Description Method\n"
        "* Input File: tmp.ine (6 x 4)\n"
        "* HyperplaneOrder: LexMin\n"
        "* Vertex/Ray enumeration is chosen.\n"
        "* FINAL RESULT:\n"
        "* Number of Vertices = 4, Rays = 1\n"
        "V-representation\n"
        "begin\n"
        "5 4 real\n"
        "1 2 1 1\n"
        "1 1 1 1\n"
        "1 1 2 1\n"
        "1 2 2 1\n"
        "0 0 0 1\n"
        "end\n"
        "hull\n"
    )
    vrep = parse_polyhedra_file(text)
    assert vrep.config is None  # cdd's own options are skipped
    assert set(vrep.vertices) == {(2, 1, 1), (1, 1, 1), (1, 2, 1), (2, 2, 1)}
    assert vrep.rays == ((0, 0, 1),)


def test_comments_and_options_handling(tmp_path):
    text = (
        "* produced by some solver\n"
        "H-representation\n"
        "begin\n"
        "* size follows\n"
        "1 2 integer\n"
        "1 -1\n"
        "end\n"
        "adjacency\n"
        "* trailing comment\n"
        "minindex\n"
        "Konfiguration 1 1\n"
    )
    hrep = parse_polyhedra_file(text)
    assert hrep.config == Configuration.uniform(1, 1)
    assert hrep.rows == ((1, -1),)


def test_konfiguration_option_round_trip(tmp_path, hull_2_3):
    non_uniform = hull(truth_table(Configuration((2, 3))))
    for hrep, size, option in (
        (hull_2_3, "684 16 integer", "Konfiguration 2 3"),
        (non_uniform, "48 12 integer", "Konfiguration 2,3"),
    ):
        path = write_ine(hrep, tmp_path / "layout")
        lines = path.read_text().splitlines()
        assert lines[2] == size
        assert lines[-1] == option
        back = read_ine(path)
        assert back.config == hrep.config
        assert back.rows == hrep.rows


@pytest.mark.parametrize("line", [
    "Konfiguration 0 3", "Konfiguration 2 0", "Konfiguration 30 1",
    "Konfiguration 0,2", "Konfiguration 1000000000000 2",
    "Konfiguration \u0661 \u0661", "Konfiguration 1_0 1",
])
@pytest.mark.parametrize("suffix", [".ine", ".ext"])
def test_bad_konfiguration_is_a_parse_error_naming_the_file(tmp_path, line, suffix):
    kind, read = ("H", read_ine) if suffix == ".ine" else ("V", read_ext)
    path = tmp_path / f"layout{suffix}"
    path.write_text(f"{kind}-representation\nbegin\n1 2 integer\n1 0\nend\n{line}\n")
    with pytest.raises(ParseError, match="layout"):
        read(path)


def test_real_numbertype_snaps_to_rationals():
    text = (
        "V-representation\n"
        "begin\n"
        "2 3 real\n"
        "1 0.5 0.25\n"
        "1 -1.5 2.0E+00\n"
        "end\n"
    )
    vrep = parse_polyhedra_file(text)
    assert vrep.vertices == (
        (Fraction(1, 2), Fraction(1, 4)),
        (Fraction(-3, 2), 2),
    )


def test_rational_numbertype_chosen_when_needed(tmp_path):
    vrep = VRepresentation(2, ((Fraction(1, 2), 0), (1, 1)))
    body = write_ext(vrep, tmp_path / "r").read_text()
    assert "2 3 rational" in body
    assert "1 1/2 0" in body
    # Fractions with denominator 1 are integers, mixed into int rows or not.
    vrep = VRepresentation(2, ((Fraction(4, 2), 0), (1, Fraction(-3))))
    body = write_ext(vrep, tmp_path / "i").read_text()
    assert body.splitlines()[2:5] == ["2 3 integer", "1 2 0", "1 1 -3"]


def test_linearity_round_trip(tmp_path):
    hrep = HRepresentation(
        dimension=2,
        rows=((1, -1, 0), (0, 1, 0), (-1, 1, 1)),
        linearity=frozenset({2}),
    )
    path = write_ine(hrep, tmp_path / "lin")
    text = path.read_text()
    assert "linearity 1 3" in text.splitlines()[1]
    back = read_ine(path)
    assert back.linearity == frozenset({2})
    assert back.rows == hrep.rows


def test_parse_errors():
    cases = [
        "begin\n1 2 integer\n1 0\nend\n",              # missing header
        "V-representation\n1 2 integer\n1 0\nend\n",   # missing begin
        "V-representation\nbegin\n1 2 bogus\n1 0\nend\n",
        "V-representation\nbegin\n2 2 integer\n1 0\nend\n",    # row count
        "V-representation\nbegin\n1 2 integer\n1 0 0\nend\n",  # column count
        "V-representation\nbegin\n1 2 integer\n1 q\nend\n",    # bad token
        "V-representation\nbegin\n1 2 integer\n1 0\n",         # missing end
        "V-representation\nbegin\n1 2 integer\n2 0\nend\n",    # bad row tag
        "V-representation\nlinearity 1 1\nbegin\n1 2 integer\n0 1\nend\n",
        "H-representation\nlinearity 1 9\nbegin\n1 2 integer\n1 0\nend\n",
        "H-representation\nbegin\n2 3 integer\n0 0 0\n1 -1 0\nend\n",  # zero row
        "H-representation\nbegin\n-5 3 integer\nend\n",      # negative count
        "H-representation\nbegin\n1_0 2 integer\n" + "1 0\n" * 10 + "end\n",
        "H-representation\nbegin\n\u0661 2 integer\n1 0\nend\n",
        "H-representation\nlinearity 0_1 1\nbegin\n1 2 integer\n1 0\nend\n",
    ]
    for text in cases:
        with pytest.raises(ParseError):
            parse_polyhedra_file(text)
    # a size line of zero rows is the empty system, not an error
    empty = parse_polyhedra_file("H-representation\nbegin\n0 3 integer\nend\n")
    assert empty == HRepresentation(2, ())


# Tokens of every spelling cdd writes, plus edge cases of Python's int.
NUMBER_CORPUS = [
    "+3", "-0", "007", "0", "-12", "1/2", "-3/6", "4/2", "0.5", "-2.50",
    "1e3", "1E-2", "2.000E+00", "9" * 300, "-" + "7" * 300,
    "1" + "0" * 299 + "/3",
]


@pytest.mark.parametrize("numbertype", ["integer", "rational", "real"])
def test_data_rows_match_per_token_parse(numbertype):
    rng = random.Random(7)
    ints = [t for t in NUMBER_CORPUS if all(c.isdigit() or c in "+-" for c in t)]
    lines = [" ".join(rng.choice(ints) for _ in range(4)) for _ in range(20)]
    lines += [" ".join(rng.choice(NUMBER_CORPUS) for _ in range(4)) for _ in range(40)]
    lines += ["\t".join(ints[:4]), "  1   2\t 3 4  "]
    text = "H-representation\nbegin\n%d 4 %s\n%s\nend\n" % (
        len(lines), numbertype, "\n".join(lines))
    rows = parse_polyhedra_file(text).rows
    expected = [tuple(parse_number(t) for t in line.split()) for line in lines]
    assert list(rows) == expected
    assert [list(map(type, r)) for r in rows] == [list(map(type, r)) for r in expected]


@pytest.mark.parametrize("token", ["1_0", "1_0/3", "\u0663", "\uff11\uff12"])
def test_data_rows_reject_spellings_cdd_does_not_write(token):
    # all-integer lines take the int() fast path, which must not accept these
    for row in (f"1 {token}", f"{token} 1"):
        text = f"H-representation\nbegin\n1 2 integer\n{row}\nend\n"
        with pytest.raises(ParseError, match="bad numeric token"):
            parse_polyhedra_file(text)


@pytest.mark.parametrize("token", ["1_0", "1/0"])
@pytest.mark.parametrize("read,kind", [(read_ine, "H"), (read_ext, "V")])
def test_bad_number_names_the_file_and_data_row(tmp_path, read, kind, token):
    path = tmp_path / f"bad_{kind}.txt"
    path.write_text(f"{kind}-representation\n* a comment\nbegin\n"
                    f"2 3 rational\n1 0 1\n1 {token} 0\nend\n")
    with pytest.raises(ParseError, match=f"bad_{kind}.txt: data row 2: "
                                         f"bad numeric token '{token}'"):
        read(path)


def test_wrong_kind_rejected(tmp_path):
    for kind, read in (("H", read_ext), ("V", read_ine)):
        path = tmp_path / f"{kind}_text"
        path.write_text(f"{kind}-representation\nbegin\n1 2 integer\n1 0\nend\n")
        with pytest.raises(ParseError, match=f"{kind}_text"):
            read(path)


def random_vrep(rng):
    d = rng.randint(1, 5)
    n_v = rng.randint(1, 6)
    n_r = rng.randint(0, 3)

    def coord():
        if rng.random() < 0.5:
            return rng.randint(-5, 5)
        return Fraction(rng.randint(-10, 10), rng.randint(1, 9))

    vertices = {tuple(coord() for _ in range(d)) for _ in range(n_v)}
    rays = {tuple(coord() for _ in range(d)) for _ in range(n_r)}
    rays = {r for r in rays if any(r)}
    return VRepresentation(d, tuple(sorted(vertices)), tuple(sorted(rays)))


def random_hrep(rng):
    d = rng.randint(1, 5)
    n = rng.randint(1, 8)
    rows = []
    while len(rows) < n:
        row = tuple(
            Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(d + 1)
        )
        if any(row):
            rows.append(row)
    linearity = frozenset(i for i in range(n) if rng.random() < 0.2)
    return HRepresentation(d, tuple(rows), linearity)


def test_random_representation_round_trips(tmp_path):
    rng = random.Random(2024)
    for i in range(100):
        vrep = random_vrep(rng)
        path = write_ext(vrep, tmp_path / f"v{i}")
        back = read_ext(path)
        assert set(back.vertices) == set(vrep.vertices)
        assert set(back.rays) == set(vrep.rays)
        assert back.dimension == vrep.dimension
    for i in range(100):
        hrep = random_hrep(rng)
        path = write_ine(hrep, tmp_path / f"h{i}")
        back = read_ine(path)
        assert [tuple(r) for r in back.rows] == [tuple(r) for r in hrep.rows]
        assert back.linearity == hrep.linearity


def test_byte_identical_output(tmp_path, hull_2_2):
    a = write_ine(hull_2_2, tmp_path / "a").read_bytes()
    b = write_ine(hull_2_2, tmp_path / "b").read_bytes()
    assert a == b
    assert b"\r" not in a


# ------------------------------------------------------------- CSV and SVG

def scan_2_3(hull_2_3):
    config = Configuration.uniform(2, 3)
    return scan_violations(
        hull_2_3,
        builtin_model("singlet"),
        angles=parse_angles("0,2pi/3,4pi/3;0,2pi/3,4pi/3", config),
    )


def test_violation_csv(tmp_path, hull_2_3):
    reports = scan_2_3(hull_2_3)
    path = write_violation_csv(reports, tmp_path / "viol.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "row,inequality,violation"
    assert len(lines) == 13  # 12 reports
    assert lines[1].split(",")[2] == "0.25000000000000006" or float(
        lines[1].split(",")[2]
    ) == pytest.approx(0.25)


def test_curve_csv(tmp_path, hull_2_2):
    config = Configuration.uniform(2, 2)
    curves = sample_violation_curve(
        hull_2_2,
        builtin_model("singlet"),
        angles=parse_angles("-pi/3+x,0;0,2x", config),
        x_range=(0.0, math.pi),
        samples=9,
    )
    path = write_curve_csv(curves, tmp_path / "curve.csv")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("x,row")
    assert len(lines) == 10
    assert len(lines[1].split(",")) == len(curves) + 1


def test_curve_csv_constant_column(tmp_path, hull_2_2):
    config = Configuration.uniform(2, 2)
    curves = sample_violation_curve(
        hull_2_2,
        builtin_model("singlet"),
        angles=parse_angles("0,2pi/3;-2pi/3,0", config),
        x_range=(0.0, 1.0),
        samples=4,
    )
    path = write_curve_csv(curves, tmp_path / "const.csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    values = {line.split(",")[1] for line in lines[1:]}
    assert len(values) == 1  # constant second column


def test_grid_csv_cell_count(tmp_path, hull_2_2):
    config = Configuration.uniform(2, 2)
    grids = sample_violation_grid(
        hull_2_2,
        builtin_model("singlet"),
        angles=parse_angles("x,0;0,y", config),
        samples_x=7,
        samples_y=5,
    )
    assert grids
    path = write_grid_csv(grids[0], tmp_path / "grid.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,f"
    assert len(lines) == 1 + 7 * 5


def test_grid_csv_matches_csv_writer(tmp_path, hull_2_2):
    config = Configuration.uniform(2, 2)
    grid = sample_violation_grid(
        hull_2_2,
        builtin_model("singlet"),
        angles=parse_angles("x,0;0,y", config),
        samples_x=7,
        samples_y=5,
    )[0]
    odd = (-0.0, 1e-300, 1 / 3, 1.5e16, float("inf"), Fraction(1, 3), 0, -2.5)
    for values in (grid.values, odd * 4 + (0.1, 0.2, 0.3)):
        sample = dataclasses.replace(grid, values=values)
        with open(tmp_path / "oracle.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x", "y", "f"])
            for iy, y in enumerate(sample.ys):
                for ix, x in enumerate(sample.xs):
                    writer.writerow([x, y, sample.values[iy * len(sample.xs) + ix]])
        got = write_grid_csv(sample, tmp_path / "grid.csv").read_bytes()
        assert got == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("layout,angles,samples,row,digest", [
    ((2, 2), "x,0;0,y", 9, 18,
     "069c2e4e632f997952873e43af1b60589f4d5330fd72a004a8a37f60628c32a5"),
    ((2, 3), "x,0,2pi/3;0,y,4pi/3", 41, 22,
     "5cf4900fa04a4784c732935a1f81ba7a542bcb1f742867bf84b5c5189759d321"),
])
def test_grid_svg_bytes_pinned(hull_2_2, hull_2_3, layout, angles, samples, row, digest):
    config = Configuration.uniform(*layout)
    hrep = hull_2_2 if layout == (2, 2) else hull_2_3
    (grid,) = sample_violation_grid(
        hrep,
        builtin_model("singlet"),
        angles=parse_angles(angles, config),
        samples_x=samples,
        samples_y=samples,
        rows=(row, row),
    )
    assert hashlib.sha256(grid_svg(grid).encode()).hexdigest() == digest
    # a grid with no violation renders every cell white
    calm = grid_svg(dataclasses.replace(grid, values=tuple(-abs(v) for v in grid.values)))
    assert calm.count('fill="#ffffff"') == samples * samples


def test_svg_outputs(tmp_path, hull_2_2):
    config = Configuration.uniform(2, 2)
    curves = sample_violation_curve(
        hull_2_2,
        builtin_model("singlet"),
        angles=parse_angles("-pi/3+x,0;0,2x", config),
        samples=17,
    )
    svg = render_svg(curves, tmp_path / "c.svg").read_text()
    assert svg.startswith("<?xml")
    assert svg.count("<polyline") == len(curves)
    assert svg.rstrip().endswith("</svg>")

    grids = sample_violation_grid(
        hull_2_2,
        builtin_model("singlet"),
        angles=parse_angles("x,0;0,y", config),
        samples_x=9,
        samples_y=9,
    )
    gsvg = render_svg(grids[0], tmp_path / "g.svg").read_text()
    assert gsvg.count("<rect") >= 81
    # darker cells mark stronger violation: some non-white cell exists
    assert any(f > 0 for f in grids[0].values)
    assert 'fill="#ffffff"' in gsvg or 'fill="white"' in gsvg


def test_svg_deterministic(tmp_path, hull_2_2):
    config = Configuration.uniform(2, 2)
    curves = sample_violation_curve(
        hull_2_2,
        builtin_model("singlet"),
        angles=parse_angles("-pi/3+x,0;0,2x", config),
        samples=17,
    )
    a = render_svg(curves, tmp_path / "a.svg").read_bytes()
    b = render_svg(curves, tmp_path / "b.svg").read_bytes()
    assert a == b
