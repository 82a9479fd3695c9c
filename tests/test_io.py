import csv
import dataclasses
import hashlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import corrpoly
import corrpoly.io as cpio

from corrpoly import (
    Configuration,
    HRepresentation,
    ProbabilityModel,
    ProbabilityVector,
    VRepresentation,
    builtin_model,
    hull,
    parse_angles,
    probability_vector,
    read_ext,
    read_ine,
    render_svg,
    sample_violation_curve,
    sample_violation_grid,
    scan_probability_vector,
    scan_violations,
    to_text,
    truth_table,
    write_ext,
    write_ine,
)
from corrpoly.core import ParseError, parse_number
from corrpoly.io import (
    curves_svg,
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
    path.write_text(f"{kind}-representation\nbegin\n1 2 integer\n1 0\nend\n{line}\n",
                    encoding="utf-8")
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


@pytest.mark.parametrize("body,message", [
    ("2 2 integer\n1 0\nend\n", "expected 2 data rows"),
    ("2 2 integer\n1 0\n", "unexpected end of file"),
    ("2 2 integer\n1 0\n* a comment\n\n", "unexpected end of file"),
    ("2 2 integer\n1 0\n1 0 0\nend\n", "row has 3 entries, expected 2"),
    # rows 1 and 2 put every token of row 3 but the bad one among the known
    # ones: a bad last token skips the lookup, a bad middle one fails it
    ("3 3 integer\n1 0 1\n0 1 0\n1 0 q\nend\n", "data row 3: bad numeric token 'q'"),
    ("3 3 integer\n1 0 1\n0 1 0\n1 q 0\nend\n", "data row 3: bad numeric token 'q'"),
    ("3 3 integer\n1 0 1\n0 1 0\n1 0 1_0\nend\n",
     "data row 3: bad numeric token '1_0'"),
])
def test_data_block_error_messages(body, message):
    with pytest.raises(ParseError) as info:
        parse_polyhedra_file("H-representation\nbegin\n" + body, "f.ine")
    assert str(info.value) == f"f.ine: {message}"


def test_comment_and_blank_lines_between_data_rows_are_skipped():
    plain = "H-representation\nbegin\n3 3 integer\n1 0 1\n0 1 0\n1 2 0\nend\n"
    noisy = ("H-representation\n* head\nbegin\n\n3 3 integer\n1 0 1\n"
             "* between rows\n   \n\t\n0 1 0\n  * indented\n1 2 0\n\nend\n"
             "* after end\n\nKonfiguration 1 2\n")
    assert parse_polyhedra_file(noisy) == dataclasses.replace(
        parse_polyhedra_file(plain), config=Configuration.uniform(1, 2))


def test_known_token_lookup_is_bounded_and_per_call(monkeypatch):
    # More distinct tokens than the lookup keeps, then rows whose tokens are
    # new once it is full: every such row is parsed afresh, never remembered.
    cap = cpio._KNOWN_TOKENS
    rng = random.Random(11)
    wide = [[str(rng.randrange(10**9, 10**10)) for _ in range(16)]
            for _ in range(cap // 16 + 44)]
    small = [[str(rng.randrange(-3, 4)) for _ in range(16)] for _ in range(20)]
    mixed = [["1/2", "-3/6", "0.5", "2.50", *row[4:]] for row in small[:5]]
    lines = [" ".join(t) for t in wide + small + mixed]
    assert len({token for row in wide for token in row}) > cap
    text = "H-representation\nbegin\n%d 16 rational\n%s\nend\n" % (
        len(lines), "\n".join(lines))
    calls = []
    parse_row = cpio._parse_row
    monkeypatch.setattr(cpio, "_parse_row", lambda *a: calls.append(1) or parse_row(*a))
    first = parse_polyhedra_file(text).rows
    expected = [tuple(parse_number(t) for t in line.split()) for line in lines]
    assert list(first) == expected
    assert [list(map(type, r)) for r in first] == [list(map(type, r)) for r in expected]
    assert len(calls) == len(lines)
    # a second parse starts from an empty lookup, so it parses as many rows
    assert parse_polyhedra_file(text).rows == first and len(calls) == 2 * len(lines)
    # below the cap a repeated row is parsed once and then looked up
    calls.clear()
    repeated = "H-representation\nbegin\n50 16 rational\n%s\nend\n" % (
        "\n".join([" ".join(small[0])] * 25 + [" ".join(mixed[0])] * 25))
    rows = parse_polyhedra_file(repeated).rows
    assert rows == (tuple(map(parse_number, small[0])),) * 25 + (
        tuple(map(parse_number, mixed[0])),) * 25
    assert len(calls) == 2


def reference_read(text, source):
    """The data rows of an H-representation by the plain rule, or the text
    of the ``ParseError`` it raises: strip every line, skip blank and ``*``
    lines, split, and read each token with ``parse_number``."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("*")]
    assert lines[:2] == ["H-representation", "begin"]
    m, n = (int(t) for t in lines[2].split()[:2])
    rows = []
    for k, line in enumerate(lines[3:3 + m], 1):
        tokens = line.split()
        if tokens == ["end"]:
            return f"{source}: expected {m} data rows"
        if len(tokens) != n:
            return f"{source}: row has {len(tokens)} entries, expected {n}"
        try:
            rows.append(tuple(parse_number(t) for t in tokens))
        except ParseError as exc:
            return f"{source}: data row {k}: {exc}"
    if len(lines) <= 3 + m:
        return f"{source}: unexpected end of file"
    if lines[3 + m] != "end":
        return f"{source}: expected 'end' after {m} data rows"
    if any(all(v == 0 for v in row) for row in rows):
        return f"{source}: all-zero constraint row"
    return tuple(rows)


READER_TOKENS = ["0", "1", "-1", "2", "-3", "+3", "-0", "007", "1/2", "-3/6", "4/2",
                 "0.5", "2.50", "1e3", "9" * 40]


def noisy_ine(rng, rows, m, n, tail=(["end"],)):
    """Rows of tokens as ``.ine`` text with ``m n`` in its size line, then
    the token lists of ``tail``: blank and ``*`` lines between the lines,
    mixed spacing, and LF or CRLF line ends."""
    lines = ["H-representation", "begin", f"{m} {n} rational"]
    for r in [*rows, *tail]:
        while rng.random() < 0.3:
            lines.append(rng.choice(["", "   ", "\t", "* a comment", "  * 1 2 3", "*"]))
        pad = rng.choice(["", " ", "\t"])
        lines.append(pad + rng.choice([" ", "  ", "\t", " \t "]).join(r) + pad)
    end = rng.choice(["\n", "\r\n"])
    return end.join(lines) + rng.choice(["", end])


def test_reader_matches_a_plain_reference_reader():
    rng = random.Random(8017)
    fresh = iter(range(10**12, 10**13, 7919))

    def token():
        return rng.choice(READER_TOKENS) if rng.random() < 0.8 else str(next(fresh))

    # past the lookup's bound: more distinct tokens than it keeps, then
    # known and fresh tokens mixed
    wide = [[str(next(fresh)) for _ in range(16)] for _ in range(cpio._KNOWN_TOKENS // 16 + 8)]
    wide += [[token() for _ in range(16)] for _ in range(40)]
    texts = [noisy_ine(rng, wide, len(wide), 16)]
    for _ in range(300):
        n = rng.choice([1, 1, 2, 3, 6])
        rows = [[token() for _ in range(n)] for _ in range(rng.randint(1, 9))]
        m, tail = len(rows), [["end"], ["adjacency"]][:rng.randint(1, 2)]
        fault = rng.choice(["none", "none", "short", "end", "width", "token", "no end"])
        j = rng.randrange(len(rows))
        if fault == "short":
            m, tail = m + 1, rng.choice([[], [["end"]]])
        elif fault == "end":
            rows.insert(j, ["end"])
        elif fault == "width":
            rows[j] = rows[j][:-1] if n > 1 and rng.random() < 0.5 else rows[j] + [token()]
        elif fault == "token":
            rows[j][rng.randrange(n)] = rng.choice(["q", "1_0", "1/0", "\u0663", "--1", "end"])
        elif fault == "no end":
            tail = rng.choice([[], [[token() for _ in range(n)]]])
        texts.append(noisy_ine(rng, rows, m, n, tail))
    outcomes = set()
    for text in texts:
        want = reference_read(text, "f.ine")
        try:
            got = parse_polyhedra_file(text, "f.ine").rows
        except ParseError as exc:
            got = str(exc)
        assert got == want, text
        if isinstance(want, tuple):
            assert [list(map(type, r)) for r in got] == [list(map(type, r)) for r in want]
            outcomes.add("rows")
        else:
            outcomes.add(want.split(": ")[1].split()[0])
    assert "\r\n" in "".join(texts) and len(parse_polyhedra_file(texts[0]).rows) == len(wide)
    assert outcomes == {"rows", "unexpected", "expected", "row", "data", "all-zero"}


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
    # int() would read most of these; a row of tokens not yet known reaches
    # it only when ASCII without '_', so parse_number sees and rejects them
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


def test_grid_csv_matches_csv_writer(tmp_path, hull_2_2, hull_2_3):
    for hrep, angles, nx, ny in ((hull_2_2, "x,0;0,y", 7, 5),
                                 (hull_2_3, "x,0,2pi/3;0,y,4pi/3", 41, 41)):
        grid = sample_violation_grid(
            hrep,
            builtin_model("singlet"),
            angles=parse_angles(angles, hrep.config),
            samples_x=nx,
            samples_y=ny,
        )[0]
        odd = (-0.0, 1e-300, 1 / 3, 1.5e16, float("inf"), Fraction(1, 3), 0, -2.5)
        odd = (odd + (0.1, 0.2, 0.3)) * (nx * ny // 11 + 1)
        for values in (grid.values, odd[:nx * ny]):
            sample = dataclasses.replace(grid, values=values)
            with open(tmp_path / "oracle.csv", "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["x", "y", "f"])
                for iy, y in enumerate(sample.ys):
                    for ix, x in enumerate(sample.xs):
                        writer.writerow([x, y, sample.values[iy * len(sample.xs) + ix]])
            got = write_grid_csv(sample, tmp_path / "grid.csv").read_bytes()
            assert got == (tmp_path / "oracle.csv").read_bytes()


def csv_writer_bytes(path, header, rows):
    """The bytes ``csv.writer`` with ``"\\n"`` line ends writes for ``rows``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def test_violation_and_curve_csv_match_csv_writer(tmp_path, hull_2_3):
    config = Configuration.uniform(2, 3)
    singlet = builtin_model("singlet")
    floats = probability_vector(singlet, parse_angles("0,2pi/3,4pi/3;0,2pi/3,4pi/3", config))
    exact_vec = ProbabilityVector(tuple(Fraction(round(8 * p), 8) for p in floats), config)
    exact_law = ProbabilityModel("exact", {}, default=lambda a: Fraction(1, 2 ** len(a)))
    curve_angles = parse_angles("x,0,2pi/3;0,2pi/3,4pi/3", config)
    for reports in (scan_2_3(hull_2_3), scan_probability_vector(hull_2_3, exact_vec)):
        assert reports
        got = write_violation_csv(reports, tmp_path / "viol.csv").read_bytes()
        want = csv_writer_bytes(tmp_path / "oracle.csv", ["row", "inequality", "violation"],
                                [[r.row, to_text(r.inequality), r.amount] for r in reports])
        assert got == want
    for model in (singlet, exact_law):
        curves = sample_violation_curve(hull_2_3, model, angles=curve_angles,
                                        samples=9, threshold=-10.0)
        assert curves
        got = write_curve_csv(curves, tmp_path / "curve.csv").read_bytes()
        want = csv_writer_bytes(tmp_path / "oracle.csv",
                                ["x"] + [f"row{c.row}" for c in curves],
                                [[x] + [c.values[i] for c in curves]
                                 for i, x in enumerate(curves[0].xs)])
        assert got == want
    assert any(type(v) is Fraction for v in curves[0].values)


def test_exact_law_csv_text_is_unchanged(tmp_path, hull_2_3):
    # Exact laws keep tuples of their values as summed: Fraction, int, or
    # float where a float single meets a Fraction pair.  Their grid and
    # curve CSV text is csv.writer's, and the digest pins it.
    config = Configuration.uniform(2, 3)
    singlet = builtin_model("singlet")

    def eighths(a):
        return Fraction(round(8 * singlet.probability(a)), 8)

    laws = (ProbabilityModel("fraction", {}, default=eighths),
            ProbabilityModel("mixed", {1: lambda a: 0.5, 2: eighths}),
            ProbabilityModel("int", {}, default=lambda a: len(a) % 2))
    sha = hashlib.sha256()
    for model in laws:
        grids = sample_violation_grid(hull_2_3, model, parse_angles("x,0,2pi/3;0,y,4pi/3", config),
                                      samples_x=5, samples_y=4, rows=(1, 60), threshold=-10.0)
        curves = sample_violation_curve(hull_2_3, model,
                                        parse_angles("x,0,2pi/3;0,2pi/3,4pi/3", config),
                                        samples=6, rows=(1, 60), threshold=-10.0)
        assert len(grids) == len(curves) == 60
        for grid in grids:
            assert type(grid.values) is tuple
            got = write_grid_csv(grid, tmp_path / "grid.csv").read_bytes()
            values = iter(grid.values)
            assert got == csv_writer_bytes(tmp_path / "oracle.csv", ["x", "y", "f"],
                                           [[x, y, next(values)]
                                            for y in grid.ys for x in grid.xs])
            sha.update(got)
        got = write_curve_csv(curves, tmp_path / "curve.csv").read_bytes()
        assert got == csv_writer_bytes(tmp_path / "oracle.csv",
                                       ["x"] + [f"row{c.row}" for c in curves],
                                       zip(curves[0].xs, *(c.values for c in curves)))
        sha.update(got)
    assert sha.hexdigest() == "5f92ffae45f954b2389376774b436ca8976f33980597c5a387dcdbc06990d7ae"


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


def test_exact_grid_renders_and_writes_fractions(tmp_path, hull_2_2):
    # singlet rounded to eighths: every grid value is a Fraction, which
    # Python before 3.12 cannot format with "g"
    singlet = builtin_model("singlet")
    eighths = ProbabilityModel(
        "eighths", {}, default=lambda a: Fraction(round(8 * singlet.probability(a)), 8))
    grids = sample_violation_grid(
        hull_2_2, eighths, angles=parse_angles("x,0;0,y", Configuration.uniform(2, 2)),
        samples_x=9, samples_y=9,
    )
    assert grids and all(type(v) is Fraction for g in grids for v in g.values)
    for grid in grids:
        svg = render_svg(grid, tmp_path / "exact.svg").read_text()
        assert f"max violation {float(max(grid.values)):.6g}</text>" in svg
        assert "max violation 0.125</text>" in svg
        assert svg.count("<rect") == 2 + 81
        lines = write_grid_csv(grid, tmp_path / "exact.csv").read_text().splitlines()
        assert [line.split(",")[2] for line in lines[1:]] == list(map(str, grid.values))
        assert "1/8" in {line.split(",")[2] for line in lines[1:]}


def test_contour_files_bytes_pinned(tmp_path, hull_2_3):
    # The 94 CSV and 94 SVG files of the 2x3 41x41 singlet contour, in
    # report order, with their names.  CPython 3.12+ compensates the
    # rounding of a float sum, which moves the last bits of some values.
    compensated = sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    grids = sample_violation_grid(
        hull_2_3,
        builtin_model("singlet"),
        angles=parse_angles("x,0,2pi/3;0,y,4pi/3", Configuration.uniform(2, 3)),
        samples_x=41,
        samples_y=41,
    )
    assert len(grids) == 94
    sha = hashlib.sha256()
    for grid in grids:
        for path in (write_grid_csv(grid, tmp_path / f"c_row{grid.row}.csv"),
                     render_svg(grid, tmp_path / f"c_row{grid.row}.svg")):
            sha.update(path.name.encode() + b"\n" + path.read_bytes())
    assert sha.hexdigest() == (
        "5ea0fd2b7fbf7b7859f7c68ff1d1c83eda8e2c54fb12faabbd613a748451e58a" if compensated
        else "72b3e722b33a48d05e443310114ee33a698097aa23825c796cb7e30f3ba79f76")


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


def test_curve_writers_reject_what_they_cannot_draw(tmp_path, hull_2_2):
    config = Configuration.uniform(2, 2)
    curves = sample_violation_curve(hull_2_2, builtin_model("singlet"),
                                    angles=parse_angles("-pi/3+x,0;0,2x", config),
                                    samples=5)
    shifted = [curves[0], dataclasses.replace(curves[0], xs=curves[0].xs[::-1])]
    with pytest.raises(ValueError, match="no curves to write"):
        write_curve_csv([], tmp_path / "c.csv")
    with pytest.raises(ValueError, match="curves were sampled on different grids"):
        write_curve_csv(shifted, tmp_path / "c.csv")
    with pytest.raises(ValueError, match="no curves to render"):
        curves_svg([])
    assert not list(tmp_path.iterdir())


def test_flat_curves_are_drawn_on_the_zero_line(hull_2_2):
    # Curves that are 0 everywhere span no value range; the plot then spans
    # [0, 1] (padded by 5%) and draws them on the dashed zero line.
    config = Configuration.uniform(2, 2)
    curves = sample_violation_curve(hull_2_2, builtin_model("singlet"),
                                    angles=parse_angles("-pi/3+x,0;0,2x", config),
                                    samples=5)
    flat = [dataclasses.replace(c, values=(0.0,) * len(c.xs)) for c in curves]
    svg = curves_svg(flat)
    zero = "412.73"  # 430 - 0.05 / 1.1 * 380
    assert f'<line x1="50" y1="{zero}" x2="590" y2="{zero}"' in svg
    points = [p.split(",")[1] for line in svg.splitlines() if "<polyline" in line
              for p in line.split('points="')[1].rstrip('"/>').split()]
    assert len(points) == 5 * len(flat) and set(points) == {zero}
    assert '>1.05</text>' in svg and '>-0.05</text>' in svg


@pytest.mark.parametrize("xs,values", [
    ((0.5,), (0.1,)),
    ((0.5, 0.5, 0.5), (0.1, 0.0, 0.1)),
])
def test_curves_on_one_x_value_are_drawn_at_the_left_edge(xs, values, hull_2_2):
    # Curves whose xs are all equal span no x range; the plot then spans
    # [x, x + 1] and draws every point on its left edge.
    config = Configuration.uniform(2, 2)
    curves = sample_violation_curve(hull_2_2, builtin_model("singlet"),
                                    angles=parse_angles("-pi/3+x,0;0,2x", config),
                                    samples=5)
    svg = curves_svg([dataclasses.replace(curves[0], xs=xs, values=values)])
    top = "67.27"  # 430 - 0.105 / 0.11 * 380
    points = svg.split('points="')[1].split('"')[0].split()
    assert set(points) == {f"50.00,{top}"} | ({"50.00,412.73"} if len(xs) > 1 else set())
    assert '>0.5</text>' in svg and '>1.5</text>' in svg


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


def test_layout_must_fit_the_dimension(hull_2_3):
    # a relabelling keeps the event count: 2x3 and 1,1,1,1 have 15 events
    four = Configuration((1, 1, 1, 1))
    assert dataclasses.replace(hull_2_3, config=four).config == four
    vrep = truth_table(Configuration.uniform(2, 3))
    for rep, kind in ((hull_2_3, "H"), (vrep, "V")):
        with pytest.raises(ValueError, match=rf"^configuration has 8 events but the "
                                             rf"{kind}-representation has dimension 15$"):
            dataclasses.replace(rep, config=Configuration.uniform(2, 2))
    with pytest.raises(ValueError, match="has 1 events but the V-representation has dim"):
        VRepresentation(2, ((0, 1),), config=Configuration((1,)))


@pytest.mark.parametrize("suffix", [".ine", ".ext"])
def test_konfiguration_of_another_dimension_is_a_parse_error(tmp_path, hull_2_3, suffix):
    if suffix == ".ine":
        path, read = write_ine(hull_2_3, tmp_path / "f23"), read_ine
    else:
        path = write_ext(truth_table(Configuration.uniform(2, 3)), tmp_path / "f23")
        read = read_ext
    path.write_text(path.read_text().replace("Konfiguration 2 3", "Konfiguration 2 2"))
    kind = "H" if suffix == ".ine" else "V"
    with pytest.raises(ParseError, match=rf"f23\{suffix}: configuration has 8 events "
                                         rf"but the {kind}-representation has dimension 15$"):
        read(path)
    # the first Konfiguration line is the layout, even when a later one fits
    path.write_text(path.read_text() + "Konfiguration 2 3\n")
    with pytest.raises(ParseError, match="8 events"):
        read(path)


def test_malformed_linearity_end_and_konfiguration_lines():
    body = "begin\n1 2 integer\n1 0\nend\n"
    for text in (
        "H-representation\nlinearity 2 1\n" + body,     # count says 2, one index
        "H-representation\nlinearity\n" + body,         # no count
        "H-representation\nlinearity 1 0\n" + body,     # indices are 1-based
        "H-representation\nlinearity 2 1 1\n" + body,   # count says 2, one row
        "H-representation\nbegin\n1 2 integer\n1 0\n",  # missing end
        "H-representation\nbegin\n1 2 integer\n1 0\nbegin\n",
        "H-representation\n" + body + "Konfiguration 1\n",
        "H-representation\n" + body + "Konfiguration\n",
        "V-representation\n" + body + "Konfiguration 1\n",
    ):
        with pytest.raises(ParseError, match="^layout.ine: "):
            parse_polyhedra_file(text, "layout.ine")


@pytest.mark.parametrize("read,kind", [(read_ine, "H"), (read_ext, "V")])
def test_non_utf8_file_is_a_parse_error_naming_the_file(tmp_path, read, kind):
    path = tmp_path / f"latin1_{kind}.txt"
    path.write_bytes(f"{kind}-representation\n* caf\xe9\nbegin\n"
                     "1 3 integer\n1 0 1\nend\n".encode("latin-1"))
    with pytest.raises(ParseError, match=f"latin1_{kind}.txt: 'utf-8' codec"):
        read(path)


def test_files_read_as_utf8_under_an_ascii_locale(tmp_path):
    # Under the C locale with UTF-8 mode off, the locale encoding is ASCII;
    # a UTF-8 comment must still read, since cdd files are read as UTF-8.
    path = tmp_path / "cafe.ine"
    path.write_bytes("H-representation\n* caf\u00e9\nbegin\n1 3 integer\n"
                     "1 0 1\nend\n".encode("utf-8"))
    script = ("import sys; from corrpoly import read_ine, write_ine; "
              "h = read_ine(sys.argv[1]); write_ine(h, sys.argv[1] + '.out'); "
              "print(h.rows)")
    src = str(Path(corrpoly.__file__).resolve().parent.parent)
    env = {**os.environ, "LC_ALL": "C", "PYTHONPATH": src}
    env.pop("PYTHONUTF8", None)
    done = subprocess.run([sys.executable, "-X", "utf8=0", "-c", script, str(path)],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "((1, 0, 1),)\n"), done.stderr
    assert read_ine(tmp_path / "cafe.ine.out.ine").rows == ((1, 0, 1),)
