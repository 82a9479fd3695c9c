import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import corrpoly
from corrpoly import (
    Configuration,
    VRepresentation,
    builtin_model,
    from_hrep,
    hull,
    parse_angles,
    read_ext,
    read_ine,
    scan_violations,
    to_text,
    truth_table,
    write_ext,
    write_ine,
)
from corrpoly import cli
from corrpoly.cli import build_parser, main
from corrpoly.polyhedra import DDPair


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_events_single(capsys):
    code, out, _ = run(capsys, "events", "-n", "1", "-m", "1")
    assert code == 0
    assert out.strip() == "a1"


def test_events_2_2(capsys):
    code, out, _ = run(capsys, "events", "-n", "2", "-m", "2")
    assert out.split() == ["a1", "a2", "b1", "b2", "a1b1", "a1b2", "a2b1", "a2b2"]


def test_events_non_uniform(capsys):
    code, out, _ = run(capsys, "events", "--config", "1,2")
    assert out.split() == ["a1", "b1", "b2", "a1b1", "a1b2"]


def test_vertices_print_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "vertices", "-n", "2", "-m", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["a1", "b1", "a1b1"]
    assert lines[1:] == ["0 0 0", "1 0 0", "0 1 0", "1 1 1"]

    path = tmp_path / "urn"
    code, out, _ = run(capsys, "vertices", "-n", "2", "-m", "1", "-o", str(path))
    assert code == 0
    assert read_ext(tmp_path / "urn.ext").vertices == truth_table(
        Configuration((1, 1))
    ).vertices


def test_hull_matches_library(tmp_path, capsys):
    out_file = tmp_path / "2_2.ine"
    code, out, err = run(
        capsys, "hull", "-n", "2", "-m", "2", "-o", str(out_file), "-q"
    )
    assert code == 0
    assert "24 facets" in out
    assert read_ine(out_file).rows == hull(
        truth_table(Configuration.uniform(2, 2))
    ).rows


def test_hull_from_ext_and_exclusivity(tmp_path, capsys):
    from corrpoly import write_ext

    ext = write_ext(truth_table(Configuration((1, 1))), tmp_path / "urn")
    ine = tmp_path / "urn.ine"
    code, out, _ = run(capsys, "hull", "--ext", str(ext), "-o", str(ine), "-q")
    assert code == 0 and "4 facets" in out
    code, _, err = run(capsys, "hull", "--ext", str(ext), "-n", "2", "-m", "1")
    assert code == 1


@pytest.mark.parametrize("command", ["hull", "enum"])
def test_hull_progress_on_stderr(tmp_path, capsys, command):
    ine = tmp_path / "2_2.ine"
    run(capsys, "hull", "-n", "2", "-m", "2", "-o", str(ine), "-q")
    args = ["-n", "2", "-m", "2"] if command == "hull" else ["--ine", str(ine)]
    code, out, err = run(capsys, command, *args)
    assert code == 0
    assert "constraints" in err
    code, out, err = run(capsys, command, *args, "-q")
    assert code == 0 and err == ""


def test_enum_roundtrip(tmp_path, capsys):
    ine = tmp_path / "sq.ine"
    run(capsys, "hull", "-n", "2", "-m", "2", "-o", str(ine), "-q")
    ext = tmp_path / "back.ext"
    code, out, _ = run(capsys, "enum", "--ine", str(ine), "-o", str(ext), "-q")
    assert code == 0
    assert "16 vertices, 0 rays" in out
    back = read_ext(ext)
    assert set(back.vertices) == set(
        truth_table(Configuration.uniform(2, 2)).vertices
    )


def test_enum_empty(tmp_path, capsys):
    ine = tmp_path / "empty.ine"
    ine.write_text(
        "H-representation\nbegin\n2 2 integer\n-1 -1\n-1 1\nend\n"
    )
    ext = tmp_path / "empty.ext"
    code, out, _ = run(capsys, "enum", "--ine", str(ine), "-q", "-o", str(ext))
    assert code == 0
    assert "empty polyhedron" in out
    assert read_ext(ext).is_empty


def test_inequalities_listing(tmp_path, capsys):
    ine = tmp_path / "urn.ine"
    run(capsys, "hull", "-n", "2", "-m", "1", "-o", str(ine), "-q")
    code, out, _ = run(capsys, "inequalities", "--ine", str(ine))
    assert code == 0
    lines = out.splitlines()
    h = read_ine(ine)
    assert lines == [to_text(q) for q in from_hrep(h)]
    # row range selection is 1-based inclusive
    code, out, _ = run(capsys, "inequalities", "--ine", str(ine), "--rows", "1:2")
    assert len(out.splitlines()) == 2


def test_rows_out_of_range_is_usage_error(tmp_path, capsys):
    ine = tmp_path / "urn.ine"
    run(capsys, "hull", "-n", "2", "-m", "1", "-o", str(ine), "-q")
    scan = ("violations", "--model", "singlet", "--angles", "0;0")
    for rows in ("0:99999", "5:2"):
        for argv in (("inequalities",), scan):
            code, out, err = run(capsys, *argv, "--ine", str(ine), "--rows", rows)
            assert code == 1 and out == ""
            assert "out of bounds" in err

def test_violations_cli_matches_library(tmp_path, capsys):
    ine = tmp_path / "2_2.ine"
    run(capsys, "hull", "-n", "2", "-m", "2", "-o", str(ine), "-q")
    code, out, err = run(
        capsys, "violations", "--ine", str(ine),
        "--model", "singlet", "--angles=0,2pi/3;-2pi/3,0",
    )
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    config = Configuration.uniform(2, 2)
    expected = scan_violations(
        read_ine(ine), builtin_model("singlet"),
        angles=parse_angles("0,2pi/3;-2pi/3,0", config),
    )
    assert len(lines) == len(expected) == 1
    row, amount, text = lines[0].split("\t")
    assert int(row) == expected[0].row
    assert float(amount) == pytest.approx(expected[0].amount)
    assert text == to_text(expected[0].inequality)


def test_violations_json_and_csv(tmp_path, capsys):
    ine = tmp_path / "2_2.ine"
    run(capsys, "hull", "-n", "2", "-m", "2", "-o", str(ine), "-q")
    csv_path = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "violations", "--ine", str(ine),
        "--model", "singlet", "--angles=0,2pi/3;-2pi/3,0",
        "--json", "--csv", str(csv_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["violations"]) == 1
    assert payload["violations"][0]["amount"] == pytest.approx(1 / 8)
    assert csv_path.read_text().splitlines()[0] == "row,inequality,violation"


def test_violations_count_follows_the_rows_on_one_stream(tmp_path, capsys):
    # A piped stdout is block-buffered and stderr is not, so the rows must be
    # flushed before the count goes to stderr for a caller that merges both
    # streams into one pipe to read the count as its last line.
    ine = tmp_path / "2_2.ine"
    run(capsys, "hull", "-n", "2", "-m", "2", "-o", str(ine), "-q")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        str(Path(corrpoly.__file__).parents[1]), env.get("PYTHONPATH"))))
    merged = subprocess.run(
        [sys.executable, "-m", "corrpoly.cli", "violations", "--ine", str(ine),
         "--model", "singlet", "--angles", "0,pi/2;pi/4,-pi/4"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, check=True,
        timeout=60,
    ).stdout.decode().splitlines()
    assert merged[-1] == "1 violated"
    assert [line.split("\t")[:2] for line in merged[:-1]] == [["18", "0.207106781"]]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_2_3_outputs_bytes_pinned(tmp_path, capsys):
    # Recorded before the row reader was unified.  The progress lines are
    # stderr; CPython 3.12+ compensates the rounding of a float sum, which
    # moves the last bits of some amounts.
    compensated = sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    ine = tmp_path / "f23.ine"
    code, _, err = run(capsys, "hull", "-n", "2", "-m", "3", "-o", str(ine))
    assert code == 0
    assert sha256(err) == "640cf044f2181450e6154bf741b079fa1e3436f5691442667134c018fda6f244"
    assert sha256(ine.read_text()) == (
        "d1aa2e33eead4e85402dbef669062ffb88a872d946ad94f894b7bc24b07b8589")
    code, _, err = run(capsys, "enum", "--ine", str(ine))
    assert code == 0
    assert sha256(err) == "2a5a8d5bfe1cf42bb9f9036df795c622bc64aa9cd4873bc8092582300e63c882"
    for rows, digest in ((
        (), "43041bd2c86b2942d0719e1e1826a489d64d1c7d7a869b6e965897bdb8e3524d"), (
        ("--rows", "100:600"), "5af3a9302b903fadb2bb68994a3e8c27f55a177deed8573b0d4b0ab73768ea54"),
    ):
        code, out, _ = run(capsys, "inequalities", "--ine", str(ine), *rows)
        assert code == 0 and sha256(out) == digest
    scan = ("violations", "--ine", str(ine), "--model", "singlet",
            "--angles", "0,2pi/3,4pi/3;0,2pi/3,4pi/3")
    csv_path = tmp_path / "report.csv"
    code, text, _ = run(capsys, *scan)
    assert code == 0
    code, as_json, _ = run(capsys, *scan, "--json")
    assert code == 0
    code, _, _ = run(capsys, *scan, "--csv", str(csv_path))
    assert code == 0
    assert [sha256(text), sha256(as_json), sha256(csv_path.read_text())] == ([
        "36dc884f39ce067bfa7d995304bec5db48b2d795582921cc4e5729f22aa81762",
        "c1058a673f7ae6b70a0dc8b8e384e78b8e1589c5fbf06b6338c5b9fb4103477a",
        "398ba3a1e74c3dfe01d3f33b369eb3f596dd632d3db00ec156433af8795454f4",
    ] if compensated else [
        "fc9a25ece47270d4c211d589fc92ebab8da5233e61be1f330a52173206b88a03",
        "ce91b069264ed949eca7b37305db6c2bf78163ebebb97b36041fc60ed30a8cfd",
        "a944e639681554d1c048d959a4cabc6e9b9ba865b463ab34827818739ff7fd76",
    ])


def test_scaled_facets_print_the_pinned_inequalities(hull_2_3, tmp_path, capsys):
    # The 2x3 facets times 3, and halved as p/q tokens, are the same
    # inequalities: each file prints the bytes pinned above for the
    # primitive one, whole and within a row range.
    pinned = (
        ((), "43041bd2c86b2942d0719e1e1826a489d64d1c7d7a869b6e965897bdb8e3524d"),
        (("--rows", "100:600"),
         "5af3a9302b903fadb2bb68994a3e8c27f55a177deed8573b0d4b0ab73768ea54"),
    )
    tripled = [tuple(3 * v for v in row) for row in hull_2_3.rows]
    halved = [tuple(Fraction(v, 2) for v in row) for row in hull_2_3.rows]
    for name, rows in (("primitive", hull_2_3.rows), ("tripled", tripled), ("halved", halved)):
        ine = write_ine(replace(hull_2_3, rows=tuple(rows)), tmp_path / f"{name}.ine")
        assert ("/2 " in ine.read_text()) == (name == "halved")
        for selected, digest in pinned:
            code, out, _ = run(capsys, "inequalities", "--ine", str(ine), *selected)
            assert code == 0 and sha256(out) == digest


def test_inequalities_read_only_the_selected_rows(tmp_path, capsys):
    # Row 2 has no nonzero coefficient: outside the range it is not read,
    # inside it fails the command before any row is printed.
    ine = tmp_path / "constant.ine"
    ine.write_text("H-representation\nbegin\n2 3 integer\n0 1 0\n1 0 0\nend\n"
                   "Konfiguration 1 2\n")
    assert run(capsys, "inequalities", "--ine", str(ine), "--rows", "1:1") == (
        0, "-a1 <= 0\n", "")
    code, out, err = run(capsys, "inequalities", "--ine", str(ine))
    assert (code, out) == (1, "")
    assert "inequality needs at least one nonzero coefficient" in err


def test_violations_threshold_filters(tmp_path, capsys):
    ine = tmp_path / "2_3.ine"
    run(capsys, "hull", "-n", "2", "-m", "3", "-o", str(ine), "-q")
    code, out, _ = run(
        capsys, "violations", "--ine", str(ine),
        "--model", "singlet", "--angles=0,2pi/3,4pi/3;0,2pi/3,4pi/3",
        "--json",
    )
    assert len(json.loads(out)["violations"]) == 12
    # whitespace around the angle expressions, trailing included, changes nothing
    assert run(
        capsys, "violations", "--ine", str(ine),
        "--model", "singlet", "--angles", "0,2pi/3,4pi/3 ; 0, 2pi/3, 4pi/3 ",
        "--json",
    ) == (0, out, "")
    code, out, _ = run(
        capsys, "violations", "--ine", str(ine),
        "--model", "singlet", "--angles=0,2pi/3,4pi/3;0,2pi/3,4pi/3",
        "--threshold", "0.2", "--json",
    )
    payload = json.loads(out)
    assert len(payload["violations"]) == 6
    assert all(v["amount"] > 0.2 for v in payload["violations"])


def test_nan_threshold_is_usage_error(tmp_path, capsys, hull_2_2):
    config = Configuration.uniform(2, 2)
    angles = parse_angles("0,2pi/3;-2pi/3,0", config)
    model = builtin_model("singlet")
    assert len(scan_violations(hull_2_2, model, angles=angles)) == 1
    with pytest.raises(ValueError, match="NaN"):
        scan_violations(hull_2_2, model, angles=angles, threshold=float("nan"))
    ine = tmp_path / "2_2.ine"
    run(capsys, "hull", "-n", "2", "-m", "2", "-o", str(ine), "-q")
    common = ["--ine", str(ine), "--model", "singlet", "--threshold", "nan"]
    for argv in (
        ["violations", *common, "--angles=0,2pi/3;-2pi/3,0"],
        ["plot", *common, "--angles=-pi/3+x,0;0,2x", "-o", str(tmp_path / "c.csv")],
        ["contour", *common, "--angles", "x,0;0,y", "-o", str(tmp_path / "g")],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert "NaN" in err and out == ""


def test_plot_csv_and_svg(tmp_path, capsys):
    ine = tmp_path / "2_2.ine"
    run(capsys, "hull", "-n", "2", "-m", "2", "-o", str(ine), "-q")
    csv_path = tmp_path / "curve.csv"
    svg_path = tmp_path / "curve.svg"
    code, out, _ = run(
        capsys, "plot", "--ine", str(ine),
        "--model", "singlet", "--angles=-pi/3+x,0;0,2x",
        "--range", "0:pi", "--samples", "21",
        "-o", str(csv_path), "--svg", str(svg_path),
    )
    assert code == 0
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("x,row")
    assert svg_path.read_text().count("<polyline") == header.count("row")


def test_contour_writes_per_row_files(tmp_path, capsys):
    ine = tmp_path / "2_2.ine"
    run(capsys, "hull", "-n", "2", "-m", "2", "-o", str(ine), "-q")
    prefix = tmp_path / "cont"
    code, out, _ = run(
        capsys, "contour", "--ine", str(ine),
        "--model", "singlet", "--angles=x,0;0,y",
        "--range-x", "0:pi", "--range-y", "0:pi", "--samples", "9",
        "-o", str(prefix),
    )
    assert code == 0
    files = sorted(p.name for p in tmp_path.glob("cont_row*.csv"))
    assert files
    first = (tmp_path / files[0]).read_text().splitlines()
    assert first[0] == "x,y,f"
    assert len(first) == 1 + 81


def test_verify_cli(capsys):
    code, out, _ = run(
        capsys, "verify", "-n", "2", "-m", "1",
        "--ineq", "a1 - a1b1 + b1 <= 1", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"valid": True, "tight_count": 3, "is_facet": True}


def test_verify_rejects_non_ascii_numbers(capsys):
    for text in ("a1 - a1b1 + b1 <= 1_0", "\u0663 a1 - a1b1 + b1 <= 1"):
        code, out, err = run(capsys, "verify", "-n", "2", "-m", "1", "--ineq", text)
        assert code == 2 and out == "" and "parse error" in err


def test_verify_checks_the_vertex_cap_before_building_events(capsys):
    # 12x12 has 13**12 - 1 events; the truth table cap must reject the
    # layout before the inequality parser builds their labels.
    code, _, err = run(capsys, "verify", "-n", "12", "-m", "12", "--ineq", "a1 <= 1")
    assert code == 3
    assert "cap" in err


def test_events_checks_the_vertex_cap_before_listing(capsys, monkeypatch):
    # All labels are built before the first prints, so a layout with more
    # events than the cap exits 3 and prints none; a smaller one lists all.
    monkeypatch.setattr(cli, "DEFAULT_VERTEX_CAP", 10)
    code, out, err = run(capsys, "events", "-n", "2", "-m", "3")  # 15 events
    assert (code, out) == (3, "")
    assert "15 events" in err and "cap of 10" in err
    code, out, _ = run(capsys, "events", "-n", "1", "-m", "9")
    assert code == 0 and out.split() == [f"a{i}" for i in range(1, 10)]


def test_layouts_too_large_to_tabulate_exit_3(capsys):
    # The truth table's 2**k rows and the event count are compared with
    # their caps, never built or printed in full: 2**14400 and a 4,400-digit
    # event count are past CPython's 4,300-digit limit on int to str.  (A
    # table too large to allocate is run under a memory limit, below.)
    nines = "9" * 2200
    for argv in (("vertices", "-n", "2", "-m", "7200"),
                 ("hull", "-n", "2", "-m", "7200", "-q"),
                 ("verify", "-n", "2", "-m", "7200", "--ineq", "a1 <= 1"),
                 ("events", "-n", "2", "-m", nines)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("corrpoly: capacity exceeded: ") and len(err) < 200


def test_a_vast_truth_table_exits_3_under_a_memory_limit():
    # 2**(10**11) alone would take 12.5 GB: under a 1.5 GB address-space
    # limit the cap must refuse the table before anything of its size.
    resource = pytest.importorskip("resource")
    limit = 1536 * 2**20
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        str(Path(corrpoly.__file__).parents[1]), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "corrpoly.cli", "vertices", "-n", "2", "-m", "50000000000"],
        capture_output=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, hard)))
    assert (done.returncode, done.stdout) == (3, b"")
    assert done.stderr.startswith(b"corrpoly: capacity exceeded: ") and len(done.stderr) < 200


def test_bad_konfiguration_exits_with_parse_error(tmp_path, capsys):
    ine = tmp_path / "bad.ine"
    ine.write_text("H-representation\nbegin\n1 2 integer\n1 0\nend\nKonfiguration 0 3\n")
    code, _, err = run(capsys, "contains", "--ine", str(ine), "--point", "0")
    assert code == 2
    assert str(ine) in err


def test_contains_cli(tmp_path, capsys):
    ine = tmp_path / "urn.ine"
    run(capsys, "hull", "-n", "2", "-m", "1", "-o", str(ine), "-q")
    code, out, _ = run(
        capsys, "contains", "--ine", str(ine), "--point", "3/5,18/25,8/25"
    )
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(
        capsys, "contains", "--ine", str(ine), "--point", "1/2,9/10,1/10",
        "--json",
    )
    assert code == 0 and json.loads(out) == {"contains": False}


def test_exit_code_usage(capsys):
    assert run(capsys, "hull")[0] == 1  # no input source
    assert run(capsys, "events", "-n", "2")[0] == 1  # -n without -m
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "hull", "-n", "2", "-m", "2", "--threads", "1")[0] == 1


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.ine"
    bad.write_text("what is this\n")
    code, _, err = run(capsys, "enum", "--ine", str(bad), "-q")
    assert code == 2
    assert run(capsys, "enum", "--ine", str(tmp_path / "missing.ine"), "-q")[0] == 2
    ine = tmp_path / "2_2.ine"
    run(capsys, "hull", "-n", "2", "-m", "2", "-o", str(ine), "-q")
    code, _, err = run(capsys, "violations", "--ine", str(ine), "--model",
                       "singlet", "--angles=" + "-" * 3000 + "1,0;0,0")
    assert code == 2 and "longer than" in err
    code, _, err = run(capsys, "violations", "--ine", str(ine), "--model",
                       "singlet", "--angles=" + "9" * 400 + ",0;0,0")
    assert code == 2 and "not finite" in err
    underscored = tmp_path / "underscored.ine"
    underscored.write_text(ine.read_text().replace(" 1 ", " 1_0 ", 1))
    code, _, err = run(capsys, "violations", "--ine", str(underscored),
                       "--model", "singlet", "--angles", "0,1;0,1")
    assert code == 2 and "'1_0'" in err and "underscored.ine: data row" in err
    tok = tmp_path / "tok.ine"
    for token in ("1_0", "1/0"):
        tok.write_text(f"H-representation\nbegin\n2 3 integer\n1 -1 0\n1 {token} 0\nend\n")
        code, _, err = run(capsys, "contains", "--ine", str(tok), "--point", "0,0")
        assert code == 2 and f"tok.ine: data row 2: bad numeric token '{token}'" in err
    zero_row = tmp_path / "zero_row.ine"
    zero_row.write_text("H-representation\nbegin\n2 3 integer\n0 0 0\n1 -1 0\nend\n")
    for argv in (("enum", "--ine", str(zero_row), "-q"),
                 ("contains", "--ine", str(zero_row), "--point", "0,0")):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "zero_row.ine" in err and "all-zero" in err
    latin1 = tmp_path / "latin1.ine"
    latin1.write_bytes(b"H-representation\n* caf\xe9\nbegin\n1 3 integer\n1 0 1\nend\n")
    for argv in (("enum", "--ine", str(latin1), "-q"),
                 ("contains", "--ine", str(latin1), "--point", "0,0")):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "parse error: " in err and "latin1.ine: 'utf-8' codec" in err


def test_file_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    # Windows editors often save UTF-8 with a leading byte-order mark
    ine = tmp_path / "2_2.ine"
    run(capsys, "hull", "-n", "2", "-m", "2", "-o", str(ine), "-q")
    bom = tmp_path / "bom.ine"
    bom.write_bytes(b"\xef\xbb\xbf" + ine.read_bytes())
    assert read_ine(bom) == read_ine(ine)
    code, out, err = run(capsys, "enum", "--ine", str(bom), "-q")
    assert (code, err) == (0, "") and "16 vertices" in out


def test_exit_code_capacity(tmp_path, capsys, monkeypatch):
    code, _, err = run(
        capsys, "hull", "-n", "2", "-m", "2", "--ray-cap", "3", "-q"
    )
    assert code == 3
    monkeypatch.setenv("CORRPOLY_RAY_CAP", "3")
    assert run(capsys, "hull", "-n", "2", "-m", "2", "-q")[0] == 3
    monkeypatch.setenv("CORRPOLY_RAY_CAP", "1000000")
    assert run(capsys, "hull", "-n", "2", "-m", "2", "-q")[0] == 0


def test_negative_ray_cap_is_a_usage_error(capsys, monkeypatch):
    code, _, err = run(capsys, "hull", "-n", "2", "-m", "2", "--ray-cap", "-5", "-q")
    assert code == 1 and "ray cap" in err and "capacity" not in err
    monkeypatch.setenv("CORRPOLY_RAY_CAP", "-1")
    code, _, err = run(capsys, "hull", "-n", "2", "-m", "2", "-q")
    assert code == 1 and "ray cap" in err and "capacity" not in err


def test_an_internal_failure_exits_4_with_a_traceback(capsys, monkeypatch):
    # A broken kernel invariant, such as the AssertionError of a debug=True
    # cross-check, is no user error: main prints the traceback to stderr,
    # nothing to stdout, and exits 4.
    def broken(*args):
        raise AssertionError("combinatorial and algebraic adjacency tests disagree")

    monkeypatch.setattr(DDPair, "_combine_pairs", broken)
    code, out, err = run(capsys, "hull", "-n", "2", "-m", "2")
    assert (code, out) == (4, "")
    assert err.count("Traceback (most recent call last):") == 1
    assert err.rstrip().endswith(
        "AssertionError: combinatorial and algebraic adjacency tests disagree")


def test_hull_enum_round_trip_of_wide_points(tmp_path, capsys):
    # 70-bit coordinates must pass exactly through .ext, hull, .ine and
    # enum.  The points lie on a shifted moment curve (t, t^2, t^3), so
    # every one of them is a vertex.
    rng = random.Random(7070)
    shift = [rng.randrange(2**69, 2**70) for _ in range(3)]
    points = tuple(sorted(
        (t + shift[0], t**2 + shift[1], t**3 + shift[2])
        for t in rng.sample(range(2**20), 9)
    ))
    assert max(abs(x) for p in points for x in p).bit_length() == 70
    ext = write_ext(VRepresentation(3, points), tmp_path / "wide.ext")
    ine = tmp_path / "wide.ine"
    back = tmp_path / "back.ext"
    assert run(capsys, "hull", "--ext", str(ext), "-o", str(ine), "-q")[0] == 0
    assert run(capsys, "enum", "--ine", str(ine), "-o", str(back), "-q")[0] == 0
    result = read_ext(back)
    assert result.vertices == points and not result.rays


def test_vertex_cap_flag(capsys):
    code, _, err = run(
        capsys, "vertices", "-n", "2", "-m", "3", "--vertex-cap", "32"
    )
    assert code == 3


def test_order_flag_help_lists_orders(capsys):
    for sub, default in (("hull", "lexmin"), ("enum", "support")):
        _, out, _ = run(capsys, sub, "--help")
        text = " ".join(out.split())
        for order in ("lexmin", "support", "given", "random:SEED"):
            assert order in text
        assert f"(default: {default})" in text
    assert run(capsys, "hull", "-n", "2", "-m", "2", "--order", "bogus", "-q")[0] == 1


def test_random_order_seed_is_a_count(capsys):
    for seed in ("\u0661", "1_0", "+1", "-1"):
        code, out, err = run(capsys, "hull", "-n", "2", "-m", "2",
                             "--order", f"random:{seed}", "-q")
        assert code == 1 and out == "" and "bad insertion order" in err, seed
    assert run(capsys, "hull", "-n", "2", "-m", "2", "--order", "random:10", "-q")[:2] == (
        0, "24 facets\n")


def test_threshold_spelling(capsys):
    parser = build_parser()
    common = ["plot", "--ine", "f.ine", "--model", "singlet", "--angles", "x,0;0,x",
              "-o", "c.csv", "--threshold"]
    for text in ("-0.5", ".25", "1e-3", "inf"):
        assert parser.parse_args(common + [text]).threshold == float(text)
    # float() reads the first three as 10.0, 1.0 and 1.5
    for text in ("1_0", "\u0661", "1.\u0665", "abc", ""):
        code, out, err = run(capsys, *common, text)
        assert code == 1 and out == "" and "bad threshold" in err, text


def test_dash_led_values_need_the_equals_form(capsys):
    # argparse takes a value led by '-' for a flag unless it is a plain number
    parser = build_parser()
    head = ["--ine", "f.ine", "--model", "singlet", "--angles=x,0;0,y"]
    plot = parser.parse_args(
        ["plot", *head, "-o", "c.csv", "--threshold=-inf", "--range=-pi:0"])
    assert plot.threshold == float("-inf") and plot.range == "-pi:0"
    contour = parser.parse_args(
        ["contour", *head, "-o", "g", "--range-x=-pi:0", "--range-y=-pi/2:0"])
    assert (contour.range_x, contour.range_y) == ("-pi:0", "-pi/2:0")
    for flag, value in (("--threshold", "-inf"), ("--range", "-pi:0")):
        code, out, err = run(capsys, "plot", *head, "-o", "c.csv", flag, value)
        assert code == 1 and "expected one argument" in err, flag


def test_hull_and_enum_past_the_int_str_digit_limit(tmp_path, capsys):
    # The segment from 0 to 5,000 nines, past CPython's int/str digit limit.
    ext = tmp_path / "big.ext"
    ext.write_text(f"V-representation\nbegin\n2 2 integer\n1 0\n1 {'9' * 5000}\nend\n")
    ine = tmp_path / "big.ine"
    code, out, _ = run(capsys, "hull", "--ext", str(ext), "-q", "-o", str(ine))
    assert code == 0 and out.splitlines()[-1] == "2 facets"
    assert run(capsys, "enum", "--ine", str(ine), "-q") == (0, "2 vertices, 0 rays\n", "")


def test_threshold_help_names_the_commands_that_take_a_negative_value(capsys):
    # The help is shared, but violations rejects a negative threshold (see
    # test_usage_errors_of_the_shared_flags).
    for sub in ("violations", "plot"):
        code, out, _ = run(capsys, sub, "--help")
        text = " ".join(out.split())
        assert code == 0 and "only plot and contour take a negative value" in text, sub
        assert "as in --threshold=-inf" in text, sub


def test_help_everywhere(capsys):
    for sub in (
        "events", "vertices", "hull", "enum", "inequalities",
        "violations", "plot", "contour", "verify", "contains",
    ):
        code, out, err = run(capsys, sub, "--help")
        assert code == 0
        assert "usage" in out or "usage" in err


def test_layout_flags_only_fill_in_a_missing_layout(tmp_path, capsys):
    # 2x3 and four one-setting particles both have 15 events
    ine = tmp_path / "f23.ine"
    run(capsys, "hull", "-n", "2", "-m", "3", "-o", str(ine), "-q")
    code, own, _ = run(capsys, "inequalities", "--ine", str(ine))
    assert code == 0
    assert run(capsys, "inequalities", "--ine", str(ine), "-n", "2", "-m", "3") == (0, own, "")
    for flags, message in (
        (("--config", "1,1,1,1"), f"{ine} is over the layout 3,3 (15 events), "
                                  "not 1,1,1,1 (15 events)"),
        (("-n", "2", "-m", "2"), f"configuration has 8 events but {ine} "
                                 "has dimension 15"),
    ):
        code, out, err = run(capsys, "inequalities", "--ine", str(ine), *flags)
        assert (code, out) == (1, "") and message in err
    code, _, err = run(capsys, "violations", "--ine", str(ine), "--config", "1,1,1,1",
                       "--model", "uniform", "--angles", "0;0;0;0")
    assert code == 1 and f"{ine} is over the layout 3,3 (15 events)" in err
    # a file without a Konfiguration line takes the layout of the flags
    bare = tmp_path / "bare.ine"
    bare.write_text(ine.read_text().replace("Konfiguration 2 3\n", ""))
    code, _, err = run(capsys, "inequalities", "--ine", str(bare))
    assert code == 1 and "no configuration in file" in err
    assert run(capsys, "inequalities", "--ine", str(bare), "-n", "2", "-m", "3") == (0, own, "")
    code, out, _ = run(capsys, "inequalities", "--ine", str(bare), "--config", "1,1,1,1")
    assert code == 0 and len(out.splitlines()) == 684 and "a1b1c1" in out
    scan = ("violations", "--model", "singlet", "--angles", "0,2pi/3,4pi/3;0,2pi/3,4pi/3")
    assert (run(capsys, *scan, "--ine", str(bare), "-n", "2", "-m", "3")
            == run(capsys, *scan, "--ine", str(ine)))


def test_konfiguration_of_another_dimension_exits_with_parse_error(tmp_path, capsys):
    ine = tmp_path / "f23.ine"
    run(capsys, "hull", "-n", "2", "-m", "3", "-o", str(ine), "-q")
    ine.write_text(ine.read_text().replace("Konfiguration 2 3", "Konfiguration 2 2"))
    for argv in (("inequalities",), ("enum", "-q"), ("contains", "--point", "0")):
        code, out, err = run(capsys, *argv, "--ine", str(ine))
        assert code == 2 and out == ""
        assert f"{ine}: configuration has 8 events" in err


def test_verify_text_output(capsys):
    code, out, _ = run(capsys, "verify", "-n", "2", "-m", "1",
                       "--ineq", "a1 - a1b1 + b1 <= 1")
    assert code == 0
    assert out == "valid: yes\ntight generators: 3\nfacet: yes\n"
    code, out, _ = run(capsys, "verify", "--config", "1,1", "--ineq", "a1 <= 2")
    assert code == 0
    assert out == "valid: yes\ntight generators: 0\nfacet: no\n"


def test_contour_svg_and_empty_results(tmp_path, capsys):
    ine = tmp_path / "2_2.ine"
    run(capsys, "hull", "-n", "2", "-m", "2", "-o", str(ine), "-q")
    prefix = tmp_path / "cont"
    common = ("--ine", str(ine), "--model", "singlet", "--angles=x,0;0,y")
    code, out, _ = run(capsys, "contour", *common, "--samples", "5",
                       "-o", str(prefix), "--svg")
    assert code == 0
    csvs = sorted(p.stem for p in tmp_path.glob("cont_row*.csv"))
    svgs = sorted(p.stem for p in tmp_path.glob("cont_row*.svg"))
    assert csvs and csvs == svgs
    assert out.count("wrote ") == 2 * len(csvs)
    assert all((tmp_path / f"{s}.svg").read_text().startswith("<?xml") for s in svgs)
    # the classical product measure violates nothing
    for argv in (
        ("contour", "--ine", str(ine), "--model", "uniform", "--angles=x,0;0,y",
         "--samples", "3", "-o", str(tmp_path / "none")),
        ("plot", "--ine", str(ine), "--model", "uniform", "--angles=x,0;0,0",
         "--samples", "3", "-o", str(tmp_path / "none.csv"), "--svg",
         str(tmp_path / "none.svg")),
    ):
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, "no violated inequalities in range\n")
    assert not list(tmp_path.glob("none*"))


def test_sample_counts_above_the_cap_exit_3(tmp_path, capsys):
    # The count is checked before any point is built: a billion samples
    # per axis would otherwise run out of memory.
    ine = tmp_path / "2_2.ine"
    run(capsys, "hull", "-n", "2", "-m", "2", "-o", str(ine), "-q")
    common = ("--ine", str(ine), "--model", "singlet")
    for argv, points in (
        (("contour", *common, "--angles=x,0;0,y", "--samples", "257", "--svg",
          "-o", str(tmp_path / "g")), 257 * 257),
        (("contour", *common, "--angles=x,0;0,y", "--samples", "1000000000",
          "-o", str(tmp_path / "g")), 10**18),
        (("plot", *common, "--angles=x,0;0,0", "--samples", "65537",
          "-o", str(tmp_path / "c.csv"), "--svg", str(tmp_path / "c.svg")), 65537),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (f"corrpoly: capacity exceeded: {points} sample points "
                       f"exceed the cap of 65536\n")
    assert list(tmp_path.iterdir()) == [ine]


def test_usage_errors_of_the_shared_flags(tmp_path, capsys, monkeypatch):
    ine = tmp_path / "2_2.ine"
    run(capsys, "hull", "-n", "2", "-m", "2", "-o", str(ine), "-q")
    model = ("--ine", str(ine), "--model", "singlet")
    nines = "9" * 308  # about 1e308: the range's width overflows to inf
    for argv, message in (
        (("violations", *model, "--angles=x,0;0,0"), "concrete angles"),
        (("events", "--config", "2,2", "-n", "2", "-m", "2"), "mutually exclusive"),
        (("events", "--config", "2,x"), "bad --config value '2,x'"),
        (("events", "--config", "2,0"), "at least one setting"),
        (("events",), "no configuration given (use -n/-m or --config)"),
        (("violations", *model, "--angles=0,0;0,0", "--threshold=-1"),
         "threshold must be nonnegative"),
        (("contour", *model, "--angles=x,0;0,y", "--samples", "1", "-o",
          str(tmp_path / "g")), "need at least 2 samples"),
        (("inequalities", "--ine", str(ine), "--rows", "1-5"), "--rows expects MIN:MAX"),
        (("violations", *model, "--angles=0,0;0,0", "--rows", "a:b"), "--rows expects"),
        (("plot", *model, "--angles=x,0;0,0", "--range", "0-pi", "-o",
          str(tmp_path / "c.csv")), "range expects LO:HI, got '0-pi'"),
        (("plot", *model, "--angles=x,0;0,0", "--range", "0:x", "-o",
          str(tmp_path / "c.csv")), "range bound 'x' must be constant"),
        (("contour", *model, "--angles=x,0;0,y", "--range-y", "y:pi", "-o",
          str(tmp_path / "g")), "range bound 'y' must be constant"),
        (("plot", *model, "--angles=x,0;0,0", f"--range=-{nines}:{nines}", "-o",
          str(tmp_path / "c.csv")), "is empty or not finite"),
        # Counts are ASCII digits, as in cdd files; int would read "1_0"
        # as 10 and "\u0662" (Arabic-Indic two) as 2.
        (("events", "-n", "\u0662", "-m", "1"), "argument -n/--particles"),
        (("events", "-n", "2", "-m", "1_0"), "argument -m/--settings"),
        (("events", "--config", "\u0662,\u0663"), "bad --config value"),
        (("events", "--config", "2,+3"), "bad --config value"),
        (("inequalities", "--ine", str(ine), "--rows", "\u0661:\u0662"), "--rows expects"),
        (("inequalities", "--ine", str(ine), "--rows", "1:1_0"), "--rows expects"),
        (("hull", "-n", "2", "-m", "2", "-q", "--ray-cap", "1_0"),
         "bad --ray-cap value '1_0'"),
        (("vertices", "-n", "2", "-m", "2", "--vertex-cap", "1_6"), "argument --vertex-cap"),
        (("plot", *model, "--angles=x,0;0,0", "--samples", "2_1", "-o",
          str(tmp_path / "c.csv")), "argument --samples"),
        (("contour", *model, "--angles=x,0;0,y", "--samples", "\u0665", "-o",
          str(tmp_path / "g")), "argument --samples"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert message in err, argv
    assert not list(tmp_path.glob("c.csv")) and not list(tmp_path.glob("g_*"))
    for env in ("lots", "1_0"):
        monkeypatch.setenv("CORRPOLY_RAY_CAP", env)
        code, out, err = run(capsys, "hull", "-n", "2", "-m", "2", "-q")
        assert (code, out) == (1, "") and f"bad CORRPOLY_RAY_CAP value '{env}'" in err


def test_angle_counts_off_the_layout_are_parse_errors(tmp_path, capsys):
    ine = tmp_path / "2_2.ine"
    run(capsys, "hull", "-n", "2", "-m", "2", "-o", str(ine), "-q")
    for angles, message in (("0,1;0", "particle 1: expected 2 setting angles, got 1"),
                            ("0,1", "expected angles for 2 particles, got 1"),
                            ("0,1;0,1;0,1", "expected angles for 2 particles, got 3")):
        code, out, err = run(capsys, "violations", "--ine", str(ine),
                             "--model", "singlet", "--angles", angles)
        assert (code, out) == (2, "") and message in err, angles


def test_negative_vertex_cap_is_a_usage_error(capsys):
    for command in ("hull", "vertices"):
        code, out, err = run(capsys, command, "-n", "2", "-m", "2", "--vertex-cap", "-1")
        assert (code, out) == (1, "") and "--vertex-cap" in err, command
        assert "capacity" not in err

