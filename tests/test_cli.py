import hashlib
import json
import random

import pytest

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
)
from corrpoly.cli import main


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
    code, out, _ = run(capsys, "enum", "--ine", str(ine), "-q")
    assert code == 0
    assert "empty polyhedron" in out


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


def test_help_everywhere(capsys):
    for sub in (
        "events", "vertices", "hull", "enum", "inequalities",
        "violations", "plot", "contour", "verify", "contains",
    ):
        code, out, err = run(capsys, sub, "--help")
        assert code == 0
        assert "usage" in out or "usage" in err
