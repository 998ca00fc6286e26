"""CSV ingestion/export and the command-line front end.

The checked-in fixture files are canonical (sorted, shortest float form),
so export after ingest must reproduce them byte for byte. CLI tests drive
main() with argv lists and assert on captured output and exit codes.
"""

from pathlib import Path

import pytest

from trajq.cli import main
from trajq.dataset import Dataset, export_csv, ingest_csv
from trajq.errors import (
    CsvParseError,
    DuplicateKeyError,
    InvariantViolationError,
    UnknownPropertyError,
)
from trajq.model import segment_property_view
from trajq.relations import allen_catalog, de9im_catalog

DATA = Path(__file__).parent / "data"

CROSSING_REGION = "R=2.65,0.6,4.5,1.75"
Q1 = "EXISTS p IN T: p INSIDE R"


def write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


# --- ingestion and export -----------------------------------------------


@pytest.mark.parametrize("stem", ["crossing", "goose", "selection"])
def test_fixture_roundtrip_bit_exact(stem, tmp_path):
    src = DATA / f"{stem}.csv"
    d = ingest_csv(src)
    out = tmp_path / f"{stem}.csv"
    export_csv(d, out)
    assert out.read_bytes() == src.read_bytes()
    for suffix in (".props.csv", ".pprops.csv"):
        sibling = DATA / f"{stem}{suffix}"
        exported = tmp_path / f"{stem}{suffix}"
        if sibling.exists():
            assert exported.read_bytes() == sibling.read_bytes()
        else:
            assert not exported.exists()


def test_goose_contents():
    d = ingest_csv(DATA / "goose.csv")
    assert d.trajectories.tids() == ("T0",)
    assert len(d.trajectories.get("T0").points) == 5
    assert d.properties.trajectory_value("T0", "species") == "goose"
    assert d.properties.point_values("T0", "movement_type")[:2] == (
        (0, "walking"),
        (1, "walking"),
    )
    assert d.metadata["name"] == "goose"
    assert d.metadata["source"].endswith("goose.csv")


def test_segment_property_view_collapses_runs():
    d = ingest_csv(DATA / "goose.csv")
    view = segment_property_view(d.properties, "T0", "movement_type")
    assert view == [(0, 1, "walking"), (2, 4, "flying")]


def test_property_value_typing(tmp_path):
    write(tmp_path / "d.csv", "tid,order,x,y,tau\nA,0,0,0,0\nA,1,1,1,5\n")
    write(
        tmp_path / "d.props.csv",
        "tid,count,name,speed,tagged\nA,7,goose,3.5,true\n",
    )
    write(tmp_path / "d.pprops.csv", "tid,order,load\nA,0,2\nA,1,\n")
    d = ingest_csv(tmp_path / "d.csv")
    assert d.properties.trajectory_value("A", "count") == 7
    assert isinstance(d.properties.trajectory_value("A", "count"), int)
    assert d.properties.trajectory_value("A", "speed") == 3.5
    assert d.properties.trajectory_value("A", "tagged") is True
    assert d.properties.trajectory_value("A", "name") == "goose"
    # the empty cell at order 1 means the property is absent there
    assert d.properties.point_values("A", "load") == ((0, 2),)
    with pytest.raises(UnknownPropertyError):
        d.properties.trajectory_value("A", "weight")


def test_roundtrip_equality_ignores_metadata(tmp_path):
    d = ingest_csv(DATA / "goose.csv")
    out = tmp_path / "copy.csv"
    export_csv(d, out)
    again = ingest_csv(out)
    assert again == d
    assert again.metadata["name"] == "copy"


def test_export_normalizes_row_order_and_floats(tmp_path):
    scrambled = write(
        tmp_path / "s.csv",
        "tid,order,x,y,tau\nB,1,4,4.50,10\nA,1,2.0,3,8\nB,0,4,4,5\nA,0,1,1,0\n",
    )
    out = tmp_path / "canon.csv"
    export_csv(ingest_csv(scrambled), out)
    assert out.read_text() == (
        "tid,order,x,y,tau\nA,0,1,1,0\nA,1,2,3,8\nB,0,4,4,5\nB,1,4,4.5,10\n"
    )
    # a second pass reproduces itself exactly
    export_csv(ingest_csv(out), tmp_path / "canon2.csv")
    assert (tmp_path / "canon2.csv").read_bytes() == out.read_bytes()


@pytest.mark.parametrize(
    "text,line,column",
    [
        ("", 1, 1),
        ("tid,x,y\n", 1, 1),
        ("tid,order,x,y,tau,extra\n", 1, 6),
        ("tid,order,x,y,tau\nA,zero,0,0,0\n", 2, 2),
        ("tid,order,x,y,tau\nA,0,abc,0,0\n", 2, 3),
        ("tid,order,x,y,tau\nA,0,0,0,inf\n", 2, 5),
        ("tid,order,x,y,tau\nA,0,0,0\n", 2, 1),
        ("tid,order,x,y,tau\n,0,0,0,0\n", 2, 1),
    ],
)
def test_points_parse_errors_are_positioned(text, line, column, tmp_path):
    path = write(tmp_path / "bad.csv", text)
    with pytest.raises(CsvParseError) as exc:
        ingest_csv(path)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert f"line {line}, field {column}" in str(exc.value)


def test_non_utf8_byte_is_a_positioned_parse_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"tid,order,x,y,tau\r\nA,0,0,0,0\r\nA,1,\"1\xff\",0,5\r\n")
    with pytest.raises(CsvParseError) as exc:
        ingest_csv(path)
    assert (exc.value.line, exc.value.column) == (3, 3)
    assert "0xff" in str(exc.value)


def test_duplicate_point_key(tmp_path):
    path = write(
        tmp_path / "dup.csv", "tid,order,x,y,tau\nT,0,0,0,0\nT,0,1,1,1\n"
    )
    with pytest.raises(DuplicateKeyError) as exc:
        ingest_csv(path)
    assert str(exc.value) == "duplicate point key ('T', 0)"


def test_model_invariants_reported_per_trajectory(tmp_path):
    gap = write(tmp_path / "gap.csv", "tid,order,x,y,tau\nT,0,0,0,0\nT,2,1,1,1\n")
    with pytest.raises(InvariantViolationError) as exc:
        ingest_csv(gap)
    assert exc.value.tid == "T" and "contiguous" in str(exc.value)

    stuck = write(
        tmp_path / "stuck.csv", "tid,order,x,y,tau\nT,0,0,0,5\nT,1,1,1,5\n"
    )
    with pytest.raises(InvariantViolationError) as exc:
        ingest_csv(stuck)
    assert "non-monotone time" in str(exc.value)


def test_property_files_validated_against_points(tmp_path):
    write(tmp_path / "d.csv", "tid,order,x,y,tau\nA,0,0,0,0\nA,1,1,1,5\n")
    write(tmp_path / "d.props.csv", "tid,species\nB,goose\n")
    with pytest.raises(InvariantViolationError) as exc:
        ingest_csv(tmp_path / "d.csv")
    assert "unknown trajectory id" in str(exc.value)

    write(tmp_path / "d.props.csv", "tid,species\nA,goose\nA,swan\n")
    with pytest.raises(DuplicateKeyError) as exc:
        ingest_csv(tmp_path / "d.csv")
    assert str(exc.value) == "duplicate row for tid 'A'"

    write(tmp_path / "d.props.csv", "tid,species\nA,goose\n")
    write(tmp_path / "d.pprops.csv", "tid,order,load\nA,9,2\n")
    with pytest.raises(InvariantViolationError) as exc:
        ingest_csv(tmp_path / "d.csv")
    assert "no matching point" in str(exc.value)


# --- command line --------------------------------------------------------


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_validate(capsys):
    code, out, err = run(capsys, "validate", str(DATA / "crossing.csv"))
    assert (code, out, err) == (0, "OK: 1 trajectories, 4 points\n", "")


def test_cli_validate_bad_data(capsys, tmp_path):
    bad = write(tmp_path / "bad.csv", "tid,order,x,y,tau\nT,0,0,0,5\nT,1,1,1,5\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error: trajectory 'T'")


@pytest.mark.parametrize("name", ["missing.csv", "a-directory"])
def test_cli_unreadable_data_file_is_one_error_line(name, capsys, tmp_path):
    (tmp_path / "a-directory").mkdir()
    code, out, err = run(capsys, "validate", str(tmp_path / name))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_runs_do_not_share_repeated_flag_values(capsys):
    data = str(DATA / "selection.csv")
    query = ("query", data, "--predicate", "EXISTS p IN T: p INSIDE R AND p INSIDE I")
    first = run(capsys, *query, "--region", "R=0,0,10,10", "--interval", "I=0,1000")
    second = run(capsys, *query, "--region", "R=0,0,1,1", "--interval", "I=0,1")
    assert first == (0, "Ta\nTb\nTc\n", "")
    assert second == (0, "", "")


def test_cli_query_strictness(capsys):
    data = str(DATA / "crossing.csv")
    base = ("query", data, "--predicate", Q1, "--region", CROSSING_REGION)
    assert run(capsys, *base, "--strictness", "strict") == (0, "", "")
    assert run(capsys, *base, "--strictness", "relaxed") == (0, "T\n", "")
    assert run(capsys, *base, "--strictness", "approx:uniform:1000") == (0, "T\n", "")


def test_cli_query_errors(capsys):
    data = str(DATA / "crossing.csv")
    code, _, err = run(capsys, "query", data, "--predicate", "pf WITHIN")
    assert code == 1 and err.startswith("error: syntax error at position")

    code, _, err = run(
        capsys, "query", data, "--predicate", "pf WITHIN Q", "--region", CROSSING_REGION
    )
    assert code == 1 and "Q" in err

    code, _, err = run(
        capsys,
        "query",
        data,
        "--predicate",
        Q1,
        "--region",
        "R=0,0,1,1",
        "--interval",
        "R=0,1",
    )
    assert code == 2 and "bound more than once" in err

    code, _, err = run(
        capsys, "query", data, "--predicate", Q1, "--region", CROSSING_REGION,
        "--strictness", "approx:nope",
    )
    assert code == 1 and "no approximation strategy" in err


def test_cli_usage_errors(capsys):
    assert run(capsys, "--help")[0] == 0
    assert main([]) == 2
    assert main(["classify"]) == 2
    code, _, err = run(capsys, "query", "x.csv", "--predicate", "pf WITHIN R",
                       "--strictness", "fuzzy")
    assert code == 2
    code, _, err = run(capsys, "query", "x.csv", "--predicate", "pf WITHIN R",
                       "--region", "R=1,2,0,3")
    assert code == 2

    capsys.readouterr()


def test_cli_classify_de9im(capsys):
    data = str(DATA / "crossing.csv")
    code, out, _ = run(capsys, "classify", "de9im", data, "--region", CROSSING_REGION)
    assert (code, out) == (0, "T\tR031\n")
    code, out, _ = run(
        capsys, "classify", "de9im", data, "--region", CROSSING_REGION,
        "--strictness", "relaxed",
    )
    assert (code, out) == (0, "T\tR095,R223\n")


def test_cli_classify_de9im_why_appends_the_signature(capsys):
    data = str(DATA / "crossing.csv")
    for mode, want in (
        ("strict", "T\tR031\tpf=E pl=E tfl={E} t={E}\n"),
        ("relaxed", "T\tR095,R223\tpf=E pl=E tfl={I,B,E} t={I,B,E}\n"),
    ):
        code, out, _ = run(
            capsys, "classify", "de9im", data, "--region", CROSSING_REGION,
            "--strictness", mode, "--why",
        )
        assert (code, out) == (0, want)


def test_cli_classify_allen(capsys):
    code, out, _ = run(
        capsys, "classify", "allen", str(DATA / "goose.csv"),
        "--interval", "I=100,140",
    )
    assert (code, out) == (0, "T0\tOverlappedBy\n")


def test_cli_explain_goldens(capsys):
    code, out, _ = run(
        capsys, "explain", "--relation", "R179", "--region", CROSSING_REGION
    )
    assert code == 0
    assert out == (
        "SELECT[2.65 < min(PROJECT[x](T)) AND 0.6 < min(PROJECT[y](T)) "
        "AND 4.5 > max(PROJECT[x](T)) AND 1.75 > max(PROJECT[y](T))](INPUT)\n"
    )
    code, out, _ = run(
        capsys, "explain", "--relation", "precedes", "--interval", "I=100,140"
    )
    assert (code, out) == (0, "SELECT[max(PROJECT[tau](T)) < 100](INPUT)\n")


def test_cli_explain_errors(capsys):
    code, _, err = run(
        capsys, "explain", "--relation", "R095", "--region", CROSSING_REGION
    )
    assert code == 1 and "no published expression" in err

    code, _, err = run(capsys, "explain", "--relation", "borders")
    assert code == 2 and "unknown relation" in err

    code, _, err = run(capsys, "explain", "--relation", "R179")
    assert code == 2 and "needs --region" in err

    code, _, err = run(
        capsys, "explain", "--relation", "R179", "--region", CROSSING_REGION,
        "--strictness", "approx:uniform",
    )
    assert code == 2 and "strict or relaxed" in err


def test_cli_exec_nf2(capsys):
    data = str(DATA / "crossing.csv")
    code, out, _ = run(
        capsys, "exec-nf2", data, "--relation", "R031", "--region", CROSSING_REGION
    )
    assert (code, out) == (0, "T\n")
    code, out, _ = run(
        capsys, "exec-nf2", data, "--relation", "R031", "--region", CROSSING_REGION,
        "--strictness", "relaxed",
    )
    assert (code, out) == (0, "")


EXEC_QUERY_CASES = [
    ("selection.csv", "R031", "--region", "R=1.5,0.5,4.5,1.5", "strict"),
    ("selection.csv", "R223", "--region", "R=1.5,0.5,4.5,1.5", "relaxed"),
    ("crossing.csv", "R223", "--region", CROSSING_REGION, "relaxed"),
    ("crossing.csv", "is-during", "--interval", "I=90,140", "strict"),
    ("crossing.csv", "overlaps-with", "--interval", "I=110,140", "relaxed"),
    ("selection.csv", "precedes", "--interval", "I=100,140", "strict"),
]


@pytest.mark.parametrize("data,relation,flag,binding,mode", EXEC_QUERY_CASES)
def test_exec_nf2_agrees_with_query(data, relation, flag, binding, mode, capsys):
    """The compiled algebra route and the predicate route must answer every
    relation query identically."""
    texts = {lab.value: text for lab, text, _ in de9im_catalog()}
    texts.update(
        {
            "precedes": "FORALL p IN T: p BEFORE I",
            "is-during": "FORALL p IN T: p INSIDE I",
            "overlaps-with": dict(
                (lab.value, text) for lab, text, _ in allen_catalog()
            )["Overlaps"],
        }
    )
    path = str(DATA / data)
    code_a, out_a, _ = run(
        capsys, "exec-nf2", path, "--relation", relation, flag, binding,
        "--strictness", mode,
    )
    code_b, out_b, _ = run(
        capsys, "query", path, "--predicate", texts[relation], flag, binding,
        "--strictness", mode,
    )
    assert code_a == code_b == 0
    assert out_a == out_b
