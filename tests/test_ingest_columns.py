"""Column-at-a-time CSV ingest and export against the row-at-a-time reference.

``ingest_csv`` checks and converts whole columns and sorts the rows once;
only when a column check fails does it read the file again row by row to
raise the first fault. The reference below is the row loop the column code
replaced. On generated points, props and pprops files (shuffled rows, tids
holding commas, quotes and line breaks, up to two injected faults) both must
give equal datasets, with equally typed values, or the same exception with
the same text, line and field; export must write the same bytes.
``load_trajectories``, which checks the property files without building
them, must give the same trajectories or the same exception, and every CLI
command that loads data the same exit code and error line as ``validate``.
The same holds for each generated dataset rewritten into the layout
``export_csv`` writes, which ingest recognises and does not sort, and with
property files whose keys repeat the points file's, whose key checks ingest
skips.
"""

import contextlib
import csv
import io
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trajq.dataset
from trajq._fmt import format_float
from trajq.cli import main
from trajq.dataset import (
    POINTS_HEADER,
    Dataset,
    _parse_float,
    _parse_int,
    _parse_value,
    _columns,
    _has_long_int,
    export_csv,
    ingest_csv,
    load_trajectories,
)
from trajq.errors import (
    CsvParseError,
    DuplicateKeyError,
    InvariantViolationError,
    NonMonotoneTimeError,
    TrajqError,
)
from trajq.model import PropertyRelation, TrajectoriesRelation, build_trajectory

# --- the row-at-a-time reference -----------------------------------------


def _reference_rows(path: Path, required: tuple[str, ...]) -> tuple[list[str], list]:
    reader = csv.reader(io.StringIO(path.read_bytes().decode("utf-8"), newline=""))
    rows = [(reader.line_num, row) for row in reader]
    if not rows:
        raise CsvParseError(1, 1, f"{path.name}: empty file, expected a header")
    header = rows[0][1]
    if tuple(header[: len(required)]) != required:
        raise CsvParseError(1, 1, f"{path.name}: expected header starting {','.join(required)}")
    names = header[len(required) :]
    if len(set(names)) != len(names):
        raise CsvParseError(1, 1, f"{path.name}: duplicate property column")
    return header, rows[1:]


def _reference_points(path: Path) -> TrajectoriesRelation:
    header, rows = _reference_rows(path, POINTS_HEADER)
    if len(header) != 5:
        raise CsvParseError(1, 6, f"{path.name}: unexpected extra columns")
    per_tid: dict[str, dict[int, tuple[float, float, float]]] = {}
    for line, row in rows:
        if len(row) != 5:
            raise CsvParseError(line, 1, f"expected 5 fields, got {len(row)}")
        tid = row[0]
        if not tid:
            raise CsvParseError(line, 1, "empty tid")
        order = _parse_int(row[1], line, 2)
        x = _parse_float(row[2], line, 3)
        y = _parse_float(row[3], line, 4)
        tau = _parse_float(row[4], line, 5)
        samples = per_tid.setdefault(tid, {})
        if order in samples:
            raise DuplicateKeyError(tid, order)
        samples[order] = (x, y, tau)
    pairs = []
    for tid in sorted(per_tid):
        samples = per_tid[tid]
        orders = sorted(samples)
        if orders != list(range(len(orders))):
            raise InvariantViolationError(tid, f"orders {orders} are not contiguous from 0")
        try:
            t = build_trajectory(samples[o] for o in orders)
        except NonMonotoneTimeError as exc:
            raise InvariantViolationError(tid, f"non-monotone time: {exc}") from None
        pairs.append((tid, t))
    return TrajectoriesRelation.from_pairs(pairs)


def _reference_value(cell: str, line: int, column: int):
    try:
        return _parse_value(cell)
    except ValueError:  # an integer with more digits than int() converts
        digits = len(cell.lstrip("+-"))
        limit = sys.get_int_max_str_digits()
        raise CsvParseError(
            line, column, f"integer of {digits} digits, more than the {limit} allowed"
        ) from None


def _reference_props(path: Path, tids) -> dict:
    header, rows = _reference_rows(path, ("tid",))
    out = {tid: {} for tid in tids}
    seen = set()
    for line, row in rows:
        if len(row) != len(header):
            raise CsvParseError(line, 1, f"expected {len(header)} fields, got {len(row)}")
        tid = row[0]
        if tid not in out:
            raise InvariantViolationError(tid, f"{path.name} references an unknown trajectory id")
        if tid in seen:
            raise DuplicateKeyError(tid, None)
        seen.add(tid)
        for column, (name, cell) in enumerate(zip(header[1:], row[1:]), 2):
            if cell != "":
                out[tid][name] = _reference_value(cell, line, column)
    return out


def _reference_pprops(path: Path, trajectories) -> dict:
    header, rows = _reference_rows(path, ("tid", "order"))
    sizes = {tid: len(t) for tid, t in trajectories}
    collected = {tid: {} for tid in sizes}
    seen = set()
    for line, row in rows:
        if len(row) != len(header):
            raise CsvParseError(line, 1, f"expected {len(header)} fields, got {len(row)}")
        tid = row[0]
        if tid not in sizes:
            raise InvariantViolationError(tid, f"{path.name} references an unknown trajectory id")
        order = _parse_int(row[1], line, 2)
        if not 0 <= order < sizes[tid]:
            raise InvariantViolationError(
                tid, f"point property at order {order} has no matching point"
            )
        if (tid, order) in seen:
            raise DuplicateKeyError(tid, order)
        seen.add((tid, order))
        for column, (name, cell) in enumerate(zip(header[2:], row[2:]), 3):
            if cell != "":
                collected[tid].setdefault(name, {})[order] = _reference_value(cell, line, column)
    return {
        tid: {name: tuple(sorted(by_order.items())) for name, by_order in per.items()}
        for tid, per in collected.items()
    }


def reference_ingest(path: Path) -> Dataset:
    trajectories = _reference_points(path)
    tids = trajectories.tids()
    props, pprops = path.with_suffix(".props.csv"), path.with_suffix(".pprops.csv")
    tprops = _reference_props(props, tids) if props.exists() else {t: {} for t in tids}
    point_props = (
        _reference_pprops(pprops, trajectories) if pprops.exists() else {t: {} for t in tids}
    )
    return Dataset(trajectories, PropertyRelation(tprops, point_props), {})


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _csv_line(row) -> str:
    """One row as csv writes it, with every cell holding a line break
    (a bare CR too) quoted, ended by LF."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(row)
    return buffer.getvalue()[:-2] + "\n"


def reference_export(d: Dataset, path: Path) -> None:
    def write(target: Path, header, rows):
        with open(target, "w", newline="", encoding="utf-8") as fh:
            fh.writelines(map(_csv_line, [header, *rows]))

    write(
        path,
        POINTS_HEADER,
        [
            [tid, str(order), format_float(x), format_float(y), format_float(tau)]
            for tid, t in d.trajectories
            for order, (x, y, tau) in enumerate(
                zip(t.xs.tolist(), t.ys.tolist(), t.taus.tolist())
            )
        ],
    )
    tprops = d.properties.trajectory_props
    tnames = sorted({name for per in tprops.values() for name in per})
    if tnames:
        rows = [
            [tid] + [_cell(per[n]) if n in per else "" for n in tnames]
            for tid, per in sorted(tprops.items())
            if per
        ]
        write(path.with_suffix(".props.csv"), ["tid"] + tnames, rows)
    pprops = d.properties.point_props
    pnames = sorted({name for per in pprops.values() for name in per})
    if pnames:
        rows = []
        for tid, per in sorted(pprops.items()):
            cells = {}
            for name, pairs in per.items():
                for order, value in pairs:
                    cells.setdefault(order, {})[name] = value
            for order in sorted(cells):
                rows.append(
                    [tid, str(order)]
                    + [_cell(cells[order][n]) if n in cells[order] else "" for n in pnames]
                )
        write(path.with_suffix(".pprops.csv"), ["tid", "order"] + pnames, rows)


# --- generated files -------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
tid_text = st.lists(
    st.sampled_from(["a", "b", "Z", ",", '"', "\n", "\r", " ", "é"]), min_size=1, max_size=3
).map("".join)
coordinate_cell = st.one_of(
    finite.map(repr),
    finite.map(format_float),
    st.sampled_from([" 1", "1_0", "-0", "١", "2.50", "+3", "1e3", "-7E-2"]),
)
property_cell = st.one_of(
    st.sampled_from(
        ["", "", "7", "-3", "+4", "007", "3.5", "-0", "-0.0", "1e400", "nan", "inf",
         "true", "false", "True", "goose", "0x10", "1_0", " 1", "٣", "a,b",
         'say "hi"', "line\nbreak", "-" + "7" * 4301]
    ),
    finite.map(repr),
)
LONG = "1" * 5000  # more digits than int() converts
BAD_ORDERS = ["0,1", "0\n1", " 0", "0_0", "x", "1.0", "٠", "", LONG]
BAD_NUMBERS = ["abc", "0x10", "nan", "inf", "-inf", "1e400", ""]
HUGE = "123456789012345678901234567890"


def _order_cell(draw, order: int) -> str:
    return draw(st.sampled_from([str(order), f"+{order}", f"0{order}"]))


@st.composite
def dataset_files(draw):
    """Rows of a points file and, maybe, of its props and pprops siblings
    (each file a header and data rows), with up to two faults."""
    tids = draw(st.lists(tid_text, min_size=1, max_size=4, unique=True))
    sizes = {tid: draw(st.integers(1, 4)) for tid in tids}
    points = []
    for tid in tids:
        taus = sorted(draw(st.sets(st.integers(-50, 50), min_size=sizes[tid], max_size=sizes[tid])))
        for order, tau in enumerate(taus):
            tau_cell = draw(st.sampled_from([str(tau), f"{tau}.0", f"{tau}e0", f" {tau}", f"{tau * 10}e-1"]))
            points.append([tid, _order_cell(draw, order), draw(coordinate_cell), draw(coordinate_cell), tau_cell])
    files = {".csv": [list(POINTS_HEADER), *points]}
    names = st.lists(st.sampled_from(["speed", "mode", "x,y", 'q"', "n\nl", "é"]), max_size=3, unique=True)
    if draw(st.booleans()):
        tnames = draw(names)
        chosen = draw(st.lists(st.sampled_from(tids), unique=True))
        files[".props.csv"] = [["tid", *tnames]] + [
            [tid, *(draw(property_cell) for _ in tnames)] for tid in chosen
        ]
    if draw(st.booleans()):
        pnames = draw(names)
        keys = [(tid, o) for tid in tids for o in range(sizes[tid])]
        chosen = draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
        files[".pprops.csv"] = [["tid", "order", *pnames]] + [
            [tid, _order_cell(draw, o), *(draw(property_cell) for _ in pnames)]
            for tid, o in chosen
        ]
    for _ in range(draw(st.integers(0, 2))):
        _inject_fault(draw, files, sizes)
    for suffix, rows in files.items():
        files[suffix] = rows[:1] + draw(st.permutations(rows[1:]))
    return files


def _inject_fault(draw, files, sizes) -> None:
    suffix = draw(st.sampled_from(sorted(files)))
    rows = files[suffix]
    kinds = ["unknown tid", "duplicate", "fields"]
    if suffix == ".csv":
        kinds = ["number", "time", "drop", "gap", "order", "empty tid", "duplicate", "fields"]
    elif suffix == ".pprops.csv":
        kinds = ["order range", "order", *kinds]
    kind = draw(st.sampled_from(kinds))
    if len(rows) == 1 or kind == "unknown tid":
        width = len(rows[0])
        rows.append(["nobody", "0"][:width] + ["1"] * (width - 2))
        return
    i = draw(st.integers(1, len(rows) - 1))
    row = rows[i]
    if len(row) != len(rows[0]) or row[0] not in sizes:
        return  # an earlier fault took this row
    if kind == "fields":
        rows[i] = draw(st.sampled_from([row[:-1], row + ["1"], []]))
    elif kind == "duplicate":
        rows.append(list(row))
        if suffix == ".csv":
            rows[-1][2] = draw(coordinate_cell)
    elif kind == "empty tid":
        row[0] = ""
    elif kind == "order":
        row[1] = draw(st.sampled_from(BAD_ORDERS))
    elif kind == "number":
        row[draw(st.integers(2, 4))] = draw(st.sampled_from(BAD_NUMBERS))
    elif kind == "drop":  # a missing point: a gap unless it was the last
        del rows[i]
    elif kind == "gap":
        row[1] = draw(st.sampled_from([str(sizes[row[0]] + draw(st.integers(0, 3))), "-1", HUGE]))
    elif kind == "time":
        # One more point at the next order, at the time of an existing one.
        rows.append([row[0], str(sizes[row[0]]), "0", "0", row[4]])
        sizes[row[0]] += 1
    elif kind == "order range":
        row[1] = draw(st.sampled_from([str(sizes[row[0]]), "-1", HUGE]))


def _typed(d: Dataset):
    """The dataset with every float as its repr and every value with its type,
    so 1, 1.0 and True, or 0.0 and -0.0, do not compare equal."""
    return (
        [(tid, repr((t.xs.tolist(), t.ys.tolist(), t.taus.tolist()))) for tid, t in d.trajectories],
        {
            tid: {n: (type(v), repr(v)) for n, v in per.items()}
            for tid, per in d.properties.trajectory_props.items()
        },
        {
            tid: {n: tuple((o, type(v), repr(v)) for o, v in pairs) for n, pairs in per.items()}
            for tid, per in d.properties.point_props.items()
        },
    )


def _error(exc: Exception):
    return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def _outcome(ingest, path: Path):
    try:
        d = ingest(path)
    except Exception as exc:
        return _error(exc)
    return _typed(d), d


def _loaded(path: Path):
    """load_trajectories' outcome: the error as ``_outcome`` gives it, or the
    trajectories in a dataset without properties, typed."""
    try:
        rel = load_trajectories(path)
    except Exception as exc:
        return _error(exc)
    return _typed(Dataset(rel, PropertyRelation.empty(rel.tids()), {}))[0], rel


POINTS = "tid,order,x,y,tau\nA,0,0,0,0\nA,1,1,1,1\nA,2,2,2,2\nB,0,5,5,5\n"
# (points, props, pprops): one fault each, which the column checks must
# find however it sits among in-range values.
FAULTS = [
    ("tid,order,x,y,tau\nA,0,0,0,0\nA,2,2,2,2\nB,0,5,5,5\nB,1,6,6,6\n", None, None),
    ("tid,order,x,y,tau\nA,1,1,1,1\nA,2,2,2,2\nB,0,5,5,5\nB,1,6,6,6\n", None, None),
    ("tid,order,x,y,tau\nA,0,0,0,0\nA,1,1,1,1\nB,1,5,5,5\nB,0,6,6,6\n", None, None),
    ("tid,order,x,y,tau\nA,0,0,0,0\nB,0,5,5,5\nA,0,1,1,1\nA,1,x,1,1\n", None, None),
    ('tid,order,x,y,tau\nA,0,0,0,0\nA,"0,1",1,1,1\n', None, None),
    ('tid,order,x,y,tau\nA,0,0,0,0\nA,"1\n",1,1,1\n', None, None),
    ("tid,order,x,y,tau\nA,0,0,0,0\nA,1,1,1,nan\nA,x,1,1,1\n", None, None),
    (POINTS, "tid,s\nA,1\nB,2\nA,3\n", None),
    (POINTS, "tid,s\nA,1\nC,2\n", None),
    (POINTS, "tid,s\nA,1\nB\n", None),
    (POINTS, None, "tid,order,s\nB,1,x\nA,0,y\n"),
    (POINTS, None, "tid,order,s\nA,2,x\nA,+2,y\n"),
    (POINTS, None, 'tid,order,s\nA,"0,1",x\n'),
    (POINTS, None, "tid,order,s\nA,0,x\nC,0,y\nA,9,z\n"),
    (POINTS, None, "tid,order,s\nA,0,x,y\n"),
]


def _write_files(directory: Path, files: dict, terminator: str = "\n") -> Path:
    for suffix, rows in files.items():
        with open(directory / f"d{suffix}", "w", newline="", encoding="utf-8") as fh:
            if isinstance(rows, str):
                fh.write(rows)
            else:
                csv.writer(fh, lineterminator=terminator).writerows(rows)
    return directory / "d.csv"


@pytest.mark.parametrize("points,props,pprops", FAULTS)
def test_each_fault_is_the_row_loops(points, props, pprops, tmp_path):
    texts = {".csv": points, ".props.csv": props, ".pprops.csv": pprops}
    path = _write_files(tmp_path, {k: v for k, v in texts.items() if v is not None})
    want = _outcome(reference_ingest, path)
    assert isinstance(want[0], type) and issubclass(want[0], TrajqError)
    assert _outcome(ingest_csv, path) == want


@settings(derandomize=True, max_examples=500, deadline=None)
@given(dataset_files(), st.sampled_from(["\n", "\r\n"]))
def test_column_ingest_matches_the_row_loop(files, terminator):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _write_files(tmp, files, terminator)
        got, want = _outcome(ingest_csv, tmp / "d.csv"), _outcome(reference_ingest, tmp / "d.csv")
        assert got[0] == want[0]
        loaded = _loaded(tmp / "d.csv")
        if isinstance(got[0], type):
            assert got == want
            assert loaded == got
            return
        dataset = got[1]
        assert dataset == want[1]
        assert loaded == (got[0][0], dataset.trajectories)
        (tmp / "new").mkdir()
        (tmp / "old").mkdir()
        export_csv(dataset, tmp / "new" / "d.csv")
        reference_export(dataset, tmp / "old" / "d.csv")
        for suffix in (".csv", ".props.csv", ".pprops.csv"):
            new, old = tmp / "new" / f"d{suffix}", tmp / "old" / f"d{suffix}"
            assert new.exists() == old.exists()
            if old.exists():
                assert new.read_bytes() == old.read_bytes()
        # Values read back with their types (a float 3.0 as a float) and
        # signs (-0.0 as -0.0).
        again = ingest_csv(tmp / "new" / "d.csv")
        assert again == dataset
        assert _typed(again) == _typed(dataset)



def _canonical_points(files: dict) -> dict:
    """The files with the points' rows sorted by tid, then by order, each
    integer order cell written as ``export_csv`` writes it; rows with no
    integer order, of any width, follow their tid's."""

    def key(row):
        order = row[1] if len(row) > 1 else ""
        if re.fullmatch(r"[+-]?[0-9]{1,100}", order):
            row[1] = str(int(order))
            return row[0], 0, int(order)
        return (row[0] if row else ""), 1, 0

    header, *rows = files[".csv"]
    return {**files, ".csv": [header, *sorted(map(list, rows), key=key)]}


def _repeated_keys(files: dict) -> dict:
    """The files with each property file's key cells rewritten to repeat the
    points file's keys: a ``.pprops.csv`` row per points row with that row's
    tid and order cells, a ``.props.csv`` row per tid of the points, in tid
    order. Row i keeps the property cells of the file's row i, if any."""
    points = files[".csv"][1:]
    keys = {
        ".pprops.csv": [row[:2] for row in points],
        ".props.csv": [[tid] for tid in sorted({row[0] for row in points if row})],
    }
    out = dict(files)
    for suffix, new_keys in keys.items():
        if suffix in files:
            header, *rows = files[suffix]
            width = len(header) - len(new_keys[0]) if new_keys else 0
            cells = [row[len(key) :] for row, key in zip(rows, new_keys)]
            cells += [[""] * width] * (len(new_keys) - len(cells))
            out[suffix] = [header, *map(list.__add__, new_keys, cells)]
    return out


# Points files near the layout export_csv writes, each read as the row loop
# reads it: runs that look canonical but are not in tid order, a repeated
# run, orders written otherwise, and the layout itself.
NEAR_CANONICAL = [
    "tid,order,x,y,tau\nB,0,0,0,0\nC,0,1,1,1\nB,1,2,2,2\n",
    "tid,order,x,y,tau\nA,0,0,0,0\nC,0,1,1,1\nB,1,2,2,2\n",
    "tid,order,x,y,tau\nB,0,0,0,0\nA,0,1,1,1\n",
    "tid,order,x,y,tau\nA,0,0,0,0\nB,0,1,1,1\nA,1,2,2,2\n",
    "tid,order,x,y,tau\nA,0,0,0,0\nA,01,1,1,1\nB,+0,2,2,2\n",
    "tid,order,x,y,tau\nA,0,0,0,0\nA,1,1,1,1\nA,1,2,2,2\n",
    "tid,order,x,y,tau\nA,0,0,0,0\nA,1,1,1,0\nB,0,2,2,2\n",
    "tid,order,x,y,tau\nA,0,0,0,0\nA,1,1,1,1\nB,0,2,2,2\n",
]


@pytest.mark.parametrize("points", NEAR_CANONICAL)
def test_a_points_file_near_the_canonical_layout_is_read_as_the_row_loop_reads_it(
    points, tmp_path
):
    path = _write_files(tmp_path, {".csv": points, ".pprops.csv": "tid,order,s\nA,0,x\n"})
    want = _outcome(reference_ingest, path)
    assert _outcome(ingest_csv, path) == want
    if not isinstance(want[0], type):  # loaded: the typed trajectories and the relation
        want = want[0][0], want[1].trajectories
    assert _loaded(path) == want


@settings(derandomize=True, max_examples=400, deadline=None)
@given(dataset_files(), st.sampled_from(["\n", "\r\n"]))
def test_canonical_files_and_repeated_keys_match_the_row_loop(files, terminator):
    canonical = _canonical_points(files)
    for variant in (canonical, _repeated_keys(files), _repeated_keys(canonical)):
        with tempfile.TemporaryDirectory() as tmp:
            path = _write_files(Path(tmp), variant, terminator)
            got, want = _outcome(ingest_csv, path), _outcome(reference_ingest, path)
            loaded = _loaded(path)
        assert got[0] == want[0]
        if isinstance(got[0], type):
            assert got == want == loaded
        else:
            assert got[1] == want[1]
            assert loaded == (got[0][0], got[1].trajectories)


# --- which path reads a file ----------------------------------------------


def _depot() -> dict:
    """The rows of a depot-like dataset: 20 walks of 25 points, a
    trajectory property row per walk and a point property row per point."""
    files = {
        ".csv": [list(POINTS_HEADER)],
        ".props.csv": [["tid", "base", "speed"]],
        ".pprops.csv": [["tid", "order", "load"]],
    }
    for w in range(20):
        files[".props.csv"].append([f"w{w:02d}", "north", format_float(w / 2)])
        for o in range(25):
            point = [format_float(w + o / 4), format_float(-o / 2), str(10 * w + o)]
            files[".csv"].append([f"w{w:02d}", str(o), *point])
            files[".pprops.csv"].append([f"w{w:02d}", str(o), str(o % 3)])
    return files


# (file, row, edit): one fault each; row 40 of the points file is w01's
# order 14, row 100 of the point properties w03's order 23.
DEPOT_FAULTS = [
    (".csv", 40, lambda r: [*r[:2], "x", *r[3:]]),
    (".csv", 40, lambda r: r[:-1]),
    (".csv", 40, lambda r: [*r, "1"]),
    (".csv", 40, lambda r: [r[0], "13", *r[2:]]),
    (".csv", 40, lambda r: [*r[:4], "0"]),
    (".csv", 40, lambda r: [r[0], "99", *r[2:]]),
    (".props.csv", 5, lambda r: ["zz", *r[1:]]),
    (".props.csv", 5, lambda r: r[:-1]),
    (".props.csv", 5, lambda r: ["w03", *r[1:]]),
    (".pprops.csv", 100, lambda r: [r[0], "25", r[2]]),
    (".pprops.csv", 100, lambda r: [r[0], "22", r[2]]),
    (".pprops.csv", 100, lambda r: [r[0], "x", r[2]]),
    (".pprops.csv", 100, lambda r: [*r, "2"]),
    (".pprops.csv", 100, lambda r: [*r[:2], LONG]),
]


def _write_depot(directory: Path, files: dict, quoted: bool) -> Path:
    directory.mkdir()
    for suffix, rows in files.items():
        wrap = '"{}"'.format if quoted else str
        text = "".join(",".join(map(wrap, row)) + "\n" for row in rows)
        (directory / f"d{suffix}").write_text(text, encoding="utf-8")
    return directory / "d.csv"


class _CsvReaderCalled(Exception):
    pass


def _no_csv_reader(*args, **kwargs):
    raise _CsvReaderCalled


def test_a_plain_depot_loads_without_csv_reader(tmp_path, monkeypatch):
    plain = _write_depot(tmp_path / "plain", _depot(), quoted=False)
    quoted = _write_depot(tmp_path / "quoted", _depot(), quoted=True)
    with monkeypatch.context() as patch:
        patch.setattr(csv, "reader", _no_csv_reader)
        loaded = load_trajectories(plain)
        dataset = ingest_csv(plain)
        with pytest.raises(_CsvReaderCalled):  # quotes take the csv path
            load_trajectories(quoted)
    assert len(loaded) == 20 and sum(len(t) for _, t in loaded) == 500
    assert _loaded(quoted) == _loaded(plain)
    assert _outcome(ingest_csv, quoted) == _outcome(ingest_csv, plain)
    assert dataset.trajectories == loaded


@pytest.mark.parametrize("suffix,row,edit", DEPOT_FAULTS)
def test_a_fault_is_raised_alike_on_either_path(suffix, row, edit, tmp_path):
    files = _depot()
    files[suffix][row] = edit(files[suffix][row])
    plain = _write_depot(tmp_path / "plain", files, quoted=False)
    quoted = _write_depot(tmp_path / "quoted", files, quoted=True)
    want = _loaded(plain)
    assert isinstance(want[0], type) and issubclass(want[0], TrajqError)
    assert _loaded(quoted) == want
    assert _outcome(ingest_csv, quoted) == _outcome(ingest_csv, plain) == want


@pytest.mark.parametrize("layout", ["canonical", "reversed"])
@pytest.mark.parametrize("suffix,row,edit", DEPOT_FAULTS)
def test_a_depot_fault_is_the_row_loops(suffix, row, edit, layout, tmp_path):
    files = _depot()
    files[suffix][row] = edit(files[suffix][row])
    if layout == "reversed":  # not canonical; the point properties still repeat its keys
        files = {suffix: [rows[0], *rows[:0:-1]] for suffix, rows in files.items()}
    path = _write_depot(tmp_path / "depot", files, quoted=False)
    want = _outcome(reference_ingest, path)
    assert isinstance(want[0], type) and issubclass(want[0], TrajqError)
    assert _outcome(ingest_csv, path) == want
    assert _loaded(path) == want


class _KeyWorkDone(Exception):
    pass


def _key_work(*args, **kwargs):
    raise _KeyWorkDone


def test_a_canonical_depot_checks_its_keys_once(tmp_path, monkeypatch):
    path = _write_depot(tmp_path / "depot", _depot(), quoted=False)
    want = reference_ingest(path)
    with monkeypatch.context() as patch:
        for module, name in (
            (trajq.dataset, "_all_ints"),
            (trajq.dataset, "_int_column"),
            (np, "argsort"),
        ):
            patch.setattr(module, name, _key_work)
        loaded = load_trajectories(path)
        dataset = ingest_csv(path)
        files = _depot()  # the key checks run once a sibling's keys differ
        del files[".pprops.csv"][7]
        with pytest.raises(_KeyWorkDone):
            ingest_csv(_write_depot(tmp_path / "fewer", files, quoted=False))
    assert dataset == want and _typed(dataset) == _typed(want)
    assert loaded == want.trajectories


def test_a_canonical_depot_makes_its_key_arrays_only_for_a_build(tmp_path, monkeypatch):
    path = _write_depot(tmp_path / "depot", _depot(), quoted=False)
    want = reference_ingest(path)
    with monkeypatch.context() as patch:
        patch.setattr(trajq.dataset, "_run_keys", _key_work)
        loaded = load_trajectories(path)
        with pytest.raises(_KeyWorkDone):  # a build reads the codes, orders and sort
            ingest_csv(path)
    assert loaded == want.trajectories
    dataset = ingest_csv(path)
    assert dataset == want and _typed(dataset) == _typed(want)


# --- what only the check-only path and the CLI add ----------------------


@pytest.mark.parametrize(
    "files,line,column",
    [
        ({".csv": f"tid,order,x,y,tau\nT0,{LONG},1,2,1\n"}, 2, 2),
        ({".csv": POINTS, ".props.csv": f"tid,n\nB,1\nA,{LONG}\n"}, 3, 2),
        ({".csv": POINTS, ".pprops.csv": f"tid,order,s,n\nA,2,x,+{LONG}\n"}, 2, 4),
    ],
    ids=["order", "trajectory property", "point property"],
)
def test_an_integer_with_too_many_digits_is_a_positioned_parse_error(
    files, line, column, tmp_path
):
    path = _write_files(tmp_path, files)
    want = (
        CsvParseError,
        f"line {line}, field {column}: integer of 5000 digits, "
        f"more than the {sys.get_int_max_str_digits()} allowed",
        line,
        column,
    )
    assert _outcome(ingest_csv, path) == want
    assert _loaded(path) == want
    assert _outcome(reference_ingest, path) == want
    for command in _commands(str(path)):
        assert _cli(command) == (1, "", f"error: {want[1]}\n"), command[0]


def test_a_long_integer_is_found_wherever_its_line_starts():
    # The check reads the cells only if one of the stretches it probes for a
    # line break has none; a cell one digit too long must be found at every
    # offset of its line against those stretches.
    limit = sys.get_int_max_str_digits()
    cell = "1" * (limit + 1)
    for offset in range(limit // 2 + 2):
        text = "tid,n\n" + "x" * offset + "\n" + cell + "\nA,1\n"
        assert _has_long_int(text, [["2", cell, "1"]]), offset
        assert not _has_long_int(text, [["2", cell[1:], "1"]]), offset


def _commands(data: str) -> list[list[str]]:
    """Every CLI command that loads a data file, validate first."""
    return [
        ["validate", data],
        ["query", data, "--predicate", "EXISTS p IN T: p INSIDE R", "--region", "R=0,0,1,1"],
        ["classify", "de9im", data, "--region", "R=0,0,1,1"],
        ["classify", "allen", data, "--interval", "I=0,10"],
        ["exec-nf2", data, "--relation", "precedes", "--interval", "I=0,10"],
    ]


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(dataset_files())
def test_every_loading_command_rejects_what_validate_rejects(files):
    with tempfile.TemporaryDirectory() as tmp:
        validate, *others = map(_cli, _commands(str(_write_files(Path(tmp), files))))
    assert validate[0] in (0, 1)
    for code, out, err in others:
        if validate[0]:
            assert (code, out, err) == validate
        else:  # accepted data may still fail a command: allen needs two points
            assert code == 0 or err.startswith("error: span")


def _csv_columns(text: str):
    """What ``_columns`` must return, from ``csv.reader`` rows transposed."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        return None, None
    header, body = rows[0], rows[1:]
    if any(len(row) != len(header) for row in body):
        return header, None
    return header, [[row[i] for row in body] for i in range(len(header))]


# Texts the one split reads: a header and rows one field short, one field
# long or as wide, ending with or without a line break.
plain_rows = st.lists(
    st.lists(st.text(st.sampled_from(["a", "1", " ", "é"]), max_size=3), min_size=1, max_size=4),
    min_size=1,
    max_size=6,
)


@settings(derandomize=True, max_examples=300)
@given(st.text(st.sampled_from(["a", "1", ",", "\n", "\r", '"', " ", "\0", "é"]), max_size=30))
def test_columns_read_as_csv_reads(text):
    assert _columns(text) == _csv_columns(text)


@settings(derandomize=True, max_examples=300)
@given(plain_rows, st.booleans())
def test_columns_of_plain_rows_read_as_csv_reads(rows, final_break):
    text = "\n".join(map(",".join, rows)) + "\n" * final_break
    assert _columns(text) == _csv_columns(text)


@pytest.mark.parametrize(
    "text, want",
    [
        ("", (None, None)),
        ("tid,order", (["tid", "order"], [[], []])),
        ("tid,order\n", (["tid", "order"], [[], []])),
        ("tid,order\na,1\nb,2", (["tid", "order"], [["a", "b"], ["1", "2"]])),
        ("tid,order\na,1\nb\n", (["tid", "order"], None)),  # one field short
        ("tid,order\na,1,x\nb,2\n", (["tid", "order"], None)),  # one field long
        ("tid,order\na\nb,2,3\n", (["tid", "order"], None)),  # short and long
        ("tid\na\nb,2\n", (["tid"], None)),
        ('tid,order\n"a,b",1\n', (["tid", "order"], [["a,b"], ["1"]])),  # the csv path
        ("tid,order\r\na,1\r\n", (["tid", "order"], [["a"], ["1"]])),
    ],
)
def test_columns_of_edge_texts(text, want):
    assert _columns(text) == want == _csv_columns(text)


def test_columns_position_a_field_over_the_size_limit():
    saved = csv.field_size_limit(8)
    try:
        for text, line, column in (
            ("tid,order\nabcdefghij,1\n", 2, 1),
            ("tid,order\nA,1\nB,123456789", 3, 2),  # the last row, with no line break
            ("tid,abcdefghij\nA,1\n", 1, 2),  # the header
            ('tid,order\nA,1\nB,"1\n2345678\n9"\n', 4, 2),  # where it overflows
        ):
            with pytest.raises(CsvParseError) as exc:
                _columns(text)
            assert (exc.value.line, exc.value.column) == (line, column)
            assert "field larger than field limit" in str(exc.value)
            assert csv.field_size_limit() == 8
        # a line over the limit whose cells are each within it is no fault
        assert _columns("tid,order\nabcdefgh,1\n") == (["tid", "order"], [["abcdefgh"], ["1"]])
        assert _columns("tid,order\nabcdefgh,12345678\n")[1] == [["abcdefgh"], ["12345678"]]
    finally:
        csv.field_size_limit(saved)
