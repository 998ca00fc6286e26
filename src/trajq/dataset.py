"""CSV ingestion and export for trajectory datasets.

A dataset lives in up to three sibling files sharing one stem:

* ``<stem>.csv`` with header ``tid,order,x,y,tau``, one row per recorded
  point, in any row order (rows are sorted by (tid, order) on load);
* ``<stem>.props.csv`` with header ``tid,<name>,...``, one optional row
  per trajectory carrying trajectory-level property values;
* ``<stem>.pprops.csv`` with header ``tid,order,<name>,...``, one optional
  row per point carrying point-level property values.

Property cells are typed by content: an integer literal, then a float,
then ``true``/``false``, then plain text. Empty cells mean the property is
absent for that row. An integer literal, property or order, with more
digits than ``int`` converts (``sys.get_int_max_str_digits()``) is a
``CsvParseError``; so is a cell longer than ``csv.field_size_limit()``, at
the line where csv meets it, before any other check of its file. Export
renders floats in shortest round-trip decimal form (integral coordinates
without a trailing ``.0``; a property float keeps it and reads back as a
float), quotes every cell holding a CR or LF, and uses LF line endings, so
exporting a freshly ingested file reproduces it byte for byte.

Ingest and export work a column at a time: each column is checked and
converted in one pass, and the rows are sorted by key once. Only when a
column check fails is the file read again row by row, in file order, to
raise the first fault with its line and field. The trajectories are built
in one batch from the sorted columns (``Trajectory.from_runs``).

Each property sibling is read in two steps: a check, which raises every
fault of the file, and a build, which types the cells and groups them per
trajectory and cannot fail. ``ingest_csv`` runs both; ``load_trajectories``,
for callers that read no properties, runs only the checks, so it rejects
exactly the files ``ingest_csv`` rejects, with the same errors.
"""

from __future__ import annotations

import csv
import io
import math
import re
import sys
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence, Union

import numpy as np

from ._fmt import format_float
from .errors import CsvParseError, DuplicateKeyError, InvariantViolationError, NonMonotoneTimeError
from .model import (
    PropertyRelation,
    PropertyValue,
    TrajectoriesRelation,
    Trajectory,
    build_trajectory,
)

POINTS_HEADER = ("tid", "order", "x", "y", "tau")
COORDINATE_NOTE = "planar x/y coordinates, scalar timestamps"

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_INTS_RE = re.compile(r"[+-]?[0-9]+(?:,[+-]?[0-9]+)*\Z")
# Line ends as csv counts them in a file opened with newline="".
_LINE_BREAK_RE = re.compile(rb"\r\n|\r|\n")


@dataclass(frozen=True)
class Dataset:
    """A trajectories relation, its properties, and where they came from.

    The metadata map (name, source path, coordinate note) is descriptive
    only and excluded from equality, so a round-tripped dataset compares
    equal to the original even though it was read from another path.
    """

    trajectories: TrajectoriesRelation
    properties: PropertyRelation
    metadata: Mapping[str, str] = field(compare=False)


def _too_many_digits(text: str, line: int, column: int) -> CsvParseError:
    digits = len(text.lstrip("+-"))
    limit = sys.get_int_max_str_digits()
    message = f"integer of {digits} digits, more than the {limit} allowed"
    return CsvParseError(line, column, message)


def _parse_int(text: str, line: int, column: int) -> int:
    if not _INT_RE.match(text):
        raise CsvParseError(line, column, f"expected an integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise _too_many_digits(text, line, column) from None


def _int_column(cells: Sequence[str]) -> np.ndarray | None:
    """Integer literals as an int64 array, or None if one does not fit."""
    try:
        return np.array(cells, dtype=np.int64)
    except (OverflowError, ValueError):  # ValueError: more digits than int() converts
        return None


def _long_int(cell: str) -> bool:
    """Whether a property cell is an integer literal ``int`` refuses for its
    number of digits (``sys.get_int_max_str_digits()``), so it has no type."""
    if not _INT_RE.match(cell):
        return False
    try:
        int(cell)
    except ValueError:
        return True
    return False


def _has_long_int(text: str, columns: Iterable[Sequence[str]]) -> bool:
    """Whether a property cell of the columns, read from text, cannot be
    typed; only a cell longer than the digit limit can be one."""
    limit = sys.get_int_max_str_digits() or math.inf
    return len(text) > limit and any(
        max(map(len, column)) > limit and any(map(_long_int, column)) for column in columns
    )


def _parse_float(text: str, line: int, column: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CsvParseError(line, column, f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise CsvParseError(line, column, f"non-finite value {text!r}")
    return value


def _parse_value(text: str) -> PropertyValue:
    if _INT_RE.match(text):
        return int(text)
    try:
        value = float(text)
    except ValueError:
        pass
    else:
        if math.isfinite(value):
            return value
    if text == "true":
        return True
    if text == "false":
        return False
    return text


def _read_text(path: Path) -> str:
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        breaks = [m.end() for m in _LINE_BREAK_RE.finditer(raw, 0, exc.start)]
        line_start = breaks[-1] if breaks else 0
        fields = _row_without_limit([raw[line_start : exc.start].decode("utf-8")])
        raise CsvParseError(
            len(breaks) + 1,
            max(len(fields), 1),
            f"{path.name}: byte 0x{raw[exc.start]:02x} is not valid UTF-8",
        ) from None


def _numbered_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """The rows of a CSV text as ``csv.reader`` reads them, each with the
    line it ends on.

    Raises:
        CsvParseError: a cell longer than ``csv.field_size_limit()``.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    done = 0  # the lines of the rows read so far
    try:
        for row in reader:
            yield reader.line_num, row
            done = reader.line_num
    except csv.Error as exc:
        limit = csv.field_size_limit()
        row = _row_without_limit(io.StringIO(text, newline="").readlines()[done:])
        column = next((i for i, cell in enumerate(row, 1) if len(cell) > limit), 1)
        raise CsvParseError(reader.line_num, column, str(exc)) from None


def _row_without_limit(lines: list[str]) -> list[str]:
    """The first row csv reads from lines, however long its cells."""
    limit = csv.field_size_limit(sys.maxsize)
    try:
        return next(csv.reader(lines))
    finally:
        csv.field_size_limit(limit)


def _records(text: str) -> list[list[str]]:
    """The rows of a CSV text as ``csv.reader`` reads them. A text with no
    quote, CR, NUL or empty line and no line over the field size limit has
    no cell csv would treat specially: it is split at LFs and commas.

    Raises:
        CsvParseError: a cell longer than ``csv.field_size_limit()``.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    limit = csv.field_size_limit()
    if (
        '"' in text
        or "\r" in text
        or "\0" in text
        or "\n\n" in text
        or text.startswith("\n")
        or (len(text) > limit and max(map(len, lines)) > limit)
    ):
        return [row for _, row in _numbered_rows(text)]
    return list(map(str.split, lines, repeat(",")))


def _numbered_body(text: str) -> Iterator[tuple[int, list[str]]]:
    """The data rows after the header, each with the line it ends on."""
    rows = _numbered_rows(text)
    next(rows)
    return rows


def _check_header(rows: list[list[str]], required: tuple[str, ...], path: Path) -> list[str]:
    """Verify the fixed leading columns; returns the full header row."""
    if not rows:
        raise CsvParseError(1, 1, f"{path.name}: empty file, expected a header")
    header = rows[0]
    if tuple(header[: len(required)]) != required:
        raise CsvParseError(
            1, 1, f"{path.name}: expected header starting {','.join(required)}"
        )
    names = header[len(required) :]
    if len(set(names)) != len(names):
        raise CsvParseError(1, 1, f"{path.name}: duplicate property column")
    return header


def _all_ints(cells: Sequence[str]) -> bool:
    """Whether every cell matches ``_INT_RE``, by one match over the cells
    joined with commas. A cell holding a comma (it was quoted) would add a
    piece to the joined text, so the number of commas must be exact too."""
    joined = ",".join(cells)
    return joined.count(",") == len(cells) - 1 and _INTS_RE.match(joined) is not None


def _ingest_points(path: Path) -> TrajectoriesRelation:
    text = _read_text(path)
    rows = _records(text)
    _check_header(rows, POINTS_HEADER, path)
    if len(rows[0]) != 5:
        raise CsvParseError(1, 6, f"{path.name}: unexpected extra columns")
    body = rows[1:]
    n = len(body)
    if not n:
        return TrajectoriesRelation(())
    if set(map(len, body)) != {5}:
        _raise_points_fault(text)
    tids, orders, *coords = zip(*body)
    if "" in tids or not _all_ints(orders):
        _raise_points_fault(text)
    try:
        values = np.fromiter(map(float, chain.from_iterable(coords)), np.float64, 3 * n)
    except ValueError:
        _raise_points_fault(text)
    order_col = _int_column(orders)
    if (
        order_col is None
        or not np.isfinite(values).all()
        or order_col.min() < 0
        or order_col.max() >= n
    ):
        _raise_points_fault(text)

    names = sorted(set(tids))
    code = {tid: i for i, tid in enumerate(names)}
    codes = np.fromiter(map(code.__getitem__, tids), np.int64, n)
    perm = np.argsort(codes * n + order_col, kind="stable")
    counts = np.bincount(codes, minlength=len(names))
    starts = np.cumsum(counts) - counts
    # Sorted, each trajectory's orders must read 0, 1, ..., count - 1, so
    # none repeats and none is missing.
    contiguous = np.array_equal(order_col[perm], np.arange(n) - np.repeat(starts, counts))
    if not contiguous:
        _raise_points_fault(text)
    try:  # the model checks that time increases
        built = Trajectory.from_runs(*values.reshape(3, n)[:, perm], starts)
    except NonMonotoneTimeError:
        _raise_points_fault(text)
    return TrajectoriesRelation(tuple(zip(names, built)))


def _raise_points_fault(text: str) -> NoReturn:
    """Raise the first fault of a points file as a row-by-row read meets it:
    a bad row or a repeated key in file order, then, per trajectory in tid
    order, a gap in the orders or time that does not increase."""
    per_tid: dict[str, dict[int, tuple[float, float, float]]] = {}
    for line, row in _numbered_body(text):
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
    for tid in sorted(per_tid):
        samples = per_tid[tid]
        orders = sorted(samples)
        if orders != list(range(len(orders))):
            raise InvariantViolationError(tid, f"orders {orders} are not contiguous from 0")
        try:
            build_trajectory(samples[o] for o in orders)
        except NonMonotoneTimeError as exc:
            raise InvariantViolationError(tid, f"non-monotone time: {exc}") from None
    raise AssertionError("the column checks found a fault the row-by-row read did not")


def _unknown_tid(tid: str, path: Path) -> InvariantViolationError:
    return InvariantViolationError(tid, f"{path.name} references an unknown trajectory id")


def _check_cells(row: Sequence[str], first: int, line: int) -> None:
    """Raise for the first property cell of a row that cannot be typed."""
    for column, cell in enumerate(row[first - 1 :], first):
        if _long_int(cell):
            raise _too_many_digits(cell, line, column)


class _Cells(NamedTuple):
    """A checked property file whose cells are not yet typed: the property
    names, the tid of each row and a column of cells per name; for point
    properties also the code of each row's tid (its index among the
    trajectories), each row's order and the rows sorted by (tid, order)."""

    names: list[str]
    tids: tuple[str, ...]
    columns: list[tuple[str, ...]]
    codes: np.ndarray | None = None
    orders: np.ndarray | None = None
    perm: np.ndarray | None = None


def _check_props(path: Path, sizes: Mapping[str, int]) -> _Cells | None:
    """Check a trajectory property file against the trajectories' tids."""
    text = _read_text(path)
    rows = _records(text)
    header = _check_header(rows, ("tid",), path)
    body = rows[1:]
    if not body:
        return None
    if set(map(len, body)) != {len(header)}:
        _raise_props_fault(text, path, header, sizes)
    tids, *columns = zip(*body)
    if (
        not sizes.keys() >= set(tids)
        or len(set(tids)) != len(tids)
        or _has_long_int(text, columns)
    ):
        _raise_props_fault(text, path, header, sizes)
    return _Cells(header[1:], tids, columns)


def _raise_props_fault(text: str, path: Path, header: list[str], known) -> NoReturn:
    seen: set[str] = set()
    for line, row in _numbered_body(text):
        if len(row) != len(header):
            raise CsvParseError(line, 1, f"expected {len(header)} fields, got {len(row)}")
        tid = row[0]
        if tid not in known:
            raise _unknown_tid(tid, path)
        if tid in seen:
            raise DuplicateKeyError(tid, None)
        seen.add(tid)
        _check_cells(row, 2, line)
    raise AssertionError("the column checks found a fault the row-by-row read did not")


def _check_pprops(path: Path, sizes: Mapping[str, int]) -> _Cells | None:
    """Check a point property file against the trajectories' tids and sizes."""
    text = _read_text(path)
    rows = _records(text)
    header = _check_header(rows, ("tid", "order"), path)
    body = rows[1:]
    if not body:
        return None
    if set(map(len, body)) != {len(header)}:
        _raise_pprops_fault(text, path, header, sizes)
    tids, orders, *columns = zip(*body)
    known = sizes.keys() >= set(tids) and _all_ints(orders)
    order_col = _int_column(orders) if known else None
    longest = max(sizes.values(), default=0)
    if order_col is None or order_col.min() < 0 or order_col.max() >= longest:
        _raise_pprops_fault(text, path, header, sizes)
    code = {tid: i for i, tid in enumerate(sizes)}
    codes = np.fromiter(map(code.__getitem__, tids), np.int64, len(tids))
    keys = codes * longest + order_col
    perm = np.argsort(keys, kind="stable")
    sorted_keys = keys[perm]
    if (
        (sorted_keys[1:] == sorted_keys[:-1]).any()
        or not (order_col < np.array(list(sizes.values()))[codes]).all()
        or _has_long_int(text, columns)
    ):
        _raise_pprops_fault(text, path, header, sizes)
    return _Cells(header[2:], tids, columns, codes, order_col, perm)


def _raise_pprops_fault(text: str, path: Path, header: list[str], sizes) -> NoReturn:
    seen: set[tuple[str, int]] = set()
    for line, row in _numbered_body(text):
        if len(row) != len(header):
            raise CsvParseError(line, 1, f"expected {len(header)} fields, got {len(row)}")
        tid = row[0]
        if tid not in sizes:
            raise _unknown_tid(tid, path)
        order = _parse_int(row[1], line, 2)
        if not 0 <= order < sizes[tid]:
            raise InvariantViolationError(
                tid, f"point property at order {order} has no matching point"
            )
        if (tid, order) in seen:
            raise DuplicateKeyError(tid, order)
        seen.add((tid, order))
        _check_cells(row, 3, line)
    raise AssertionError("the column checks found a fault the row-by-row read did not")


def _parsed_cells(column: Sequence[str]) -> dict[str, PropertyValue]:
    """Each distinct non-empty cell of a property column, typed once."""
    return {cell: _parse_value(cell) for cell in set(column) if cell}


def _build_props(
    cells: _Cells | None, tids: Iterable[str]
) -> dict[str, dict[str, PropertyValue]]:
    """The values of a checked trajectory property file, per tid and name."""
    out: dict[str, dict[str, PropertyValue]] = {tid: {} for tid in tids}
    for name, column in zip(cells.names, cells.columns) if cells else ():
        parsed = _parsed_cells(column)
        for tid, cell in zip(cells.tids, column):
            if cell:
                out[tid][name] = parsed[cell]
    return out


def _build_pprops(
    cells: _Cells | None, tids: Iterable[str]
) -> dict[str, dict[str, tuple[tuple[int, PropertyValue], ...]]]:
    """The (order, value) pairs of a checked point property file, sorted by
    order, per tid and name."""
    out: dict[str, dict[str, tuple[tuple[int, PropertyValue], ...]]] = {tid: {} for tid in tids}
    if not cells:
        return out
    perm = cells.perm
    starts = np.flatnonzero(np.r_[True, np.diff(cells.codes[perm]) != 0])
    bounds = list(zip(starts.tolist(), [*starts[1:].tolist(), perm.size]))
    sorted_orders = cells.orders[perm].tolist()
    perm = perm.tolist()
    for name, column in zip(cells.names, cells.columns):
        parsed = _parsed_cells(column)
        column = list(map(column.__getitem__, perm))
        for s, e in bounds:  # an empty cell is an absent value: compress drops it
            values = zip(sorted_orders[s:e], map(parsed.get, column[s:e]))
            pairs = tuple(compress(values, column[s:e]))
            if pairs:
                out[cells.tids[perm[s]]][name] = pairs
    return out


def _props_path(path: Path) -> Path:
    return path.with_name(path.stem + ".props.csv")


def _pprops_path(path: Path) -> Path:
    return path.with_name(path.stem + ".pprops.csv")


def _check_siblings(
    path: Path, trajectories: TrajectoriesRelation
) -> tuple[_Cells | None, _Cells | None]:
    """Check the property files beside a points file, if they exist."""
    sizes = {tid: len(t) for tid, t in trajectories}
    props, pprops = _props_path(path), _pprops_path(path)
    return (
        _check_props(props, sizes) if props.exists() else None,
        _check_pprops(pprops, sizes) if pprops.exists() else None,
    )


def load_trajectories(path: Union[str, Path]) -> TrajectoriesRelation:
    """The trajectories of a dataset, for callers that read no properties.

    The points file and its property siblings are checked as ``ingest_csv``
    checks them, with the same errors, but property values are not built.

    Raises:
        as ``ingest_csv``.
    """
    path = Path(path)
    trajectories = _ingest_points(path)
    _check_siblings(path, trajectories)
    return trajectories


def ingest_csv(path: Union[str, Path]) -> Dataset:
    """Load a dataset from a points CSV and its optional property siblings.

    Raises:
        CsvParseError: malformed header or cell, a cell longer than
            ``csv.field_size_limit()``, or an integer with more digits than
            ``int`` converts (``sys.get_int_max_str_digits()``).
        DuplicateKeyError: repeated (tid, order) point or repeated row key.
        InvariantViolationError: orders not contiguous, time not strictly
            increasing, or a property row referencing an unknown id.
    """
    path = Path(path)
    trajectories = _ingest_points(path)
    props, pprops = _check_siblings(path, trajectories)
    tids = trajectories.tids()
    return Dataset(
        trajectories,
        PropertyRelation(_build_props(props, tids), _build_pprops(pprops, tids)),
        {
            "name": path.stem,
            "source": str(path),
            "coordinate_note": COORDINATE_NOTE,
        },
    )


def _format_value(value: PropertyValue) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _write_rows(path: Path, header: list[str], rows: Iterable[Sequence[str]]) -> None:
    # csv (3.11) quotes a cell holding a bare CR only if the line terminator
    # holds one: write the rows with CRLF ends, then end each with LF.
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(line[:-2] + "\n" for line in lines)


def export_csv(d: Dataset, path: Union[str, Path]) -> None:
    """Write a dataset back to CSV form.

    The points file is always written; a property sibling is written when
    the dataset carries values of that grain and deleted otherwise, so a
    sibling left by an earlier export is not read back with these points.
    Rows are sorted by (tid, order) and property columns by name, so
    exporting a freshly ingested file reproduces it byte for byte.
    """
    path = Path(path)
    rel = d.trajectories
    columns = [
        map(format_float, np.concatenate(c).tolist())
        for c in zip(*((t.xs, t.ys, t.taus) for _, t in rel))
    ]
    tids = chain.from_iterable(repeat(tid, len(t)) for tid, t in rel)
    orders = chain.from_iterable(map(str, range(len(t))) for _, t in rel)
    _write_rows(path, list(POINTS_HEADER), zip(tids, orders, *columns))

    tprops = d.properties.trajectory_props
    tnames = sorted({name for per in tprops.values() for name in per})
    if tnames:
        rows = [
            [tid] + [_format_value(per[n]) if n in per else "" for n in tnames]
            for tid, per in sorted(tprops.items())
            if per
        ]
        _write_rows(_props_path(path), ["tid"] + tnames, rows)
    else:
        _props_path(path).unlink(missing_ok=True)

    pprops = d.properties.point_props
    pnames = sorted({name for per in pprops.values() for name in per})
    if pnames:
        rows = []
        for tid, per in sorted(pprops.items()):
            # One row per order carrying a value, one column per name.
            orders = sorted({order for pairs in per.values() for order, _ in pairs})
            row_of = {order: i for i, order in enumerate(orders)}
            cells = [[""] * len(orders) for _ in pnames]
            for name, column in zip(pnames, cells):
                for order, value in per.get(name, ()):
                    column[row_of[order]] = _format_value(value)
            rows.extend(zip(repeat(tid), map(str, orders), *cells))
        _write_rows(_pprops_path(path), ["tid", "order"] + pnames, rows)
    else:
        _pprops_path(path).unlink(missing_ok=True)
