"""CSV ingestion and export for trajectory datasets.

A dataset lives in up to three sibling files sharing one stem:

* ``<stem>.csv`` with header ``tid,order,x,y,tau``, one row per recorded
  point, in any row order (see below for how rows are put in (tid, order)
  order on load);
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
float), quotes a cell holding a comma, quote, CR or LF as csv does, and
uses LF line endings, so exporting a freshly ingested file reproduces it
byte for byte.

Ingest and export work a column at a time. Export writes a coordinate
column by ``repr``, except the integral values one numpy test finds, which
``format_float`` writes as integers; it formats a property column in one
pass by the column's types (each distinct str or bool once) and places
its cells in the rows by (tid, order) key; it then joins the rows with
commas and LFs (``_write_table``). Only a file with a cell that needs
quoting is written by ``csv.writer``. Ingest splits a file into columns once
(``_columns``) and checks and converts each column in one pass.
A points file in the layout ``export_csv`` writes, rows grouped by tid in
ascending tid order and each tid's orders written ``0``, ``1``, ... in
order, is recognised by one comparison of its tid and order cells with the
cells that layout implies; its orders need no parse and its rows no sort.
Any other points file has its orders parsed and its rows sorted by key
once. Only when a check fails, a row's width included, is the file read
again row by row, in file order, to raise the first fault with its line and
field. The trajectories are built in one batch from the columns in (tid,
order) order (``Trajectory.from_runs``).

Both property siblings are read and written by one keyed reader and one
writer, parameterised by the key columns: ``tid,order`` for point
properties, ``tid`` alone for trajectory properties, whose rows are read
as order 0 of a trajectory with one order. A sibling is read in two steps:
a check, which raises every fault of the file, and a build, which types
the cells and groups them per trajectory as (order, value) pairs and
cannot fail; a trajectory property's value is its one pair's value. The
points file's keys are checked once: a sibling whose key cells repeat them
row for row (for trajectory properties, the trajectories' tids in tid
order) needs no key check of its own and shares the points' tid codes,
orders and sort; its width and its value cells are still checked. Codes,
orders and sort are arrays only a build reads, so a file that needed no
sort (the canonical layout, or such a sibling) has them made on first use.
``ingest_csv`` runs both; ``load_trajectories``, for callers that read no
properties, runs only the checks, so it rejects exactly the files
``ingest_csv`` rejects, with the same errors.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, compress, islice, repeat
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence, Union

import numpy as np

from ._fmt import format_float
from .errors import (
    CsvParseError,
    DuplicateKeyError,
    InvariantViolationError,
    NonMonotoneTimeError,
    PredicateTypeError,
)
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
    typed. Such a cell holds more than ``limit`` characters and no LF, so it
    covers one of the stretches ``text[i : i + half]``, i a multiple of
    ``half = limit // 2 + 1``: the cells are read only if one has no LF."""
    limit = sys.get_int_max_str_digits()
    if not limit:  # no limit: int converts every literal
        return False
    half = limit // 2 + 1
    stretches = range(0, len(text) - half + 1, half)
    if all(text.find("\n", i, i + half) >= 0 for i in stretches):
        return False
    return any(
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


def _columns(text: str) -> tuple[list[str] | None, list[list[str]] | None]:
    """The header of a CSV text, None if it has no row, and its body as one
    list per header field, None if a row is not as wide as the header, as
    ``csv.reader`` reads them. A text with no quote, CR, NUL or empty line
    is split once at commas, each line break made a cell of its own: the
    rows have the header's width exactly when there are width + 1 cells per
    line break and every (width + 1)-th cell is one, and each column is a
    stride slice. Other texts, and one with a cell over the field size
    limit, are read by csv and transposed.

    Raises:
        CsvParseError: a cell longer than ``csv.field_size_limit()``.
    """
    if text and not (
        '"' in text or "\r" in text or "\0" in text or "\n\n" in text or text.startswith("\n")
    ):
        first, _, body = text.partition("\n")
        header = first.split(",")
        if body and not body.endswith("\n"):
            body += "\n"  # the last row may end without a line break
        cells = body.replace("\n", ",\n,").split(",")
        cells.pop()  # the empty cell after the last line break
        limit = csv.field_size_limit()
        if len(text) <= limit or max(map(len, chain(header, cells))) <= limit:
            stride = len(header) + 1
            lines = body.count("\n")
            if len(cells) != stride * lines or cells[stride - 1 :: stride].count("\n") != lines:
                return header, None
            return header, [cells[i::stride] for i in range(stride - 1)]
    rows = [row for _, row in _numbered_rows(text)]
    if not rows:
        return None, None
    header, data = rows[0], rows[1:]
    if any(len(row) != len(header) for row in data):
        return header, None
    return header, [[row[i] for row in data] for i in range(len(header))]


def _check_header(header: list[str] | None, required: tuple[str, ...], path: Path) -> list[str]:
    """Verify the fixed leading columns; returns the full header row."""
    if header is None:
        raise CsvParseError(1, 1, f"{path.name}: empty file, expected a header")
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


# Each row's tid code (the index of its tid among the trajectories in tid
# order) and order, and the rows sorted by (tid, order), as a function
# that makes or returns them: only a property build reads them.
_SortedKeys = Callable[[], tuple[np.ndarray, np.ndarray, np.ndarray]]


class _Keys(NamedTuple):
    """The keys of a checked points file: the tid and order cell of each row,
    each trajectory's size in tid order, and its sorted keys."""

    tids: list[str]
    orders: list[str]
    sizes: dict[str, int]
    sort: _SortedKeys


def _run_keys(starts: Sequence[int], counts: list[int]) -> tuple[np.ndarray, ...]:
    """The sorted keys of rows already in (tid, order) order: code i's run
    starts at row ``starts[i]`` and holds orders 0 to ``counts[i] - 1``."""
    rows = np.arange(sum(counts))
    return np.repeat(np.arange(len(counts)), counts), rows - np.repeat(starts, counts), rows


def _sort_of(sorted_keys: tuple[np.ndarray, ...] | None) -> _SortedKeys | None:
    """Sorted keys already made, as a ``_SortedKeys``; None for None."""
    return None if sorted_keys is None else lambda: sorted_keys


_NO_KEYS = _Keys([], [], {}, _sort_of((np.zeros(0, np.int64),) * 3))


def _canonical_runs(tids: list[str], orders: list[str]) -> tuple[list[int], list[int]] | None:
    """Where each trajectory's rows start and how many there are, if the key
    cells are laid out as ``export_csv`` writes them: rows grouped by tid in
    ascending tid order, and each tid's orders written ``0``, ``1``, ... in
    order. None otherwise."""
    if tids != sorted(tids):
        return None
    starts: list[int] = []
    i = 0
    while i < len(tids):  # one step per trajectory
        starts.append(i)
        i = bisect_right(tids, tids[i], i)
    sizes = list(map(operator.sub, [*starts[1:], len(tids)], starts))
    digits = list(map(str, range(max(sizes))))
    if orders != list(chain.from_iterable(map(digits.__getitem__, map(slice, sizes)))):
        return None
    return starts, sizes


def _ingest_points(path: Path) -> tuple[TrajectoriesRelation, _Keys]:
    text = _read_text(path)
    header, columns = _columns(text)
    if len(_check_header(header, POINTS_HEADER, path)) != 5:
        raise CsvParseError(1, 6, f"{path.name}: unexpected extra columns")
    if columns is None:
        _raise_points_fault(text)
    tids, orders, *coords = columns
    n = len(tids)
    if not n:
        return TrajectoriesRelation(()), _NO_KEYS
    if "" in tids:
        _raise_points_fault(text)
    try:
        values = np.fromiter(map(float, chain.from_iterable(coords)), np.float64, 3 * n)
    except ValueError:
        _raise_points_fault(text)
    if not np.isfinite(values).all():
        _raise_points_fault(text)
    values = values.reshape(3, n)

    runs = _canonical_runs(tids, orders)
    if runs is not None:  # the layout export_csv writes: nothing to sort
        starts, counts = runs
        names = [tids[i] for i in starts]
        sort = partial(_run_keys, starts, counts)
    else:
        order_col = _int_column(orders) if _all_ints(orders) else None
        if order_col is None or order_col.min() < 0 or order_col.max() >= n:
            _raise_points_fault(text)
        names = sorted(set(tids))
        code = {tid: i for i, tid in enumerate(names)}
        codes = np.fromiter(map(code.__getitem__, tids), np.int64, n)
        perm = np.argsort(codes * n + order_col, kind="stable")
        counts = np.bincount(codes, minlength=len(names)).tolist()
        starts = np.cumsum(counts) - counts
        # Sorted, each trajectory's orders must read 0, 1, ..., count - 1, so
        # none repeats and none is missing.
        contiguous = np.array_equal(order_col[perm], np.arange(n) - np.repeat(starts, counts))
        if not contiguous:
            _raise_points_fault(text)
        values = values[:, perm]
        sort = _sort_of((codes, order_col, perm))
    try:  # the model checks that time increases
        built = Trajectory.from_runs(*values, starts)
    except NonMonotoneTimeError:
        _raise_points_fault(text)
    sizes = dict(zip(names, counts))
    keys = _Keys(tids, orders, sizes, sort)
    return TrajectoriesRelation(tuple(zip(names, built))), keys


def _raise_points_fault(text: str) -> NoReturn:
    """Raise the first fault of a points file as a row-by-row read meets it:
    a bad row or a repeated key in file order, then, per trajectory in tid
    order, a gap in the orders or time that does not increase."""
    per_tid: dict[str, dict[int, tuple[float, float, float]]] = {}
    for line, row in islice(_numbered_rows(text), 1, None):
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


# Each property sibling by file suffix and key columns. A trajectory
# property is read and written as the point property at order 0 of a
# trajectory with one order.
_SIBLINGS = ((".props.csv", ("tid",)), (".pprops.csv", ("tid", "order")))


class _Cells(NamedTuple):
    """A checked property file whose cells are not yet typed: the property
    names, the tid of each row, a column of cells per name and its sorted
    keys."""

    names: list[str]
    tids: list[str]
    columns: list[list[str]]
    sort: _SortedKeys


def _sorted_keys(
    tids: list[str], orders: list[str], sizes: Mapping[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The code and order of each row of a property file and its rows sorted
    by (tid, order), or None if a tid is unknown, an order is no integer or
    out of its trajectory's range, or a key repeats."""
    known = sizes.keys() >= set(tids) and _all_ints(orders)
    order_col = _int_column(orders) if known else None
    if order_col is None:
        return None
    code = {tid: i for i, tid in enumerate(sizes)}
    codes = np.fromiter(map(code.__getitem__, tids), np.int64, len(tids))
    if not ((order_col >= 0) & (order_col < np.array(list(sizes.values()))[codes])).all():
        return None
    key_col = codes * max(sizes.values()) + order_col
    perm = np.argsort(key_col, kind="stable")
    sorted_keys = key_col[perm]
    if (sorted_keys[1:] == sorted_keys[:-1]).any():
        return None
    return codes, order_col, perm


def _check_keyed(path: Path, keys: tuple[str, ...], points: _Keys) -> _Cells | None:
    """Check a property file keyed by ``keys`` against the points file's
    keys; a file keyed by tid alone holds order 0 of each trajectory. A file
    whose keys are the points file's, row for row (the trajectories' tids in
    order, if keyed by tid alone), needs no key check and shares the points'
    codes, orders and sort. None for a file that is absent or has no row."""
    try:
        text = _read_text(path)
    except FileNotFoundError:  # the file is optional
        return None
    header, body = _columns(text)
    header = _check_header(header, keys, path)
    sizes = points.sizes if len(keys) > 1 else dict.fromkeys(points.sizes, 1)
    if body is None:
        _raise_keyed_fault(text, path, header, keys, sizes)
    tids, *columns = body
    if not tids:
        return None
    if len(keys) > 1:
        orders = columns.pop(0)
        same = tids == points.tids and orders == points.orders
        sort = points.sort if same else _sort_of(_sorted_keys(tids, orders, sizes))
    elif tids == list(sizes):
        sort = partial(_run_keys, range(len(tids)), [1] * len(tids))
    else:
        sort = _sort_of(_sorted_keys(tids, ["0"] * len(tids), sizes))
    if sort is None or _has_long_int(text, columns):
        _raise_keyed_fault(text, path, header, keys, sizes)
    return _Cells(header[len(keys) :], tids, columns, sort)


def _raise_keyed_fault(
    text: str, path: Path, header: list[str], keys: tuple[str, ...], sizes: Mapping[str, int]
) -> NoReturn:
    """Raise the first fault of a property file in file order: per row, its
    field count, an unknown tid, a bad or out-of-range order, a repeated key
    (``DuplicateKeyError(tid, None)`` for a file keyed by tid alone), then
    the first cell that cannot be typed."""
    seen: set[tuple[str, int]] = set()
    for line, row in islice(_numbered_rows(text), 1, None):
        if len(row) != len(header):
            raise CsvParseError(line, 1, f"expected {len(header)} fields, got {len(row)}")
        tid = row[0]
        if tid not in sizes:
            raise InvariantViolationError(tid, f"{path.name} references an unknown trajectory id")
        order = _parse_int(row[1], line, 2) if len(keys) > 1 else 0
        if not 0 <= order < sizes[tid]:
            raise InvariantViolationError(
                tid, f"point property at order {order} has no matching point"
            )
        if (tid, order) in seen:
            raise DuplicateKeyError(tid, order if len(keys) > 1 else None)
        seen.add((tid, order))
        for column, cell in enumerate(row[len(keys) :], len(keys) + 1):
            if _long_int(cell):
                raise _too_many_digits(cell, line, column)
    raise AssertionError("the column checks found a fault the row-by-row read did not")


def _build_keyed(
    cells: _Cells | None, tids: Iterable[str]
) -> dict[str, dict[str, tuple[tuple[int, PropertyValue], ...]]]:
    """The (order, value) pairs of a checked property file, sorted by order,
    per tid and name."""
    out: dict[str, dict[str, tuple[tuple[int, PropertyValue], ...]]] = {tid: {} for tid in tids}
    if not cells:
        return out
    codes, orders, sort = cells.sort()
    perm = sort.tolist()
    sorted_orders = orders[sort].tolist()
    # The last row of each tid in (tid, order) order.
    last = [*np.flatnonzero(np.diff(codes[sort])).tolist(), len(perm) - 1]
    last_tids = [cells.tids[perm[i]] for i in last]
    for name, column in zip(cells.names, cells.columns):
        parsed = {cell: _parse_value(cell) for cell in set(column) if cell}  # typed once
        column = list(map(column.__getitem__, perm))
        # The pairs of the non-empty cells, in (tid, order) order; the pairs
        # of a tid end at the count of non-empty cells up to its last row.
        pairs = list(compress(zip(sorted_orders, map(parsed.get, column)), column))
        ends = list(map(list(accumulate(map(bool, column))).__getitem__, last))
        for tid, start, end in zip(last_tids, [0, *ends], ends):
            if start < end:
                out[tid][name] = tuple(pairs[start:end])
    return out


def _siblings(path: Path) -> list[tuple[Path, tuple[str, ...]]]:
    """The property files beside a points file, each with its key columns."""
    return [(path.with_name(path.stem + suffix), keys) for suffix, keys in _SIBLINGS]


def _check_siblings(path: Path, points: _Keys) -> list[_Cells | None]:
    """Check the property files beside a points file, if they exist."""
    return [_check_keyed(sibling, keys, points) for sibling, keys in _siblings(path)]


def _require_path(path: Union[str, Path]) -> Path:
    try:
        return Path(path)
    except TypeError:
        raise PredicateTypeError(
            f"a data file is named by a str or path, got {type(path).__name__}"
        ) from None


def load_trajectories(path: Union[str, Path]) -> TrajectoriesRelation:
    """The trajectories of a dataset, for callers that read no properties.

    The points file and its property siblings are checked as ``ingest_csv``
    checks them, with the same errors, but property values are not built.

    Raises:
        as ``ingest_csv``.
    """
    path = _require_path(path)
    trajectories, keys = _ingest_points(path)
    _check_siblings(path, keys)
    return trajectories


def ingest_csv(path: Union[str, Path]) -> Dataset:
    """Load a dataset from a points CSV and its optional property siblings.

    Raises:
        PredicateTypeError: path is no str or path.
        OSError: the points file, or a property file that exists, cannot be
            read (missing, a directory, no permission).
        CsvParseError: malformed header or cell, a cell longer than
            ``csv.field_size_limit()``, or an integer with more digits than
            ``int`` converts (``sys.get_int_max_str_digits()``).
        DuplicateKeyError: repeated (tid, order) point or repeated row key.
        InvariantViolationError: orders not contiguous, time not strictly
            increasing, or a property row referencing an unknown id.
    """
    path = _require_path(path)
    trajectories, keys = _ingest_points(path)
    tids = trajectories.tids()
    props, pprops = (_build_keyed(c, tids) for c in _check_siblings(path, keys))
    values = {tid: {n: pairs[0][1] for n, pairs in per.items()} for tid, per in props.items()}
    return Dataset(
        trajectories,
        PropertyRelation(values, pprops),
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


def _value_cells(values: list[PropertyValue]) -> list[str]:
    """``_format_value`` of each value of a property column, by the column's
    types: ints and floats alone print by ``repr`` (an int's repr is its
    str); strs and bools alone, where equal values print alike, by one
    formatting per distinct value; any other mix value by value."""
    kinds = set(map(type, values))
    if kinds <= {int, float}:
        return list(map(repr, values))
    if kinds <= {str, bool}:
        text = {value: _format_value(value) for value in set(values)}
        return list(map(text.__getitem__, values))
    return list(map(_format_value, values))


def _coordinate_cells(column: np.ndarray) -> list[str]:
    """``format_float`` of each value of a column of finite floats: ``repr``,
    but for the integral values ``format_float`` writes as integers, found
    by one test over the column."""
    values = column.tolist()
    cells = list(map(repr, values))
    for i in np.flatnonzero((column == np.trunc(column)) & (np.abs(column) < 2.0**53)).tolist():
        cells[i] = format_float(values[i])
    return cells


def _write_table(path: Path, header: list[str], columns: Sequence[Sequence[str]]) -> None:
    """Write a header and equally long columns of cells as a CSV file with LF
    line ends. The rows are joined with commas and LFs, unless a cell is no
    str or holds a comma, quote, CR or LF, as the joined text shows by a
    quote or CR, or more commas or LFs than its rows need: csv then writes
    the rows, quoting such cells."""
    rows = [header, *zip(*columns)]
    text: str | None
    try:
        text = "\n".join(map(",".join, rows)) + "\n"
    except TypeError:  # a cell that is no str, which csv writes as its str()
        text = None
    if (
        text is None
        or '"' in text
        or "\r" in text
        or text.count("\n") != len(rows)
        or text.count(",") != len(rows) * (len(header) - 1)
    ):
        # csv (3.11) quotes a cell holding a bare CR only if the line
        # terminator holds one: write the rows with CRLF ends, then end
        # each with LF.
        lines: list[str] = []
        csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(rows)
        text = "".join(line[:-2] + "\n" for line in lines)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def _write_keyed(
    path: Path,
    keys: tuple[str, ...],
    per_tid: Mapping[str, Mapping[str, Sequence[tuple[int, PropertyValue]]]],
) -> None:
    """Write (order, value) pairs per tid and name as a property file keyed by
    ``keys``, one row per key carrying a value and one column per name, or
    delete the file if there is no value to write. Each name's values are
    formatted as one column, and its cells placed in the rows by their
    (tid, order) key."""
    names = sorted({name for per in per_tid.values() for name in per})
    if not names:
        path.unlink(missing_ok=True)
        return
    tids = sorted(per_tid)
    placed = []  # per name, the (tid, order) key and the cell of each value
    for name in names:
        where: list[tuple[str, int]] = []
        values: list[PropertyValue] = []
        for tid in tids:
            pairs = per_tid[tid].get(name)
            if pairs:
                orders, column = zip(*pairs)
                where += zip(repeat(tid), orders)
                values += column
        placed.append((where, _value_cells(values)))
    rows = sorted(dict.fromkeys(chain.from_iterable(where for where, _ in placed)))
    row_of = dict(zip(rows, range(len(rows))))
    columns = [
        list(map(operator.itemgetter(0), rows)),
        list(map(str, map(operator.itemgetter(1), rows))),
    ][: len(keys)]
    for where, cells in placed:
        column = [""] * len(rows)
        for i, cell in zip(map(row_of.__getitem__, where), cells):
            column[i] = cell
        columns.append(column)
    _write_table(path, [*keys, *names], columns)


def export_csv(d: Dataset, path: Union[str, Path]) -> None:
    """Write a dataset back to CSV form.

    The points file is always written; a property sibling is written when
    the dataset carries values of that grain and deleted otherwise, so a
    sibling left by an earlier export is not read back with these points.
    Rows are sorted by (tid, order) and property columns by name, so
    exporting a freshly ingested file reproduces it byte for byte.

    Raises:
        PredicateTypeError: d is no Dataset, or path no str or path.
        OSError: a file cannot be written or a stale sibling deleted.
    """
    if not isinstance(d, Dataset):
        raise PredicateTypeError(f"a dataset is a Dataset, got {type(d).__name__}")
    path = _require_path(path)
    rel = d.trajectories
    sizes = [len(t) for _, t in rel]
    digits = list(map(str, range(max(sizes, default=0))))
    columns = [
        list(chain.from_iterable(map(repeat, rel.tids(), sizes))),
        list(chain.from_iterable(digits[:n] for n in sizes)),
        *(
            _coordinate_cells(np.concatenate(c))
            for c in zip(*((t.xs, t.ys, t.taus) for _, t in rel))
        ),
    ]
    _write_table(path, list(POINTS_HEADER), columns)

    pairs = {
        tid: {name: ((0, value),) for name, value in per.items()}
        for tid, per in d.properties.trajectory_props.items()
    }
    for (sibling, keys), per_tid in zip(_siblings(path), (pairs, d.properties.point_props)):
        _write_keyed(sibling, keys, per_tid)
