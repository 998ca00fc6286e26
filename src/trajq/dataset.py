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
absent for that row. Export renders floats in shortest round-trip decimal
form (integral floats without a trailing ``.0``) and uses LF line endings,
so exporting a freshly ingested file reproduces it byte for byte.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Union

from ._fmt import format_float
from .errors import CsvParseError, DuplicateKeyError, InvariantViolationError, NonMonotoneTimeError
from .model import PropertyRelation, PropertyValue, TrajectoriesRelation, build_trajectory

POINTS_HEADER = ("tid", "order", "x", "y", "tau")
COORDINATE_NOTE = "planar x/y coordinates, scalar timestamps"

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
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


def _parse_int(text: str, line: int, column: int) -> int:
    if not _INT_RE.match(text):
        raise CsvParseError(line, column, f"expected an integer, got {text!r}")
    return int(text)


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


def _read_rows(path: Path) -> list[tuple[int, list[str]]]:
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        breaks = [m.end() for m in _LINE_BREAK_RE.finditer(raw, 0, exc.start)]
        line_start = breaks[-1] if breaks else 0
        fields = next(csv.reader([raw[line_start : exc.start].decode("utf-8")]))
        raise CsvParseError(
            len(breaks) + 1,
            max(len(fields), 1),
            f"{path.name}: byte 0x{raw[exc.start]:02x} is not valid UTF-8",
        ) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    return [(reader.line_num, row) for row in reader]


def _check_header(
    rows: list[tuple[int, list[str]]], required: tuple[str, ...], path: Path
) -> list[str]:
    """Verify the fixed leading columns; returns the full header row."""
    if not rows:
        raise CsvParseError(1, 1, f"{path.name}: empty file, expected a header")
    header = rows[0][1]
    if tuple(header[: len(required)]) != required:
        raise CsvParseError(
            1, 1, f"{path.name}: expected header starting {','.join(required)}"
        )
    names = header[len(required) :]
    if len(set(names)) != len(names):
        raise CsvParseError(1, 1, f"{path.name}: duplicate property column")
    return header


def _ingest_points(path: Path) -> TrajectoriesRelation:
    rows = _read_rows(path)
    _check_header(rows, POINTS_HEADER, path)
    if len(rows[0][1]) != 5:
        raise CsvParseError(1, 6, f"{path.name}: unexpected extra columns")
    per_tid: dict[str, dict[int, tuple[float, float, float]]] = {}
    for line, row in rows[1:]:
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
            raise InvariantViolationError(
                tid, f"orders {orders} are not contiguous from 0"
            )
        try:
            t = build_trajectory(samples[o] for o in orders)
        except NonMonotoneTimeError as exc:
            raise InvariantViolationError(tid, f"non-monotone time: {exc}") from None
        pairs.append((tid, t))
    return TrajectoriesRelation.from_pairs(pairs)


def _ingest_props(
    path: Path, tids: tuple[str, ...]
) -> dict[str, dict[str, PropertyValue]]:
    rows = _read_rows(path)
    header = _check_header(rows, ("tid",), path)
    names = header[1:]
    out: dict[str, dict[str, PropertyValue]] = {tid: {} for tid in tids}
    seen: set[str] = set()
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise CsvParseError(
                line, 1, f"expected {len(header)} fields, got {len(row)}"
            )
        tid = row[0]
        if tid not in out:
            raise InvariantViolationError(
                tid, f"{path.name} references an unknown trajectory id"
            )
        if tid in seen:
            raise DuplicateKeyError(tid, None)
        seen.add(tid)
        for name, cell in zip(names, row[1:]):
            if cell != "":
                out[tid][name] = _parse_value(cell)
    return out


def _ingest_pprops(
    path: Path, trajectories: TrajectoriesRelation
) -> dict[str, dict[str, tuple[tuple[int, PropertyValue], ...]]]:
    rows = _read_rows(path)
    header = _check_header(rows, ("tid", "order"), path)
    names = header[2:]
    sizes = {tid: len(t) for tid, t in trajectories}
    collected: dict[str, dict[str, dict[int, PropertyValue]]] = {
        tid: {} for tid in sizes
    }
    seen: set[tuple[str, int]] = set()
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise CsvParseError(
                line, 1, f"expected {len(header)} fields, got {len(row)}"
            )
        tid = row[0]
        if tid not in sizes:
            raise InvariantViolationError(
                tid, f"{path.name} references an unknown trajectory id"
            )
        order = _parse_int(row[1], line, 2)
        if not 0 <= order < sizes[tid]:
            raise InvariantViolationError(
                tid, f"point property at order {order} has no matching point"
            )
        if (tid, order) in seen:
            raise DuplicateKeyError(tid, order)
        seen.add((tid, order))
        for name, cell in zip(names, row[2:]):
            if cell != "":
                collected[tid].setdefault(name, {})[order] = _parse_value(cell)
    return {
        tid: {
            name: tuple(sorted(by_order.items()))
            for name, by_order in per_name.items()
        }
        for tid, per_name in collected.items()
    }


def _props_path(path: Path) -> Path:
    return path.with_name(path.stem + ".props.csv")


def _pprops_path(path: Path) -> Path:
    return path.with_name(path.stem + ".pprops.csv")


def ingest_csv(path: Union[str, Path]) -> Dataset:
    """Load a dataset from a points CSV and its optional property siblings.

    Raises:
        CsvParseError: malformed header or cell.
        DuplicateKeyError: repeated (tid, order) point or repeated row key.
        InvariantViolationError: orders not contiguous, time not strictly
            increasing, or a property row referencing an unknown id.
    """
    path = Path(path)
    trajectories = _ingest_points(path)
    tids = trajectories.tids()
    props_path = _props_path(path)
    pprops_path = _pprops_path(path)
    trajectory_props = (
        _ingest_props(props_path, tids)
        if props_path.exists()
        else {tid: {} for tid in tids}
    )
    point_props = (
        _ingest_pprops(pprops_path, trajectories)
        if pprops_path.exists()
        else {tid: {} for tid in tids}
    )
    return Dataset(
        trajectories,
        PropertyRelation(trajectory_props, point_props),
        {
            "name": path.stem,
            "source": str(path),
            "coordinate_note": COORDINATE_NOTE,
        },
    )


def _format_value(value: PropertyValue) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _write_rows(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def export_csv(d: Dataset, path: Union[str, Path]) -> None:
    """Write a dataset back to CSV form.

    The points file is always written; the property siblings are written
    only when the dataset actually carries values of that grain. Rows are
    sorted by (tid, order) and property columns by name, so exporting a
    freshly ingested file reproduces it byte for byte.
    """
    path = Path(path)
    point_rows = [
        [tid, str(order), format_float(x), format_float(y), format_float(tau)]
        for tid, t in d.trajectories
        for order, (x, y, tau) in enumerate(zip(t.xs.tolist(), t.ys.tolist(), t.taus.tolist()))
    ]
    _write_rows(path, list(POINTS_HEADER), point_rows)

    tprops = d.properties.trajectory_props
    tnames = sorted({name for per in tprops.values() for name in per})
    if tnames:
        rows = [
            [tid] + [_format_value(per[n]) if n in per else "" for n in tnames]
            for tid, per in sorted(tprops.items())
            if per
        ]
        _write_rows(_props_path(path), ["tid"] + tnames, rows)

    pprops = d.properties.point_props
    pnames = sorted({name for per in pprops.values() for name in per})
    if pnames:
        rows = []
        for tid, per in sorted(pprops.items()):
            cells: dict[int, dict[str, PropertyValue]] = {}
            for name, pairs in per.items():
                for order, value in pairs:
                    cells.setdefault(order, {})[name] = value
            for order in sorted(cells):
                row_values = cells[order]
                rows.append(
                    [tid, str(order)]
                    + [
                        _format_value(row_values[n]) if n in row_values else ""
                        for n in pnames
                    ]
                )
        _write_rows(_pprops_path(path), ["tid", "order"] + pnames, rows)
