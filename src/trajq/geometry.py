"""Regions, intervals, point classification, and exact segment algebra.

Spatial queries run against axis-aligned rectangles and temporal queries
against closed time intervals. A point on the plane is Interior, Boundary,
or Exterior to a rectangle; a timestamp is Before, Boundary, Interior, or
After relative to an interval. Both boundaries belong to the closed shape:
"within" means interior-or-boundary, "inside" means interior only, and
"outside" means strictly exterior (which is deliberately narrower than
not-inside, since not-inside also admits the boundary).

Where a segment crosses a box does not depend on the question asked. Every
atom tests an axis-aligned box (a region's bounds, a time interval, or the
half-line before or after one), and :func:`box_crossings` computes, as numpy
arrays over many segments at once, the parameters at which each segment
enters and leaves the closed box and which segments run flat along a face.
It is the one solver of segment-box crossings: the evaluator, the NF²
executor and the per-segment class sets all read it. The first two place
parameters against the box only through :func:`box_holds`; the class sets
read the crossings on their own, as a second opinion.

The continuum along a segment is handled exactly, not by sampling: each
class of points along a segment is a finite union of subintervals of the
parameter range [0, 1], a :class:`ParamSet` with explicit open/closed
endpoint flags. A segment's class sets all come from its one pair of
crossings, so they partition [0, 1] exactly in float arithmetic, with no
epsilon tolerances. A coordinate difference that overflows the float range
has no usable crossing and raises :class:`CrossingOverflowError`, one
segment or many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import CrossingOverflowError, InvalidGeometryError, OutOfRangeError
from .model import Segment


class PointClass(Enum):
    """Position of a planar point relative to a closed rectangle."""

    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


class TimeClass(Enum):
    """Position of a timestamp relative to a closed interval."""

    BEFORE = "before"
    BOUNDARY = "boundary"
    INTERIOR = "interior"
    AFTER = "after"


def _finite(vals: tuple) -> bool:
    """Whether every value is a finite real number (None or a str is not)."""
    try:
        return all(math.isfinite(v) for v in vals)
    except TypeError:
        return False


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle; degenerate (zero width or height) is rejected."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        vals = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not _finite(vals):
            raise InvalidGeometryError(f"non-finite region bounds {vals}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise InvalidGeometryError(
                f"region needs x_min < x_max and y_min < y_max, got {vals}"
            )


@dataclass(frozen=True)
class Interval:
    """Closed time interval; zero duration is rejected."""

    tau_s: float
    tau_e: float

    def __post_init__(self):
        if not _finite((self.tau_s, self.tau_e)):
            raise InvalidGeometryError(
                f"non-finite interval bounds ({self.tau_s}, {self.tau_e})"
            )
        if not self.tau_s < self.tau_e:
            raise InvalidGeometryError(
                f"interval needs tau_s < tau_e, got ({self.tau_s}, {self.tau_e})"
            )


def classify_point_region(x: float, y: float, r: Region) -> PointClass:
    if x < r.x_min or x > r.x_max or y < r.y_min or y > r.y_max:
        return PointClass.EXTERIOR
    if r.x_min < x < r.x_max and r.y_min < y < r.y_max:
        return PointClass.INTERIOR
    return PointClass.BOUNDARY


def classify_time_interval(tau: float, i: Interval) -> TimeClass:
    if tau < i.tau_s:
        return TimeClass.BEFORE
    if tau > i.tau_e:
        return TimeClass.AFTER
    if i.tau_s < tau < i.tau_e:
        return TimeClass.INTERIOR
    return TimeClass.BOUNDARY


# --- parameter sets -----------------------------------------------------


@dataclass(frozen=True)
class ParamInterval:
    """One subinterval of [0, 1] with explicit endpoint ownership."""

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise ValueError(f"bounds must satisfy 0 <= lo <= hi <= 1, got {self}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError(f"degenerate interval must be a closed point, got {self}")

    def contains(self, lam: float) -> bool:
        if lam < self.lo or lam > self.hi:
            return False
        if lam == self.lo and not self.lo_closed:
            return False
        if lam == self.hi and not self.hi_closed:
            return False
        return True


def _valid(lo: float, hi: float, lo_closed: bool, hi_closed: bool) -> bool:
    return lo < hi or (lo == hi and lo_closed and hi_closed)


@dataclass(frozen=True)
class ParamSet:
    """A finite union of disjoint subintervals of [0, 1], always normalized.

    Normalized means: intervals sorted ascending, pairwise disjoint, and not
    even touching in a mergeable way (if one endpoint meets the next interval
    and either side owns the meeting point, the two are fused). Construction
    through :meth:`from_intervals` establishes the form; union, intersection,
    and complement all preserve it, so equality of sets is plain equality of
    the tuples.
    """

    intervals: tuple[ParamInterval, ...]

    @classmethod
    def from_intervals(cls, raw: Iterable[ParamInterval]) -> "ParamSet":
        items = sorted(
            (iv for iv in raw),
            key=lambda iv: (iv.lo, not iv.lo_closed, iv.hi, not iv.hi_closed),
        )
        merged: list[ParamInterval] = []
        for iv in items:
            if not merged:
                merged.append(iv)
                continue
            cur = merged[-1]
            touches = iv.lo < cur.hi or (
                iv.lo == cur.hi and (cur.hi_closed or iv.lo_closed)
            )
            if not touches:
                merged.append(iv)
                continue
            lo_closed = cur.lo_closed or (iv.lo == cur.lo and iv.lo_closed)
            if iv.hi > cur.hi:
                hi, hi_closed = iv.hi, iv.hi_closed
            elif iv.hi == cur.hi:
                hi, hi_closed = cur.hi, cur.hi_closed or iv.hi_closed
            else:
                hi, hi_closed = cur.hi, cur.hi_closed
            merged[-1] = ParamInterval(cur.lo, hi, lo_closed, hi_closed)
        return cls(tuple(merged))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, lam: float) -> bool:
        return any(iv.contains(lam) for iv in self.intervals)

    def measure(self) -> float:
        return sum(iv.hi - iv.lo for iv in self.intervals)

    def union(self, other: "ParamSet") -> "ParamSet":
        return ParamSet.from_intervals(self.intervals + other.intervals)

    def intersect(self, other: "ParamSet") -> "ParamSet":
        out: list[ParamInterval] = []
        for a in self.intervals:
            for b in other.intervals:
                if a.lo > b.lo or (a.lo == b.lo and (b.lo_closed or not a.lo_closed)):
                    lo, lo_closed = a.lo, a.lo_closed
                    if a.lo == b.lo:
                        lo_closed = a.lo_closed and b.lo_closed
                else:
                    lo, lo_closed = b.lo, b.lo_closed
                if a.hi < b.hi or (a.hi == b.hi and (b.hi_closed or not a.hi_closed)):
                    hi, hi_closed = a.hi, a.hi_closed
                    if a.hi == b.hi:
                        hi_closed = a.hi_closed and b.hi_closed
                else:
                    hi, hi_closed = b.hi, b.hi_closed
                if _valid(lo, hi, lo_closed, hi_closed):
                    out.append(ParamInterval(lo, hi, lo_closed, hi_closed))
        return ParamSet.from_intervals(out)

    def complement(self) -> "ParamSet":
        """Set difference [0, 1] minus this set."""
        out: list[ParamInterval] = []
        cursor, cursor_closed = 0.0, True
        for iv in self.intervals:
            if _valid(cursor, iv.lo, cursor_closed, not iv.lo_closed):
                out.append(ParamInterval(cursor, iv.lo, cursor_closed, not iv.lo_closed))
            cursor, cursor_closed = iv.hi, not iv.hi_closed
        if _valid(cursor, 1.0, cursor_closed, True):
            out.append(ParamInterval(cursor, 1.0, cursor_closed, True))
        return ParamSet.from_intervals(out)


EMPTY_SET = ParamSet(())
FULL_SET = ParamSet((ParamInterval(0.0, 1.0, True, True),))


_OVERFLOW = "a coordinate difference along a segment overflows the float range"


def _axis_band(
    c0: np.ndarray, c1: np.ndarray, lo: float, hi: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unclamped ends of the closed band lo <= c(lam) <= hi, per segment
    c0 -> c1, and the rows that run flat along one of its faces.

    The crossings are the quotients (v - c0) / (c1 - c0), one per bound;
    the smaller one is where the segment enters the band.
    """
    try:
        # Arithmetic on an infinite bound raises no flag; a flat row (x/0,
        # 0/0) or an overflow does, and takes the checked path below.
        with np.errstate(all="raise", under="ignore"):
            d = c1 - c0
            at_lo = (lo - c0) / d
            at_hi = (hi - c0) / d
    except FloatingPointError:
        return _checked_axis_band(c0, c1, lo, hi)
    return np.minimum(at_lo, at_hi), np.maximum(at_lo, at_hi), np.zeros(d.shape, bool)


def _checked_axis_band(
    c0: np.ndarray, c1: np.ndarray, lo: float, hi: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_axis_band` for rows that are flat or overflow somewhere.

    A flat coordinate never uses its quotient: its band is everything or
    nothing, and it runs along a face where it equals lo or hi. A quotient
    may overflow to an infinity, which orders correctly against [0, 1]; a
    difference may not.

    Raises:
        CrossingOverflowError: a coordinate difference is not finite.
    """
    with np.errstate(all="ignore"):
        d = c1 - c0
        at_lo = (lo - c0) / d
        at_hi = (hi - c0) / d
        overflow = np.isinf(d).any() or any(
            math.isfinite(v) and (np.isinf(v - c0) & (d != 0.0)).any() for v in (lo, hi)
        )
    if overflow:
        raise CrossingOverflowError(_OVERFLOW)
    flat = d == 0.0
    full = np.where((lo <= c0) & (c0 <= hi), -np.inf, np.inf)
    return (
        np.where(flat, full, np.minimum(at_lo, at_hi)),
        np.where(flat, -full, np.maximum(at_lo, at_hi)),
        flat & ((c0 == lo) | (c0 == hi)),
    )


def box_crossings(
    starts: Iterable[np.ndarray],
    ends: Iterable[np.ndarray],
    lo: Iterable[float],
    hi: Iterable[float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per segment, where it crosses the closed box lo <= c <= hi: the
    unclamped parameters ``enter`` and ``leave`` and the ``edge`` rows.
    Segment i runs from entry i of the ``starts`` arrays (one per
    coordinate) to entry i of the ``ends`` arrays; for a polyline, its
    arrays minus the last or first point. A bound may be infinite, which
    makes a band a half-line. An edge row runs flat along a face, so it
    never reaches the interior. :func:`box_holds` reads the box from these.

    Raises:
        CrossingOverflowError: a coordinate difference is not finite.
    """
    bands = [_axis_band(*args) for args in zip(starts, ends, lo, hi)]
    enter, leave, edge = bands[0]
    for s, e, on_face in bands[1:]:
        enter = np.maximum(enter, s)
        leave = np.minimum(leave, e)
        edge = edge | on_face
    return enter, leave, edge


def box_sites(crossings: Iterable[tuple]) -> np.ndarray:
    """Sites for one or more boxes' :func:`box_crossings`: ``at[j, i]`` is
    the j-th smallest of 0, 1 and segment i's crossings clamped to [0, 1].
    No box changes truth inside the open cell between two neighbours."""
    bounds = [c for enter, leave, _ in crossings for c in (enter, leave)]
    ends = [np.zeros(len(bounds[0])), np.ones(len(bounds[0]))]
    return np.sort(np.minimum(np.maximum(np.array(ends + bounds), 0.0), 1.0), axis=0)


def box_holds(crossings: tuple, closed: bool, at: np.ndarray | None = None) -> np.ndarray:
    """Where the closed box of ``crossings`` (:func:`box_crossings`), or its
    interior, holds: at the sites ``at`` (:func:`box_sites`), then on the
    cells between them; with no ``at``, somewhere on each whole segment.

    Only ordinal comparisons decide, with no midpoints and no epsilons, so
    a cell between two adjacent floats still counts. Parameter lam lies in
    the closed box iff enter <= lam <= leave; a cell (left, right) holding
    no crossing iff enter <= left and right <= leave; some point of a
    segment iff max(enter, 0) <= min(leave, 1). The interior makes the
    tests of lam and of the segment strict, and holds on no edge row.
    """
    enter, leave, edge = crossings
    if at is None:
        lo, hi = np.maximum(enter, 0.0), np.minimum(leave, 1.0)
        return (lo <= hi) if closed else (lo < hi) & ~edge
    on_cell = (enter <= at[:-1]) & (at[1:] <= leave)
    if closed:
        return np.concatenate(((enter <= at) & (at <= leave), on_cell))
    return np.concatenate(((enter < at) & (at < leave), on_cell)) & ~edge


def _spans(starts: tuple, ends: tuple, lo: tuple, hi: tuple) -> tuple[ParamSet, ParamSet]:
    """The parameters at which one segment lies in the closed box lo <= c <=
    hi, and those at which it lies in the box's interior, both read from
    :func:`box_crossings`.

    Raises:
        CrossingOverflowError: a coordinate difference is not finite.
    """
    crossings = box_crossings(np.array(starts)[:, None], np.array(ends)[:, None], lo, hi)
    enter, leave, edge = (c.item() for c in crossings)
    a, b = max(enter, 0.0), min(leave, 1.0)
    closed = ParamSet((ParamInterval(a, b, True, True),)) if a <= b else EMPTY_SET
    # an end of the open span is closed only where it is an end of [0, 1]
    lo_closed, hi_closed = enter < 0.0, leave > 1.0
    if edge or not _valid(a, b, lo_closed, hi_closed):
        return closed, EMPTY_SET
    return closed, ParamSet((ParamInterval(a, b, lo_closed, hi_closed),))


class SegmentParams:
    """The exact parameter sets of one segment's points in the classes of
    regions and intervals.

    Each box is solved once, by one :func:`box_crossings` call, and every
    class set of it is read from that: a region's three classes from its
    box, an interval's INTERIOR and BOUNDARY from [tau_s, tau_e], BEFORE
    and AFTER from the half-lines below tau_s and above tau_e.
    """

    def __init__(self, seg: Segment):
        self.seg = seg
        self._spans: dict = {}  # (lo, hi) -> (closed span, open span)

    def _box(self, starts: tuple, ends: tuple, lo: tuple, hi: tuple) -> tuple[ParamSet, ParamSet]:
        spans = self._spans.get((lo, hi))
        if spans is None:
            spans = self._spans[lo, hi] = _spans(starts, ends, lo, hi)
        return spans

    def region(self, r: Region, cls: PointClass) -> ParamSet:
        """The three class sets of a region partition [0, 1]: interior is
        the open span of the box, the closed hull adds the boundary, and
        exterior is the complement of the hull."""
        a, b = self.seg.start, self.seg.end
        closed, interior = self._box((a.x, a.y), (b.x, b.y), (r.x_min, r.y_min), (r.x_max, r.y_max))
        if cls is PointClass.INTERIOR:
            return interior
        if cls is PointClass.BOUNDARY:
            return closed.intersect(interior.complement())
        return closed.complement()

    def interval(self, i: Interval, cls: TimeClass) -> ParamSet:
        """Time increases strictly along a segment, so each class is a
        single (possibly empty or degenerate) subinterval of [0, 1]; the
        four class sets partition [0, 1]. BEFORE and AFTER are the
        interiors of the half-lines below tau_s and above tau_e."""
        taus = (self.seg.start.tau,), (self.seg.end.tau,)
        if cls is TimeClass.BEFORE:
            return self._box(*taus, (-math.inf,), (i.tau_s,))[1]
        if cls is TimeClass.AFTER:
            return self._box(*taus, (i.tau_e,), (math.inf,))[1]
        closed, interior = self._box(*taus, (i.tau_s,), (i.tau_e,))
        if cls is TimeClass.INTERIOR:
            return interior
        return closed.intersect(interior.complement())


def lerp(seg: Segment, lam: float) -> tuple[float, float, float]:
    """Interpolated (x, y, tau) at parameter lam in [0, 1].

    Uses the (1-lam)*a + lam*b form so 0.0 and 1.0 reproduce the segment
    endpoints bit for bit.

    Raises:
        OutOfRangeError: lam outside [0, 1] or not finite.
    """
    if not (math.isfinite(lam) and 0.0 <= lam <= 1.0):
        raise OutOfRangeError(f"parameter {lam} outside [0, 1]")
    a, b = seg.start, seg.end
    w = 1.0 - lam
    return (w * a.x + lam * b.x, w * a.y + lam * b.y, w * a.tau + lam * b.tau)


def densify(
    xs: np.ndarray, ys: np.ndarray, taus: np.ndarray, seg: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polyline arrays with interpolated points inserted.

    Point j lies at parameter lam[j] of the segment starting at index
    seg[j]; the pairs must be sorted by segment, then parameter. Values come
    from the same (1-lam)*a + lam*b arithmetic as :func:`lerp`, so each
    inserted point equals lerp's bit for bit. Each column is written once:
    point j goes to seg[j] + 1 + j, after the j points inserted before it,
    and recorded point i to i plus the number of points inserted before it.
    """
    w = 1.0 - lam
    nxt = seg + 1
    inserted = nxt + np.arange(seg.size)
    recorded = np.arange(xs.size)
    recorded += np.searchsorted(seg, recorded)
    out = []
    for c in (xs, ys, taus):
        col = np.empty(xs.size + seg.size)
        col[recorded] = c
        col[inserted] = w * c[seg] + lam * c[nxt]
        out.append(col)
    return tuple(out)
