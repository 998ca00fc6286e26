"""Regions, intervals, point classification, and exact segment algebra.

Spatial queries run against axis-aligned rectangles and temporal queries
against closed time intervals. A point on the plane is Interior, Boundary,
or Exterior to a rectangle; a timestamp is Before, Boundary, Interior, or
After relative to an interval. Both boundaries belong to the closed shape:
"within" means interior-or-boundary, "inside" means interior only, and
"outside" means strictly exterior (which is deliberately narrower than
not-inside, since not-inside also admits the boundary).

The continuum of positions along one trajectory segment is handled exactly,
not by sampling: every class of points along a segment is a finite union of
subintervals of the parameter range [0, 1], represented by :class:`ParamSet`
with explicit open/closed endpoint flags. Because a rectangle is convex and
each coordinate varies linearly in the parameter, these sets are produced by
solving linear threshold crossings; all endpoint parameters are derived from
the same divisions, so the class sets of a segment partition [0, 1] exactly
in float arithmetic, with no epsilon tolerances anywhere.

The evaluator needs those sets for every segment of a polyline at once:
:func:`box_params` computes, as numpy arrays, the one interval per segment
where a box (a region's hull or interior, or a time band) holds, from the
same divisions. A coordinate difference that overflows the float range has
no usable crossing and raises :class:`CrossingOverflowError` on both paths.
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


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle; degenerate (zero width or height) is rejected."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        vals = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(math.isfinite(v) for v in vals):
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
        if not (math.isfinite(self.tau_s) and math.isfinite(self.tau_e)):
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


def _axis_below(c0: float, c1: float, v: float, strict: bool) -> ParamSet:
    """Parameters where the linear coordinate c(lam) is below threshold v.

    Solves c0 + lam*(c1-c0) < v (or <= for strict=False) over lam in [0, 1].
    """
    if c0 == c1:
        hit = c0 < v if strict else c0 <= v
        return FULL_SET if hit else EMPTY_SET
    d, num = c1 - c0, v - c0
    if math.isinf(d) or math.isinf(num):
        raise CrossingOverflowError(_OVERFLOW)
    lam = num / d
    if c1 > c0:
        # below-threshold parameters sit left of the crossing
        if lam > 1.0:
            return FULL_SET
        if lam < 0.0 or (lam == 0.0 and strict):
            return EMPTY_SET
        return ParamSet((ParamInterval(0.0, lam, True, not strict),))
    # decreasing coordinate: below-threshold parameters sit right of it
    if lam < 0.0:
        return FULL_SET
    if lam > 1.0 or (lam == 1.0 and strict):
        return EMPTY_SET
    return ParamSet((ParamInterval(lam, 1.0, not strict, True),))


def _axis_above(c0: float, c1: float, v: float, strict: bool) -> ParamSet:
    return _axis_below(-c0, -c1, -v, strict)


def _band(c0: float, c1: float, lo: float, hi: float, strict: bool) -> ParamSet:
    """Parameters with lo < c(lam) < hi (or the closed version)."""
    return _axis_above(c0, c1, lo, strict).intersect(_axis_below(c0, c1, hi, strict))


@dataclass(frozen=True)
class ParamIntervals:
    """One subinterval of [0, 1] per segment of a polyline, as parallel arrays.

    Row i is the vector form of a single-interval :class:`ParamSet` on
    segment i. The set is empty where lo > hi, or where lo == hi and an end
    is open. Bounds are clamped on one side only (lo >= 0, hi <= 1), so an
    empty row may carry lo > 1 or hi < 0.
    """

    lo: np.ndarray
    hi: np.ndarray
    lo_closed: np.ndarray
    hi_closed: np.ndarray


def _axis_band(
    c: np.ndarray, lo: float, hi: float, strict: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Unclamped ends of the parameter band lo < c(lam) < hi, per segment.

    The crossings are (v - c0) / (c1 - c0), the division :func:`_axis_below`
    makes; negating all three operands, as :func:`_axis_above` does, leaves
    every rounding unchanged, so one quotient serves both directions and
    each end equals the ParamSet path's bit for bit.
    """
    c0, c1 = c[:-1], c[1:]
    try:
        # Arithmetic on an infinite bound raises no flag; a flat row (x/0,
        # 0/0) or an overflow does, and takes the checked path below.
        with np.errstate(all="raise", under="ignore"):
            d = c1 - c0
            at_lo = (lo - c0) / d
            at_hi = (hi - c0) / d
    except FloatingPointError:
        return _checked_axis_band(c0, c1, lo, hi, strict)
    return np.minimum(at_lo, at_hi), np.maximum(at_lo, at_hi)


def _checked_axis_band(
    c0: np.ndarray, c1: np.ndarray, lo: float, hi: float, strict: bool
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_axis_band` for rows that are flat or overflow somewhere.

    A flat coordinate never uses its quotient: its band is everything or
    nothing. A quotient may overflow to an infinity, which orders correctly
    against [0, 1]; a difference may not.

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
    inside = ((lo < c0) & (c0 < hi)) if strict else ((lo <= c0) & (c0 <= hi))
    full = np.where(inside, -np.inf, np.inf)
    return (
        np.where(flat, full, np.minimum(at_lo, at_hi)),
        np.where(flat, -full, np.maximum(at_lo, at_hi)),
    )


def box_params(
    coords: Iterable[np.ndarray],
    lo: Iterable[float],
    hi: Iterable[float],
    strict: bool,
) -> ParamIntervals:
    """Per segment of a polyline, the parameters where every coordinate
    array lies in its band: lo < c(lam) < hi (strict) or lo <= c(lam) <= hi.

    This is :func:`segment_region_params` (closed hull or interior) and
    :func:`segment_interval_params` on all segments at once. A bound may be
    infinite, which makes a band a half-line. All ends of one box share a
    strictness, so intersecting the unclamped bands and clamping once to
    [0, 1] gives the same endpoints and ownership as ParamSet.intersect.

    Raises:
        CrossingOverflowError: a coordinate difference is not finite.
    """
    bands = [_axis_band(c, a, b, strict) for c, a, b in zip(coords, lo, hi)]
    start, end = bands[0]
    for s, e in bands[1:]:
        start = np.maximum(start, s)
        end = np.minimum(end, e)
    return ParamIntervals(
        np.maximum(start, 0.0),
        np.minimum(end, 1.0),
        (start < 0.0) | (not strict),
        (end > 1.0) | (not strict),
    )


def segment_region_params(seg: Segment, r: Region, cls: PointClass) -> ParamSet:
    """Exact parameter set of the segment points falling in one region class.

    The three class sets of any (segment, region) pair partition [0, 1]:
    interior is an open band intersection, the closed hull adds the boundary,
    and exterior is the complement of the hull. All interval endpoints come
    from the same crossing parameters, so the partition is exact.
    """
    x0, y0 = seg.start.x, seg.start.y
    x1, y1 = seg.end.x, seg.end.y
    interior = _band(x0, x1, r.x_min, r.x_max, True).intersect(
        _band(y0, y1, r.y_min, r.y_max, True)
    )
    if cls is PointClass.INTERIOR:
        return interior
    closed = _band(x0, x1, r.x_min, r.x_max, False).intersect(
        _band(y0, y1, r.y_min, r.y_max, False)
    )
    if cls is PointClass.BOUNDARY:
        return closed.intersect(interior.complement())
    return closed.complement()


def segment_interval_params(seg: Segment, i: Interval, cls: TimeClass) -> ParamSet:
    """Exact parameter set of the segment points falling in one time class.

    Time increases strictly along a segment, so each class is a single
    (possibly empty or degenerate) subinterval of [0, 1]; the four class
    sets partition [0, 1] exactly.
    """
    t0, t1 = seg.start.tau, seg.end.tau
    if cls is TimeClass.BEFORE:
        return _axis_below(t0, t1, i.tau_s, True)
    if cls is TimeClass.AFTER:
        return _axis_above(t0, t1, i.tau_e, True)
    interior = _band(t0, t1, i.tau_s, i.tau_e, True)
    if cls is TimeClass.INTERIOR:
        return interior
    closed = _band(t0, t1, i.tau_s, i.tau_e, False)
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
    inserted point equals lerp's bit for bit.
    """
    w = 1.0 - lam
    nxt = seg + 1
    return tuple(np.insert(c, nxt, w * c[seg] + lam * c[nxt]) for c in (xs, ys, taus))
