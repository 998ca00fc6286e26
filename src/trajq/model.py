"""Trajectory data model.

A trajectory is a finite ordered sequence of sampled positions on a plane,
each carrying a timestamp. Points are numbered 0..n-1 in recording order and
timestamps increase strictly with the order, so time never stalls or runs
backwards even though the spatial path may revisit or hold a position
(zero-length segments are legal and represent staying put while time
passes). A single-point trajectory is legal.

A ``Trajectory(xs, ys, taus)`` stores the samples as three read-only
float64 columns, which is what evaluation, export and the nested-relational
engine read. ``t.points`` is a view of the same data as ``TrajectoryPoint``
records, built on first use; ``build_trajectory`` turns (x, y, tau) samples
into the columns.

Trajectories are grouped into a relation keyed by trajectory id, and
descriptive attributes live in a separate property relation at two grains:
per trajectory (e.g. a species tag) and per point (e.g. a movement type
sampled at every fix).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

from .errors import (
    EmptyTrajectoryError,
    NonFiniteValueError,
    NonMonotoneTimeError,
    PointOrderError,
    RelationOrderError,
    UnknownPropertyError,
    UnknownTidError,
)

PropertyValue = Union[str, int, float, bool]


@dataclass(frozen=True)
class TrajectoryPoint:
    """One recorded fix: position (x, y) at timestamp tau, numbered by order."""

    order: int
    x: float
    y: float
    tau: float


@dataclass(frozen=True)
class Segment:
    """The straight connection between two consecutive points of a trajectory.

    ``start.order + 1 == end.order`` always holds. Zero spatial length is
    legal (the object stayed put); zero duration is not, because timestamps
    are strictly increasing.
    """

    start: TrajectoryPoint
    end: TrajectoryPoint

    @property
    def index(self) -> int:
        return self.start.order


@dataclass(frozen=True, eq=False)
class Trajectory:
    """An ordered, time-monotone sequence of at least one point, stored as
    three read-only float64 columns; point i is (xs[i], ys[i], taus[i]) and
    carries order i. The constructor copies its inputs and validates them
    all at once. Equality is by value (-0.0 equals 0.0); the hash reads taus.

    Raises:
        PointOrderError: the columns are not numbers in 1-D arrays of one length.
        EmptyTrajectoryError, NonFiniteValueError, NonMonotoneTimeError: as for
            ``build_trajectory``, naming the first offending point.
    """

    xs: np.ndarray
    ys: np.ndarray
    taus: np.ndarray

    def __post_init__(self):
        try:
            cols = [np.array(c, dtype=np.float64) for c in (self.xs, self.ys, self.taus)]
            xs, ys, taus = cols
            if not xs.shape == ys.shape == taus.shape == (taus.size,):
                raise ValueError("shapes differ")
        except (TypeError, ValueError):
            raise PointOrderError("point columns must be 1-D numbers of one length") from None
        if not taus.size:
            raise EmptyTrajectoryError("a trajectory needs at least one point")
        finite = np.isfinite(xs) & np.isfinite(ys) & np.isfinite(taus)
        if not finite.all():
            raise NonFiniteValueError(
                f"point {int(finite.argmin())} has a non-finite coordinate or timestamp"
            )
        # An ordered comparison, not np.diff: differences overflow near the float range.
        rising = taus[1:] > taus[:-1]
        if not rising.all():
            i = int(rising.argmin())
            raise NonMonotoneTimeError(
                f"tau must increase strictly: order {i} has tau={float(taus[i])}, "
                f"order {i + 1} has tau={float(taus[i + 1])}"
            )
        for name, col in zip(("xs", "ys", "taus"), cols):
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __eq__(self, other):
        return isinstance(other, Trajectory) and all(
            map(np.array_equal, (self.xs, self.ys, self.taus), (other.xs, other.ys, other.taus))
        )

    def __hash__(self) -> int:
        return hash(tuple(self.taus.tolist()))

    def __len__(self) -> int:
        return self.taus.size

    def __iter__(self) -> Iterator[TrajectoryPoint]:
        return iter(self.points)

    @cached_property
    def points(self) -> tuple[TrajectoryPoint, ...]:
        """The points as records, built from the columns on first use."""
        columns = (self.xs.tolist(), self.ys.tolist(), self.taus.tolist())
        return tuple(map(TrajectoryPoint, range(len(self)), *columns))


def build_trajectory(samples: Iterable[tuple[float, float, float]]) -> Trajectory:
    """Build a trajectory from (x, y, tau) samples in recording order, which
    become the columns of a ``Trajectory``; point i gets order i.

    Raises:
        PointOrderError: a sample that is not three numbers.
        EmptyTrajectoryError: no samples.
        NonFiniteValueError: a NaN or infinite coordinate/timestamp.
        NonMonotoneTimeError: a timestamp that fails to increase.
    """
    try:
        rows = np.array(list(samples), dtype=np.float64)
        if rows.shape[1:] != (3,) and rows.shape != (0,):
            raise ValueError(f"samples of shape {rows.shape}")
    except (TypeError, ValueError):
        raise PointOrderError("each sample must be three numbers (x, y, tau)") from None
    return Trajectory(*rows.reshape(-1, 3).T)


def first_point(t: Trajectory) -> TrajectoryPoint:
    return t.points[0]


def last_point(t: Trajectory) -> TrajectoryPoint:
    return t.points[-1]


def inner_points(t: Trajectory) -> tuple[TrajectoryPoint, ...]:
    """All points except the first and the last (empty for n <= 2)."""
    return t.points[1:-1]


def segments(t: Trajectory) -> tuple[Segment, ...]:
    """The n-1 segments connecting consecutive points (empty for n == 1)."""
    return tuple(Segment(a, b) for a, b in zip(t.points, t.points[1:]))


def time_span(t: Trajectory) -> tuple[float, float]:
    """(first timestamp, last timestamp); equal for a single-point trajectory."""
    return t.taus.item(0), t.taus.item(-1)


@dataclass(frozen=True)
class TrajectoriesRelation:
    """A relation of (tid, trajectory) rows, kept sorted by tid."""

    rows: tuple[tuple[str, Trajectory], ...]

    def __post_init__(self):
        tids = [tid for tid, _ in self.rows]
        if len(set(tids)) != len(tids):
            raise RelationOrderError("duplicate tid in relation")
        if tids != sorted(tids):
            raise RelationOrderError("rows must be sorted by tid")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, Trajectory]]) -> "TrajectoriesRelation":
        return cls(tuple(sorted(pairs, key=lambda r: r[0])))

    @cached_property
    def _index(self) -> Mapping[str, Trajectory]:
        return {tid: t for tid, t in self.rows}

    def tids(self) -> tuple[str, ...]:
        return tuple(tid for tid, _ in self.rows)

    def get(self, tid: str) -> Trajectory:
        try:
            return self._index[tid]
        except KeyError:
            raise UnknownTidError(tid) from None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[str, Trajectory]]:
        return iter(self.rows)


@dataclass(frozen=True)
class PropertyRelation:
    """Descriptive attributes for the trajectories of one relation.

    ``trajectory_props[tid][name]`` holds one value per trajectory;
    ``point_props[tid][name]`` holds (order, value) pairs sorted by order.
    Every tid key must belong to the owning trajectories relation; ingestion
    enforces that, and both maps carry a key for every known tid so that a
    missing tid is always a lookup error rather than silently empty.
    """

    trajectory_props: Mapping[str, Mapping[str, PropertyValue]]
    point_props: Mapping[str, Mapping[str, tuple[tuple[int, PropertyValue], ...]]]

    @classmethod
    def empty(cls, tids: Iterable[str]) -> "PropertyRelation":
        ids = list(tids)
        return cls({tid: {} for tid in ids}, {tid: {} for tid in ids})

    def trajectory_value(self, tid: str, name: str) -> PropertyValue:
        if tid not in self.trajectory_props:
            raise UnknownTidError(tid)
        try:
            return self.trajectory_props[tid][name]
        except KeyError:
            raise UnknownPropertyError(f"{name!r} for tid {tid!r}") from None

    def point_values(self, tid: str, name: str) -> tuple[tuple[int, PropertyValue], ...]:
        if tid not in self.point_props:
            raise UnknownTidError(tid)
        try:
            return self.point_props[tid][name]
        except KeyError:
            raise UnknownPropertyError(f"{name!r} for tid {tid!r}") from None


def segment_property_view(
    props: PropertyRelation, tid: str, name: str
) -> list[tuple[int, int, PropertyValue]]:
    """Collapse a per-point property into runs of equal consecutive values.

    Returns [(start_order, end_order, value), ...] where each run covers the
    maximal stretch of consecutive recorded values that compare equal. A
    property sampled as walking, walking, flying, flying, flying over orders
    0..4 collapses to [(0, 1, walking), (2, 4, flying)].

    Raises:
        UnknownTidError: tid not in the relation.
        UnknownPropertyError: no such per-point property for this tid.
    """
    values = props.point_values(tid, name)
    runs: list[tuple[int, int, PropertyValue]] = []
    for order, value in values:
        if runs and runs[-1][2] == value:
            start, _, v = runs[-1]
            runs[-1] = (start, order, v)
        else:
            runs.append((order, order, value))
    return runs
