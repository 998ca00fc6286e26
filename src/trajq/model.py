"""Trajectory data model.

A trajectory is a finite ordered sequence of sampled positions on a plane,
each carrying a timestamp. Points are numbered 0..n-1 in recording order and
timestamps increase strictly with the order, so time never stalls or runs
backwards even though the spatial path may revisit or hold a position
(zero-length segments are legal and represent staying put while time
passes). A single-point trajectory is legal.

Trajectories are grouped into a relation keyed by trajectory id, and
descriptive attributes live in a separate property relation at two grains:
per trajectory (e.g. a species tag) and per point (e.g. a movement type
sampled at every fix).
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class Trajectory:
    """An ordered, time-monotone sequence of at least one point."""

    points: tuple[TrajectoryPoint, ...]

    def __post_init__(self):
        if not self.points:
            raise EmptyTrajectoryError("a trajectory needs at least one point")
        for i, p in enumerate(self.points):
            if p.order != i:
                raise PointOrderError(f"point {i} carries order {p.order}; orders must be 0..n-1")
            if not (math.isfinite(p.x) and math.isfinite(p.y) and math.isfinite(p.tau)):
                raise NonFiniteValueError(f"point {i} has a non-finite coordinate or timestamp")
        for a, b in zip(self.points, self.points[1:]):
            if not b.tau > a.tau:
                raise NonMonotoneTimeError(
                    f"tau must increase strictly: order {a.order} has tau={a.tau}, "
                    f"order {b.order} has tau={b.tau}"
                )

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[TrajectoryPoint]:
        return iter(self.points)

    # Arrays are cached per instance; safe because the dataclass is frozen.
    @cached_property
    def xs(self) -> np.ndarray:
        return np.array([p.x for p in self.points], dtype=float)

    @cached_property
    def ys(self) -> np.ndarray:
        return np.array([p.y for p in self.points], dtype=float)

    @cached_property
    def taus(self) -> np.ndarray:
        return np.array([p.tau for p in self.points], dtype=float)


def build_trajectory(samples: Iterable[tuple[float, float, float]]) -> Trajectory:
    """Build a trajectory from (x, y, tau) samples, assigning orders 0..n-1.

    Samples must already be in recording order; timestamps are validated to
    be finite and strictly increasing.

    Raises:
        EmptyTrajectoryError: no samples.
        NonFiniteValueError: a NaN or infinite coordinate/timestamp.
        NonMonotoneTimeError: a timestamp that fails to increase.
    """
    pts = tuple(
        TrajectoryPoint(i, float(x), float(y), float(tau))
        for i, (x, y, tau) in enumerate(samples)
    )
    return Trajectory(pts)


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
    return t.points[0].tau, t.points[-1].tau


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
