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
records, built on first use, and ``t.box`` the box that bounds them;
``build_trajectory`` turns (x, y, tau) samples into the columns.
``segments(t)`` builds the n - 1 ``Segment`` records from those points on
each call. Both kinds of record are made from parts already checked,
without the frozen dataclass constructor (``_point_records``), and are
still frozen dataclass instances with the dataclass's equality, hash and
repr.
``Trajectory.from_runs`` builds many trajectories from
concatenated columns, checked once by the constructor's rule, without
copying them.

Trajectories are grouped into a relation keyed by trajectory id, and
descriptive attributes live in a separate property relation at two grains:
per trajectory (e.g. a species tag) and per point (e.g. a movement type
sampled at every fix).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count, repeat
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

import numpy as np

from .errors import (
    EmptyTrajectoryError,
    NonFiniteValueError,
    NonMonotoneTimeError,
    PointOrderError,
    PredicateTypeError,
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


class Box(NamedTuple):
    """The smallest box that holds every recorded point of a trajectory:
    per column, named as the ``Trajectory`` columns, its (least, greatest)
    value. τ rises strictly, so its pair is the first and last timestamp."""

    xs: tuple[float, float]
    ys: tuple[float, float]
    taus: tuple[float, float]


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


_new = object.__new__


def _point_records(xs: list, ys: list, taus: list) -> tuple[TrajectoryPoint, ...]:
    """One ``TrajectoryPoint`` per row of checked columns, point i with order
    i. The records are made as unpickling makes them: ``object.__new__``,
    then the fields written into the instance dict in field order, without
    the frozen dataclass ``__init__`` and its ``object.__setattr__`` per
    field, which check nothing (neither record class has a
    ``__post_init__``). Type, fields, equality, hash, repr and immutability
    are the dataclass's."""
    out = tuple(map(_new, repeat(TrajectoryPoint, len(taus))))
    for point, order, x, y, tau in zip(out, count(), xs, ys, taus):
        fields = point.__dict__
        fields["order"] = order
        fields["x"] = x
        fields["y"] = y
        fields["tau"] = tau
    return out


def _float_columns(xs, ys, taus, copy: bool) -> list[np.ndarray]:
    convert = np.array if copy else np.asarray
    try:
        cols = [convert(c, dtype=np.float64) for c in (xs, ys, taus)]
        if not cols[0].shape == cols[1].shape == cols[2].shape == (cols[2].size,):
            raise ValueError("shapes differ")
    except (TypeError, ValueError):
        raise PointOrderError("point columns must be 1-D numbers of one length") from None
    return cols


_ONE_RUN = np.zeros(1, dtype=np.int64)


def _check_runs(xs: np.ndarray, ys: np.ndarray, taus: np.ndarray, starts: np.ndarray) -> None:
    """The one validation rule of trajectories: the columns, cut into runs
    at ``starts`` (0, then ascending indices inside the columns), hold at
    least one point, all finite, and tau rises strictly within each run.
    The fault raised is that of the first faulty run, a non-finite point
    before a time fault, and names points by their order in the run."""
    if not taus.size:
        raise EmptyTrajectoryError("a trajectory needs at least one point")
    finite = np.isfinite(xs) & np.isfinite(ys) & np.isfinite(taus)
    # An ordered comparison, not np.diff: differences overflow near the float range.
    later = taus[1:] > taus[:-1]
    if starts.size > 1:
        later[starts[1:] - 1] = True  # a run may start before the last one ended
    if finite.all() and later.all():
        return
    ok = finite.copy()
    ok[1:] &= later
    run = int(np.searchsorted(starts, ok.argmin(), "right")) - 1
    s, e = int(starts[run]), int(starts[run + 1]) if run + 1 < starts.size else taus.size
    if not finite[s:e].all():
        raise NonFiniteValueError(
            f"point {int(finite[s:e].argmin())} has a non-finite coordinate or timestamp"
        )
    i = int(later[s : e - 1].argmin())
    raise NonMonotoneTimeError(
        f"tau must increase strictly: order {i} has tau={float(taus[s + i])}, "
        f"order {i + 1} has tau={float(taus[s + i + 1])}"
    )


def _run_boxes(xs: np.ndarray, ys: np.ndarray, taus: np.ndarray, starts: np.ndarray) -> list[Box]:
    """The box of each run of the columns, the runs starting at ``starts``:
    four reductions and two lookups for all runs at once."""
    last = np.append(starts[1:], taus.size) - 1
    lo_x, hi_x, lo_y, hi_y = (
        ufunc.reduceat(col, starts).tolist()
        for col in (xs, ys)
        for ufunc in (np.minimum, np.maximum)
    )
    firsts, lasts = taus[starts].tolist(), taus[last].tolist()
    return list(map(Box, zip(lo_x, hi_x), zip(lo_y, hi_y), zip(firsts, lasts)))


class _computed_once:
    """``functools.cached_property`` without its lock, which Python 3.11
    takes on each first access: the value is computed on first use and
    stored in the instance, whose ``__dict__`` then shadows this non-data
    descriptor. Two threads may both compute it; both get the same value."""

    def __init__(self, func):
        self.func, self.name = func, func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class _Runs:
    """The columns and run starts of one ``Trajectory.from_runs`` call. The
    boxes of all its runs are computed together, when one is first asked for."""

    def __init__(self, cols: list[np.ndarray], starts: np.ndarray):
        self.cols, self.starts = cols, starts

    @cached_property
    def boxes(self) -> list[Box]:
        return _run_boxes(*self.cols, self.starts)


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
        cols = _float_columns(self.xs, self.ys, self.taus, copy=True)
        _check_runs(*cols, _ONE_RUN)
        for name, col in zip(("xs", "ys", "taus"), cols):
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    @classmethod
    def from_runs(cls, xs, ys, taus, starts) -> tuple["Trajectory", ...]:
        """One trajectory per run of the columns, the runs starting at the
        strictly ascending indices ``starts`` (the first is 0). The columns are
        checked once by the constructor's rule, which raises for the first
        faulty run; float64 columns are not copied but made read-only, and
        each trajectory holds views of them, so the caller must not keep
        writable references to them.

        Raises:
            PointOrderError: as for the constructor, or ``starts`` do not
                rise strictly from 0 within the columns.
            EmptyTrajectoryError, NonFiniteValueError, NonMonotoneTimeError:
                as for the constructor, for the first faulty run.
        """
        cols = _float_columns(xs, ys, taus, copy=False)
        starts = np.asarray(starts, dtype=np.int64)
        n = cols[2].size
        if starts.ndim != 1 or starts[:1].tolist() != [0] or (
            (np.diff(starts) <= 0).any() or starts[-1] >= max(n, 1)
        ):
            raise PointOrderError("run starts must rise strictly from 0 within the columns")
        _check_runs(*cols, starts)
        for col in cols:
            col.flags.writeable = False
        runs = _Runs(cols, starts)
        out = []
        for k, (s, e) in enumerate(zip(starts.tolist(), [*starts[1:].tolist(), n])):
            t = object.__new__(cls)
            for name, col in zip(("xs", "ys", "taus"), cols):
                object.__setattr__(t, name, col[s:e])
            object.__setattr__(t, "_run", (runs, k))
            out.append(t)
        return tuple(out)

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
        """The points as records, built from the columns on first use
        (:func:`_point_records`)."""
        return _point_records(self.xs.tolist(), self.ys.tolist(), self.taus.tolist())

    @_computed_once
    def box(self) -> Box:
        """The box of the recorded points, computed on first use. The
        trajectories of one ``from_runs`` call compute theirs together."""
        run = self.__dict__.get("_run")
        if run is None:  # built alone: a batch of one run
            run = (_Runs([self.xs, self.ys, self.taus], _ONE_RUN), 0)
            object.__setattr__(self, "_run", run)
        runs, k = run
        return runs.boxes[k]


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
    """The n-1 segments connecting consecutive points (empty for n == 1),
    built on each call from the cached points without ``Segment.__init__``
    (see :func:`_point_records`)."""
    points = t.points
    out = tuple(map(_new, repeat(Segment, len(points) - 1)))
    for seg, start, end in zip(out, points, points[1:]):
        fields = seg.__dict__
        fields["start"] = start
        fields["end"] = end
    return out


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
        """The relation of (tid, trajectory) pairs in any order, sorted by tid.

        Raises:
            PredicateTypeError: pairs are not (str, Trajectory) pairs.
            RelationOrderError: a tid repeats.
        """
        try:
            rows = [(tid, t) for tid, t in pairs]
        except (TypeError, ValueError):  # not iterable, or an item that is no pair
            rows = None
        if rows is None or not all(
            isinstance(tid, str) and isinstance(t, Trajectory) for tid, t in rows
        ):
            raise PredicateTypeError("a relation is built from (str tid, Trajectory) pairs")
        return cls(tuple(sorted(rows, key=lambda r: r[0])))

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
        PredicateTypeError: props is not a PropertyRelation.
        UnknownTidError: tid not in the relation.
        UnknownPropertyError: no such per-point property for this tid.
    """
    if not isinstance(props, PropertyRelation):
        raise PredicateTypeError(
            f"point properties come from a PropertyRelation, got {type(props).__name__}"
        )
    values = props.point_values(tid, name)
    runs: list[tuple[int, int, PropertyValue]] = []
    for order, value in values:
        if runs and runs[-1][2] == value:
            start, _, v = runs[-1]
            runs[-1] = (start, order, v)
        else:
            runs.append((order, order, value))
    return runs
