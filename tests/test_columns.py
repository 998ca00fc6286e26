"""The columnar trajectory: three read-only float64 columns, validated at once.

``Trajectory(xs, ys, taus)`` checks finiteness and time order with array
operations. The reference below is the per-point loop that validated the
earlier point-tuple storage; the constructor must reject exactly the same
inputs, with the same error type naming the same point. ``from_runs``
applies the same rule once to concatenated runs: it must build what the
constructor builds from each run, or raise what it raises for the first
faulty run.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trajq.errors import (
    EmptyTrajectoryError,
    NonFiniteValueError,
    NonMonotoneTimeError,
    PointOrderError,
)
from trajq.model import (
    Trajectory,
    TrajectoryPoint,
    build_trajectory,
    first_point,
    inner_points,
    last_point,
    segments,
    time_span,
)


def reference_check(xs, ys, taus) -> None:
    """Per-point validation as the point-tuple model did it."""
    points = tuple(TrajectoryPoint(i, x, y, tau) for i, (x, y, tau) in enumerate(zip(xs, ys, taus)))
    if not points:
        raise EmptyTrajectoryError("a trajectory needs at least one point")
    for i, p in enumerate(points):
        if not (math.isfinite(p.x) and math.isfinite(p.y) and math.isfinite(p.tau)):
            raise NonFiniteValueError(f"point {i} has a non-finite coordinate or timestamp")
    for a, b in zip(points, points[1:]):
        if not b.tau > a.tau:
            raise NonMonotoneTimeError(
                f"tau must increase strictly: order {a.order} has tau={a.tau}, "
                f"order {b.order} has tau={b.tau}"
            )


finite = st.floats(-1e308, 1e308)


@st.composite
def columns(draw):
    """Columns with strictly increasing taus, then possibly a few defects:
    a non-finite value, a tau that stalls or runs back, at random places."""
    taus = sorted(set(draw(st.lists(finite, max_size=12))))
    n = len(taus)
    cols = [draw(st.lists(finite, min_size=n, max_size=n)) for _ in range(2)] + [taus]
    if n:
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, n - 1))
            if draw(st.booleans()):
                col = draw(st.integers(0, 2))
                cols[col][i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            elif i > 0:
                taus[i] = draw(st.sampled_from([taus[i - 1], draw(finite)]))
    return cols


def _outcome(check, cols):
    try:
        check(*cols)
    except (EmptyTrajectoryError, NonFiniteValueError, NonMonotoneTimeError) as exc:
        return type(exc), str(exc)
    return None


@settings(derandomize=True, max_examples=400)
@given(columns())
def test_vectorised_validation_matches_the_per_point_loop(cols):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(Trajectory, cols) == _outcome(reference_check, cols)


def test_columns_are_read_only_float64_copies():
    xs, ys, taus = np.array([0, 1, 2]), np.array([0.0, 1.0, 4.0]), [10, 20, 30]
    t = Trajectory(xs, ys, taus)
    for col, given_col in ((t.xs, xs), (t.ys, ys)):
        assert col.dtype == np.float64 and not col.flags.writeable
        assert not np.shares_memory(col, given_col)
    with pytest.raises(ValueError):
        t.taus[0] = -1.0
    ys[0] = 99.0
    assert t.ys.tolist() == [0.0, 1.0, 4.0]
    rev = Trajectory(t.xs[::-1], t.ys[::-1], t.taus)
    assert rev.xs.tolist() == [2.0, 1.0, 0.0] and not np.shares_memory(rev.taus, t.taus)


@settings(derandomize=True)
@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=20))
def test_point_views_reproduce_the_columns(coords):
    t = build_trajectory((x, y, float(i)) for i, (x, y) in enumerate(coords))
    cols = list(zip(t.xs.tolist(), t.ys.tolist(), t.taus.tolist()))
    assert [(p.order, (p.x, p.y, p.tau)) for p in t.points] == list(enumerate(cols))
    assert list(t) == list(t.points) and len(t) == len(coords)
    assert [(s.start, s.end) for s in segments(t)] == list(zip(t.points, t.points[1:]))
    assert inner_points(t) == t.points[1:-1]
    assert (first_point(t), last_point(t)) == (t.points[0], t.points[-1])
    assert time_span(t) == (t.taus[0], t.taus[-1])
    assert all(type(v) is float for v in time_span(t))


def test_equality_is_by_value_and_treats_negative_zero_as_zero():
    a = Trajectory([0.0, -0.0], [-0.0, 1.0], [-0.0, 1.0])
    b = build_trajectory([(0, 0, 0), (0, 1, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != build_trajectory([(0, 0, 0), (0, 2, 1)])
    assert a != build_trajectory([(0, 0, 0)])
    assert a != "not a trajectory"


def test_extreme_timestamps_validate_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = Trajectory([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [-1e308, 0.0, 1e308])
        assert time_span(t) == (-1e308, 1e308)
        with pytest.raises(NonMonotoneTimeError, match="order 1 has tau=1e\\+308"):
            Trajectory([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [-1e308, 1e308, -1e308])


@settings(derandomize=True, max_examples=400)
@given(st.lists(columns(), min_size=1, max_size=4))
def test_batch_validation_is_the_constructor_rule_per_run(runs):
    runs = [cols for cols in runs if cols[2]]
    assume(runs)
    starts = np.cumsum([0] + [len(cols[2]) for cols in runs[:-1]])
    xs, ys, taus = (np.concatenate([np.array(c, dtype=float) for c in cols]) for cols in zip(*runs))
    want = next(filter(None, (_outcome(Trajectory, cols) for cols in runs)), None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(Trajectory.from_runs, (xs, ys, taus, starts)) == want
    if want is None:
        built = Trajectory.from_runs(xs, ys, taus, starts)
        assert built == tuple(Trajectory(*cols) for cols in runs)
        for t in built:
            for col, whole in ((t.xs, xs), (t.ys, ys), (t.taus, taus)):
                assert not col.flags.writeable and np.shares_memory(col, whole)


@pytest.mark.parametrize("starts", [[], [1], [0, 0], [0, 2, 1], [0, 3], [[0]]])
def test_batch_runs_must_rise_strictly_from_zero_within_the_columns(starts):
    with pytest.raises(PointOrderError, match="run starts"):
        Trajectory.from_runs([0, 1, 2], [0, 1, 2], [0, 1, 2], starts)


def test_batch_of_no_points_is_an_empty_trajectory():
    with pytest.raises(EmptyTrajectoryError):
        Trajectory.from_runs([], [], [], [0])
