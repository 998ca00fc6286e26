import pickle
import random
from dataclasses import FrozenInstanceError, astuple, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trajq.errors import (
    EmptyTrajectoryError,
    NonFiniteValueError,
    NonMonotoneTimeError,
    PointOrderError,
    PredicateTypeError,
    RelationOrderError,
    TrajqError,
    UnknownPropertyError,
    UnknownTidError,
)
from trajq.model import (
    PropertyRelation,
    Segment,
    TrajectoriesRelation,
    Trajectory,
    TrajectoryPoint,
    build_trajectory,
    first_point,
    inner_points,
    last_point,
    segment_property_view,
    segments,
    time_span,
)

FIG_TABLE = [(1.0, 0.5, 110), (2.0, 1.0, 120), (4.0, 1.5, 130), (4.0, 1.5, 140), (3.0, 0.5, 150)]


def test_build_assigns_orders():
    t = build_trajectory(FIG_TABLE)
    assert [p.order for p in t.points] == [0, 1, 2, 3, 4]
    assert t.points[2].x == 4.0 and t.points[2].tau == 130.0


def test_single_point_is_legal():
    t = build_trajectory([(0, 0, 0)])
    assert [p.order for p in t.points] == [0]
    assert first_point(t) is last_point(t)
    assert inner_points(t) == ()
    assert segments(t) == ()
    assert time_span(t) == (0.0, 0.0)


def test_empty_rejected():
    with pytest.raises(EmptyTrajectoryError):
        build_trajectory([])


def test_equal_timestamps_rejected():
    with pytest.raises(NonMonotoneTimeError) as exc:
        build_trajectory([(0, 0, 10), (1, 1, 10)])
    assert "order 1" in str(exc.value)


def test_decreasing_timestamps_rejected():
    with pytest.raises(NonMonotoneTimeError):
        build_trajectory([(0, 0, 10), (1, 1, 5)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_rejected(bad):
    with pytest.raises(NonFiniteValueError):
        build_trajectory([(0, bad, 0)])


def test_endpoint_views():
    t = build_trajectory(FIG_TABLE)
    assert (first_point(t).order, first_point(t).x) == (0, 1.0)
    assert (last_point(t).order, last_point(t).x) == (4, 3.0)
    assert [p.order for p in inner_points(t)] == [1, 2, 3]


def test_two_points_have_no_inner():
    assert inner_points(build_trajectory([(0, 0, 0), (1, 0, 1)])) == ()


def test_segments_pair_consecutive_points():
    t = build_trajectory(FIG_TABLE)
    segs = segments(t)
    assert len(segs) == 4
    zero_length = segs[2]
    assert zero_length.index == 2
    assert (zero_length.start.x, zero_length.start.y) == (zero_length.end.x, zero_length.end.y)
    assert zero_length.end.tau > zero_length.start.tau


@given(
    st.lists(
        st.tuples(
            st.floats(-100, 100, allow_nan=False),
            st.floats(-100, 100, allow_nan=False),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_segment_chain_reproduces_points(coords):
    t = build_trajectory([(x, y, i) for i, (x, y) in enumerate(coords)])
    segs = segments(t)
    assert len(segs) == len(t.points) - 1
    chained = [s.start for s in segs] + [t.points[-1]] if segs else list(t.points)
    assert chained == list(t.points)
    if len(t.points) >= 2:
        partition = [first_point(t), *inner_points(t), last_point(t)]
        assert partition == list(t.points)


def test_relation_sorts_and_indexes():
    ta = build_trajectory([(0, 0, 0)])
    tb = build_trajectory([(1, 1, 0), (2, 2, 5)])
    rel = TrajectoriesRelation.from_pairs([("b", tb), ("a", ta)])
    assert rel.tids() == ("a", "b")
    assert rel.get("b") is tb
    assert len(rel) == 2
    with pytest.raises(UnknownTidError):
        rel.get("zzz")


def test_malformed_rows_raise_typed_value_errors():
    t = build_trajectory([(0, 0, 0)])
    with pytest.raises(PointOrderError):
        Trajectory([0.0, 1.0], [0.0], [0.0, 1.0])
    with pytest.raises(RelationOrderError):
        TrajectoriesRelation((("a", t), ("a", t)))
    with pytest.raises(RelationOrderError):
        TrajectoriesRelation((("b", t), ("a", t)))
    for cls in (PointOrderError, RelationOrderError):
        assert issubclass(cls, TrajqError) and issubclass(cls, ValueError)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_trajectory([(0, 0)]),
        lambda: build_trajectory([(0, 0, "a")]),
        lambda: build_trajectory([(0, 0, 0, 0)]),
        lambda: Trajectory([0.0, 1.0], [0.0, 1.0], [0.0]),
    ],
    ids=["two-numbers", "not-a-number", "four-numbers", "unequal-columns"],
)
def test_malformed_samples_raise_point_order_error(build):
    with pytest.raises(PointOrderError):
        build()


def test_property_lookup_and_errors():
    pr = PropertyRelation(
        {"T0": {"species": "goose"}},
        {"T0": {"movement_type": ((0, "walking"), (1, "walking"), (2, "flying"))}},
    )
    assert pr.trajectory_value("T0", "species") == "goose"
    assert pr.point_values("T0", "movement_type")[2] == (2, "flying")
    with pytest.raises(UnknownTidError):
        pr.trajectory_value("T1", "species")
    with pytest.raises(UnknownPropertyError):
        pr.trajectory_value("T0", "color")
    with pytest.raises(UnknownPropertyError):
        pr.point_values("T0", "speed")


def _point_props(values):
    return PropertyRelation(
        {"T": {}}, {"T": {"p": tuple((i, v) for i, v in enumerate(values))}}
    )


def test_segment_property_view_runs():
    fig4 = _point_props(["walking", "walking", "flying", "flying", "flying"])
    assert segment_property_view(fig4, "T", "p") == [
        (0, 1, "walking"),
        (2, 4, "flying"),
    ]


def test_segment_property_view_single_point():
    assert segment_property_view(_point_props(["v"]), "T", "p") == [(0, 0, "v")]


def test_segment_property_view_alternating():
    assert segment_property_view(_point_props(["w", "f", "w"]), "T", "p") == [
        (0, 0, "w"),
        (1, 1, "f"),
        (2, 2, "w"),
    ]


@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=40))
def test_segment_property_view_partitions(values):
    runs = segment_property_view(_point_props(values), "T", "p")
    covered = []
    for (start, end, value), nxt in zip(runs, runs[1:] + [None]):
        assert start <= end
        assert all(values[i] == value for i in range(start, end + 1))
        covered.extend(range(start, end + 1))
        if nxt is not None:
            assert nxt[0] == end + 1 and nxt[2] != value
    assert covered == list(range(len(values)))


def test_box_bounds_the_points_and_takes_tau_from_the_ends():
    t = build_trajectory([(3, -1, 0.5), (-2, 4, 1), (0, 0, 7)])
    assert t.box == ((-2.0, 3.0), (-1.0, 4.0), (0.5, 7.0))
    assert build_trajectory([(1, 2, 3)]).box == ((1.0, 1.0), (2.0, 2.0), (3.0, 3.0))
    runs = Trajectory.from_runs([5, 1, 9, 2], [0, 8, 3, 3], [0, 1, 0, 4], [0, 2])
    assert [r.box.xs for r in runs] == [(1.0, 5.0), (2.0, 9.0)]
    assert runs[1].box.taus == (0.0, 4.0)
    assert t.box is t.box  # computed once, then kept


def test_relation_from_pairs_that_are_no_str_trajectory_pairs_is_a_type_error():
    t = build_trajectory([(0, 0, 0)])
    # tids that do not sort together, a value that is no trajectory, items
    # that are no pairs, and no iterable at all
    for pairs in ([(1, t), ("b", t)], [("a", 5)], [(1, t)], [5], [("a",)], [("a", t, t)], None):
        with pytest.raises(PredicateTypeError, match="pairs"):
            TrajectoriesRelation.from_pairs(pairs)
    assert TrajectoriesRelation.from_pairs(iter([("b", t), ("a", t)])).tids() == ("a", "b")
    with pytest.raises(RelationOrderError):
        TrajectoriesRelation.from_pairs([("a", t), ("a", t)])


def test_segment_property_view_of_no_property_relation_is_a_type_error():
    for props in (5, None, {"T": {}}):
        with pytest.raises(PredicateTypeError, match="PropertyRelation"):
            segment_property_view(props, "a", "b")


# --- records built without the dataclass constructor ----------------------


def _walk(n: int, seed: int = 3) -> Trajectory:
    rng = random.Random(seed)
    return build_trajectory(
        (rng.uniform(-1e3, 1e3), rng.choice((0.0, -0.0, rng.uniform(-1, 1))), float(i))
        for i in range(n)
    )


def test_points_and_segments_are_built_without_the_record_constructors(monkeypatch):
    calls = []
    for cls in (TrajectoryPoint, Segment):
        init = cls.__init__

        def counted(self, *args, init=init, **kwargs):
            calls.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    t = _walk(1000)
    points, segs = t.points, segments(t)
    assert (len(points), len(segs), calls) == (1000, 999, [])
    Segment(points[0], points[1])  # the patch counts a constructor call
    assert calls == [Segment]


def test_records_equal_hash_and_print_as_constructed_ones():
    t = _walk(60)
    columns = zip(t.xs.tolist(), t.ys.tolist(), t.taus.tolist())
    points = [TrajectoryPoint(i, x, y, tau) for i, (x, y, tau) in enumerate(columns)]
    segs = [Segment(a, b) for a, b in zip(points, points[1:])]
    for made, want in (*zip(t.points, points), *zip(segments(t), segs)):
        assert type(made) is type(want) and made == want and not made != want
        assert hash(made) == hash(want) and repr(made) == repr(want)
        assert astuple(made) == astuple(want) and vars(made) == vars(want)
        assert pickle.loads(pickle.dumps(made)) == want
    assert len(t.points) == len(points) and len(segments(t)) == len(segs)
    assert segments(t)[5].index == 5
    assert replace(t.points[3], x=2.5) == TrajectoryPoint(3, 2.5, points[3].y, points[3].tau)
    assert t.points[0] != Segment(points[0], points[1]) and t.points[0] != astuple(points[0])
    point, seg = t.points[0], segments(t)[0]
    for record, name, value in ((point, "x", 1.0), (point, "order", 7), (seg, "start", point)):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, value)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)
    with pytest.raises(FrozenInstanceError):
        point.extra = 1
    assert point == points[0] and seg == segs[0]
