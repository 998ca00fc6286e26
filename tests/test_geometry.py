import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajq.errors import InvalidGeometryError, OutOfRangeError
from trajq.geometry import (
    EMPTY_SET,
    FULL_SET,
    Interval,
    ParamInterval,
    ParamSet,
    PointClass,
    Region,
    SegmentParams,
    TimeClass,
    _spans,
    box_crossings,
    box_holds,
    box_sites,
    classify_point_region,
    classify_time_interval,
    densify,
    lerp,
)
from trajq.model import Segment, TrajectoryPoint

UNIT = Region(0, 0, 1, 1)


def seg(a, b):
    return Segment(
        TrajectoryPoint(0, a[0], a[1], a[2]), TrajectoryPoint(1, b[0], b[1], b[2])
    )


def test_region_validation():
    with pytest.raises(InvalidGeometryError):
        Region(1, 0, 1, 1)
    with pytest.raises(InvalidGeometryError):
        Region(0, 2, 1, 1)
    with pytest.raises(InvalidGeometryError):
        Interval(5, 5)
    with pytest.raises(InvalidGeometryError):
        Region(0, 0, math.inf, 1)


def test_bounds_that_are_not_numbers_are_invalid_geometry():
    for make in (
        lambda: Region("a", 0, 1, 1),
        lambda: Region(0, 0, 1, None),
        lambda: Interval(None, 1),
        lambda: Interval(0, "1"),
    ):
        with pytest.raises(InvalidGeometryError) as exc:
            make()
        assert isinstance(exc.value, ValueError)


def test_point_classification():
    assert classify_point_region(0.5, 0.5, UNIT) is PointClass.INTERIOR
    assert classify_point_region(0, 0, UNIT) is PointClass.BOUNDARY
    assert classify_point_region(2, 2, UNIT) is PointClass.EXTERIOR
    assert classify_point_region(1, 0.5, UNIT) is PointClass.BOUNDARY
    assert classify_point_region(0.5, -1e-300, UNIT) is PointClass.EXTERIOR


def test_time_classification():
    i = Interval(100, 140)
    assert classify_time_interval(115, i) is TimeClass.INTERIOR
    assert classify_time_interval(140, i) is TimeClass.BOUNDARY
    assert classify_time_interval(100, i) is TimeClass.BOUNDARY
    assert classify_time_interval(150, i) is TimeClass.AFTER
    assert classify_time_interval(90, i) is TimeClass.BEFORE


@given(
    st.floats(-5, 5, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
)
def test_point_partition(x, y):
    classes = [c for c in PointClass if classify_point_region(x, y, UNIT) is c]
    assert len(classes) == 1


def test_lerp_endpoints_exact():
    s = seg((0.1, 0.2, 0.3), (0.7, 0.8, 0.9))
    assert lerp(s, 0.0) == (0.1, 0.2, 0.3)
    assert lerp(s, 1.0) == (0.7, 0.8, 0.9)
    assert lerp(seg((0, 0, 0), (2, 4, 10)), 0.5) == (1, 2, 5)
    with pytest.raises(OutOfRangeError):
        lerp(s, 1.5)
    with pytest.raises(OutOfRangeError):
        lerp(s, -0.1)


# --- ParamSet algebra ---------------------------------------------------


def _interval(lo, hi, lo_closed, hi_closed):
    return ParamInterval(lo, hi, lo_closed, hi_closed)


def test_paramset_normalization_merges_touching():
    s = ParamSet.from_intervals(
        [_interval(0.5, 1.0, True, True), _interval(0.0, 0.5, True, False)]
    )
    assert s == FULL_SET
    again = ParamSet.from_intervals(s.intervals)
    assert again == s


def test_paramset_disjoint_touching_open_stays_split():
    s = ParamSet.from_intervals(
        [_interval(0.0, 0.5, True, False), _interval(0.5, 1.0, False, True)]
    )
    assert len(s.intervals) == 2
    assert not s.contains(0.5)


def test_paramset_complement():
    s = ParamSet.from_intervals([_interval(0.25, 0.5, True, False)])
    c = s.complement()
    assert c.contains(0.0) and c.contains(0.5) and c.contains(1.0)
    assert not c.contains(0.25) and not c.contains(0.3)
    assert s.complement().complement() == s
    assert EMPTY_SET.complement() == FULL_SET
    assert FULL_SET.complement() == EMPTY_SET


unit_floats = st.floats(0, 1, allow_nan=False)


@st.composite
def param_sets(draw):
    n = draw(st.integers(0, 4))
    intervals = []
    for _ in range(n):
        a = draw(unit_floats)
        b = draw(unit_floats)
        lo, hi = min(a, b), max(a, b)
        lo_c = draw(st.booleans())
        hi_c = draw(st.booleans())
        if lo == hi and not (lo_c and hi_c):
            lo_c = hi_c = True
        intervals.append(_interval(lo, hi, lo_c, hi_c))
    return ParamSet.from_intervals(intervals)


@given(param_sets(), param_sets(), unit_floats)
def test_paramset_boolean_algebra(a, b, lam):
    assert a.union(b).contains(lam) == (a.contains(lam) or b.contains(lam))
    assert a.intersect(b).contains(lam) == (a.contains(lam) and b.contains(lam))
    assert a.complement().contains(lam) == (not a.contains(lam))


@given(param_sets())
def test_paramset_normalized_form(s):
    for left, right in zip(s.intervals, s.intervals[1:]):
        assert left.hi <= right.lo
        if left.hi == right.lo:
            # touching components may coexist only when both sides are open
            assert not (left.hi_closed or right.lo_closed)
    for iv in s.intervals:
        assert 0.0 <= iv.lo <= iv.hi <= 1.0
        if iv.lo == iv.hi:
            assert iv.lo_closed and iv.hi_closed


# --- segment classification --------------------------------------------


def test_horizontal_crossing_interior_params():
    s = seg((-1, 0.5, 0), (2, 0.5, 10))
    interior = SegmentParams(s).region(UNIT, PointClass.INTERIOR)
    (iv,) = interior.intervals
    assert (iv.lo, iv.hi) == (1 / 3, 2 / 3)
    assert not iv.lo_closed and not iv.hi_closed
    assert [type(v) for v in (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed)] == [float, float, bool, bool]


def test_fully_inside_segment():
    s = seg((0.2, 0.2, 0), (0.8, 0.8, 10))
    assert SegmentParams(s).region(UNIT, PointClass.INTERIOR) == FULL_SET
    assert SegmentParams(s).region(UNIT, PointClass.EXTERIOR) == EMPTY_SET


def test_collinear_edge_segment_is_boundary():
    s = seg((0, 0, 0), (1, 0, 10))
    assert SegmentParams(s).region(UNIT, PointClass.BOUNDARY) == FULL_SET
    assert SegmentParams(s).region(UNIT, PointClass.INTERIOR) == EMPTY_SET


def test_zero_length_segment_classifies_as_point():
    inside = seg((0.5, 0.5, 0), (0.5, 0.5, 10))
    assert SegmentParams(inside).region(UNIT, PointClass.INTERIOR) == FULL_SET
    outside = seg((3, 3, 0), (3, 3, 10))
    assert SegmentParams(outside).region(UNIT, PointClass.EXTERIOR) == FULL_SET
    assert SegmentParams(outside).region(UNIT, PointClass.INTERIOR) == EMPTY_SET


def test_interval_params_half_open_at_border():
    i = Interval(100, 140)
    s = seg((0, 0, 120), (1, 0, 140))
    interior = SegmentParams(s).interval(i, TimeClass.INTERIOR)
    (iv,) = interior.intervals
    assert (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) == (0.0, 1.0, True, False)
    boundary = SegmentParams(s).interval(i, TimeClass.BOUNDARY)
    (bv,) = boundary.intervals
    assert (bv.lo, bv.hi) == (1.0, 1.0)


def test_interval_params_after_and_before():
    i = Interval(100, 140)
    assert SegmentParams(seg((0, 0, 150), (1, 0, 160))).interval(i, TimeClass.AFTER) == FULL_SET
    before = SegmentParams(seg((0, 0, 90), (1, 0, 110))).interval(i, TimeClass.BEFORE)
    (bv,) = before.intervals
    assert (bv.lo, bv.hi, bv.lo_closed, bv.hi_closed) == (0.0, 0.5, True, False)
    assert [type(v) for v in (bv.lo, bv.hi, bv.lo_closed, bv.hi_closed)] == [float, float, bool, bool]


def _random_segment(rng):
    return seg(
        (rng.uniform(-2, 2), rng.uniform(-2, 2), 0),
        (rng.uniform(-2, 2), rng.uniform(-2, 2), 10),
    )


def test_region_params_partition_and_agree_pointwise():
    rng = random.Random(20240817)
    for _ in range(300):
        s = _random_segment(rng)
        sets = {c: SegmentParams(s).region(UNIT, c) for c in PointClass}
        union = sets[PointClass.INTERIOR].union(sets[PointClass.BOUNDARY]).union(
            sets[PointClass.EXTERIOR]
        )
        assert union == FULL_SET
        for lam in (rng.uniform(0, 1) for _ in range(40)):
            x, y, _ = lerp(s, lam)
            cls = classify_point_region(x, y, UNIT)
            for c in PointClass:
                assert sets[c].contains(lam) == (cls is c)


def test_interval_params_partition():
    rng = random.Random(7)
    i = Interval(3, 8)
    for _ in range(300):
        t0 = rng.uniform(0, 12)
        s = seg((0, 0, t0), (1, 1, t0 + rng.uniform(0.5, 10)))
        sets = [SegmentParams(s).interval(i, c) for c in TimeClass]
        union = sets[0]
        for other in sets[1:]:
            assert union.intersect(other) == EMPTY_SET
            union = union.union(other)
        assert union == FULL_SET


# Crossings at, beside and beyond the ends of [0, 1]
CROSSINGS = (-math.inf, -1.0, 0.0, 5e-324, 0.5, 1 - 2**-53, 1.0, 1 + 2**-52, 2.0, math.inf)


@pytest.mark.parametrize("edge", (False, True), ids=("off-face", "edge"))
@pytest.mark.parametrize("closed", (True, False), ids=("closed", "open"))
def test_box_holds_agrees_with_the_spans_of_each_segment(closed, edge):
    """box_holds against the ParamSets of geometry._spans, for every pair
    (enter, leave) of CROSSINGS: at each site of the box_sites layout, on
    each cell between sites by its exact midpoint, and over the whole
    segment. Each segment runs from (0, 0, c) to (1, 1, c) through the box
    [enter, inf] x [-inf, leave] x [0, 1], which it crosses at exactly
    enter and leave; with c = 0 it runs flat along a face."""
    c = 0.0 if edge else 0.5
    segments = [
        ((0.0, 0.0, c), (1.0, 1.0, c), (a, -math.inf, 0.0), (math.inf, b, 1.0))
        for a, b in itertools.product(CROSSINGS, repeat=2)
    ]
    crossings = [
        box_crossings(np.array(s)[:, None], np.array(e)[:, None], lo, hi)
        for s, e, lo, hi in segments
    ]
    crossings = tuple(np.concatenate(col) for col in zip(*crossings))
    assert list(zip(*(col.tolist() for col in crossings))) == [
        (lo[0], hi[1], edge) for _, _, lo, hi in segments
    ]
    spans = [_spans(*s)[0 if closed else 1] for s in segments]

    at = box_sites([crossings])
    assert at.T.tolist() == [
        sorted(min(max(v, 0.0), 1.0) for v in (0.0, 1.0, lo[0], hi[1])) for _, _, lo, hi in segments
    ]
    holds = box_holds(crossings, closed, at)
    sites, cells = holds[: len(at)], holds[len(at) :]
    for i, span in enumerate(spans):
        assert sites[:, i].tolist() == [span.contains(lam) for lam in at[:, i].tolist()]
        for left, right, on_cell in zip(at[:-1, i].tolist(), at[1:, i].tolist(), cells[:, i]):
            if left < right:
                assert on_cell == span.contains((Fraction(left) + Fraction(right)) / 2)
    assert box_holds(crossings, closed).tolist() == [not span.is_empty for span in spans]


@st.composite
def polyline_sites(draw):
    """Columns of n points and sorted (segment, parameter) sites on them."""
    n = draw(st.integers(1, 30))
    xs, ys, taus = (
        np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))) for _ in range(3)
    )
    site = st.tuples(st.integers(0, n - 2), st.floats(0, 1))
    sites = sorted(draw(st.lists(site, max_size=60))) if n > 1 else []
    seg = np.array([s for s, _ in sites], dtype=np.int64)
    return xs, ys, taus, seg, np.array([lam for _, lam in sites], dtype=np.float64)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(polyline_sites())
def test_densify_inserts_as_np_insert_does(case):
    # The reference inserts each column's points with np.insert; densify
    # writes each column once, and must give the same bits.
    xs, ys, taus, seg, lam = case
    want = [np.insert(c, seg + 1, (1.0 - lam) * c[seg] + lam * c[seg + 1]) for c in (xs, ys, taus)]
    got = densify(xs, ys, taus, seg, lam)
    assert [c.dtype for c in got] == [np.float64] * 3
    assert [c.tobytes() for c in got] == [c.tobytes() for c in want]
