"""``box_crossings`` against the same crossings in exact rational arithmetic.

Every finite float converts to a ``Fraction`` exactly, so the reference
below computes each crossing (v - c0) / (c1 - c0) with no rounding at all.
It is the independent check of the float arithmetic that the evaluator,
the NF² segment condition and the per-segment class sets all read.

The float answer must match it in three ways:

- it raises ``CrossingOverflowError`` exactly when some exact difference
  c1 - c0, or v - c0 for a finite bound on an axis that is not flat,
  rounds to an infinity, that is, reaches 2^1024 - 2^970 in magnitude;
- otherwise the edge flag is exact and infinite crossings (flat axes,
  half-line bounds) are exact;
- a finite crossing is within 4 roundings of the exact one when that lies
  in [-2, 2], and otherwise lies on the same side of [0, 1].
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trajq.errors import CrossingOverflowError
from trajq.geometry import box_crossings

OVERFLOW = Fraction(2**1024 - 2**970)  # the least magnitude that rounds to inf
ULP_1 = Fraction(1, 2**53)
TINY = Fraction(1, 2**1070)

SPECIAL = (
    0.0, 0.5, 1.0, 3.0, 1e-9, 4e11, 1e12, 5e-324, 2.0**-1022, 1e300, 1e308, 1.7e308,
    2.0**1023, 2.0**1023 - 2.0**970, 2.0**1023 - 2.0**971, sys.float_info.max,
)
COORDS = st.one_of(
    st.sampled_from(SPECIAL + tuple(-v for v in SPECIAL)),
    st.floats(-4.0, 4.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


def exact_crossings(starts, ends, lo, hi):
    """(enter, leave, edge) of one segment in the closed box lo <= c <= hi,
    computed over Fractions; None where an exact difference overflows."""
    enter, leave, edge = -math.inf, math.inf, False
    for c0, c1, lo_v, hi_v in zip(starts, ends, lo, hi):
        c0 = Fraction(c0)
        d = Fraction(c1) - c0
        if abs(d) >= OVERFLOW:
            return None
        if d == 0:
            inside = lo_v <= c0 <= hi_v
            a, b = (-math.inf, math.inf) if inside else (math.inf, -math.inf)
            edge = edge or c0 == lo_v or c0 == hi_v
        else:
            at = []
            for v in (lo_v, hi_v):
                if math.isinf(v):
                    at.append(v if d > 0 else -v)
                    continue
                num = Fraction(v) - c0
                if abs(num) >= OVERFLOW:
                    return None
                at.append(num / d)
            a, b = min(at), max(at)
        enter, leave = max(enter, a), min(leave, b)
    return enter, leave, edge


def _close(got: float, want) -> bool:
    if not isinstance(want, Fraction):  # an infinity
        return got == want
    if -2 <= want <= 2:
        return math.isfinite(got) and abs(Fraction(got) - want) <= 4 * ULP_1 * abs(want) + TINY
    return got < 0.0 if want < 0 else got > 1.0


@st.composite
def crossing_rows(draw):
    """One box of one or two axes, each bound possibly infinite, and up to
    four segments whose ends often sit on a bound, or hold still."""
    axes = draw(st.integers(1, 2))
    lo, hi = [], []
    for _ in range(axes):
        a, b = draw(COORDS), draw(COORDS)
        assume(a != b)
        a, b = min(a, b), max(a, b)
        lo.append(-math.inf if draw(st.integers(0, 3)) == 0 else a)
        hi.append(math.inf if draw(st.integers(0, 3)) == 0 else b)
    rows = draw(st.integers(1, 4))
    starts, ends = np.empty((axes, rows)), np.empty((axes, rows))
    for k in range(axes):
        bounds = [v for v in (lo[k], hi[k]) if math.isfinite(v)]
        near = st.one_of(st.sampled_from(bounds), COORDS) if bounds else COORDS
        for i in range(rows):
            starts[k, i] = draw(near)
            ends[k, i] = starts[k, i] if draw(st.booleans()) else draw(near)
    return starts, ends, lo, hi


@settings(max_examples=600, deadline=None, derandomize=True)
@given(crossing_rows())
def test_box_crossings_match_exact_rational_crossings(case):
    starts, ends, lo, hi = case
    want = [exact_crossings(starts[:, i], ends[:, i], lo, hi) for i in range(starts.shape[1])]
    if None in want:
        with pytest.raises(CrossingOverflowError):
            box_crossings(starts, ends, lo, hi)
        return
    enter, leave, edge = box_crossings(starts, ends, lo, hi)
    for i, (want_enter, want_leave, want_edge) in enumerate(want):
        assert edge[i] == want_edge, (i, case)
        assert _close(enter.item(i), want_enter), (i, enter[i], want_enter, case)
        assert _close(leave.item(i), want_leave), (i, leave[i], want_leave, case)
