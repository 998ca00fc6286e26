"""Relaxed evaluation by site masks against the per-segment ParamSet oracle.

The evaluator decides each clause on one mask of sites per trajectory:
segment ends, threshold crossings and the open cells between them.
``relaxed_paramset_oracle`` walks the same segments one at a time through
the ParamSet algebra. Both read the same ``box_crossings``, so they must
agree on every input, including paths that touch a border only on a set
of measure zero, which the dense-sampling oracle cannot decide.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_predicate
from trajq.errors import CrossingOverflowError, TrajqError
from trajq.evaluate import RELAXED, EvalEnv, _augmented_arrays, eval_relaxed, uniform_strategy
from trajq.geometry import Interval, Region, lerp
from trajq.model import build_trajectory, segments
from trajq.predicate import parse_predicate, validate
from trajq.relations import De9imLabel, allen_catalog, classify_de9im, de9im_catalog
from trajq.testing import ResampleSpec, relaxed_paramset_oracle, resample

BOUNDARY_PREDICATES = (
    "EXISTS p IN T: p WITHIN R AND NOT (p INSIDE R)",
    "FORALL p IN T: p WITHIN R AND NOT (p INSIDE R)",
    "EXISTS p IN TFL: p WITHIN I AND NOT (p INSIDE I)",
    "FORALL p IN TFL: NOT (p OUTSIDE R) OR p BEFORE I",
    "EXISTS p IN T: NOT (p OUTSIDE R) AND NOT (p INSIDE R) AND p WITHIN I AND NOT (p INSIDE I)",
    "EXISTS p IN TFL: p WITHIN R AND NOT (p INSIDE R) AND p OUTSIDE I",
    "FORALL p IN T: p OUTSIDE R OR p INSIDE R",
)
PREDICATES = tuple(
    parse_predicate(text)
    for text in (
        *(text for _, text, _ in de9im_catalog()),
        *(text for _, text, _ in allen_catalog()),
        *BOUNDARY_PREDICATES,
    )
)
assert len(PREDICATES) == 32 + len(BOUNDARY_PREDICATES)

GRID = (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)
TAU_GRID = (0.0, 10.0, 20.0, 30.0)


def _near(values, step):
    return st.sampled_from(tuple(v + d for v in values for d in (-step, 0.0, step)))


@st.composite
def instances(draw):
    """A region and an interval on a grid, and a path whose vertices often
    sit exactly on (or 1e-9 beside) their bounds, holds its position for
    zero-length segments and advances time by steps as small as 1e-9."""
    x_min, x_max = sorted(draw(st.lists(st.sampled_from(GRID), min_size=2, max_size=2, unique=True)))
    y_min, y_max = sorted(draw(st.lists(st.sampled_from(GRID), min_size=2, max_size=2, unique=True)))
    tau_s, tau_e = sorted(draw(st.lists(st.sampled_from(TAU_GRID), min_size=2, max_size=2, unique=True)))
    coord = st.one_of(
        _near(GRID, 1e-9), st.floats(-2.0, 4.0), st.floats(-1e12, 1e12)
    )
    tau = st.one_of(_near(TAU_GRID, 1e-9), st.floats(-5.0, 35.0))
    taus = sorted(draw(st.lists(tau, min_size=1, max_size=7, unique=True)))
    samples = []
    for tau_value in taus:
        if samples and draw(st.booleans()):
            x, y = samples[-1][0], samples[-1][1]
        else:
            x, y = draw(coord), draw(coord)
        samples.append((x, y, tau_value))
    env = EvalEnv(
        {
            "R": Region(x_min, y_min, x_max, y_max),
            "I": Interval(tau_s, tau_e),
            "S": Region(x_min, y_min, x_max + 1.0, y_max + 1e-9),
        }
    )
    return build_trajectory(samples), env, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(instances())
def test_site_masks_agree_with_paramset_oracle(instance):
    t, env, seed = instance
    rng = random.Random(seed)
    randoms = [random_predicate(rng) for _ in range(8)]
    asts = PREDICATES + tuple(a for a in randoms if not validate(a, env.bindings))
    disagreements = [
        (ast, want, got)
        for ast in asts
        if (got := eval_relaxed(ast, t, env)) != (want := relaxed_paramset_oracle(ast, t, env))
    ]
    assert disagreements == [], f"{len(disagreements)} disagreements on {t}"


@pytest.mark.parametrize(
    "samples,text",
    [
        ([(-1e308, 0.5, 0.0), (1e308, 0.5, 1.0)], "EXISTS p IN T: p INSIDE R"),
        ([(0.5, 0.5, -1e308), (0.5, 0.5, 1e308)], "EXISTS p IN T: p INSIDE I"),
        # tau_e - tau_0 overflows, tau_s - tau_0 does not: every atom that
        # reads tau_e is an error
        *(
            ([(0.5, 0.5, -1e308), (0.5, 0.5, -0.9e308)], f"EXISTS p IN T: p {op} I")
            for op in ("INSIDE", "AFTER", "OUTSIDE")
        ),
    ],
)
def test_overflowing_difference_is_an_error_not_an_answer(samples, text):
    t = build_trajectory(samples)
    env = EvalEnv({"R": Region(-1.0, 0.0, 1e308, 1.0), "I": Interval(0.0, 1e308)})
    ast = parse_predicate(text)
    for evaluator in (eval_relaxed, relaxed_paramset_oracle):
        with pytest.raises(CrossingOverflowError) as exc:
            evaluator(ast, t, env)
        assert isinstance(exc.value, TrajqError) and isinstance(exc.value, ValueError)


def test_flat_coordinate_far_from_threshold_is_not_an_overflow():
    t = build_trajectory([(-1e308, 0.5, 0.0), (-1e308, 0.75, 1.0)])
    env = EvalEnv({"R": Region(-1.0, 0.0, 1e308, 1.0)})
    ast = parse_predicate("FORALL p IN T: p OUTSIDE R")
    assert eval_relaxed(ast, t, env) is relaxed_paramset_oracle(ast, t, env) is True


def test_before_reads_only_the_start_of_the_interval():
    # tau_e - tau_0 overflows, but BEFORE reads only tau_s - tau_0
    t = build_trajectory([(0.5, 0.5, -1e308), (0.5, 0.5, -0.9e308)])
    env = EvalEnv({"I": Interval(0.0, 1e308)})
    ast = parse_predicate("EXISTS p IN T: p BEFORE I")
    assert eval_relaxed(ast, t, env) is relaxed_paramset_oracle(ast, t, env) is True


# ROADMAP item 1's witnesses. Crossings are divisions (v - c0) / (c1 - c0)
# in parameter space, so at large magnitudes distinct crossings collapse
# onto each other or onto a vertex, and differences overflow. Each test
# asserts the right answer, so ordering the crossings in coordinate space
# makes it pass, and its strict xfail mark then fails until removed.
SQUARE = Region(-1.0, -1.0, 1.0, 1.0)
ENTERS = {De9imLabel.R095, De9imLabel.R223}  # as (-2, 0.5) -> (2, 0.5) gets


def _relaxed_labels(*xs):
    """The relaxed labels of the walk along y = 0.5 through the given xs."""
    t = build_trajectory([(x, 0.5, float(i)) for i, x in enumerate(xs)])
    return classify_de9im(t, SQUARE, RELAXED)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the crossings collapse: {R095}")
def test_huge_straight_path_enters_the_square():
    assert _relaxed_labels(-2.0, 2.0) == ENTERS
    assert _relaxed_labels(-1e300, 1e300) == ENTERS


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="crossings round onto pl: set()")
def test_labels_do_not_depend_on_the_direction_of_travel():
    assert _relaxed_labels(-2.0, 1e248) == ENTERS
    assert _relaxed_labels(1e248, -2.0) == ENTERS


@pytest.mark.xfail(strict=True, raises=CrossingOverflowError, reason="tau_1 - tau_0 overflows")
def test_time_span_over_the_whole_float_range_meets_the_interval():
    t = build_trajectory([(0.5, 0.5, -1e308), (0.5, 0.5, 1e308)])
    ast = parse_predicate("EXISTS p IN T: p INSIDE I")
    assert eval_relaxed(ast, t, EvalEnv({"I": Interval(-1.0, 1.0)})) is True


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="a crossing rounds onto pl: set()")
def test_a_crossing_just_before_the_last_point_stays_before_it():
    # y leaves R at a parameter just below 1 that rounds to 1, the point
    # where x reaches the face x = 0; the exact path never meets R
    r = Region(0.0, -1.0, 3.0, 0.5)
    t = build_trajectory([(-1.0, 4e11, 0.0), (0.0, -1.000000001, 1.0)])
    back = build_trajectory([(0.0, -1.000000001, 0.0), (-1.0, 4e11, 1.0)])
    ast = parse_predicate("FORALL p IN T: p OUTSIDE R")
    assert eval_relaxed(ast, t, EvalEnv({"R": r})) is True
    assert classify_de9im(back, r, RELAXED) == {De9imLabel.R031}
    assert classify_de9im(t, r, RELAXED) == {De9imLabel.R031}


def _scalar_augmented(t, lams):
    out = [(t.points[0].x, t.points[0].y, t.points[0].tau)]
    for seg in segments(t):
        out.extend(lerp(seg, lam) for lam in lams)
        out.append((seg.end.x, seg.end.y, seg.end.tau))
    return np.array(out).reshape(-1, 3).T


@pytest.mark.parametrize("k", [0, 1, 4, 100])
def test_vector_interpolation_is_bitwise_scalar_lerp(k):
    rng = random.Random(7100 + k)
    lams = [(j + 1) / (k + 1) for j in range(k)]
    for _ in range(50):
        n = rng.randint(1, 8)
        tau = 0.0
        samples = []
        for _ in range(n):
            tau += rng.choice((1e-9, rng.uniform(0.0, 100.0)))
            samples.append((rng.uniform(-1e6, 1e6), rng.uniform(-3, 3), tau))
        t = build_trajectory(samples)
        want = _scalar_augmented(t, lams)
        got = np.array(_augmented_arrays(t, uniform_strategy(k)))
        assert got.tobytes() == want.tobytes()
        if k:
            dense = resample(t, ResampleSpec(k))
            assert np.array([dense.xs, dense.ys, dense.taus]).tobytes() == want.tobytes()
