"""Relaxed evaluation by site masks against the per-segment ParamSet oracle.

The evaluator decides each clause on one mask of sites per trajectory:
segment ends, threshold crossings and the open cells between them.
``relaxed_paramset_oracle`` walks the same segments one at a time through
the ParamSet algebra. Both use the same crossing divisions, so they must
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
from trajq.evaluate import EvalEnv, _augmented_arrays, eval_relaxed, uniform_strategy
from trajq.geometry import Interval, Region, lerp
from trajq.model import build_trajectory, segments
from trajq.predicate import parse_predicate, validate
from trajq.relations import allen_catalog, de9im_catalog
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
    ],
)
def test_overflowing_difference_is_an_error_not_an_answer(samples, text):
    t = build_trajectory(samples)
    env = EvalEnv({"R": Region(-1.0, 0.0, 1e308, 1.0), "I": Interval(0.0, 1.0)})
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
