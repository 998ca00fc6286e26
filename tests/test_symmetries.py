"""Exact symmetries: answers that must not change when the input is moved.

Negating x or y (with every region mirrored), swapping x and y (regions
too), and scaling space or time by a power of two (regions or intervals
too) change no float comparison the engines make: every coordinate,
bound, difference and quotient they compute is moved exactly, as long as
nothing overflows or becomes subnormal. So ``select_st`` answers,
``classify_de9im`` and ``classify_allen`` labels, region signatures and the
16 compiled NF² plans must give the same result before and after each
transform, in strict, relaxed and approximated mode. Metamorphic testing
(Chen, Cheung and Yiu, HKUST-CS98-01, 1998): a fault that breaks one of
these symmetries shows up without knowing the right answer.

The inputs are the boundary-heavy instances of ``test_relaxed_sites``
(vertices on and one step beside the bounds, zero-length and flat
segments), each joined by a path that touches a face of the region from
inside and by up to three short paths whose coordinates are the bounds of
the region and interval, their midpoints, points as far outside, or one
step beside any of these, so that a path often touches a bound exactly.
Approximated mode runs with ``uniform`` for k in {0, 1, 4} and ``half``
under every transform, and with ``test-skewed``, which picks its
parameters by the direction of travel along x, under scaling only.
Reversing the direction of travel is no such symmetry today (ROADMAP item
1(a)). Approximated sites are computed coordinates, so they can leave the
path (ROADMAP item 9); that case is pinned below as a strict xfail.
"""

import random
from typing import Callable, NamedTuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import test_de9im_signature  # noqa: F401  (registers the "test-skewed" strategy)
from helpers import random_predicate
from test_relaxed_sites import PREDICATES, TAU_GRID, _near, instances
from trajq.errors import TrajqError
from trajq.evaluate import (
    RELAXED,
    STRICT,
    ApproxStrategy,
    EvalEnv,
    approximated,
    evaluate,
    region_signature,
    register_strategy,
    select_st,
)
from trajq.geometry import Interval, Region
from trajq.model import TrajectoriesRelation, Trajectory, build_trajectory
from trajq.nf2 import compile_spatial, compile_temporal, execute, trajectories_to_nf2
from trajq.predicate import parse_predicate, validate
from trajq.relations import AllenLabel, De9imLabel, classify_allen, classify_de9im

register_strategy("half", lambda param: ApproxStrategy("half", lambda seg: (0.5,)))

# The modes every transform keeps; test-skewed reads the direction of
# travel along x, which only scaling keeps.
MODES = (
    STRICT,
    RELAXED,
    *(approximated("uniform", k) for k in (0, 1, 4)),
    approximated("half"),
)
SCALING_MODES = (*MODES, approximated("test-skewed"))

SPATIAL = (De9imLabel.R031, De9imLabel.R179, De9imLabel.R223, De9imLabel.R247, De9imLabel.R255)
TEMPORAL = (
    AllenLabel.PRECEDES,
    AllenLabel.OVERLAPS,
    AllenLabel.DURING,
    AllenLabel.PRECEDED_BY,
    AllenLabel.OVERLAPPED_BY,
    AllenLabel.CONTAINS,
)


class Transform(NamedTuple):
    """A move of the plane or of time: how it maps the columns of a
    trajectory, a region and an interval, and the modes it keeps."""

    name: str
    columns: Callable
    region: Callable[[Region], Region]
    interval: Callable[[Interval], Interval]
    modes: tuple

    def __call__(self, paths: list, env: EvalEnv) -> tuple[list, EvalEnv]:
        moved = {
            name: self.region(v) if isinstance(v, Region) else self.interval(v)
            for name, v in env.bindings.items()
        }
        return [Trajectory(*self.columns(t.xs, t.ys, t.taus)) for t in paths], EvalEnv(moved)


def _same(v):
    return v


MIRRORS = (
    Transform(
        "mirror x",
        lambda xs, ys, taus: (-xs, ys, taus),
        lambda r: Region(-r.x_max, r.y_min, -r.x_min, r.y_max),
        _same,
        MODES,
    ),
    Transform(
        "mirror y",
        lambda xs, ys, taus: (xs, -ys, taus),
        lambda r: Region(r.x_min, -r.y_max, r.x_max, -r.y_min),
        _same,
        MODES,
    ),
    Transform(
        "swap x and y",
        lambda xs, ys, taus: (ys, xs, taus),
        lambda r: Region(r.y_min, r.x_min, r.y_max, r.x_max),
        _same,
        MODES,
    ),
)


def _scale_space(f: float) -> Transform:
    return Transform(
        f"scale space by {f}",
        lambda xs, ys, taus: (xs * f, ys * f, taus),
        lambda r: Region(r.x_min * f, r.y_min * f, r.x_max * f, r.y_max * f),
        _same,
        SCALING_MODES,
    )


def _scale_time(f: float) -> Transform:
    return Transform(
        f"scale time by {f}",
        lambda xs, ys, taus: (xs, ys, taus * f),
        _same,
        lambda i: Interval(i.tau_s * f, i.tau_e * f),
        SCALING_MODES,
    )


# Powers of two that keep the instances' values (at most 1e12 in size, and
# no nonzero one below 1e-200) far from overflow and from subnormals.
POWERS = (2.0**-40, 0.25, 8.0, 2.0**40)
TRANSFORMS = st.one_of(
    st.sampled_from(MIRRORS),
    st.sampled_from(POWERS).map(_scale_space),
    st.sampled_from(POWERS).map(_scale_time),
)
# Every kind of transform at once: the mirrors, the swap and one scaling
# of space and of time.
ALL_TRANSFORMS = st.tuples(st.sampled_from(POWERS), st.sampled_from(POWERS)).map(
    lambda powers: (*MIRRORS, _scale_space(powers[0]), _scale_time(powers[1]))
)


def _normal(t: Trajectory) -> bool:
    """Whether no coordinate is subnormal or near it, where a scaled
    product would round differently."""
    return all(v == 0.0 or abs(v) > 1e-200 for col in (t.xs, t.ys, t.taus) for v in col.tolist())


def _around(lo: float, hi: float):
    half = (hi - lo) / 2
    return _near((lo - half, lo, lo + half, hi, hi + half), 1e-9)


@st.composite
def cases(draw):
    """An instance of ``test_relaxed_sites``, a path from the middle of one
    face of its region R to R's centre, and up to three more paths of up
    to four vertices around R and its interval I, with the seed of the
    instance."""
    t, env, seed = draw(instances())
    r, i = env.bindings["R"], env.bindings["I"]
    middle = ((r.x_min + r.x_max) / 2, (r.y_min + r.y_max) / 2)
    faces = ((r.x_min, middle[1]), (r.x_max, middle[1]), (middle[0], r.y_min), (middle[0], r.y_max))
    touch = draw(st.sampled_from(faces))
    paths = [t, build_trajectory([(*touch, i.tau_s), (*middle, i.tau_e)])]
    for _ in range(draw(st.integers(0, 3))):
        taus = draw(st.lists(_around(i.tau_s, i.tau_e), min_size=1, max_size=4, unique=True))
        n = len(taus)
        xs = draw(st.lists(_around(r.x_min, r.x_max), min_size=n, max_size=n))
        ys = draw(st.lists(_around(r.y_min, r.y_max), min_size=n, max_size=n))
        paths.append(build_trajectory(zip(xs, ys, sorted(taus))))
    return paths, env, seed


def _relation(paths: list) -> TrajectoriesRelation:
    return TrajectoriesRelation(tuple((f"t{i}", t) for i, t in enumerate(paths)))


def _outcome(f, *args):
    """What a call returns, or the type of the TrajqError it raises."""
    try:
        return f(*args)
    except TrajqError as exc:
        return type(exc)


def _assert_invariant(case, transforms, result, modes=SCALING_MODES):
    """``result(paths, env, mode)`` is the same after each transform as
    before it, in each of ``modes`` the transform keeps."""
    paths, env, _ = case
    assume(all(map(_normal, paths)))
    want = {s: result(paths, env, s) for s in modes}
    for transform in transforms:
        moved = transform(paths, env)
        kept = [s for s in modes if s in transform.modes]
        assert {s: result(*moved, s) for s in kept} == {s: want[s] for s in kept}, transform.name


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases(), TRANSFORMS)
def test_select_answers_are_invariant(case, transform):
    rng = random.Random(case[2])
    randoms = (random_predicate(rng) for _ in range(4))
    asts = PREDICATES + tuple(a for a in randoms if not validate(a, case[1].bindings))

    def answers(paths, env, s):
        rel = _relation(paths)
        return [_outcome(lambda: select_st(rel, ast, env, s).tids()) for ast in asts]

    _assert_invariant(case, (transform,), answers, transform.modes)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cases(), ALL_TRANSFORMS)
def test_region_signatures_are_invariant(case, transforms):
    def signatures(paths, env, s):
        return [_outcome(region_signature, t, env.bindings[n], s) for t in paths for n in "RS"]

    _assert_invariant(case, transforms, signatures)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cases(), ALL_TRANSFORMS)
def test_area_labels_are_invariant(case, transforms):
    def labels(paths, env, s):
        return [_outcome(classify_de9im, t, env.bindings[n], s) for t in paths for n in "RS"]

    _assert_invariant(case, transforms, labels)


@st.composite
def spans(draw):
    """An interval on the grid of ``test_relaxed_sites`` and a path whose
    timestamps are its ends, its midpoint, points as far outside, or one
    step beside any of these."""
    tau_s, tau_e = sorted(draw(st.lists(st.sampled_from(TAU_GRID), min_size=2, max_size=2, unique=True)))
    taus = sorted(draw(st.lists(_around(tau_s, tau_e), min_size=1, max_size=3, unique=True)))
    path = build_trajectory((0.0, 0.0, tau) for tau in taus)
    return [path], EvalEnv({"I": Interval(tau_s, tau_e)}), 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spans(), ALL_TRANSFORMS)
def test_allen_labels_are_invariant(case, transforms):
    def labels(paths, env, s):
        return [_outcome(classify_allen, t, env.bindings["I"]) for t in paths]

    _assert_invariant(case, transforms, labels, (STRICT,))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cases(), ALL_TRANSFORMS)
def test_nf2_plan_results_are_invariant(case, transforms):
    def results(paths, env, s):
        r, i = env.bindings["R"], env.bindings["I"]
        plans = [compile_spatial(label, r, s) for label in SPATIAL]
        plans += [compile_temporal(label, i) for label in TEMPORAL]
        nrel = trajectories_to_nf2(_relation(paths))
        return [_outcome(lambda: execute(plan, nrel).column("tid")) for plan in plans]

    _assert_invariant(case, transforms, results, (STRICT, RELAXED))


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="(1 - λ)·0.1 + λ·0.1 rounds off the face (item 9)"
)
def test_approximated_sites_stay_on_a_segment_flat_along_a_face():
    # The segment runs along the left face x = 0.1 of R, so no point of it
    # is inside R; its computed sites can round to x = 0.10000000000000002.
    t = build_trajectory([(0.1, 0.2, 0.0), (0.1, 0.8, 1.0)])
    env = EvalEnv({"R": Region(0.1, 0.0, 1.1, 1.0)})
    ast = parse_predicate("EXISTS p IN T: p INSIDE R")
    assert evaluate(ast, t, env, RELAXED) is False
    assert evaluate(ast, t, env, approximated("uniform", 4)) is False
