"""Predicate evaluation under the three strictness modes.

The fixed fixtures here are the bird-crossing trajectory (all points
outside the query rectangle, path passing through it) and the three-row
selection example (Ta grazing the query window, Tb inside it, Tc south
of it). Randomized tests pin the mode-ordering and duality laws and the
convergence of dense uniform sampling to the exact relaxed result.
"""

import importlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FACE_PATHS,
    ORACLE_PREDICATES,
    WITNESS_REGION,
    generic_instance,
    random_interval,
    random_region,
    random_trajectory,
    witness_path,
)
from trajq.errors import (
    PredicateTypeError,
    StrategyOutputError,
    StrategyParameterError,
    UnknownStrategyError,
    UnsupportedStrictnessError,
    ValidationFailedError,
)
from trajq.evaluate import (
    DEFAULT_UNIFORM_K,
    MAX_UNIFORM_K,
    RELAXED,
    STRICT,
    ApproxStrategy,
    EvalEnv,
    Strictness,
    _uniform,
    approximated,
    eval_approximated,
    eval_relaxed,
    eval_strict,
    evaluate,
    register_strategy,
    resolve_strategy,
    select_st,
    uniform_strategy,
)
from trajq.geometry import (
    Interval,
    densify,
    PointClass,
    Region,
    TimeClass,
    classify_point_region,
    classify_time_interval,
)
from trajq.model import Segment, TrajectoriesRelation, build_trajectory
from trajq.predicate import parse_predicate

# The package's function ``evaluate`` shadows its submodule of that name.
evaluation = importlib.import_module("trajq.evaluate")

CROSSING = build_trajectory(
    [(0.5, 1.5, 100), (2.2, 0.9, 110), (3.5, 0.35, 120), (5.4, 0.25, 130)]
)
CROSS_ENV = EvalEnv({"R": Region(2.65, 0.6, 4.5, 1.75)})
Q1 = parse_predicate("EXISTS p IN T: p INSIDE R")
Q2 = parse_predicate("FORALL p IN T: p OUTSIDE R")

SELECTION = TrajectoriesRelation.from_pairs(
    [
        (
            "Ta",
            build_trajectory(
                [(1, 1.5, 110), (2, 1.75, 120), (3, 1.75, 130), (4, 1.4, 140), (3, 0.8, 150)]
            ),
        ),
        (
            "Tb",
            build_trajectory(
                [(1, 1, 100), (2, 1.125, 110), (3, 1.25, 120), (4, 1, 130), (5, 1.25, 140)]
            ),
        ),
        (
            "Tc",
            build_trajectory(
                [(1, 0.5, 120), (2, 0.3, 130), (3, 0.3, 140), (4, 0.3, 150), (5, 0.4, 160)]
            ),
        ),
    ]
)
SELECT_ENV = EvalEnv({"R": Region(1.5, 0.5, 4.5, 1.5), "I": Interval(100, 140)})
COMBINED = parse_predicate("EXISTS p IN T: p WITHIN R AND p WITHIN I")


def test_crossing_exists_inside():
    assert eval_strict(Q1, CROSSING, CROSS_ENV) is False
    assert eval_relaxed(Q1, CROSSING, CROSS_ENV) is True
    assert eval_approximated(Q1, CROSSING, CROSS_ENV, uniform_strategy(1000)) is True


def test_crossing_forall_outside():
    assert eval_strict(Q2, CROSSING, CROSS_ENV) is True
    assert eval_relaxed(Q2, CROSSING, CROSS_ENV) is False
    assert eval_approximated(Q2, CROSSING, CROSS_ENV, uniform_strategy(1000)) is False


def test_combined_selection_relaxed():
    kept = select_st(SELECTION, COMBINED, SELECT_ENV, RELAXED).tids()
    assert "Tb" in kept
    assert "Tc" not in kept


def test_combined_selection_point_level():
    assert eval_strict(COMBINED, SELECTION.get("Tb"), SELECT_ENV) is True
    assert eval_strict(COMBINED, SELECTION.get("Tc"), SELECT_ENV) is False
    assert eval_relaxed(COMBINED, SELECTION.get("Tc"), SELECT_ENV) is False


def test_select_subset_and_idempotent():
    once = select_st(SELECTION, COMBINED, SELECT_ENV, RELAXED)
    twice = select_st(once, COMBINED, SELECT_ENV, RELAXED)
    assert set(once.tids()) <= set(SELECTION.tids())
    assert twice == once
    empty = TrajectoriesRelation(())
    assert select_st(empty, COMBINED, SELECT_ENV, RELAXED) == empty


def test_select_identity_under_covering_region():
    ast = parse_predicate("FORALL p IN T: p WITHIN R")
    env = EvalEnv({"R": Region(-100, -100, 100, 100)})
    assert select_st(SELECTION, ast, env, STRICT) == SELECTION
    assert select_st(SELECTION, ast, env, RELAXED) == SELECTION


def test_ground_clauses_ignore_strictness():
    ast = parse_predicate("pf OUTSIDE R AND pl OUTSIDE R")
    for result in (
        eval_strict(ast, CROSSING, CROSS_ENV),
        eval_relaxed(ast, CROSSING, CROSS_ENV),
        eval_approximated(ast, CROSSING, CROSS_ENV, uniform_strategy(7)),
    ):
        assert result is True


EDGE_REGION = Region(-1.5, 0.25, 2.0, 3.0)
EDGE_INTERVAL = Interval(100.0, 140.5)
# The scalar reference: the classes in which each op holds.
REGION_CLASSES = {
    "WITHIN": {PointClass.INTERIOR, PointClass.BOUNDARY},
    "INSIDE": {PointClass.INTERIOR},
    "OUTSIDE": {PointClass.EXTERIOR},
}
TIME_CLASSES = {
    "WITHIN": {TimeClass.INTERIOR, TimeClass.BOUNDARY},
    "INSIDE": {TimeClass.INTERIOR},
    "OUTSIDE": {TimeClass.BEFORE, TimeClass.AFTER},
    "BEFORE": {TimeClass.BEFORE},
    "AFTER": {TimeClass.AFTER},
}


def _edge_values(*bounds):
    """Each bound, one float step to either side of it, and a value between."""
    out = [(bounds[0] + bounds[-1]) / 2]
    for b in bounds:
        out += [math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)]
    return out


def _ground_modes(ast, t, env):
    return (
        eval_strict(ast, t, env),
        eval_relaxed(ast, t, env),
        eval_approximated(ast, t, env, uniform_strategy(3)),
    )


def _with_end(subject, x, y, tau):
    """A three-point trajectory whose pf or pl is (x, y, tau)."""
    if subject == "pf":
        return build_trajectory([(x, y, tau), (50.0, -50.0, tau + 1), (-50.0, 50.0, tau + 2)])
    return build_trajectory([(50.0, -50.0, tau - 2), (-50.0, 50.0, tau - 1), (x, y, tau)])


@pytest.mark.parametrize("subject", ("pf", "pl"))
@pytest.mark.parametrize("op", sorted(REGION_CLASSES))
def test_ground_region_atoms_on_edges_and_corners(op, subject):
    r = EDGE_REGION
    env = EvalEnv({"R": r})
    ast = parse_predicate(f"{subject} {op} R")
    negated = parse_predicate(f"NOT ({subject} {op} R)")
    for x in _edge_values(r.x_min, r.x_max):
        for y in _edge_values(r.y_min, r.y_max):
            t = _with_end(subject, x, y, 120.0)
            expected = classify_point_region(x, y, r) in REGION_CLASSES[op]
            assert _ground_modes(ast, t, env) == (expected,) * 3, (x, y)
            assert _ground_modes(negated, t, env) == (not expected,) * 3, (x, y)


@pytest.mark.parametrize("subject", ("pf", "pl"))
@pytest.mark.parametrize("op", sorted(TIME_CLASSES))
def test_ground_time_atoms_on_interval_ends(op, subject):
    i = EDGE_INTERVAL
    env = EvalEnv({"I": i})
    ast = parse_predicate(f"{subject} {op} I")
    negated = parse_predicate(f"NOT ({subject} {op} I)")
    for tau in _edge_values(i.tau_s, i.tau_e):
        t = _with_end(subject, 0.0, 0.0, tau)
        expected = classify_time_interval(tau, i) in TIME_CLASSES[op]
        assert _ground_modes(ast, t, env) == (expected,) * 3, tau
        assert _ground_modes(negated, t, env) == (not expected,) * 3, tau


@pytest.mark.parametrize(
    "path, text, want",
    [
        ("arrives", "EXISTS p IN T: p WITHIN R", True),
        ("arrives", "EXISTS p IN T: p INSIDE R", False),
        ("leaves", "EXISTS p IN T: p WITHIN R", True),
        ("leaves", "EXISTS p IN T: p INSIDE R", False),
        ("crosses", "EXISTS p IN TFL: p INSIDE R", True),
        ("crosses", "FORALL p IN TFL: p INSIDE R", True),
        ("slides along", "EXISTS p IN T: p INSIDE R", False),
        ("slides along", "FORALL p IN T: p WITHIN R", True),
    ],
)
def test_relaxed_answers_on_a_face(path, text, want):
    t, env = witness_path(FACE_PATHS[path]), EvalEnv({"R": WITNESS_REGION})
    assert eval_relaxed(parse_predicate(text), t, env) is want


def test_vacuous_inner_domain_two_points():
    two = build_trajectory([(0, 0, 0), (10, 0, 10)])
    env = EvalEnv({"R": Region(-1, -1, 11, 1)})
    assert eval_strict(parse_predicate("FORALL p IN TFL: p INSIDE R"), two, env) is True
    assert eval_strict(parse_predicate("EXISTS p IN TFL: p WITHIN R"), two, env) is False
    # the relaxed inner domain is the open polyline, which is non-empty here
    assert eval_relaxed(parse_predicate("EXISTS p IN TFL: p WITHIN R"), two, env) is True


def test_single_point_trajectory():
    one = build_trajectory([(2, 2, 50)])
    env = EvalEnv({"R": Region(0, 0, 4, 4)})
    def approx(ast, t, env):
        return eval_approximated(ast, t, env, uniform_strategy(3))

    for mode_eval in (eval_strict, eval_relaxed, approx):
        assert mode_eval(parse_predicate("EXISTS p IN T: p INSIDE R"), one, env) is True
        assert mode_eval(parse_predicate("FORALL p IN T: p INSIDE R"), one, env) is True
        assert mode_eval(parse_predicate("EXISTS p IN TFL: p WITHIN R"), one, env) is False
        assert mode_eval(parse_predicate("FORALL p IN TFL: p INSIDE R"), one, env) is True


def test_zero_point_strategy_equals_strict():
    noop = ApproxStrategy("noop", lambda seg: ())
    rng = random.Random(4821)
    for _ in range(100):
        t = random_trajectory(rng, 1, 6)
        env = EvalEnv({"R": random_region(rng), "I": random_interval(rng)})
        for text in ORACLE_PREDICATES:
            ast = parse_predicate(text)
            assert eval_approximated(ast, t, env, noop) == eval_strict(ast, t, env)


def test_midpoint_strategy_sees_interior():
    t = build_trajectory([(0, 0, 0), (2, 2, 10)])
    env = EvalEnv({"R": Region(0.9, 0.9, 1.1, 1.1)})
    ast = parse_predicate("EXISTS p IN T: p INSIDE R")
    assert eval_strict(ast, t, env) is False
    assert eval_approximated(ast, t, env, uniform_strategy(1)) is True


def test_uniform_strategy_grid():
    grid = uniform_strategy(3).point_generator(None)
    assert grid == (0.25, 0.5, 0.75)
    assert uniform_strategy(0).point_generator(None) == ()
    with pytest.raises(StrategyParameterError) as exc:
        uniform_strategy(-1)
    assert isinstance(exc.value, ValueError)


def test_uniform_count_that_is_not_an_integer_is_a_parameter_error():
    for k in (1.5, "x", None):
        with pytest.raises(StrategyParameterError):
            uniform_strategy(k)
    for k in (1.5, "x"):
        with pytest.raises(StrategyParameterError) as exc:
            evaluate(Q1, CROSSING, CROSS_ENV, approximated("uniform", k))
        assert isinstance(exc.value, ValueError)
    assert evaluate(Q1, CROSSING, CROSS_ENV, approximated("uniform", np.int64(50))) is True


def test_uniform_count_is_bounded():
    assert len(uniform_strategy(MAX_UNIFORM_K).point_generator(None)) == MAX_UNIFORM_K
    for k in (MAX_UNIFORM_K + 1, 10**8, 10**23):
        with pytest.raises(StrategyParameterError) as exc:
            resolve_strategy("uniform", k)
        assert f"from 0 to {MAX_UNIFORM_K}" in str(exc.value)
    with pytest.raises(StrategyParameterError):
        evaluate(Q1, CROSSING, CROSS_ENV, approximated("uniform", 10**23))


def test_bool_count_is_a_parameter_error():
    with pytest.raises(StrategyParameterError, match="got True"):
        evaluate(Q1, CROSSING, CROSS_ENV, approximated("uniform", True))


def test_strategy_that_is_no_approx_strategy_is_a_parameter_error():
    with pytest.raises(StrategyParameterError, match="got 5"):
        eval_approximated(Q1, CROSSING, CROSS_ENV, 5)


@pytest.mark.parametrize("name, factory", [(5, None), ("n", None), (5, uniform_strategy), ("n", 5)])
def test_registering_a_bad_name_or_factory_is_a_parameter_error(name, factory):
    with pytest.raises(StrategyParameterError):
        register_strategy(name, factory)
    with pytest.raises(UnknownStrategyError):  # nothing was registered
        evaluate(Q1, CROSSING, CROSS_ENV, approximated(name))


def test_strategy_with_no_callable_generator_is_a_parameter_error():
    with pytest.raises(StrategyParameterError, match="got None"):
        ApproxStrategy("x", None)


def test_factory_that_returns_no_approx_strategy_is_a_parameter_error(monkeypatch):
    monkeypatch.setattr(evaluation, "_STRATEGY_FACTORIES", dict(evaluation._STRATEGY_FACTORIES))
    register_strategy("junk", lambda param: (0.5,))
    with pytest.raises(StrategyParameterError, match="returned \\(0.5,\\)"):
        evaluate(Q1, CROSSING, CROSS_ENV, approximated("junk"))


def test_unhashable_strategy_name_is_unknown():
    with pytest.raises(UnknownStrategyError):
        evaluate(Q1, CROSSING, CROSS_ENV, approximated(["uniform"]))


def test_uniform_grid_is_built_once_per_count():
    # select_st resolves the strategy for every row it evaluates; the grid
    # of one k is built on the first and reused by the rest.
    rng = random.Random(17)
    rel = TrajectoriesRelation.from_pairs([(f"t{i}", random_trajectory(rng, 2, 9)) for i in range(30)])
    built = _uniform.cache_info
    _uniform.cache_clear()
    select_st(rel, Q1, CROSS_ENV, approximated("uniform", 7))
    assert built().misses == 1
    assert resolve_strategy("uniform", 7) is resolve_strategy("uniform", np.int64(7))
    with pytest.raises(StrategyParameterError):  # checked before the cache is asked
        resolve_strategy("uniform", MAX_UNIFORM_K + 1)
    assert built().misses == 1


def test_strategy_registry():
    strategy = resolve_strategy("uniform", None)
    assert len(strategy.point_generator(None)) == DEFAULT_UNIFORM_K
    assert len(resolve_strategy("uniform", 5).point_generator(None)) == 5
    with pytest.raises(UnknownStrategyError) as exc:
        resolve_strategy("walkers")
    assert "uniform" in str(exc.value)

    register_strategy("half", lambda param: ApproxStrategy("half", lambda seg: (0.5,)))
    assert resolve_strategy("half").point_generator(None) == (0.5,)


def test_evaluate_dispatch_and_fail_fast():
    assert evaluate(Q1, CROSSING, CROSS_ENV, STRICT) is False
    assert evaluate(Q1, CROSSING, CROSS_ENV, RELAXED) is True
    assert evaluate(Q1, CROSSING, CROSS_ENV, approximated("uniform", 50)) is True
    with pytest.raises(UnknownStrategyError):
        evaluate(Q1, CROSSING, CROSS_ENV, approximated("walkers"))
    # unknown strategies are rejected before any row is touched
    with pytest.raises(UnknownStrategyError):
        select_st(TrajectoriesRelation(()), Q1, CROSS_ENV, approximated("walkers"))
    with pytest.raises(UnsupportedStrictnessError) as exc:
        evaluate(Q1, CROSSING, CROSS_ENV, Strictness("fuzzy"))
    assert isinstance(exc.value, ValueError)
    # and so are unknown kinds
    with pytest.raises(UnsupportedStrictnessError):
        select_st(TrajectoriesRelation(()), Q1, CROSS_ENV, Strictness("fuzzy"))


def test_misbehaving_strategy_rejected():
    t = build_trajectory([(0, 0, 0), (1, 1, 10)])
    env = EvalEnv({"R": Region(0, 0, 4, 4)})
    ast = parse_predicate("EXISTS p IN T: p INSIDE R")
    for bad in ((1.5,), (0.7, 0.3), (float("nan"),), None, ["a"], [[0.5]], [object()]):
        with pytest.raises(StrategyOutputError, match="'bad'") as exc:
            eval_approximated(ast, t, env, ApproxStrategy("bad", lambda seg: bad))
        assert isinstance(exc.value, ValueError)

    def own_error(seg):
        raise ValueError("the strategy's own fault")

    # an error the strategy raises itself is not mistaken for bad output
    with pytest.raises(ValueError, match="own fault"):
        eval_approximated(ast, t, env, ApproxStrategy("own", own_error))
    with pytest.raises(StrategyOutputError) as exc:
        eval_approximated(ast, t, env, ApproxStrategy("bad", lambda seg: None))
    assert isinstance(exc.value.__cause__, TypeError)


# The containers a strategy may return its parameters in.
CONTAINERS = {
    "tuple": tuple,
    "list": list,
    "generator": lambda lams: (lam for lam in lams),
    "array": np.array,
}


@pytest.mark.parametrize("wrap", CONTAINERS.values(), ids=CONTAINERS)
def test_strategy_sees_each_segment_once_in_order_whatever_it_returns(wrap):
    t = build_trajectory([(0, 0, 0), (1, 2, 1), (1, 2, 2), (-3, 0.5, 4)])
    seen = []

    def generate(seg):
        seen.append(seg)
        return wrap(() if seg.index == 1 else (0.0, 0.25, 0.5, 1.0))

    got = evaluation._augmented_arrays(t, ApproxStrategy("s", generate))
    assert seen == [Segment(a, b) for a, b in zip(t.points, t.points[1:])]
    assert all(type(seg) is Segment for seg in seen)
    # 0 and 1 are the segment's ends, so segments 0 and 2 gain 0.25 and 0.5
    want = densify(t.xs, t.ys, t.taus, np.array([0, 0, 2, 2]), np.array([0.25, 0.5] * 2))
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("wrap", CONTAINERS.values(), ids=CONTAINERS)
def test_strategy_output_is_checked_whatever_it_returns(wrap):
    t = build_trajectory([(0, 0, 0), (1, 1, 10), (2, 0, 20)])
    for bad, message in (
        ((1.5,), "parameter 1.5 outside"),
        ((float("nan"),), "parameter nan outside"),
        ((0.7, 0.3), "unsorted"),
        (("a",), "other than a sequence of real numbers"),
        ((object(),), "other than a sequence of real numbers"),
        ((2**1100,), "other than a sequence of real numbers"),  # no float holds it
    ):
        strategy = ApproxStrategy("bad", lambda seg: wrap(bad))
        with pytest.raises(StrategyOutputError, match=message):
            evaluation._augmented_arrays(t, strategy)


def test_unvalidated_predicate_rejected():
    ast = parse_predicate("EXISTS p IN T: p INSIDE S")
    with pytest.raises(ValidationFailedError):
        eval_strict(ast, CROSSING, CROSS_ENV)
    with pytest.raises(ValidationFailedError):
        select_st(SELECTION, ast, CROSS_ENV, STRICT)

    def never(seg):
        raise AssertionError("strategy called before validation")

    with pytest.raises(ValidationFailedError):
        eval_approximated(ast, CROSSING, CROSS_ENV, ApproxStrategy("never", never))


def test_predicate_text_is_a_type_error():
    with pytest.raises(PredicateTypeError, match="got str"):
        evaluate("EXISTS p IN T: p INSIDE R", CROSSING, CROSS_ENV, STRICT)


def test_environment_without_bindings_is_a_type_error():
    ast = parse_predicate("EXISTS p IN T: p INSIDE R")
    for rel in (SELECTION, TrajectoriesRelation(())):  # checked before the rows
        with pytest.raises(PredicateTypeError, match="EvalEnv"):
            select_st(rel, ast, EvalEnv(None), STRICT)


@pytest.mark.parametrize("binding", ["x", (0, 0, 1, 1)])
def test_binding_that_is_no_region_is_a_validation_failure(binding):
    ast = parse_predicate("EXISTS p IN T: p INSIDE R")
    for mode in (STRICT, RELAXED, approximated("uniform", 2)):
        with pytest.raises(ValidationFailedError, match="not a Region or an Interval"):
            evaluate(ast, CROSSING, EvalEnv({"R": binding}), mode)


def test_rows_that_are_no_trajectories_are_a_type_error():
    ast = parse_predicate("EXISTS p IN T: p INSIDE R")
    with pytest.raises(PredicateTypeError, match="TrajectoriesRelation, got list"):
        select_st(list(SELECTION.rows), ast, CROSS_ENV, STRICT)
    for mode in (STRICT, RELAXED, approximated("uniform", 2)):
        with pytest.raises(PredicateTypeError, match="Trajectory, got tuple"):
            evaluate(ast, ((0, 0, 0), (1, 1, 1)), CROSS_ENV, mode)


EXISTENTIAL = tuple(
    parse_predicate(text)
    for text in (
        "EXISTS p IN T: p WITHIN R",
        "EXISTS p IN T: p INSIDE R",
        "EXISTS p IN T: p WITHIN R AND p WITHIN I",
        "EXISTS p IN TFL: p INSIDE R",
    )
)
UNIVERSAL = tuple(
    parse_predicate(text)
    for text in (
        "FORALL p IN T: p WITHIN R",
        "FORALL p IN T: p INSIDE R",
        "FORALL p IN T: p WITHIN I",
        "FORALL p IN TFL: p WITHIN R",
    )
)


def _random_case(seed):
    rng = random.Random(seed)
    t = random_trajectory(rng, 1, 6)
    env = EvalEnv({"R": random_region(rng), "I": random_interval(rng)})
    return t, env


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(EXISTENTIAL))
def test_existential_monotone_in_strictness(seed, ast):
    t, env = _random_case(seed)
    strict = eval_strict(ast, t, env)
    approx = eval_approximated(ast, t, env, uniform_strategy(3))
    relax = eval_relaxed(ast, t, env)
    if strict:
        assert approx
    if approx:
        assert relax


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(UNIVERSAL))
def test_universal_antitone_in_strictness(seed, ast):
    t, env = _random_case(seed)
    strict = eval_strict(ast, t, env)
    approx = eval_approximated(ast, t, env, uniform_strategy(3))
    relax = eval_relaxed(ast, t, env)
    if relax:
        assert approx
    if approx:
        assert strict


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_inside_outside_never_both(seed):
    t, env = _random_case(seed)
    for mode in (STRICT, RELAXED, approximated("uniform", 4)):
        assert not (evaluate(Q1, t, env, mode) and evaluate(Q2, t, env, mode))


_DUAL_BODIES = (
    "p WITHIN R",
    "p INSIDE R AND p WITHIN I",
    "p OUTSIDE R OR p BEFORE I",
    "NOT (p INSIDE R)",
)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(_DUAL_BODIES),
    st.sampled_from(("T", "TFL")),
)
def test_quantifier_duality(seed, body, domain):
    t, env = _random_case(seed)
    exists = parse_predicate(f"EXISTS p IN {domain}: {body}")
    forall_not = parse_predicate(f"FORALL p IN {domain}: NOT ({body})")
    for mode in (STRICT, RELAXED, approximated("uniform", 4)):
        assert evaluate(exists, t, env, mode) == (not evaluate(forall_not, t, env, mode))


def test_dense_uniform_sampling_converges_to_relaxed():
    """On generic instances a 1000-point-per-segment grid cannot miss any
    truth change of the body, so strict evaluation over the grid must agree
    with the exact continuum result."""
    k = 1000
    dense = uniform_strategy(k)
    asts = [parse_predicate(text) for text in ORACLE_PREDICATES]
    rng = random.Random(90125)
    for trial in range(10_000):
        t, r, i = generic_instance(rng, k)
        env = EvalEnv({"R": r, "I": i})
        ast = asts[trial % len(asts)]
        exact = eval_relaxed(ast, t, env)
        sampled = eval_approximated(ast, t, env, dense)
        assert sampled == exact, (trial, ast, t)
