"""Area classification by class signature against the formula-by-formula oracle.

``classify_de9im`` computes one signature per trajectory (the classes of pf
and pl, and the classes met over TFL and over T) and looks the labels up in
a table filled by evaluating the catalog formulas on each signature.
``testing.classify_de9im_oracle`` evaluates every formula on the path, and
the direction-sensitive ones on the reversed path too. The two must agree
on every input and in every mode.
"""

import importlib
import itertools
import random

import pytest
from hypothesis import given, settings

from helpers import random_body
from test_relaxed_sites import instances
from trajq.errors import PredicateTypeError, TrajqError, UnsupportedStrictnessError
from trajq.evaluate import (
    RELAXED,
    STRICT,
    ApproxStrategy,
    EvalEnv,
    RegionSignature,
    Strictness,
    approximated,
    evaluate,
    holds_on_signature,
    register_strategy,
    select_st,
)
from trajq.geometry import Interval, Region
from trajq.model import TrajectoriesRelation, build_trajectory
from trajq.nf2 import compile_spatial, compile_temporal
from trajq.predicate import (
    Atom,
    Domain,
    GroundClause,
    Op,
    PointRef,
    Predicate,
    QuantifiedClause,
    Quantifier,
    Var,
    format_predicate,
    parse_predicate,
)
from trajq.relations import (
    DIRECTION_SENSITIVE,
    AllenLabel,
    De9imLabel,
    classify_allen,
    classify_de9im,
    de9im_predicate,
    de9im_signature,
)
from trajq.testing import classify_de9im_oracle

# ``trajq.evaluate`` as an attribute is the re-exported function.
evaluation = importlib.import_module("trajq.evaluate")

UNIT = Region(0.0, 0.0, 1.0, 1.0)
# One representative point per class of UNIT.
POINTS = {"I": (0.5, 0.5), "B": (1.0, 0.25), "E": (2.0, 0.5)}
SUBSETS = ["".join(c for c, keep in zip("IBE", bits) if keep)
           for bits in itertools.product((True, False), repeat=3)]

# Not symmetric under reversal: a segment gets other points walked backwards.
register_strategy(
    "test-skewed",
    lambda k: ApproxStrategy(
        "test-skewed", lambda seg: (0.25,) if seg.end.x >= seg.start.x else (0.6, 0.9)
    ),
)
MODES = (
    STRICT,
    RELAXED,
    *(approximated("uniform", k) for k in (0, 1, 4)),
    approximated("test-skewed"),
)


def _path(classes: str):
    return build_trajectory((*POINTS[c], float(i)) for i, c in enumerate(classes))


@pytest.mark.parametrize("pf,pl", list(itertools.product("IBE", repeat=2)))
def test_every_strict_signature_matches_the_oracle(pf, pl):
    for tfl in SUBSETS:
        t = _path(pf + tfl + pl)
        seen = "".join(c for c in "IBE" if c in pf + tfl + pl)
        assert de9im_signature(t, UNIT, STRICT) == RegionSignature(pf, pl, tfl, seen)
        for normalize in (True, False):
            for labels in (None, *((label,) for label in De9imLabel)):
                want = classify_de9im_oracle(t, UNIT, STRICT, normalize, labels)
                assert classify_de9im(t, UNIT, STRICT, normalize, labels) == want, (
                    t, normalize, labels
                )


def test_the_72_strict_signatures_reach_every_label():
    found = set()
    for pf, pl, tfl in itertools.product("IBE", "IBE", SUBSETS):
        found |= classify_de9im(_path(pf + tfl + pl), UNIT, STRICT)
    assert found == set(De9imLabel)


def test_reversed_site_sets_matter_only_for_boundary_ends():
    # The reversed path is walked only for a forward (pf, pl) of (E, B) or
    # (I, B); for every other pair the direction-sensitive formulas must not
    # read the sets, over all 64 of them, reachable or not.
    for pf, pl in itertools.product("IBE", repeat=2):
        verdicts = {
            frozenset(
                label for label in DIRECTION_SENSITIVE
                if holds_on_signature(de9im_predicate(label), RegionSignature(pl, pf, tfl, t))
            )
            for tfl, t in itertools.product(SUBSETS, repeat=2)
        }
        assert (len(verdicts) > 1) == ((pf, pl) in (("E", "B"), ("I", "B"))), (pf, pl)


def test_reversed_path_is_walked_for_an_asymmetric_strategy():
    # E to B. Forward, the skewed points of the first segment land on the
    # boundary; walked backwards they land inside, which makes the reversed
    # path R479 (it would read R351 from the forward sets).
    t = build_trajectory([(-1.0, 0.5, 0.0), (3.0, 0.5, 1.0), (1.0, 1.0, 2.0)])
    s = approximated("test-skewed")
    assert de9im_signature(t, UNIT, s) == RegionSignature("E", "B", "BE", "BE")
    assert classify_de9im(t, UNIT, s) == classify_de9im_oracle(t, UNIT, s) == {De9imLabel.R479}


_REGION_OPS = (Op.WITHIN, Op.INSIDE, Op.OUTSIDE)
# Vertices on a half-unit grid around UNIT: many lie on its border.
_GRID = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0)


def _single_region_predicate(rng):
    """Ground and quantified clauses whose atoms all test R."""

    def atom(*subjects):
        return lambda: Atom(rng.choice(subjects), rng.choice(_REGION_OPS), "R")

    clauses = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.4:
            body = random_body(rng, atom(PointRef.FIRST, PointRef.LAST), rng.randint(0, 2))
            clauses.append(GroundClause(body))
        else:
            body = random_body(rng, atom(Var("p")), rng.randint(0, 3))
            quantifier, domain = rng.choice(list(Quantifier)), rng.choice(list(Domain))
            clauses.append(QuantifiedClause(quantifier, "p", domain, body))
    return Predicate(tuple(clauses))


def test_signature_lookup_equals_evaluation_for_single_region_predicates():
    rng = random.Random(1990)
    env = EvalEnv({"R": UNIT})
    modes = (
        STRICT,
        RELAXED,
        *(approximated("uniform", k) for k in (0, 1, 3)),
        approximated("test-skewed"),
    )
    for _ in range(400):
        n = rng.randint(1, 5)
        t = build_trajectory((rng.choice(_GRID), rng.choice(_GRID), float(i)) for i in range(n))
        predicates = [_single_region_predicate(rng) for _ in range(10)]
        for s in modes:
            sig = de9im_signature(t, UNIT, s)
            for q in predicates:
                want = evaluate(q, t, env, s)
                assert holds_on_signature(q, sig) == want, (t, s, format_predicate(q))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(instances())
def test_signature_lookup_agrees_with_the_oracle(instance):
    t, env, _seed = instance
    for name in ("R", "S"):
        r = env.bindings[name]
        for s in MODES:
            for normalize in (True, False):
                want = classify_de9im_oracle(t, r, s, normalize)
                assert classify_de9im(t, r, s, normalize) == want, (name, s, normalize)


def test_resolution_loss_segment_keeps_the_oracles_answer():
    # Both crossing parameters round to 0.5, so the relaxed site pass sees
    # the interior as a single boundary point.
    t = build_trajectory([(-1e300, 0.5, 0.0), (1e300, 0.5, 1.0)])
    r = Region(-1.0, -1.0, 1.0, 1.0)
    for normalize in (True, False):
        got = classify_de9im(t, r, RELAXED, normalize)
        assert got == classify_de9im_oracle(t, r, RELAXED, normalize) == {De9imLabel.R095}


def test_t_is_not_tfl_plus_the_ends():
    # Every crossing rounds to the last vertex, which TFL leaves out and pl
    # judges by its coordinates (outside). Only T sees the boundary there,
    # so R031 (FORALL over T) must fail, as it does formula by formula.
    t = build_trajectory([(1e248, 0.5, 0.0), (-2.0, 0.5, 1.0)])
    r = Region(-1.0, -1.0, 1.0, 1.0)
    assert de9im_signature(t, r, RELAXED) == RegionSignature("E", "E", "E", "BE")
    for normalize in (True, False):
        got = classify_de9im(t, r, RELAXED, normalize)
        assert got == classify_de9im_oracle(t, r, RELAXED, normalize)
        assert De9imLabel.R031 not in got


def _count_box_crossings(monkeypatch):
    calls = []
    real = evaluation.box_crossings

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(evaluation, "box_crossings", counted)
    return calls


@pytest.mark.parametrize(
    "samples,limit",
    [
        ([(-1.0, 0.5, 0.0), (0.5, 0.5, 1.0), (2.0, 0.5, 2.0)], 1),  # E to E
        ([(-1.0, 0.5, 0.0), (0.5, 0.5, 1.0), (1.0, 0.5, 2.0)], 2),  # E to B: reversed too
    ],
)
def test_relaxed_classification_makes_one_site_pass_per_direction(monkeypatch, samples, limit):
    calls = _count_box_crossings(monkeypatch)
    t = build_trajectory(samples)
    for labels in (None, (), *((label,) for label in De9imLabel)):
        calls.clear()
        classify_de9im(t, UNIT, RELAXED, labels=labels)
        assert 0 < len(calls) <= limit, labels


T2 = build_trajectory([(0.0, 0.0, 0.0), (5.0, 5.0, 1.0)])
REGION, INTERVAL = Region(1.0, 1.0, 2.0, 2.0), Interval(0.2, 0.8)


@pytest.mark.parametrize(
    "call",
    [
        lambda: classify_de9im(T2, INTERVAL, STRICT),
        lambda: de9im_signature(T2, INTERVAL, RELAXED),
        lambda: classify_allen(T2, REGION),
        lambda: compile_spatial(De9imLabel.R031, INTERVAL, STRICT),
        lambda: compile_temporal(AllenLabel.PRECEDES, REGION),
    ],
    ids=["classify_de9im", "de9im_signature", "classify_allen", "compile_spatial",
         "compile_temporal"],
)
def test_region_and_interval_mix_ups_are_typed_errors(call):
    with pytest.raises(PredicateTypeError) as exc:
        call()
    assert isinstance(exc.value, TrajqError)


Q = parse_predicate("EXISTS p IN T: p INSIDE R")


@pytest.mark.parametrize(
    "call",
    [
        lambda s: evaluate(Q, T2, EvalEnv({"R": REGION}), s),
        lambda s: select_st(TrajectoriesRelation(()), Q, EvalEnv({"R": REGION}), s),
        lambda s: classify_de9im(T2, REGION, s),
        lambda s: de9im_signature(T2, REGION, s),
        lambda s: compile_spatial(De9imLabel.R031, REGION, s),
    ],
    ids=["evaluate", "select_st", "classify_de9im", "de9im_signature", "compile_spatial"],
)
def test_a_strictness_that_is_not_a_strictness_value_is_a_typed_error(call):
    with pytest.raises(UnsupportedStrictnessError) as exc:
        call("strict")
    assert isinstance(exc.value, TrajqError)


def test_unknown_strictness_and_empty_labels():
    with pytest.raises(UnsupportedStrictnessError):
        classify_de9im(T2, REGION, Strictness("fuzzy"))
    assert classify_de9im(T2, REGION, RELAXED, labels=()) == set()


@pytest.mark.parametrize("labels", [5, ["R031"], "R031", [De9imLabel.R031, None]])
def test_labels_that_are_no_de9im_labels_are_a_typed_error(labels):
    with pytest.raises(PredicateTypeError, match="an iterable of De9imLabel"):
        classify_de9im(T2, REGION, RELAXED, labels=labels)


def test_labels_may_be_any_iterable_of_labels():
    found = classify_de9im(T2, REGION, RELAXED)
    assert classify_de9im(T2, REGION, RELAXED, labels=iter(De9imLabel)) == found
