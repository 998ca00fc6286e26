"""Area-relation and interval-relation catalogs and classifiers.

Every area label gets a hand-built witness path against the unit square,
asserted to classify as exactly that label (orientation normalized, strict
mode). Interval labels get one witness span each, checked against both the
endpoint classifier and the catalog formulas under relaxed evaluation.
"""

import random
from pathlib import Path

import pytest

from helpers import (
    DE9IM_WITNESSES,
    WITNESS_REGION,
    off_boundary_trajectory,
    random_region,
    witness_path,
)
from trajq.errors import DegenerateSpanError, PredicateTypeError
from trajq.evaluate import RELAXED, STRICT, EvalEnv, evaluate
from trajq.geometry import Interval, Region
from trajq.model import build_trajectory
from trajq.relations import (
    DIRECTION_SENSITIVE,
    AllenLabel,
    De9imLabel,
    allen_catalog,
    allen_predicate,
    classify_allen,
    classify_de9im,
    de9im_catalog,
    de9im_predicate,
)
from trajq.testing import allen_case_oracle

UNIT = WITNESS_REGION
path = witness_path

# One witness span per interval label, against I = (20, 30).
ALLEN_I = Interval(20, 30)
ALLEN_WITNESSES = {
    AllenLabel.PRECEDES: (0, 10),
    AllenLabel.MEETS: (0, 20),
    AllenLabel.OVERLAPS: (0, 25),
    AllenLabel.STARTS: (20, 25),
    AllenLabel.DURING: (22, 28),
    AllenLabel.FINISHES: (25, 30),
    AllenLabel.EQUALS: (20, 30),
    AllenLabel.PRECEDED_BY: (40, 50),
    AllenLabel.MET_BY: (30, 40),
    AllenLabel.OVERLAPPED_BY: (25, 40),
    AllenLabel.STARTED_BY: (20, 40),
    AllenLabel.CONTAINS: (10, 40),
    AllenLabel.FINISHED_BY: (10, 30),
}


def span(a, b):
    return build_trajectory([(0, 0, a), (1, 0, b)])


def test_catalog_shapes():
    de9im = de9im_catalog()
    allen = allen_catalog()
    assert len(de9im) == 19 and len({lab for lab, _, _ in de9im}) == 19
    assert len(allen) == 13 and len({lab for lab, _, _ in allen}) == 13
    assert all(text and desc for _, text, desc in de9im + allen)


DATA = Path(__file__).parent / "data"


def test_catalogs_match_checked_in_corpus():
    for fname, catalog in (
        ("de9im_formulas.txt", de9im_catalog()),
        ("allen_formulas.txt", allen_catalog()),
    ):
        lines = (DATA / fname).read_text().splitlines()
        corpus = dict(line.split("\t", 1) for line in lines)
        assert corpus == {lab.value: text for lab, text, _ in catalog}


@pytest.mark.parametrize("label", list(De9imLabel), ids=lambda lab: lab.value)
def test_de9im_witness_is_unique_match(label):
    t = path(DE9IM_WITNESSES[label])
    assert classify_de9im(t, UNIT, STRICT) == {label}


def test_de9im_labels_filter():
    t = path(DE9IM_WITNESSES[De9imLabel.R179])
    subset = (De9imLabel.R031, De9imLabel.R179)
    assert classify_de9im(t, UNIT, STRICT, labels=subset) == {De9imLabel.R179}
    assert classify_de9im(t, UNIT, STRICT, labels=(De9imLabel.R031,)) == set()


@pytest.mark.parametrize("t", [[(0, 0, 0), (1, 1, 1)], "T", None])
def test_classifying_what_is_no_trajectory_is_a_type_error(t):
    for s in (STRICT, RELAXED):
        with pytest.raises(PredicateTypeError, match="a trajectory is a Trajectory"):
            classify_de9im(t, UNIT, s)
    with pytest.raises(PredicateTypeError, match="a trajectory is a Trajectory"):
        classify_allen(t, ALLEN_I)


def test_orientation_normalization():
    exiting = path(DE9IM_WITNESSES[De9imLabel.R255])
    entering = path(list(reversed(DE9IM_WITNESSES[De9imLabel.R255])))
    assert classify_de9im(exiting, UNIT, STRICT, normalize_orientation=False) == {
        De9imLabel.R255
    }
    assert classify_de9im(entering, UNIT, STRICT, normalize_orientation=False) == set()
    assert classify_de9im(entering, UNIT, STRICT) == {De9imLabel.R255}
    assert De9imLabel.R255 in DIRECTION_SENSITIVE


def test_crossing_fixture_strict_vs_relaxed():
    t = build_trajectory(
        [(0.5, 1.5, 100), (2.2, 0.9, 110), (3.5, 0.35, 120), (5.4, 0.25, 130)]
    )
    r = Region(2.65, 0.6, 4.5, 1.75)
    assert classify_de9im(t, r, STRICT) == {De9imLabel.R031}
    # the interpolated path enters the area and crosses its border twice
    assert classify_de9im(t, r, RELAXED) == {De9imLabel.R095, De9imLabel.R223}


def test_five_way_partition_sample():
    five = (
        De9imLabel.R031,
        De9imLabel.R179,
        De9imLabel.R223,
        De9imLabel.R247,
        De9imLabel.R255,
    )
    rng = random.Random(2024)
    for _ in range(500):
        r = random_region(rng)
        t = off_boundary_trajectory(rng, r)
        got = classify_de9im(t, r, STRICT, labels=five)
        assert len(got) == 1, (t, r, got)


@pytest.mark.parametrize("label", list(AllenLabel), ids=lambda lab: lab.value)
def test_allen_witness_classifies(label):
    a, b = ALLEN_WITNESSES[label]
    assert classify_allen(span(a, b), ALLEN_I) is label


@pytest.mark.parametrize("label", list(AllenLabel), ids=lambda lab: lab.value)
def test_allen_witness_satisfies_only_its_formula(label):
    a, b = ALLEN_WITNESSES[label]
    t = span(a, b)
    env = EvalEnv({"I": ALLEN_I})
    matches = {
        other for other in AllenLabel if evaluate(allen_predicate(other), t, env, RELAXED)
    }
    assert matches == {label}


def test_allen_formulas_parse():
    for label in AllenLabel:
        assert allen_predicate(label).clauses
    for label in De9imLabel:
        assert de9im_predicate(label).clauses


def test_degenerate_span_rejected():
    with pytest.raises(DegenerateSpanError):
        classify_allen(build_trajectory([(0, 0, 5)]), ALLEN_I)


def test_allen_matches_sign_oracle_sample():
    rng = random.Random(777)
    for _ in range(500):
        a, b = sorted(rng.sample(range(0, 60), 2))
        c, d = sorted(rng.sample(range(0, 60), 2))
        got = classify_allen(span(a, b), Interval(c, d))
        assert got is allen_case_oracle((a, b), Interval(c, d))
