"""Strict evaluation decides atoms from each trajectory's box.

Under the strict assumption a quantifier ranges over the recorded points
only, so the box of those points bounds every site: an atom whose region or
interval holds the box, or misses it, has one truth at every site and no
point is tested for it; an atom it leaves open is tested at every point.
``testing.strict_point_oracle`` loops
over the points with float comparisons and never reads a box, so it is the
reference here. The instances put boxes inside, on the border lines and
corners of, across and beside R, S and I, per axis, including boxes of
zero width and trajectories of one, two and three points.
"""

import importlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_predicate
from trajq.evaluate import STRICT, EvalEnv, eval_strict, evaluate, select_st
from trajq.geometry import Interval, Region
from trajq.model import TrajectoriesRelation, build_trajectory
from trajq.predicate import (
    And,
    Atom,
    Domain,
    Not,
    Op,
    Or,
    Predicate,
    QuantifiedClause,
    Quantifier,
    Var,
    parse_predicate,
    validate,
)
from trajq.relations import classify_de9im
from trajq.testing import classify_de9im_oracle, strict_point_oracle

evaluation = importlib.import_module("trajq.evaluate")

# R spans [0, 2] on both axes and S shares R's edge x = 2; I is [10, 20].
LEVELS = (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
TAU_LEVELS = (0.0, 5.0, 10.0, 12.0, 15.0, 18.0, 20.0, 25.0, 30.0)
ENV = EvalEnv(
    {"R": Region(0.0, 0.0, 2.0, 2.0), "S": Region(2.0, 0.5, 3.0, 1.5), "I": Interval(10.0, 20.0)}
)

PREDICATES = tuple(
    parse_predicate(text)
    for text in (
        "EXISTS p IN T: p INSIDE R",
        "EXISTS p IN T: p WITHIN R",
        "EXISTS p IN TFL: p OUTSIDE R",
        "FORALL p IN T: p INSIDE R",
        "FORALL p IN TFL: p WITHIN R",
        "FORALL p IN T: p OUTSIDE S",
        "EXISTS p IN T: p WITHIN S AND p INSIDE I",
        "FORALL p IN T: p BEFORE I OR p AFTER I",
        "EXISTS p IN TFL: p BEFORE I",
        "FORALL p IN TFL: p AFTER I",
        "EXISTS p IN T: p OUTSIDE I",
        "FORALL p IN T: p WITHIN I",
        "EXISTS p IN T: NOT (p INSIDE R) AND p WITHIN R",
        "FORALL p IN TFL: p INSIDE R OR p OUTSIDE R",
        "pf INSIDE R AND (FORALL p IN T: p WITHIN R)",
    )
)


def _window(draw, levels):
    """The levels between two drawn ones: the coordinates a box may span."""
    i, j = sorted(draw(st.lists(st.integers(0, len(levels) - 1), min_size=2, max_size=2)))
    return levels[i : j + 1]


@st.composite
def walks(draw):
    """A trajectory of one to four points whose coordinates lie on the
    levels of a drawn window per axis, so its box lies inside, on the edge
    of, across or beside each region and the interval."""
    taus = _window(draw, TAU_LEVELS)
    n = draw(st.integers(1, min(4, len(taus))))
    times = sorted(draw(st.lists(st.sampled_from(taus), min_size=n, max_size=n, unique=True)))
    xs, ys = _window(draw, LEVELS), _window(draw, LEVELS)
    return build_trajectory(
        (draw(st.sampled_from(xs)), draw(st.sampled_from(ys)), tau) for tau in times
    )


def _predicates(seed: int):
    rng = random.Random(seed)
    randoms = (random_predicate(rng) for _ in range(8))
    return PREDICATES + tuple(a for a in randoms if not validate(a, ENV.bindings))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(walks(), st.integers(0, 2**32 - 1))
def test_strict_answers_equal_the_point_loop(t, seed):
    for ast in _predicates(seed):
        want = strict_point_oracle(ast, t, ENV)
        assert eval_strict(ast, t, ENV) == want, (ast, t.box)
        assert evaluate(ast, t, ENV, STRICT) == want, (ast, t.box)


# Every atom R, S and I take, and bodies of n of them joined by AND, OR and
# NOT, nested every way n atoms can be, so a box-decided atom sits before,
# after and between open ones.
ATOMS = tuple(Atom(Var("p"), op, "I") for op in Op) + tuple(
    Atom(Var("p"), op, name) for name in "RS" for op in (Op.INSIDE, Op.WITHIN, Op.OUTSIDE)
)
SPLITS = {2: [(1, 1)], 3: [(1, 1, 1), (1, 2), (2, 1)]}


def bodies(n: int):
    if n == 1:
        body = st.sampled_from(ATOMS)
    else:
        body = st.builds(
            lambda join, parts: join(parts),
            st.sampled_from([And, Or]),
            st.sampled_from(SPLITS[n]).flatmap(lambda sizes: st.tuples(*map(bodies, sizes))),
        )
    return st.one_of(body, body.map(Not))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(walks(), st.lists(st.integers(2, 3).flatmap(bodies), min_size=4, max_size=4))
def test_bodies_of_two_and_three_atoms_equal_the_point_loop(t, parts):
    for body in parts:
        for quantifier in Quantifier:
            for domain in Domain:
                ast = Predicate((QuantifiedClause(quantifier, "p", domain, body),))
                assert eval_strict(ast, t, ENV) == strict_point_oracle(ast, t, ENV), (ast, t.box)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(walks(), min_size=1, max_size=5), st.integers(0, 2**32 - 1))
def test_select_st_keeps_the_rows_of_the_point_loop(ts, seed):
    rel = TrajectoriesRelation.from_pairs((f"t{i}", t) for i, t in enumerate(ts))
    for ast in _predicates(seed):
        want = [tid for tid, t in rel.rows if strict_point_oracle(ast, t, ENV)]
        assert list(select_st(rel, ast, ENV, STRICT).tids()) == want, ast


@settings(max_examples=150, deadline=None, derandomize=True)
@given(walks())
def test_strict_area_labels_equal_the_oracle(t):
    for name in ("R", "S"):
        r = ENV.bindings[name]
        assert classify_de9im(t, r, STRICT) == classify_de9im_oracle(t, r, STRICT), (name, t.box)


# --- cost: the box decides before any point is tested ---------------------


def _atom_mask_calls(monkeypatch):
    """Counts calls of ``evaluate._atom_mask``, the one rule that tests an
    atom at points; a clause the box decides makes none."""
    calls = []
    real = evaluation._atom_mask

    def counted(atom, *args):
        calls.append(atom)
        return real(atom, *args)

    monkeypatch.setattr(evaluation, "_atom_mask", counted)
    return calls


def _walk(n, x0, y0, dx, dy):
    return build_trajectory((x0 + i * dx, y0 + ((i % 2) * dy), float(i)) for i in range(n))


BOXES = EvalEnv(
    {
        "R": Region(0, 0, 10, 10),
        "S": Region(20, 20, 21, 21),
        "B": Region(-5, -5, 15, 15),
        "I": Interval(100, 200),
    }
)


def test_box_that_misses_or_holds_the_region_tests_no_point(monkeypatch):
    calls = _atom_mask_calls(monkeypatch)
    walk = _walk(500, 0.5, 0.5, 0.01, 8.0)  # inside R, B; far from S
    assert not eval_strict(parse_predicate("EXISTS p IN T: p INSIDE S"), walk, BOXES)
    assert eval_strict(parse_predicate("FORALL p IN TFL: p WITHIN B"), walk, BOXES)
    assert calls == []


def test_box_on_the_border_decides_without_points(monkeypatch):
    calls = _atom_mask_calls(monkeypatch)
    # a box on B's border lies in the closed B; one that ends on S's edge
    # misses the open S
    on_b = build_trajectory([(-5, -5, 0), (15, 15, 1), (0, 0, 2)])
    to_s = build_trajectory([(19, 20, 0), (20, 21, 1)])
    assert eval_strict(parse_predicate("FORALL p IN T: p WITHIN B"), on_b, BOXES)
    assert not eval_strict(parse_predicate("EXISTS p IN T: p INSIDE S"), to_s, BOXES)
    assert calls == []


def test_box_that_overlaps_the_region_tests_the_points(monkeypatch):
    calls = _atom_mask_calls(monkeypatch)
    # corners beside R on two sides: the box covers R, no point is in it
    walk = build_trajectory([(-1, 5, 0), (5, 11, 1), (11, 5, 2), (5, -1, 3)])
    assert not eval_strict(parse_predicate("EXISTS p IN T: p INSIDE R"), walk, BOXES)
    assert len(calls) == 1


def test_a_sibling_the_box_decides_spares_the_open_atom(monkeypatch):
    calls = _atom_mask_calls(monkeypatch)
    # the box straddles R, lies in B and misses I (its τ runs 0..3)
    walk = build_trajectory([(-1, 5, 0), (5, 11, 1), (11, 5, 2), (5, -1, 3)])
    for text, want in (
        ("EXISTS p IN T: p INSIDE R AND p INSIDE I", False),
        ("EXISTS p IN T: p INSIDE I AND p INSIDE R", False),
        ("FORALL p IN T: p INSIDE R OR p WITHIN B", True),
        ("FORALL p IN TFL: NOT (p INSIDE I) OR p INSIDE R", True),
        ("EXISTS p IN T: (p INSIDE R OR p WITHIN R) AND NOT (p WITHIN B)", False),
    ):
        assert eval_strict(parse_predicate(text), walk, BOXES) is want, text
    assert calls == []
    # a sibling the box makes true leaves the open atom to be tested
    assert not eval_strict(parse_predicate("EXISTS p IN T: p INSIDE R AND p WITHIN B"), walk, BOXES)
    assert len(calls) == 1
