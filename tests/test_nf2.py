"""Nested-relational algebra: checker, executor, and the label compilers.

The equivalence tests here drive the same random relations through the
compiled algebra expressions and through direct predicate evaluation and
demand identical tid sets; the acceptance suite repeats this at larger
counts for its fixed label list.
"""

import random

import pytest

from helpers import off_boundary_trajectory, random_interval, random_region, random_trajectory
from trajq.errors import (
    CrossingOverflowError,
    TypeMismatchError,
    UnknownAttributeError,
    UnsupportedLabelError,
    UnsupportedStrictnessError,
)
from trajq.evaluate import RELAXED, STRICT, EvalEnv, approximated, select_st
from trajq.geometry import Interval, Region
from trajq.model import TrajectoriesRelation, build_trajectory
from trajq.nf2 import (
    POINTS_SCHEMA,
    TRAJECTORIES_SCHEMA,
    Agg,
    Arith,
    As,
    Attr,
    Attribute,
    BoolAnd,
    BoolOr,
    Cmp,
    Col,
    Computed,
    Input,
    Join,
    Lit,
    Nf2Relation,
    Nf2Schema,
    Project,
    Select,
    Sub,
    Unnest,
    check,
    compile_spatial,
    compile_temporal,
    execute,
    render,
    segment_join,
    trajectories_to_nf2,
)
from trajq.relations import AllenLabel, De9imLabel, allen_predicate, de9im_predicate

REL = TrajectoriesRelation.from_pairs(
    [
        ("1", build_trajectory([(0, 0, 0), (1, 2, 10), (2, 4, 20), (3, 6, 30), (4, 8, 40)])),
        ("2", build_trajectory([(5, 5, 0), (6, 5, 10)])),
    ]
)
NREL = trajectories_to_nf2(REL)

NESTED_EXAMPLE = Project(
    Unnest(
        Select(
            Project(Input(), (Col("tid"), Sub("T", (Col("x"), Col("y"))))),
            Cmp("=", Attr("tid"), Lit("1")),
        ),
        "T",
    ),
    (Col("x"), Col("y")),
)


def test_bridge_schema():
    assert NREL.schema == TRAJECTORIES_SCHEMA
    assert NREL.rows[0][0] == "1"
    assert NREL.rows[0][1].schema == POINTS_SCHEMA
    assert len(NREL.rows[0][1].rows) == 5


def test_nested_projection_example():
    out = execute(NESTED_EXAMPLE, NREL)
    assert out.schema.names() == ("x", "y")
    assert out.rows == ((0.0, 0.0), (1.0, 2.0), (2.0, 4.0), (3.0, 6.0), (4.0, 8.0))


def test_nested_projection_render():
    assert render(NESTED_EXAMPLE) == (
        'PROJECT[x, y](UNNEST[T](SELECT[tid = "1"]'
        "(PROJECT[tid, PROJECT[x, y](T)](INPUT))))"
    )


def test_segment_join():
    rel = TrajectoriesRelation.from_pairs(
        [
            ("a", build_trajectory([(0, 0, 0), (2, 1, 10), (4, 1.5, 20), (4, 1.5, 30)])),
            ("b", build_trajectory([(7, 7, 5)])),
        ]
    )
    out = segment_join(trajectories_to_nf2(rel))
    assert out.schema.names() == ("tid", "T_sgmt")
    by_tid = dict(out.rows)
    assert by_tid["a"].schema.names() == ("order", "x", "y", "x2", "y2")
    assert by_tid["a"].rows == (
        (0, 0.0, 0.0, 2.0, 1.0),
        (1, 2.0, 1.0, 4.0, 1.5),
        (2, 4.0, 1.5, 4.0, 1.5),
    )
    assert by_tid["b"].rows == ()


def test_outer_attribute_visible_in_nested_scope():
    # the selection inside the nested T resolves tid from the enclosing row
    expr = Project(
        Input(),
        (
            Col("tid"),
            Computed(
                "n", Agg("count", Select(Attr("T"), Cmp("=", Attr("tid"), Lit("1"))))
            ),
        ),
    )
    out = execute(expr, NREL)
    assert dict(out.rows) == {"1": 5, "2": 0}


def test_undefined_aggregate_comparisons_are_false():
    empty_t = Nf2Relation(TRAJECTORIES_SCHEMA, (("E", Nf2Relation(POINTS_SCHEMA, ())),))
    tau_min = Agg("min", Project(Attr("T"), (Col("tau"),)))
    for op in ("<", ">", "=", "<=", ">=", "!="):
        out = execute(Select(Input(), Cmp(op, tau_min, Lit(100.0))), empty_t)
        assert out.rows == (), op
    counted = execute(
        Select(Input(), Cmp("=", Agg("count", Attr("T")), Lit(0))), empty_t
    )
    assert len(counted.rows) == 1


def test_single_cell_relation_acts_as_scalar():
    first_x = Project(
        Select(Attr("T"), Cmp("=", Attr("order"), Lit(0))), (Col("x"),)
    )
    out = execute(Select(Input(), Cmp("=", first_x, Lit(5.0))), NREL)
    assert [row[0] for row in out.rows] == ["2"]


def test_multi_row_scalar_operand_rejected():
    many_x = Project(Attr("T"), (Col("x"),))
    with pytest.raises(TypeMismatchError):
        execute(Select(Input(), Cmp("=", many_x, Lit(5.0))), NREL)


def test_checker_rejections():
    with pytest.raises(UnknownAttributeError):
        execute(Select(Input(), Cmp("=", Attr("nope"), Lit(1))), NREL)
    with pytest.raises(TypeMismatchError):
        execute(Select(Input(), Lit(1)), NREL)
    with pytest.raises(TypeMismatchError):
        execute(Unnest(Input(), "tid"), NREL)
    with pytest.raises(TypeMismatchError):
        execute(Select(Input(), Cmp("<", Attr("tid"), Lit(1.0))), NREL)
    with pytest.raises(TypeMismatchError):
        check(Agg("count", Input()), TRAJECTORIES_SCHEMA)
    join_same_names = Project(
        Input(),
        (
            Col("tid"),
            Computed(
                "J",
                Join(Attr("T"), Attr("T"), Cmp("=", Attr("order"), Lit(0))),
            ),
        ),
    )
    with pytest.raises(TypeMismatchError):
        execute(join_same_names, NREL)


def test_relation_conformance_checked():
    with pytest.raises(TypeMismatchError):
        Nf2Relation(POINTS_SCHEMA, ((0, "oops", 1.0, 2.0),))
    with pytest.raises(TypeMismatchError):
        Nf2Schema((Attribute("a", "int"), Attribute("a", "float")))


def test_arith_and_connectives():
    # order + 1 = order2 drives the consecutive-pair join used for segments
    doubled = Project(
        Unnest(Input(), "T"),
        (Col("tid"), Computed("twice", Arith("*", Attr("order"), Lit(2)))),
    )
    out = execute(doubled, NREL)
    assert out.rows[:3] == (("1", 0), ("1", 2), ("1", 4))
    cond = BoolOr((Cmp("=", Attr("tid"), Lit("2")), BoolAnd((Lit(True),))))
    with pytest.raises(TypeMismatchError):
        # literal booleans are not part of the expression language
        execute(Select(Input(), cond), NREL)


def test_selection_splits_into_composition():
    c1 = Cmp(">", Agg("count", Attr("T")), Lit(2))
    c2 = Cmp("<", Agg("min", Project(Attr("T"), (Col("tau"),))), Lit(20.0))
    rng = random.Random(61)
    for _ in range(50):
        rel = TrajectoriesRelation.from_pairs(
            [(f"t{i}", random_trajectory(rng, 1, 9)) for i in range(rng.randint(1, 8))]
        )
        nrel = trajectories_to_nf2(rel)
        combined = execute(Select(Input(), BoolAnd((c1, c2))), nrel)
        composed = execute(Select(Select(Input(), c2), c1), nrel)
        assert combined == composed


def test_unnest_project_commutation():
    flat_then_project = Project(Unnest(Input(), "T"), (Col("tid"), Col("x")))
    project_then_flat = Unnest(
        Project(Input(), (Col("tid"), Sub("T", (Col("x"),)))), "T"
    )
    rng = random.Random(62)
    for _ in range(50):
        rel = TrajectoriesRelation.from_pairs(
            [(f"t{i}", random_trajectory(rng, 1, 9)) for i in range(rng.randint(1, 8))]
        )
        nrel = trajectories_to_nf2(rel)
        assert execute(flat_then_project, nrel) == execute(project_then_flat, nrel)


SPATIAL_LABELS = (
    De9imLabel.R031,
    De9imLabel.R179,
    De9imLabel.R223,
    De9imLabel.R247,
    De9imLabel.R255,
)


def _tids(nrel: Nf2Relation) -> set:
    return {row[0] for row in nrel.rows}


@pytest.mark.parametrize("label", SPATIAL_LABELS, ids=lambda lab: lab.value)
@pytest.mark.parametrize("mode", (STRICT, RELAXED), ids=("strict", "relaxed"))
def test_spatial_compile_matches_selection(label, mode):
    rng = random.Random(hash((label.value, mode.kind)) & 0xFFFF)
    ast = de9im_predicate(label)
    for _ in range(60):
        r = random_region(rng)
        rel = TrajectoriesRelation.from_pairs(
            [
                (f"t{i}", off_boundary_trajectory(rng, r, 1, 12))
                for i in range(rng.randint(1, 8))
            ]
        )
        env = EvalEnv({"R": r})
        direct = set(select_st(rel, ast, env, mode).tids())
        algebra = _tids(execute(compile_spatial(label, r, mode), trajectories_to_nf2(rel)))
        assert direct == algebra, (label, mode.kind, r, rel)


TEMPORAL_CASES = [
    (AllenLabel.PRECEDES, STRICT),
    (AllenLabel.PRECEDES, RELAXED),
    (AllenLabel.DURING, STRICT),
    (AllenLabel.DURING, RELAXED),
    (AllenLabel.PRECEDED_BY, STRICT),
    (AllenLabel.CONTAINS, STRICT),
    (AllenLabel.CONTAINS, RELAXED),
    (AllenLabel.OVERLAPS, RELAXED),
    (AllenLabel.OVERLAPPED_BY, RELAXED),
]


@pytest.mark.parametrize(
    "label,mode",
    TEMPORAL_CASES,
    ids=[f"{lab.value}-{mode.kind}" for lab, mode in TEMPORAL_CASES],
)
def test_temporal_compile_matches_selection(label, mode):
    rng = random.Random(hash((label.value, mode.kind)) & 0xFFFF)
    ast = allen_predicate(label)
    for _ in range(60):
        i = random_interval(rng)
        rel = TrajectoriesRelation.from_pairs(
            [
                (f"t{k}", random_trajectory(rng, 1, 12))
                for k in range(rng.randint(1, 8))
            ]
        )
        env = EvalEnv({"I": i})
        direct = set(select_st(rel, ast, env, mode).tids())
        algebra = _tids(execute(compile_temporal(label, i), trajectories_to_nf2(rel)))
        assert direct == algebra, (label, mode.kind, i, rel)


def test_spatial_compile_strict_vs_relaxed_on_crossing():
    crossing = TrajectoriesRelation.from_pairs(
        [
            (
                "T",
                build_trajectory(
                    [(0.5, 1.5, 100), (2.2, 0.9, 110), (3.5, 0.35, 120), (5.4, 0.25, 130)]
                ),
            )
        ]
    )
    r = Region(2.65, 0.6, 4.5, 1.75)
    nrel = trajectories_to_nf2(crossing)
    assert _tids(execute(compile_spatial(De9imLabel.R031, r, STRICT), nrel)) == {"T"}
    assert _tids(execute(compile_spatial(De9imLabel.R031, r, RELAXED), nrel)) == set()
    assert _tids(execute(compile_spatial(De9imLabel.R223, r, STRICT), nrel)) == set()
    assert _tids(execute(compile_spatial(De9imLabel.R223, r, RELAXED), nrel)) == {"T"}


def test_edge_graze_separates_closed_and_open_tests():
    # slides along the top edge: touches the boundary, never the interior
    grazing = TrajectoriesRelation.from_pairs(
        [("g", build_trajectory([(-0.5, 1.0, 0), (1.5, 1.0, 10)]))]
    )
    unit = Region(0, 0, 1, 1)
    nrel = trajectories_to_nf2(grazing)
    assert _tids(execute(compile_spatial(De9imLabel.R031, unit, STRICT), nrel)) == {"g"}
    assert _tids(execute(compile_spatial(De9imLabel.R031, unit, RELAXED), nrel)) == set()
    assert _tids(execute(compile_spatial(De9imLabel.R223, unit, RELAXED), nrel)) == set()


@pytest.mark.parametrize("label", (De9imLabel.R223, De9imLabel.R031))
@pytest.mark.parametrize(
    "samples, r",
    (
        # x1 - x0 overflows; the midpoint (0, 0.5) lies inside R
        ([(-1e308, 0.5, 0), (1e308, 0.5, 1)], Region(-1, 0, 1, 1)),
        # x1 - x0 is finite, but x_max - x0 overflows
        ([(-1e308, 0.5, 0), (-0.9e308, 0.5, 1)], Region(-1, 0, 1e308, 1)),
    ),
)
def test_overflowing_segment_is_an_error_not_an_answer(label, samples, r):
    rel = TrajectoriesRelation.from_pairs([("o", build_trajectory(samples))])
    with pytest.raises(CrossingOverflowError):
        execute(compile_spatial(label, r, RELAXED), trajectories_to_nf2(rel))
    with pytest.raises(CrossingOverflowError):  # as the evaluator does
        select_st(rel, de9im_predicate(label), EvalEnv({"R": r}), RELAXED)


def test_compile_rejections():
    r = Region(0, 0, 1, 1)
    with pytest.raises(UnsupportedLabelError) as exc:
        compile_spatial(De9imLabel.R095, r, STRICT)
    assert "R031" in str(exc.value)
    with pytest.raises(UnsupportedStrictnessError) as exc:
        compile_spatial(De9imLabel.R031, r, approximated("uniform"))
    assert isinstance(exc.value, ValueError)
    with pytest.raises(UnsupportedLabelError):
        compile_temporal(AllenLabel.MEETS, Interval(0, 1))


def test_render_goldens():
    r = Region(2.65, 0.6, 4.5, 1.75)
    assert render(compile_spatial(De9imLabel.R179, r, STRICT)) == (
        "SELECT[2.65 < min(PROJECT[x](T)) AND 0.6 < min(PROJECT[y](T)) "
        "AND 4.5 > max(PROJECT[x](T)) AND 1.75 > max(PROJECT[y](T))](INPUT)"
    )
    assert render(compile_temporal(AllenLabel.PRECEDES, Interval(100, 140))) == (
        "SELECT[max(PROJECT[tau](T)) < 100](INPUT)"
    )
    assert "INTERSECTS[closed]" in render(compile_spatial(De9imLabel.R031, r, RELAXED))
    assert "INTERSECTS[open]" in render(compile_spatial(De9imLabel.R223, r, RELAXED))
