"""Nested-relational algebra: checker, executor, and the label compilers.

The equivalence tests here drive the same random relations through the
compiled algebra expressions and through direct predicate evaluation and
demand identical tid sets; the acceptance suite repeats this at larger
counts for its fixed label list.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import off_boundary_trajectory, random_interval, random_region, random_trajectory
from trajq.errors import (
    CrossingOverflowError,
    TypeMismatchError,
    UnknownAttributeError,
    UnsupportedLabelError,
    UnsupportedStrictnessError,
)
from trajq.evaluate import RELAXED, STRICT, EvalEnv, approximated, evaluate, select_st
from trajq.geometry import Interval, Region
from trajq.model import TrajectoriesRelation, Trajectory, build_trajectory
from trajq.nf2 import (
    POINTS_SCHEMA,
    TRAJECTORIES_SCHEMA,
    Agg,
    Arith,
    As,
    Attr,
    Attribute,
    BoolAnd,
    BoolNot,
    BoolOr,
    Cmp,
    Col,
    Computed,
    ConstRel,
    Input,
    Join,
    Lit,
    Nf2Relation,
    Nf2Schema,
    Project,
    SegIntersects,
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
from trajq.predicate import parse_predicate
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


def test_bridge_matches_the_checked_construction():
    rng = random.Random(5)
    for _ in range(40):
        rel = TrajectoriesRelation.from_pairs(
            (f"t{i}", random_trajectory(rng)) for i in range(rng.randint(0, 4))
        )
        checked = Nf2Relation(
            TRAJECTORIES_SCHEMA,
            tuple(
                (tid, Nf2Relation(POINTS_SCHEMA, tuple((p.order, p.x, p.y, p.tau) for p in t)))
                for tid, t in rel
            ),
        )
        got = trajectories_to_nf2(rel)
        assert got == checked
        types = [type(v) for _, nested in got.rows for row in nested.rows for v in row]
        assert types == [int, float, float, float] * (len(types) // 4)


def test_bridge_rejects_a_tid_that_is_not_text():
    rel = TrajectoriesRelation(((1, build_trajectory([(0, 0, 0)])),))
    with pytest.raises(TypeMismatchError):
        trajectories_to_nf2(rel)


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


def test_endpoint_clauses_on_hand_built_relations():
    # An empty T has no endpoints. "twice" has two points of order 0, one
    # in R and one right of it, and its last point right of R: a clause on
    # pf holds when some point of order 0 meets it.
    rel = Nf2Relation(
        TRAJECTORIES_SCHEMA,
        (
            ("empty", Nf2Relation(POINTS_SCHEMA, ())),
            (
                "twice",
                Nf2Relation(
                    POINTS_SCHEMA,
                    ((0, 5.0, 5.0, 0.0), (0, 9.0, 5.0, 1.0), (1, 9.0, 5.0, 2.0)),
                ),
            ),
        ),
    )
    r = Region(3.0, 3.0, 7.0, 7.0)
    for mode in (STRICT, RELAXED):
        answers = {
            label: _tids(execute(compile_spatial(label, r, mode), rel))
            for label in (De9imLabel.R223, De9imLabel.R247, De9imLabel.R255)
        }
        assert answers == {
            De9imLabel.R223: {"twice"},
            De9imLabel.R247: set(),
            De9imLabel.R255: {"twice"},
        }, mode


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


# (plan, error, message): one rejection per check in the type checker;
# check and execute raise the same error.
REJECTED = {
    "top-level attribute": (
        Select(Attr("T"), Cmp(">", Attr("order"), Lit(0))),
        UnknownAttributeError,
        r"T \(no row context at the top level\)",
    ),
    "min over many columns": (
        Select(Input(), Cmp("<", Agg("min", Attr("T")), Lit(1.0))),
        TypeMismatchError,
        r"min needs a single numeric column, got \('order', 'x', 'y', 'tau'\)",
    ),
    "AND over a scalar": (
        Select(Input(), BoolAnd((Cmp("=", Attr("tid"), Lit("1")), Attr("tid")))),
        TypeMismatchError,
        "boolean connective over non-boolean",
    ),
    "NOT over a scalar": (
        Select(Input(), BoolNot(Attr("tid"))),
        TypeMismatchError,
        "NOT over non-boolean",
    ),
    "arithmetic over text": (
        Select(Input(), Cmp("=", Arith("+", Attr("tid"), Lit(1)), Lit(2))),
        TypeMismatchError,
        "arithmetic over str and int",
    ),
    "join on a number": (
        Project(
            Input(),
            (
                Computed(
                    "J",
                    Join(
                        Attr("T"),
                        Project(Attr("T"), (As("order2", "order"),)),
                        Arith("+", Attr("order"), Attr("order2")),
                    ),
                ),
            ),
        ),
        TypeMismatchError,
        "join condition must be boolean",
    ),
    "unnest of a number": (
        Unnest(Agg("count", Input()), "T"),
        TypeMismatchError,
        "expected a relation, got int",
    ),
    "many columns as a scalar": (
        Select(Input(), Cmp("=", Attr("T"), Lit(1))),
        TypeMismatchError,
        "only single-column relations can be used as scalars",
    ),
    "boolean as a scalar": (
        Select(Input(), Cmp("=", Cmp("=", Attr("tid"), Lit("1")), Lit(1))),
        TypeMismatchError,
        "boolean used as a scalar operand",
    ),
    "sub-projection of text": (
        Project(Input(), (Sub("tid", (Col("x"),)),)),
        TypeMismatchError,
        "sub-projection needs a nested relation, 'tid' is atomic",
    ),
    "boolean attribute": (
        Project(Input(), (Computed("b", Cmp("=", Attr("tid"), Lit("1"))),)),
        TypeMismatchError,
        "projected attribute cannot be boolean",
    ),
    # a name that is no str, and so no key of any row
    "list as an Attr name": (
        Select(Input(), Cmp("=", Attr(["tid"]), Lit("1"))),
        UnknownAttributeError,
        r"\['tid'\]",
    ),
    "list as a Col name": (Project(Input(), (Col(["tid"]),)), UnknownAttributeError, r"\['tid'\]"),
    "list as an As source": (
        Project(Input(), (As("z", ["tid"]),)),
        UnknownAttributeError,
        r"\['tid'\]",
    ),
    "list as a Sub name": (Project(Input(), (Sub(["T"], ()),)), UnknownAttributeError, r"\['T'\]"),
    "list as an Unnest name": (Unnest(Input(), ["T"]), UnknownAttributeError, r"\['T'\]"),
    "list as a Computed name": (
        Project(Input(), (Computed(["m"], Lit(1)),)),
        TypeMismatchError,
        r"an attribute name is a str, got \['m'\]",
    ),
}


@pytest.mark.parametrize("plan, error, message", REJECTED.values(), ids=REJECTED)
def test_checker_rejection_messages(plan, error, message):
    with pytest.raises(error, match=message):
        check(plan, TRAJECTORIES_SCHEMA)
    with pytest.raises(error, match=message):
        execute(plan, NREL)


FOUR_POINTS = Nf2Relation(POINTS_SCHEMA, tuple((o, float(o), 0.0, float(o)) for o in range(4)))


@pytest.mark.parametrize("schema", ["schema", None, TRAJECTORIES_SCHEMA.attributes])
def test_check_names_an_input_schema_that_is_no_schema(schema):
    plan = Select(Input(), Cmp("=", Attr("tid"), Lit("a")))
    with pytest.raises(TypeMismatchError, match="input_schema, got"):
        check(plan, schema)


def test_negated_condition():
    plan = Select(Input(), BoolNot(Cmp("<", Attr("order"), Lit(2))))
    assert render(plan) == "SELECT[NOT (order < 2)](INPUT)"
    assert check(plan, POINTS_SCHEMA) == POINTS_SCHEMA
    assert execute(plan, FOUR_POINTS).column("order") == (2, 3)


def test_arithmetic_on_an_undefined_value_is_undefined():
    # max over no points is undefined, and so is max + 1: every comparison
    # with it is false, and no projected attribute can hold it.
    later = Arith("+", Agg("max", Project(Attr("T"), (Col("tau"),))), Lit(1.0))
    assert execute(Project(Input(), (Col("tid"), Computed("m", later))), NREL).rows == (
        ("1", 41.0),
        ("2", 11.0),
    )
    empty_t = Nf2Relation(TRAJECTORIES_SCHEMA, (("E", Nf2Relation(POINTS_SCHEMA, ())),))
    for op in ("<", "!="):
        assert execute(Select(Input(), Cmp(op, later, Lit(0.0))), empty_t).rows == ()
    with pytest.raises(TypeMismatchError, match="projected attribute 'm' has no storable value"):
        execute(Project(Input(), (Computed("m", later),)), empty_t)


def test_render_of_a_constant_relation_and_a_computed_attribute():
    plan = Project(ConstRel(FOUR_POINTS), (Col("order"), Computed("w", Arith("*", Attr("x"), Lit(2)))))
    assert render(plan) == "PROJECT[order, w := x * 2](CONST(4 rows))"


# Malformed parts of a plan or relation, each a TypeMismatchError where it
# is built or, for a projection item, where the plan is checked.
MALFORMED = {
    "list literal": lambda: check(Select(Input(), Cmp("<", Attr("x"), Lit([1]))), POINTS_SCHEMA),
    "list literal under =": lambda: check(Select(Input(), Cmp("=", Attr("x"), Lit([1]))), POINTS_SCHEMA),
    "number as a type": lambda: Attribute("a", 5),
    "name as an attribute": lambda: Nf2Schema(("a",)),
    "name as a projection item": lambda: check(Project(Input(), ("tid",)), TRAJECTORIES_SCHEMA),
    "text as a constant relation": lambda: ConstRel("x"),
    "name as a region": lambda: SegIntersects("R", True, "x", "y", "x2", "y2"),
    "text as closed": lambda: SegIntersects(Region(0, 0, 1, 1), "no", "x", "y", "x2", "y2"),
    "None as closed": lambda: SegIntersects(Region(0, 0, 1, 1), None, "x", "y", "x2", "y2"),
    "0 as closed": lambda: SegIntersects(Region(0, 0, 1, 1), 0, "x", "y", "x2", "y2"),
    "list as a name": lambda: Attribute(["x"], "float"),
    "number as a row": lambda: Nf2Relation(Nf2Schema((Attribute("a", "int"),)), (1,)),
}


@pytest.mark.parametrize("build", MALFORMED.values(), ids=MALFORMED)
def test_malformed_parts_are_type_mismatches(build):
    with pytest.raises(TypeMismatchError):
        build()


def test_relation_conformance_checked():
    with pytest.raises(TypeMismatchError):
        Nf2Relation(POINTS_SCHEMA, ((0, "oops", 1.0, 2.0),))
    with pytest.raises(TypeMismatchError):
        Nf2Schema((Attribute("a", "int"), Attribute("a", "float")))


def test_an_int_beyond_the_float_range_is_not_a_float_value():
    segments = Nf2Schema(tuple(Attribute(n, "float") for n in ("x", "y", "x2", "y2")))
    plan = Select(Input(), SegIntersects(Region(0, 0, 1, 1), True, "x", "y", "x2", "y2"))
    assert len(Nf2Relation(segments, ((2**1000, 0, 1, 1),))) == 1
    with pytest.raises(TypeMismatchError, match="does not conform to attribute x of type float"):
        execute(plan, Nf2Relation(segments, ((10**400, 0, 1, 1),)))
    ints = Nf2Schema((Attribute("a", "int"),))
    assert Nf2Relation(ints, ((10**400,),)).rows == ((10**400,),)


def test_arithmetic_beyond_the_float_range_is_a_type_error():
    rel = Nf2Relation(Nf2Schema((Attribute("a", "int"),)), ((10**400,),))
    plus = Project(Input(), (Computed("b", Arith("+", Attr("a"), Lit(1))),))
    assert execute(plus, rel).rows == ((10**400 + 1,),)
    plus = Project(Input(), (Computed("b", Arith("+", Attr("a"), Lit(1.0))),))
    with pytest.raises(TypeMismatchError, match=r"\+ overflows a float"):
        execute(plus, rel)
    # An int in a float attribute times an int is typed float, so the
    # product must have a float value too.
    rel = Nf2Relation(Nf2Schema((Attribute("x", "float"),)), ((10**308,),))
    times = [Project(Input(), (Computed("y", Arith("*", Attr("x"), Lit(k))),)) for k in (1, 10)]
    assert execute(times[0], rel).rows == ((10**308,),)
    with pytest.raises(TypeMismatchError, match=r"\* overflows a float"):
        execute(times[1], rel)


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


def _leaving_walk(rng: random.Random, r: Region) -> Trajectory:
    """A walk that starts or ends strictly inside r, or both, and leaves r
    in between; no vertex lies within 0.01 of a border line of r."""

    def inside():
        x = rng.uniform(r.x_min + 0.01, r.x_max - 0.01)
        return x, rng.uniform(r.y_min + 0.01, r.y_max - 0.01)

    def outside():
        x, y = inside()
        beyond = rng.uniform(0.01, 1.5)
        if rng.random() < 0.5:
            x = r.x_min - beyond if rng.random() < 0.5 else r.x_max + beyond
        else:
            y = r.y_min - beyond if rng.random() < 0.5 else r.y_max + beyond
        return x, y

    first, last = rng.choice(((inside, inside), (inside, outside), (outside, inside)))
    middle = [rng.choice((inside, outside)) for _ in range(rng.randint(0, 4))]
    middle.insert(rng.randint(0, len(middle)), outside)
    return build_trajectory(
        [(*place(), float(k)) for k, place in enumerate([first, *middle, last])]
    )


@pytest.mark.parametrize("label", SPATIAL_LABELS, ids=lambda lab: lab.value)
@pytest.mark.parametrize("mode", (STRICT, RELAXED), ids=("strict", "relaxed"))
def test_spatial_compile_matches_selection(label, mode):
    rng = random.Random(f"{label.value}/{mode.kind}")
    ast = de9im_predicate(label)
    for _ in range(60):
        r = random_region(rng)
        rel = TrajectoriesRelation.from_pairs(
            [
                (f"t{i}", off_boundary_trajectory(rng, r, 1, 12))
                for i in range(rng.randint(1, 8))
            ]
            + [("leaving", _leaving_walk(rng, r))]
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
    rng = random.Random(f"{label.value}/{mode.kind}")
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
    # g slides along the top edge, c passes through the corner (0, 1): each
    # touches the boundary, never the interior
    grazing = TrajectoriesRelation.from_pairs(
        [
            ("g", build_trajectory([(-0.5, 1.0, 0), (1.5, 1.0, 10)])),
            ("c", build_trajectory([(-1.0, 0.0, 0), (1.0, 2.0, 10)])),
        ]
    )
    unit = Region(0, 0, 1, 1)
    nrel = trajectories_to_nf2(grazing)
    assert _tids(execute(compile_spatial(De9imLabel.R031, unit, STRICT), nrel)) == {"g", "c"}
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
        # x is flat and outside R, and y1 - y0 overflows
        ([(1e308, -1e308, 0), (1e308, 1e308, 1)], Region(1, 1, 3, 3)),
    ),
)
def test_overflowing_segment_is_an_error_not_an_answer(label, samples, r):
    rel = TrajectoriesRelation.from_pairs([("o", build_trajectory(samples))])
    with pytest.raises(CrossingOverflowError):
        execute(compile_spatial(label, r, RELAXED), trajectories_to_nf2(rel))
    with pytest.raises(CrossingOverflowError):  # as the evaluator does
        select_st(rel, de9im_predicate(label), EvalEnv({"R": r}), RELAXED)


SEGMENT_SCHEMA = Nf2Schema(tuple(Attribute(n, "float") for n in ("x", "y", "x2", "y2")))
SEGMENT_R = Region(1.0, 1.0, 3.0, 3.0)
# R's bounds and the floats beside them, points inside and outside R, and ±1e308
SEGMENT_GRID = (-1e308, -1.0, 0.0, 2.0, 4.0, 1e308) + tuple(
    w for v in (1.0, 3.0) for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))
)
POINT_WITHIN = parse_predicate("EXISTS p IN T: p WITHIN R")
POINT_INSIDE = parse_predicate("EXISTS p IN T: p INSIDE R")


def _outcome(run):
    try:
        return run()
    except CrossingOverflowError:
        return CrossingOverflowError


@settings(max_examples=3000)
@given(
    st.tuples(*[st.sampled_from(SEGMENT_GRID)] * 4),
    st.booleans(),
    st.booleans(),
)
def test_segment_condition_is_relaxed_evaluation(coords, zero_length, closed):
    """A selection on SegIntersects keeps a one-segment row exactly when the
    relaxed evaluator finds a point of the two-point path within (closed) or
    inside (open) R, and raises where the evaluator raises."""
    x, y, x2, y2 = coords
    if zero_length:
        x2, y2 = x, y
    rel = Nf2Relation(SEGMENT_SCHEMA, ((x, y, x2, y2),))
    plan = Select(Input(), SegIntersects(SEGMENT_R, closed, "x", "y", "x2", "y2"))
    t = build_trajectory([(x, y, 0.0), (x2, y2, 1.0)])
    ast = POINT_WITHIN if closed else POINT_INSIDE
    kept = _outcome(lambda: len(execute(plan, rel)) == 1)
    holds = _outcome(lambda: evaluate(ast, t, EvalEnv({"R": SEGMENT_R}), RELAXED))
    assert kept == holds


def test_segment_condition_is_the_whole_condition_of_a_selection():
    cond = SegIntersects(SEGMENT_R, True, "x", "y", "x2", "y2")
    schema = Nf2Schema(SEGMENT_SCHEMA.attributes + (Attribute("n", "int"),))
    with pytest.raises(TypeMismatchError):  # inside a connective
        check(Select(Input(), BoolAnd((cond, Cmp("=", Attr("n"), Lit(0))))), schema)
    with pytest.raises(TypeMismatchError):  # as a join condition
        check(Join(Input(), Project(Input(), (As("m", "n"),)), cond), schema)
    nested = Nf2Schema((Attribute("x0", "float"), Attribute("S", POINTS_SCHEMA)))
    outer_x = SegIntersects(SEGMENT_R, True, "x0", "y", "x", "y")
    with pytest.raises(UnknownAttributeError):  # x0 belongs to the enclosing row
        check(
            Select(Input(), Cmp(">", Agg("count", Select(Attr("S"), outer_x)), Lit(0))),
            nested,
        )
    with pytest.raises(TypeMismatchError):  # n is an int
        check(Select(Input(), SegIntersects(SEGMENT_R, True, "x", "y", "n", "y2")), schema)
    assert check(Select(Input(), cond), schema) == schema


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


@pytest.mark.parametrize(
    "rel",
    [TrajectoriesRelation.from_pairs([("a", build_trajectory([(0, 0, 0)]))]), None],
    ids=["trajectories-relation", "none"],
)
def test_execute_over_a_value_that_is_no_nf2_relation_is_a_type_mismatch(rel):
    plan = compile_temporal(AllenLabel.PRECEDES, Interval(0, 1))
    with pytest.raises(TypeMismatchError, match="Nf2Relation"):
        execute(plan, rel)


def test_converting_a_value_that_is_no_trajectories_relation_is_a_type_mismatch():
    with pytest.raises(TypeMismatchError, match="NoneType"):
        trajectories_to_nf2(None)


def test_label_text_is_an_unsupported_label():
    with pytest.raises(UnsupportedLabelError, match="'R223'"):
        compile_spatial("R223", Region(0, 0, 1, 1), STRICT)
    with pytest.raises(UnsupportedLabelError, match="'Precedes'"):
        compile_temporal("Precedes", Interval(0, 1))


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
