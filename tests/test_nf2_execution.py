"""How the NF² executor runs plans: hash joins, invariant subexpressions
kept per operator evaluation, and cost linear in points per trajectory.

Each property is checked against a plan the executor cannot shortcut
(the same join under a condition that is not a bare ``=``) or against
answers worked out by hand on small relations.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajq import nf2
from trajq.errors import TypeMismatchError
from trajq.evaluate import RELAXED, STRICT
from trajq.geometry import Region
from trajq.model import TrajectoriesRelation, build_trajectory
from trajq.nf2 import (
    POINTS_SCHEMA,
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
    ConstRel,
    Input,
    Join,
    Lit,
    Nf2Relation,
    Nf2Schema,
    Project,
    Select,
    compile_spatial,
    execute,
    trajectories_to_nf2,
)
from trajq.relations import De9imLabel

# --- hash join = nested loop ------------------------------------------------

# Keys equal across types (1 and 1.0, -0.0 and 0.0), NaN, and duplicates.
KEYS = (0, 1, 1.0, -0.0, 0.0, 2, 2.5, -1, math.nan)
CELL = Nf2Schema((Attribute("v", "float"),))
# One side of the join: a row id, a numeric key, a shift, and a nested
# relation of at most one row whose scalar is undefined when it is empty.
LEFT = Nf2Schema(
    (Attribute("i", "int"), Attribute("k", "float"), Attribute("s", "int"), Attribute("n", CELL))
)
RIGHT = Nf2Schema(
    (Attribute("j", "int"), Attribute("k2", "float"), Attribute("s2", "int"), Attribute("n2", CELL))
)


@st.composite
def sides(draw):
    cells = st.integers(0, 1)

    def rows(schema):
        return tuple(
            (
                i,
                draw(st.sampled_from(KEYS)),
                draw(st.integers(-2, 3)),
                Nf2Relation(CELL, tuple((draw(st.sampled_from(KEYS)),) for _ in range(draw(cells)))),
            )
            for i in range(draw(st.integers(0, 6)))
        )

    return Nf2Relation(LEFT, rows(LEFT)), Nf2Relation(RIGHT, rows(RIGHT))


# (key over the left row, key over the right row), each written once with
# the left key on the left of `=` and once on the right.
KEY_PAIRS = (
    (Attr("k"), Attr("k2")),
    (Attr("n"), Attr("n2")),  # scalar of a 0- or 1-row relation
    (Attr("k"), Attr("n2")),
) + tuple((Arith("+", Attr("s"), Lit(k)), Attr("s2")) for k in (-1, 0, 1, 2))
CONDITIONS = tuple(Cmp("=", a, b) for a, b in KEY_PAIRS) + tuple(
    Cmp("=", b, a) for a, b in KEY_PAIRS
)


def _hashed(plan: Join, schema: Nf2Schema) -> bool:
    checker = nf2._Checker(schema)
    checker.check(plan)
    return checker.join_keys[id(plan)] is not None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sides())
def test_hash_join_equals_nested_loop(lr):
    left, right = lr
    dummy = Nf2Relation(Nf2Schema((Attribute("u", "int"),)), ())
    for cond in CONDITIONS:
        hashed = Join(ConstRel(left), ConstRel(right), cond)
        looped = Join(ConstRel(left), ConstRel(right), BoolOr((cond,)))
        assert _hashed(hashed, dummy.schema) and not _hashed(looped, dummy.schema)
        got, want = execute(hashed, dummy), execute(looped, dummy)
        assert got.schema == want.schema
        assert got.rows == want.rows, cond


def test_hash_join_keys_read_the_enclosing_row():
    # order + shift = order2, shift an attribute of the enclosing row: the
    # left key reads the left side and the outer row, never the right side.
    schema = Nf2Schema(
        (Attribute("tid", "str"), Attribute("shift", "int"), Attribute("T", POINTS_SCHEMA))
    )
    points = Nf2Relation(POINTS_SCHEMA, tuple((o, float(o), 0.0, float(o)) for o in range(5)))
    rel = Nf2Relation(schema, (("a", 1, points), ("b", 3, points), ("c", 9, points)))
    renamed = Project(Attr("T"), (As("order2", "order"),))
    for cond in (
        Cmp("=", Arith("+", Attr("order"), Attr("shift")), Attr("order2")),
        Cmp("=", Attr("order2"), Arith("+", Attr("order"), Attr("shift"))),
    ):
        plan, looped = (
            Project(
                Input(),
                (Col("tid"), Computed("P", Project(Join(Attr("T"), renamed, c), (Col("order"), Col("order2"))))),
            )
            for c in (cond, BoolOr((cond,)))
        )
        got = execute(plan, rel)
        assert got == execute(looped, rel)
        pairs = {tid: p.rows for tid, p in got.rows}
        assert pairs == {"a": ((0, 1), (1, 2), (2, 3), (3, 4)), "b": ((0, 3), (1, 4)), "c": ()}


def test_join_with_an_empty_side_evaluates_no_key():
    # A key that would raise (multi-row scalar) is never run when a side is
    # empty, as in the nested loop.
    many = ConstRel(Nf2Relation(CELL, ((1.0,), (2.0,))))
    a = Nf2Relation(Nf2Schema((Attribute("a", "int"),)), ((1,),))
    b = Nf2Relation(Nf2Schema((Attribute("b", "int"),)), ((1,),))
    no_b = Nf2Relation(b.schema, ())
    for left, right in ((a, no_b), (no_b, a)):
        key = Attr(left.schema.names()[0])
        for cond in (Cmp("=", key, many), Cmp("=", many, key)):
            assert execute(Join(ConstRel(left), ConstRel(right), cond), a).rows == ()
    with pytest.raises(TypeMismatchError):
        execute(Join(ConstRel(a), ConstRel(b), Cmp("=", Attr("a"), many)), a)


# --- invariant subexpressions -------------------------------------------------

C = ConstRel(Nf2Relation(Nf2Schema((Attribute("c", "float"),)), ((1.0,), (2.0,), (3.0,))))
OUTER = Nf2Schema(
    (
        Attribute("tid", "str"),
        Attribute("x", "float"),
        Attribute("shift", "float"),
        Attribute("T", POINTS_SCHEMA),
    )
)


def _outer_rel() -> Nf2Relation:
    points = Nf2Relation(POINTS_SCHEMA, tuple((o, o + 0.5, 0.0, float(o)) for o in range(4)))
    return Nf2Relation(OUTER, (("a", 10.0, 1.0, points),))


def _orders_where(cond) -> tuple:
    """The orders of the points of the one outer row that satisfy cond."""
    orders = Project(Select(Attr("T"), cond), (Col("order"),))
    (row,) = execute(Project(Input(), (Col("tid"), Computed("O", orders))), _outer_rel()).rows
    return tuple(o for (o,) in row[1].rows)


def _hoisted(plan, schema, node) -> bool:
    checker = nf2._Checker(schema)
    checker.check(plan)
    return checker.hoisted[id(node)]


def test_shadowing_inner_attribute_is_read_per_row():
    # x names the point's x (0.5, 1.5, 2.5, 3.5), shadowing the outer x = 10.
    below_x = Agg("count", Select(C, Cmp("<", Attr("c"), Attr("x"))))
    cond = Cmp(">=", below_x, Lit(2))
    assert _orders_where(cond) == (2, 3)
    plan = Select(Input(), Cmp(">", Agg("count", Select(Attr("T"), cond)), Lit(0)))
    assert not _hoisted(plan, OUTER, below_x)


def test_inner_and_outer_names_are_read_per_row():
    # c < x - shift, with x the point's and shift = 1 the outer row's.
    below = Agg("count", Select(C, Cmp("<", Attr("c"), Arith("-", Attr("x"), Attr("shift")))))
    cond = Cmp("=", below, Lit(1))  # x - 1 in (1, 2]: the point x = 2.5
    assert _orders_where(cond) == (2,)
    plan = Select(Input(), Cmp(">", Agg("count", Select(Attr("T"), cond)), Lit(0)))
    assert not _hoisted(plan, OUTER, below)


def test_outer_only_subexpression_is_kept_per_operator():
    last = Agg("max", Project(Attr("T"), (Col("order"),)))
    cond = Cmp("=", Attr("order"), last)
    assert _orders_where(cond) == (3,)
    plan = Select(Input(), Cmp(">", Agg("count", Select(Attr("T"), cond)), Lit(0)))
    assert _hoisted(plan, OUTER, last)


def test_invariant_subexpression_that_would_raise_is_not_run_early():
    # The x column of T has four rows, so as a scalar it raises; it is
    # invariant in the rows of T, but guarded here.
    all_x = Cmp("=", Project(Attr("T"), (Col("x"),)), Lit(1.0))
    never = Cmp("<", Attr("order"), Lit(0))
    assert _orders_where(BoolAnd((never, all_x))) == ()
    assert _orders_where(BoolOr((Cmp(">=", Attr("order"), Lit(0)), all_x))) == (0, 1, 2, 3)
    over_empty = Agg("count", Select(Select(Attr("T"), never), all_x))
    assert execute(Project(Input(), (Computed("n", over_empty),)), _outer_rel()).rows == ((0,),)
    with pytest.raises(TypeMismatchError):
        _orders_where(BoolAnd((Cmp(">=", Attr("order"), Lit(0)), all_x)))


def test_empty_projection_reads_the_enclosing_row():
    # A projection over no rows, with an item naming the enclosing row, has
    # the checker's schema (and raised an unknown attribute before).
    no_points = Select(Attr("T"), Cmp("<", Attr("order"), Lit(0)))
    inner = Project(no_points, (Computed("t", Attr("tid")),))
    out = execute(Project(Input(), (Col("tid"), Computed("S", inner))), _outer_rel())
    assert out.rows[0][1] == Nf2Relation(Nf2Schema((Attribute("t", "str"),)), ())


def test_result_rows_are_checked_at_the_boundary():
    bad = Nf2Relation(Nf2Schema((Attribute("a", "int"),)), ((1,),))
    object.__setattr__(bad, "rows", (("not an int",),))
    with pytest.raises(TypeMismatchError):
        execute(ConstRel(bad), bad)


def test_node_reused_with_two_schemas_is_rejected():
    # The executor takes each projection's schema from the checker by node
    # identity, so one node object may not stand for two schemas.
    xs = Project(Attr("T"), (Col("x"),))
    ints = Nf2Schema((Attribute("x", "int"),))
    other = ConstRel(
        Nf2Relation(Nf2Schema((Attribute("T", ints),)), ((Nf2Relation(ints, ((1,),)),),))
    )
    inner = Project(other, (Computed("c", Agg("count", xs)),))
    plan = Project(Input(), (Computed("a", Agg("count", xs)), Computed("b", Agg("count", inner))))
    with pytest.raises(TypeMismatchError):
        execute(plan, _outer_rel())
    copy = Project(Attr("T"), (Col("x"),))  # an equal node of its own
    inner = Project(other, (Computed("c", Agg("count", copy)),))
    plan = Project(Input(), (Computed("a", Agg("count", xs)), Computed("b", Agg("count", inner))))
    assert execute(plan, _outer_rel()).rows == ((4, 1),)


# --- linearity guard --------------------------------------------------------

R = Region(3.0, 3.0, 7.0, 7.0)


def _miss_walk(seed: int, n: int) -> Nf2Relation:
    """A reflected random walk in the box [0, 2.5] x [0, 10], left of R."""
    rng = random.Random(seed)
    x, y, samples = 1.0, 5.0, []
    for i in range(n):
        samples.append((x, y, float(i)))
        x = min(2.5, abs(x + rng.uniform(-0.4, 0.4)))
        y = min(10.0, abs(y + rng.uniform(-0.4, 0.4)))
    return trajectories_to_nf2(TrajectoriesRelation.from_pairs([("w", build_trajectory(samples))]))


@pytest.mark.parametrize(
    "label, mode",
    ((De9imLabel.R031, RELAXED), (De9imLabel.R223, RELAXED), (De9imLabel.R223, STRICT)),
    ids=("R031-relaxed", "R223-relaxed", "R223-strict"),
)
def test_plan_cost_is_linear_in_points(monkeypatch, label, mode):
    # Counts expression evaluations (calls of _Executor.run) and row scopes
    # (constructions of _Scope): 4x the points must cost at most 5x of each;
    # a quadratic plan costs ~14x.
    counts = {"run": 0, "scope": 0}

    def counting(kind, method):
        def wrapper(self, *args):
            counts[kind] += 1
            return method(self, *args)

        return wrapper

    monkeypatch.setattr(nf2._Executor, "run", counting("run", nf2._Executor.run))
    monkeypatch.setattr(nf2._Scope, "__init__", counting("scope", nf2._Scope.__init__))
    plan = compile_spatial(label, R, mode)
    disjoint = ("w",) if label is De9imLabel.R031 else ()
    seen = []
    for n in (15, 60):
        counts.update(run=0, scope=0)
        assert execute(plan, _miss_walk(11, n)).column("tid") == disjoint
        seen.append(dict(counts))
    for kind in counts:
        assert seen[1][kind] <= 5 * seen[0][kind], seen

