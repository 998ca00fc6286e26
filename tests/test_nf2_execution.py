"""How the NF² executor runs plans: hash joins, invariant subexpressions
kept per operator evaluation, cost linear in points per trajectory, and one
compiled plan per plan object and input schema, reused by later runs.

Each property is checked against a plan the executor cannot shortcut
(the same join under a condition that is not a bare ``=``) or against
answers worked out by hand on small relations. Costs are observed as
counts: the row scopes (``_Scope`` objects) a plan builds, and the rows
of the relations its operators build (``_built``).
"""

import gc
import math
import random
import sys
import threading
import weakref
from copy import deepcopy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_trajectory
from trajq import nf2
from trajq.errors import CrossingOverflowError, TypeMismatchError, UnknownAttributeError
from trajq.evaluate import RELAXED, STRICT
from trajq.geometry import Interval, Region
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
    compile_temporal,
    execute,
    render,
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


def _counted(run, *args) -> tuple:
    """run(*args), the row scopes it built and the rows of the relations
    built inside the plans it ran."""
    counts = {"scopes": 0, "rows": 0}
    init, built = nf2._Scope.__init__, nf2._built

    def counting_init(self, *a):
        counts["scopes"] += 1
        init(self, *a)

    def counting_built(schema, rows):
        counts["rows"] += len(rows)
        return built(schema, rows)

    nf2._Scope.__init__, nf2._built = counting_init, counting_built
    try:
        return run(*args), counts
    finally:
        nf2._Scope.__init__, nf2._built = init, built


def _run_cost(plan, rel: Nf2Relation) -> tuple:
    """execute(plan, rel) and what running the plan costs, beyond checking
    and compiling it (done by a first run)."""
    execute(plan, rel)
    return _counted(execute, plan, rel)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sides())
def test_hash_join_equals_nested_loop(lr):
    left, right = lr
    dummy = Nf2Relation(Nf2Schema((Attribute("u", "int"),)), ())
    for cond in CONDITIONS:
        hashed = Join(ConstRel(left), ConstRel(right), cond)
        looped = Join(ConstRel(left), ConstRel(right), BoolOr((cond,)))
        got, cost = _run_cost(hashed, dummy)
        want = execute(looped, dummy)
        assert got.schema == want.schema
        assert got.rows == want.rows, cond
        # A scope per row of each side and one for the plan, none per pair.
        assert cost["scopes"] <= len(left) + len(right) + 1, cond


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


def _orders_plan(cond) -> Project:
    orders = Project(Select(Attr("T"), cond), (Col("order"),))
    return Project(Input(), (Col("tid"), Computed("O", orders)))


def _orders_where(cond) -> tuple:
    """The orders of the points of the one outer row that satisfy cond."""
    (row,) = execute(_orders_plan(cond), _outer_rel()).rows
    return tuple(o for (o,) in row[1].rows)


def _extra_cost(cond, per_row: bool = False) -> dict:
    """What selecting the points on cond costs beyond a condition with no
    subexpression that keeps the same points. With ``per_row``, cond reads
    the points in a subexpression, so it runs with a row scope per point;
    the base then does too, by a conjunct that reads the enclosing row."""
    kept = _orders_where(cond)
    plain = BoolOr(tuple(Cmp("=", Attr("order"), Lit(o)) for o in kept))
    if per_row:
        plain = BoolAnd((plain, Cmp("=", Attr("tid"), Attr("tid"))))
    _, cost = _run_cost(_orders_plan(cond), _outer_rel())
    _, base = _run_cost(_orders_plan(plain), _outer_rel())
    return {k: cost[k] - base[k] for k in cost}


def test_shadowing_inner_attribute_is_read_per_row():
    # x names the point's x (0.5, 1.5, 2.5, 3.5), shadowing the outer x = 10.
    below_x = Agg("count", Select(C, Cmp("<", Attr("c"), Attr("x"))))
    cond = Cmp(">=", below_x, Lit(2))
    assert _orders_where(cond) == (2, 3)
    # Each of the 4 points selects over the 3 rows of C.
    assert _extra_cost(cond, per_row=True) == {"scopes": 4 * 3, "rows": 0 + 1 + 2 + 3}


def test_inner_and_outer_names_are_read_per_row():
    # c < x - shift, with x the point's and shift = 1 the outer row's.
    below = Agg("count", Select(C, Cmp("<", Attr("c"), Arith("-", Attr("x"), Attr("shift")))))
    cond = Cmp("=", below, Lit(1))  # x - 1 in (1, 2]: the point x = 2.5
    assert _orders_where(cond) == (2,)
    assert _extra_cost(cond, per_row=True) == {"scopes": 4 * 3, "rows": 0 + 0 + 1 + 2}


def test_outer_only_subexpression_is_kept_per_operator():
    last = Agg("max", Project(Attr("T"), (Col("order"),)))
    cond = Cmp("=", Attr("order"), last)
    assert _orders_where(cond) == (3,)
    # max reads the order column of T where it is: no projection is built
    # (0 rows), and the selection runs on columns as its base does, one
    # operator scope each (0 extra scopes).
    assert _extra_cost(cond) == {"scopes": 0, "rows": 0}
    # A computed column is projected, once and not once per point: a scope
    # and a row per point.
    last = Agg("max", Project(Attr("T"), (Computed("o", Attr("order")),)))
    assert _orders_where(Cmp("=", Attr("order"), last)) == (3,)
    assert _extra_cost(Cmp("=", Attr("order"), last)) == {"scopes": 4, "rows": 4}


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


INTS = Nf2Schema((Attribute("x", "int"),))
# One row whose T holds one point with an int x; the points of
# _outer_rel() have a float x.
INT_T = Nf2Relation(Nf2Schema((Attribute("T", INTS),)), ((Nf2Relation(INTS, ((1,),)),),))


def test_node_reused_with_two_schemas_runs_like_its_copy():
    # One node object standing for two schemas: PROJECT[x](T) over the
    # points (x a float) and over a relation whose T has an int x.
    xs = Project(Attr("T"), (Col("x"),))
    other = ConstRel(INT_T)
    copy = Project(Attr("T"), (Col("x"),))  # an equal node of its own
    for node in (xs, copy):
        inner = Project(other, (Computed("c", Agg("count", node)),))
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
def test_plan_cost_is_linear_in_points(label, mode):
    # Counts row scopes and the rows of relations built inside the plan:
    # 4x the points must cost at most 5x of each; a quadratic plan costs
    # ~14x.
    plan = compile_spatial(label, R, mode)
    disjoint = ("w",) if label is De9imLabel.R031 else ()
    seen = []
    for n in (15, 60):
        result, cost = _counted(execute, plan, _miss_walk(11, n))
        assert result.column("tid") == disjoint
        seen.append(cost)
    for kind in seen[0]:
        assert seen[1][kind] <= 5 * seen[0][kind], seen


def _walk(xs) -> Nf2Relation:
    """A walk along y = 5 + i/100 through the given x positions."""
    samples = [(x, 5.0 + i / 100, float(i)) for i, x in enumerate(xs)]
    return trajectories_to_nf2(TrajectoriesRelation.from_pairs([("w", build_trajectory(samples))]))


@pytest.mark.parametrize("mode", (STRICT, RELAXED), ids=("strict", "relaxed"))
def test_endpoint_clauses_select_each_endpoint_once(mode):
    # in_out_in is in R at points 0-9 and 30-39 and right of it between;
    # in_out is in R up to point 19 and right of it after.
    n = 40
    in_out_in = _walk([4.0 + i % 10 / 5 if i < 10 or i >= 30 else 9.0 for i in range(n)])
    in_out = _walk([4.0 + i / 10 if i < 20 else 9.0 for i in range(n)])
    for label, holds_on in (
        (De9imLabel.R223, ()),
        (De9imLabel.R247, ("in-out-in",)),
        (De9imLabel.R255, ("in-out",)),
    ):
        plan = compile_spatial(label, R, mode)
        for name, rel in (("in-out-in", in_out_in), ("in-out", in_out)):
            result, cost = _run_cost(plan, rel)
            assert (result.column("tid") == ("w",)) == (name in holds_on), (label, name)
            # No scope per point: one for the plan, one for the walk's row,
            # and one per selection over the points that runs (each on
            # columns): an endpoint, then its test, for at most two
            # endpoints. R223's first clause fails on pf, which is inside.
            assert cost["scopes"] <= 1 + 1 + 2 * 2, (label, name, cost)



# --- column runners -----------------------------------------------------------

# Two nested relations per outer row, with int, float and str attributes:
# ints beyond 2**53 (compared with floats exactly) and one no float holds
# (so arithmetic with a float overflows), NaN, -0.0 and infinities, and an
# int in a float attribute. Either relation may be empty, so an aggregate
# over it is undefined.
NM_INTS = (0, 1, -1, 2, 2**53 + 1, -(2**53) - 1, 2**63, 10**400)
NM_FLOATS = (0.0, -0.0, 0.5, 1.0, -1.0, 2.0**53, 2.0**53 + 2, math.nan, math.inf, -math.inf, 2**53 + 1)
NM_STRS = ("", "a", "b", "ab")
N_SCHEMA = Nf2Schema((Attribute("i", "int"), Attribute("f", "float"), Attribute("s", "str")))
M_SCHEMA = Nf2Schema((Attribute("j", "int"), Attribute("g", "float"), Attribute("t", "str")))
NM = Nf2Schema(
    (
        Attribute("tid", "str"),
        Attribute("shift", "int"),
        Attribute("N", N_SCHEMA),
        Attribute("M", M_SCHEMA),
    )
)
# reads the enclosing row, so a condition holding it runs with a row scope each
ON_ROWS = Cmp("=", Attr("tid"), Attr("tid"))


def _nested(draw, schema, most):
    value = st.tuples(st.sampled_from(NM_INTS), st.sampled_from(NM_FLOATS), st.sampled_from(NM_STRS))
    return Nf2Relation(schema, tuple(draw(st.lists(value, max_size=most))))


@st.composite
def nm_relations(draw):
    return Nf2Relation(
        NM,
        tuple(
            (f"t{k}", draw(st.sampled_from((0, 1, -1))), _nested(draw, N_SCHEMA, 6), _nested(draw, M_SCHEMA, 3))
            for k in range(draw(st.integers(1, 3)))
        ),
    )


# Operands over the rows of N: attributes, literals, arithmetic, and
# invariants (aggregates over M or N, a count, a scalar coercion of M).
NM_NUMBERS = st.one_of(
    st.sampled_from((Attr("i"), Attr("f"))),
    st.sampled_from(NM_INTS + NM_FLOATS).map(Lit),
    st.builds(
        Arith,
        st.sampled_from(("+", "-", "*")),
        st.sampled_from((Attr("i"), Attr("f"))),
        st.sampled_from((Lit(1), Lit(-0.0), Lit(2.5), Attr("i"), Attr("f"))),
    ),
    st.sampled_from(
        tuple(Agg(fn, Project(Attr(rel), (Col(c),))) for fn in ("min", "max") for rel, c in (("M", "g"), ("M", "j"), ("N", "f")))
        + (Agg("count", Attr("M")),)
    ),
)
NM_TEXTS = st.one_of(
    st.just(Attr("s")),
    st.sampled_from(NM_STRS).map(Lit),
    st.just(Project(Attr("M"), (Col("t"),))),  # raises for two or more rows of M
)
OPS = st.sampled_from(("<", ">", "=", "<=", ">=", "!="))
NM_COMPARISONS = st.one_of(
    st.builds(Cmp, OPS, NM_NUMBERS, NM_NUMBERS), st.builds(Cmp, OPS, NM_TEXTS, NM_TEXTS)
)
NM_CONDITIONS = st.recursive(
    NM_COMPARISONS,
    lambda inner: st.one_of(
        st.builds(BoolAnd, st.lists(inner, max_size=3).map(tuple)),
        st.builds(BoolOr, st.lists(inner, max_size=3).map(tuple)),
        st.builds(nf2.BoolNot, inner),
    ),
    max_leaves=6,
)


def _outcome(plan, rel):
    """The result of a run, or the type of the error it raised."""
    try:
        return execute(plan, rel)
    except TypeMismatchError as exc:
        return type(exc)


def _per_outer_row(node) -> Project:
    return Project(Input(), (Col("tid"), Computed("S", node)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(nm_relations(), NM_CONDITIONS)
def test_selection_on_columns_equals_selection_on_rows(rel, cond):
    on_columns = _per_outer_row(Select(Attr("N"), cond))
    on_rows = _per_outer_row(Select(Attr("N"), BoolAnd((cond, ON_ROWS))))
    assert _outcome(on_columns, rel) == _outcome(on_rows, rel), render(cond)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(nm_relations(), OPS, st.sampled_from(("min", "max")), st.sampled_from(("i", "f")))
def test_aggregate_of_a_column_equals_aggregate_of_a_projection(rel, op, fn, name):
    # min/max of N's column, against the same over a projection built row
    # by row; both compared with each row of N, undefined on an empty N.
    column = Agg(fn, Project(Attr("N"), (Col(name),)))
    projected = Agg(fn, Project(Attr("N"), (Computed(name, Attr(name)),)))
    got, want = (
        _outcome(_per_outer_row(Select(Attr("N"), Cmp(op, Attr("f"), agg))), rel)
        for agg in (column, projected)
    )
    assert got == want
    # Python's min/max over the column, in row order: with NaN, the same object.
    nonempty = Select(Input(), Cmp(">", Agg("count", Attr("N")), Lit(0)))
    pick, at = (min if fn == "min" else max), N_SCHEMA.index(name)
    for n, value in execute(Project(nonempty, (Col("N"), Computed("v", column))), rel).rows:
        assert value is pick([row[at] for row in n.rows])


LEFT_KEYS = (Attr("i"), Attr("f"), Arith("+", Attr("i"), Lit(1)), Arith("*", Attr("f"), Lit(-1.0)), Lit(1))
RIGHT_KEYS = (Attr("j"), Attr("g"), Arith("-", Attr("j"), Lit(1)), Agg("max", Project(Attr("N"), (Col("f"),))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    nm_relations(),
    st.one_of(
        st.tuples(st.sampled_from(LEFT_KEYS), st.sampled_from(RIGHT_KEYS)),
        st.just((Attr("f"), Attr("g"))),  # often the same NaN object on both sides
        st.just((Attr("s"), Attr("t"))),
    ),
    st.booleans(),
)
def test_join_on_columns_equals_nested_loop(rel, keys, flipped):
    a, b = keys[::-1] if flipped else keys
    on_columns = _per_outer_row(Join(Attr("N"), Attr("M"), Cmp("=", a, b)))
    nested_loop = _per_outer_row(Join(Attr("N"), Attr("M"), BoolAnd((Cmp("=", a, b), ON_ROWS))))
    assert _outcome(on_columns, rel) == _outcome(nested_loop, rel), (render(a), render(b))


def _nm(n: int) -> Nf2Relation:
    """One outer row whose N and M hold n rows each."""
    n_rows = tuple((k, float(k), "ab"[k % 2]) for k in range(n))
    m_rows = tuple((k, k + 0.5, "ab"[k % 2]) for k in range(n))
    return Nf2Relation(
        NM, (("a", 1, Nf2Relation(N_SCHEMA, n_rows), Nf2Relation(M_SCHEMA, m_rows)),)
    )


RUN_ON_COLUMNS = (
    Select(Attr("N"), Cmp("<", Attr("i"), Lit(3))),
    Select(
        Attr("N"),
        BoolOr(
            (
                nf2.BoolNot(Cmp("=", Attr("s"), Lit("a"))),
                BoolAnd((Cmp(">=", Attr("f"), Lit(1.0)), Cmp("!=", Attr("i"), Lit(2)))),
            )
        ),
    ),
    Select(Attr("N"), Cmp("=", Arith("+", Attr("i"), Lit(1)), Attr("f"))),
    # hoisted invariants: an aggregate, a count, a relation coerced to a scalar
    Select(Attr("N"), Cmp("=", Attr("f"), Agg("max", Project(Attr("N"), (Col("f"),))))),
    Select(Attr("N"), Cmp("<", Attr("i"), Agg("count", Attr("M")))),
    Select(
        Attr("N"),
        Cmp("=", Attr("s"), Project(Select(Attr("M"), Cmp("=", Attr("j"), Lit(0))), (Col("t"),))),
    ),
    Join(Attr("N"), Attr("M"), Cmp("=", Attr("i"), Attr("j"))),
    Join(Attr("N"), Attr("M"), Cmp("=", Attr("j"), Arith("+", Attr("i"), Lit(1)))),
)
RUN_ON_ROWS = (
    # an attribute of the enclosing row, read directly
    Select(Attr("N"), Cmp("=", Attr("tid"), Lit("a"))),
    Select(Attr("N"), Cmp("<", Attr("i"), Attr("shift"))),
    Join(Attr("N"), Attr("M"), Cmp("=", Arith("+", Attr("i"), Attr("shift")), Attr("j"))),
    # a subexpression that reads the row
    Select(Attr("N"), Cmp(">", Agg("count", Select(Attr("M"), Cmp("<", Attr("j"), Attr("i")))), Lit(0))),
    # a join on anything but `=`: a nested loop
    Join(Attr("N"), Attr("M"), Cmp("<", Attr("i"), Attr("j"))),
)


@pytest.mark.parametrize(
    "node, on_columns",
    [(node, True) for node in RUN_ON_COLUMNS] + [(node, False) for node in RUN_ON_ROWS],
    ids=lambda v: render(v) if not isinstance(v, bool) else str(v),
)
def test_which_operators_run_on_columns(node, on_columns):
    # On columns an operator builds a fixed number of scopes (one per
    # evaluation, or per join key read from columns); on rows, one per row
    # of N (and of M, for a join's keys or loop), so 36 more for 40 rows
    # than for 4.
    plan = _per_outer_row(node)
    small, large = (_run_cost(plan, _nm(n))[1]["scopes"] for n in (4, 40))
    if on_columns:
        assert small == large, (small, large)
    else:
        assert large - small >= 36, (small, large)


@pytest.mark.parametrize("fn", ("min", "max"))
def test_min_max_of_a_column_build_no_projection(fn):
    # A scope for the plan and one for the outer row, and the one result
    # row; the Computed projection builds a scope and a row per row of N.
    for n in (4, 40):
        column = Agg(fn, Project(Attr("N"), (Col("f"),)))
        projected = Agg(fn, Project(Attr("N"), (Computed("f", Attr("f")),)))
        plans = (Project(Input(), (Computed("v", agg),)) for agg in (column, projected))
        costs = [_run_cost(plan, _nm(n))[1] for plan in plans]
        assert costs == [{"scopes": 2, "rows": 1}, {"scopes": 2 + n, "rows": 1 + n}]


@pytest.mark.parametrize("label", (De9imLabel.R031, De9imLabel.R223), ids=("R031", "R223"))
def test_segment_join_and_test_run_on_columns(label):
    plan = compile_spatial(label, R, RELAXED)
    scopes = {_run_cost(plan, _miss_walk(11, n))[1]["scopes"] for n in (15, 60)}
    assert len(scopes) == 1, scopes


def test_columns_of_relations_a_run_builds_die_with_it():
    rel = _miss_walk(11, 20)
    ((_, points),) = rel.rows
    # Every point passes, so the selection, which reads the columns of the
    # projection, returns the projection as it is.
    everything = Select(Project(Attr("T"), (Col("x"), Col("y"))), Cmp(">", Attr("x"), Lit(-math.inf)))
    ((kept,),) = execute(Project(Input(), (Computed("S", everything),)), rel).rows
    assert kept.rows == tuple((x, y) for _, x, y, _ in points.rows)
    assert kept.__dict__["_cols"] is None  # derived on each use, never kept
    # the input's points keep theirs
    assert nf2._columns(points) is nf2._columns(points)


# --- one compiled plan per plan object and input schema ----------------------

REUSE_R = Region(-1.0, -1.0, 1.0, 1.0)
REUSE_I = Interval(20.0, 40.0)


def _every_compiled_plan() -> list:
    return [
        compile_spatial(label, REUSE_R, mode)
        for label in nf2._SPATIAL_LABELS
        for mode in (STRICT, RELAXED)
    ] + [compile_temporal(label, REUSE_I) for label in nf2._TEMPORAL_LABELS]


def _generated(seed: int) -> Nf2Relation:
    rng = random.Random(seed)
    rows = [(f"t{k}", random_trajectory(rng, max_points=12)) for k in range(12)]
    # and one walk that passes through REUSE_R with both ends outside it
    rows.append(("cross", build_trajectory([(-2.0, 0.5, 0.0), (2.0, 0.5, 30.0)])))
    return trajectories_to_nf2(TrajectoriesRelation.from_pairs(rows))


RELATIONS = tuple(_generated(seed) for seed in (1301, 1302, 1303))


def _compiles(monkeypatch) -> list:
    """The input schema of every ``_Compiler.plan`` call from now on."""
    calls = []
    plan = nf2._Compiler.plan

    def counted(self, e):
        calls.append(self.input_schema)
        return plan(self, e)

    monkeypatch.setattr(nf2._Compiler, "plan", counted)
    return calls


def test_kept_runners_run_like_fresh_copies():
    plans = _every_compiled_plan()
    answers = set()
    for _ in range(3):
        for rel in RELATIONS:
            for plan in plans:
                got = execute(plan, rel)
                assert got == execute(deepcopy(plan), rel), render(plan)
                answers.add(got.column("tid"))
    assert len(answers) > 3  # the plans tell the relations apart


def test_plan_is_compiled_once_per_input_schema(monkeypatch):
    calls = _compiles(monkeypatch)
    plan = compile_spatial(De9imLabel.R223, REUSE_R, RELAXED)
    rel = RELATIONS[0]
    results = {execute(plan, rel) for _ in range(10)}
    assert len(calls) == 1 and len(results) == 1
    # An equal schema of another object finds the same runner.
    same = Nf2Relation(Nf2Schema(tuple(rel.schema.attributes)), rel.rows)
    assert same.schema is not rel.schema
    assert execute(plan, same) == execute(plan, rel) and len(calls) == 1
    # check type-checks every time.
    nf2.check(plan, rel.schema)
    nf2.check(plan, rel.schema)
    assert len(calls) == 3

    # The two relations of test_node_reused_with_two_schemas_runs_like_its_copy:
    # T's x is a float in one and an int in the other.
    xs = Project(Attr("T"), (Col("x"),))
    both = Project(Input(), (Computed("n", Agg("count", xs)), Computed("m", Agg("max", xs))))
    pairs = ((_outer_rel(), ((4, 3.5),)), (INT_T, ((1, 1),)))
    calls.clear()
    results = [execute(both, rel) for _ in range(10) for rel, _ in pairs]
    assert calls == [OUTER, INT_T.schema]
    for got, (rel, want) in zip(results, pairs * 10):
        assert got.rows == want and got == execute(deepcopy(both), rel)


def test_ill_typed_plan_raises_on_every_call(monkeypatch):
    calls = _compiles(monkeypatch)
    bad = Select(Input(), Cmp("<", Attr("tid"), Lit(1)))  # a str against an int
    for _ in range(3):
        with pytest.raises(TypeMismatchError):
            execute(bad, RELATIONS[0])
    assert len(calls) == 3 and id(bad) not in nf2._RUNNERS
    # A plan that compiles over one schema and not over another keeps the
    # runner it has, and fails again over the other.
    last = Project(Input(), (Computed("m", Agg("max", Project(Attr("T"), (Col("order"),)))),))
    want = execute(last, RELATIONS[0])
    for _ in range(2):
        with pytest.raises(UnknownAttributeError):
            execute(last, INT_T)  # its points have no order
    assert execute(last, RELATIONS[0]) == want and len(calls) == 3 + 3


def test_run_that_raises_leaves_the_runner_correct():
    plan = compile_spatial(De9imLabel.R223, REUSE_R, RELAXED)
    walk = build_trajectory([(-1e308, 0.5, 0.0), (1e308, 0.5, 1.0)])
    overflowing = trajectories_to_nf2(TrajectoriesRelation.from_pairs([("o", walk)]))
    for rel in RELATIONS:
        with pytest.raises(CrossingOverflowError):
            execute(plan, overflowing)
        got = execute(plan, rel)
        assert got == execute(deepcopy(plan), rel)
        assert "cross" in got.column("tid")


def test_kept_runner_dies_with_its_plan():
    gc.collect()  # so that only this plan can leave the cache from here on
    before = len(nf2._RUNNERS)
    plan = compile_spatial(De9imLabel.R031, REUSE_R, RELAXED)
    key, ref = id(plan), weakref.ref(plan)
    for rel in RELATIONS:
        execute(plan, rel)
    assert key in nf2._RUNNERS and len(nf2._RUNNERS) == before + 1
    del plan
    gc.collect()
    assert ref() is None
    assert key not in nf2._RUNNERS and len(nf2._RUNNERS) == before


def test_threads_sharing_plans_get_the_answers_of_fresh_copies():
    # Threads that run the same new plan objects at once may each compile
    # them; every answer is still a fresh copy's.
    want = {
        (p, r): execute(deepcopy(plan), rel)
        for p, plan in enumerate(_every_compiled_plan())
        for r, rel in enumerate(RELATIONS)
    }
    plans = _every_compiled_plan()
    wrong = []

    def work(offset):
        for k in range(len(want)):
            p, r = divmod((k + offset) % len(want), len(RELATIONS))
            if execute(plans[p], RELATIONS[r]) != want[p, r]:
                wrong.append((p, r))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(7 * i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and wrong == []
