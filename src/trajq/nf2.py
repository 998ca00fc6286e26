"""A miniature nested-relational algebra engine.

Relations here may carry relation-valued attributes, so one row can hold a
whole trajectory as a nested table: TRAJECTORIES(tid, T(order, x, y, tau)).
The engine interprets a small algebra over such relations — projection
(with nested sub-projections and computed attributes), selection whose
conditions may contain aggregate subexpressions over nested relations,
unnest, theta-join, and min/max/count aggregates — enough to run the
selection expressions that mirror the predicate catalogs, plus compilers
that produce those expressions for a handful of relation labels.

Conditions are evaluated with lexical row scoping: a nested selection like
``order = max(PROJECT[order](T))`` sees the inner row's attributes first
and falls back to the enclosing row for ``T``. A min/max over an empty
relation yields an undefined value; any comparison against it is false, so
selections simply drop such rows, and count of an empty relation is 0.

Every expression is type-checked against the input schema and compiled in
the same pass, so one node object may appear anywhere in a plan. It has a
stable text rendering (PROJECT[...], SELECT[...], UNNEST[...], JOIN[...])
used by the command line explain output.

Execution is linear in the rows of each operator, so compiled plans are
linear in points per trajectory:

* A join whose condition is ``a = b``, with ``a`` reading no attribute of
  the right side and ``b`` none of the left (or the reverse), is a hash
  join; its output order is the nested loop's (left-major, right rows in
  input order), and an undefined or NaN key matches nothing. Any other
  join is a nested loop.
* A relation-valued or aggregate subexpression that reads no attribute of
  the rows of its enclosing selection, join or projection (found while it
  is compiled, as every name is resolved then) is invariant: it is
  evaluated lazily on first use and kept for that one evaluation of the
  operator, i.e. once per outer row.
* A segment test (``SegIntersects``) is only ever a selection's whole
  condition, decided for all its rows in one call of the evaluator's
  crossing code (``geometry.box_params``): it raises
  ``CrossingOverflowError`` wherever relaxed evaluation does.
* Rows are checked where they enter: by the public ``Nf2Relation``
  constructor, and once on the result of ``execute``. Relations built
  inside a plan take their schemas from the compiler and skip the per-row
  checks.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from itertools import compress
from typing import Union

import numpy as np

from ._fmt import format_float
from .errors import (
    PredicateTypeError,
    TypeMismatchError,
    UnknownAttributeError,
    UnsupportedLabelError,
    UnsupportedStrictnessError,
)
from .evaluate import Strictness
from .geometry import Interval, Region, box_params
from .model import TrajectoriesRelation
from .relations import AllenLabel, De9imLabel

_ATOMIC = ("str", "int", "float")


@dataclass(frozen=True)
class Attribute:
    """One schema attribute: atomic ("str"/"int"/"float") or nested relation."""

    name: str
    type: Union[str, "Nf2Schema"]

    def __post_init__(self):
        if isinstance(self.type, str) and self.type not in _ATOMIC:
            raise TypeMismatchError(f"unknown atomic type {self.type!r}")


@dataclass(frozen=True)
class Nf2Schema:
    attributes: tuple[Attribute, ...]
    # attribute name -> position in a row; derived, so not compared
    positions: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        positions = {a.name: i for i, a in enumerate(self.attributes)}
        if len(positions) != len(self.attributes):
            names = [a.name for a in self.attributes]
            raise TypeMismatchError(f"duplicate attribute names in {names}")
        object.__setattr__(self, "positions", positions)

    def names(self) -> tuple[str, ...]:
        return tuple(self.positions)

    def get(self, name: str) -> Attribute:
        return self.attributes[self.index(name)]

    def index(self, name: str) -> int:
        if name not in self.positions:
            raise UnknownAttributeError(name)
        return self.positions[name]


def _conforms(value, atype) -> bool:
    if isinstance(atype, Nf2Schema):
        return isinstance(value, Nf2Relation) and value.schema == atype
    if atype == "str":
        return isinstance(value, str)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if atype == "int":
        return isinstance(value, int)
    if isinstance(value, int):  # a float attribute holds ints that float() takes
        try:
            float(value)
        except OverflowError:
            return False
    return True


@dataclass(frozen=True)
class Nf2Relation:
    """An immutable relation whose rows conform to its schema."""

    schema: Nf2Schema
    rows: tuple[tuple, ...]

    def __post_init__(self):
        width = len(self.schema.attributes)
        for row in self.rows:
            if len(row) != width:
                raise TypeMismatchError(
                    f"row width {len(row)} does not match schema width {width}"
                )
            for value, attr in zip(row, self.schema.attributes):
                if not _conforms(value, attr.type):
                    raise TypeMismatchError(
                        f"value {value!r} does not conform to attribute "
                        f"{attr.name} of type {attr.type}"
                    )

    def column(self, name: str) -> tuple:
        i = self.schema.index(name)
        return tuple(row[i] for row in self.rows)

    def __len__(self) -> int:
        return len(self.rows)


def _built(schema: Nf2Schema, rows: tuple) -> Nf2Relation:
    """A relation a plan built from checked parts, without row checks."""
    rel = object.__new__(Nf2Relation)
    object.__setattr__(rel, "schema", schema)
    object.__setattr__(rel, "rows", rows)
    return rel


class _Undefined:
    """Result of min/max over nothing; every comparison against it is false."""

    def __repr__(self):
        return "UNDEFINED"


UNDEFINED = _Undefined()


# --- expression nodes ---------------------------------------------------

_COMPARE = {"<": operator.lt, ">": operator.gt, "=": operator.eq,
            "<=": operator.le, ">=": operator.ge, "!=": operator.ne}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


@dataclass(frozen=True)
class Input:
    """The relation handed to execute()."""


@dataclass(frozen=True)
class ConstRel:
    rel: Nf2Relation


@dataclass(frozen=True)
class Attr:
    name: str


@dataclass(frozen=True)
class Lit:
    value: Union[str, int, float]


@dataclass(frozen=True)
class Col:
    """Projection item: keep an attribute as is."""

    name: str


@dataclass(frozen=True)
class As:
    """Projection item: keep attribute ``source`` under a new name."""

    name: str
    source: str


@dataclass(frozen=True)
class Sub:
    """Projection item: apply a sub-projection inside a nested relation."""

    name: str
    items: tuple["ProjItem", ...]


@dataclass(frozen=True)
class Computed:
    """Projection item: attribute computed from an expression over the row."""

    name: str
    expr: "AlgebraExpr"


ProjItem = Union[Col, As, Sub, Computed]


@dataclass(frozen=True)
class Project:
    src: "AlgebraExpr"
    items: tuple[ProjItem, ...]


@dataclass(frozen=True)
class Select:
    src: "AlgebraExpr"
    cond: "AlgebraExpr"


@dataclass(frozen=True)
class Unnest:
    src: "AlgebraExpr"
    attr: str


@dataclass(frozen=True)
class Join:
    left: "AlgebraExpr"
    right: "AlgebraExpr"
    cond: "AlgebraExpr"


@dataclass(frozen=True)
class Agg:
    fn: str  # "min" | "max" | "count"
    src: "AlgebraExpr"

    def __post_init__(self):
        if self.fn not in ("min", "max", "count"):
            raise TypeMismatchError(f"unknown aggregate {self.fn!r}")


@dataclass(frozen=True)
class Cmp:
    op: str  # "<" | ">" | "=" | "<=" | ">=" | "!="
    left: "AlgebraExpr"
    right: "AlgebraExpr"

    def __post_init__(self):
        if self.op not in _COMPARE:
            raise TypeMismatchError(f"unknown comparison {self.op!r}")


@dataclass(frozen=True)
class BoolAnd:
    parts: tuple["AlgebraExpr", ...]


@dataclass(frozen=True)
class BoolOr:
    parts: tuple["AlgebraExpr", ...]


@dataclass(frozen=True)
class BoolNot:
    child: "AlgebraExpr"


@dataclass(frozen=True)
class Arith:
    op: str  # "+" | "-" | "*"
    left: "AlgebraExpr"
    right: "AlgebraExpr"

    def __post_init__(self):
        if self.op not in _ARITH:
            raise TypeMismatchError(f"unknown arithmetic operator {self.op!r}")


@dataclass(frozen=True)
class SegIntersects:
    """Selection condition: does the segment (x1,y1)-(x2,y2) hit the rectangle?

    With closed=True the rectangle includes its boundary (touching counts);
    with closed=False only passing through the open interior counts. The
    four fields name float attributes of the selected rows. It is only ever
    the whole condition of a ``Select``, which decides all its rows at once.
    """

    region: Region
    closed: bool
    x1: str
    y1: str
    x2: str
    y2: str


AlgebraExpr = Union[
    Input,
    ConstRel,
    Attr,
    Lit,
    Project,
    Select,
    Unnest,
    Join,
    Agg,
    Cmp,
    BoolAnd,
    BoolOr,
    BoolNot,
    Arith,
    SegIntersects,
]

# type-checker "types": "str" | "int" | "float" | "bool" | Nf2Schema


class _Scope:
    """One row of an operator, chained to the rows enclosing it.

    ``positions`` maps an attribute name to its place in ``row``. The
    compiler chains rows of types, a compiled plan rows of values; the
    outermost scope of a plan holds the input relation under no name.
    ``memo`` holds the invariant subexpressions of one evaluation of the
    operator; all its rows share it.
    """

    __slots__ = ("positions", "row", "parent", "memo")

    def __init__(self, positions: dict, row: tuple, parent: "_Scope | None", memo=None):
        self.positions, self.row, self.parent, self.memo = positions, row, parent, memo

    def lookup(self, name: str):
        scope: _Scope | None = self
        while scope is not None:
            i = scope.positions.get(name)
            if i is not None:
                return scope.row[i]
            scope = scope.parent
        raise UnknownAttributeError(name)


def _types(schema: Nf2Schema, parent: _Scope | None) -> _Scope:
    return _Scope(schema.positions, schema.attributes, parent)


def _numeric(t) -> bool:
    return t in ("int", "float")


def _comparable(lt: str, rt: str) -> None:
    if (lt == "str") != (rt == "str"):
        raise TypeMismatchError(f"cannot compare {lt} with {rt}")


def _input(s: _Scope) -> Nf2Relation:
    """The input relation, which the outermost scope holds."""
    while s.parent is not None:
        s = s.parent
    return s.row[0]


def _compare(op: str, left, right):
    """The runner of ``left op right``: false if either side is undefined."""
    fn = _COMPARE[op]

    def run(s):
        lv, rv = left(s), right(s)
        return lv is not UNDEFINED and rv is not UNDEFINED and fn(lv, rv)

    return run


# The subexpressions worth keeping when invariant: relations and aggregates.
_HOISTABLE = frozenset((Project, Select, Unnest, Join, Agg))


class _Compiler:
    """Type-checks an expression and compiles it in the same pass: each
    occurrence of a node becomes its type and a runner, a function of the
    row scope that evaluates it. A runner holds what the check found there:
    output schemas, invariance in the rows of the operator (kept in its
    memo), hash-join keys, the coercion of a one-column relation to a
    scalar."""

    def __init__(self, input_schema: Nf2Schema):
        self.input_schema = input_schema
        self.own: tuple[_Scope, ...] = ()  # rows of the innermost operator
        self.reads: set[_Scope] = set()  # rows the names compiled so far read

    def compile(self, e: AlgebraExpr, scope: _Scope | None):
        if type(e) not in _HOISTABLE:
            return self._compile(e, scope)
        (t, run), reads = self._reading(self._compile, e, scope)
        if not self.own or not reads.isdisjoint(self.own):
            return t, run

        def kept(s):  # evaluated once per evaluation of the operator
            memo = s.memo
            value = memo.get(kept, memo)  # the memo itself marks a miss
            if value is memo:
                value = memo[kept] = run(s)
            return value

        return t, kept

    def _reading(self, compile, e: AlgebraExpr, scope: _Scope | None):
        """``compile(e, scope)`` and the rows that the free names of e read."""
        outer, self.reads = self.reads, set()
        compiled = compile(e, scope)
        reads, self.reads = self.reads, outer
        outer |= reads
        return compiled, reads

    def _within(self, own: tuple, e: AlgebraExpr, scope: _Scope):
        """Compile e to run per row of an operator whose rows are ``own``."""
        outer, self.own = self.own, own
        compiled = self.compile(e, scope)
        self.own = outer
        return compiled

    def _resolve(self, scope: _Scope | None, name: str):
        while scope is not None:
            i = scope.positions.get(name)
            if i is not None:
                self.reads.add(scope)
                return scope.row[i].type
            scope = scope.parent
        raise UnknownAttributeError(name)

    def _compile(self, e: AlgebraExpr, scope: _Scope | None):
        if isinstance(e, Attr):
            if scope is None:
                raise UnknownAttributeError(f"{e.name} (no row context at the top level)")
            return self._resolve(scope, e.name), operator.methodcaller("lookup", e.name)
        if isinstance(e, Lit):
            value = e.value
            if isinstance(value, bool) or value is None:
                raise TypeMismatchError(f"unsupported literal {value!r}")
            t = "str" if isinstance(value, str) else "int" if isinstance(value, int) else "float"
            return t, lambda s: value
        if isinstance(e, Cmp):
            lt, left = self._scalar(e.left, scope)
            rt, right = self._scalar(e.right, scope)
            _comparable(lt, rt)
            return "bool", _compare(e.op, left, right)
        if isinstance(e, Project):
            src_t, src = self._relation(e.src, scope)
            schema, project = self._project(src_t, e.items, scope)
            return schema, lambda s: project(src(s), s)
        if isinstance(e, Input):
            return self.input_schema, _input
        if isinstance(e, ConstRel):
            rel = e.rel
            return rel.schema, lambda s: rel
        if isinstance(e, Select):
            return self._select(e, scope)
        if isinstance(e, Unnest):
            src_t, src = self._relation(e.src, scope)
            target = src_t.get(e.attr)
            if not isinstance(target.type, Nf2Schema):
                raise TypeMismatchError(f"cannot unnest atomic attribute {e.attr!r}")
            i, attrs = src_t.positions[e.attr], src_t.attributes
            schema = Nf2Schema(attrs[:i] + target.type.attributes + attrs[i + 1 :])
            return schema, lambda s: _built(
                schema, tuple(r[:i] + n + r[i + 1 :] for r in src(s).rows for n in r[i].rows)
            )
        if isinstance(e, Join):
            return self._join(e, scope)
        if isinstance(e, Agg):
            src_t, src = self._relation(e.src, scope)
            if e.fn == "count":
                return "int", lambda s: len(src(s).rows)
            if len(src_t.attributes) != 1 or not _numeric(src_t.attributes[0].type):
                raise TypeMismatchError(
                    f"{e.fn} needs a single numeric column, got {src_t.names()}"
                )
            pick = min if e.fn == "min" else max

            def aggregate(s):
                rows = src(s).rows
                return pick(row[0] for row in rows) if rows else UNDEFINED

            return src_t.attributes[0].type, aggregate
        if isinstance(e, (BoolAnd, BoolOr)):
            parts = []
            for part in e.parts:
                t, run = self.compile(part, scope)
                if t != "bool":
                    raise TypeMismatchError("boolean connective over non-boolean")
                parts.append(run)
            every = all if isinstance(e, BoolAnd) else any
            return "bool", lambda s: every(run(s) for run in parts)
        if isinstance(e, BoolNot):
            t, child = self.compile(e.child, scope)
            if t != "bool":
                raise TypeMismatchError("NOT over non-boolean")
            return "bool", lambda s: not child(s)
        if isinstance(e, Arith):
            return self._arith(e, scope)
        if isinstance(e, SegIntersects):
            raise TypeMismatchError("a segment condition must be a selection's whole condition")
        raise TypeMismatchError(f"unknown expression node {e!r}")

    def _select(self, e: Select, scope: _Scope | None):
        src_t, src = self._relation(e.src, scope)
        cond = e.cond
        if isinstance(cond, SegIntersects):  # reads the selected rows only
            if any(src_t.get(n).type != "float" for n in (cond.x1, cond.y1, cond.x2, cond.y2)):
                raise TypeMismatchError("a segment condition needs float attributes")
            return src_t, lambda s: _built(src_t, _segments_hitting(src(s), cond))
        row = _types(src_t, scope)
        t, test = self._within((row,), cond, row)
        if t != "bool":
            raise TypeMismatchError("selection condition must be boolean")
        positions = src_t.positions

        def select(s):
            memo = {}
            rows = src(s).rows
            return _built(src_t, tuple(r for r in rows if test(_Scope(positions, r, s, memo))))

        return src_t, select

    def _join(self, e: Join, scope: _Scope | None):
        left_t, left = self._relation(e.left, scope)
        right_t, right = self._relation(e.right, scope)
        overlap = set(left_t.positions) & set(right_t.positions)
        if overlap:
            raise TypeMismatchError(f"join sides share attribute names {sorted(overlap)}")
        # The names are disjoint, so a right row chained to a left row
        # resolves every name as the concatenated row would.
        lrow = _types(left_t, scope)
        rrow = _types(right_t, lrow)
        cond, keys = e.cond, None
        if isinstance(cond, Cmp) and cond.op == "=":
            outer, self.own = self.own, (lrow, rrow)
            (lt, a), a_reads = self._reading(self._scalar, cond.left, rrow)
            (rt, b), b_reads = self._reading(self._scalar, cond.right, rrow)
            self.own = outer
            _comparable(lt, rt)
            if rrow not in a_reads and lrow not in b_reads:
                keys = (a, b)
            elif lrow not in a_reads and rrow not in b_reads:
                keys = (b, a)
            test = _compare("=", a, b)
        else:
            t, test = self._within((lrow, rrow), cond, rrow)
            if t != "bool":
                raise TypeMismatchError("join condition must be boolean")
        schema = Nf2Schema(left_t.attributes + right_t.attributes)
        lpos, rpos = left_t.positions, right_t.positions

        def join(s):
            lrows, rrows = left(s).rows, right(s).rows
            memo, rows = {}, []
            if keys is None:
                for lr in lrows:
                    ls = _Scope(lpos, lr, s, memo)
                    rows.extend(lr + rr for rr in rrows if test(_Scope(rpos, rr, ls, memo)))
            elif lrows and rrows:
                lkey, rkey = keys
                index: dict = {}
                for rr in rrows:
                    k = rkey(_Scope(rpos, rr, s, memo))
                    # `=` is false for an undefined key and for NaN, which the
                    # dict would match with itself by identity: leave them out.
                    if k is not UNDEFINED and k == k:
                        index.setdefault(k, []).append(rr)
                for lr in lrows:
                    k = lkey(_Scope(lpos, lr, s, memo))
                    rows.extend(lr + rr for rr in index.get(k, ()))
            return _built(schema, tuple(rows))

        return schema, join

    def _arith(self, e: Arith, scope: _Scope | None):
        lt, left = self._scalar(e.left, scope)
        rt, right = self._scalar(e.right, scope)
        if not (_numeric(lt) and _numeric(rt)):
            raise TypeMismatchError(f"arithmetic over {lt} and {rt}")
        t = "int" if lt == rt == "int" else "float"
        op, fn = e.op, _ARITH[e.op]

        def arith(s):
            lv, rv = left(s), right(s)
            if lv is UNDEFINED or rv is UNDEFINED:
                return UNDEFINED
            try:  # an int operand or result that no float holds, typed float
                v = fn(lv, rv)
                if t == "float":
                    float(v)
            except OverflowError:
                raise TypeMismatchError(f"{op} overflows a float") from None
            return v

        return t, arith

    def _relation(self, e: AlgebraExpr, scope: _Scope | None):
        t, run = self.compile(e, scope)
        if not isinstance(t, Nf2Schema):
            raise TypeMismatchError(f"expected a relation, got {t}")
        return t, run

    def _scalar(self, e: AlgebraExpr, scope: _Scope | None):
        """Scalar type and runner of a comparison/arithmetic operand.

        A relation-valued operand is legal if it has a single atomic column:
        its runner coerces it to its sole value (or undefined if empty).
        """
        t, run = self.compile(e, scope)
        if isinstance(t, Nf2Schema):
            if len(t.attributes) == 1 and isinstance(t.attributes[0].type, str):

                def sole(s):
                    rows = run(s).rows
                    if len(rows) > 1:
                        raise TypeMismatchError(f"scalar coercion of a {len(rows)}-row relation")
                    return rows[0][0] if rows else UNDEFINED

                return t.attributes[0].type, sole
            raise TypeMismatchError("only single-column relations can be used as scalars")
        if t == "bool":
            raise TypeMismatchError("boolean used as a scalar operand")
        return t, run

    def _project(self, src: Nf2Schema, items: tuple[ProjItem, ...], scope: _Scope | None):
        """The schema of projecting rows of ``src`` on ``items``, and a
        function of (relation, scope) that projects a relation."""
        row = _types(src, scope)
        attrs: list[Attribute] = []
        cells: list = []  # per item: a position in the row, or a runner
        for item in items:
            if isinstance(item, (Col, As)):
                source = item.name if isinstance(item, Col) else item.source
                attrs.append(Attribute(item.name, src.get(source).type))
                cells.append(src.positions[source])
            elif isinstance(item, Sub):
                target = src.get(item.name)
                if not isinstance(target.type, Nf2Schema):
                    raise TypeMismatchError(
                        f"sub-projection needs a nested relation, {item.name!r} is atomic"
                    )
                inner_t, inner = self._project(target.type, item.items, row)
                attrs.append(Attribute(item.name, inner_t))
                i = src.positions[item.name]
                cells.append(lambda s, i=i, inner=inner: inner(s.row[i], s))
            else:
                t, value = self._within((row,), item.expr, row)
                if t == "bool":
                    raise TypeMismatchError("projected attribute cannot be boolean")
                attrs.append(Attribute(item.name, t))
                cells.append(_stored(item.name, value))
        schema = Nf2Schema(tuple(attrs))
        if cells and all(isinstance(c, int) for c in cells):  # no row scope needed
            pick = operator.itemgetter(*cells) if len(cells) > 1 else lambda r, i=cells[0]: (r[i],)
            return schema, lambda rel, s: _built(schema, tuple(map(pick, rel.rows)))
        positions = src.positions

        def project(rel: Nf2Relation, s: _Scope | None) -> Nf2Relation:
            memo, rows = {}, []
            for r in rel.rows:
                rs = _Scope(positions, r, s, memo)
                rows.append(tuple([r[c] if type(c) is int else c(rs) for c in cells]))
            return _built(schema, tuple(rows))

        return schema, project

    def plan(self, e: AlgebraExpr):
        """The output schema of e and its runner over the outermost scope."""
        t, run = self.compile(e, None)
        if not isinstance(t, Nf2Schema):
            raise TypeMismatchError(f"top-level expression is {t}, not a relation")
        return t, run


def _stored(name: str, value):
    """The runner of a computed attribute, which must have a value."""

    def stored(s):
        v = value(s)
        if v is UNDEFINED:
            raise TypeMismatchError(f"projected attribute {name!r} has no storable value")
        return v

    return stored


def check(e: AlgebraExpr, input_schema: Nf2Schema) -> Nf2Schema:
    """Type-check an expression; returns the output schema.

    Raises:
        UnknownAttributeError: a name that no enclosing row provides (for a
            segment condition, that the selected rows lack).
        TypeMismatchError: any other ill-typed construction.
    """
    return _Compiler(input_schema).plan(e)[0]


def _segments_hitting(rel: Nf2Relation, c: SegIntersects) -> tuple:
    """The rows of rel whose segment meets the rectangle, all in one call of
    the evaluator's crossing code (which may raise CrossingOverflowError)."""
    x1, y1, x2, y2 = (np.array(rel.column(n), float) for n in (c.x1, c.y1, c.x2, c.y2))
    r = c.region
    hit = box_params((x1, y1), (x2, y2), (r.x_min, r.y_min), (r.x_max, r.y_max), not c.closed)
    return tuple(compress(rel.rows, hit.nonempty().tolist()))


def execute(e: AlgebraExpr, input_rel: Nf2Relation) -> Nf2Relation:
    """Type-check and evaluate an algebra expression over a relation.

    The result's rows are checked against its schema here, once.
    """
    _, run = _Compiler(input_rel.schema).plan(e)
    result = run(_Scope({}, (input_rel,), None))
    return Nf2Relation(result.schema, result.rows)


# --- the trajectories schema and bridges --------------------------------

POINTS_SCHEMA = Nf2Schema(
    (
        Attribute("order", "int"),
        Attribute("x", "float"),
        Attribute("y", "float"),
        Attribute("tau", "float"),
    )
)

TRAJECTORIES_SCHEMA = Nf2Schema(
    (Attribute("tid", "str"), Attribute("T", POINTS_SCHEMA))
)


def trajectories_to_nf2(rel: TrajectoriesRelation) -> Nf2Relation:
    """Materialize a trajectories relation as a nested relation.

    The points relations hold ints from ``range`` and floats from float64
    columns, so they conform by construction and skip the row checks; the
    outer rows are checked, as nothing types a relation's tids.
    """
    rows = []
    for tid, t in rel.rows:
        nested = _built(
            POINTS_SCHEMA,
            tuple(zip(range(len(t)), t.xs.tolist(), t.ys.tolist(), t.taus.tolist())),
        )
        rows.append((tid, nested))
    return Nf2Relation(TRAJECTORIES_SCHEMA, tuple(rows))


# --- label compilers ----------------------------------------------------


def _p_first() -> Select:
    return Select(Attr("T"), Cmp("=", Attr("order"), Lit(0)))


def _p_last() -> Select:
    return Select(
        Attr("T"),
        Cmp("=", Attr("order"), Agg("max", Project(Attr("T"), (Col("order"),)))),
    )


def _coord(point_expr: AlgebraExpr, name: str) -> Project:
    return Project(point_expr, (Col(name),))


def _segments_expr() -> Project:
    renamed = Project(Attr("T"), (As("order2", "order"), As("x2", "x"), As("y2", "y")))
    joined = Join(
        Attr("T"), renamed, Cmp("=", Arith("+", Attr("order"), Lit(1)), Attr("order2"))
    )
    return Project(joined, (Col("order"), Col("x"), Col("y"), Col("x2"), Col("y2")))


def segment_join(trajectories: Nf2Relation) -> Nf2Relation:
    """Per trajectory, the self-join pairing consecutive points into segments.

    Output schema: (tid, T_sgmt(order, x, y, x2, y2)); a trajectory with n
    points yields n-1 segment rows, zero for a single point.
    """
    expr = Project(
        Input(), (Col("tid"), Computed("T_sgmt", _segments_expr()))
    )
    return execute(expr, trajectories)


def _inside_point_cond(r: Region) -> BoolAnd:
    return BoolAnd(
        (
            Cmp("<", Lit(r.x_min), Attr("x")),
            Cmp("<", Lit(r.y_min), Attr("y")),
            Cmp(">", Lit(r.x_max), Attr("x")),
            Cmp(">", Lit(r.y_max), Attr("y")),
        )
    )


def _endpoint_inside(point: AlgebraExpr, r: Region) -> tuple[Cmp, ...]:
    return (
        Cmp(">", _coord(point, "x"), Lit(r.x_min)),
        Cmp("<", _coord(point, "x"), Lit(r.x_max)),
        Cmp(">", _coord(point, "y"), Lit(r.y_min)),
        Cmp("<", _coord(point, "y"), Lit(r.y_max)),
    )


def _endpoint_outside(point: AlgebraExpr, r: Region) -> BoolOr:
    return BoolOr(
        (
            Cmp("<", _coord(point, "x"), Lit(r.x_min)),
            Cmp("<", _coord(point, "y"), Lit(r.y_min)),
            Cmp(">", _coord(point, "x"), Lit(r.x_max)),
            Cmp(">", _coord(point, "y"), Lit(r.y_max)),
        )
    )


_SPATIAL_LABELS = (
    De9imLabel.R031,
    De9imLabel.R179,
    De9imLabel.R223,
    De9imLabel.R247,
    De9imLabel.R255,
)


def compile_spatial(label: De9imLabel, r: Region, s: Strictness) -> AlgebraExpr:
    """Selection expression over TRAJECTORIES for one of the five border-free
    area relations, with the region bounds substituted as literals.

    Strict and relaxed produce the same expression for R179, R247, and R255;
    for R031 and R223 the relaxed expression additionally tests the segments
    of each trajectory against the rectangle (closed for R031, since even
    touching the boundary breaks strict exteriority; open interior for R223,
    since only passing through the interior makes a crossing).
    """
    if not isinstance(r, Region):
        raise PredicateTypeError(f"area relations need a Region, got {type(r).__name__}")
    if not isinstance(s, Strictness) or s.kind not in ("strict", "relaxed"):
        raise UnsupportedStrictnessError(
            f"expressions exist for strict or relaxed only, got {s!r}"
        )
    if label not in _SPATIAL_LABELS:
        raise UnsupportedLabelError(
            f"no published expression for {label.value}; supported: "
            + ", ".join(l.value for l in _SPATIAL_LABELS)
        )
    relaxed = s.kind == "relaxed"
    if label is De9imLabel.R179:
        cond: AlgebraExpr = BoolAnd(
            (
                Cmp("<", Lit(r.x_min), Agg("min", _coord(Attr("T"), "x"))),
                Cmp("<", Lit(r.y_min), Agg("min", _coord(Attr("T"), "y"))),
                Cmp(">", Lit(r.x_max), Agg("max", _coord(Attr("T"), "x"))),
                Cmp(">", Lit(r.y_max), Agg("max", _coord(Attr("T"), "y"))),
            )
        )
    elif label is De9imLabel.R247:
        cond = BoolAnd(
            _endpoint_inside(_p_first(), r)
            + _endpoint_inside(_p_last(), r)
            + (
                BoolOr(
                    (
                        Cmp("<", Agg("min", _coord(Attr("T"), "x")), Lit(r.x_min)),
                        Cmp(">", Agg("max", _coord(Attr("T"), "x")), Lit(r.x_max)),
                        Cmp("<", Agg("min", _coord(Attr("T"), "y")), Lit(r.y_min)),
                        Cmp(">", Agg("max", _coord(Attr("T"), "y")), Lit(r.y_max)),
                    )
                ),
            )
        )
    elif label is De9imLabel.R255:
        cond = BoolAnd(
            _endpoint_inside(_p_first(), r)
            + (
                BoolOr(
                    (
                        Cmp("<", Agg("min", _coord(_p_last(), "x")), Lit(r.x_min)),
                        Cmp(">", Agg("max", _coord(_p_last(), "x")), Lit(r.x_max)),
                        Cmp("<", Agg("min", _coord(_p_last(), "y")), Lit(r.y_min)),
                        Cmp(">", Agg("max", _coord(_p_last(), "y")), Lit(r.y_max)),
                    )
                ),
            )
        )
    elif label is De9imLabel.R031:
        inside_count_zero = Cmp(
            "=", Agg("count", Select(Attr("T"), _inside_point_cond(r))), Lit(0)
        )
        if relaxed:
            touching = Select(
                _segments_expr(), SegIntersects(r, True, "x", "y", "x2", "y2")
            )
            cond = BoolAnd(
                (inside_count_zero, Cmp("=", Agg("count", touching), Lit(0)))
            )
        else:
            cond = inside_count_zero
    else:  # R223
        inside_count = Agg("count", Select(Attr("T"), _inside_point_cond(r)))
        endpoints = (
            _endpoint_outside(_p_first(), r),
            _endpoint_outside(_p_last(), r),
        )
        if relaxed:
            crossing = Select(
                _segments_expr(), SegIntersects(r, False, "x", "y", "x2", "y2")
            )
            cond = BoolAnd(
                endpoints
                + (
                    BoolOr(
                        (
                            Cmp(">", inside_count, Lit(0)),
                            Cmp(">", Agg("count", crossing), Lit(0)),
                        )
                    ),
                )
            )
        else:
            cond = BoolAnd(endpoints + (Cmp(">", inside_count, Lit(0)),))
    return Select(Input(), cond)


_TEMPORAL_LABELS = (
    AllenLabel.PRECEDES,
    AllenLabel.OVERLAPS,
    AllenLabel.DURING,
    AllenLabel.PRECEDED_BY,
    AllenLabel.OVERLAPPED_BY,
    AllenLabel.CONTAINS,
)


def compile_temporal(label: AllenLabel, i: Interval) -> AlgebraExpr:
    """Selection expression over TRAJECTORIES for one span/interval relation.

    The span is read off the nested time column as min/max; the mirrored
    relations come from swapping the endpoint roles. Strictness plays no
    part here: only the first and last timestamps matter for the span.
    """
    if not isinstance(i, Interval):
        raise PredicateTypeError(f"interval relations need an Interval, got {type(i).__name__}")
    tmin = Agg("min", _coord(Attr("T"), "tau"))
    tmax = Agg("max", _coord(Attr("T"), "tau"))
    ts, te = Lit(i.tau_s), Lit(i.tau_e)
    if label is AllenLabel.PRECEDES:
        cond: AlgebraExpr = Cmp("<", tmax, ts)
    elif label is AllenLabel.OVERLAPS:
        cond = BoolAnd((Cmp("<", tmin, ts), Cmp(">", tmax, ts), Cmp("<", tmax, te)))
    elif label is AllenLabel.DURING:
        cond = BoolAnd((Cmp(">", tmin, ts), Cmp("<", tmax, te)))
    elif label is AllenLabel.PRECEDED_BY:
        cond = Cmp(">", tmin, te)
    elif label is AllenLabel.OVERLAPPED_BY:
        cond = BoolAnd((Cmp(">", tmin, ts), Cmp("<", tmin, te), Cmp(">", tmax, te)))
    elif label is AllenLabel.CONTAINS:
        cond = BoolAnd((Cmp("<", tmin, ts), Cmp(">", tmax, te)))
    else:
        raise UnsupportedLabelError(
            f"no published expression for {label.value}; supported: "
            + ", ".join(l.value for l in _TEMPORAL_LABELS)
        )
    return Select(Input(), cond)


# --- rendering ----------------------------------------------------------


def _render_item(item: ProjItem) -> str:
    if isinstance(item, Col):
        return item.name
    if isinstance(item, As):
        return f"{item.name} := {item.source}"
    if isinstance(item, Sub):
        inner = ", ".join(_render_item(i) for i in item.items)
        return f"PROJECT[{inner}]({item.name})"
    return f"{item.name} := {render(item.expr)}"


def _render_scalar(v: Union[str, int, float]) -> str:
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def render(e: AlgebraExpr) -> str:
    """Stable text form of an expression, mirroring pi/sigma/mu notation."""
    if isinstance(e, Input):
        return "INPUT"
    if isinstance(e, ConstRel):
        return f"CONST({len(e.rel.rows)} rows)"
    if isinstance(e, Attr):
        return e.name
    if isinstance(e, Lit):
        return _render_scalar(e.value)
    if isinstance(e, Project):
        items = ", ".join(_render_item(i) for i in e.items)
        return f"PROJECT[{items}]({render(e.src)})"
    if isinstance(e, Select):
        return f"SELECT[{render(e.cond)}]({render(e.src)})"
    if isinstance(e, Unnest):
        return f"UNNEST[{e.attr}]({render(e.src)})"
    if isinstance(e, Join):
        return f"JOIN[{render(e.cond)}]({render(e.left)}, {render(e.right)})"
    if isinstance(e, Agg):
        return f"{e.fn}({render(e.src)})"
    if isinstance(e, Cmp):
        return f"{render(e.left)} {e.op} {render(e.right)}"
    if isinstance(e, (BoolAnd, BoolOr)):
        parts = [
            f"({render(p)})" if isinstance(p, (BoolOr, BoolAnd)) else render(p)
            for p in e.parts
        ]
        return (" AND " if isinstance(e, BoolAnd) else " OR ").join(parts)
    if isinstance(e, BoolNot):
        return f"NOT ({render(e.child)})"
    if isinstance(e, Arith):
        return f"{render(e.left)} {e.op} {render(e.right)}"
    if isinstance(e, SegIntersects):
        mode = "closed" if e.closed else "open"
        r = e.region
        bounds = ", ".join(
            format_float(v) for v in (r.x_min, r.y_min, r.x_max, r.y_max)
        )
        return (
            f"INTERSECTS[{mode}]({e.x1}, {e.y1}, {e.x2}, {e.y2}; {bounds})"
        )
    raise TypeMismatchError(f"unknown expression node {e!r}")
