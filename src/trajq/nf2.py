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

Every expression type-checks against the input schema before execution and
has a stable text rendering (PROJECT[...], SELECT[...], UNNEST[...],
JOIN[...]) used by the command line explain output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Union

from ._fmt import format_float
from .errors import (
    CrossingOverflowError,
    TypeMismatchError,
    UnknownAttributeError,
    UnsupportedLabelError,
    UnsupportedStrictnessError,
)
from .geometry import _OVERFLOW, Interval, Region
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

    def __post_init__(self):
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise TypeMismatchError(f"duplicate attribute names in {names}")

    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def get(self, name: str) -> Attribute:
        for a in self.attributes:
            if a.name == name:
                return a
        raise UnknownAttributeError(name)

    def index(self, name: str) -> int:
        for i, a in enumerate(self.attributes):
            if a.name == name:
                return i
        raise UnknownAttributeError(name)


def _conforms(value, atype) -> bool:
    if isinstance(atype, Nf2Schema):
        return isinstance(value, Nf2Relation) and value.schema == atype
    if atype == "str":
        return isinstance(value, str)
    if atype == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    return (isinstance(value, float) or isinstance(value, int)) and not isinstance(
        value, bool
    )


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


class _Undefined:
    """Result of min/max over nothing; every comparison against it is false."""

    def __repr__(self):
        return "UNDEFINED"


UNDEFINED = _Undefined()


# --- expression nodes ---------------------------------------------------


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
        if self.op not in ("<", ">", "=", "<=", ">=", "!="):
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
        if self.op not in ("+", "-", "*"):
            raise TypeMismatchError(f"unknown arithmetic operator {self.op!r}")


@dataclass(frozen=True)
class SegIntersects:
    """Row condition: does the segment (x1,y1)-(x2,y2) hit the rectangle?

    With closed=True the rectangle includes its boundary (touching counts);
    with closed=False only passing through the open interior counts. The
    four fields name numeric attributes of the current row.
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
    """Lexically chained name-to-type (or name-to-value) environment."""

    def __init__(self, entries: dict, parent: "_Scope | None"):
        self.entries = entries
        self.parent = parent

    def lookup(self, name: str):
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.entries:
                return scope.entries[name]
            scope = scope.parent
        raise UnknownAttributeError(name)


def _row_scope_types(schema: Nf2Schema, parent: _Scope | None) -> _Scope:
    return _Scope({a.name: a.type for a in schema.attributes}, parent)


def _numeric(t) -> bool:
    return t in ("int", "float")


class _Checker:
    def __init__(self, input_schema: Nf2Schema):
        self.input_schema = input_schema

    def infer(self, e: AlgebraExpr, scope: _Scope | None):
        if isinstance(e, Input):
            return self.input_schema
        if isinstance(e, ConstRel):
            return e.rel.schema
        if isinstance(e, Attr):
            if scope is None:
                raise UnknownAttributeError(
                    f"{e.name} (no row context at the top level)"
                )
            return scope.lookup(e.name)
        if isinstance(e, Lit):
            if isinstance(e.value, bool) or e.value is None:
                raise TypeMismatchError(f"unsupported literal {e.value!r}")
            if isinstance(e.value, str):
                return "str"
            return "int" if isinstance(e.value, int) else "float"
        if isinstance(e, Project):
            return self._infer_project(e, scope)
        if isinstance(e, Select):
            src = self._relation(e.src, scope)
            cond = self.infer(e.cond, _row_scope_types(src, scope))
            if cond != "bool":
                raise TypeMismatchError("selection condition must be boolean")
            return src
        if isinstance(e, Unnest):
            src = self._relation(e.src, scope)
            target = src.get(e.attr)
            if not isinstance(target.type, Nf2Schema):
                raise TypeMismatchError(f"cannot unnest atomic attribute {e.attr!r}")
            attrs: list[Attribute] = []
            for a in src.attributes:
                attrs.extend(target.type.attributes if a.name == e.attr else [a])
            return Nf2Schema(tuple(attrs))
        if isinstance(e, Join):
            left = self._relation(e.left, scope)
            right = self._relation(e.right, scope)
            overlap = set(left.names()) & set(right.names())
            if overlap:
                raise TypeMismatchError(
                    f"join sides share attribute names {sorted(overlap)}"
                )
            merged = Nf2Schema(left.attributes + right.attributes)
            cond = self.infer(e.cond, _row_scope_types(merged, scope))
            if cond != "bool":
                raise TypeMismatchError("join condition must be boolean")
            return merged
        if isinstance(e, Agg):
            src = self._relation(e.src, scope)
            if e.fn == "count":
                return "int"
            if len(src.attributes) != 1 or not _numeric(src.attributes[0].type):
                raise TypeMismatchError(
                    f"{e.fn} needs a single numeric column, got {src.names()}"
                )
            return src.attributes[0].type
        if isinstance(e, Cmp):
            lt = self._scalar(e.left, scope)
            rt = self._scalar(e.right, scope)
            if (lt == "str") != (rt == "str"):
                raise TypeMismatchError(f"cannot compare {lt} with {rt}")
            return "bool"
        if isinstance(e, (BoolAnd, BoolOr)):
            for part in e.parts:
                if self.infer(part, scope) != "bool":
                    raise TypeMismatchError("boolean connective over non-boolean")
            return "bool"
        if isinstance(e, BoolNot):
            if self.infer(e.child, scope) != "bool":
                raise TypeMismatchError("NOT over non-boolean")
            return "bool"
        if isinstance(e, Arith):
            lt = self._scalar(e.left, scope)
            rt = self._scalar(e.right, scope)
            if not (_numeric(lt) and _numeric(rt)):
                raise TypeMismatchError(f"arithmetic over {lt} and {rt}")
            return "int" if lt == rt == "int" else "float"
        if isinstance(e, SegIntersects):
            if scope is None:
                raise UnknownAttributeError("segment condition needs a row context")
            for name in (e.x1, e.y1, e.x2, e.y2):
                if not _numeric(scope.lookup(name)):
                    raise TypeMismatchError(
                        f"segment condition needs numeric attribute {name!r}"
                    )
            return "bool"
        raise TypeMismatchError(f"unknown expression node {e!r}")

    def _relation(self, e: AlgebraExpr, scope: _Scope | None) -> Nf2Schema:
        t = self.infer(e, scope)
        if not isinstance(t, Nf2Schema):
            raise TypeMismatchError(f"expected a relation, got {t}")
        return t

    def _scalar(self, e: AlgebraExpr, scope: _Scope | None) -> str:
        """Scalar type of a comparison/arithmetic operand.

        A relation-valued operand is legal if it has a single atomic column:
        at run time it is coerced to its sole value (or undefined if empty).
        """
        t = self.infer(e, scope)
        if isinstance(t, Nf2Schema):
            if len(t.attributes) == 1 and isinstance(t.attributes[0].type, str):
                return t.attributes[0].type
            raise TypeMismatchError(
                "only single-column relations can be used as scalars"
            )
        if t == "bool":
            raise TypeMismatchError("boolean used as a scalar operand")
        return t

    def _infer_project(self, e: Project, scope: _Scope | None) -> Nf2Schema:
        src = self._relation(e.src, scope)
        row = _row_scope_types(src, scope)
        attrs: list[Attribute] = []
        for item in e.items:
            if isinstance(item, Col):
                attrs.append(src.get(item.name))
            elif isinstance(item, As):
                attrs.append(Attribute(item.name, src.get(item.source).type))
            elif isinstance(item, Sub):
                target = src.get(item.name)
                if not isinstance(target.type, Nf2Schema):
                    raise TypeMismatchError(
                        f"sub-projection needs a nested relation, {item.name!r} is atomic"
                    )
                inner = self._infer_project(Project(Attr(item.name), item.items), row)
                attrs.append(Attribute(item.name, inner))
            else:
                t = self.infer(item.expr, row)
                if t == "bool":
                    raise TypeMismatchError("projected attribute cannot be boolean")
                attrs.append(Attribute(item.name, t))
        return Nf2Schema(tuple(attrs))


def check(e: AlgebraExpr, input_schema: Nf2Schema) -> Nf2Schema:
    """Type-check an expression; returns the output schema.

    Raises:
        UnknownAttributeError: a name that no enclosing row provides.
        TypeMismatchError: any other ill-typed construction.
    """
    t = _Checker(input_schema).infer(e, None)
    if not isinstance(t, Nf2Schema):
        raise TypeMismatchError(f"top-level expression is {t}, not a relation")
    return t


# --- execution ----------------------------------------------------------


def _segment_hits_rect(
    x1: float, y1: float, x2: float, y2: float, r: Region, closed: bool
) -> bool:
    # Slab clipping: intersect the per-axis parameter bands over the segment
    # parameter range [0, 1], tracking open endpoints for the interior test.
    # A difference that overflows has no usable crossing; it raises, as the
    # evaluator's geometry.box_params does.
    lo, lo_open = 0.0, False
    hi, hi_open = 1.0, False
    for c0, c1, vmin, vmax in (
        (x1, x2, r.x_min, r.x_max),
        (y1, y2, r.y_min, r.y_max),
    ):
        d = c1 - c0
        if math.isinf(d) or (d != 0.0 and (math.isinf(vmin - c0) or math.isinf(vmax - c0))):
            raise CrossingOverflowError(_OVERFLOW)
        if d == 0.0:
            if closed:
                if not (vmin <= c0 <= vmax):
                    return False
            elif not (vmin < c0 < vmax):
                return False
            continue
        a = (vmin - c0) / d
        b = (vmax - c0) / d
        axlo, axhi = (a, b) if a <= b else (b, a)
        strict = not closed
        if axlo > lo:
            lo, lo_open = axlo, strict
        elif axlo == lo and strict:
            lo_open = True
        if axhi < hi:
            hi, hi_open = axhi, strict
        elif axhi == hi and strict:
            hi_open = True
    if lo > hi:
        return False
    if lo == hi:
        return not (lo_open or hi_open)
    return True


class _Executor:
    def __init__(self, input_rel: Nf2Relation):
        self.input_rel = input_rel

    def run(self, e: AlgebraExpr, scope: _Scope | None):
        if isinstance(e, Input):
            return self.input_rel
        if isinstance(e, ConstRel):
            return e.rel
        if isinstance(e, Attr):
            return scope.lookup(e.name)
        if isinstance(e, Lit):
            return e.value
        if isinstance(e, Project):
            return self._project(e, scope)
        if isinstance(e, Select):
            src: Nf2Relation = self.run(e.src, scope)
            kept = tuple(
                row
                for row in src.rows
                if self._truth(e.cond, self._row_scope(src.schema, row, scope))
            )
            return Nf2Relation(src.schema, kept)
        if isinstance(e, Unnest):
            return self._unnest(e, scope)
        if isinstance(e, Join):
            return self._join(e, scope)
        if isinstance(e, Agg):
            return self._aggregate(e, scope)
        if isinstance(e, Cmp):
            return self._compare(e, scope)
        if isinstance(e, BoolAnd):
            return all(self._truth(p, scope) for p in e.parts)
        if isinstance(e, BoolOr):
            return any(self._truth(p, scope) for p in e.parts)
        if isinstance(e, BoolNot):
            return not self._truth(e.child, scope)
        if isinstance(e, Arith):
            lv = self._scalar(e.left, scope)
            rv = self._scalar(e.right, scope)
            if lv is UNDEFINED or rv is UNDEFINED:
                return UNDEFINED
            if e.op == "+":
                return lv + rv
            if e.op == "-":
                return lv - rv
            return lv * rv
        if isinstance(e, SegIntersects):
            return _segment_hits_rect(
                scope.lookup(e.x1),
                scope.lookup(e.y1),
                scope.lookup(e.x2),
                scope.lookup(e.y2),
                e.region,
                e.closed,
            )
        raise TypeMismatchError(f"unknown expression node {e!r}")

    @staticmethod
    def _row_scope(schema: Nf2Schema, row: tuple, parent: _Scope | None) -> _Scope:
        return _Scope(dict(zip(schema.names(), row)), parent)

    def _truth(self, e: AlgebraExpr, scope: _Scope | None) -> bool:
        return bool(self.run(e, scope))

    def _scalar(self, e: AlgebraExpr, scope: _Scope | None):
        v = self.run(e, scope)
        if isinstance(v, Nf2Relation):
            if len(v.schema.attributes) != 1:
                raise TypeMismatchError(
                    "only single-column relations can be used as scalars"
                )
            if not v.rows:
                return UNDEFINED
            if len(v.rows) > 1:
                raise TypeMismatchError(
                    f"scalar coercion of a {len(v.rows)}-row relation"
                )
            return v.rows[0][0]
        return v

    def _compare(self, e: Cmp, scope: _Scope | None) -> bool:
        lv = self._scalar(e.left, scope)
        rv = self._scalar(e.right, scope)
        if lv is UNDEFINED or rv is UNDEFINED:
            return False
        if e.op == "<":
            return lv < rv
        if e.op == ">":
            return lv > rv
        if e.op == "=":
            return lv == rv
        if e.op == "<=":
            return lv <= rv
        if e.op == ">=":
            return lv >= rv
        return lv != rv

    def _aggregate(self, e: Agg, scope: _Scope | None):
        src: Nf2Relation = self.run(e.src, scope)
        if e.fn == "count":
            return len(src.rows)
        if not src.rows:
            return UNDEFINED
        values = [row[0] for row in src.rows]
        return min(values) if e.fn == "min" else max(values)

    def _project(self, e: Project, scope: _Scope | None) -> Nf2Relation:
        src: Nf2Relation = self.run(e.src, scope)
        out_rows = []
        out_schema: Nf2Schema | None = None
        for row in src.rows:
            row_scope = self._row_scope(src.schema, row, scope)
            cells = []
            attrs = []
            for item in e.items:
                if isinstance(item, Col):
                    attrs.append(src.schema.get(item.name))
                    cells.append(row[src.schema.index(item.name)])
                elif isinstance(item, As):
                    attrs.append(Attribute(item.name, src.schema.get(item.source).type))
                    cells.append(row[src.schema.index(item.source)])
                elif isinstance(item, Sub):
                    inner = self._project(
                        Project(Attr(item.name), item.items), row_scope
                    )
                    attrs.append(Attribute(item.name, inner.schema))
                    cells.append(inner)
                else:
                    value = self.run(item.expr, row_scope)
                    if isinstance(value, Nf2Relation):
                        attrs.append(Attribute(item.name, value.schema))
                    elif isinstance(value, bool) or value is UNDEFINED:
                        raise TypeMismatchError(
                            f"projected attribute {item.name!r} has no storable value"
                        )
                    elif isinstance(value, str):
                        attrs.append(Attribute(item.name, "str"))
                    elif isinstance(value, int):
                        attrs.append(Attribute(item.name, "int"))
                    else:
                        attrs.append(Attribute(item.name, "float"))
                    cells.append(value)
            out_schema = Nf2Schema(tuple(attrs))
            out_rows.append(tuple(cells))
        if out_schema is None:
            # no rows: derive the schema statically so emptiness is typed
            out_schema = _Checker(self.input_rel.schema)._infer_project(
                Project(ConstRel(src), e.items), None
            )
        return Nf2Relation(out_schema, tuple(out_rows))

    def _unnest(self, e: Unnest, scope: _Scope | None) -> Nf2Relation:
        src: Nf2Relation = self.run(e.src, scope)
        idx = src.schema.index(e.attr)
        target = src.schema.attributes[idx]
        if not isinstance(target.type, Nf2Schema):
            raise TypeMismatchError(f"cannot unnest atomic attribute {e.attr!r}")
        attrs = (
            src.schema.attributes[:idx]
            + target.type.attributes
            + src.schema.attributes[idx + 1 :]
        )
        rows = []
        for row in src.rows:
            nested: Nf2Relation = row[idx]
            for inner in nested.rows:
                rows.append(row[:idx] + inner + row[idx + 1 :])
        return Nf2Relation(Nf2Schema(attrs), tuple(rows))

    def _join(self, e: Join, scope: _Scope | None) -> Nf2Relation:
        left: Nf2Relation = self.run(e.left, scope)
        right: Nf2Relation = self.run(e.right, scope)
        overlap = set(left.schema.names()) & set(right.schema.names())
        if overlap:
            raise TypeMismatchError(
                f"join sides share attribute names {sorted(overlap)}"
            )
        schema = Nf2Schema(left.schema.attributes + right.schema.attributes)
        rows = []
        for lrow in left.rows:
            for rrow in right.rows:
                combined = lrow + rrow
                if self._truth(e.cond, self._row_scope(schema, combined, scope)):
                    rows.append(combined)
        return Nf2Relation(schema, tuple(rows))


def execute(e: AlgebraExpr, input_rel: Nf2Relation) -> Nf2Relation:
    """Type-check and evaluate an algebra expression over a relation."""
    check(e, input_rel.schema)
    result = _Executor(input_rel).run(e, None)
    if not isinstance(result, Nf2Relation):
        raise TypeMismatchError("top-level expression is not relation-valued")
    return result


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
    """Materialize a trajectories relation as a nested relation."""
    rows = []
    for tid, t in rel.rows:
        nested = Nf2Relation(
            POINTS_SCHEMA,
            tuple((p.order, p.x, p.y, p.tau) for p in t.points),
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


def compile_spatial(label: De9imLabel, r: Region, s) -> AlgebraExpr:
    """Selection expression over TRAJECTORIES for one of the five border-free
    area relations, with the region bounds substituted as literals.

    Strict and relaxed produce the same expression for R179, R247, and R255;
    for R031 and R223 the relaxed expression additionally tests the segments
    of each trajectory against the rectangle (closed for R031, since even
    touching the boundary breaks strict exteriority; open interior for R223,
    since only passing through the interior makes a crossing).
    """
    kind = getattr(s, "kind", s)
    if kind not in ("strict", "relaxed"):
        raise UnsupportedStrictnessError(
            f"expressions exist for strict or relaxed only, got {kind!r}"
        )
    if label not in _SPATIAL_LABELS:
        raise UnsupportedLabelError(
            f"no published expression for {label.value}; supported: "
            + ", ".join(l.value for l in _SPATIAL_LABELS)
        )
    relaxed = kind == "relaxed"
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
    if isinstance(e, BoolAnd):
        parts = [
            f"({render(p)})" if isinstance(p, (BoolOr, BoolAnd)) else render(p)
            for p in e.parts
        ]
        return " AND ".join(parts)
    if isinstance(e, BoolOr):
        parts = [
            f"({render(p)})" if isinstance(p, (BoolOr, BoolAnd)) else render(p)
            for p in e.parts
        ]
        return " OR ".join(parts)
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
