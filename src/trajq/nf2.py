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

Execution is linear in the rows of each operator, so compiled plans are
linear in points per trajectory:

* A join whose condition is ``a = b``, with ``a`` reading no attribute of
  the right side and ``b`` none of the left (or the reverse), is a hash
  join; its output order is the nested loop's (left-major, right rows in
  input order), and an undefined or NaN key matches nothing. Any other
  join is a nested loop.
* A relation-valued or aggregate subexpression that reads no attribute of
  the rows of its enclosing selection, join or projection (found by the
  type checker, which resolves every name) is invariant: it is evaluated
  lazily on first use and kept for that one evaluation of the operator,
  i.e. once per outer row.
* Rows are checked where they enter: by the public ``Nf2Relation``
  constructor, and once on the result of ``execute``. Relations built
  inside a plan take their schemas from the checker and skip the per-row
  checks.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from typing import Union

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


def _built(schema: Nf2Schema, rows: tuple) -> Nf2Relation:
    """A relation the executor built from checked parts, without row checks."""
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
    """One row of an operator, chained to the rows enclosing it.

    ``positions`` maps an attribute name to its place in ``row``. The checker
    chains rows of types, the executor rows of values. ``memo`` holds the
    invariant subexpressions of one evaluation of the operator; all its rows
    share it.
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


# The subexpressions worth keeping when invariant: relations and aggregates.
_HOISTABLE = frozenset((Project, Select, Unnest, Join, Agg))


class _Checker:
    """Type-checks an expression and notes for the executor, by node
    identity, the output schema of each projection, unnest and join, the
    invariant subexpressions and the keys of each hash join."""

    def __init__(self, input_schema: Nf2Schema):
        self.input_schema = input_schema
        self.schemas: dict[int, Nf2Schema] = {}
        self.hoisted: dict[int, bool] = {}  # invariant wherever the node occurs
        self.join_keys: dict[int, tuple | None] = {}  # (left key, right key)
        self.own: tuple[_Scope, ...] = ()  # rows of the innermost operator
        self.reads: set[_Scope] = set()  # rows the names inferred so far read

    def infer(self, e: AlgebraExpr, scope: _Scope | None):
        if type(e) not in _HOISTABLE:
            return self._infer(e, scope)
        t, reads = self._reading(self._infer, e, scope)
        invariant = bool(self.own) and reads.isdisjoint(self.own)
        self.hoisted[id(e)] = self.hoisted.get(id(e), True) and invariant
        return t

    def _reading(self, infer, e: AlgebraExpr, scope: _Scope | None):
        """``infer(e, scope)`` and the rows that the free names of e read."""
        outer, self.reads = self.reads, set()
        t = infer(e, scope)
        reads, self.reads = self.reads, outer
        outer |= reads
        return t, reads

    def _within(self, own: tuple, e: AlgebraExpr, scope: _Scope):
        """Infer e per row of an operator whose rows are ``own``."""
        outer, self.own = self.own, own
        t = self.infer(e, scope)
        self.own = outer
        return t

    def _note(self, e: AlgebraExpr, schema: Nf2Schema) -> Nf2Schema:
        known = self.schemas.setdefault(id(e), schema)
        if known is not schema and known != schema:
            raise TypeMismatchError(
                f"one {type(e).__name__} node is used with two schemas"
            )
        return schema

    def _resolve(self, scope: _Scope | None, name: str):
        while scope is not None:
            i = scope.positions.get(name)
            if i is not None:
                self.reads.add(scope)
                return scope.row[i].type
            scope = scope.parent
        raise UnknownAttributeError(name)

    def _infer(self, e: AlgebraExpr, scope: _Scope | None):
        if isinstance(e, Attr):
            if scope is None:
                raise UnknownAttributeError(
                    f"{e.name} (no row context at the top level)"
                )
            return self._resolve(scope, e.name)
        if isinstance(e, Lit):
            if isinstance(e.value, bool) or e.value is None:
                raise TypeMismatchError(f"unsupported literal {e.value!r}")
            if isinstance(e.value, str):
                return "str"
            return "int" if isinstance(e.value, int) else "float"
        if isinstance(e, Cmp):
            _comparable(self._scalar(e.left, scope), self._scalar(e.right, scope))
            return "bool"
        if isinstance(e, Project):
            src = self._relation(e.src, scope)
            return self._note(e, self._infer_project(src, e.items, scope))
        if isinstance(e, Input):
            return self.input_schema
        if isinstance(e, ConstRel):
            return e.rel.schema
        if isinstance(e, Select):
            src = self._relation(e.src, scope)
            row = _types(src, scope)
            if self._within((row,), e.cond, row) != "bool":
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
            return self._note(e, Nf2Schema(tuple(attrs)))
        if isinstance(e, Join):
            return self._note(e, self._infer_join(e, scope))
        if isinstance(e, Agg):
            src = self._relation(e.src, scope)
            if e.fn == "count":
                return "int"
            if len(src.attributes) != 1 or not _numeric(src.attributes[0].type):
                raise TypeMismatchError(
                    f"{e.fn} needs a single numeric column, got {src.names()}"
                )
            return src.attributes[0].type
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
                if not _numeric(self._resolve(scope, name)):
                    raise TypeMismatchError(
                        f"segment condition needs numeric attribute {name!r}"
                    )
            return "bool"
        raise TypeMismatchError(f"unknown expression node {e!r}")

    def _infer_join(self, e: Join, scope: _Scope | None) -> Nf2Schema:
        left = self._relation(e.left, scope)
        right = self._relation(e.right, scope)
        overlap = set(left.positions) & set(right.positions)
        if overlap:
            raise TypeMismatchError(
                f"join sides share attribute names {sorted(overlap)}"
            )
        # The names are disjoint, so a right row chained to a left row
        # resolves every name as the concatenated row would.
        lrow = _types(left, scope)
        rrow = _types(right, lrow)
        cond, keys = e.cond, None
        if isinstance(cond, Cmp) and cond.op == "=":
            outer, self.own = self.own, (lrow, rrow)
            lt, a = self._reading(self._scalar, cond.left, rrow)
            rt, b = self._reading(self._scalar, cond.right, rrow)
            self.own = outer
            _comparable(lt, rt)
            if rrow not in a and lrow not in b:
                keys = (cond.left, cond.right)
            elif lrow not in a and rrow not in b:
                keys = (cond.right, cond.left)
        elif self._within((lrow, rrow), cond, rrow) != "bool":
            raise TypeMismatchError("join condition must be boolean")
        if self.join_keys.setdefault(id(e), keys) != keys:
            self.join_keys[id(e)] = None  # keys differ between occurrences
        return Nf2Schema(left.attributes + right.attributes)

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

    def _infer_project(
        self, src: Nf2Schema, items: tuple[ProjItem, ...], scope: _Scope | None
    ) -> Nf2Schema:
        row = _types(src, scope)
        attrs: list[Attribute] = []
        for item in items:
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
                inner = self._infer_project(target.type, item.items, row)
                attrs.append(Attribute(item.name, inner))
            else:
                t = self._within((row,), item.expr, row)
                if t == "bool":
                    raise TypeMismatchError("projected attribute cannot be boolean")
                attrs.append(Attribute(item.name, t))
        return Nf2Schema(tuple(attrs))

    def check(self, e: AlgebraExpr) -> Nf2Schema:
        t = self.infer(e, None)
        if not isinstance(t, Nf2Schema):
            raise TypeMismatchError(f"top-level expression is {t}, not a relation")
        return t


def check(e: AlgebraExpr, input_schema: Nf2Schema) -> Nf2Schema:
    """Type-check an expression; returns the output schema.

    Raises:
        UnknownAttributeError: a name that no enclosing row provides.
        TypeMismatchError: any other ill-typed construction.
    """
    return _Checker(input_schema).check(e)


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
    def __init__(self, input_rel: Nf2Relation, checker: _Checker):
        self.input_rel = input_rel
        self.schemas = checker.schemas
        self.hoisted = checker.hoisted
        self.join_keys = checker.join_keys

    def run(self, e: AlgebraExpr, scope: _Scope | None):
        if isinstance(e, Attr):
            return scope.lookup(e.name)
        if isinstance(e, Lit):
            return e.value
        if isinstance(e, Cmp):
            lv = self._scalar(e.left, scope)
            rv = self._scalar(e.right, scope)
            return lv is not UNDEFINED and rv is not UNDEFINED and _COMPARE[e.op](lv, rv)
        if isinstance(e, BoolAnd):
            return all(self.run(p, scope) for p in e.parts)
        if isinstance(e, BoolOr):
            return any(self.run(p, scope) for p in e.parts)
        if isinstance(e, BoolNot):
            return not self.run(e.child, scope)
        if isinstance(e, Arith):
            lv = self._scalar(e.left, scope)
            rv = self._scalar(e.right, scope)
            if lv is UNDEFINED or rv is UNDEFINED:
                return UNDEFINED
            return _ARITH[e.op](lv, rv)
        if isinstance(e, SegIntersects):
            return _segment_hits_rect(
                scope.lookup(e.x1),
                scope.lookup(e.y1),
                scope.lookup(e.x2),
                scope.lookup(e.y2),
                e.region,
                e.closed,
            )
        if not self.hoisted.get(id(e)):
            return self._relational(e, scope)
        memo = scope.memo
        value = memo.get(id(e), memo)  # the memo itself marks a miss
        if value is memo:
            value = memo[id(e)] = self._relational(e, scope)
        return value

    def _relational(self, e: AlgebraExpr, scope: _Scope | None):
        if isinstance(e, Input):
            return self.input_rel
        if isinstance(e, ConstRel):
            return e.rel
        if isinstance(e, Project):
            src = self.run(e.src, scope)
            return self._project(src, e.items, self.schemas[id(e)], scope)
        if isinstance(e, Select):
            src: Nf2Relation = self.run(e.src, scope)
            positions, memo, cond = src.schema.positions, {}, e.cond
            kept = tuple(
                row
                for row in src.rows
                if self.run(cond, _Scope(positions, row, scope, memo))
            )
            return _built(src.schema, kept)
        if isinstance(e, Unnest):
            src = self.run(e.src, scope)
            i = src.schema.positions[e.attr]
            rows = tuple(
                row[:i] + inner + row[i + 1 :]
                for row in src.rows
                for inner in row[i].rows
            )
            return _built(self.schemas[id(e)], rows)
        if isinstance(e, Join):
            return self._join(e, scope)
        if isinstance(e, Agg):
            src = self.run(e.src, scope)
            if e.fn == "count":
                return len(src.rows)
            if not src.rows:
                return UNDEFINED
            return (min if e.fn == "min" else max)(row[0] for row in src.rows)
        raise TypeMismatchError(f"unknown expression node {e!r}")

    def _scalar(self, e: AlgebraExpr, scope: _Scope | None):
        v = self.run(e, scope)
        if not isinstance(v, Nf2Relation):
            return v
        if len(v.rows) > 1:
            raise TypeMismatchError(f"scalar coercion of a {len(v.rows)}-row relation")
        return v.rows[0][0] if v.rows else UNDEFINED

    def _project(
        self,
        src: Nf2Relation,
        items: tuple[ProjItem, ...],
        schema: Nf2Schema,
        scope: _Scope | None,
    ) -> Nf2Relation:
        positions, memo = src.schema.positions, {}
        out_rows = []
        for row in src.rows:
            row_scope = _Scope(positions, row, scope, memo)
            cells = []
            for item, attr in zip(items, schema.attributes):
                if isinstance(item, Col):
                    cells.append(row[positions[item.name]])
                elif isinstance(item, As):
                    cells.append(row[positions[item.source]])
                elif isinstance(item, Sub):
                    nested = row[positions[item.name]]
                    cells.append(self._project(nested, item.items, attr.type, row_scope))
                else:
                    value = self.run(item.expr, row_scope)
                    if value is UNDEFINED:
                        raise TypeMismatchError(
                            f"projected attribute {item.name!r} has no storable value"
                        )
                    cells.append(value)
            out_rows.append(tuple(cells))
        return _built(schema, tuple(out_rows))

    def _join(self, e: Join, scope: _Scope | None) -> Nf2Relation:
        left: Nf2Relation = self.run(e.left, scope)
        right: Nf2Relation = self.run(e.right, scope)
        lpos, rpos, memo = left.schema.positions, right.schema.positions, {}
        keys = self.join_keys[id(e)]
        rows = []
        if keys is None:
            for lrow in left.rows:
                lscope = _Scope(lpos, lrow, scope, memo)
                for rrow in right.rows:
                    if self.run(e.cond, _Scope(rpos, rrow, lscope, memo)):
                        rows.append(lrow + rrow)
        elif left.rows and right.rows:
            lkey, rkey = keys
            index: dict = {}
            for rrow in right.rows:
                k = self._scalar(rkey, _Scope(rpos, rrow, scope, memo))
                # `=` is false for an undefined key and for NaN, which the
                # dict would match with itself by identity: leave them out.
                if k is not UNDEFINED and k == k:
                    index.setdefault(k, []).append(rrow)
            for lrow in left.rows:
                k = self._scalar(lkey, _Scope(lpos, lrow, scope, memo))
                rows.extend(lrow + rrow for rrow in index.get(k, ()))
        return _built(self.schemas[id(e)], tuple(rows))


def execute(e: AlgebraExpr, input_rel: Nf2Relation) -> Nf2Relation:
    """Type-check and evaluate an algebra expression over a relation.

    The result's rows are checked against its schema here, once.
    """
    checker = _Checker(input_rel.schema)
    checker.check(e)
    result = _Executor(input_rel, checker).run(e, None)
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
