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

``execute`` compiles a plan once per plan object and input schema and keeps
the compiled plan while the plan object lives, so a plan built once and run
over many relations is checked and compiled once. The plan is found by its
identity, never by hashing its tree, and a plan that fails to compile is
checked again on the next call. Nodes are immutable, and a compiled plan
keeps no state between runs: what one run builds (the memo of an operator
evaluation, a hash-join index) lives only in that run.

Execution is linear in the rows of each operator, so compiled plans are
linear in points per trajectory. Each relation keeps one column per
attribute beside its rows (built on first use; ``trajectories_to_nf2``
hands its points relations the lists it makes anyway). Operators (project,
select, unnest, join, aggregate) run in the scope of their enclosing row;
a scalar expression in one of them (a condition, a join key, a computed
attribute) runs once over all the operator's rows, on their columns:

* An attribute of the rows is their column. An attribute of an enclosing
  row, a literal, and a relation-valued or aggregate subexpression that
  reads none of the rows (found while it is compiled, as every name is
  resolved then) are constants: read once per evaluation of the operator,
  the subexpression lazily on first use and kept for that evaluation.
* A subexpression that reads the rows runs once per row in the scope of
  the operator's evaluation, which is moved to each row in turn, so no
  scope is built per row; a nested attribute of the rows used as a scalar
  is its column coerced.
* Comparisons keep Python's exactly (``_COMPARE``: an int against a float
  is exact, NaN and undefined compare false), and a conjunct or disjunct
  runs only on the rows still undecided, so a part that would raise runs
  only where some row reaches it.
* min/max of a one-column projection of an attribute (``Col`` or ``As``)
  is Python's min/max of that column, with no projection built; count is
  the length of the relation.
* A join on ``a = b``, with ``a`` reading no attribute of the right side
  and ``b`` none of the left (or the reverse), is a hash join on keys
  read from each side's columns, in the nested loop's output order
  (left-major, right rows in input order); an undefined or NaN key matches
  nothing. Any other join runs its condition once per left row, over the
  right side's columns.
* A segment test is only ever a selection's whole condition, decided for
  all its rows in one call of the evaluator's crossing code
  (``geometry.box_crossings``), closed or open as the condition asks: it
  raises ``CrossingOverflowError`` wherever relaxed evaluation does.
* Rows are checked where they enter: by the public ``Nf2Relation``
  constructor, and once on the result of ``execute``. Relations built
  inside a plan take their schemas from the compiler and skip the per-row
  checks, and derive their columns on each use rather than keep them, so
  no column a run builds outlives it.
"""

from __future__ import annotations

import json
import operator
import weakref
from dataclasses import dataclass, field
from itertools import compress, repeat
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
from .geometry import Interval, Region, box_crossings
from .model import TrajectoriesRelation
from .relations import AllenLabel, De9imLabel

_ATOMIC = ("str", "int", "float")


@dataclass(frozen=True)
class Attribute:
    """One schema attribute: atomic ("str"/"int"/"float") or nested relation."""

    name: str
    type: Union[str, "Nf2Schema"]

    def __post_init__(self):
        if not isinstance(self.type, Nf2Schema) and self.type not in _ATOMIC:
            raise TypeMismatchError(f"unknown atomic type {self.type!r}")


@dataclass(frozen=True)
class Nf2Schema:
    attributes: tuple[Attribute, ...]
    # attribute name -> position in a row; derived, so not compared
    positions: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        attrs = self.attributes
        if not (isinstance(attrs, tuple) and all(isinstance(a, Attribute) for a in attrs)):
            raise TypeMismatchError(f"a schema is a tuple of Attribute values, got {attrs!r}")
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
            if not isinstance(row, tuple):
                raise TypeMismatchError(f"a row is a tuple, got {row!r}")
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
        return tuple(_columns(self)[self.schema.index(name)])

    def __len__(self) -> int:
        return len(self.rows)


def _columns(rel: Nf2Relation) -> tuple:
    """The values of rel's rows read down, one sequence per attribute.

    A relation that entered from outside a plan keeps them from its first
    use on (they are no dataclass field, so equality and repr ignore them);
    one that a plan built derives them on each use, so that they die with
    the run that built it.
    """
    kept = rel.__dict__.get("_cols")
    if kept is not None:
        return kept
    cols = tuple(zip(*rel.rows)) if rel.rows else ((),) * len(rel.schema.attributes)
    if "_cols" not in rel.__dict__:
        object.__setattr__(rel, "_cols", cols)
    return cols


def _built(schema: Nf2Schema, rows: tuple) -> Nf2Relation:
    """A relation a plan built from checked parts, without row checks."""
    rel = object.__new__(Nf2Relation)
    rel.__dict__.update(schema=schema, rows=rows, _cols=None)
    return rel


class _Undefined:
    """Result of min/max over nothing: every comparison against it is false,
    and arithmetic with it is undefined too."""

    __slots__ = ()

    def __repr__(self):
        return "UNDEFINED"

    __lt__ = __gt__ = __le__ = __ge__ = __eq__ = __ne__ = lambda self, other: False
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = lambda self, other: self
    __hash__ = object.__hash__


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

    def __post_init__(self):
        if not isinstance(self.rel, Nf2Relation):
            raise TypeMismatchError(f"a constant relation is an Nf2Relation, got {self.rel!r}")


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

    def __post_init__(self):
        if not isinstance(self.region, Region):
            raise TypeMismatchError(f"a segment condition needs a Region, got {self.region!r}")


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
    """The row an operator is at, chained to the rows enclosing it.

    ``positions`` maps an attribute name to its place in ``row``. The
    compiler chains rows of types, a compiled plan rows of values; the
    outermost scope of a plan holds the input relation under no name. A
    plan builds a scope per evaluation of an operator whose runners read
    one (a join one per side) and moves its ``row`` over the operator's
    rows; ``memo`` holds the invariant subexpressions of that evaluation.
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


# The subexpressions worth keeping when invariant: relations and aggregates.
_HOISTABLE = frozenset((Project, Select, Unnest, Join, Agg))

# --- runners of scalar expressions ----------------------------------------
#
# A scalar expression runs on the rows of one evaluation of its operator at
# once: ``run(rows, cols, live, os)``, with ``rows`` and ``cols`` the rows
# and columns of the operator's relation, ``live`` the ascending indices of
# the rows asked about, and ``os`` the scope of this evaluation of the
# operator, whose memo keeps its invariants (None where no runner of the
# operator reads it). A condition's runner returns the indices in ``live``
# of the rows that satisfy it; an operand's returns its values on those
# rows. An expression with one value for all the rows (a literal, an
# attribute of an enclosing row, an invariant subexpression) reads it once
# per call and repeats it. No runner evaluates anything when ``live`` is
# empty, so a conjunct runs only on the rows still live, and an invariant
# only once some row reaches it.


def _op_scope(s: _Scope, positions: dict, scoped: bool) -> _Scope | None:
    """The scope of one evaluation of an operator over rows with
    ``positions``, if its runners read one."""
    return _Scope(positions, None, s, {}) if scoped else None


def _reader(i: int):
    """The runner of the attribute at position i of the rows."""

    def read(rows, cols, live, os):
        col = cols[i]
        return col if len(live) == len(col) else map(col.__getitem__, live)

    return read


def _constant(get):
    """The runner of an expression with one value on all the rows:
    ``get(os)`` repeated on each live row."""
    return lambda rows, cols, live, os: repeat(get(os), len(live))


def _each(run):
    """The runner of a subexpression that reads the rows: ``run`` in the
    operator's scope, at each live row in turn."""

    def each(rows, cols, live, os):
        values = []
        for i in live:
            os.row = rows[i]
            values.append(run(os))
        return values

    return each


def _compare_columns(op: str, left, right):
    """The runner of ``left op right``: false where either side is undefined."""
    fn = _COMPARE[op]

    def run(rows, cols, live, os):
        if not live:
            return live
        a, b = left(rows, cols, live, os), right(rows, cols, live, os)
        return list(compress(live, map(fn, a, b)))

    return run


def _and_columns(parts: list):
    def run(rows, cols, live, os):
        for part in parts:
            if not live:
                break
            live = part(rows, cols, live, os)
        return live

    return run


def _or_columns(parts: list):
    def run(rows, cols, live, os):
        hits, rest = set(), live
        for part in parts:
            if not rest:
                break
            got = part(rows, cols, rest, os)
            if got:
                hits.update(got)
                rest = [i for i in rest if i not in hits]
        return [i for i in live if i in hits]

    return run


def _not_columns(child):
    def run(rows, cols, live, os):
        got = set(child(rows, cols, live, os))
        return [i for i in live if i not in got]

    return run


def _arith_values(fn, op: str, t: str, a, b) -> list:
    """``fn`` over the paired values of a and b. A value no float holds,
    where the result is typed float, raises (an int operand or result)."""
    try:
        values = list(map(fn, a, b))
        if t == "float":
            for v in values:
                if v is not UNDEFINED:
                    float(v)
    except OverflowError:
        raise TypeMismatchError(f"{op} overflows a float") from None
    return values


def _sole(rel: Nf2Relation):
    """A one-column relation as a scalar: its one value, undefined if empty."""
    rows = rel.rows
    if len(rows) > 1:
        raise TypeMismatchError(f"scalar coercion of a {len(rows)}-row relation")
    return rows[0][0] if rows else UNDEFINED


def _stored(name: str, run):
    """The runner of a computed attribute, which must have a value on each row."""

    def stored(rows, cols, live, os):
        values = list(run(rows, cols, live, os))
        if any(map(operator.is_, values, repeat(UNDEFINED))):
            raise TypeMismatchError(f"projected attribute {name!r} has no storable value")
        return values

    return stored


def _equal_pairs(lkeys, rkeys) -> tuple[list, list]:
    """The (left, right) positions of the key pairs that are ``=``, in the
    nested loop's order: left-major, right rows in input order. ``=`` is
    false for an undefined key and for NaN, which a dict would match with
    itself by identity: they stay out of the index."""
    index: dict = {}
    for j, k in enumerate(rkeys):
        if k is not UNDEFINED and k == k:
            index.setdefault(k, []).append(j)
    li, ri = [], []
    for i, k in enumerate(lkeys):
        for j in index.get(k, ()):
            li.append(i)
            ri.append(j)
    return li, ri


class _Compiler:
    """Type-checks an expression and compiles it in the same pass: each
    occurrence of a node becomes its type and a runner. An operator's runner
    is a function of the scope it runs in; a scalar expression's runs on the
    rows of its operator (above). A runner holds what the check found there:
    output schemas, invariance in the rows of the operator (kept in its
    memo), hash-join keys, the coercion of a one-column relation to a
    scalar, and whether an operator's scalar runners need its scope."""

    def __init__(self, input_schema: Nf2Schema):
        self.input_schema = input_schema
        self.own: tuple[_Scope, ...] = ()  # rows of the innermost operator
        self.cols: tuple[_Scope, ...] = ()  # those of them its runners read as columns
        self.reads: set[_Scope] = set()  # rows the names compiled so far read
        self.scoped = False  # whether a runner compiled so far reads the operator's scope

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

    def _over(self, own: tuple, cols: tuple, compile):
        """``compile()`` for an operator whose rows are ``own``, of which its
        runners read ``cols`` as columns, and whether they read its scope."""
        saved = self.own, self.cols, self.scoped
        self.own, self.cols, self.scoped = own, cols, False
        compiled = compile()
        scoped = self.scoped
        self.own, self.cols, self.scoped = saved
        return compiled, scoped

    def _resolve(self, scope: _Scope | None, name: str) -> tuple[_Scope, int]:
        """The row that provides ``name`` and its position there."""
        if scope is None:
            raise UnknownAttributeError(f"{name} (no row context at the top level)")
        while scope is not None:
            i = scope.positions.get(name)
            if i is not None:
                self.reads.add(scope)
                return scope, i
            scope = scope.parent
        raise UnknownAttributeError(name)

    def _compile(self, e: AlgebraExpr, scope: _Scope | None):
        if isinstance(e, Attr):  # a relation-valued attribute as a source
            found, i = self._resolve(scope, e.name)
            return found.row[i].type, operator.methodcaller("lookup", e.name)
        if isinstance(e, (Lit, Cmp, BoolAnd, BoolOr, BoolNot, Arith)):
            return self._vector(e, scope)[0], None  # a scalar, which its callers reject
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
            return self._aggregate(e, scope)
        if isinstance(e, SegIntersects):
            raise TypeMismatchError("a segment condition must be a selection's whole condition")
        raise TypeMismatchError(f"unknown expression node {e!r}")

    def _vector(self, e: AlgebraExpr, scope: _Scope | None):
        """The type and runner of a condition, or an operand of one, over
        the rows of the innermost operator."""
        if isinstance(e, Attr):
            found, i = self._resolve(scope, e.name)
            t = found.row[i].type
            if found in self.cols:
                return t, _reader(i)
            self.scoped = True
            return t, _constant(operator.methodcaller("lookup", e.name))
        if isinstance(e, Lit):
            value = e.value
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise TypeMismatchError(f"unsupported literal {value!r}")
            t = "str" if isinstance(value, str) else "int" if isinstance(value, int) else "float"
            return t, _constant(lambda os: value)
        if isinstance(e, Cmp):
            (lt, left), (rt, right) = self._operand(e.left, scope), self._operand(e.right, scope)
            _comparable(lt, rt)
            return "bool", _compare_columns(e.op, left, right)
        if isinstance(e, (BoolAnd, BoolOr)):
            parts = []
            for part in e.parts:
                t, run = self._vector(part, scope)
                if t != "bool":
                    raise TypeMismatchError("boolean connective over non-boolean")
                parts.append(run)
            return "bool", (_and_columns if isinstance(e, BoolAnd) else _or_columns)(parts)
        if isinstance(e, BoolNot):
            t, child = self._vector(e.child, scope)
            if t != "bool":
                raise TypeMismatchError("NOT over non-boolean")
            return "bool", _not_columns(child)
        if isinstance(e, Arith):
            return self._arith(e, scope)
        (t, run), reads = self._reading(self.compile, e, scope)
        self.scoped = True
        return t, (_constant(run) if reads.isdisjoint(self.cols) else _each(run))

    def _select(self, e: Select, scope: _Scope | None):
        src_t, src = self._relation(e.src, scope)
        cond = e.cond
        if isinstance(cond, SegIntersects):  # reads the selected rows only
            names = (cond.x1, cond.y1, cond.x2, cond.y2)
            if any(src_t.get(n).type != "float" for n in names):
                raise TypeMismatchError("a segment condition needs float attributes")
            at = tuple(src_t.positions[n] for n in names)
            return src_t, lambda s: _built(src_t, _segments_hitting(src(s), cond, at))
        row = _types(src_t, scope)
        (t, test), scoped = self._over((row,), (row,), lambda: self._vector(cond, row))
        if t != "bool":
            raise TypeMismatchError("selection condition must be boolean")
        positions = src_t.positions

        def select(s):
            rel = src(s)
            rows = rel.rows
            if not rows:
                return rel
            live = test(rows, _columns(rel), range(len(rows)), _op_scope(s, positions, scoped))
            if len(live) == len(rows):
                return rel
            return _built(src_t, tuple(map(rows.__getitem__, live)))

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
        schema = Nf2Schema(left_t.attributes + right_t.attributes)
        cond, keys = e.cond, None
        if isinstance(cond, Cmp) and cond.op == "=":
            sides, scoped = self._over((lrow, rrow), (lrow, rrow), lambda: [
                self._reading(self._operand, side, rrow) for side in (cond.left, cond.right)
            ])
            ((lt, a), a_reads), ((rt, b), b_reads) = sides
            _comparable(lt, rt)
            if rrow not in a_reads and lrow not in b_reads:
                keys = a, b
            elif lrow not in a_reads and rrow not in b_reads:
                keys = b, a
        if keys is None:  # a nested loop: the condition over the right rows, per left row
            (t, test), _ = self._over((lrow, rrow), (rrow,), lambda: self._vector(cond, rrow))
            if t != "bool":
                raise TypeMismatchError("join condition must be boolean")
        lpos, rpos = left_t.positions, right_t.positions

        def join(s):
            lrel, rrel = left(s), right(s)
            lrows, rrows = lrel.rows, rrel.rows
            rows = []
            if lrows and rrows and keys is not None:  # each key reads its side's columns
                lkey, rkey = keys
                rk = rkey(rrows, _columns(rrel), range(len(rrows)), _op_scope(s, rpos, scoped))
                lk = lkey(lrows, _columns(lrel), range(len(lrows)), _op_scope(s, lpos, scoped))
                li, ri = _equal_pairs(lk, rk)
                rows = map(operator.add, map(lrows.__getitem__, li), map(rrows.__getitem__, ri))
            elif lrows and rrows:
                # The right rows' scope, chained to the left row's: both move.
                rcols, every = _columns(rrel), range(len(rrows))
                ls = _Scope(lpos, None, s)
                rs = _Scope(rpos, None, ls, {})
                for lr in lrows:
                    ls.row = lr
                    live = test(rrows, rcols, every, rs)
                    rows.extend(map(lr.__add__, map(rrows.__getitem__, live)))
            return _built(schema, tuple(rows))

        return schema, join

    def _aggregate(self, e: Agg, scope: _Scope | None):
        src, at = e.src, 0
        if isinstance(src, Project) and len(src.items) == 1 and isinstance(src.items[0], (Col, As)):
            # One attribute of the projected relation: read in its column,
            # with no projection built.
            item = src.items[0]
            from_t, relation = self._relation(src.src, scope)
            at = from_t.index(item.name if isinstance(item, Col) else item.source)
            src_t = Nf2Schema((Attribute(item.name, from_t.attributes[at].type),))
        else:
            src_t, relation = self._relation(src, scope)
        if e.fn == "count":
            return "int", lambda s: len(relation(s).rows)
        if len(src_t.attributes) != 1 or not _numeric(src_t.attributes[0].type):
            raise TypeMismatchError(
                f"{e.fn} needs a single numeric column, got {src_t.names()}"
            )
        pick = min if e.fn == "min" else max

        def aggregate(s):
            column = _columns(relation(s))[at]
            return pick(column) if column else UNDEFINED

        return src_t.attributes[0].type, aggregate

    def _arith(self, e: Arith, scope: _Scope | None):
        lt, left = self._operand(e.left, scope)
        rt, right = self._operand(e.right, scope)
        if not (_numeric(lt) and _numeric(rt)):
            raise TypeMismatchError(f"arithmetic over {lt} and {rt}")
        t = "int" if lt == rt == "int" else "float"
        op, fn = e.op, _ARITH[e.op]

        def arith(rows, cols, live, os):
            return _arith_values(fn, op, t, left(rows, cols, live, os), right(rows, cols, live, os))

        return t, arith

    def _relation(self, e: AlgebraExpr, scope: _Scope | None):
        t, run = self.compile(e, scope)
        if not isinstance(t, Nf2Schema):
            raise TypeMismatchError(f"expected a relation, got {t}")
        return t, run

    def _operand(self, e: AlgebraExpr, scope: _Scope | None):
        """Scalar type and runner of a comparison, arithmetic or join-key
        operand.

        A relation-valued operand is legal if it has a single atomic column:
        its runner coerces it to its sole value (or undefined if empty).
        """
        t, run = self._vector(e, scope)
        if isinstance(t, Nf2Schema):
            if len(t.attributes) != 1 or not isinstance(t.attributes[0].type, str):
                raise TypeMismatchError("only single-column relations can be used as scalars")
            t = t.attributes[0].type
            return t, lambda rows, cols, live, os: map(_sole, run(rows, cols, live, os))
        if t == "bool":
            raise TypeMismatchError("boolean used as a scalar operand")
        return t, run

    def _project(self, src: Nf2Schema, items: tuple[ProjItem, ...], scope: _Scope | None):
        """The schema of projecting rows of ``src`` on ``items``, and a
        function of (relation, scope) that projects a relation."""
        row = _types(src, scope)
        (attrs, cells), scoped = self._over((row,), (row,), lambda: self._items(src, items, row))
        schema, positions = Nf2Schema(tuple(attrs)), src.positions
        if cells and all(isinstance(c, int) for c in cells):  # the rows' own values
            pick = operator.itemgetter(*cells) if len(cells) > 1 else lambda r, i=cells[0]: (r[i],)
            return schema, lambda rel, s: _built(schema, tuple(map(pick, rel.rows)))

        def project(rel: Nf2Relation, s: _Scope | None) -> Nf2Relation:
            rows = rel.rows
            if not rows or not cells:
                return _built(schema, ((),) * len(rows))
            cols, live, os = _columns(rel), range(len(rows)), _op_scope(s, positions, scoped)
            values = [cols[c] if type(c) is int else c(rows, cols, live, os) for c in cells]
            return _built(schema, tuple(zip(*values)))

        return schema, project

    def _items(self, src: Nf2Schema, items: tuple, row: _Scope) -> tuple[list, list]:
        """The attributes of projection items over rows of ``src``, and per
        item a position in the row or a runner of its values."""
        attrs: list[Attribute] = []
        cells: list = []
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
                cells.append(_each(lambda rs, i=i, inner=inner: inner(rs.row[i], rs)))
                self.scoped = True
            elif isinstance(item, Computed):
                t, value = self._vector(item.expr, row)
                if t == "bool":
                    raise TypeMismatchError("projected attribute cannot be boolean")
                attrs.append(Attribute(item.name, t))
                cells.append(_stored(item.name, value))
            else:
                raise TypeMismatchError(f"unknown projection item {item!r}")
        return attrs, cells

    def plan(self, e: AlgebraExpr):
        """The output schema of e and its runner over the outermost scope."""
        t, run = self.compile(e, None)
        if not isinstance(t, Nf2Schema):
            raise TypeMismatchError(f"top-level expression is {t}, not a relation")
        return t, run


def check(e: AlgebraExpr, input_schema: Nf2Schema) -> Nf2Schema:
    """Type-check an expression; returns the output schema.

    Raises:
        UnknownAttributeError: a name that no enclosing row provides (for a
            segment condition, that the selected rows lack).
        TypeMismatchError: input_schema is not an Nf2Schema, or any other
            ill-typed construction.
    """
    if not isinstance(input_schema, Nf2Schema):
        raise TypeMismatchError(
            f"check needs an Nf2Schema as input_schema, got {type(input_schema).__name__}"
        )
    return _Compiler(input_schema).plan(e)[0]


def _segments_hitting(rel: Nf2Relation, c: SegIntersects, at: tuple) -> tuple:
    """The rows of rel whose segment meets the rectangle, all in one call of
    the evaluator's crossing code (which may raise CrossingOverflowError).
    ``at`` holds the positions of the segment's x1, y1, x2, y2 columns."""
    cols = _columns(rel)
    x1, y1, x2, y2 = (np.array(cols[i], float) for i in at)
    r = c.region
    enter, leave, edge = box_crossings((x1, y1), (x2, y2), (r.x_min, r.y_min), (r.x_max, r.y_max))
    lo, hi = np.maximum(enter, 0.0), np.minimum(leave, 1.0)
    meets = (lo <= hi) if c.closed else (lo < hi) & ~edge
    return tuple(compress(rel.rows, meets.tolist()))


# id of a plan object -> (a weak reference to it, [(input schema, runner)]);
# the reference's callback drops the entry when the plan dies.
_RUNNERS: dict[int, tuple[weakref.ref, list]] = {}


def _runner(e: AlgebraExpr, schema: Nf2Schema):
    """The runner of plan e over relations of ``schema``: compiled on the
    first call for this plan object and schema, and kept while e lives."""
    key = id(e)
    entry = _RUNNERS.get(key)
    runners = entry[1] if entry is not None and entry[0]() is e else None
    for known, run in runners or ():
        if known is schema or known == schema:
            return run
    run = _Compiler(schema).plan(e)[1]  # an error leaves nothing kept
    if runners is None:
        runners = []
        drop = _RUNNERS.pop
        _RUNNERS[key] = (weakref.ref(e, lambda _, key=key: drop(key, None)), runners)
    runners.append((schema, run))
    return run


def execute(e: AlgebraExpr, input_rel: Nf2Relation) -> Nf2Relation:
    """Type-check and evaluate an algebra expression over a relation.

    The plan is compiled on the first call for this plan object and input
    schema and kept while the plan object lives; later calls run it
    again. The result's rows are checked against its schema here, once.

    Raises:
        TypeMismatchError: input_rel is not an Nf2Relation, or the plan is
            ill-typed over its schema.
        UnknownAttributeError: the plan names an attribute no row provides.
    """
    if not isinstance(input_rel, Nf2Relation):
        hint = (
            "; convert it with trajectories_to_nf2"
            if isinstance(input_rel, TrajectoriesRelation) else ""
        )
        raise TypeMismatchError(
            f"execute runs over an Nf2Relation, got {type(input_rel).__name__}{hint}"
        )
    result = _runner(e, input_rel.schema)(_Scope({}, (input_rel,), None))
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
    columns, so they conform by construction and skip the row checks, and
    they keep those lists as their columns; the outer rows are checked, as
    nothing types a relation's tids.

    Raises:
        TypeMismatchError: rel is not a TrajectoriesRelation.
    """
    if not isinstance(rel, TrajectoriesRelation):
        raise TypeMismatchError(
            f"trajectories_to_nf2 converts a TrajectoriesRelation, got {type(rel).__name__}"
        )
    rows = []
    for tid, t in rel.rows:
        cols = (range(len(t)), t.xs.tolist(), t.ys.tolist(), t.taus.tolist())
        nested = _built(POINTS_SCHEMA, tuple(zip(*cols)))
        object.__setattr__(nested, "_cols", cols)
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


# One plan object, so that execute compiles it once per input schema.
_SEGMENT_JOIN = Project(Input(), (Col("tid"), Computed("T_sgmt", _segments_expr())))


def segment_join(trajectories: Nf2Relation) -> Nf2Relation:
    """Per trajectory, the self-join pairing consecutive points into segments.

    Output schema: (tid, T_sgmt(order, x, y, x2, y2)); a trajectory with n
    points yields n-1 segment rows, zero for a single point.
    """
    return execute(_SEGMENT_JOIN, trajectories)


def _inside_point_cond(r: Region) -> BoolAnd:
    return BoolAnd(
        (
            Cmp("<", Lit(r.x_min), Attr("x")),
            Cmp("<", Lit(r.y_min), Attr("y")),
            Cmp(">", Lit(r.x_max), Attr("x")),
            Cmp(">", Lit(r.y_max), Attr("y")),
        )
    )


def _outside_point_cond(r: Region) -> BoolOr:
    return BoolOr(
        (
            Cmp("<", Attr("x"), Lit(r.x_min)),
            Cmp("<", Attr("y"), Lit(r.y_min)),
            Cmp(">", Attr("x"), Lit(r.x_max)),
            Cmp(">", Attr("y"), Lit(r.y_max)),
        )
    )


def _some(rel: AlgebraExpr, cond: AlgebraExpr) -> Cmp:
    """count(SELECT[cond](rel)) > 0: some row of rel meets cond."""
    return Cmp(">", Agg("count", Select(rel, cond)), Lit(0))


def _unsupported(label, supported: tuple) -> UnsupportedLabelError:
    """The error for a label with no expression: another relation label, or
    a value that is no label at all (a label's text, say)."""
    name = label.value if isinstance(label, (De9imLabel, AllenLabel)) else repr(label)
    return UnsupportedLabelError(
        f"no published expression for {name}; supported: "
        + ", ".join(l.value for l in supported)
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

    Each catalog clause is one test. A clause on pf or pl is one selection
    of that endpoint, ``count(SELECT[cond](pf)) > 0``, with cond the strict
    interior or strict exterior condition on x and y, the same one a clause
    over T applies to every point. So each endpoint is selected once per
    clause, and a trajectory with no points meets no clause on pf or pl.
    R223 is pf outside, pl outside, some point inside; R247 is pf inside,
    pl inside, some point outside the closed rectangle; R255 is pf inside,
    pl outside. The whole-path tests of R179 and of R247's escape
    stay min/max aggregates, read off the columns of T with no projection
    built.

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
        raise _unsupported(label, _SPATIAL_LABELS)
    relaxed = s.kind == "relaxed"
    inside, outside = _inside_point_cond(r), _outside_point_cond(r)
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
        escapes = BoolOr(
            (
                Cmp("<", Agg("min", _coord(Attr("T"), "x")), Lit(r.x_min)),
                Cmp(">", Agg("max", _coord(Attr("T"), "x")), Lit(r.x_max)),
                Cmp("<", Agg("min", _coord(Attr("T"), "y")), Lit(r.y_min)),
                Cmp(">", Agg("max", _coord(Attr("T"), "y")), Lit(r.y_max)),
            )
        )
        cond = BoolAnd((_some(_p_first(), inside), _some(_p_last(), inside), escapes))
    elif label is De9imLabel.R255:
        cond = BoolAnd((_some(_p_first(), inside), _some(_p_last(), outside)))
    elif label is De9imLabel.R031:
        inside_count_zero = Cmp("=", Agg("count", Select(Attr("T"), inside)), Lit(0))
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
        enters: AlgebraExpr = _some(Attr("T"), inside)
        if relaxed:
            crossing = SegIntersects(r, False, "x", "y", "x2", "y2")
            enters = BoolOr((enters, _some(_segments_expr(), crossing)))
        cond = BoolAnd((_some(_p_first(), outside), _some(_p_last(), outside), enters))
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
        raise _unsupported(label, _TEMPORAL_LABELS)
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
