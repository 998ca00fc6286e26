"""Spatio-temporal predicate language: AST, parser, printer, validation.

A predicate is a conjunction of clauses. Each clause either quantifies one
point variable over the trajectory (``T``) or over its inner points with
first and last removed (``TFL``), or is a ground formula over the endpoint
constants ``pf`` and ``pl``. Clause bodies combine atoms with AND, OR, NOT;
an atom compares a point against a named region or interval::

    predicate := clause { "AND" clause }
    clause    := quantified | ground | "(" predicate ")"
    quantified:= ("EXISTS"|"FORALL") IDENT "IN" ("T"|"TFL") ":" body
    ground    := body
    body      := disj ;  disj := conj { "OR" conj } ;  conj := unit { "AND" unit }
    unit      := "NOT" unit | "(" body ")" | atom
    atom      := pointref op IDENT ;  pointref := IDENT | "pf" | "pl"
    op        := "WITHIN" | "INSIDE" | "OUTSIDE" | "BEFORE" | "AFTER"

WITHIN means interior-or-boundary containment, INSIDE strictly interior,
OUTSIDE strictly exterior; BEFORE/AFTER compare a point's timestamp against
an interval and are only valid with interval operands. Keywords are
case-sensitive upper-case, whitespace is insignificant, and identifiers
match [A-Za-z_][A-Za-z0-9_]*.

Two tokens of lookahead disambiguate an opening parenthesis: it starts a
nested predicate clause when a quantifier keyword follows, otherwise it
groups a body. Likewise a top-level AND ends the current clause exactly
when a quantifier (possibly parenthesized) follows; inside parenthesized
bodies AND always stays part of the body. The printer emits the canonical
form these rules read back: quantified clauses are parenthesized whenever
the predicate has more than one clause, NOT always parenthesizes its
operand, and nested same-operator combinations keep their grouping
parentheses. OR is confined to a clause body, so the clause list is a
conjunctive normal form; disjunction across two quantified clauses is not
expressible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Union

from .errors import PredicateSyntaxError, PredicateTypeError, UnknownNameError
from .geometry import Interval, Region


class Quantifier(Enum):
    EXISTS = "EXISTS"
    FORALL = "FORALL"


class Domain(Enum):
    """What a quantified variable ranges over."""

    ALL_POINTS = "T"
    INNER_POINTS = "TFL"


class PointRef(Enum):
    """The endpoint constants of a trajectory."""

    FIRST = "pf"
    LAST = "pl"


class Op(Enum):
    WITHIN = "WITHIN"
    INSIDE = "INSIDE"
    OUTSIDE = "OUTSIDE"
    BEFORE = "BEFORE"
    AFTER = "AFTER"


@dataclass(frozen=True)
class Var:
    """A bound point variable inside a quantified clause body."""

    name: str


Subject = Union[Var, PointRef]


@dataclass(frozen=True)
class Atom:
    subject: Subject
    op: Op
    rhs: str


@dataclass(frozen=True)
class Not:
    child: "Body"


@dataclass(frozen=True)
class And:
    parts: tuple["Body", ...]


@dataclass(frozen=True)
class Or:
    parts: tuple["Body", ...]


Body = Union[Atom, Not, And, Or]


@dataclass(frozen=True)
class QuantifiedClause:
    quantifier: Quantifier
    var: str
    domain: Domain
    body: Body


@dataclass(frozen=True)
class GroundClause:
    body: Body


Clause = Union[QuantifiedClause, GroundClause]


@dataclass(frozen=True)
class Predicate:
    """A conjunction of clauses; the top level of every parsed formula."""

    clauses: tuple[Clause, ...]


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding; kind is a stable machine-readable tag."""

    kind: str
    message: str
    name: str | None = None


RESERVED = frozenset(
    ["EXISTS", "FORALL", "IN", "AND", "OR", "NOT"] + [o.value for o in Op]
)
_QUANTIFIER_WORDS = frozenset(["EXISTS", "FORALL"])

_TOKEN_RE = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[():]))")


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "(" | ")" | ":" | "eof"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            at = n - len(rest)
            raise PredicateSyntaxError(at, "identifier, '(', ')' or ':'", repr(rest[0]))
        if m.group("ident") is not None:
            start = m.start("ident")
            tokens.append(_Token("ident", m.group("ident"), start))
        else:
            start = m.start("punct")
            tokens.append(_Token(m.group("punct"), m.group("punct"), start))
        pos = m.end()
    tokens.append(_Token("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self, ahead: int = 0) -> _Token:
        j = min(self.i + ahead, len(self.tokens) - 1)
        return self.tokens[j]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def fail(self, expected: str) -> PredicateSyntaxError:
        tok = self.peek()
        found = repr(tok.text) if tok.kind != "eof" else "end of input"
        return PredicateSyntaxError(tok.pos, expected, found)

    def expect(self, kind: str, expected: str) -> _Token:
        if self.peek().kind != kind:
            raise self.fail(expected)
        return self.advance()

    def expect_word(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text != word:
            raise self.fail(f"'{word}'")
        return self.advance()

    def at_word(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text in words

    def _quantifier_ahead(self, offset: int = 0) -> bool:
        """True when the tokens at offset open a quantified clause (with or without parens)."""
        nxt = self.peek(offset)
        if nxt.kind == "ident" and nxt.text in _QUANTIFIER_WORDS:
            return True
        if nxt.kind == "(":
            after = self.peek(offset + 1)
            return after.kind == "ident" and after.text in _QUANTIFIER_WORDS
        return False

    def predicate(self) -> Predicate:
        clauses = list(self.clause())
        while self.at_word("AND"):
            self.advance()
            clauses.extend(self.clause())
        return Predicate(tuple(clauses))

    def clause(self) -> tuple[Clause, ...]:
        if self.at_word(*_QUANTIFIER_WORDS):
            return (self.quantified(),)
        if self.peek().kind == "(" and self._quantifier_ahead():
            self.advance()
            sub = self.predicate()
            self.expect(")", "')'")
            return sub.clauses
        return (GroundClause(self.body(var=None, top_level=True)),)

    def quantified(self) -> QuantifiedClause:
        word = self.advance().text
        quantifier = Quantifier(word)
        var_tok = self.peek()
        if var_tok.kind != "ident" or var_tok.text in RESERVED:
            raise self.fail("variable name")
        self.advance()
        self.expect_word("IN")
        dom_tok = self.peek()
        if dom_tok.kind != "ident" or dom_tok.text not in ("T", "TFL"):
            raise self.fail("'T' or 'TFL'")
        self.advance()
        self.expect(":", "':'")
        body = self.body(var=var_tok.text, top_level=True)
        return QuantifiedClause(quantifier, var_tok.text, Domain(dom_tok.text), body)

    def body(self, var: str | None, top_level: bool) -> Body:
        parts = [self.conj(var, top_level)]
        while self.at_word("OR"):
            self.advance()
            parts.append(self.conj(var, top_level))
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conj(self, var: str | None, top_level: bool) -> Body:
        parts = [self.unit(var)]
        while self.at_word("AND"):
            if top_level and self._quantifier_ahead(1):
                break  # this AND separates clauses, leave it for the caller
            self.advance()
            parts.append(self.unit(var))
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unit(self, var: str | None) -> Body:
        if self.at_word("NOT"):
            self.advance()
            return Not(self.unit(var))
        if self.peek().kind == "(":
            self.advance()
            inner = self.body(var, top_level=False)
            self.expect(")", "')'")
            return inner
        return self.atom(var)

    def atom(self, var: str | None) -> Atom:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in RESERVED:
            raise self.fail("point reference")
        self.advance()
        subject: Subject
        if var is not None and tok.text == var:
            subject = Var(tok.text)
        elif tok.text == "pf":
            subject = PointRef.FIRST
        elif tok.text == "pl":
            subject = PointRef.LAST
        else:
            subject = Var(tok.text)
        op_tok = self.peek()
        if op_tok.kind != "ident" or op_tok.text not in Op.__members__:
            raise self.fail("WITHIN, INSIDE, OUTSIDE, BEFORE or AFTER")
        self.advance()
        rhs_tok = self.peek()
        if rhs_tok.kind != "ident" or rhs_tok.text in RESERVED:
            raise self.fail("region or interval name")
        self.advance()
        return Atom(subject, Op(op_tok.text), rhs_tok.text)


def parse_predicate(
    text: str, env: Mapping[str, Region | Interval] | None = None
) -> Predicate:
    """Parse predicate text into an AST.

    With an environment given, the parsed AST is also validated against it
    and the first finding is raised as UnknownNameError or
    PredicateTypeError; without one, name and kind checks are deferred to
    :func:`validate`.

    Raises:
        PredicateSyntaxError: malformed input, with character position.
        UnknownNameError: env given and an atom references an unknown name.
        PredicateTypeError: text is not a str, env is given and is not a
            mapping, or an atom misuses kinds or binding.
    """
    if not isinstance(text, str):
        raise PredicateTypeError(f"predicate text is a str, got {type(text).__name__}")
    parser = _Parser(_tokenize(text))
    ast = parser.predicate()
    if parser.peek().kind != "eof":
        raise parser.fail("'AND' or end of input")
    if env is not None:
        for diag in validate(ast, env):
            if diag.kind == "unknown-name":
                raise UnknownNameError(diag.name)
            raise PredicateTypeError(diag.message)
    return ast


def _fmt_body(node: Body) -> str:
    if isinstance(node, Atom):
        subject = node.subject.value if isinstance(node.subject, PointRef) else node.subject.name
        return f"{subject} {node.op.value} {node.rhs}"
    if isinstance(node, Not):
        return f"NOT ({_fmt_body(node.child)})"
    if isinstance(node, And):
        rendered = [
            f"({_fmt_body(p)})" if isinstance(p, (And, Or)) else _fmt_body(p)
            for p in node.parts
        ]
        return " AND ".join(rendered)
    rendered = [
        f"({_fmt_body(p)})" if isinstance(p, Or) else _fmt_body(p) for p in node.parts
    ]
    return " OR ".join(rendered)


def format_predicate(ast: Predicate) -> str:
    """Render an AST as canonical text; parsing the result reproduces the AST.

    Canonical ASTs are those the parser can produce: no single-element
    AND/OR nodes and no two adjacent ground clauses (the parser merges
    neighbouring ground conjuncts into one clause body).
    """
    multi = len(ast.clauses) > 1
    parts = []
    for clause in ast.clauses:
        if isinstance(clause, GroundClause):
            parts.append(_fmt_body(clause.body))
        else:
            text = (
                f"{clause.quantifier.value} {clause.var} IN "
                f"{clause.domain.value}: {_fmt_body(clause.body)}"
            )
            parts.append(f"({text})" if multi else text)
    return " AND ".join(parts)


def _walk_atoms(node: Body):
    if isinstance(node, Atom):
        yield node
    elif isinstance(node, Not):
        yield from _walk_atoms(node.child)
    else:
        for part in node.parts:
            yield from _walk_atoms(part)


def validate(
    ast: Predicate, env: Mapping[str, Region | Interval]
) -> list[Diagnostic]:
    """Check names, kinds, and variable binding; returns findings.

    An empty result means: every atom's rhs resolves in the environment to
    a Region or an Interval, the temporal operators BEFORE/AFTER only meet
    intervals, every bound variable matches its quantifier, and the
    endpoint constants pf/pl stay out of quantified bodies.

    Raises:
        PredicateTypeError: env is not a mapping of names.
    """
    try:
        lookup = env.get
    except AttributeError:
        raise PredicateTypeError(
            f"an environment is a mapping of names, got {type(env).__name__}"
        ) from None
    diags: list[Diagnostic] = []
    for clause in ast.clauses:
        bound = clause.var if isinstance(clause, QuantifiedClause) else None
        for atom in _walk_atoms(clause.body):
            if isinstance(atom.subject, PointRef):
                if bound is not None:
                    diags.append(
                        Diagnostic(
                            "endpoint-under-quantifier",
                            f"{atom.subject.value} cannot appear under a quantifier",
                        )
                    )
            elif atom.subject.name != bound:
                where = f"quantified over {bound!r}" if bound else "a ground clause"
                diags.append(
                    Diagnostic(
                        "unbound-variable",
                        f"unbound variable {atom.subject.name!r} in {where}",
                        atom.subject.name,
                    )
                )
            target = lookup(atom.rhs)
            if target is None:
                diags.append(
                    Diagnostic("unknown-name", f"unknown name {atom.rhs!r}", atom.rhs)
                )
            elif not isinstance(target, (Region, Interval)):
                diags.append(
                    Diagnostic(
                        "type-error",
                        f"{atom.rhs!r} is bound to a {type(target).__name__},"
                        " not a Region or an Interval",
                        atom.rhs,
                    )
                )
            elif atom.op in (Op.BEFORE, Op.AFTER) and isinstance(target, Region):
                diags.append(
                    Diagnostic(
                        "type-error",
                        f"{atom.op.value} needs an interval, but {atom.rhs!r} is a region",
                        atom.rhs,
                    )
                )
    return diags
