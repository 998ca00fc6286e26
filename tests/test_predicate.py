import random
from pathlib import Path

import pytest

from trajq.errors import PredicateSyntaxError, PredicateTypeError, UnknownNameError
from trajq.geometry import Interval, Region
from helpers import random_predicate
from trajq.predicate import (
    MAX_NESTING,
    And,
    Domain,
    GroundClause,
    Op,
    Or,
    PointRef,
    QuantifiedClause,
    Quantifier,
    Var,
    format_predicate,
    parse_predicate,
    validate,
)

DATA = Path(__file__).parent / "data"
ENV = {"R": Region(0, 0, 1, 1), "I": Interval(100, 140)}


def test_combined_quantified_clause():
    ast = parse_predicate("EXISTS p IN T: p WITHIN R AND p WITHIN I")
    (clause,) = ast.clauses
    assert isinstance(clause, QuantifiedClause)
    assert clause.quantifier is Quantifier.EXISTS
    assert clause.domain is Domain.ALL_POINTS
    assert isinstance(clause.body, And)
    ops = [a.op for a in clause.body.parts]
    assert ops == [Op.WITHIN, Op.WITHIN]
    assert [a.subject for a in clause.body.parts] == [Var("p"), Var("p")]


@pytest.mark.parametrize("text", [None, 42, b"EXISTS p IN T: p INSIDE R"])
def test_text_that_is_no_str_is_a_type_error(text):
    with pytest.raises(PredicateTypeError, match="predicate text is a str"):
        parse_predicate(text)


def test_ground_clause():
    ast = parse_predicate("pf INSIDE R AND pl OUTSIDE R")
    (clause,) = ast.clauses
    assert isinstance(clause, GroundClause)
    first, last = clause.body.parts
    assert (first.subject, first.op) == (PointRef.FIRST, Op.INSIDE)
    assert (last.subject, last.op) == (PointRef.LAST, Op.OUTSIDE)


def test_temporal_operator_on_region_is_type_error():
    text = "FORALL p IN T: p BEFORE R"
    ast = parse_predicate(text)
    diags = validate(ast, ENV)
    assert [d.kind for d in diags] == ["type-error"]
    with pytest.raises(PredicateTypeError):
        parse_predicate(text, ENV)


def test_unknown_name_diagnostic():
    ast = parse_predicate("EXISTS p IN T: p WITHIN J")
    assert [d.kind for d in validate(ast, ENV)] == ["unknown-name"]
    with pytest.raises(UnknownNameError):
        parse_predicate("EXISTS p IN T: p WITHIN J", ENV)


@pytest.mark.parametrize("binding", ["x", (0, 0, 1, 1), 3.0])
def test_binding_that_is_no_region_or_interval_is_a_type_error(binding):
    text = "EXISTS p IN T: p INSIDE R"
    diags = validate(parse_predicate(text), {"R": binding})
    assert [(d.kind, d.name) for d in diags] == [("type-error", "R")]
    with pytest.raises(PredicateTypeError, match="not a Region or an Interval"):
        parse_predicate(text, {"R": binding})


@pytest.mark.parametrize("env", [["R"], 5, "R", None])
def test_environment_that_is_no_mapping_is_a_type_error(env):
    with pytest.raises(PredicateTypeError, match="an environment is a mapping"):
        validate(parse_predicate("pf WITHIN R"), env)
    if env is not None:  # parse_predicate reads None as no environment
        with pytest.raises(PredicateTypeError, match="an environment is a mapping"):
            parse_predicate("pf WITHIN R", env)


@pytest.mark.parametrize("ast", ["EXISTS p IN T: p INSIDE R", 5, None])
def test_validating_what_is_no_predicate_is_a_type_error(ast):
    # the text itself is the natural slip
    with pytest.raises(PredicateTypeError, match=f"got {type(ast).__name__}"):
        validate(ast, ENV)


@pytest.mark.parametrize("ast", [5, "pf WITHIN R", None])
def test_formatting_what_is_no_predicate_is_a_type_error(ast):
    with pytest.raises(PredicateTypeError, match=f"got {type(ast).__name__}"):
        format_predicate(ast)


def test_unbound_variable_diagnostic():
    ast = parse_predicate("q WITHIN R")
    assert [d.kind for d in validate(ast, ENV)] == ["unbound-variable"]


def test_endpoint_under_quantifier_diagnostic():
    ast = parse_predicate("EXISTS p IN T: pf WITHIN R")
    assert [d.kind for d in validate(ast, ENV)] == ["endpoint-under-quantifier"]


def test_valid_catalog_style_predicate_has_no_diagnostics():
    ast = parse_predicate("pf INSIDE R AND pl INSIDE R AND (EXISTS p IN TFL: p OUTSIDE R)")
    assert validate(ast, ENV) == []


def test_canonical_printing():
    assert (
        format_predicate(parse_predicate("FORALL p IN T:p OUTSIDE R"))
        == "FORALL p IN T: p OUTSIDE R"
    )
    on_border = "FORALL p IN T: p WITHIN R AND NOT (p INSIDE R)"
    assert format_predicate(parse_predicate(on_border)) == on_border


def test_quantified_clauses_parenthesized_when_conjoined():
    text = "EXISTS p IN T: p WITHIN R AND FORALL q IN T: q WITHIN R"
    ast = parse_predicate(text)
    assert len(ast.clauses) == 2
    assert (
        format_predicate(ast)
        == "(EXISTS p IN T: p WITHIN R) AND (FORALL q IN T: q WITHIN R)"
    )


def test_ground_atoms_bind_into_quantified_body():
    # without parentheses the AND continues the clause body, because no
    # quantifier follows; pf is then a stray endpoint under the quantifier
    ast = parse_predicate("EXISTS p IN T: p WITHIN R AND pf WITHIN I")
    (clause,) = ast.clauses
    assert isinstance(clause, QuantifiedClause)
    assert len(clause.body.parts) == 2
    ast2 = parse_predicate("(EXISTS p IN T: p WITHIN R) AND pf WITHIN I")
    assert len(ast2.clauses) == 2
    assert format_predicate(ast2) == "(EXISTS p IN T: p WITHIN R) AND pf WITHIN I"


def test_or_binds_tighter_than_clause_and():
    ast = parse_predicate("pf WITHIN R OR pl WITHIN I AND (EXISTS p IN T: p INSIDE R)")
    ground, quantified = ast.clauses
    assert isinstance(ground, GroundClause) and isinstance(ground.body, Or)
    assert isinstance(quantified, QuantifiedClause)


def test_parenthesized_predicate_clause_flattens():
    ast = parse_predicate("(EXISTS p IN T: p WITHIN R AND FORALL q IN T: q WITHIN R)")
    assert len(ast.clauses) == 2
    assert parse_predicate(format_predicate(ast)) == ast


def test_paren_clause_requires_leading_quantifier():
    # a "(" opens a nested predicate only when a quantifier follows it;
    # otherwise it is a body group, and body groups cannot hold quantifiers
    with pytest.raises(PredicateSyntaxError) as exc:
        parse_predicate("(pf WITHIN R AND (EXISTS p IN T: p WITHIN R))")
    assert exc.value.position == 18


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("p WITHIN", 8),
        ("EXISTS p IN Q: p WITHIN R", 12),
        ("pf WITHIN R AND", 15),
        ("(pf WITHIN R", 12),
        ("pf WITHIN R)", 11),
        ("FORALL p IN T p WITHIN R", 14),
        ("pf CONTAINS R", 3),
    ],
)
def test_syntax_error_positions(text, position):
    with pytest.raises(PredicateSyntaxError) as exc:
        parse_predicate(text)
    assert exc.value.position == position
    assert exc.value.expected


CLAUSE = "EXISTS p IN T: p INSIDE R"
# (text, the unit that opens one more level, what precedes the first)
NESTINGS = (
    ("(", ")", "EXISTS p IN T: ", "p INSIDE R"),
    ("NOT ", "", "EXISTS p IN T: ", "p INSIDE R"),
    (f"({CLAUSE} AND ", ")", "", CLAUSE),
)


def _nested(opener, closer, head, core, depth):
    return head + opener * depth + core + closer * depth


@pytest.mark.parametrize("opener,closer,head,core", NESTINGS)
def test_deep_nesting_is_a_syntax_error(opener, closer, head, core):
    # 1200 levels overflowed the interpreter's stack; the error names the
    # token that opens level MAX_NESTING + 1
    for depth in (MAX_NESTING + 1, 1200):
        with pytest.raises(PredicateSyntaxError) as exc:
            parse_predicate(_nested(opener, closer, head, core, depth))
        assert exc.value.position == len(head) + MAX_NESTING * len(opener)
        assert f"at most {MAX_NESTING} levels" in str(exc.value)


@pytest.mark.parametrize("opener,closer,head,core", NESTINGS)
def test_nesting_up_to_the_bound_parses(opener, closer, head, core):
    ast = parse_predicate(_nested(opener, closer, head, core, MAX_NESTING))
    assert parse_predicate(format_predicate(ast)) == ast


def test_not_of_a_group_is_one_level():
    # format_predicate writes NOT (...), so NOT and its "(" count once
    text = "EXISTS p IN T: " + "NOT (" * MAX_NESTING + "p INSIDE R" + ")" * MAX_NESTING
    assert format_predicate(parse_predicate(text)) == text


def test_corpus_files_parse_and_roundtrip():
    texts = []
    for name in ("de9im_formulas.txt", "allen_formulas.txt"):
        for line in (DATA / name).read_text().splitlines():
            _, text = line.split("\t", 1)
            texts.append(text)
    texts.extend((DATA / "inline_predicates.txt").read_text().splitlines())
    assert len(texts) == 19 + 13 + 10
    for text in texts:
        ast = parse_predicate(text)
        assert format_predicate(ast) == text
        assert parse_predicate(format_predicate(ast)) == ast


def test_roundtrip_on_random_asts():
    rng = random.Random(99)
    for _ in range(2000):
        ast = random_predicate(rng)
        text = format_predicate(ast)
        assert parse_predicate(text) == ast, text


def test_fuzz_produces_only_positioned_errors():
    rng = random.Random(4)
    corpus = (DATA / "inline_predicates.txt").read_text().splitlines()
    for trial in range(10000):
        if trial % 2:
            raw = bytes(rng.randrange(256) for _ in range(rng.randint(0, 40)))
            text = raw.decode("latin-1")
        else:
            text = list(rng.choice(corpus))
            for _ in range(rng.randint(1, 4)):
                pos = rng.randrange(len(text) + 1)
                edit = rng.random()
                if edit < 0.4 and text:
                    del text[min(pos, len(text) - 1)]
                else:
                    text.insert(pos, chr(rng.randrange(32, 127)))
            text = "".join(text)
        try:
            ast = parse_predicate(text)
        except PredicateSyntaxError as exc:
            assert isinstance(exc.position, int) and 0 <= exc.position <= len(text)
        else:
            assert format_predicate(ast)
