"""Surface syntax: clauses, negation, conjunction heads, directives, printing."""

import pytest

from indsem.errors import NonGroundParameterError, ParseError
from indsem.parser import (
    Program,
    RuleTemplate,
    parse_paramset,
    parse_program,
    parse_query,
    parse_term,
    program_to_str,
    template_to_str,
)
from indsem.terms import Compound, Var, atom


def test_fact_and_rule():
    p = parse_program("a.\nb :- a.\n")
    assert len(p.templates) == 2
    assert p.templates[0].is_fact
    assert p.templates[1].head == atom("b")
    assert p.templates[1].pos_body == (atom("a"),)


def test_negation_goes_to_neg_body_stripped():
    p = parse_program("p :- a, not(b), c.\n")
    t = p.templates[0]
    assert t.pos_body == (atom("a"), atom("c"))
    assert t.neg_body == (atom("b"),)


def test_not_requires_arity_one():
    with pytest.raises(ParseError):
        parse_program("p :- not(a,b).\n")


def test_conjunction_head_is_a_compound():
    p = parse_program("(A,B) :- A, B.\n")
    t = p.templates[0]
    assert t.head == Compound(",", (Var("A"), Var("B")))
    assert t.pos_body == (Var("A"), Var("B"))


def test_parenthesized_body_group_flattens():
    p = parse_program("p :- (a, b), c.\n")
    assert p.templates[0].pos_body == (atom("a"), atom("b"), atom("c"))


def test_comma_term_in_argument_position():
    t = parse_term("clause(p,(a,b))")
    assert t.args[1] == Compound(",", (atom("a"), atom("b")))


def test_object_directive_routes_clauses():
    p = parse_program("meta.\n#object\nobj1.\nobj2 :- obj1.\n")
    assert [t.head for t in p.templates] == [atom("meta")]
    assert [t.head for t in p.object_templates] == [atom("obj1"), atom("obj2")]


def test_unknown_directive_rejected():
    with pytest.raises(ParseError):
        parse_program("#nonsense\n")


def test_quoted_functors():
    p = parse_program("likes('Alice','ice cream').\n'odd name'(1).\n")
    assert p.templates[0].head == Compound(
        "likes", (Compound("Alice"), Compound("ice cream"))
    )
    assert p.templates[1].head == Compound("odd name", (atom("1"),))


def test_quoted_escape():
    assert parse_term(r"'it\'s'") == Compound("it's")


def test_dot_needs_following_whitespace():
    with pytest.raises(ParseError):
        parse_program("a.b.\n")
    # but end of input and comments are fine
    parse_program("a.")
    parse_program("a.% trailing comment")


def test_comments_and_blank_lines_ignored():
    p = parse_program("% header\n\na. % not a comment marker inside\n")
    assert len(p.templates) == 1


def test_source_locations():
    p = parse_program("a.\n\nb :- a.\n", "prog.ind")
    assert str(p.templates[0].loc) == "prog.ind:1"
    assert str(p.templates[1].loc) == "prog.ind:3"


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("a :- .\n", "bad.ind")
    assert err.value.filename == "bad.ind"
    assert err.value.line == 1


def test_unexpected_character():
    with pytest.raises(ParseError):
        parse_program("a & b.\n")


def test_paramset():
    ps = parse_paramset("edge(1,2).\nedge(2,3).\n")
    assert ps == frozenset({parse_term("edge(1,2)"), parse_term("edge(2,3)")})


def test_paramset_rejects_variables():
    with pytest.raises(NonGroundParameterError):
        parse_paramset("edge(1,X).\n")


def test_parse_query_optional_dot():
    assert parse_query("tc(1,Y)") == parse_query("tc(1,Y).")
    with pytest.raises(ParseError):
        parse_query("tc(1,Y). extra")


def test_program_add_concatenates():
    p = parse_program("a.\n") + parse_program("b.\n#object\nc.\n")
    assert [t.head for t in p.templates] == [atom("a"), atom("b")]
    assert [t.head for t in p.object_templates] == [atom("c")]


def test_template_to_str():
    p = parse_program("p :- a, not(b).\nq.\n")
    assert template_to_str(p.templates[0]) == "p :- a, not(b)."
    assert template_to_str(p.templates[1]) == "q."


def test_program_print_parse_roundtrip():
    text = "tc(X,Y) :- edge(X,Y).\np :- a, not(b).\n#object\nf(a).\n"
    p = parse_program(text)
    q = parse_program(program_to_str(p))
    assert q.templates == tuple(
        RuleTemplate(t.head, t.pos_body, t.neg_body, u.loc)
        for t, u in zip(p.templates, q.templates)
    )
    assert [t.head for t in q.object_templates] == [t.head for t in p.object_templates]


def test_empty_program():
    assert parse_program("") == Program()


def test_each_anonymous_variable_is_its_own():
    t = parse_program("p(X) :- q(X,_), r(_).\n").templates[0]
    (x, first), (second,) = t.pos_body[0].args, t.pos_body[1].args
    assert isinstance(first, Var) and isinstance(second, Var) and first != second
    assert x == Var("X") and "#" in first.name  # no source variable can clash
    assert template_to_str(t) == "p(X) :- q(X,_), r(_)."
    assert program_to_str(parse_program(program_to_str(Program((t,))))) == "p(X) :- q(X,_), r(_).\n"
