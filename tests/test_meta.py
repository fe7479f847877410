"""Metaprogramming: builtins, call/1, clause/2 synthesis, the wrap transform."""

import pytest
from hypothesis import given, strategies as st

from indsem import engine, justify, meta
from indsem.errors import FunctorCollisionError, NegationInObjectProgramError
from indsem.meta import (
    assemble_meta,
    builtin_rules,
    call_rule,
    decode_body,
    encode_body,
    synthesize_clause_facts,
    wrap,
    wrap_atoms,
)
from indsem.parser import parse_program, parse_term
from indsem.terms import Compound, atom


def _atoms(text):
    return frozenset(parse_term(t) for t in text.split())


# ---------------------------------------------------------------------------
# Body encoding
# ---------------------------------------------------------------------------


def test_encode_body_shapes():
    assert encode_body(()) == atom("true")
    assert encode_body((atom("a"),)) == atom("a")  # no true-padding
    assert encode_body((atom("a"), atom("b"))) == parse_term("(a,b)")
    assert encode_body((atom("a"), atom("b"), atom("c"))) == parse_term("(a,(b,c))")


def test_decode_body_shapes():
    assert decode_body(atom("true")) == ()
    assert decode_body(atom("a")) == (atom("a"),)
    assert decode_body(parse_term("(a,(b,c))")) == (atom("a"), atom("b"), atom("c"))


_literals = st.lists(
    st.sampled_from([parse_term(t) for t in ["a", "b", "f(X)", "g(a,Y)", "p(1)"]]),
    max_size=5,
).map(tuple)


@given(_literals)
def test_encode_decode_roundtrip(literals):
    assert decode_body(encode_body(literals)) == literals


# ---------------------------------------------------------------------------
# Builtins and call/1
# ---------------------------------------------------------------------------


def test_builtin_rules_content():
    prog = builtin_rules()
    assert len(prog.templates) == 2
    assert prog.templates[0].head == atom("true")
    assert prog.templates[1].head.functor == ","


def test_conjunction_derivable_through_builtins():
    prog = parse_program("p.\nq.\n") + builtin_rules()
    assert justify.prove(prog, frozenset(), parse_term("(p,q)")) is not None
    assert justify.prove(prog, frozenset(), parse_term("(p,(q,true))")) is not None
    assert justify.prove(prog, frozenset(), parse_term("(p,r)")) is None


def test_call_equivalence_and_nesting():
    prog = parse_program("p.\n") + call_rule()
    assert justify.prove(prog, frozenset(), parse_term("call(p)")) is not None
    assert justify.prove(prog, frozenset(), parse_term("call(call(p))")) is not None
    assert justify.prove(prog, frozenset(), parse_term("call(q)")) is None


# ---------------------------------------------------------------------------
# clause/2 synthesis
# ---------------------------------------------------------------------------


def test_synthesize_clause_facts():
    obj = parse_program("#object\nedge(1,2).\ntc(X,Y) :- edge(X,Y).\n"
                        "tc(X,Y) :- edge(X,Z), tc(Z,Y).\n")
    facts = synthesize_clause_facts(obj)
    heads = [t.head for t in facts.templates]
    assert heads[0] == parse_term("clause(edge(1,2),true)")
    assert heads[1] == parse_term("clause(tc(X,Y),edge(X,Y))")
    assert heads[2] == parse_term("clause(tc(X,Y),(edge(X,Z),tc(Z,Y)))")
    assert all(t.is_fact for t in facts.templates)


def test_synthesize_rejects_negation():
    obj = parse_program("#object\np :- not(q).\n")
    with pytest.raises(NegationInObjectProgramError):
        synthesize_clause_facts(obj)


def test_assemble_meta_adds_support_rules():
    prog = parse_program("H :- clause(H,Body), Body.\n#object\na.\nb :- a.\n")
    mp = assemble_meta(prog)
    # original rule + true + ',' + call + two clause facts
    assert len(mp.templates) == 6
    assert justify.prove(mp, frozenset(), parse_term("b")) is not None
    assert justify.prove(mp, frozenset(), parse_term("call(b)")) is not None
    assert justify.prove(mp, frozenset(), parse_term("c")) is None


# ---------------------------------------------------------------------------
# Wrapping
# ---------------------------------------------------------------------------


def test_wrap_program_and_atoms():
    prog = parse_program("tc(X,Y) :- edge(X,Y).\n")
    wrapped = wrap(prog, "holds")
    t = wrapped.templates[0]
    assert t.head == parse_term("holds(tc(X,Y))")
    assert t.pos_body == (parse_term("holds(edge(X,Y))"),)
    assert wrap_atoms(_atoms("edge(1,2)"), "holds") == _atoms("holds(edge(1,2))")


def test_wrap_goes_inside_negation():
    prog = parse_program("p :- a, not(b).\n")
    t = wrap(prog, "holds").templates[0]
    assert t.neg_body == (parse_term("holds(b)"),)


def test_wrap_excludes_clause_by_default():
    prog = parse_program("H :- clause(H,true).\nclause(a,true).\n")
    wrapped = wrap(prog, "holds")
    assert wrapped.templates[0].pos_body == (parse_term("clause(H,true)"),)
    assert wrapped.templates[1].head == parse_term("clause(a,true)")
    model = engine.least_fixpoint(wrapped, frozenset()).atoms
    assert model == _atoms("holds(a) clause(a,true)")


def test_wrap_custom_exclusions():
    prog = parse_program("p :- keep(a).\n")
    wrapped = wrap(prog, "holds", frozenset({("keep", 1)}))
    assert wrapped.templates[0].pos_body == (parse_term("keep(a)"),)


def test_wrap_functor_collision():
    with pytest.raises(FunctorCollisionError):
        wrap(parse_program("p :- holds(a).\n"), "holds")


def test_wrap_preserves_model_membership():
    prog = parse_program("q.\np :- not(q).\nr :- not(s).\n")
    model = engine.least_fixpoint(prog, frozenset()).atoms
    wrapped_model = engine.least_fixpoint(wrap(prog, "holds"), frozenset()).atoms
    assert wrapped_model == wrap_atoms(model, "holds")
