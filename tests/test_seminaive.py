"""Delta-driven evaluation and bottom-up justifications on random programs.

The fixpoint is compared with naive iteration of the one-step operator and
with the brute-force oracle; every derived atom must have a justification
that verify() accepts, and every other atom none.
"""

import itertools
import re

from hypothesis import given, settings, strategies as st

from conftest import oracle_model
from test_components import _literals, _rules
from indsem import engine, justify
from indsem.depgraph import stratify_templates
from indsem.errors import IndsemError
from indsem.parser import Program, parse_program, parse_term
from indsem.terms import is_ground, unifiable

# Negation-free rules with longer bodies, so that one stratum takes many
# rounds and atoms join with others new in different rounds.  Their literals
# take arities 0-2 under one name, repeated variables, constants where an
# earlier literal binds a variable, nested arguments (n/2) and the holds/1
# wrapper.  Variables stand only where atoms have constants, as the oracle's
# universe assumes, and heads are flat unless the whole rule is wrapped, so
# models stay finite.
def _shaped(leaves):
    leaf = st.sampled_from(leaves)
    flat = st.builds(
        lambda name, xs: name + (f"({','.join(xs)})" if xs else ""),
        st.sampled_from("pqrs"),
        st.lists(leaf, max_size=2),
    )
    nested = st.builds("n(f(g({}),{}),{})".format, leaf, leaf, leaf)
    return flat, flat | nested


def _wrapped(literals):
    return literals | st.builds("holds({})".format, literals)


_heads, _bodies = _shaped(["a", "b", "X", "Y", "Z"])
_positive_rules = st.builds(
    lambda head, body, wrap: (
        f"holds({head}) :- {', '.join(f'holds({b})' for b in body)}.\n" if wrap
        else f"{head} :- {', '.join(body)}.\n"
    ),
    _heads,
    st.lists(_wrapped(_bodies), min_size=1, max_size=3),
    st.booleans(),
)
_programs = st.builds(
    lambda rules, positive: rules + positive,
    st.lists(_rules, max_size=4),
    st.lists(_positive_rules, max_size=6),
).filter(bool)
_facts = st.lists(_literals | _wrapped(_shaped(["a", "b"])[1]), max_size=6)


def _program_and_params(rules, facts):
    """The program and an allowable parameter set from the facts."""
    program = parse_program("".join(rules))
    params = frozenset(
        a for a in map(parse_term, facts)
        if is_ground(a) and not any(unifiable(a, t.head) for t in program.templates)
    )
    return program, params


def _case(rules, facts):
    """The program, an allowable parameter set and the model, or None when
    the engine rejects the program (unstratifiable, nonground heads or
    negative conditions)."""
    program, params = _program_and_params(rules, facts)
    try:
        return program, params, engine.least_fixpoint(program, params).atoms
    except IndsemError:
        return None


def _naive(program, params):
    """Stratum by stratum, apply_T iterated from the parameters, adding each
    step's increment until one is empty."""
    for stratum in stratify_templates(program.templates).strata:
        current = frozenset(params)
        while step := engine.apply_T(Program(stratum), params, current):
            current |= step
        params = current
    return params


@given(_programs, _facts)
def test_fixpoint_equals_naive_iteration_and_oracle(rules, facts):
    case = _case(rules, facts)
    if case is None:
        return
    program, params, model = case
    assert model == _naive(program, params)
    assert model == oracle_model(program, params, model)


def _outcome(program, params, witnesses):
    try:
        return engine.least_fixpoint(program, params, witnesses=witnesses).atoms
    except IndsemError as exc:
        return type(exc)


@given(_programs, _facts)
def test_heads_only_evaluation_equals_witnessed_evaluation(rules, facts):
    # The same atoms, or the same error, with and without witnesses.
    program, params = _program_and_params(rules, facts)
    assert _outcome(program, params, False) == _outcome(program, params, True)


@given(_programs, _facts)
def test_every_derived_atom_and_no_other_is_justified(rules, facts):
    case = _case(rules, facts)
    if case is None:
        return
    program, params, model = case
    universe = {parse_term(f"{p}{arg}") for p in "pqrs" for arg in ("", "(a)", "(b)")}
    for a in sorted(universe | model, key=str):
        j = justify.prove(program, params, a)
        if a in model:
            assert j is not None and j.final == a
            assert justify.verify(program, params, j), justify.verify_report(program, params, j)
        else:
            assert j is None


def test_anonymous_variables_do_not_join():
    program = parse_program("p(X) :- q(X,_), r(_).\ns(X) :- q(X,Y), r(Z).\nq(a,b).\nr(c).\n")
    assert engine.least_fixpoint(program, frozenset()).atoms >= {parse_term("p(a)"), parse_term("s(a)")}


def _pairs(leaves):
    """Binary literals over two names, so that a body literal with two `_`
    often meets an atom whose two arguments differ."""
    return st.builds("{}({},{})".format, st.sampled_from("qr"), *[st.sampled_from(leaves)] * 2)


_anonymous_rules = st.builds(
    lambda head, body: f"{head} :- {', '.join(body)}.\n",
    st.sampled_from(["h", "h(X)", "holds(h(X))"]),
    st.lists(_wrapped(_pairs(["a", "X", "_"])), min_size=1, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_anonymous_rules, min_size=1, max_size=3),
       st.lists(_wrapped(_pairs(["a", "b", "c"])), min_size=2, max_size=8))
def test_anonymous_variables_are_fresh_per_occurrence(anonymous, facts):
    # The same model as with every `_` replaced by a fresh named variable.
    fresh = itertools.count()
    named = [re.sub(r"\b_\b", lambda m: f"V{next(fresh)}", r) for r in anonymous]
    with_anonymous, with_named = _case(anonymous, facts), _case(named, facts)
    assert (with_anonymous is None) == (with_named is None)
    if with_anonymous is not None:
        assert with_anonymous[1:] == with_named[1:]
