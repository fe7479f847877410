"""Term representation: matching, unification, ordering, printing."""

import pytest
from hypothesis import given, settings, strategies as st

from indsem.errors import ParseError
from indsem.parser import parse_term
from indsem.terms import (
    Compound,
    Var,
    apply_subst,
    atom,
    compare_ground,
    constants_of,
    functors_of,
    is_ground,
    match,
    mk,
    rename_term,
    resolve,
    sort_key,
    term_to_str,
    functor_index,
    unifiable,
    unify,
    variables_of,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_names = st.one_of(
    st.sampled_from(["a", "b", "f", "g", "edge", "tc", "likes", "0", "1", "42"]),
    st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True),
)
_varnames = st.sampled_from(["X", "Y", "Z", "W", "Acc", "_1"])


def _ground_terms(depth=3):
    return st.recursive(
        _names.map(Compound),
        lambda inner: st.builds(
            Compound, _names, st.tuples(inner) | st.tuples(inner, inner)
        ),
        max_leaves=8,
    )


def _terms(depth=3):
    leaf = st.one_of(_names.map(Compound), _varnames.map(Var))
    return st.recursive(
        leaf,
        lambda inner: st.builds(
            Compound, _names, st.tuples(inner) | st.tuples(inner, inner)
        ),
        max_leaves=8,
    )


# ---------------------------------------------------------------------------
# Construction and basic predicates
# ---------------------------------------------------------------------------


def test_atom_and_mk():
    assert atom("p") == Compound("p")
    assert mk("f", atom("a"), Var("X")) == Compound("f", (Compound("a"), Var("X")))


def test_is_ground():
    assert is_ground(parse_term("f(a,g(b))"))
    assert not is_ground(parse_term("f(a,g(X))"))
    assert not is_ground(Var("X"))


def test_variables_of_first_occurrence_order():
    assert variables_of(parse_term("f(X,g(Y,X),Z)")) == ["X", "Y", "Z"]
    assert variables_of(parse_term("f(a)")) == []


def test_functors_and_constants():
    t = parse_term("f(a,g(b,a))")
    assert functors_of(t) == {("f", 2), ("g", 2), ("a", 0), ("b", 0)}
    assert constants_of(t) == {atom("a"), atom("b")}


# ---------------------------------------------------------------------------
# Matching (one-way)
# ---------------------------------------------------------------------------


def test_match_basic():
    s = match(parse_term("edge(X,Y)"), parse_term("edge(1,2)"))
    assert s == {"X": atom("1"), "Y": atom("2")}
    assert match(parse_term("edge(X,X)"), parse_term("edge(1,2)")) is None
    assert match(parse_term("edge(X,X)"), parse_term("edge(1,1)")) == {"X": atom("1")}


def test_match_respects_seed():
    seed = {"X": atom("1")}
    assert match(parse_term("edge(X,Y)"), parse_term("edge(2,3)"), seed) is None
    s = match(parse_term("edge(X,Y)"), parse_term("edge(1,3)"), seed)
    assert s == {"X": atom("1"), "Y": atom("3")}
    assert seed == {"X": atom("1")}  # seed not mutated


def test_match_never_binds_subject_vars():
    assert match(parse_term("a"), Var("X")) is None


@given(_terms(), _ground_terms())
def test_match_apply_roundtrip(pattern, subject):
    s = match(pattern, subject)
    if s is not None:
        assert apply_subst(pattern, s) == subject


# ---------------------------------------------------------------------------
# Unification
# ---------------------------------------------------------------------------


def test_unify_binds_both_ways():
    s = unify(parse_term("f(X,b)"), parse_term("f(a,Y)"))
    assert resolve(parse_term("f(X,b)"), s) == parse_term("f(a,b)")
    assert resolve(parse_term("f(a,Y)"), s) == parse_term("f(a,b)")


def test_unify_occurs_check():
    assert unify(Var("X"), parse_term("f(X)")) is None
    assert unify(parse_term("f(X)"), Var("X")) is None


def test_unify_failure():
    assert unify(parse_term("f(a)"), parse_term("g(a)")) is None
    assert unify(parse_term("f(a)"), parse_term("f(a,b)")) is None


@given(_terms(), _terms())
def test_unify_produces_common_instance(a, b):
    s = unify(a, b)
    if s is not None:
        assert resolve(a, s) == resolve(b, s)


def test_unifiable_standardizes_apart():
    # Same variable name on both sides must not be read as the same variable.
    assert unifiable(parse_term("f(X,a)"), parse_term("f(b,X)"))
    assert not unifiable(parse_term("f(a)"), parse_term("g(a)"))
    # Repeated variables: an occurs-check failure and a conflict.
    assert not unifiable(parse_term("f(X,X)"), parse_term("f(Y,g(Y))"))
    assert not unifiable(parse_term("f(X,X)"), parse_term("f(a,b)"))
    assert unifiable(parse_term("f(X,X)"), parse_term("f(Y,g(Z))"))


# Few variable names, so that both sides repeat them and share them, and
# two functors, so that most pairs get past the first arguments unclashed.
_close_terms = st.recursive(
    st.sampled_from([Var("X"), Var("Y"), Var("Z"), Compound("a")]),
    lambda inner: st.builds(lambda x, y: Compound("f", (x, y)), inner, inner)
    | st.builds(lambda x: Compound("g", (x,)), inner),
    max_leaves=6,
)


@settings(max_examples=300)
@given(_close_terms, _close_terms)
def test_unifiable_equals_unifying_renamed_copies(a, b):
    assert unifiable(a, b) == (unify(rename_term(a, {}), rename_term(b, {})) is not None)


def test_functor_index_candidates():
    terms = [parse_term(t) for t in ["p(X)", "H", "q", "p(a)", "p(a,b)"]]
    candidates = functor_index(terms)
    assert list(candidates(parse_term("p(b)"))) == [0, 1, 3]
    assert list(candidates(parse_term("p(a,Y)"))) == [1, 4]
    assert list(candidates(parse_term("r"))) == [1]
    assert list(candidates(parse_term("Body"))) == [0, 1, 2, 3, 4]
    assert list(functor_index(terms[2:])(parse_term("r"))) == []


def test_rename_term_is_fresh_and_consistent():
    m = {}
    t = rename_term(parse_term("f(X,g(X,Y))"), m)
    assert t.args[0] == t.args[1].args[0]  # both renamings of X
    assert t.args[0] != Var("X")
    m2 = {}
    t2 = rename_term(parse_term("f(X,g(X,Y))"), m2)
    assert variables_of(t) != variables_of(t2)  # fresh per renaming


# ---------------------------------------------------------------------------
# Ground order
# ---------------------------------------------------------------------------


def test_compare_ground_examples():
    assert compare_ground(atom("a"), atom("b")) == -1
    assert compare_ground(atom("b"), atom("a")) == 1
    assert compare_ground(atom("a"), atom("a")) == 0
    # name before arity before arguments
    assert compare_ground(atom("f"), parse_term("f(a)")) == -1
    assert compare_ground(parse_term("f(a)"), parse_term("f(b)")) == -1


def test_sort_key_rejects_variables():
    with pytest.raises(ValueError):
        sort_key(Var("X"))


@given(_ground_terms(), _ground_terms(), _ground_terms())
def test_compare_ground_total_order(a, b, c):
    assert compare_ground(a, b) == -compare_ground(b, a)
    assert (compare_ground(a, b) == 0) == (a == b)
    if compare_ground(a, b) <= 0 and compare_ground(b, c) <= 0:
        assert compare_ground(a, c) <= 0


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def test_term_to_str_quoting():
    assert term_to_str(parse_term("f(a,1)")) == "f(a,1)"
    assert term_to_str(Compound("odd name", (atom("1"),))) == "'odd name'(1)"
    assert term_to_str(Compound("it's")) == r"'it\'s'"
    assert term_to_str(Var("X")) == "X"


def test_parse_term_rejects_garbage():
    with pytest.raises(ParseError):
        parse_term("f(")
    with pytest.raises(ParseError):
        parse_term("f(a) extra")


@given(_ground_terms())
def test_print_parse_roundtrip(t):
    assert parse_term(term_to_str(t)) == t
