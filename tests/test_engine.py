"""Bottom-up evaluation: T-operator, fixpoint, stratified negation, errors."""

import pytest

from conftest import corpus_paths, load_case
from indsem import engine
from indsem.engine import Limits, apply_T, dump_model, least_fixpoint, query
from indsem.errors import (
    NegativeQueryError,
    NonGroundHeadError,
    NonGroundNegationError,
    NonGroundParameterSetError,
    ResourceLimitError,
    UncallableLiteralError,
    VariableHeadRestrictionError,
)
from indsem.parser import Program, parse_paramset, parse_program, parse_term

TC = parse_program("tc(X,Y) :- edge(X,Y).\ntc(X,Y) :- edge(X,Z), tc(Z,Y).\n")
EDGES = parse_paramset("edge(1,2).\nedge(2,3).\n")


def _atoms(text):
    return frozenset(parse_term(t) for t in text.split())


# ---------------------------------------------------------------------------
# One-step consequences
# ---------------------------------------------------------------------------


def test_apply_T_negation_against_params():
    prog = parse_program("p :- not(q).\n")
    assert apply_T(prog, frozenset(), frozenset()) == _atoms("p")
    assert apply_T(prog, _atoms("q"), frozenset()) == frozenset()


def test_apply_T_returns_only_new_fired_heads():
    out = apply_T(TC, EDGES, EDGES)
    assert out == _atoms("tc(1,2) tc(2,3)")


def test_apply_T_body_matches_current_and_params():
    prog = parse_program("p :- q, r.\n")
    assert apply_T(prog, _atoms("q"), _atoms("r")) == _atoms("p")


# ---------------------------------------------------------------------------
# Fixpoint
# ---------------------------------------------------------------------------


def test_tc_least_model():
    model = least_fixpoint(TC, EDGES)
    assert model.atoms == EDGES | _atoms("tc(1,2) tc(2,3) tc(1,3)")
    assert len(model.atoms) == 5


def test_empty_program_returns_params():
    assert least_fixpoint(Program(), _atoms("a b(c)")).atoms == _atoms("a b(c)")


def test_model_is_closed_under_apply_T():
    for path in corpus_paths():
        program, params = load_case(path)
        if any(t.neg_body for t in program.templates):
            continue  # stratified programs are closed stratum by stratum
        try:
            model = least_fixpoint(program, params).atoms
        except VariableHeadRestrictionError:
            continue
        assert apply_T(program, params, model) == frozenset(), path.stem


def test_strata_grow_one_set_by_increments(monkeypatch):
    # Right TC below a chain of strata headed by a negation: each stratum reads
    # the atoms below it, and each apply_T call returns only its new atoms.
    facts = frozenset(parse_term(f"edge({i},{i + 1})") for i in range(60))
    chain = parse_program("p0 :- not(q).\n" + "".join(f"p{i} :- p{i - 1}.\n" for i in range(1, 500)))
    sizes = []

    def counted(*args, **kwargs):
        out = apply_T(*args, **kwargs)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(engine, "apply_T", counted)
    model = least_fixpoint(TC + chain, facts).atoms
    assert sum(sizes) == len(model) - len(facts) == 60 * 61 // 2 + 500
    assert model == least_fixpoint(TC, facts).atoms | least_fixpoint(chain, frozenset()).atoms


def test_template_order_irrelevant():
    flipped = Program(tuple(reversed(TC.templates)))
    assert least_fixpoint(flipped, EDGES).atoms == least_fixpoint(TC, EDGES).atoms


def test_stratified_evaluation():
    prog = parse_program("q.\np :- not(q).\n")
    assert least_fixpoint(prog, frozenset()).atoms == _atoms("q")
    solo = parse_program("p :- not(q).\n")
    assert least_fixpoint(solo, frozenset()).atoms == _atoms("p")
    chain = parse_program("a.\nb :- not(a).\nc :- not(b).\n")
    assert least_fixpoint(chain, frozenset()).atoms == _atoms("a c")


def test_variable_head_program():
    prog = parse_program("H :- holds_next(H).\nholds_next(p).\nholds_next(q(1)).\n")
    model = least_fixpoint(prog, frozenset()).atoms
    assert model == _atoms("holds_next(p) holds_next(q(1)) p q(1)")


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


def test_unbound_variable_literal_rejected():
    with pytest.raises(UncallableLiteralError):
        least_fixpoint(parse_program("q.\np :- X.\n"), frozenset())


def test_builtin_conjunction_rule_is_not_materializable():
    prog = parse_program("p.\nq.\n(A,B) :- A, B.\n")
    with pytest.raises(UncallableLiteralError):
        least_fixpoint(prog, frozenset())


def test_nonground_head_rejected():
    for witnesses in (True, False):
        with pytest.raises(NonGroundHeadError):
            least_fixpoint(parse_program("q.\np(X) :- q.\n"), frozenset(), witnesses=witnesses)
        # A nested variable that the body does not bind.
        with pytest.raises(NonGroundHeadError):
            least_fixpoint(parse_program("q(a).\np(f(X,Y)) :- q(X).\n"), frozenset(),
                           witnesses=witnesses)


def test_nonground_negation_rejected():
    prog = parse_program("p :- a, not(q(X)).\n")
    for witnesses in (True, False):
        with pytest.raises(NonGroundNegationError):
            least_fixpoint(prog, _atoms("a"), witnesses=witnesses)


@pytest.mark.parametrize("witnesses", [True, False])
@pytest.mark.parametrize("text", ["r :- q(X).\n", "p(X) :- q(X).\n"])
def test_nonground_parameters_rejected_naming_the_atom(text, witnesses):
    params = frozenset({parse_term("q(Y)"), parse_term("q(a)")})
    with pytest.raises(NonGroundParameterSetError, match=r"q\(Y\)"):
        least_fixpoint(parse_program(text), params, witnesses=witnesses)
    # A step read on its own checks the atoms it is given.
    with pytest.raises(NonGroundParameterSetError, match=r"q\(Y\)"):
        apply_T(parse_program(text), frozenset(), params, why={} if witnesses else None)


def test_heads_only_evaluation_keeps_no_witnesses():
    witnessed = least_fixpoint(TC, EDGES)
    heads_only = least_fixpoint(TC, EDGES, witnesses=False)
    assert heads_only.atoms == witnessed.atoms
    assert heads_only.why == {} and set(witnessed.why) == witnessed.atoms - EDGES


def test_variable_head_restrictions():
    prog = parse_program("H :- holds_next(H).\n")
    with pytest.raises(VariableHeadRestrictionError):
        least_fixpoint(prog, _atoms("holds_next(p)"))
    neg = parse_program("H :- holds_next(H), not(b).\nholds_next(p).\n")
    with pytest.raises(VariableHeadRestrictionError):
        least_fixpoint(neg, frozenset())


def test_atom_cap():
    growing = parse_program("f(0).\nf(s(X)) :- f(X).\n")
    with pytest.raises(ResourceLimitError) as err:
        least_fixpoint(growing, frozenset(), Limits(max_atoms=10))
    assert len(err.value.partial) > 10


def test_long_chain_is_bounded_by_atoms_not_rounds():
    # One stratum of 10,500 rounds, one new atom each: only the atom cap ends it.
    chain = parse_program("p0.\n" + "".join(f"p{k} :- p{k - 1}.\n" for k in range(1, 10_500)))
    assert least_fixpoint(chain, frozenset()).atoms == frozenset(
        parse_term(f"p{k}") for k in range(10_500))
    with pytest.raises(ResourceLimitError) as err:
        least_fixpoint(chain, frozenset(), Limits(max_atoms=100))
    assert len(err.value.partial) == 101


# ---------------------------------------------------------------------------
# Queries and dumps
# ---------------------------------------------------------------------------


def test_query_enumerates_answers_in_order():
    answers = query(TC, EDGES, parse_term("tc(1,Y)"))
    assert answers == [{"Y": parse_term("2")}, {"Y": parse_term("3")}]


def test_query_ground_goal():
    assert query(TC, EDGES, parse_term("tc(1,3)")) == [{}]
    assert query(TC, EDGES, parse_term("tc(3,1)")) == []


def test_query_rejects_negation():
    with pytest.raises(NegativeQueryError):
        query(TC, EDGES, parse_term("not(tc(1,2))"))


def test_dump_model_canonical():
    text = dump_model(_atoms("tc(1,3) edge(1,2) tc(1,2)") | {parse_term("'odd name'(1)")})
    # Order follows the raw functor name, not its quoted rendering.
    assert text == "edge(1,2).\n'odd name'(1).\ntc(1,2).\ntc(1,3).\n"
    assert dump_model(frozenset()) == ""


def test_dump_model_stable_across_input_order():
    atoms = sorted(least_fixpoint(TC, EDGES).atoms, key=str)
    assert dump_model(atoms) == dump_model(reversed(atoms))
