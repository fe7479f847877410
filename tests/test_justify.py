"""Justification sequences: the prover, the checker, and their formatting."""

import itertools
import random
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import head_candidates, meta_paths
from test_acceptance import _answer_texts, _explained
from test_seminaive import _case, _facts, _programs
from indsem import engine, justify
from indsem.errors import (
    IndsemError,
    NegativeGoalError,
    ResourceLimitError,
    UnstratifiableError,
)
from indsem.justify import (
    Justification,
    ParamWitness,
    RuleWitness,
    format_justification,
    prove,
    verify,
    verify_report,
)
from indsem.meta import assemble_meta
from indsem.parser import Program, parse_paramset, parse_program, parse_term
from indsem.terms import Compound, sort_key

TC = parse_program("tc(X,Y) :- edge(X,Y).\ntc(X,Y) :- edge(X,Z), tc(Z,Y).\n")
EDGES = parse_paramset("edge(1,2).\nedge(2,3).\n")


def _atoms(text):
    return frozenset(parse_term(t) for t in text.split())


# ---------------------------------------------------------------------------
# Proving
# ---------------------------------------------------------------------------


def test_direct_edge_justification():
    j = prove(TC, EDGES, parse_term("tc(1,2)"))
    assert j is not None
    props = [p for p, _ in j.steps]
    assert props == [parse_term("edge(1,2)"), parse_term("tc(1,2)")]
    assert isinstance(j.steps[0][1], ParamWitness)
    assert isinstance(j.steps[1][1], RuleWitness)
    assert j.steps[1][1].body == _atoms("edge(1,2)")
    assert verify(TC, EDGES, j)


def test_transitive_justification():
    j = prove(TC, EDGES, parse_term("tc(1,3)"))
    assert j is not None
    assert j.final == parse_term("tc(1,3)")
    assert verify(TC, EDGES, j)


def test_each_body_atom_appears_earlier():
    j = prove(TC, EDGES, parse_term("tc(1,3)"))
    prior = set()
    for prop, witness in j.steps:
        if isinstance(witness, RuleWitness):
            assert witness.body <= prior
        prior.add(prop)


def test_underivable_goal():
    assert prove(TC, EDGES, parse_term("tc(3,1)")) is None
    assert prove(TC, EDGES, parse_term("nonsense")) is None


def test_prove_rejects_negation_and_nonground_goals():
    with pytest.raises(NegativeGoalError):
        prove(TC, EDGES, parse_term("not(tc(1,2))"))
    with pytest.raises(IndsemError):
        prove(TC, EDGES, parse_term("tc(1,Y)"))


def test_prove_with_negation():
    prog = parse_program("q.\np :- not(q).\nr :- not(s).\n")
    assert prove(prog, frozenset(), parse_term("p")) is None
    j = prove(prog, frozenset(), parse_term("r"))
    assert j is not None
    assert j.steps[-1][1].negs == _atoms("s")
    assert verify(prog, frozenset(), j)


def test_prove_rejects_unstratifiable_programs():
    with pytest.raises(UnstratifiableError):
        prove(parse_program("p :- not(p).\n"), frozenset(), parse_term("p"))


def test_recursion_first_literal_order_terminates():
    prog = parse_program("reach(1).\nreach(Y) :- reach(X), edge(X,Y).\n")
    params = parse_paramset("edge(1,2).\nedge(2,3).\n")
    assert prove(prog, params, parse_term("reach(3)")) is not None
    assert prove(prog, params, parse_term("reach(4)")) is None


def test_cyclic_graph_goal_fails_finitely():
    params = parse_paramset("edge(1,2).\nedge(2,1).\n")
    assert prove(TC, params, parse_term("tc(1,3)")) is None
    j = prove(TC, params, parse_term("tc(1,1)"))
    assert j is not None and verify(TC, params, j)


CHAIN = parse_program("p0.\n" + "".join(f"p{i} :- p{i - 1}.\n" for i in range(1, 60)))
# p(a) calls p(s(a)), p(s(s(a))), ...: each a new call variant, one deeper.
DIVERGENT = parse_program("p(X) :- p(s(X)).\nq(0).\nq(s(X)) :- q(X).\n")


def test_depth_cap():
    # The cap bounds tabled calls; a justification of any height is built.
    j = prove(CHAIN, frozenset(), parse_term("p59"), engine.Limits(max_depth=5))
    assert len(j.steps) == 60 and verify(CHAIN, frozenset(), j)
    assert not justify._finite(DIVERGENT)
    with pytest.raises(ResourceLimitError):
        prove(DIVERGENT, frozenset(), parse_term("p(a)"), engine.Limits(max_depth=50))


def test_infinite_answer_table_ends_on_the_depth_cap():
    # f(X) has infinitely many answers, none of which satisfies h/1: each
    # pass adds one, at no greater call depth.
    prog = parse_program("f(0).\nf(s(X)) :- f(X).\ng :- f(X), h(X).\n")
    with pytest.raises(ResourceLimitError):
        prove(prog, frozenset(), parse_term("g"), engine.Limits(max_depth=50))


def test_prove_restores_recursion_limit():
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(2000)
    try:
        with mock.patch.object(sys, "setrecursionlimit", wraps=sys.setrecursionlimit) as spy:
            assert prove(CHAIN, frozenset(), parse_term("p59")) is not None
            assert spy.call_count == 0  # the bottom-up path runs under the limit it finds
            with pytest.raises(ResourceLimitError):
                prove(DIVERGENT, frozenset(), parse_term("p(a)"), engine.Limits(max_depth=50))
            assert spy.call_count == 2
        assert sys.getrecursionlimit() == 2000
    finally:
        sys.setrecursionlimit(before)


def test_agreement_with_model_membership():
    for text, facts in [
        ("d :- b, c.\nb :- a.\nc :- a.\n", "a."),
        ("a.\nb :- not(a).\nc :- not(b).\n", ""),
        ("truly_believes(X,P) :- believes(X,P), P.\n",
         "believes(ann,tall(bea)).\ntall(bea).\nbelieves(ann,tall(ann))."),
    ]:
        prog = parse_program(text)
        params = parse_paramset(facts)
        model = engine.least_fixpoint(prog, params).atoms
        for a in model:
            j = prove(prog, params, a)
            assert j is not None and verify(prog, params, j)


LEFT_TC = parse_program("tc(X,Y) :- edge(X,Y).\ntc(X,Y) :- tc(X,Z), edge(Z,Y).\n")


@pytest.mark.parametrize("n", [43, 44])
def test_left_recursive_underivable_goal_needs_no_budget(n):
    # Models of 989 and 1,034 atoms: the answer must not depend on the
    # size of the model.
    params = parse_paramset("".join(f"edge({i},{i + 1}).\n" for i in range(n)))
    goal = parse_term(f"tc({n},0)")
    assert prove(LEFT_TC, params, goal, engine.Limits(max_depth=2000)) is None


@pytest.mark.parametrize("text, finite", [
    ("f(s(X)) :- f(X).\n", False),
    ("interp((A,B)) :- interp(A), interp(B).\n", False),
    ("call(X) :- X.\n", False),
    ("holds(tc(X,Y)) :- holds(tc(X,Z)), holds(edge(Z,Y)).\n", True),
    ("truly_believes(X,P) :- believes(X,P), P.\n", True),
    # X occurs in no body literal: if the rule fires, evaluation stops on
    # its nonground head.
    ("q(X) :- q(Y), not(s).\n", True),
    # A rule outside every cycle may build deeper terms; one inside may not.
    ("tc(X,Y) :- tc(X,Z), edge(Z,Y).\npath(p(X,Y)) :- tc(X,Y).\n", True),
    ("f(s(X)) :- g(X).\ng(X) :- f(X).\n", False),
])
def test_finiteness_condition(text, finite):
    assert justify._finite(parse_program(text)) is finite


def test_nonrecursive_term_building_rule_keeps_the_bottom_up_path():
    prog = LEFT_TC + parse_program("path(p(X,Y)) :- tc(X,Y).\n")
    params = parse_paramset("".join(f"edge({i},{i + 1}).\n" for i in range(8)))
    assert prove(prog, params, parse_term("tc(5,0)")) is None
    j = prove(prog, params, parse_term("tc(0,8)"))
    assert j is not None and verify(prog, params, j)


def test_finite_program_is_proved_from_one_bottom_up_run(monkeypatch):
    calls = []
    fixpoint = engine.least_fixpoint

    def counted(*args, **kwargs):
        calls.append(args)
        return fixpoint(*args, **kwargs)

    def no_prover(*args, **kwargs):
        raise AssertionError("the top-down prover was constructed")

    monkeypatch.setattr(engine, "least_fixpoint", counted)
    monkeypatch.setattr(justify, "_Tables", no_prover)
    j = prove(LEFT_TC, EDGES, parse_term("tc(1,3)"))
    assert j is not None and len(calls) == 1
    assert prove(LEFT_TC, EDGES, parse_term("tc(3,1)")) is None and len(calls) == 2


def test_prover_renames_only_templates_sharing_the_goal_functor(monkeypatch):
    # f(s(X)) :- f(X) fails the finiteness test, so p1999 is proved top-down.
    prog = parse_program(
        "p0.\n" + "".join(f"p{k} :- p{k - 1}.\n" for k in range(1, 2000))
        + "f(0).\nf(s(X)) :- f(X).\n"
    )
    assert not justify._finite(prog)
    # The tabled routine unifies template heads with call variants without
    # renaming the templates; count those head unifications.
    heads = {id(t.head) for t in prog.templates}
    calls = []
    unify = justify.unify

    def counted(a, b, seed=None):
        if id(a) in heads:
            calls.append(a)
        return unify(a, b, seed)

    monkeypatch.setattr(justify, "unify", counted)
    j = prove(prog, frozenset(), parse_term("p1999"))
    assert j is not None and len(j.steps) == 2000
    assert len(calls) <= 4 * len(prog.templates) * 2


def test_rule_witness_is_the_engine_ground_rule():
    assert RuleWitness is engine.GroundRule
    j = prove(TC, EDGES, parse_term("tc(1,3)"))
    assert all(w.loc is not None for _, w in j.steps if isinstance(w, RuleWitness))


def test_justification_height_is_minimal():
    # tc(1,4) by the edge 1 -> 4 directly, not along the longer path that a
    # search trying the recursive rule first would find.
    prog = parse_program("tc(X,Y) :- edge(X,Z), tc(Z,Y).\ntc(X,Y) :- edge(X,Y).\n")
    params = parse_paramset("edge(1,2).\nedge(2,3).\nedge(3,4).\nedge(1,4).\n")
    j = prove(prog, params, parse_term("tc(1,4)"))
    assert [p for p, _ in j.steps] == [parse_term("edge(1,4)"), parse_term("tc(1,4)")]


def test_deep_justification_does_not_exhaust_the_c_stack():
    # 30,000 steps under the interpreter's own recursion limit.
    n = 30_000
    atoms = [Compound(f"p{i}") for i in range(n)]
    why = {atoms[i]: engine.GroundRule(atoms[i], frozenset([atoms[i - 1]])) for i in range(1, n)}
    assert len(justify._sequence(atoms[-1], why.get).steps) == n


# ---------------------------------------------------------------------------
# The tabled path
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(_programs, _facts)
def test_tabled_path_agrees_with_the_model(rules, facts):
    # An unrelated term-building rule sends the program to the tabled path;
    # the engine evaluates it without that rule.
    case = _case(rules, facts)
    if case is None:
        return
    program, params, model = case
    tabled = program + parse_program("zz(s(X)) :- zz(X).\n")
    assert not justify._finite(tabled)
    outside = sorted(head_candidates(program, params, model) - model, key=sort_key)[:10]
    for goal in sorted(model, key=sort_key) + outside:
        j = prove(tabled, params, goal)
        assert (j is not None) == (goal in model), goal
        assert j is None or verify_report(tabled, params, j) == []


@settings(max_examples=100, deadline=None)
@given(_programs, _facts, st.booleans(), st.randoms(use_true_random=False))
def test_random_programs_do_not_depend_on_template_order(rules, facts, tabled, rng):
    # ROADMAP item 12 on random programs; the zz rule, which derives
    # nothing, sends half of them to the tabled path.
    case = _case(rules, facts)
    if case is None:
        return
    program, params, model = case
    underivable = sorted(head_candidates(program, params, model) - model, key=sort_key)[:3]
    goals = sorted(model, key=sort_key) + underivable
    if tabled:
        program += parse_program("zz(s(X)) :- zz(X).\n")
    templates = list(program.templates)
    rng.shuffle(templates)
    permuted = Program(tuple(templates))
    permuted_model = engine.least_fixpoint(permuted, params).atoms
    assert engine.dump_model(permuted_model) == engine.dump_model(model)
    assert _answer_texts(permuted, permuted_model) == _answer_texts(program, model)
    assert _explained(permuted, params, goals) == _explained(program, params, goals)


VANILLA = "H :- clause(H,Body), Body.\n#object\n"
TC_RULES = {
    "right": ("tc(X,Y) :- edge(X,Y).", "tc(X,Y) :- edge(X,Z), tc(Z,Y)."),
    "left": ("tc(X,Y) :- edge(X,Y).", "tc(X,Y) :- tc(X,Z), edge(Z,Y)."),
    "double": ("tc(X,Y) :- edge(X,Y).", "tc(X,Y) :- tc(X,Z), tc(Z,Y)."),
}


def _object_model(source):
    return engine.least_fixpoint(Program(source.object_templates), frozenset()).atoms


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(sorted(TC_RULES)),
    st.booleans(),
    st.booleans(),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12),
)
@example("right", False, False, [(0, 0)])
@example("left", False, False, [(0, 0)])
@example("double", True, True, [(0, 0)])
def test_vanilla_metainterpreter_agrees_with_the_object_model(kind, recursive_first, facts_first, edges):
    rules = TC_RULES[kind][::-1] if recursive_first else TC_RULES[kind]
    facts = tuple(f"edge({a},{b})." for a, b in edges)
    source = parse_program(VANILLA + "\n".join(facts + rules if facts_first else rules + facts) + "\n")
    program, model = assemble_meta(source), _object_model(source)
    n = 1 + max((max(e) for e in edges), default=0)
    for a in range(n):
        for b in range(n):
            goal = parse_term(f"tc({a},{b})")
            j = prove(program, frozenset(), goal)
            assert (j is not None) == (goal in model), goal
            assert j is None or verify_report(program, frozenset(), j) == []


def _tc_source(kind, n):
    edges = "".join(f"edge({i},{i + 1}).\n" for i in range(n))
    return VANILLA + edges + "\n".join(TC_RULES[kind]) + "\n"


def _underivable(model, k=3):
    """The first k atoms, in canonical order, built from the model's
    predicates and constants but outside the model."""
    preds = {(a.functor, len(a.args)) for a in model}
    consts = {c for a in model for c in a.args}
    atoms = (Compound(f, args) for f, n in preds for args in itertools.product(consts, repeat=n))
    return sorted((a for a in atoms if a not in model), key=sort_key)[:k]


ORDER_CASES = {p.stem: p.read_text() for p in meta_paths()} | {
    f"{kind}_tc_{n}": _tc_source(kind, n) for kind in ("left", "right") for n in (3, 10)
}


@pytest.mark.parametrize("name", sorted(ORDER_CASES))
def test_tabled_answers_do_not_depend_on_template_order(name):
    source = parse_program(ORDER_CASES[name])
    templates = assemble_meta(source).templates
    model = _object_model(source)
    goals = sorted(model, key=sort_key) + _underivable(model)
    rng = random.Random(0)
    # The reversal puts the recursive object rule before the base rule.
    orders = [templates, templates[::-1]] + [tuple(rng.sample(templates, len(templates))) for _ in range(2)]
    for order in orders:
        program = Program(order)
        for goal in goals:
            j = prove(program, frozenset(), goal)
            assert (j is not None) == (goal in model), goal
            assert j is None or verify_report(program, frozenset(), j) == []


WRAP_RULES = ("H :- w(H).", "w(k(b)).", "top :- y, k(b).", "y :- b.", "y.", "b :- k(b).")


@pytest.mark.parametrize(
    "order",
    [WRAP_RULES, WRAP_RULES[:3] + ("y.", "y :- b.", "b :- k(b)."), WRAP_RULES[::-1],
     WRAP_RULES[:2] + ("top :- k(b), y.",) + WRAP_RULES[3:]],
    ids=["as_written", "fact_first", "reversed", "body_swapped"],
)
def test_variable_head_rule_answers_do_not_depend_on_the_caller(order):
    # k(b) is first called under b. A growth check that read the calls
    # under evaluation cut H :- w(H) there, tabled k(b) as complete and
    # empty, and so failed top and b in some of these orders.
    source = "\n".join(order) + "\n"
    model = engine.least_fixpoint(parse_program(source), frozenset()).atoms
    program = parse_program(source + "zz(s(X)) :- zz(X).\n")
    assert not justify._finite(program)
    for goal in sorted(model, key=sort_key) + [parse_term(g) for g in ("k(y)", "w(b)", "k(k(b))")]:
        j = prove(program, frozenset(), goal)
        assert (j is not None) == (goal in model), goal
        assert j is None or verify_report(program, frozenset(), j) == []


def test_growth_check_leaves_wrapper_shaped_goals_to_other_rules():
    # The known incompleteness of the growth check: w(w(a)) has the shape
    # w(H) through which H :- w(H). wraps its head, so that rule is not
    # applied to it.  w(w(a)), w(a) and a are in the model but not proved.
    source = "H :- w(H).\nw(w(w(a))).\n"
    model = engine.least_fixpoint(parse_program(source), frozenset()).atoms
    program = parse_program(source + "zz(s(X)) :- zz(X).\n")
    assert prove(program, frozenset(), parse_term("w(w(w(a)))")) is not None
    for g in ("w(w(a))", "w(a)", "a"):
        assert parse_term(g) in model
        assert prove(program, frozenset(), parse_term(g)) is None


# ---------------------------------------------------------------------------
# Verification of externally supplied sequences
# ---------------------------------------------------------------------------


def test_verify_rejects_body_not_listed_earlier():
    j = Justification((
        (parse_term("tc(1,2)"),
         RuleWitness(parse_term("tc(1,2)"), _atoms("edge(1,2)"))),
    ))
    report = verify_report(TC, EDGES, j)
    assert any("does not appear earlier" in p for p in report)


def test_verify_rejects_false_param_claim():
    j = Justification(((parse_term("tc(1,2)"), ParamWitness()),))
    report = verify_report(TC, EDGES, j)
    assert any("not a parameter" in p for p in report)


def test_verify_rejects_blocked_negative_condition():
    prog = parse_program("p :- not(q).\n")
    j = Justification((
        (parse_term("p"), RuleWitness(parse_term("p"), frozenset(), _atoms("q"))),
    ))
    assert verify(prog, frozenset(), j)
    assert not verify(prog, _atoms("q"), j)


def test_verify_of_an_infinite_program_with_negation():
    # The model is infinite (nat), but negative conditions read only q.
    prog = parse_program(
        "nat(z).\nnat(s(X)) :- nat(X).\nq(s(s(z))).\np(X) :- nat(X), not(q(X)).\n"
    )
    j = prove(prog, frozenset(), parse_term("p(s(z))"))
    assert j is not None and verify_report(prog, frozenset(), j) == []
    nat, p = (r for r in prog.templates if r.pos_body)
    two, forged = parse_term("nat(s(s(z)))"), parse_term("p(s(s(z)))")
    steps = j.steps[:-1] + (
        (two, RuleWitness(two, _atoms("nat(s(z))"), frozenset(), nat.loc)),
        (forged, RuleWitness(forged, frozenset({two}), _atoms("q(s(s(z)))"), p.loc)),
    )
    assert verify_report(prog, frozenset(), Justification(steps)) == [
        "step 4 (p(s(s(z)))): negative condition q(s(s(z))) holds in the effective parameter set"
    ]


def test_verify_of_a_negated_chain_of_more_than_10000_rounds():
    # prove splits the chain into one stratum per rule; _negation_support
    # keeps it as one stratum of 10,500 rounds.
    prog = parse_program("q0.\n" + "".join(f"q{k} :- q{k - 1}.\n" for k in range(1, 10_500))
                         + "p :- not(r).\nr :- q10499, s.\n")
    j = prove(prog, frozenset(), parse_term("p"))
    assert j is not None and verify_report(prog, frozenset(), j) == []


@pytest.mark.xfail(strict=True, raises=RecursionError,
                   reason="verify_report evaluates the infinite ev/1 in full (ROADMAP item 8)")
def test_verify_of_an_infinite_negated_predicate():
    prog = parse_program("nat(z).\nnat(s(X)) :- nat(X).\nev(z).\nev(s(s(X))) :- ev(X).\n"
                         "odd(X) :- nat(X), not(ev(X)).\n")
    j = prove(prog, frozenset(), parse_term("odd(s(z))"))
    assert j is not None
    assert verify_report(prog, frozenset(), j) == []


def test_verify_rejects_non_instances():
    j = Justification((
        (parse_term("edge(1,2)"), ParamWitness()),
        (parse_term("tc(2,1)"),
         RuleWitness(parse_term("tc(2,1)"), _atoms("edge(1,2)"))),
    ))
    report = verify_report(TC, EDGES, j)
    assert any("not a ground instance" in p for p in report)


def test_verify_rejects_head_mismatch():
    j = Justification((
        (parse_term("edge(1,2)"), ParamWitness()),
        (parse_term("tc(1,2)"),
         RuleWitness(parse_term("tc(9,9)"), _atoms("edge(1,2)"))),
    ))
    assert not verify(TC, EDGES, j)


def test_verify_rejects_nonground_step():
    j = Justification(((parse_term("edge(1,Y)"), ParamWitness()),))
    report = verify_report(TC, EDGES, j)
    assert any("not ground" in p for p in report)


def _all_templates_report(program, params, j):
    """The reference: verify_report checking every step against every template."""
    with mock.patch.object(justify, "functor_index", lambda terms: lambda q: range(len(terms))):
        return verify_report(program, params, j)


@given(_programs, _facts, st.data())
def test_verify_report_equals_all_templates_reference(rules, facts, data):
    case = _case(rules, facts)
    if case is None or not case[2] - case[1]:
        return
    program, params, model = case
    j = prove(program, params, data.draw(st.sampled_from(sorted(model - params, key=sort_key))))
    steps = list(j.steps)
    rules_used = [(k, w) for k, (_, w) in enumerate(steps) if isinstance(w, RuleWitness)]
    k, w = data.draw(st.sampled_from(rules_used))
    other = data.draw(st.sampled_from([v for _, v in rules_used if v.loc != w.loc] or [w]))
    steps[k] = (steps[k][0], data.draw(st.sampled_from([
        w,
        RuleWitness(other.head, w.body, w.negs, w.loc),  # a wrong head
        RuleWitness(w.head, frozenset(sorted(w.body, key=sort_key)[1:]), w.negs, w.loc),  # a body atom missing
        other,  # a rule of another template
    ])))
    j = Justification(tuple(steps))
    assert verify_report(program, params, j) == _all_templates_report(program, params, j)


@pytest.mark.parametrize("path", meta_paths(), ids=lambda p: p.stem)
def test_verify_report_of_variable_head_programs_equals_reference(path):
    source = parse_program(path.read_text(), path.name)
    program = assemble_meta(source)
    # By the metainterpreter's adequacy, the object program's model.
    goals = engine.least_fixpoint(Program(source.object_templates), frozenset()).atoms
    for goal in sorted(goals, key=sort_key):
        j = prove(program, frozenset(), goal)
        assert verify_report(program, frozenset(), j) == _all_templates_report(program, frozenset(), j) == []


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def test_format_justification():
    prog = parse_program("c.\nb :- c.\na :- b, not(d).\n")
    j = prove(prog, frozenset(), parse_term("a"))
    text = format_justification(j)
    lines = text.splitlines()
    assert lines[0].startswith("1. c  [fact]")
    assert "b  :- c" in lines[1]
    assert "a  :- b ; not d" in lines[2]


def test_format_param_step():
    j = prove(TC, EDGES, parse_term("tc(1,2)"))
    assert "edge(1,2)  [param]" in format_justification(j)
