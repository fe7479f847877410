"""Justification sequences: the prover, the checker, and their formatting."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from conftest import meta_paths
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
from indsem.terms import sort_key

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


def test_depth_cap():
    lines = ["p0."] + [f"p{i} :- p{i - 1}." for i in range(1, 60)]
    prog = parse_program("\n".join(lines) + "\n")
    with pytest.raises(ResourceLimitError):
        prove(prog, frozenset(), parse_term("p59"), engine.Limits(max_depth=5))
    assert prove(prog, frozenset(), parse_term("p59")) is not None


def test_prove_restores_recursion_limit():
    lines = ["p0."] + [f"p{i} :- p{i - 1}." for i in range(1, 60)]
    prog = parse_program("\n".join(lines) + "\n")
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(2000)
    try:
        with pytest.raises(ResourceLimitError):
            prove(prog, frozenset(), parse_term("p59"), engine.Limits(max_depth=5))
        assert sys.getrecursionlimit() == 2000
        assert prove(prog, frozenset(), parse_term("p59")) is not None
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
    monkeypatch.setattr(justify, "_Prover", no_prover)
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
    calls = []
    rename = justify._Prover._rename

    def counted(self, t):
        calls.append(t)
        return rename(self, t)

    monkeypatch.setattr(justify._Prover, "_rename", counted)
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
    # 30,000 steps, within a raised --max-depth; run apart, since a C stack
    # overflow kills the process.
    code = """if True:
        import sys
        from indsem import engine, justify
        from indsem.terms import Compound
        n = 30_000
        atoms = [Compound(f"p{i}") for i in range(n)]
        why = {atoms[i]: engine.GroundRule(atoms[i], frozenset([atoms[i - 1]]))
               for i in range(1, n)}
        sys.setrecursionlimit(20 * n + 10_000)
        assert len(justify._sequence(atoms[-1], why.get, n).steps) == n
    """
    src = str(Path(justify.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


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
