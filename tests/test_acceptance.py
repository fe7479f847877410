"""Acceptance gate: one test per top-level product property.

Each test prints a single pass line on success; pytest -v shows one
pass/fail line per criterion either way.
"""

import random
from collections import deque

from conftest import (
    corpus_paths,
    head_candidates,
    load_case,
    load_pair,
    meta_paths,
    oracle_model,
    pair_names,
)
import pytest

from indsem import components, engine, justify, meta, oracle
from indsem.engine import dump_model, least_fixpoint
from indsem.errors import CompositionPreconditionError, UnstratifiableError
from indsem.parser import Program, parse_paramset, parse_program, parse_term
from indsem.terms import Compound, Var, sort_key, term_to_str, unifiable

TC_TEXT = "tc(X,Y) :- edge(X,Y).\ntc(X,Y) :- edge(X,Z), tc(Z,Y).\n"


def _atoms(text):
    return frozenset(parse_term(t) for t in text.split())


def test_01_transitive_closure_matches_reachability():
    prog = parse_program(TC_TEXT)
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(1, 15)
        edges = {
            (rng.randint(1, n), rng.randint(1, n))
            for _ in range(rng.randint(0, 40))
        }
        params = frozenset(parse_term(f"edge({i},{j})") for i, j in edges)
        model = least_fixpoint(prog, params).atoms
        derived = {
            (int(a.args[0].functor), int(a.args[1].functor))
            for a in model
            if a.functor == "tc"
        }

        succ = {}
        for i, j in edges:
            succ.setdefault(i, set()).add(j)
        reachable = set()
        for start in range(1, n + 1):
            seen, queue = set(), deque(succ.get(start, ()))
            while queue:
                v = queue.popleft()
                if v in seen:
                    continue
                seen.add(v)
                queue.extend(succ.get(v, ()))
            reachable |= {(start, v) for v in seen}
        assert derived == reachable, f"seed {seed}"
    print("criterion 1 (transitive closure vs. reachability): pass")


def test_02_university_requirements():
    prog, transcript = load_case(corpus_paths()[-1])
    assert corpus_paths()[-1].stem == "university"
    full = least_fixpoint(prog, transcript).atoms
    assert parse_term("met_graduation_reqs") in full
    dropped = transcript - _atoms("took_discrete_math")
    partial = least_fixpoint(prog, dropped).atoms
    lost = full - partial - _atoms("took_discrete_math")
    assert lost == _atoms("met_cs_math_reqs met_cs_reqs met_graduation_reqs")
    print("criterion 2 (university requirements): pass")


def test_03_bottom_up_top_down_oracle_agree():
    paths = corpus_paths()
    assert len(paths) >= 15
    for path in paths:
        program, params = load_case(path)
        model = least_fixpoint(program, params).atoms
        assert oracle_model(program, params, model) == model, path.stem
        for h in sorted(head_candidates(program, params, model), key=sort_key):
            j = justify.prove(program, params, h)
            assert (j is not None) == (h in model), (path.stem, h)
            if j is not None:
                assert justify.verify(program, params, j), (path.stem, h)
    print("criterion 3 (engine = prover = oracle): pass")


def test_04_composition_theorem():
    names = pair_names()
    assert len(names) >= 5
    for name in names:
        upper, lower, params = load_pair(name)
        chained = components.compose(upper, lower, params, verify_union=True)
        union = least_fixpoint(upper + lower, params).atoms
        assert chained.atoms == union, name
    bad_upper = parse_program("q :- p.\n")
    bad_lower = parse_program("q.\n")
    with pytest.raises(CompositionPreconditionError) as err:
        components.compose(bad_upper, bad_lower, frozenset())
    assert err.value.pairs
    print("criterion 4 (composition theorem): pass")


def test_05_wrap_equivalence():
    negated = 0
    for path in corpus_paths():
        program, params = load_case(path)
        model = least_fixpoint(program, params).atoms
        wrapped = meta.wrap(program, "holds")
        wrapped_model = least_fixpoint(
            wrapped, meta.wrap_atoms(params, "holds")
        ).atoms
        assert wrapped_model == meta.wrap_atoms(model, "holds"), path.stem
        if any(t.neg_body for t in program.templates):
            negated += 1
    assert negated >= 2
    print("criterion 5 (wrap equivalence): pass")


def test_06_call_equivalence():
    for path in corpus_paths():
        program, params = load_case(path)
        model = least_fixpoint(program, params).atoms
        extended = program + meta.call_rule()
        candidates = head_candidates(program, params, model)
        sample = sorted(model, key=sort_key)[:5]
        sample += sorted(candidates - model, key=sort_key)[:3]
        for g in sample:
            in_model = g in model
            direct = justify.prove(extended, params, g) is not None
            called = (
                justify.prove(extended, params, Compound("call", (g,)))
                is not None
            )
            assert direct == in_model, (path.stem, g)
            assert called == in_model, (path.stem, g)
    print("criterion 6 (call equivalence): pass")


def test_07_metainterpreter_adequacy():
    paths = meta_paths()
    assert len(paths) >= 3
    for path in paths:
        program, _ = load_case(path)
        obj = Program(program.object_templates)
        object_model = least_fixpoint(obj, frozenset()).atoms
        mp = meta.assemble_meta(program)
        candidates = head_candidates(obj, frozenset(), object_model)
        for g in sorted(candidates, key=sort_key):
            derived = justify.prove(mp, frozenset(), g) is not None
            assert derived == (g in object_model), (path.stem, g)
        wrapped = meta.wrap(mp, "interp")
        for g in sorted(candidates, key=sort_key):
            derived = (
                justify.prove(wrapped, frozenset(), Compound("interp", (g,)))
                is not None
            )
            assert derived == (g in object_model), (path.stem, g, "interp")
    print("criterion 7 (metainterpreter adequacy): pass")


def test_08_stratification_gate():
    with pytest.raises(UnstratifiableError) as err:
        components.stratify(parse_program("not(X) :- not(X).\n"))
    assert err.value.cycle
    with pytest.raises(UnstratifiableError) as err:
        components.stratify(parse_program("p :- not(p).\n"))
    assert err.value.cycle

    two = parse_program("q.\np :- not(q).\n")
    assert len(components.stratify(two).strata) == 2
    assert least_fixpoint(two, frozenset()).atoms == _atoms("q")
    solo = parse_program("p :- not(q).\n")
    assert least_fixpoint(solo, frozenset()).atoms == _atoms("p")
    print("criterion 8 (stratification gate): pass")


def test_09_satisfaction():
    cases = []
    for path in corpus_paths():
        program, params = load_case(path)
        model = least_fixpoint(program, params).atoms
        assert components.satisfies(model, program), path.stem
        sig = components.signature(program)
        universe = model | head_candidates(program, params, model)
        head_region = sorted(
            (a for a in universe
             if any(unifiable(a, h) for h in sig.head_templates)),
            key=sort_key,
        )
        if head_region:
            cases.append((program, model, head_region))

    rng = random.Random(9)
    mutations = 0
    while mutations < 50:
        program, model, head_region = rng.choice(cases)
        atom = rng.choice(head_region)
        mutated = model - {atom} if atom in model else model | {atom}
        assert not components.satisfies(mutated, program)
        mutations += 1
    print("criterion 9 (model satisfaction and mutations): pass")


def _answer_texts(program, atoms):
    """The answers to one nonground goal per head predicate, as text."""
    sigs = sorted({(t.head.functor, len(t.head.args))
                   for t in program.templates if isinstance(t.head, Compound)})
    goals = [Compound(f, tuple(Var(f"X{i}") for i in range(n))) for f, n in sigs]
    return [[sorted((v, term_to_str(t)) for v, t in s.items()) for s in engine.answers(atoms, g)]
            for g in goals]


def _explained(program, params, goals):
    """explain of each goal: its text where the bottom-up path answers, else
    whether it is derivable, with every justification checked by verify."""
    out, finite = [], justify._finite(program)
    for goal in goals:
        j = justify.prove(program, params, goal)
        if finite:
            out.append(j and justify.format_justification(j))
        else:
            assert j is None or justify.verify(program, params, j), goal
            out.append(j is not None)
    return out


def test_10_deterministic_dumps():
    for path in corpus_paths():
        program, params = load_case(path)
        atoms = least_fixpoint(program, params).atoms
        reference = dump_model(atoms)
        answers = _answer_texts(program, atoms)
        underivable = sorted(head_candidates(program, params, atoms) - atoms, key=sort_key)[:3]
        goals = sorted(atoms, key=sort_key) + underivable
        explained = _explained(program, params, goals)
        rng = random.Random(10)
        for k in range(20):
            templates = list(program.templates)
            rng.shuffle(templates)
            permuted = Program(tuple(templates))
            model = least_fixpoint(permuted, params).atoms
            assert dump_model(model) == reference
            assert _answer_texts(permuted, model) == answers, path.stem
            if k < 3:
                assert _explained(permuted, params, goals) == explained, path.stem
    print("criterion 10 (deterministic dumps, answers and justifications): pass")
