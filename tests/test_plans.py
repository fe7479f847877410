"""Compiled join plans and the shared index against brute-force references.

`fired_instances` must yield the same multiset of ground rules as nested
loops over all atoms, with and without a delta; the index must grow linearly
in the atoms, and a round must visit only the body positions its delta can
match.  `answers` must equal sort-then-match.
"""

import itertools
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from test_components import _rules
from test_seminaive import _bodies, _positive_rules, _shaped, _wrapped
from indsem import cli, engine, terms
from indsem.errors import IndsemError
from indsem.parser import parse_paramset, parse_program, parse_term
from indsem.terms import Var, apply_subst, match, sort_key

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def _nested_loops(program, params, current, delta=None):
    """Every instance from every tuple of atoms, one per body literal, the
    literals matched left to right by the generic `match`; with delta, once
    per body position holding an atom of delta (as the semi-naive rounds
    count them)."""
    atoms = sorted(current | params, key=sort_key)
    out = Counter()
    for t in program.templates:
        pools = [
            atoms if isinstance(lit, Var)
            else [a for a in atoms if (a.functor, len(a.args)) == (lit.functor, len(lit.args))]
            for lit in t.pos_body
        ]
        for d in [None] if delta is None else range(len(t.pos_body)):
            for combo in itertools.product(*pools):
                if d is not None and combo[d] not in delta:
                    continue
                s = {}
                for lit, a in zip(t.pos_body, combo):
                    if (s := match(lit, a, s)) is None:
                        break
                else:
                    negs = frozenset(apply_subst(n, s) for n in t.neg_body)
                    if not negs & params:
                        out[engine.GroundRule(apply_subst(t.head, s), frozenset(combo), negs)] += 1
    return out


def _subset(data, atoms):
    return frozenset(data.draw(st.sets(st.sampled_from(sorted(atoms, key=sort_key))))) if atoms else frozenset()


# Any atom sets will do, not only models: many atoms per functor/arity that
# differ in bound positions, some of them parameters, some only in current.
@settings(max_examples=300, deadline=None)
@given(st.lists(_positive_rules, min_size=1, max_size=4), st.lists(_rules, max_size=2),
       st.lists(_wrapped(_shaped(["a", "b"])[1]), max_size=16), st.data())
def test_fired_instances_equal_nested_loops(positive, rules, atoms, data):
    program = parse_program("".join(positive + rules))
    atoms = frozenset(map(parse_term, atoms))
    params = _subset(data, atoms)
    current = atoms - _subset(data, params)
    for delta in (None, _subset(data, current)):
        try:
            fired = Counter(engine.fired_instances(program, params, current, delta))
        except IndsemError as exc:  # an unbound body literal, or a nonground head or condition
            with pytest.raises(type(exc)):
                list(engine.fired_instances(program, params, current, delta, witnesses=False))
            continue
        expected = _nested_loops(program, params, current, delta)
        assert fired == expected
        heads = Counter()
        for rule, n in expected.items():
            heads[rule.head] += n
        assert Counter(engine.fired_instances(program, params, current, delta,
                                              witnesses=False)) == heads


# ---------------------------------------------------------------------------
# Work counts: machine-independent guards on the index and the plans.
# ---------------------------------------------------------------------------

RIGHT = "tc(X,Y) :- edge(X,Y).\ntc(X,Y) :- edge(X,Z), tc(Z,Y).\n"
LEFT = "tc(X,Y) :- edge(X,Y).\ntc(X,Y) :- tc(X,Z), edge(Z,Y).\n"


@pytest.mark.parametrize("n", [100, 200])
@pytest.mark.parametrize("text", [RIGHT, LEFT], ids=["right", "left"])
def test_index_insertions_are_linear_in_atoms(monkeypatch, text, n):
    made = []

    class Recording(engine._Index):
        def __init__(self, atoms=()):
            made.append(self)
            super().__init__(atoms)

    monkeypatch.setattr(engine, "_Index", Recording)
    edges = parse_paramset("".join(f"edge({i},{i + 1}).\n" for i in range(n)))
    atoms = engine.least_fixpoint(parse_program(text), edges).atoms
    assert len(atoms) == n + n * (n + 1) // 2
    tables = [(sig, paths, table) for ix in made
              for sig, by_paths in ix.tables.items() for paths, table in by_paths.items()]
    specs = {(sig, paths) for sig, paths, _ in tables}
    inserted = sum(len(bucket) for _, _, table in tables for bucket in table.values())
    # Extended in place, not rebuilt each round (201-401 rounds here).
    assert inserted <= len(specs) * len(atoms)


def test_model_and_query_build_no_ground_rule(monkeypatch, tmp_path, capsys):
    made = []
    rule = engine.GroundRule
    monkeypatch.setattr(engine, "GroundRule", lambda *args, **kwargs: made.append(args) or rule(*args, **kwargs))
    (tmp_path / "tc.ind").write_text(RIGHT)
    (tmp_path / "e.facts").write_text("".join(f"edge({i},{i + 1}).\n" for i in range(12)))
    files = [str(tmp_path / "tc.ind"), "--facts", str(tmp_path / "e.facts")]
    assert cli.main(["model", *files]) == 0
    assert cli.main(["query", *files, "-q", "tc(0,X)", "--oracle"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 12 + 12 * 13 // 2 + 12
    assert made == []
    # The guard sees the instances of an evaluation that keeps witnesses.
    assert cli.main(["explain", *files, "-q", "tc(0,12)"]) == 0
    assert made


def test_rounds_visit_only_the_positions_delta_can_match(monkeypatch):
    program = parse_program("p0.\n" + "".join(f"p{k} :- p{k - 1}.\n" for k in range(1, 2000)))
    visited = []
    passes = engine._Plan.passes

    def counted(self, delta):
        pairs = passes(self, delta)
        visited.append(len(pairs))
        return pairs

    monkeypatch.setattr(engine._Plan, "passes", counted)
    assert len(engine.least_fixpoint(program, frozenset()).atoms) == 2000
    # The first round visits every template once, each later one a single
    # (template, body position) pair: not every template every round.
    assert sum(visited) <= 2 * len(program.templates)


def _layered():
    """The benchmark's largest layered-negation program: every stratum is one
    predicate's two templates, none recursive."""
    lay = workloads.layered_program(162, 4, workloads._Namer("", 0), random.Random(0))
    return parse_program(lay.program), parse_paramset(lay.facts)


def test_stratifying_renames_no_term(monkeypatch):
    program, _ = _layered()
    renamed = []
    rename_term = terms.rename_term

    def counted(t, mapping):
        renamed.append(t)
        return rename_term(t, mapping)

    monkeypatch.setattr(terms, "rename_term", counted)
    strata = engine.strata(program)
    # Unifiable heads share a stratum: one per head predicate.
    assert len(strata) == len(program.templates) // 2
    assert renamed == []


def test_non_recursive_strata_compile_one_join_per_template_and_no_delta_index(monkeypatch):
    program, params = _layered()
    compiled, indexed = [], []
    steps, index = engine._steps, engine._Index

    class Recording(index):
        def __init__(self, atoms=()):
            indexed.append(self)
            super().__init__(atoms)

    monkeypatch.setattr(engine, "_steps", lambda lits: compiled.append(lits) or steps(lits))
    monkeypatch.setattr(engine, "_Index", Recording)
    engine.least_fixpoint(program, params)
    # Each stratum's second round reaches no body literal: its delta holds
    # only the stratum's own heads, which no body of it reads.
    assert len(compiled) == len(program.templates)
    assert len(indexed) == 1  # the evaluation's own


# ---------------------------------------------------------------------------
# answers: match first, then sort only the matches.
# ---------------------------------------------------------------------------


def _sort_then_match(atoms, goal):
    out, seen = [], set()
    for a in sorted(atoms, key=sort_key):
        s = match(goal, a)
        if s is not None and tuple(sorted(s.items())) not in seen:
            seen.add(tuple(sorted(s.items())))
            out.append(s)
    return out


@given(st.lists(_wrapped(_shaped(["a", "b"])[1]), max_size=12),
       _wrapped(_bodies) | st.sampled_from(["X", "holds(X)"]))
def test_answers_equal_sort_then_match(atoms, goal):
    atoms = frozenset(map(parse_term, atoms))
    goal = parse_term(goal)
    assert engine.answers(atoms, goal) == _sort_then_match(atoms, goal)
