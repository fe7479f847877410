"""Component analyses: signatures, allowability, strata, composition, satisfaction."""

import pytest
from hypothesis import given, strategies as st

from conftest import load_pair, pair_names
from indsem import components, depgraph, engine
from indsem.components import (
    AllowabilityViolation,
    check_allowable,
    compose,
    composition_conflicts,
    ground_projection,
    nested_negation_warnings,
    satisfies,
    signature,
    stratify,
)
from indsem.depgraph import stratify_templates
from indsem.errors import (
    AllowabilityError,
    CompositionMismatchError,
    CompositionPreconditionError,
    UnstratifiableError,
)
from indsem.parser import Program, parse_paramset, parse_program, parse_term
from indsem.terms import term_to_str, unifiable


def _atoms(text):
    return frozenset(parse_term(t) for t in text.split())


TC_TEXT = """\
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- edge(X,Z), tc(Z,Y).
"""


def test_signature_collects_template_sets():
    sig = signature(parse_program(TC_TEXT))
    assert sig.head_templates == {parse_term("tc(X,Y)"), parse_term("tc(X,Z)")}
    assert sig.body_templates == {
        parse_term("edge(X,Y)"),
        parse_term("edge(X,Z)"),
        parse_term("tc(Z,Y)"),
    }
    assert sig.neg_templates == frozenset()


def test_signature_negatives():
    sig = signature(parse_program("p :- a, not(b), not(q(X)).\n"))
    assert sig.neg_templates == {parse_term("b"), parse_term("q(X)")}


def test_ground_projection():
    sig = signature(parse_program(TC_TEXT))
    universe = _atoms("tc(1,2) edge(1,2) other(1)")
    heads, bodies, negs = ground_projection(sig, universe)
    assert heads == _atoms("tc(1,2)")
    assert bodies == _atoms("tc(1,2) edge(1,2)")
    assert negs == set()


def test_allowability():
    prog = parse_program(TC_TEXT)
    assert check_allowable(prog, _atoms("edge(1,2) edge(2,3)")).ok
    report = check_allowable(prog, _atoms("edge(1,2) tc(1,2)"))
    assert not report.ok
    assert len(report.violations) == 2  # tc(1,2) unifies with both heads
    assert all(v.atom == parse_term("tc(1,2)") for v in report.violations)
    assert "tc(1,2)" in str(report)


def test_stratify_strata_counts():
    assert len(stratify(parse_program(TC_TEXT)).strata) == 1
    chain = parse_program("a.\nb :- not(a).\nc :- not(b).\n")
    assert len(stratify(chain).strata) == 3
    two = parse_program("q.\np :- not(q).\n")
    assert len(stratify(two).strata) == 2


def test_stratify_rejects_negative_cycles():
    with pytest.raises(UnstratifiableError) as err:
        stratify(parse_program("p :- not(p).\n"))
    assert err.value.cycle
    with pytest.raises(UnstratifiableError):
        stratify(parse_program("p :- not(q).\nq :- p.\n"))


def test_unifiable_heads_share_a_stratum():
    # p(a) and p(X) must land together even without mutual recursion.
    prog = parse_program("p(a).\np(X) :- q(X).\nr :- not(s).\n")
    strat = stratify(prog)
    for stratum in strat.strata:
        heads = [t.head for t in stratum]
        if parse_term("p(a)") in heads:
            assert parse_term("p(X)") in heads


_literals = st.builds(
    lambda name, arg: name if arg is None else f"{name}({arg})",
    st.sampled_from("pqrs"),
    st.none() | st.sampled_from(["a", "b", "X", "Y"]),
)
_rules = st.builds(
    lambda head, body: head + "".join(
        (" :- " if k == 0 else ", ") + (f"not({lit})" if neg else lit)
        for k, (lit, neg) in enumerate(body)
    ) + ".\n",
    _literals,
    st.lists(st.tuples(_literals, st.booleans()), max_size=2),
)


@given(st.lists(_rules, min_size=1, max_size=6))
def test_strata_are_bottom_up(rules):
    templates = parse_program("".join(rules)).templates
    try:
        strata = stratify_templates(templates).strata
    except UnstratifiableError as err:
        assert err.cycle
        return
    level = {id(t): k for k, stratum in enumerate(strata) for t in stratum}
    assert sum(map(len, strata)) == len(templates) == len(level)
    for t in templates:
        for u in templates:
            if unifiable(t.head, u.head):
                assert level[id(t)] == level[id(u)]
            if any(unifiable(b, u.head) for b in t.pos_body):
                assert level[id(u)] <= level[id(t)]
            if any(unifiable(n, u.head) for n in t.neg_body):
                assert level[id(u)] < level[id(t)]


# Wider templates for the functor-indexed analyses: arities 0-2 under one
# name, nested and clause/2-style compounds, bare-variable heads and body
# literals.  (_literals and _rules stay as they are: tests/test_seminaive.py
# evaluates them bottom-up.)
def _atoms_over(args):
    return st.builds(
        lambda name, xs: name + (f"({','.join(xs)})" if xs else ""),
        st.sampled_from("pq"),
        st.lists(st.sampled_from(args), max_size=2),
    )


_ground_atoms = _atoms_over(["a", "b", "s(a)"]) | st.builds(
    "clause({},true)".format, _atoms_over(["a", "b"])
)
_open_atoms = _atoms_over(["a", "b", "X", "Y", "s(X)"])
_wide_literals = (
    _open_atoms
    | st.sampled_from(["H", "Body"])
    | st.builds(
        "clause({},{})".format,
        _open_atoms | st.just("H"),
        _open_atoms | st.sampled_from(["true", "Body"]),
    )
)
_wide_rules = st.builds(
    lambda head, body: head + "".join(
        (" :- " if k == 0 else ", ") + (f"not({lit})" if neg else lit)
        for k, (lit, neg) in enumerate(body)
    ) + ".\n",
    _wide_literals,
    st.lists(st.tuples(_wide_literals, st.booleans()), max_size=3),
)


def _all_pairs_graph(templates):
    """depgraph._graph by its definition: every literal against every head."""
    heads = [t.head for t in templates]
    deps = [
        [j for lit in t.pos_body + t.neg_body for j, h in enumerate(heads) if unifiable(lit, h)]
        for t in templates
    ]
    negative = [
        (i, j) for i, t in enumerate(templates)
        for lit in t.neg_body for j, h in enumerate(heads) if unifiable(lit, h)
    ]
    adj = [
        d + [j for j, h in enumerate(heads) if j != i and unifiable(heads[i], h)]
        for i, d in enumerate(deps)
    ]
    return deps, negative, depgraph._scc(len(templates), adj)


@given(
    st.lists(_wide_rules, min_size=1, max_size=8),
    st.integers(0, 8),
    st.lists(_ground_atoms, max_size=6),
)
def test_indexed_analyses_equal_all_pairs_definitions(rules, cut, facts):
    program = parse_program("".join(rules))
    templates = program.templates
    assert depgraph._graph(templates) == _all_pairs_graph(templates)

    params = frozenset(map(parse_term, facts))
    assert check_allowable(program, params).violations == tuple(
        AllowabilityViolation(a, t.head, str(t.loc))
        for a in sorted(params, key=term_to_str)
        for t in templates if unifiable(a, t.head)
    )

    upper, lower = Program(templates[:cut]), Program(templates[cut:])
    lower_terms = [(t.head, f"head at {t.loc}") for t in lower.templates]
    lower_terms += [(b, f"body at {t.loc}") for t in lower.templates for b in t.pos_body]
    assert composition_conflicts(upper, lower) == [
        (term_to_str(t.head), term_to_str(term), where)
        for t in upper.templates for term, where in lower_terms if unifiable(t.head, term)
    ]

    sig = signature(program)
    assert ground_projection(sig, params) == tuple(
        {a for a in params if any(unifiable(a, x) for x in side)}
        for side in (sig.head_templates, sig.body_templates, sig.neg_templates)
    )


def _layered(n_layers, width=4):
    """Layered negation, two templates per predicate: l<k>_<i> holds when
    layer k-1 has l<k-1>_<i> and lacks l<k-1>_<i+1>, or has l<k-1>_<i+1>."""
    rules = [f"l0_{i}.\nl0_{i} :- b{i}.\n" for i in range(width)]
    for k in range(1, n_layers):
        for i in range(width):
            a, b = f"l{k-1}_{i}", f"l{k-1}_{(i + 1) % width}"
            rules.append(f"l{k}_{i} :- {a}, not({b}).\nl{k}_{i} :- {b}.\n")
    return parse_program("".join(rules))


def _count_calls(monkeypatch, module, name):
    """Counts the calls of module.<name> as that module looks it up."""
    calls = [0]
    inner = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_template_analyses_unify_linearly_often(monkeypatch):
    program = _layered(50)
    templates = program.templates
    assert len(templates) == 400
    bound = 4 * len(templates) * (max(len(t.pos_body + t.neg_body) for t in templates) + 1)

    calls = _count_calls(monkeypatch, depgraph, "unifiable")
    strata = stratify_templates(templates).strata
    assert len(strata) == 200
    assert calls[0] <= bound

    # Half the parameters unify with two heads each, half with none.
    params = frozenset(parse_term(f"{p}{k}_{i}") for p in ("l", "m") for k in range(50) for i in range(2))
    calls = _count_calls(monkeypatch, components, "unifiable")
    assert len(check_allowable(program, params).violations) == 200
    assert calls[0] <= bound


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def test_compose_chains_the_least_sets():
    upper = parse_program("p :- q.\n")
    lower = parse_program("q :- r.\n")
    model = compose(upper, lower, _atoms("r"), verify_union=True)
    assert model.atoms == _atoms("r q p")


def test_compose_matches_union_on_corpus_pairs():
    for name in pair_names():
        upper, lower, params = load_pair(name)
        chained = compose(upper, lower, params, verify_union=True)
        union = engine.least_fixpoint(upper + lower, params)
        assert chained.atoms == union.atoms, name


def test_compose_precondition_violation():
    upper = parse_program("q :- p.\n")
    lower = parse_program("q.\n")
    with pytest.raises(CompositionPreconditionError) as err:
        compose(upper, lower, frozenset())
    assert len(err.value.pairs) == 1


def test_compose_head_into_lower_body_rejected():
    upper = parse_program("r :- s.\n")
    lower = parse_program("q :- r.\n")  # upper head feeds the lower body
    with pytest.raises(CompositionPreconditionError):
        compose(upper, lower, frozenset())


def test_compose_requires_allowable_params():
    upper = parse_program("p :- q.\n")
    lower = parse_program("q :- r.\n")
    with pytest.raises(AllowabilityError):
        compose(upper, lower, _atoms("q"))
    with pytest.raises(AllowabilityError):
        compose(upper, lower, _atoms("p"))  # allowable for lower, not the union


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------


def test_satisfies_examples():
    prog = parse_program("p :- q.\n")
    assert satisfies(_atoms("q p"), prog)
    assert not satisfies(_atoms("p"), prog)
    assert satisfies(frozenset(), prog)
    assert not satisfies(_atoms("q"), prog)  # q holds but p is missing


def test_satisfies_is_head_restricted():
    # Extra non-head atoms are outside the judgement.
    prog = parse_program("tc(X,Y) :- edge(X,Y).\n")
    assert satisfies(_atoms("edge(1,2) tc(1,2) junk"), prog)
    assert not satisfies(_atoms("edge(1,2) tc(1,2) tc(9,9)"), prog)


def test_nested_negation_warning():
    prog = parse_program("p :- not(not(q)).\n")
    warnings = nested_negation_warnings(prog)
    assert len(warnings) == 1
    assert "nested negation" in warnings[0]
    assert nested_negation_warnings(parse_program("p :- not(q).\n")) == []
