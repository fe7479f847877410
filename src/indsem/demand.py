"""The demand ("magic sets") rewrite: the templates that ground goals depend
on, guarded so that bottom-up evaluation derives only what the goals need
(Bancilhon, Maier, Sagiv and Ullman, PODS 1986; Beeri and Ramakrishnan,
JLP 1991).

Demand flows left to right through each rule body (sideways information
passing): a body literal is demanded with the subterms that the demand on
the head and the literals before it bind.  A demand pattern (an adornment)
is a functor/arity with the argument paths of those maximal bound subterms,
as the engine keys its lookups, so a wrapped `holds(tc(X,Y))` keeps its
demand on X.  Each adornment gets a fresh demand functor whose arguments are
the bound subterms.  Each rule that derives a demanded literal is copied with
the demand on its head as a first body literal, and each of its body literals
gets a demand rule: `demand(lit) :- demand(head), literals before lit`.
Where a bound path of the demand runs past a variable of a rule head, that
rule is guarded by the demand projected onto the paths the head has.

The templates that negative conditions read are kept unchanged and evaluated
in full, so the rewritten program is stratified whenever demand never reaches
a rule whose head unifies with one of theirs.  So are the program's ground
facts: a guard would make each of them a rule that every round delivering
demand for its functor/arity visits, while unguarded they cost what
parameters cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .engine import _keyed
from .parser import Program, RuleTemplate
from .terms import (Compound, Term, Var, functor_index, functors_of, is_ground, unifiable,
                    variables_of)


@dataclass(frozen=True)
class Rewrite:
    program: Program  # the kept and the guarded templates, and the demand rules
    seeds: frozenset  # the goals' demand atoms, to add to the parameters
    relevant: frozenset  # indices of the original templates the goals depend on


def depends(templates, lits) -> set:
    """Indices of the templates whose heads unify with one of lits or with a
    body literal of one of them, and so on: all that the literals read."""
    candidates = functor_index([t.head for t in templates])
    keep, todo = set(), list(lits)
    while todo:
        lit = todo.pop()
        for k in candidates(lit):
            if k not in keep and unifiable(lit, templates[k].head):
                keep.add(k)
                todo.extend(templates[k].pos_body + templates[k].neg_body)
    return keep


def _at(term: Term, path) -> Optional[Term]:
    """The subterm at path, or None where the path runs past a variable or
    out of the term."""
    for i in path:
        if isinstance(term, Var) or i >= len(term.args):
            return None
        term = term.args[i]
    return term


def rewrite(program: Program, goals) -> Optional[Rewrite]:
    """The demand rewrite of the templates the goals depend on, or None for a
    program with a variable head or body literal, or one that already uses a
    demand functor."""
    templates = program.templates
    if any(isinstance(t.head, Var) or any(isinstance(b, Var) for b in t.pos_body)
           for t in templates):
        return None
    relevant = depends(templates, goals)
    kept = depends(templates, [n for k in relevant for n in templates[k].neg_body])
    kept |= {k for k in relevant if templates[k].is_fact and is_ground(templates[k].head)}
    rules: dict = {}  # head functor/arity -> the templates that demand guards
    for k in sorted(relevant - kept):
        rules.setdefault((templates[k].head.functor, len(templates[k].head.args)), []).append(templates[k])
    out = [templates[k] for k in sorted(kept)]
    names: dict = {}  # adornment -> its demand functor
    todo: list = []

    def functor(adornment) -> str:
        if adornment not in names:
            name, arity, paths = adornment
            names[adornment] = f"demand:{name}/{arity}:" + ",".join(".".join(map(str, p)) for p in paths)
            todo.append(adornment)
        return names[adornment]

    def demand(lit: Term, bound) -> Optional[Compound]:
        """lit's demand atom given the variables bound before it, or None
        when no guarded template derives lit."""
        sig = (lit.functor, len(lit.args))
        if not any(unifiable(lit, t.head) for t in rules.get(sig, ())):
            return None
        key = list(_keyed(lit, bound))
        return Compound(functor((*sig, tuple(p for p, _ in key))), tuple(a for _, a in key))

    seeds = frozenset(d for g in goals if (d := demand(g, set())) is not None)
    projected = set()
    while todo:
        name, arity, paths = adornment = todo.pop()
        for t in rules[name, arity]:
            found = [_at(t.head, p) for p in paths]
            if None in found:  # guarded by the demand on the paths its head has
                narrower = functor((name, arity, tuple(p for p, s in zip(paths, found) if s is not None)))
                if (adornment, narrower) not in projected:
                    projected.add((adornment, narrower))
                    xs = [Var(f"#{i}") for i in range(len(paths))]
                    head = Compound(narrower, tuple(x for x, s in zip(xs, found) if s is not None))
                    out.append(RuleTemplate(head, (Compound(names[adornment], tuple(xs)),), (), t.loc))
                continue
            guard = Compound(names[adornment], tuple(found))
            out.append(RuleTemplate(t.head, (guard, *t.pos_body), t.neg_body, t.loc))
            bound = set(variables_of(guard))
            for i, lit in enumerate(t.pos_body):
                d = demand(lit, bound)
                if d is not None and d != guard:
                    out.append(RuleTemplate(d, (guard, *t.pos_body[:i]), (), t.loc))
                bound.update(variables_of(lit))
    used = {name for t in templates for lit in (t.head, *t.pos_body, *t.neg_body)
            for name, _ in functors_of(lit)}
    if used.intersection(names.values()):
        return None
    return Rewrite(Program(tuple(out)), seeds, frozenset(relevant))
