"""Bottom-up evaluation: the one-step consequence operator and its fixpoint.

Templates are grounded on demand by join plans compiled once per stratum:
positive body literals are looked up left to right in one index of the
growing atom set (derived atoms plus parameters), keyed on the subterms the
literals before them bind; negative conditions are tested against the
parameter set, and the head must be ground.  After the first round, an
instance fires only if some body literal matches an atom new since the round
before (semi-naive evaluation); the instance that first derives an atom is its
witness.  Strata grow that one set bottom-up, each reading it as parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import takewhile
from typing import Iterator, Optional

from .depgraph import stratify_templates
from .errors import (
    NegativeQueryError,
    NonGroundHeadError,
    NonGroundNegationError,
    ResourceLimitError,
    UncallableLiteralError,
    VariableHeadRestrictionError,
)
from .parser import Program, SourceLoc
from .terms import (
    Compound,
    Subst,
    Term,
    Var,
    apply_subst,
    functor_index,
    is_ground,
    match,
    sort_key,
    term_to_str,
    variables_of,
)

DEFAULT_MAX_ATOMS = 1_000_000
DEFAULT_MAX_DEPTH = 10_000


@dataclass(frozen=True)
class Limits:
    """Caps on derived atoms (a stratum runs at most one round more than it adds),
    and on the depth of tabled calls and the passes of a growing answer table."""
    max_atoms: int = DEFAULT_MAX_ATOMS
    max_depth: int = DEFAULT_MAX_DEPTH


@dataclass(frozen=True)
class GroundRule:
    head: Term
    body: frozenset
    negs: frozenset = frozenset()
    loc: Optional[SourceLoc] = field(default=None, compare=False)


@dataclass(frozen=True)
class ModelSet:
    atoms: frozenset
    # Each derived atom's witness, an instance of the round that derived it.
    why: dict = field(default_factory=dict, compare=False, repr=False)


class _Index:
    """The one mutable atom set of a call, with tables built on first use: a
    table maps the subterms at some argument paths of the atoms of one
    functor/arity to those atoms, so each bucket ends with the latest `add`."""

    def __init__(self, atoms=()):
        self.atoms, self.tables = set(), {}  # (functor, arity) -> {paths: {key: [atom]}}
        self.add(atoms)

    def add(self, atoms):
        new = {}
        for a in atoms:
            if a not in self.atoms:
                self.atoms.add(a)
                new.setdefault((a.functor, len(a.args)), []).append(a)
        for sig, group in new.items():
            for paths, table in self.tables.setdefault(sig, {(): {}}).items():
                self._insert(table, paths, group)

    def lookup(self, sig, paths, key):
        tables = self.tables.setdefault(sig, {(): {}})
        if paths not in tables:
            tables[paths] = {}
            self._insert(tables[paths], paths, tables[()].get((), ()))
        return tables[paths].get(key, ())

    @staticmethod
    def _insert(table, paths, atoms):
        for a in atoms:
            try:
                key = tuple([reduce(lambda t, i: t.args[i], path, a) for path in paths])
            except IndexError:
                continue  # a shape that no literal with these paths matches
            table.setdefault(key, []).append(a)


def _keyed(term, bound, path=()):
    """Paths to the maximal subterms of term whose variables are all bound."""
    for j, a in enumerate(term.args):
        if set(variables_of(a)) <= bound:
            yield (*path, j), a
        elif isinstance(a, Compound):
            yield from _keyed(a, bound, (*path, j))


class _Plan:
    """A stratum's templates compiled once per call over the index.  Per body
    literal, left to right: a membership test if the literals before it bind
    all its variables, else its functor/arity, the paths to its maximal bound
    subterms with those subterms (the key) and its other arguments by position
    (the binder).  A round visits the body positions delta can match."""

    def __init__(self, program: Program, index: _Index):
        self.index, self.compiled, self.pairs = index, [], []
        for k, t in enumerate(program.templates):
            bound, steps = set(), []
            for i, lit in enumerate(t.pos_body):
                self.pairs.append((k, i, lit))
                if isinstance(lit, Var) or set(variables_of(lit)) <= bound:
                    steps.append((lit, None, (), (), ()))
                else:
                    key = dict(_keyed(lit, bound))
                    free = [(j, a) for j, a in enumerate(lit.args) if (j,) not in key]
                    steps.append((lit, (lit.functor, len(lit.args)), tuple(key), key.values(), free))
                bound.update(variables_of(lit))
            self.compiled.append((t, steps))
        self.candidates = functor_index([lit for _, _, lit in self.pairs])

    def passes(self, delta):
        if delta is None:
            return [(k, None) for k in range(len(self.compiled))]
        one_per_sig = {(a.functor, len(a.args)): a for a in delta}.values()
        found = {j for a in one_per_sig for j in self.candidates(a)}
        return [self.pairs[j][:2] for j in sorted(found)]


def fired_instances(program: Program, params, current, delta=None, plan=None) -> Iterator[GroundRule]:
    """Ground instances firing against `current` with parameter set `params`;
    with `delta` (a subset of `current`), only those using an atom of delta.
    `plan` compiles the program over an index of both, delta added last."""
    if plan is None:
        plan = _Plan(program, _Index((current | params) - (delta or frozenset())))
        plan.index.add(delta or ())

    def join(i, s, matched):  # this pass's literal d against delta, the rest against all
        lit, sig, paths, parts, free = steps[i]
        if sig is None:
            a = apply_subst(lit, s)
            if isinstance(a, Var):
                raise UncallableLiteralError(
                    f"{t.loc}: body literal {lit.name} is unbound when reached"
                )
            bucket = [a] if a in plan.index.atoms else ()
        else:
            bucket = plan.index.lookup(sig, paths, tuple([apply_subst(p, s) for p in parts]))
        if i == d:  # delta's atoms end the bucket
            bucket = list(takewhile(delta.__contains__, reversed(bucket)))
        for a in bucket:
            s2 = dict(s)  # bind the free arguments; nested ones by match
            for j, p in free:
                if type(p) is Var:
                    if (v := s2.setdefault(p.name, a.args[j])) is not a.args[j] and v != a.args[j]:
                        break
                elif (s2 := match(p, a.args[j], s2)) is None:
                    break
            else:  # the last literal yields without one more generator
                m = matched + (a,)
                yield from join(i + 1, s2, m) if i + 1 < len(steps) else ((s2, m),)

    for k, d in plan.passes(delta):
        t, steps = plan.compiled[k]
        for s, matched in join(0, {}, ()) if steps else [({}, ())]:
            negs = [apply_subst(n, s) for n in t.neg_body]
            bad = [n for n in negs if not is_ground(n)]
            if bad:
                raise NonGroundNegationError(
                    f"{t.loc}: negative condition {term_to_str(bad[0])} "
                    "is not ground after matching the positive body"
                )
            if not params.isdisjoint(negs):
                continue
            head = apply_subst(t.head, s)
            if not is_ground(head):
                raise NonGroundHeadError(
                    f"{t.loc}: head {term_to_str(head)} is not ground "
                    "after matching the positive body"
                )
            yield GroundRule(head, frozenset(matched), frozenset(negs), t.loc)


def apply_T(program: Program, params, current, delta=None, why=None, plan=None) -> set:
    """One step's increment: the heads of firing instances not in `current`.
    With `delta`, only instances using an atom of delta fire; `why` receives
    each such head's canonically least instance, which set order cannot change."""
    out = set()
    for inst in fired_instances(program, params, current, delta, plan):
        if inst.head not in current:
            out.add(inst.head)
            if why is not None:
                first = why.setdefault(inst.head, inst)
                if first is not inst and _canonical(inst) < _canonical(first):
                    why[inst.head] = inst
    return out


def _canonical(r: GroundRule):
    return sorted(map(sort_key, r.body)), sorted(map(sort_key, r.negs)), str(r.loc)


def _iterate(program: Program, limits: Limits, why: dict, index: _Index) -> None:
    """Rounds adding to the index until one adds no atom: the first fires every
    instance, each later one only those using an atom new in the one before."""
    plan, current, delta = _Plan(program, index), index.atoms, None
    # Negation reads the growing set, exactly: depgraph puts unifiable heads in
    # one component and no negative edge inside one, so nothing derived here
    # matches a negated literal.  A wrapped global apply_T sees each round.
    while delta := apply_T(program, current, current, delta, why, plan):
        index.add(delta)
        if len(current) > limits.max_atoms:  # each round adds, so this caps the rounds too
            raise ResourceLimitError(f"derived-atom cap exceeded ({limits.max_atoms}); "
                                     "not converged", partial=frozenset(current))


def least_fixpoint(program: Program, params, limits: Optional[Limits] = None) -> ModelSet:
    """Least set containing the parameters and closed under the program.

    Allowability of the parameter set is the caller's obligation (see
    components.check_allowable).
    """
    limits = limits or Limits()
    negation = any(t.neg_body for t in program.templates)
    if (params or negation) and any(isinstance(t.head, Var) for t in program.templates):
        # A bare-variable head makes the head region all of the universe:
        # no nonempty parameter set is allowable and negation cannot refer
        # to anything below the (single) component.
        raise VariableHeadRestrictionError(
            "variable-head programs require an empty parameter set" if params
            else "variable-head programs cannot use negation"
        )
    strata = stratify_templates(program.templates).strata if negation else (program.templates,)
    index, why = _Index(params), {}
    for stratum in strata:
        _iterate(Program(stratum), limits, why, index)
    return ModelSet(frozenset(index.atoms), why)


def answers(atoms, goal: Term) -> list[Subst]:
    """All distinct substitutions matching the goal against a model's atoms,
    in the canonical order of the atoms they match."""
    if isinstance(goal, Compound) and goal.functor == "not" and len(goal.args) == 1:
        raise NegativeQueryError(f"cannot query a negation: {term_to_str(goal)}")
    hits = [(a, s) for a in atoms if (s := match(goal, a)) is not None]
    hits.sort(key=lambda h: sort_key(h[0]))
    # One substitution per binding set, where its first atom falls.
    return list({tuple(sorted(s.items())): s for _, s in hits}.values())


def query(program: Program, params, goal: Term, limits: Optional[Limits] = None):
    """All substitutions matching the goal against the computed model."""
    return answers(least_fixpoint(program, params, limits).atoms, goal)


def dump_model(atoms) -> str:
    """Canonical model text: one sorted ground term per line."""
    return "".join(f"{term_to_str(t)}.\n" for t in sorted(atoms, key=sort_key))
