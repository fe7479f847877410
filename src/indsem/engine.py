"""Bottom-up evaluation: the one-step consequence operator and its fixpoint.

Templates are grounded on demand by join plans compiled once per stratum:
positive body literals are looked up in one index of the growing atom set
(derived atoms plus parameters, all ground), each keyed on the subterms the
literals before it bind; negative conditions are tested against the
parameter set, and the head must be ground.  A head whose arguments are
each ground or a variable of the positive body is read straight from the
substitution.  After the first round, an instance fires only if
some body literal matches an atom new since the round before (semi-naive
evaluation): each such position is joined first, against those new atoms
alone, and the other literals after it, by a join compiled the first time a
round reaches that position.  An evaluation that keeps witnesses records,
for each derived atom, the instance that first derives it; one that does
not (`witnesses=False`) builds only the heads.  Strata grow that one set
bottom-up, each reading it as parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Iterator, Optional

from .depgraph import stratify_templates
from .errors import (
    NegativeQueryError,
    NonGroundHeadError,
    NonGroundNegationError,
    NonGroundParameterSetError,
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
        if not paths:
            table.setdefault((), []).extend(atoms)
        elif all(len(path) == 1 for path in paths):  # argument positions of one functor/arity
            cols = [i for (i,) in paths]
            for a in atoms:
                args = a.args
                table.setdefault(tuple([args[i] for i in cols]), []).append(a)
        else:
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


def _steps(lits) -> tuple:
    """A join over lits in the order given.  Per literal: a membership test
    if the literals before it bind all its variables, else its functor/arity,
    the paths to its maximal bound subterms with those subterms (the key) and
    its other arguments by position (the binder)."""
    bound, steps = set(), []
    for lit in lits:
        if isinstance(lit, Var) or set(variables_of(lit)) <= bound:
            steps.append((lit, None, (), (), ()))
        else:
            key = dict(_keyed(lit, bound))
            free = [(j, a) for j, a in enumerate(lit.args) if (j,) not in key]
            steps.append((lit, (lit.functor, len(lit.args)), tuple(key), key.values(), free))
        bound.update(variables_of(lit))
    return tuple(steps)


def _ground_index(atoms) -> _Index:
    """An index of atoms, each of which must be ground: the joins bind
    variables to their subterms, and a head read from those bindings is not
    tested again."""
    bad = next((a for a in atoms if not is_ground(a)), None)
    if bad is not None:
        raise NonGroundParameterSetError(f"parameter {term_to_str(bad)} is not ground")
    return _Index(atoms)


def _builder(head, bound):
    """A function building head's instance from a substitution that binds
    each variable in `bound` to a ground term, with no walk over head: for a
    ground head, a variable in bound, or a compound whose arguments are each
    one of those.  None for any other head, whose instance is built by
    apply_subst and tested for groundness."""
    if is_ground(head):
        return lambda s: head
    if type(head) is Var:
        return (lambda s: s[head.name]) if head.name in bound else None
    spec = [a.name if type(a) is Var else a for a in head.args]
    if any(x not in bound if type(x) is str else not is_ground(x) for x in spec):
        return None
    f = head.functor
    return lambda s: Compound(f, tuple([s[x] if type(x) is str else x for x in spec]))


class _Plan:
    """A stratum's templates compiled over the index: per template, the join
    of the first round in written order, and per positive body position d
    the join of a later round, with the step that reads delta, compiled the
    first time a round's delta reaches d (a round of a non-recursive stratum
    after the first reaches none).  That join takes literal d first, then the
    literals before it nearest first and the ones after it in order: a body
    written so that each literal is bound by those before it (as the demand
    rewrite writes them) is then joined along the same chain, each lookup
    keyed.  A template with a variable body literal keeps the written order,
    so an unbound literal fails where it is written.  A round visits the body
    positions delta can match."""

    def __init__(self, program: Program, index: _Index):
        self.index, self.templates = index, program.templates
        self.first = [(_steps(t.pos_body), -1) for t in self.templates]
        self.heads = [_builder(t.head, {v for lit in t.pos_body for v in variables_of(lit)})
                      for t in self.templates]
        self.later = {}  # (template, delta position) -> its join
        self.pairs = [(k, d, lit) for k, t in enumerate(self.templates) for d, lit in enumerate(t.pos_body)]
        self.at = {}  # functor/arity -> positions of pairs; None -> variable literals
        for j, (_, _, lit) in enumerate(self.pairs):
            self.at.setdefault(None if isinstance(lit, Var) else (lit.functor, len(lit.args)), []).append(j)

    def compiled(self, k, d):
        """Template k's steps and the one that reads delta: the first round's
        join for d None, else the one reading delta at body position d."""
        if d is None:
            return self.first[k]
        if (k, d) not in self.later:
            lits = self.templates[k].pos_body
            if any(isinstance(lit, Var) for lit in lits):
                self.later[k, d] = (self.first[k][0], d)
            else:
                self.later[k, d] = (_steps((*lits[d::-1], *lits[d + 1:])), 0)
        return self.later[k, d]

    def passes(self, delta):
        """(template, delta position) pairs of a round: with delta None (the
        first round) every template once, else the positions whose literal
        shares a functor/arity with an atom of delta."""
        if delta is None:
            return [(k, None) for k in range(len(self.templates))]
        sigs = {(a.functor, len(a.args)) for a in delta}
        found = {j for sig in ((None, *sigs) if sigs else ()) for j in self.at.get(sig, ())}
        return [self.pairs[j][:2] for j in sorted(found)]


def fired_instances(program: Program, params, current, delta=None, plan=None,
                    witnesses=True) -> Iterator:
    """Ground instances firing against `current` with parameter set `params`;
    with `delta` (a subset of `current`), only those using an atom of delta,
    once per body position holding one.  `plan` compiles the program over an
    index of both.  Yields each instance's GroundRule, or with `witnesses`
    False its head alone.  A round that delta reaches at no body position
    returns before indexing delta."""
    if plan is None:
        plan = _Plan(program, _ground_index(current | params))
    pairs = plan.passes(delta)
    if not pairs:
        return
    news = None if delta is None else _Index(delta)  # delta grouped by functor/arity once

    def join(i, s):  # step `reads` against delta, the others against all
        lit, sig, paths, parts, free = steps[i]
        index = news if i == reads else plan.index
        if sig is None:
            a = apply_subst(lit, s)
            if isinstance(a, Var):
                raise UncallableLiteralError(
                    f"{t.loc}: body literal {term_to_str(lit)} is unbound when reached"
                )
            bucket = [a] if a in index.atoms else ()
        else:
            bucket = index.lookup(sig, paths, tuple([apply_subst(p, s) for p in parts]))
        for a in bucket:
            s2 = dict(s)  # bind the free arguments; nested ones by match
            for j, p in free:
                if type(p) is Var:
                    if (v := s2.setdefault(p.name, a.args[j])) is not a.args[j] and v != a.args[j]:
                        break
                elif (s2 := match(p, a.args[j], s2)) is None:
                    break
            else:  # the last literal yields without one more generator
                matched[i] = a  # read by the consumer before the join resumes
                if i < last:
                    yield from join(i + 1, s2)
                else:
                    yield s2

    for k, d in pairs:
        t, build = plan.templates[k], plan.heads[k]
        steps, reads = plan.compiled(k, d)
        matched, last = [None] * len(steps), len(steps) - 1
        for s in join(0, {}) if steps else ({},):
            negs = ()
            if t.neg_body:
                negs = [apply_subst(n, s) for n in t.neg_body]
                bad = [n for n in negs if not is_ground(n)]
                if bad:
                    raise NonGroundNegationError(
                        f"{t.loc}: negative condition {term_to_str(bad[0])} "
                        "is not ground after matching the positive body"
                    )
                if not params.isdisjoint(negs):
                    continue
            if build is None:
                head = apply_subst(t.head, s)
                if not is_ground(head):
                    raise NonGroundHeadError(
                        f"{t.loc}: head {term_to_str(head)} is not ground "
                        "after matching the positive body"
                    )
            else:
                head = build(s)
            yield GroundRule(head, frozenset(matched), frozenset(negs), t.loc) if witnesses else head


def apply_T(program: Program, params, current, delta=None, why=None, plan=None,
            within=None) -> set:
    """One step's increment: the heads of firing instances not in `current`
    (and in `within`, if given).  With `delta`, only instances using an atom
    of delta fire.  Without `why`, only heads are built; `why` receives each
    new head's canonically least instance, which set order cannot change."""
    if why is None:
        out = {h for h in fired_instances(program, params, current, delta, plan, witnesses=False)
               if h not in current}
        return out if within is None else out.intersection(within)
    out = set()
    for inst in fired_instances(program, params, current, delta, plan):
        if inst.head not in current and (within is None or inst.head in within):
            out.add(inst.head)
            first = why.setdefault(inst.head, inst)
            if first is not inst and _canonical(inst) < _canonical(first):
                why[inst.head] = inst
    return out


def _canonical(r: GroundRule):
    return sorted(map(sort_key, r.body)), sorted(map(sort_key, r.negs)), str(r.loc)


def _iterate(program: Program, limits: Limits, why, index: _Index, within) -> None:
    """Rounds adding to the index until one adds no atom: the first fires every
    instance, each later one only those using an atom new in the one before.
    `why` (None for heads only) receives the witnesses."""
    plan, current, delta = _Plan(program, index), index.atoms, None
    # Negation reads the growing set, exactly: depgraph puts unifiable heads in
    # one component and no negative edge inside one, so nothing derived here
    # matches a negated literal.  A wrapped global apply_T sees each round.
    while delta := apply_T(program, current, current, delta, why, plan, within):
        index.add(delta)
        if len(current) > limits.max_atoms:  # each round adds, so this caps the rounds too
            raise ResourceLimitError(f"derived-atom cap exceeded ({limits.max_atoms}); "
                                     "not converged", partial=frozenset(current))


def strata(program: Program) -> tuple:
    """The program's templates in strata, bottom-up: one stratum without
    negation, else those of depgraph (UnstratifiableError if none exist)."""
    if any(t.neg_body for t in program.templates):
        return stratify_templates(program.templates).strata
    return (program.templates,)


def least_fixpoint(program: Program, params, limits: Optional[Limits] = None,
                   witnesses: bool = True) -> ModelSet:
    """Least set containing the parameters and closed under the program, with
    each derived atom's witness unless `witnesses` is False.

    Allowability of the parameter set is the caller's obligation (see
    components.check_allowable).
    """
    negation = any(t.neg_body for t in program.templates)
    if (params or negation) and any(isinstance(t.head, Var) for t in program.templates):
        # A bare-variable head makes the head region all of the universe:
        # no nonempty parameter set is allowable and negation cannot refer
        # to anything below the (single) component.
        raise VariableHeadRestrictionError(
            "variable-head programs require an empty parameter set" if params
            else "variable-head programs cannot use negation"
        )
    return evaluate(strata(program), params, limits, witnesses=witnesses)


def evaluate(strata, params, limits: Optional[Limits] = None, within=None,
             witnesses: bool = True) -> ModelSet:
    """The strata evaluated in order over one growing set from the parameters,
    which must be ground (NonGroundParameterSetError names one that is not).
    With `within`, only its atoms are derived: every other head is dropped
    where it fires.  The atoms kept have the rounds and witnesses of the
    whole evaluation when every instance deriving one of them has its body
    in `within` or the parameters, and `within` holds every true atom that a
    negative condition reads.  With `witnesses` False, `why` stays empty."""
    limits = limits or Limits()
    index, why = _ground_index(params), {} if witnesses else None
    for stratum in strata:
        _iterate(Program(stratum), limits, why, index, within)
    return ModelSet(frozenset(index.atoms), {} if why is None else why)


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
    return answers(least_fixpoint(program, params, limits, witnesses=False).atoms, goal)


def dump_model(atoms) -> str:
    """Canonical model text: one sorted ground term per line."""
    return "".join([f"{term_to_str(t)}.\n" for t in sorted(atoms, key=sort_key)])
