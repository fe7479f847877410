"""Bottom-up evaluation: the one-step consequence operator and its fixpoint.

Templates are grounded on demand: positive body literals are matched left to
right against the growing atom set (derived atoms plus parameters), negative
conditions are tested against the parameter set only, and the resulting head
must be ground.  After the first round, an instance fires only if some body
literal matches an atom that is new since the round before (semi-naive
evaluation), and the instance that first derives an atom is kept as its
witness.  Programs with negation are evaluated stratum by stratum, each
stratum's output becoming the parameter set of the next.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
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
from .parser import Program, RuleTemplate, SourceLoc
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
)

DEFAULT_MAX_ATOMS = 1_000_000
DEFAULT_MAX_ITERS = 10_000
DEFAULT_MAX_DEPTH = 10_000


@dataclass(frozen=True)
class Limits:
    max_atoms: int = DEFAULT_MAX_ATOMS
    max_iters: int = DEFAULT_MAX_ITERS
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


class _AtomIndex:
    """Atoms keyed by functor/arity and by a ground first arg, on first use."""

    def __init__(self, atoms):
        self.all = atoms

    @cached_property
    def _keys(self):
        keys = defaultdict(list)
        for a in self.all:
            keys[a.functor, len(a.args)].append(a)
            if a.args:
                keys[a.functor, len(a.args), a.args[0]].append(a)
        return keys

    def candidates(self, lit: Compound):
        key = (lit.functor, len(lit.args))
        if lit.args and is_ground(lit.args[0]):
            key += (lit.args[0],)
        return self._keys.get(key, ())


def _body_substs(template: RuleTemplate, sources) -> Iterator[Subst]:
    """Matches of the positive body, literal i against the atoms of sources[i]."""
    body = template.pos_body

    def go(i: int, s: Subst) -> Iterator[Subst]:
        if i == len(body):
            yield s
            return
        lit = apply_subst(body[i], s)
        if isinstance(lit, Var):
            raise UncallableLiteralError(
                f"{template.loc}: body literal {body[i].name} is unbound when reached"
            )
        if is_ground(lit):
            if lit in sources[i].all:
                yield from go(i + 1, s)
            return
        for a in sources[i].candidates(lit):
            s2 = match(lit, a, s)
            if s2 is not None:
                yield from go(i + 1, s2)

    yield from go(0, {})


def fired_instances(program: Program, params, current, delta=None) -> Iterator[GroundRule]:
    """Ground instances firing against `current` with parameter set `params`;
    with `delta` (a subset of `current`), only those using an atom of delta."""
    index = _AtomIndex(current if params <= current else current | params)
    new = None if delta is None else _AtomIndex(delta)
    keys = {(a.functor, len(a.args)) for a in delta or ()}
    for t in program.templates:
        # With delta, one pass per body position that delta can match: that
        # literal against delta, the others against all atoms.
        n = len(t.pos_body)
        passes = [(index,) * n] if new is None else [
            (index,) * i + (new,) + (index,) * (n - i - 1)
            for i, lit in enumerate(t.pos_body)
            if isinstance(lit, Var) or (lit.functor, len(lit.args)) in keys
        ]
        for sources in passes:
            for s in _body_substs(t, sources):
                negs = tuple(apply_subst(n, s) for n in t.neg_body)
                bad = [n for n in negs if not is_ground(n)]
                if bad:
                    raise NonGroundNegationError(
                        f"{t.loc}: negative condition {term_to_str(bad[0])} "
                        "is not ground after matching the positive body"
                    )
                if any(n in params for n in negs):
                    continue
                head = apply_subst(t.head, s)
                if not is_ground(head):
                    raise NonGroundHeadError(
                        f"{t.loc}: head {term_to_str(head)} is not ground "
                        "after matching the positive body"
                    )
                body = frozenset(apply_subst(b, s) for b in t.pos_body)
                yield GroundRule(head, body, frozenset(negs), t.loc)


def apply_T(program: Program, params, current, delta=None, why=None) -> frozenset:
    """One application of the consequence operator: params plus fired heads.
    With `delta`, only instances using an atom of delta fire; `why` receives
    the canonically least instance for each head not in `current`."""
    out = set(params)
    for inst in fired_instances(program, params, current, delta):
        out.add(inst.head)
        if why is not None and inst.head not in current:
            # Least rather than first found, so set order cannot change it.
            first = why.setdefault(inst.head, inst)
            if first is not inst and _canonical(inst) < _canonical(first):
                why[inst.head] = inst
    return frozenset(out)


def _canonical(r: GroundRule):
    return sorted(map(sort_key, r.body)), sorted(map(sort_key, r.negs)), str(r.loc)


def _iterate(program: Program, params, limits: Limits, why: dict) -> frozenset:
    """Iteration from the parameters: the first round fires every instance,
    each later one only those using an atom new in the round before."""
    current, delta = params, None
    iters = 0
    while True:
        # Through the module global, so a wrapped apply_T sees every round.
        delta = apply_T(program, params, current, delta, why) - current
        if not delta:
            return current
        current = current | delta
        if len(current) > limits.max_atoms:
            raise ResourceLimitError(
                f"derived-atom cap exceeded ({limits.max_atoms}); not converged",
                partial=current,
            )
        iters += 1
        if iters > limits.max_iters:
            raise ResourceLimitError(
                f"iteration cap exceeded ({limits.max_iters}); not converged",
                partial=current,
            )


def least_fixpoint(program: Program, params, limits: Optional[Limits] = None) -> ModelSet:
    """Least set containing the parameters and closed under the program.

    Allowability of the parameter set is the caller's obligation (see
    components.check_allowable).
    """
    limits = limits or Limits()
    params = frozenset(params)
    negation = any(t.neg_body for t in program.templates)
    if any(isinstance(t.head, Var) for t in program.templates):
        # A bare-variable head makes the head region all of the universe:
        # no nonempty parameter set is allowable and negation cannot refer
        # to anything below the (single) component.
        if params:
            raise VariableHeadRestrictionError(
                "variable-head programs require an empty parameter set"
            )
        if negation:
            raise VariableHeadRestrictionError(
                "variable-head programs cannot use negation"
            )
    strata = stratify_templates(program.templates).strata if negation else (program.templates,)
    current, why = params, {}
    for stratum in strata:
        current = _iterate(Program(stratum), current, limits, why)
    return ModelSet(current, why)


def answers(atoms, goal: Term) -> list[Subst]:
    """All distinct substitutions matching the goal against a model's atoms,
    in the canonical order of the atoms they match."""
    if isinstance(goal, Compound) and goal.functor == "not" and len(goal.args) == 1:
        raise NegativeQueryError(f"cannot query a negation: {term_to_str(goal)}")
    out = []
    seen = set()
    for g in sorted(atoms, key=sort_key):
        s = match(goal, g)
        if s is not None:
            frozen = tuple(sorted(s.items()))
            if frozen not in seen:
                seen.add(frozen)
                out.append(s)
    return out


def query(program: Program, params, goal: Term, limits: Optional[Limits] = None):
    """All substitutions matching the goal against the computed model."""
    return answers(least_fixpoint(program, params, limits).atoms, goal)


def dump_model(atoms) -> str:
    """Canonical model text: one sorted ground term per line."""
    return "".join(f"{term_to_str(t)}.\n" for t in sorted(atoms, key=sort_key))
