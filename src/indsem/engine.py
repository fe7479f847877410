"""Bottom-up evaluation: the one-step consequence operator and its fixpoint.

Templates are grounded on demand: positive body literals are matched left to
right against the growing atom set (derived atoms plus parameters), negative
conditions are tested against the parameter set only, and the resulting head
must be ground.  Programs with negation are evaluated stratum by stratum,
each stratum's output becoming the parameter set of the next.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
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
from .parser import Program, RuleTemplate
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


@dataclass(frozen=True)
class ModelSet:
    atoms: frozenset
    derivation_count: int = 0


class _AtomIndex:
    """Atoms keyed by functor/arity and additionally by a ground first arg."""

    def __init__(self, atoms):
        self.all = atoms
        self.by_fa = defaultdict(list)
        self.by_first = defaultdict(list)
        for a in atoms:
            key = (a.functor, len(a.args))
            self.by_fa[key].append(a)
            if a.args:
                self.by_first[(a.functor, len(a.args), a.args[0])].append(a)

    def candidates(self, lit: Compound):
        if lit.args and is_ground(lit.args[0]):
            return self.by_first.get((lit.functor, len(lit.args), lit.args[0]), ())
        return self.by_fa.get((lit.functor, len(lit.args)), ())


def _body_substs(
    template: RuleTemplate, index: _AtomIndex, seed: Optional[Subst] = None
) -> Iterator[Subst]:
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
            if lit in index.all:
                yield from go(i + 1, s)
            return
        for a in index.candidates(lit):
            s2 = match(lit, a, s)
            if s2 is not None:
                yield from go(i + 1, s2)

    yield from go(0, seed or {})


def fired_instances(program: Program, params, current) -> Iterator[tuple[RuleTemplate, GroundRule]]:
    """Ground instances firing against `current` with parameter set `params`."""
    index = _AtomIndex(current | params)
    for t in program.templates:
        for s in _body_substs(t, index):
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
            body = tuple(apply_subst(b, s) for b in t.pos_body)
            yield t, GroundRule(head, frozenset(body), frozenset(negs))


def apply_T(program: Program, params, current) -> frozenset:
    """One application of the consequence operator: params plus fired heads."""
    out = set(params)
    for _, inst in fired_instances(program, params, current):
        out.add(inst.head)
    return frozenset(out)


def _has_bare_variable_head(program: Program) -> bool:
    return any(isinstance(t.head, Var) for t in program.templates)


def _iterate(program: Program, params, limits: Limits) -> ModelSet:
    current = frozenset()
    iters = 0
    while True:
        nxt = apply_T(program, params, current)
        if len(nxt) > limits.max_atoms:
            raise ResourceLimitError(
                f"derived-atom cap exceeded ({limits.max_atoms}); not converged",
                partial=nxt,
            )
        if nxt == current:
            return ModelSet(current, iters)
        iters += 1
        if iters > limits.max_iters:
            raise ResourceLimitError(
                f"iteration cap exceeded ({limits.max_iters}); not converged",
                partial=nxt,
            )
        current = nxt


def least_fixpoint(program: Program, params, limits: Optional[Limits] = None) -> ModelSet:
    """Least set containing the parameters and closed under the program.

    Allowability of the parameter set is the caller's obligation (see
    components.check_allowable).
    """
    limits = limits or Limits()
    params = frozenset(params)
    if _has_bare_variable_head(program):
        # A bare-variable head makes the head region all of the universe:
        # no nonempty parameter set is allowable and negation cannot refer
        # to anything below the (single) component.
        if params:
            raise VariableHeadRestrictionError(
                "variable-head programs require an empty parameter set"
            )
        if any(t.neg_body for t in program.templates):
            raise VariableHeadRestrictionError(
                "variable-head programs cannot use negation"
            )
        return _iterate(program, params, limits)
    if not any(t.neg_body for t in program.templates):
        return _iterate(program, params, limits)

    strat = stratify_templates(program.templates)
    current = params
    total = 0
    for stratum in strat.strata:
        m = _iterate(Program(stratum), current, limits)
        current = m.atoms
        total += m.derivation_count
    return ModelSet(current, total)


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
