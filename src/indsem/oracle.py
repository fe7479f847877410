"""Brute-force reference implementations used for cross-validation.

Everything here is deliberately naive: templates are exhaustively
instantiated over an explicit finite universe, and the least closed set is
computed by literal iteration of the closure condition, with negative
conditions evaluated against a ground-level stratification of the atoms
(for a single valid component this coincides with testing the parameter
set, since negated atoms cannot be heads there).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .engine import GroundRule
from .errors import UniverseTooLargeError, UnstratifiableError
from .parser import Program, RuleTemplate
from .terms import Term, Var, apply_subst, constants_of, is_ground, term_to_str

DEFAULT_INSTANCE_CAP = 500_000


@dataclass(frozen=True)
class FiniteUniverse:
    atoms: frozenset

    @property
    def constants(self) -> frozenset:
        out: set = set()
        for a in self.atoms:
            out |= constants_of(a)
        return frozenset(out)

    def subterms_at(self, paths) -> frozenset:
        """The subterms of the atoms found at any of the argument paths."""
        out: set = set()
        for a in self.atoms:
            for path in paths:
                t = a
                for i in path:
                    if i >= len(t.args):
                        break
                    t = t.args[i]
                else:
                    out.add(t)
        return frozenset(out)


def universe_for(program: Program, params, model_atoms) -> FiniteUniverse:
    """A sound finite universe: the computed output plus the parameters."""
    return FiniteUniverse(frozenset(model_atoms) | frozenset(params))


def _proposition_vars(t: RuleTemplate) -> set[str]:
    """Variables that stand for whole propositions: bare literals or a bare head."""
    out = set()
    if isinstance(t.head, Var):
        out.add(t.head.name)
    for lit in (*t.pos_body, *t.neg_body):
        if isinstance(lit, Var):
            out.add(lit.name)
    return out


def _template_vars(t: RuleTemplate) -> dict[str, set]:
    """Each variable, in order of first occurrence, with the argument paths
    at which it occurs in the head or a literal."""
    seen: dict[str, set] = {}

    def walk(x: Term, path):
        if isinstance(x, Var):
            seen.setdefault(x.name, set()).add(path)
        else:
            for j, a in enumerate(x.args):
                walk(a, (*path, j))

    for term in (t.head, *t.pos_body, *t.neg_body):
        walk(term, ())
    return seen


def preground(
    program: Program, universe: FiniteUniverse, cap: int = DEFAULT_INSTANCE_CAP
) -> frozenset:
    """Every ground instance of every template over the universe.

    Proposition-position variables range over the universe atoms.  Every
    other variable ranges over the constants occurring in them and over the
    subterms they have at the argument paths where the variable occurs, so
    it can stand for a compound argument such as f(a) in p(f(a)).
    """
    atoms = sorted(universe.atoms, key=term_to_str)
    consts = universe.constants
    rules: set[GroundRule] = set()
    for t in program.templates:
        paths = _template_vars(t)
        names = list(paths)
        prop_names = _proposition_vars(t)
        ranges = [
            atoms if v in prop_names
            else sorted(consts | universe.subterms_at(paths[v]), key=term_to_str)
            for v in names
        ]
        count = 1
        for r in ranges:
            count *= max(len(r), 1)
        if count > cap:
            raise UniverseTooLargeError(
                f"{t.loc}: {count} instantiations exceed the cap of {cap}"
            )
        for values in itertools.product(*ranges):
            s = dict(zip(names, values))
            head = apply_subst(t.head, s)
            body = frozenset(apply_subst(b, s) for b in t.pos_body)
            negs = frozenset(apply_subst(n, s) for n in t.neg_body)
            if not is_ground(head):
                continue  # a variable with an empty range
            rules.add(GroundRule(head, body, negs))
    return frozenset(rules)


def _ground_strata(rules: Iterable[GroundRule], params) -> list[set]:
    """Atom strata from the ground dependency graph, bottom-up."""
    atoms: set = set(params)
    for r in rules:
        atoms.add(r.head)
        atoms |= r.body
        atoms |= r.negs
    # Least levels with level(head) >= level(body atom) and
    # level(head) > level(negated atom); divergence means a negation cycle.
    level = {a: 0 for a in atoms}
    for _ in range(len(atoms) + 1):
        changed = False
        for r in rules:
            need = max((level[b] for b in r.body), default=0)
            need = max(need, max((level[x] + 1 for x in r.negs), default=0))
            if level[r.head] < need:
                level[r.head] = need
                changed = True
        if not changed:
            break
    else:
        raise UnstratifiableError("ground rules contain a cycle through negation")
    nlevels = max(level.values(), default=0) + 1
    strata = [set() for _ in range(nlevels)]
    for a, lv in level.items():
        strata[lv].add(a)
    return strata


def naive_least_closed(rules, params) -> frozenset:
    """Least set containing the parameters and closed under the ground rules.

    Negative conditions are settled strictly below the head they guard, so
    within each level they reduce to a fixed membership test.
    """
    rules = list(rules)
    params = frozenset(params)
    strata = _ground_strata(rules, params)
    current: set = set(params)
    for stratum in strata:
        group = [r for r in rules if r.head in stratum]
        changed = True
        while changed:
            changed = False
            for r in group:
                if r.head in current:
                    continue
                if r.body <= current and not (r.negs & current):
                    current.add(r.head)
                    changed = True
    return frozenset(current)


def _is_closed(rules, s) -> bool:
    return all(
        r.head in s or not (r.body <= s and not (r.negs & s)) for r in rules
    )


def minimality_check(rules, params, candidate, max_extra: int = 20) -> bool:
    """Exponential check: candidate contains the parameters, is closed, and
    no proper subset shares both properties."""
    rules = list(rules)
    params = frozenset(params)
    candidate = frozenset(candidate)
    if not params <= candidate:
        return False
    if not _is_closed(rules, candidate):
        return False
    extra = sorted(candidate - params, key=term_to_str)
    if len(extra) > max_extra:
        raise UniverseTooLargeError(
            f"{len(extra)} non-parameter atoms exceed the subset-enumeration cap"
        )
    for mask in range((1 << len(extra)) - 1):
        subset = params | {extra[i] for i in range(len(extra)) if mask >> i & 1}
        if _is_closed(rules, subset):
            return False
    return True
