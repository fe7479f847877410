"""Construction and verification of justification sequences.

A justification is a finite sequence of propositions, each witnessed either
by parameter membership or by a fired ground rule whose body appears earlier
in the sequence.  Programs with finite models (see _finite) are evaluated
once bottom-up, and each atom is witnessed by the rule instance that first
derived it.  The others (metaprograms) go to a tabled resolution search:
every ground subgoal is proved at most once, a subgoal already on the call
stack fails at that occurrence, and negative conditions are checked by
failure, which under stratification coincides with testing the stratum's
parameter set.  Nonground subgoals (from variable body literals and
nonground clause/2 facts) resolve against parameter atoms and rule heads,
with a growth check that stops a variable-head rule from rederiving a goal
it just wrapped (the clause(clause(...)) regress).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Union

from . import engine, errors
from .depgraph import recursive_rules, stratify_templates
from .errors import (
    IndsemError,
    NegativeGoalError,
    NonGroundNegationError,
    ResourceLimitError,
    UncallableLiteralError,
)
from .parser import Program, RuleTemplate
from .terms import (
    Compound,
    Term,
    Var,
    functor_index,
    is_ground,
    match,
    rename_term,
    resolve,
    sort_key,
    term_to_str,
    unifiable,
    unify,
)


@dataclass(frozen=True)
class ParamWitness:
    pass


RuleWitness = engine.GroundRule

Witness = Union[ParamWitness, RuleWitness]


@dataclass(frozen=True)
class Justification:
    steps: tuple[tuple[Term, Witness], ...]

    @property
    def final(self) -> Term:
        return self.steps[-1][0]


def _embeds(t: Term, sub: Term) -> bool:
    """True when sub occurs in t (as t itself or any subterm)."""
    if t == sub:
        return True
    if isinstance(t, Compound):
        return any(_embeds(a, sub) for a in t.args)
    return False


def _deepest(terms, depth: int, out: dict) -> dict:
    """Each variable of the terms mapped to the depth of its deepest occurrence."""
    for t in terms:
        if isinstance(t, Var):
            out[t.name] = max(out.get(t.name, 0), depth)
        else:
            _deepest(t.args, depth + 1, out)
    return out


def _finite(program: Program) -> bool:
    """True when, in every recursive rule, each head variable occurs in some
    positive body literal at least as deep as in the head, or in none (such a
    rule stops evaluation on its nonground head if it fires).  Derived atoms
    then stay within a depth set by the parameters and the rules (a rule
    outside every cycle adds its depth once), so the least model is finite."""
    deeper = []
    for t in program.templates:
        body = _deepest(t.pos_body, 0, {})
        deeper.append(any(body.get(v, d) < d for v, d in _deepest((t.head,), 0, {}).items()))
    if not any(deeper):
        return True  # the common case skips the dependency graph
    return not any(d and r for d, r in zip(deeper, recursive_rules(program.templates)))


class _Prover:
    def __init__(self, program: Program, params, limits: engine.Limits):
        self.templates = program.templates
        self.candidates = functor_index([t.head for t in self.templates])
        self.params = frozenset(params)
        self.params_sorted = sorted(self.params, key=sort_key)
        self.limits = limits
        # ground atom -> its RuleWitness, or None for a parameter
        self.table: dict = {}
        self.stack: set = set()

    def _templates_for(self, goal: Term):
        """The templates whose head may unify with goal, in program order."""
        return (self.templates[j] for j in self.candidates(goal))

    def _rename(self, t: RuleTemplate):
        m: dict = {}
        head = rename_term(t.head, m)
        pos = tuple(rename_term(b, m) for b in t.pos_body)
        negs = tuple(rename_term(n, m) for n in t.neg_body)
        return head, pos, negs, t.loc

    def _check_depth(self, depth: int):
        if depth > self.limits.max_depth:
            raise ResourceLimitError(f"proof depth cap exceeded ({self.limits.max_depth})")

    def _negs_fail(self, negs, subst, loc, depth) -> bool:
        """True when some negative condition holds (rule instance blocked)."""
        for n in negs:
            g = resolve(n, subst)
            if not is_ground(g):
                raise NonGroundNegationError(
                    f"{loc}: negative condition {term_to_str(g)} not ground"
                )
            if self._derivable(g, depth):
                return True
        return False

    def _derivable(self, goal: Term, depth: int) -> bool:
        saved = self.stack
        self.stack = set()
        try:
            for _ in self._solve(goal, {}, depth + 1, ()):
                return True
            return False
        finally:
            self.stack = saved

    def prove_ground(self, goal: Term, depth: int) -> bool:
        if goal in self.table:
            return True
        if goal in self.params:
            self.table[goal] = None
            return True
        if goal in self.stack:
            return False
        self._check_depth(depth)
        self.stack.add(goal)
        try:
            for t in self._templates_for(goal):
                # Same growth check as _solve: a variable-head rule applied
                # to a goal that wraps an ancestor (clause(clause(...),true)
                # and the like) would regress through ever-larger goals.
                if isinstance(t.head, Var) and any(
                    _embeds(goal, a) for a in self.stack if a is not goal
                ):
                    continue
                head, pos, negs, loc = self._rename(t)
                s = unify(head, goal)
                if s is None:
                    continue
                for s2 in self._solve_seq(pos, s, depth + 1, ()):
                    if not self._negs_fail(negs, s2, loc, depth) and self._table(goal, pos, negs, loc, s2):
                        return True
            return False
        finally:
            self.stack.discard(goal)

    def _solve(self, goal: Term, subst: dict, depth: int, chain: tuple):
        g = resolve(goal, subst)
        if is_ground(g):
            if self.prove_ground(g, depth):
                yield subst
            return
        if isinstance(g, Var):
            raise UncallableLiteralError(
                f"cannot call the unbound variable {term_to_str(g)}"
            )
        self._check_depth(depth)
        for a in self.params_sorted:
            s2 = unify(g, a, subst)
            if s2 is not None:
                self.table.setdefault(a, None)
                yield s2
        grew = any(_embeds(g, a) for a in chain)
        chain = chain + (g,)
        for t in self._templates_for(g):
            # A variable-head rule resolves with any goal at all, so applying
            # it to a goal that grew around an earlier nonground goal on this
            # chain (clause(clause(...)) and the like) would regress forever.
            if grew and isinstance(t.head, Var):
                continue
            head, pos, negs, loc = self._rename(t)
            s2 = unify(g, head, subst)
            if s2 is None:
                continue
            for s3 in self._solve_seq(pos, s2, depth + 1, chain):
                if self._negs_fail(negs, s3, loc, depth):
                    continue
                # The answer may leave goal variables free for a later
                # literal to bind; table the instance only when it is
                # already ground, witness() reproves the rest.
                h = resolve(head, s3)
                if is_ground(h) and h not in self.table:
                    self._table(h, pos, negs, loc, s3)
                yield s3

    def _table(self, h: Term, pos, negs, loc, subst: dict) -> bool:
        """Tables the instance of a rule for ground h when its body is ground."""
        body = frozenset(resolve(b, subst) for b in pos)
        if all(is_ground(b) for b in body):
            self.table[h] = RuleWitness(h, body, frozenset(resolve(n, subst) for n in negs), loc)
        return h in self.table

    def _solve_seq(self, literals, subst: dict, depth: int, chain: tuple):
        if not literals:
            yield subst
            return
        for s2 in self._solve(literals[0], subst, depth, chain):
            yield from self._solve_seq(literals[1:], s2, depth, chain)

    def witness(self, a: Term) -> Optional[RuleWitness]:
        if a not in self.table and not self.prove_ground(a, 0):
            # Atom solved nonground during the search; reproving its ground
            # instance should have tabled it.
            raise IndsemError(f"internal: no witness for {term_to_str(a)}")
        return self.table[a]


def _sequence(goal: Term, witness, max_depth: int) -> Justification:
    """Steps for goal: each atom after the body atoms (in canonical order) of
    witness(atom), None for a parameter; at most max_depth high.  Recursion
    stays out of C functions such as max(), so deep DAGs spare the C stack."""
    steps: list[tuple[Term, Witness]] = []
    height: dict = {}
    too_deep = ResourceLimitError(f"proof depth cap exceeded ({max_depth})")

    def emit(a: Term, depth: int) -> int:
        if depth > max_depth:
            raise too_deep
        if a not in height:
            height[a] = 1  # set first, so a cyclic table ends the recursion
            w = witness(a)
            for b in sorted(w.body, key=sort_key) if w is not None else ():
                height[a] = max(height[a], 1 + emit(b, depth + 1))
            steps.append((a, ParamWitness() if w is None else w))
        return height[a]

    if emit(goal, 1) > max_depth:
        raise too_deep
    return Justification(tuple(steps))


def prove(
    program: Program, params, goal: Term, limits: Optional[engine.Limits] = None
) -> Optional[Justification]:
    """A justification ending in the goal, or None when the goal is not in
    the defined set.  Programs that fail `_finite` go to the top-down search,
    which is not complete: on a left-recursive object program under the
    vanilla metainterpreter, an underivable goal ends on the depth cap
    (ResourceLimitError) instead of getting None."""
    if isinstance(goal, Compound) and goal.functor == "not" and len(goal.args) == 1:
        raise NegativeGoalError(f"cannot prove a negation: {term_to_str(goal)}")
    if not is_ground(goal):
        raise IndsemError(f"prove requires a ground goal, got {term_to_str(goal)}")
    limits = limits or engine.Limits()
    params = frozenset(params)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 20 * limits.max_depth + 10_000))
    try:
        if _finite(program):
            try:
                model = engine.least_fixpoint(program, params, limits)
            except (
                errors.UncallableLiteralError,
                errors.VariableHeadRestrictionError,
                errors.NonGroundHeadError,
                errors.NonGroundNegationError,
            ):
                pass  # not evaluable bottom-up after all
            else:
                found = goal in model.atoms
                return _sequence(goal, model.why.get, limits.max_depth) if found else None
        if any(t.neg_body for t in program.templates):
            stratify_templates(program.templates)  # reject unstratifiable programs
        prover = _Prover(program, params, limits)
        found = prover.prove_ground(goal, 0)
        return _sequence(goal, prover.witness, limits.max_depth) if found else None
    finally:
        sys.setrecursionlimit(old_limit)


# ---------------------------------------------------------------------------
# Verification, independent of how a justification was produced.
# ---------------------------------------------------------------------------


def _instance_substs(pats, targets, seed):
    """Substitutions instantiating every pattern into the target set while
    covering it exactly."""
    targets = frozenset(targets)

    def go(i, s, used):
        if i == len(pats):
            if used == targets:
                yield s
            return
        for g in targets:
            s2 = match(pats[i], g, s)
            if s2 is not None:
                yield from go(i + 1, s2, used | {g})

    yield from go(0, seed, frozenset())


def _is_ground_instance(t: RuleTemplate, head, body, negs) -> bool:
    s0 = match(t.head, head)
    if s0 is None:
        return False
    for s1 in _instance_substs(t.pos_body, body, s0):
        for _ in _instance_substs(t.neg_body, negs, s1):
            return True
    return False


def _negation_support(templates, candidates) -> Program:
    """The templates whose heads unify with some negated literal, closed
    downward along the dependency edges: all that negative conditions read,
    even when the whole model is infinite."""
    keep, todo = set(), [n for t in templates for n in t.neg_body]
    while todo:
        lit = todo.pop()
        for k in candidates(lit):
            if k not in keep and unifiable(lit, templates[k].head):
                keep.add(k)
                todo.extend(templates[k].pos_body + templates[k].neg_body)
    return Program(tuple(templates[k] for k in sorted(keep)))


def verify_report(program: Program, params, j: Justification) -> list[str]:
    problems: list[str] = []
    params = frozenset(params)
    effective = None  # parameters visible to negative conditions, per stratum
    candidates = functor_index([t.head for t in program.templates])

    prior: set = set()
    for i, (prop, witness) in enumerate(j.steps):
        where = f"step {i + 1} ({term_to_str(prop)})"
        if not is_ground(prop):
            problems.append(f"{where}: proposition is not ground")
            continue
        if isinstance(witness, ParamWitness):
            if prop not in params:
                problems.append(f"{where}: not a parameter")
        else:
            if witness.head != prop:
                problems.append(f"{where}: rule head differs from proposition")
            missing = [b for b in witness.body if b not in prior]
            if missing:
                problems.append(
                    f"{where}: body atom {term_to_str(missing[0])} does not "
                    "appear earlier in the sequence"
                )
            if witness.negs:
                if effective is None:
                    support = _negation_support(program.templates, candidates)
                    effective = engine.least_fixpoint(support, params).atoms
                blocked = sorted(witness.negs & effective, key=sort_key)
                if blocked:
                    problems.append(
                        f"{where}: negative condition {term_to_str(blocked[0])} "
                        "holds in the effective parameter set"
                    )
            if not any(_is_ground_instance(program.templates[k], prop, witness.body, witness.negs)
                       for k in candidates(prop)):
                problems.append(f"{where}: not a ground instance of any rule")
        prior.add(prop)
    return problems


def verify(program: Program, params, j: Justification) -> bool:
    return not verify_report(program, params, j)


def format_justification(j: Justification) -> str:
    lines = []
    for i, (prop, witness) in enumerate(j.steps, start=1):
        if isinstance(witness, ParamWitness):
            lines.append(f"{i}. {term_to_str(prop)}  [param]")
        elif not witness.body and not witness.negs:
            loc = f"  ({witness.loc})" if witness.loc else ""
            lines.append(f"{i}. {term_to_str(prop)}  [fact]{loc}")
        else:
            body = ", ".join(term_to_str(b) for b in sorted(witness.body, key=sort_key))
            tail = f" ; not {', '.join(term_to_str(n) for n in sorted(witness.negs, key=sort_key))}" if witness.negs else ""
            loc = f"  ({witness.loc})" if witness.loc else ""
            lines.append(f"{i}. {term_to_str(prop)}  :- {body}{tail}{loc}")
    return "\n".join(lines)
