"""Construction and verification of justification sequences.

A justification is a finite sequence of propositions, each witnessed either
by parameter membership or by a fired ground rule whose body appears earlier
in the sequence.  Programs with finite models (see _finite) are evaluated
bottom-up, and each atom is witnessed by the rule instance that first
derived it.  Only what the goal depends on is evaluated: the demand rewrite
(see demand.py) finds the true atoms the goal demands, and the program's own
strata derive those again, so each keeps the round and the witness that the
whole evaluation gives it.  Where the rewrite does not apply, or its demand
is infinite, the whole model is evaluated.  The checker reads the negated
atoms of a justification in the same way, and never calls the prover.  The
other programs (metaprograms) go to tabled resolution by call
variant: each call, ground or not, owns a table of answers; a call already
evaluated in the current pass reads its answers so far, and passes repeat
until the tables read stop growing, so the answer depends on neither clause
order nor a search budget.  Negated ground atoms are evaluated to completion
first, which stratification makes exact.  No variable-head rule is applied
to a goal that unifies with a body literal wrapping such a rule's head
(clause(H,B) in H :- clause(H,B), B.), which stops the clause(clause(...))
regress.  The check reads the goal alone, so tables do not depend on the
caller, but a goal of that shape is derived only by the other rules.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Union

from . import demand, engine, errors
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
    apply_subst,
    functor_index,
    is_ground,
    match,
    rename_term,
    resolve,
    sort_key,
    term_to_str,
    unify,
    variables_of,
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


def _variant(t: Term) -> Term:
    """t with its variables renamed #0, #1, ... in order of first occurrence:
    one term per call variant.  No source variable name contains '#', so
    calls and tabled answers never share a variable with a template, and
    templates need no renaming."""
    names = variables_of(t)
    return apply_subst(t, {v: Var(f"#{i}") for i, v in enumerate(names)}) if names else t


class _Tables:
    """Answer tables keyed by call (a goal in _variant form), each answer a
    _variant term mapped to whether it is ground.  A call is complete when
    its evaluation read only complete tables, when it is ground and holds,
    or when a pass that made it added no answer anywhere."""

    def __init__(self, program: Program, params, limits: engine.Limits):
        self.templates = program.templates
        self.candidates = functor_index([t.head for t in self.templates])
        self.params_sorted = sorted(params, key=sort_key)
        self.max_depth = limits.max_depth
        self.tables: dict = {}
        self.complete: set = set()
        # ground answer -> the RuleWitness that first derived it, None for a parameter
        self.why: dict = dict.fromkeys(params)
        self.size = 0  # answers in all tables
        # the body literals that wrap a variable head, for the growth check
        self.wrappers = [b for t in self.templates if isinstance(t.head, Var) for b in t.pos_body
                         if not isinstance(b, Var) and t.head.name in variables_of(b)]
        self.seen: set = set()  # calls evaluated in this pass
        self.partial = False  # the evaluation read a table that may still grow

    def solve(self, goal: Term, depth: int = 0) -> dict:
        """The complete answer table of goal's call."""
        goal = _variant(goal)
        outer, passes = (self.seen, self.partial), 0
        while goal not in self.complete:
            # An infinite answer table grows in every pass, at no depth.
            passes += 1
            if passes > self.max_depth:
                raise ResourceLimitError(f"proof depth cap exceeded ({self.max_depth} passes)")
            self.seen, size = set(), self.size
            self.call(goal, depth)
            if self.size == size:
                self.complete |= self.seen
        self.seen, self.partial = outer
        return self.tables[goal]

    def call(self, goal: Term, depth: int) -> dict:
        """The answers of goal (a call variant) found so far."""
        table = self.tables.setdefault(goal, {})
        if goal in self.complete:
            return table
        if goal in self.seen:
            self.partial = True
            return table
        if depth > self.max_depth:
            raise ResourceLimitError(f"proof depth cap exceeded ({self.max_depth})")
        self.seen.add(goal)
        outer, self.partial = self.partial, False
        ground = is_ground(goal)
        if ground:
            if goal in self.why:
                self._add(table, goal, True)
        else:
            for a in self.params_sorted:
                if unify(goal, a) is not None:
                    self._add(table, a, True)
        # A variable-head rule resolves with any goal; applied to a goal it
        # wraps, it would wrap it again: clause(clause(...), ...) and so on.
        wrapper = any(unify(w, goal) is not None for w in self.wrappers)
        for j in self.candidates(goal):
            if ground and table:
                break
            t = self.templates[j]
            if wrapper and isinstance(t.head, Var):
                continue
            s = unify(t.head, goal)
            if s is not None:
                self._fire(t, s, table, depth)
        done = not self.partial or (ground and bool(table))
        if done:
            self.complete.add(goal)
        self.partial = outer or not done
        return table

    def _fire(self, t: RuleTemplate, s: dict, table: dict, depth: int) -> None:
        """Adds to table the head of each instance of t, extending s, whose
        body holds.  Negative conditions are evaluated to completion, which
        stratification makes exact."""
        substs = [s]
        for lit in t.pos_body:
            joined = []
            for s in substs:
                g = resolve(lit, s)
                if isinstance(g, Var):
                    raise UncallableLiteralError(
                        f"cannot call the unbound variable {term_to_str(g)}"
                    )
                for a, ground in self.call(_variant(g), depth + 1).items():
                    s2 = unify(g, a if ground else rename_term(a, {}), s)
                    if s2 is not None:
                        joined.append(s2)
            substs = joined
        for s in substs:
            negs = tuple(resolve(n, s) for n in t.neg_body)
            for n in negs:
                if not is_ground(n):
                    raise NonGroundNegationError(
                        f"{t.loc}: negative condition {term_to_str(n)} not ground"
                    )
            if any(self.solve(n, depth + 1) for n in negs):
                continue
            h = resolve(t.head, s)
            ground = is_ground(h)
            if ground and h not in self.why:
                body = frozenset(resolve(b, s) for b in t.pos_body)
                if not all(is_ground(b) for b in body):
                    continue  # no ground instance to witness h
                self.why[h] = RuleWitness(h, body, frozenset(negs), t.loc)
            self._add(table, h, ground)

    def _add(self, table: dict, h: Term, ground: bool) -> None:
        a = h if ground else _variant(h)
        if a not in table:
            table[a] = ground
            self.size += 1

    def witness(self, a: Term) -> Optional[RuleWitness]:
        # An atom missing from why is a ground instance of a nonground
        # answer; proving it as a call of its own witnesses it.
        if a not in self.why and not self.solve(a):
            raise IndsemError(f"internal: no witness for {term_to_str(a)}")
        return self.why[a]


def _sequence(goal: Term, witness) -> Justification:
    """Steps for goal: each atom once, after the body atoms (in canonical
    order) of witness(atom), None for a parameter.  The walk keeps its own
    stack, so a justification of any height is built."""
    def frame(a: Term) -> tuple:
        w = witness(a)
        return a, w, iter(sorted(w.body, key=sort_key) if w is not None else ())

    steps, seen, stack = [], {goal}, [frame(goal)]
    while stack:
        a, w, body = stack[-1]
        b = next((b for b in body if b not in seen), None)
        if b is None:
            stack.pop()
            steps.append((a, ParamWitness() if w is None else w))
        else:
            seen.add(b)  # when first reached, so a cyclic table ends the walk
            stack.append(frame(b))
    return Justification(tuple(steps))


def _demanded(program: Program, params, goals, limits: engine.Limits):
    """The rewrite of the goals' demand and the least model of the rewritten
    program, whose atoms include every true atom demanded and no false one;
    None when the rewrite does not apply, builds an infinite demand (fails
    _finite) or is not stratified."""
    rewritten = demand.rewrite(program, goals)
    if rewritten is None or not _finite(rewritten.program):
        return None
    try:
        return rewritten, engine.least_fixpoint(rewritten.program, params | rewritten.seeds,
                                                limits, witnesses=False).atoms
    except errors.UnstratifiableError:
        return None


def _goal_model(program: Program, params, goal: Term, limits: engine.Limits):
    """The part of the least model that goal depends on, with the witnesses
    and rounds the whole evaluation gives them, or None when the demand
    rewrite does not apply.  The demanded true atoms are evaluated again by
    the program's own strata, restricted to the templates goal depends on:
    every instance deriving such an atom has its body among them or the
    parameters, and what negative conditions read is kept whole."""
    strata = engine.strata(program)  # UnstratifiableError for the program itself
    found = _demanded(program, params, [goal], limits)
    if found is None:
        return None
    rewritten, true = found
    if goal not in true:
        return engine.ModelSet(frozenset())
    keep = {id(program.templates[k]) for k in rewritten.relevant}
    strata = [[t for t in stratum if id(t) in keep] for stratum in strata]
    return engine.evaluate(strata, params, limits, within=true)


def prove(
    program: Program, params, goal: Term, limits: Optional[engine.Limits] = None
) -> Optional[Justification]:
    """A justification ending in the goal, or None when the goal is not in
    the defined set; no justification's height is limited.  `_finite`
    programs are evaluated bottom-up under limits.max_atoms: the templates
    the goal depends on, under its demand, or, where the demand rewrite does
    not apply (variable heads or body literals, a demand functor already
    used) or builds an infinite demand, the whole program.  The others go
    to tabled resolution, which ends on a limit (ResourceLimitError) only
    when a chain of calls keeps building new call variants deeper than
    limits.max_depth, or when an answer table keeps growing for more than
    limits.max_depth passes.  The growth check (see the module docstring) is
    its one known gap: under H :- w(H). w(w(w(a))). f(s(X)) :- f(X). it
    misses w(w(a)), w(a), a."""
    if isinstance(goal, Compound) and goal.functor == "not" and len(goal.args) == 1:
        raise NegativeGoalError(f"cannot prove a negation: {term_to_str(goal)}")
    if not is_ground(goal):
        raise IndsemError(f"prove requires a ground goal, got {term_to_str(goal)}")
    limits = limits or engine.Limits()
    params = frozenset(params)
    if _finite(program):
        try:
            model = (_goal_model(program, params, goal, limits)
                     or engine.least_fixpoint(program, params, limits))
        except (errors.UncallableLiteralError, errors.VariableHeadRestrictionError,
                errors.NonGroundHeadError, errors.NonGroundNegationError):
            pass  # not evaluable bottom-up after all
        else:
            return _sequence(goal, model.why.get) if goal in model.atoms else None
    if any(t.neg_body for t in program.templates):
        stratify_templates(program.templates)  # reject unstratifiable programs
    old_limit = sys.getrecursionlimit()  # raised for tabled calls, within a C int
    sys.setrecursionlimit(min(max(old_limit, 20 * limits.max_depth + 10_000), 2**31 - 1))
    try:
        tables = _Tables(program, params, limits)
        return _sequence(goal, tables.witness) if tables.solve(goal) else None
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


def _negated_truth(program: Program, params, negs) -> frozenset:
    """A set holding exactly those of the ground atoms negs that hold: the
    least model under their demand, or, where that rewrite does not apply,
    the whole model of the templates negative conditions read."""
    found = _demanded(program, params, negs, engine.Limits())
    if found is not None:
        return found[1]
    templates = program.templates
    support = demand.depends(templates, [n for t in templates for n in t.neg_body])
    return engine.least_fixpoint(Program(tuple(templates[k] for k in sorted(support))), params,
                                 witnesses=False).atoms


def verify_report(program: Program, params, j: Justification) -> list[str]:
    problems: list[str] = []
    params = frozenset(params)
    effective = None  # which negated atoms of the witnesses hold
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
                    negs = {n for p, w in j.steps if is_ground(p) and not isinstance(w, ParamWitness)
                            for n in w.negs if is_ground(n)}
                    effective = _negated_truth(program, params, negs)
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
