"""Component analyses: head/body/negative sets, allowability, stratification,
composition of components, and model satisfaction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import engine
from .depgraph import Stratification, stratify_templates
from .errors import (
    AllowabilityError,
    CompositionMismatchError,
    CompositionPreconditionError,
)
from .parser import Program
from .terms import Term, functor_index, term_to_str, unifiable


@dataclass(frozen=True)
class ComponentSignature:
    head_templates: frozenset
    body_templates: frozenset
    neg_templates: frozenset


def signature(program: Program) -> ComponentSignature:
    heads = frozenset(t.head for t in program.templates)
    bodies = frozenset(b for t in program.templates for b in t.pos_body)
    negs = frozenset(n for t in program.templates for n in t.neg_body)
    return ComponentSignature(heads, bodies, negs)


def ground_projection(sig: ComponentSignature, universe) -> tuple[set, set, set]:
    """Slice of the (infinite) template sets visible in a finite atom universe."""

    def visible(templates):
        templates = list(templates)
        candidates = functor_index(templates)
        return {a for a in universe if any(unifiable(a, templates[j]) for j in candidates(a))}

    return visible(sig.head_templates), visible(sig.body_templates), visible(sig.neg_templates)


@dataclass(frozen=True)
class AllowabilityViolation:
    atom: Term
    head: Term
    where: str

    def __str__(self):
        return (
            f"parameter {term_to_str(self.atom)} unifies with head "
            f"{term_to_str(self.head)} ({self.where})"
        )


@dataclass(frozen=True)
class AllowabilityReport:
    violations: tuple[AllowabilityViolation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "allowable"
        return "\n".join(str(v) for v in self.violations)


def check_allowable(program: Program, params) -> AllowabilityReport:
    """A parameter set is allowable when no atom unifies with any head template."""
    templates = program.templates
    candidates = functor_index([t.head for t in templates])
    violations = []
    for a in sorted(params, key=lambda t: term_to_str(t)):
        for t in (templates[j] for j in candidates(a)):
            if unifiable(a, t.head):
                violations.append(AllowabilityViolation(a, t.head, str(t.loc)))
    return AllowabilityReport(tuple(violations))


def stratify(program: Program) -> Stratification:
    """Partition templates into dependency strata; raises UnstratifiableError
    when negation occurs inside a recursive component."""
    return stratify_templates(program.templates)


def composition_conflicts(upper: Program, lower: Program) -> list[tuple[str, str, str]]:
    """Violations of the composition precondition, as (upper head, lower
    template, where) strings: every head of the upper program that unifies
    with a head or body template of the lower one.  Empty when composition
    is sound."""
    lower_terms = [(t.head, f"head at {t.loc}") for t in lower.templates]
    lower_terms += [
        (b, f"body at {t.loc}") for t in lower.templates for b in t.pos_body
    ]
    candidates = functor_index([term for term, _ in lower_terms])
    return [
        (term_to_str(t.head), term_to_str(term), where)
        for t in upper.templates
        for term, where in (lower_terms[j] for j in candidates(t.head))
        if unifiable(t.head, term)
    ]


def compose(
    upper: Program,
    lower: Program,
    params,
    limits: Optional[engine.Limits] = None,
    verify_union: bool = False,
) -> engine.ModelSet:
    """Evaluate the lower component, then feed its output to the upper one.

    Sound when no head of the upper program unifies with any head or body
    template of the lower one; with verify_union the union program is also
    evaluated and checked for exact agreement.
    """
    pairs = composition_conflicts(upper, lower)
    if pairs:
        raise CompositionPreconditionError(pairs)

    # The union holds the lower templates, so its violations include theirs.
    union = Program(upper.templates + lower.templates)
    report = check_allowable(union, params)
    if not report.ok:
        raise AllowabilityError(report)

    inner = engine.least_fixpoint(lower, params, limits)
    outer = engine.least_fixpoint(upper, inner.atoms, limits)
    if verify_union:
        direct = engine.least_fixpoint(union, params, limits)
        if direct.atoms != outer.atoms:
            diff = direct.atoms ^ outer.atoms
            shown = ", ".join(sorted(term_to_str(t) for t in diff))
            raise CompositionMismatchError(
                f"union evaluation disagrees with chained evaluation on: {shown}"
            )
    return engine.ModelSet(outer.atoms, {**inner.why, **outer.why})


def satisfies(model, program: Program, limits: Optional[engine.Limits] = None) -> bool:
    """Head-restricted model check: the model must agree with the least set
    seeded by its own non-head body atoms, on the head region."""
    sig = signature(program)
    heads, bodies, _ = ground_projection(sig, model)
    fixed = engine.least_fixpoint(program, frozenset(bodies - heads), limits, witnesses=False)
    return ground_projection(sig, fixed.atoms)[0] == heads


def nested_negation_warnings(program: Program) -> list[str]:
    """Negated goals that are themselves not/1-rooted (not(not(G)) in source)."""
    out = []
    for t in program.templates:
        for n in t.neg_body:
            if getattr(n, "functor", None) == "not" and len(n.args) == 1:
                out.append(
                    f"{t.loc}: nested negation not({term_to_str(n)}) has no "
                    "stratified meaning"
                )
    return out
