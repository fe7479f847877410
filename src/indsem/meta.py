"""Metaprogramming support: builtin body-semantics rules, clause/2 fact
synthesis, call/1, and the literal-wrapping transform.

The builtin fragment gives rule bodies a meaning as data: `true.` and
`(A,B) :- A, B.`.  The unstratifiable negation metarule `not(X) :- not(X).`
is deliberately not available.
"""

from __future__ import annotations

from .errors import FunctorCollisionError, NegationInObjectProgramError
from .parser import Program, RuleTemplate, parse_program
from .terms import Compound, Term, functors_of

DEFAULT_WRAP_EXCLUDE = frozenset({("clause", 2)})

_BUILTIN_TEXT = """\
true.
(A,B) :- A, B.
"""

_CALL_TEXT = "call(X) :- X.\n"


def builtin_rules() -> Program:
    """The two body-semantics templates; never auto-included by the engine."""
    return parse_program(_BUILTIN_TEXT, "<builtin>")


def call_rule() -> Program:
    return parse_program(_CALL_TEXT, "<builtin>")


def encode_body(literals: tuple[Term, ...]) -> Term:
    """Body literals as a clause/2 body term: `true` for facts, the literal
    itself for one-literal bodies, a right-nested ','-chain otherwise."""
    if not literals:
        return Compound("true")
    out = literals[-1]
    for lit in reversed(literals[:-1]):
        out = Compound(",", (lit, out))
    return out


def decode_body(body: Term) -> tuple[Term, ...]:
    if body == Compound("true"):
        return ()
    if isinstance(body, Compound) and body.functor == "," and len(body.args) == 2:
        return (body.args[0],) + decode_body(body.args[1])
    return (body,)


def synthesize_clause_facts(obj: Program) -> Program:
    """One clause(Head, Body) fact per object template, in source order.

    Object variables are kept, so the facts are nonground templates that the
    top-down prover instantiates by unification.
    """
    templates = obj.object_templates or obj.templates
    out = []
    for t in templates:
        if t.neg_body:
            raise NegationInObjectProgramError(
                f"{t.loc}: object programs must be negation-free"
            )
        fact = Compound("clause", (t.head, encode_body(t.pos_body)))
        out.append(RuleTemplate(fact, loc=t.loc))
    return Program(tuple(out))


def _wrap_term(t: Term, functor: str, exclude) -> Term:
    if isinstance(t, Compound) and (t.functor, len(t.args)) in exclude:
        return t
    return Compound(functor, (t,))


def wrap(
    program: Program, functor: str, exclude=DEFAULT_WRAP_EXCLUDE
) -> Program:
    """Wrap every head and body literal with a fresh unary functor.

    Negated goals are wrapped inside the negation; excluded name/arity pairs
    (clause/2 by default) pass through untouched.
    """
    used = set()
    for t in program.templates:
        for term in (t.head, *t.pos_body, *t.neg_body):
            used |= functors_of(term)
    if any(name == functor for name, _ in used):
        raise FunctorCollisionError(
            f"wrap functor {functor!r} already occurs in the program"
        )
    out = []
    for t in program.templates:
        out.append(
            RuleTemplate(
                _wrap_term(t.head, functor, exclude),
                tuple(_wrap_term(b, functor, exclude) for b in t.pos_body),
                tuple(_wrap_term(n, functor, exclude) for n in t.neg_body),
                t.loc,
            )
        )
    return Program(tuple(out), program.object_templates)


def wrap_atoms(atoms, functor: str, exclude=DEFAULT_WRAP_EXCLUDE) -> frozenset:
    return frozenset(_wrap_term(a, functor, exclude) for a in atoms)


def assemble_meta(program: Program) -> Program:
    """Program plus builtin rules, call/1, and clause facts for #object clauses."""
    extra = builtin_rules() + call_rule()
    if program.object_templates:
        extra = extra + synthesize_clause_facts(program)
    return Program(program.templates + extra.templates)
