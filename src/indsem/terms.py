"""Expression universe: terms, matching, unification, ordering, printing.

Ground terms double as propositions; there is no separate atom/term split.
Integers are ordinary constants whose name is their decimal rendering, and
nothing is ever evaluated arithmetically.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Optional, Union


@dataclass(frozen=True)
class Var:
    """A logic variable; identity is by name within one rule template."""

    name: str

    def __repr__(self):
        return f"Var({self.name})"


@dataclass(frozen=True)
class Compound:
    """Symbol-rooted tree; constants are arity-0 compounds."""

    functor: str
    args: tuple["Term", ...] = ()

    def __post_init__(self):  # hashed once, from the arguments' cached hashes
        object.__setattr__(self, "_hash", hash((self.functor, self.args)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<{term_to_str(self)}>"


Term = Union[Var, Compound]

# The prefix of the parser's name for each occurrence of `_`, printed as `_`.
ANONYMOUS = "_#"


def atom(name: str) -> Compound:
    return Compound(name)


def mk(functor: str, *args: Term) -> Compound:
    return Compound(functor, tuple(args))


def is_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    return all(is_ground(a) for a in t.args)


def variables_of(t: Term) -> list[str]:
    """Variable names of t, in first-occurrence order, without duplicates."""
    seen: dict[str, None] = {}

    def walk(x: Term) -> None:
        if isinstance(x, Var):
            seen.setdefault(x.name)
        else:
            for a in x.args:
                walk(a)

    walk(t)
    return list(seen)


def functors_of(t: Term) -> set[tuple[str, int]]:
    out: set[tuple[str, int]] = set()
    if isinstance(t, Compound):
        out.add((t.functor, len(t.args)))
        for a in t.args:
            out |= functors_of(a)
    return out


def constants_of(t: Term) -> set[Compound]:
    """All arity-0 subterms."""
    out: set[Compound] = set()
    if isinstance(t, Compound):
        if not t.args:
            out.add(t)
        for a in t.args:
            out |= constants_of(a)
    return out


# ---------------------------------------------------------------------------
# Substitution over ground ranges (the engine-side notion).
# ---------------------------------------------------------------------------

Subst = dict  # var name -> Term


def apply_subst(t: Term, s: Subst) -> Term:
    """Replace exactly the mapped variables; unmapped variables remain."""
    if isinstance(t, Var):
        return s.get(t.name, t)
    if not t.args:
        return t
    return Compound(t.functor, tuple(apply_subst(a, s) for a in t.args))


def match(pattern: Term, subject: Term, seed: Optional[Subst] = None) -> Optional[Subst]:
    """One-way match of pattern onto a ground subject, extending seed.

    Returns an extended substitution on success, None on failure.  The
    subject is never instantiated.
    """
    s = dict(seed) if seed else {}

    def go(p: Term, g: Term) -> bool:
        if isinstance(p, Var):
            bound = s.get(p.name)
            if bound is None:
                s[p.name] = g
                return True
            return bound == g
        if isinstance(g, Var):
            return False
        if p.functor != g.functor or len(p.args) != len(g.args):
            return False
        return all(go(pa, ga) for pa, ga in zip(p.args, g.args))

    return s if go(pattern, subject) else None


# ---------------------------------------------------------------------------
# General unification (template-level analyses and the top-down prover).
# Substitutions here are triangular: a binding's value may itself contain
# bound variables, so terms are read through `resolve`.
# ---------------------------------------------------------------------------


def _walk(t: Term, s: Subst) -> Term:
    while isinstance(t, Var) and t.name in s:
        t = s[t.name]
    return t


def _occurs(name: str, t: Term, s: Subst) -> bool:
    t = _walk(t, s)
    if isinstance(t, Var):
        return t.name == name
    return any(_occurs(name, a, s) for a in t.args)


def unify(a: Term, b: Term, seed: Optional[Subst] = None) -> Optional[Subst]:
    s = dict(seed) if seed else {}

    def go(x: Term, y: Term) -> bool:
        x, y = _walk(x, s), _walk(y, s)
        if isinstance(x, Var):
            if isinstance(y, Var) and y.name == x.name:
                return True
            if _occurs(x.name, y, s):
                return False
            s[x.name] = y
            return True
        if isinstance(y, Var):
            if _occurs(y.name, x, s):
                return False
            s[y.name] = x
            return True
        if x.functor != y.functor or len(x.args) != len(y.args):
            return False
        return all(go(xa, ya) for xa, ya in zip(x.args, y.args))

    return s if go(a, b) else None


def resolve(t: Term, s: Subst) -> Term:
    """Deep-apply a triangular substitution."""
    t = _walk(t, s)
    if isinstance(t, Var) or not t.args:
        return t
    return Compound(t.functor, tuple(resolve(a, s) for a in t.args))


_fresh_counter = itertools.count(1)


def rename_term(t: Term, mapping: dict[str, Var]) -> Term:
    if isinstance(t, Var):
        if t.name not in mapping:
            # '#' cannot appear in a source variable name, so no capture.
            mapping[t.name] = Var(f"{t.name}#{next(_fresh_counter)}")
        return mapping[t.name]
    if not t.args:
        return t
    return Compound(t.functor, tuple(rename_term(a, mapping) for a in t.args))


def _add_vars(t: Term, names: set) -> bool:
    """Add t's variable names to names; False at the first one already there."""
    if type(t) is Var:
        if t.name in names:
            return False
        names.add(t.name)
        return True
    return all(_add_vars(a, names) for a in t.args)


def unifiable(a: Term, b: Term) -> bool:
    """Unifiability after standardizing both sides apart, in one walk over
    both terms that keeps each side's variables apart.  A functor/arity clash
    answers False.  Without a variable repeated on its own side the answer is
    True: each variable is then bound once, to the subterm at its position on
    the other side, which shares none of its variables, so neither a conflict
    nor an occurs-check failure can arise.  Only a repeated variable falls
    back to unifying renamed copies."""
    left, right = set(), set()
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if type(x) is Var or type(y) is Var:
            if not (_add_vars(x, left) and _add_vars(y, right)):
                return unify(rename_term(a, {}), rename_term(b, {})) is not None
        elif x.functor != y.functor or len(x.args) != len(y.args):
            return False
        else:
            todo.extend(zip(x.args, y.args))
    return True


def functor_index(terms):
    """Lookup from a query term to the ascending indices of the terms that
    may unify with it: those sharing its functor/arity, and bare variables.
    A bare-variable query gets every index."""
    buckets: dict = {}
    for i, t in enumerate(terms):
        buckets.setdefault(None if isinstance(t, Var) else (t.functor, len(t.args)), []).append(i)
    loose = buckets.pop(None, [])
    buckets = {k: sorted(v + loose) for k, v in buckets.items()}
    every = range(len(terms))
    return lambda q: every if isinstance(q, Var) else buckets.get((q.functor, len(q.args)), loose)


# ---------------------------------------------------------------------------
# Canonical total order on ground terms.
# ---------------------------------------------------------------------------


def sort_key(t: Term):
    """Key realizing the order: functor name, then arity, then args."""
    if type(t) is Var:
        raise ValueError(f"sort_key requires a ground term, got variable {t.name}")
    return (t.functor, len(t.args), tuple([sort_key(a) for a in t.args]))


def compare_ground(a: Term, b: Term) -> int:
    """Total order on ground terms: -1, 0, or 1."""
    ka, kb = sort_key(a), sort_key(b)
    return (ka > kb) - (ka < kb)


# ---------------------------------------------------------------------------
# Canonical text form.
# ---------------------------------------------------------------------------

_UNQUOTED = re.compile(r"[a-z][a-zA-Z0-9_]*|[0-9]+")


def _functor_str(name: str) -> str:
    if _UNQUOTED.fullmatch(name):
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def term_to_str(t: Term) -> str:
    if type(t) is Var:
        return "_" if t.name.startswith(ANONYMOUS) else t.name
    if not t.args:
        return _functor_str(t.functor)
    return f"{_functor_str(t.functor)}({','.join([term_to_str(a) for a in t.args])})"
