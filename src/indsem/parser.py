"""Program text ingestion: tokenizer, term/clause parser, facts and queries.

Syntax is deliberately small: `:-`, `,`, `not(...)`, `%` comments, clauses
terminated by `.` followed by whitespace or end of input.  Each `_` is a
variable of its own, named `_#1`, `_#2`, ... (no source variable contains
`#`), which `term_to_str` prints as `_` again.  A `#object`
directive routes all following clauses into the object program (consumed by
the meta module).  Parenthesized comma groups are conjunctions when they
occur as body items and `','/2` compounds everywhere else, so the head of
`(A,B) :- A, B.` is an ordinary compound.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Optional

from .errors import NonGroundParameterError, ParseError
from .terms import ANONYMOUS, Compound, Term, Var, is_ground, term_to_str


@dataclass(frozen=True)
class SourceLoc:
    filename: str = "<string>"
    line: int = 0

    def __str__(self):
        return f"{self.filename}:{self.line}"


@dataclass(frozen=True)
class RuleTemplate:
    """A clause: template for the set of its ground instances.

    neg_body stores the negated goals themselves, with the `not/1` wrapper
    already stripped.
    """

    head: Term
    pos_body: tuple[Term, ...] = ()
    neg_body: tuple[Term, ...] = ()
    loc: SourceLoc = SourceLoc()

    @property
    def is_fact(self) -> bool:
        return not self.pos_body and not self.neg_body


@dataclass(frozen=True)
class Program:
    templates: tuple[RuleTemplate, ...] = ()
    object_templates: tuple[RuleTemplate, ...] = ()

    def __add__(self, other: "Program") -> "Program":
        return Program(
            self.templates + other.templates,
            self.object_templates + other.object_templates,
        )


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+)
    | (?P<COMMENT>%[^\n]*)
    | (?P<ARROW>:-)
    | (?P<LP>\()
    | (?P<RP>\))
    | (?P<COMMA>,)
    | (?P<DOT>\.)
    | (?P<VAR>[A-Z_][A-Za-z0-9_]*)
    | (?P<NAME>[a-z][A-Za-z0-9_]*)
    | (?P<INT>[0-9]+)
    | (?P<QUOTED>'(?:[^'\\]|\\.)*')
    | (?P<DIRECTIVE>\#[A-Za-z_]+)
    """,
    re.VERBOSE,
)


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str, filename: str) -> list[_Token]:
    tokens = []
    pos, line, linestart = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", filename, line, pos - linestart + 1
            )
        kind = m.lastgroup
        chunk = m.group()
        col = pos - linestart + 1
        if kind == "DOT":
            nxt = text[m.end() : m.end() + 1]
            if nxt and not nxt.isspace() and nxt != "%":
                raise ParseError(
                    "clause terminator '.' must be followed by whitespace",
                    filename,
                    line,
                    col,
                )
        if kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, chunk, line, col))
        nl = chunk.count("\n")
        if nl:
            line += nl
            linestart = pos + chunk.rfind("\n") + 1
        pos = m.end()
    tokens.append(_Token("EOF", "", line, len(text) - linestart + 1))
    return tokens


def _unquote(text: str) -> str:
    body = text[1:-1]
    return re.sub(r"\\(.)", r"\1", body)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, filename: str):
        self.filename = filename
        self.tokens = _tokenize(text, filename)
        self.i = 0
        self.anonymous = itertools.count(1)

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {kind}, found {tok.kind} {tok.text!r}", tok)
        return self.next()

    def fail(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, self.filename, tok.line, tok.col)

    # -- terms --------------------------------------------------------------

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "VAR":
            self.next()
            return Var(f"{ANONYMOUS}{next(self.anonymous)}" if tok.text == "_" else tok.text)
        if tok.kind in ("NAME", "INT", "QUOTED"):
            self.next()
            name = _unquote(tok.text) if tok.kind == "QUOTED" else tok.text
            if not name:
                self.fail("empty atom name", tok)
            if self.peek().kind == "LP":
                self.next()
                args = [self.term()]
                while self.peek().kind == "COMMA":
                    self.next()
                    args.append(self.term())
                self.expect("RP")
                return Compound(name, tuple(args))
            return Compound(name)
        if tok.kind == "LP":
            self.next()
            items = [self.term()]
            while self.peek().kind == "COMMA":
                self.next()
                items.append(self.term())
            self.expect("RP")
            # (a,b,c) reads as the right-nested ','-compound.
            out = items[-1]
            for it in reversed(items[:-1]):
                out = Compound(",", (it, out))
            return out
        self.fail(f"expected a term, found {tok.kind} {tok.text!r}", tok)

    # -- clauses ------------------------------------------------------------

    def body_items(self, pos: list[Term], neg: list[Term], stop: str) -> None:
        while True:
            self.body_item(pos, neg)
            if self.peek().kind == "COMMA":
                self.next()
                continue
            break
        if self.peek().kind != stop:
            self.fail(f"expected {stop} after body")

    def body_item(self, pos: list[Term], neg: list[Term]) -> None:
        tok = self.peek()
        if tok.kind == "LP":
            # Parenthesized conjunction in body position: flatten.
            self.next()
            self.body_items(pos, neg, "RP")
            self.expect("RP")
            return
        t = self.term()
        if isinstance(t, Compound) and t.functor == "not":
            if len(t.args) != 1:
                self.fail(f"not/{len(t.args)} in body; negation is not/1 only", tok)
            neg.append(t.args[0])
        else:
            pos.append(t)

    def clause(self) -> RuleTemplate:
        start = self.peek()
        head = self.term()
        pos: list[Term] = []
        neg: list[Term] = []
        if self.peek().kind == "ARROW":
            self.next()
            self.body_items(pos, neg, "DOT")
        self.expect("DOT")
        return RuleTemplate(
            head, tuple(pos), tuple(neg), SourceLoc(self.filename, start.line)
        )


def parse_program(text: str, filename: str = "<string>") -> Program:
    p = _Parser(text, filename)
    templates: list[RuleTemplate] = []
    object_templates: list[RuleTemplate] = []
    target = templates
    while p.peek().kind != "EOF":
        tok = p.peek()
        if tok.kind == "DIRECTIVE":
            p.next()
            if tok.text == "#object":
                target = object_templates
            else:
                p.fail(f"unknown directive {tok.text}", tok)
            continue
        target.append(p.clause())
    return Program(tuple(templates), tuple(object_templates))


def parse_paramset(text: str, filename: str = "<string>") -> frozenset[Term]:
    p = _Parser(text, filename)
    out = []
    while p.peek().kind != "EOF":
        tok = p.peek()
        t = p.term()
        p.expect("DOT")
        if not is_ground(t):
            raise NonGroundParameterError(
                f"parameter {term_to_str(t)} is not ground", filename, tok.line, tok.col
            )
        out.append(t)
    return frozenset(out)


def parse_query(text: str, filename: str = "<query>") -> Term:
    p = _Parser(text, filename)
    t = p.term()
    if p.peek().kind == "DOT":
        p.next()
    if p.peek().kind != "EOF":
        p.fail("trailing input after query")
    return t


def parse_term(text: str) -> Term:
    return parse_query(text, "<term>")


# ---------------------------------------------------------------------------
# Printing (inverse of parsing, up to whitespace)
# ---------------------------------------------------------------------------


def template_to_str(t: RuleTemplate) -> str:
    if t.is_fact:
        return f"{term_to_str(t.head)}."
    lits = [term_to_str(b) for b in t.pos_body]
    lits += [f"not({term_to_str(n)})" for n in t.neg_body]
    return f"{term_to_str(t.head)} :- {', '.join(lits)}."


def program_to_str(p: Program) -> str:
    lines = [template_to_str(t) for t in p.templates]
    if p.object_templates:
        lines.append("#object")
        lines += [template_to_str(t) for t in p.object_templates]
    return "\n".join(lines) + ("\n" if lines else "")
