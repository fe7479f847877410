"""Golden CLI outputs for the corpus.

For each tests/corpus/**/*.ind (with --meta under meta/, and --facts where a
.facts file sits next to it), tests/golden/corpus.txt holds the exit code,
stdout and stderr of `model`, of `query` on one nonground goal per head
predicate, and of `explain` on up to 40 model atoms and up to 3 underivable
head candidates.  Any change to what the CLI prints on the corpus shows up
as a diff of that file.

Regenerate it, after checking that the change in output is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
from pathlib import Path

from conftest import CORPUS, META, head_candidates
from indsem import engine, meta
from indsem.cli import main
from indsem.parser import Program, parse_paramset, parse_program
from indsem.terms import Compound, Var, sort_key, term_to_str

TESTS = Path(__file__).parent
GOLDEN = TESTS / "golden" / "corpus.txt"


def _cases():
    """Each corpus program with the options the CLI loads it under."""
    for path in sorted(CORPUS.rglob("*.ind")):
        options = ["--meta"] if path.parent == META else []
        facts = path.with_suffix(".facts")
        if facts.exists():
            options += ["--facts", str(facts.relative_to(TESTS))]
        yield path, [str(path.relative_to(TESTS))] + options


def _goals(path, options):
    """Query goals (one per head predicate) and explain goals for a program."""
    program = parse_program(path.read_text(), path.name)
    facts = path.with_suffix(".facts")
    params = parse_paramset(facts.read_text(), facts.name) if facts.exists() else frozenset()
    loaded = meta.assemble_meta(program) if "--meta" in options else program
    sigs = sorted({(t.head.functor, len(t.head.args))
                   for t in loaded.templates if isinstance(t.head, Compound)})
    queries = [Compound(f, tuple(Var(f"X{i}") for i in range(n))) for f, n in sigs]
    if "--meta" in options:
        # By the metainterpreter's adequacy, the object program's model.
        program = Program(program.object_templates)
    atoms = engine.least_fixpoint(program, params).atoms
    underivable = sorted(head_candidates(program, params, atoms) - atoms, key=sort_key)[:3]
    return queries, sorted(atoms, key=sort_key)[:40] + underivable


def _run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = [f"$ indsem {' '.join(argv)}", f"exit {code}"]
    for name, text in (("stdout", out.getvalue()), ("stderr", err.getvalue())):
        lines.append(f"{name}:")
        lines += [f"| {line}" for line in text.splitlines()]
        if text and not text.endswith("\n"):
            lines.append("\\ no newline at end")
    return "\n".join(lines) + "\n"


def render() -> str:
    """The golden text; paths are relative to the tests directory, the
    working directory it must be rendered from."""
    blocks = []
    for path, args in _cases():
        queries, explained = _goals(path, args)
        blocks.append(_run(["model"] + args))
        blocks += [_run(["query"] + args + ["-q", term_to_str(q)]) for q in queries]
        blocks += [_run(["explain"] + args + ["-q", term_to_str(g)]) for g in explained]
    return "".join(blocks)


def test_corpus_outputs_match_the_golden_file(monkeypatch):
    monkeypatch.chdir(TESTS)
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    os.chdir(TESTS)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), encoding="utf-8")
