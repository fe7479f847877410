"""Command-line front end.

Exit codes: 0 success, 1 semantic error (unstratifiable program, allowability
or composition violations, failed checks, oracle mismatch), 2 parse or I/O
error, 3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import sys

from . import components, engine, justify, meta, oracle
from .errors import AllowabilityError, IndsemError, ParseError, ResourceLimitError
from .parser import Program, parse_paramset, parse_program, parse_query
from .terms import is_ground, term_to_str, variables_of


def _name_arity(text: str) -> tuple[str, int]:
    name, _, arity = text.rpartition("/")
    if not name or not arity.isdigit():
        raise argparse.ArgumentTypeError(f"expected NAME/ARITY, got {text!r}")
    return name, int(arity)


def _positive(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


_OPTIONS = {
    "--facts": dict(action="append", default=[], metavar="FILE",
                    help="parameter-set file (repeatable; union)"),
    "--wrap": dict(metavar="FUNCTOR",
                   help="wrap every literal and parameter with FUNCTOR before evaluation"),
    # append extends a copy of the default, so clause/2 always stays excluded.
    "--exclude-wrap": dict(action="append", type=_name_arity,
                           default=sorted(meta.DEFAULT_WRAP_EXCLUDE), metavar="NAME/ARITY",
                           help="leave NAME/ARITY literals and parameters unwrapped "
                                "(always: clause/2)"),
    "--meta": dict(action="store_true",
                   help="include builtin rules, call/1, and clause/2 facts "
                        "synthesized from #object clauses"),
    "--max-atoms": dict(type=_positive, default=engine.DEFAULT_MAX_ATOMS),
    "--max-depth": dict(type=_positive, default=engine.DEFAULT_MAX_DEPTH),
}
_LOAD = ("--facts", "--wrap", "--exclude-wrap", "--meta")
_EVALUATE = _LOAD + ("--max-atoms",)


def _add_options(p: argparse.ArgumentParser, flags) -> None:
    for flag in flags:
        p.add_argument(flag, **_OPTIONS[flag])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="indsem",
        description="Evaluate logic programs as parameterized inductive definitions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="compute and dump the least model")
    p.add_argument("programs", nargs="+", metavar="PROGRAM")
    _add_options(p, _EVALUATE)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check the model against the brute-force oracle")

    p = sub.add_parser("query", help="enumerate answers for a query")
    p.add_argument("programs", nargs="+", metavar="PROGRAM")
    p.add_argument("-q", "--query", required=True)
    _add_options(p, _EVALUATE)
    p.add_argument("--oracle", action="store_true")

    p = sub.add_parser("explain", help="print a justification for a ground goal")
    p.add_argument("programs", nargs="+", metavar="PROGRAM")
    p.add_argument("-q", "--query", required=True)
    # Evaluates under the default --max-atoms; takes no flag for it.
    _add_options(p, _LOAD + ("--max-depth",))

    p = sub.add_parser("strata", help="print the stratification")
    p.add_argument("programs", nargs="+", metavar="PROGRAM")
    _add_options(p, ("--wrap", "--exclude-wrap", "--meta"))

    p = sub.add_parser("check", help="allowability, stratification, and "
                                     "composition-precondition report")
    p.add_argument("programs", nargs="+", metavar="PROGRAM",
                   help="one program, or upper and lower for a composition check")
    _add_options(p, _LOAD)

    p = sub.add_parser("compose", help="evaluate upper over the lower component's output")
    p.add_argument("upper", metavar="UPPER")
    p.add_argument("lower", metavar="LOWER")
    # No --meta: the builtin rules would land in both components.
    _add_options(p, ("--facts", "--wrap", "--exclude-wrap", "--max-atoms"))
    p.set_defaults(meta=False)
    p.add_argument("--verify-union", action="store_true",
                   help="also evaluate the union program and require agreement")

    p = sub.add_parser("repl", help="interactive query loop")
    p.add_argument("programs", nargs="+", metavar="PROGRAM")
    _add_options(p, _EVALUATE + ("--max-depth",))
    return ap


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_program(paths, args) -> Program:
    prog = Program()
    for path in paths:
        prog = prog + parse_program(_read(path), path)
    if args.meta:
        prog = meta.assemble_meta(prog)
    if args.wrap:
        prog = meta.wrap(prog, args.wrap, frozenset(args.exclude_wrap))
    return prog


def _load_params(args):
    out = frozenset()
    for path in args.facts:
        out |= parse_paramset(_read(path), path)
    if args.wrap:
        out = meta.wrap_atoms(out, args.wrap, frozenset(args.exclude_wrap))
    return out


def _limits(args) -> engine.Limits:
    """The limits the subcommand takes; the others keep their defaults."""
    return engine.Limits(**{k: v for k, v in vars(args).items() if k.startswith("max_")})


def _load_checked(args):
    """The program and the parameter set of a single-program command, with
    the parameter set required to be allowable."""
    prog = _load_program(args.programs, args)
    params = _load_params(args)
    report = components.check_allowable(prog, params)
    if not report.ok:
        raise AllowabilityError(report)
    return prog, params


def _print_answers(goal, answers) -> None:
    if is_ground(goal):
        print("true." if answers else "false.")
        return
    names = variables_of(goal)
    for s in answers:
        print(", ".join(f"{n} = {term_to_str(s[n])}" for n in names if n in s))


def _oracle_check(prog, params, atoms, out=sys.stderr) -> bool:
    universe = oracle.universe_for(prog, params, atoms)
    rules = oracle.preground(prog, universe)
    reference = oracle.naive_least_closed(rules, params)
    if reference == atoms:
        return True
    for t in sorted(atoms - reference, key=term_to_str):
        print(f"engine only: {term_to_str(t)}", file=out)
    for t in sorted(reference - atoms, key=term_to_str):
        print(f"oracle only: {term_to_str(t)}", file=out)
    return False


def _cmd_model(args) -> int:
    prog, params = _load_checked(args)
    model = engine.least_fixpoint(prog, params, _limits(args))
    sys.stdout.write(engine.dump_model(model.atoms))
    if args.oracle and not _oracle_check(prog, params, model.atoms):
        return 1
    return 0


def _cmd_query(args) -> int:
    prog, params = _load_checked(args)
    goal = parse_query(args.query)
    model = engine.least_fixpoint(prog, params, _limits(args))
    _print_answers(goal, engine.answers(model.atoms, goal))
    if args.oracle and not _oracle_check(prog, params, model.atoms):
        return 1
    return 0


def _cmd_explain(args) -> int:
    prog, params = _load_checked(args)
    goal = parse_query(args.query)
    j = justify.prove(prog, params, goal, _limits(args))
    if j is None:
        print(f"no justification for {term_to_str(goal)}", file=sys.stderr)
        return 1
    print(justify.format_justification(j))
    return 0


def _cmd_strata(args) -> int:
    prog = _load_program(args.programs, args)
    strat = components.stratify(prog)
    for i, stratum in enumerate(strat.strata):
        locs = ", ".join(str(t.loc) for t in stratum)
        print(f"stratum {i}: {locs}")
    return 0


def _cmd_check(args) -> int:
    if len(args.programs) > 2 or (args.meta and len(args.programs) == 2):
        print("check takes one program, or upper and lower without --meta",
              file=sys.stderr)
        return 2
    progs = [_load_program([p], args) for p in args.programs]
    params = _load_params(args)
    ok = True
    whole = progs[0] if len(progs) == 1 else progs[0] + progs[1]

    report = components.check_allowable(whole, params)
    if report.ok:
        print("allowability: ok")
    else:
        ok = False
        print(f"allowability: {len(report.violations)} violation(s)")
        for v in report.violations:
            print(f"  {v}", file=sys.stderr)

    try:
        strat = components.stratify(whole)
        print(f"stratification: ok ({len(strat.strata)} strata)")
    except IndsemError as exc:
        ok = False
        print("stratification: unstratifiable")
        print(f"  {exc}", file=sys.stderr)

    for w in components.nested_negation_warnings(whole):
        print(f"warning: {w}", file=sys.stderr)

    if len(progs) == 2:
        pairs = components.composition_conflicts(*progs)
        if pairs:
            ok = False
            print(f"composition precondition: {len(pairs)} violation(s)")
            for head, term, where in pairs:
                print(f"  head {head} unifies with {term} ({where})", file=sys.stderr)
        else:
            print("composition precondition: ok")
    return 0 if ok else 1


def _cmd_compose(args) -> int:
    upper = _load_program([args.upper], args)
    lower = _load_program([args.lower], args)
    params = _load_params(args)
    model = components.compose(upper, lower, params, _limits(args),
                               verify_union=args.verify_union)
    sys.stdout.write(engine.dump_model(model.atoms))
    return 0


def _cmd_repl(args) -> int:
    prog, params = _load_checked(args)
    cache = {}

    def model():
        if "m" not in cache:
            cache["m"] = engine.least_fixpoint(prog, params, _limits(args))
        return cache["m"]

    while True:
        try:
            line = input("indsem> ").strip()
        except EOFError:
            return 0
        if not line:
            continue
        try:
            if line in ("quit.", "quit", "halt."):
                return 0
            if line.startswith("?-"):
                goal = parse_query(line[2:].strip())
                _print_answers(goal, engine.answers(model().atoms, goal))
            elif line.startswith("explain "):
                goal = parse_query(line[len("explain "):].strip())
                j = justify.prove(prog, params, goal, _limits(args))
                if j is None:
                    print(f"no justification for {term_to_str(goal)}")
                else:
                    print(justify.format_justification(j))
            else:
                print("commands: ?- <query>.   explain <ground term>.   quit.")
        except IndsemError as exc:
            print(f"error: {exc}", file=sys.stderr)
        except RecursionError:
            _print_recursion_error()


_COMMANDS = {
    "model": _cmd_model,
    "query": _cmd_query,
    "explain": _cmd_explain,
    "strata": _cmd_strata,
    "check": _cmd_check,
    "compose": _cmd_compose,
    "repl": _cmd_repl,
}


def _print_recursion_error() -> None:
    # Term code recurses on nesting depth; a deep term is a resource limit.
    print(f"error: term nested beyond the recursion limit ({sys.getrecursionlimit()})",
          file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        _print_recursion_error()
        return 3
    except IndsemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
