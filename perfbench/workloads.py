"""Workload generators for the indsem benchmark, with independent references.

Every op is one `indsem` CLI command.  Its input files are generated from the
workload seed and the op's position in the sequence, so the same seed gives
the same inputs.  No two ops share a program file or a constant: the prover
memoises bottom-up models per program and parameter set, and repeated inputs
would turn later ops into cache hits.

A workload is a sequence of cycles.  A cycle holds one op per op class and
grid size, so every cycle, or every pair where odd cycles use a second grid,
does the same kind and amount of work; the seed picks the graphs, programs,
goals, constant names and the order of the ops.

References are computed here, never by indsem: BFS reachability for
transitive closure, direct evaluation of the layered-negation and
requirement-DAG generators, and a structural check of printed
justifications.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

RIGHT_TC = "tc(X,Y) :- edge(X,Y).\ntc(X,Y) :- edge(X,Z), tc(Z,Y).\n"
LEFT_TC = "tc(X,Y) :- edge(X,Y).\ntc(X,Y) :- tc(X,Z), edge(Z,Y).\n"
TC_RULES = {"right": RIGHT_TC, "left": LEFT_TC}
METAINTERPRETER = "H :- clause(H,Body), Body.\n"

# Size grids.  Every cycle holds one op per op class and grid size, so all
# cycles do the same amount of work; the seed picks the graphs, programs,
# goals, constant names and the order of the ops.  Sizes are fixed rather
# than drawn per op, since drawn sizes add their own spread to the timings
# of different seeds.  Where a grid has few points, odd cycles take the
# points halfway between, so that a run covers twice as many sizes: op
# times bunched at a few values make the percentiles jump between them.
CLOSURE_CHAIN = (14, 16, 18, 20)    # edges
CLOSURE_GNM = (16, 18, 20, 22)      # nodes, with 2 edges per node
STRATA_TEMPLATES = ((50, 75, 100, 125, 150), (62, 87, 112, 137, 162))
# Predicates per layer: deep and narrow, or shallow and wide.  Fixed rather
# than drawn, since the width moves an op's time by up to a half.
STRATA_WIDTHS = (4, 8)
# Chains on both sides of the prover's candidate-model cap (1,000 atoms,
# first exceeded at 44 edges): an even grid over about 20..60 edges, two of
# the five points of each cycle above it.
EXPLAIN_CHAIN = ((23, 31, 39, 47, 55), (27, 35, 43, 51, 59))
EXPLAIN_META_CHAIN = 10
CROSS_GNM = ((10, 13, 16, 19), (11, 14, 17, 20))  # nodes, 1.5 edges per node
CROSS_LAYERED = (18, 30)            # templates, 4 predicates per layer

WORKLOADS = ("closure", "strata", "explain", "crosscheck")


Check = Callable[[int, str, str], Optional[str]]


@dataclass
class Op:
    """One CLI command with its generated input files and its reference."""

    cls: str
    argv: list
    files: dict
    check: Check


class _Namer:
    """Fresh file names and constants for one op."""

    def __init__(self, workdir: str, index: int):
        self.base = f"{workdir}/op{index:06d}"
        self.tag = f"k{index}x"

    def const(self, i) -> str:
        return f"{self.tag}{i}"

    def path(self, suffix: str) -> str:
        return f"{self.base}{suffix}"


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def reachability(edges) -> dict:
    """Source -> set of nodes reachable by a path of one or more edges."""
    succ: dict = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    out = {}
    for s in succ:
        seen: set = set()
        queue = deque(succ[s])
        while queue:
            v = queue.popleft()
            if v in seen:
                continue
            seen.add(v)
            queue.extend(succ.get(v, ()))
        out[s] = seen
    return out


def _split_top(text: str, sep: str = ", ") -> list:
    """Split at separators outside parentheses and quotes."""
    parts, depth, quoted, start, i = [], 0, False, 0, 0
    while i < len(text):
        ch = text[i]
        if quoted:
            if ch == "\\":
                i += 1
            elif ch == "'":
                quoted = False
        elif ch == "'":
            quoted = True
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            start = i + len(sep)
            i = start
            continue
        i += 1
    parts.append(text[start:])
    return parts


def _atom_key(text: str):
    """Canonical dump order for atoms whose arguments are plain constants."""
    name, _, rest = text.partition("(")
    args = tuple(rest[:-1].split(",")) if rest else ()
    return (name, len(args), args)


def check_lines(code, out, err, expected: list, ordered_by=None) -> Optional[str]:
    """Exit 0, nothing on stderr, and exactly the expected lines: in the
    order `ordered_by` sorts them, or else in the order given."""
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    if err:
        return f"unexpected stderr: {err.strip()[:200]}"
    lines = out.splitlines()
    if ordered_by is None:
        return None if lines == expected else f"printed {lines[:3]}, expected {expected[:3]}"
    if len(lines) != len(expected) or set(lines) != set(expected):
        missing = sorted(set(expected) - set(lines))[:3]
        extra = sorted(set(lines) - set(expected))[:3]
        return f"{len(lines)} lines, expected {len(expected)}; missing {missing} extra {extra}"
    if lines != sorted(lines, key=ordered_by):
        return "lines not in canonical order"
    return None


def _dump_key(line: str):
    return _atom_key(line[:-1])


def _answer_key(line: str):
    return _atom_key(line.partition(" = ")[2])


def check_justification(out: str, goal: str, params, truth) -> Optional[str]:
    """The printed sequence ends in the goal, numbers its lines 1..n, cites
    only input facts as parameters, puts every body atom of a rule step on an
    earlier line, and claims nothing the reference says is false.

    `truth(atom)` returns True, False, or None when the reference does not
    cover the atom.
    """
    lines = out.splitlines()
    if not lines:
        return "empty justification"
    earlier: set = set()
    prop = None
    for n, line in enumerate(lines, start=1):
        num, _, rest = line.partition(". ")
        if num != str(n):
            return f"line {n} is numbered {num!r}"
        prop, _, why = rest.partition("  ")
        if why == "[param]":
            if prop not in params:
                return f"line {n}: {prop} cited as a parameter but is not a fact"
        elif why.startswith("[fact]"):
            pass
        elif why.startswith(":- "):
            body = why[3:].rpartition("  (")[0] or why[3:]
            pos = body.partition(" ; not ")[0]
            for atom in _split_top(pos):
                if atom not in earlier:
                    return f"line {n}: body atom {atom} does not appear earlier"
        else:
            return f"line {n}: unrecognised witness {why!r}"
        if truth(prop) is False:
            return f"line {n}: {prop} is false in the reference"
        earlier.add(prop)
    if prop != goal:
        return f"last line proves {prop}, not the goal {goal}"
    return None


def _check_explain(derivable: bool, goal: str, params, truth) -> Check:
    def check(code, out, err):
        if not derivable:
            if code != 1:
                return f"underivable goal: exit {code}, expected 1"
            if out or err != f"no justification for {goal}\n":
                return f"underivable goal: unexpected output {(out + err)[:200]!r}"
            return None
        if code != 0:
            return f"derivable goal: exit {code}: {err.strip()[:200]}"
        if err:
            return f"unexpected stderr: {err.strip()[:200]}"
        return check_justification(out, goal, params, truth)

    return check


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _chain(n: int, shortcuts: int, rnd: random.Random) -> list:
    edges = [(v, v + 1) for v in range(n)]
    extra: set = set()
    while len(extra) < shortcuts:
        a = rnd.randrange(n - 1)
        extra.add((a, rnd.randrange(a + 2, n + 1)))
    return edges + sorted(extra)


def _gnm(n: int, m: int, rnd: random.Random) -> list:
    """A random digraph with n nodes and m edges: of five such graphs, the
    one whose transitive closure has the median size, so that the work of an
    op varies less from seed to seed."""
    graphs = []
    for _ in range(5):
        edges: set = set()
        while len(edges) < m:
            a, b = rnd.randrange(n), rnd.randrange(n)
            if a != b:
                edges.add((a, b))
        graphs.append(sorted(edges))
    graphs.sort(key=lambda g: sum(len(t) for t in reachability(g).values()))
    return graphs[2]


def _relabel(edges, nodes: int, name: _Namer, rnd: random.Random) -> list:
    perm = list(range(nodes))
    rnd.shuffle(perm)
    return [(name.const(perm[a]), name.const(perm[b])) for a, b in edges]


def _edge_facts(edges) -> str:
    return "".join(f"edge({a},{b}).\n" for a, b in edges)


def _tc_lines(edges) -> list:
    reach = reachability(edges)
    lines = [f"edge({a},{b})." for a, b in set(edges)]
    lines += [f"tc({s},{t})." for s, ts in reach.items() for t in ts]
    return lines


def _tc_op(cls, cmd, rec, edges, name, rnd, extra_flags=()) -> Op:
    prog, facts = name.path(".ind"), name.path(".facts")
    files = {prog: TC_RULES[rec], facts: _edge_facts(edges)}
    argv = [cmd, prog, "--facts", facts, *extra_flags]
    if cmd == "model":
        expected = _tc_lines(edges)
        return Op(cls, argv, files,
                  lambda c, o, e: check_lines(c, o, e, expected, _dump_key))
    sources = sorted({a for a, _ in edges})
    source = sources[rnd.randrange(len(sources))]
    reach = reachability(edges)
    expected = [f"Y = {t}" for t in reach.get(source, ())]
    argv += ["-q", f"tc({source},Y)"]
    return Op(cls, argv, files,
              lambda c, o, e: check_lines(c, o, e, expected, _answer_key))


@dataclass
class Layered:
    """k layers of w predicates over base facts; layer i > 0 negates layer i-1."""

    program: str
    facts: str
    atoms: list
    predicates: int
    top: str


def layered_program(templates: int, w: int, name: _Namer, rnd: random.Random) -> Layered:
    k = max(2, round(templates / (2 * w)))
    dom = [name.const(d) for d in range(6)]
    base = {j: {c for c in dom if rnd.random() < 0.5} for j in range(w)}
    rules, sets = [], {}
    for j in range(w):
        a, b, c = (rnd.randrange(w) for _ in range(3))
        rules.append(f"p0_{j}(X) :- b_{a}(X).")
        rules.append(f"p0_{j}(X) :- b_{b}(X), b_{c}(X).")
        sets[(0, j)] = base[a] | (base[b] & base[c])
    for i in range(1, k):
        for j in range(w):
            a, b, c = (rnd.randrange(w) for _ in range(3))
            rules.append(f"p{i}_{j}(X) :- p{i - 1}_{a}(X), not(p{i - 1}_{b}(X)).")
            rules.append(f"p{i}_{j}(X) :- p{i - 1}_{c}(X).")
            sets[(i, j)] = (sets[(i - 1, a)] - sets[(i - 1, b)]) | sets[(i - 1, c)]
    facts = [f"b_{j}({c})." for j in range(w) for c in sorted(base[j])]
    atoms = facts + [f"p{i}_{j}({c})." for (i, j), cs in sets.items() for c in cs]
    rnd.shuffle(rules)
    return Layered("\n".join(rules) + "\n", "\n".join(facts) + "\n",
                   atoms, k * w, f"p{k - 1}_0")


def _layered_op(cls, cmd, size, width, name, rnd, extra_flags=()) -> Op:
    lay = layered_program(size, width, name, rnd)
    prog, facts = name.path(".ind"), name.path(".facts")
    files = {prog: lay.program, facts: lay.facts}
    argv = [cmd, prog, "--facts", facts, *extra_flags]
    if cmd == "check":
        # One stratum per head predicate: a predicate's two templates have
        # unifiable heads, and no template depends on its own layer.
        expected = ["allowability: ok",
                    f"stratification: ok ({lay.predicates} strata)"]
        return Op(cls, argv, files, lambda c, o, e: check_lines(c, o, e, expected))
    if cmd == "query":
        expected = [f"X = {a[len(lay.top) + 1:-2]}" for a in lay.atoms
                    if a.startswith(lay.top + "(")]
        argv += ["-q", f"{lay.top}(X)"]
        return Op(cls, argv, files,
                  lambda c, o, e: check_lines(c, o, e, expected, _answer_key))
    return Op(cls, argv, files,
              lambda c, o, e: check_lines(c, o, e, lay.atoms, _dump_key))


def requirement_dag(name: _Namer, rnd: random.Random):
    """A propositional prerequisite DAG in the style of the university example.

    Returns the program text, the facts text, the set of derivable
    propositions, the requirements in dependency order and the given facts.
    """
    leaves = [f"took_{name.tag}{i}" for i in range(rnd.randint(12, 20))]
    given = {x for x in leaves if rnd.random() < 0.75}
    reqs, rules, holds = [], [], set(given)
    for j in range(rnd.randint(10, 16)):
        req = f"met_{name.tag}{j}"
        pool = leaves + reqs
        met = False
        for _ in range(rnd.randint(1, 2)):
            body = rnd.sample(pool, rnd.randint(2, 3))
            rules.append(f"{req} :- {', '.join(body)}.")
            met = met or all(b in holds for b in body)
        if met:
            holds.add(req)
        reqs.append(req)
    program = "\n".join(rules) + "\n"
    facts = "".join(f"{x}.\n" for x in leaves if x in given)
    return program, facts, holds, reqs, given


def _requirement_op(cls, derivable: bool, name, rnd) -> Op:
    while True:
        program, facts, holds, reqs, given = requirement_dag(name, rnd)
        pick = [r for r in reqs if (r in holds) == derivable]
        if pick:
            break
    goal = pick[-1]
    prog, fpath = name.path(".ind"), name.path(".facts")
    argv = ["explain", prog, "--facts", fpath, "-q", goal]
    truth = lambda a: a in holds  # noqa: E731
    return Op(cls, argv, {prog: program, fpath: facts},
              _check_explain(derivable, goal, given, truth))


def _tc_truth(edges):
    reach = reachability(edges)
    edge_set = set(edges)

    def truth(atom: str):
        name, _, rest = atom.partition("(")
        args = tuple(rest[:-1].split(",")) if rest else ()
        if name == "tc" and len(args) == 2:
            return args[1] in reach.get(args[0], ())
        if name == "edge" and len(args) == 2:
            return args in edge_set
        return None

    return truth


def _chain_goal(n, derivable, name, rnd):
    """A relabelled n-edge chain and a goal between nodes near its two ends,
    forwards when derivable, backwards when not."""
    edges = _relabel(_chain(n, 0, rnd), n + 1, name, rnd)
    order = [edges[0][0]] + [b for _, b in edges]
    a, b = rnd.randint(0, 2), rnd.randint(n - 2, n)
    if not derivable:
        a, b = b, a
    return edges, f"tc({order[a]},{order[b]})"


def _explain_tc_op(cls, rec, derivable, n, name, rnd) -> Op:
    edges, goal = _chain_goal(n, derivable, name, rnd)
    prog, facts = name.path(".ind"), name.path(".facts")
    params = {f"edge({x},{y})" for x, y in edges}
    argv = ["explain", prog, "--facts", facts, "-q", goal]
    return Op(cls, argv, {prog: TC_RULES[rec], facts: _edge_facts(edges)},
              _check_explain(derivable, goal, params, _tc_truth(edges)))


def _explain_meta_op(cls, rec, derivable, name, rnd) -> Op:
    edges, goal = _chain_goal(EXPLAIN_META_CHAIN, derivable, name, rnd)
    text = METAINTERPRETER + "#object\n" + _edge_facts(edges) + TC_RULES[rec]
    prog = name.path(".ind")
    argv = ["explain", prog, "--meta", "-q", goal]
    return Op(cls, argv, {prog: text},
              _check_explain(derivable, goal, set(), _tc_truth(edges)))


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------


def _closure_cycle(rnd, namer, c):
    ops = []
    for cmd in ("model", "query"):
        for rec in ("right", "left"):
            for shape in ("chain", "shortcut", "gnm"):
                for n in CLOSURE_GNM if shape == "gnm" else CLOSURE_CHAIN:
                    name = namer()
                    if shape == "gnm":
                        edges, nodes = _gnm(n, 2 * n, rnd), n
                    else:
                        shortcuts = n // 5 if shape == "shortcut" else 0
                        edges, nodes = _chain(n, shortcuts, rnd), n + 1
                    edges = _relabel(edges, nodes, name, rnd)
                    ops.append(_tc_op(f"{cmd}/{rec}/{shape}", cmd, rec, edges, name, rnd))
    return ops


def _strata_cycle(rnd, namer, c):
    return [_layered_op(f"{cmd}/layered", cmd, size, width, namer(), rnd)
            for size in STRATA_TEMPLATES[c % 2] for width in STRATA_WIDTHS
            for cmd in ("check", "model")]


def _explain_cycle(rnd, namer, c):
    ops = []
    for rec in ("right", "left"):
        for derivable in (True, False):
            kind = "derivable" if derivable else "underivable"
            for n in EXPLAIN_CHAIN[c % 2]:
                ops.append(_explain_tc_op(f"tc/{rec}/{kind}/{n}", rec, derivable,
                                          n, namer(), rnd))
            ops.append(_explain_meta_op(f"meta/{rec}/{kind}", rec, derivable,
                                        namer(), rnd))
    for derivable in (True, False):
        kind = "derivable" if derivable else "underivable"
        ops.append(_requirement_op(f"requirements/{kind}", derivable, namer(), rnd))
    return ops


def _crosscheck_cycle(rnd, namer, c):
    ops = []
    for cmd in ("model", "query"):
        for rec in ("right", "left"):
            for n in CROSS_GNM[c % 2]:
                name = namer()
                edges = _relabel(_gnm(n, 3 * n // 2, rnd), n, name, rnd)
                ops.append(_tc_op(f"{cmd}-oracle/{rec}", cmd, rec, edges, name, rnd,
                                  ("--oracle",)))
        for size in CROSS_LAYERED:
            ops.append(_layered_op(f"{cmd}-oracle/layered", cmd, size, 4, namer(), rnd,
                                   ("--oracle",)))
    return ops


_CYCLES = {
    "closure": _closure_cycle,
    "strata": _strata_cycle,
    "explain": _explain_cycle,
    "crosscheck": _crosscheck_cycle,
}


def cycle(workload: str, seed: int, c: int, workdir: str, twin: bool = False) -> list:
    """The ops of cycle `c`, in the order they run.

    The twin of a cycle has the same ops on renamed constants and files: the
    same work, without cache hits on the original.
    """
    rnd = random.Random(f"{workload}:{seed}:{c}")
    base = (10**7 if twin else 0) + c * 1000
    counter = iter(range(base, base + 1000))

    def namer():
        return _Namer(workdir, next(counter))

    ops = _CYCLES[workload](rnd, namer, c)
    rnd.shuffle(ops)
    return ops


def warmup(workload: str, rep: int, workdir: str) -> list:
    """Small ops touching every command a workload runs, on fresh constants."""
    rnd = random.Random(f"warmup:{workload}:{rep}")
    counter = iter(range(10**6 + rep * 100, 10**6 + (rep + 1) * 100))

    def namer():
        return _Namer(workdir, next(counter))

    ops = []
    if workload in ("closure", "crosscheck"):
        flags = ("--oracle",) if workload == "crosscheck" else ()
        for cmd in ("model", "query"):
            for rec in ("right", "left"):
                name = namer()
                edges = _relabel(_chain(6, 1, rnd), 7, name, rnd)
                ops.append(_tc_op("warmup", cmd, rec, edges, name, rnd, flags))
    if workload in ("strata", "crosscheck"):
        flags = ("--oracle",) if workload == "crosscheck" else ()
        cmds = ("model", "query") if workload == "crosscheck" else ("check", "model")
        for cmd in cmds:
            ops.append(_layered_op("warmup", cmd, 8, 4, namer(), rnd, flags))
    if workload == "explain":
        for rec in ("right", "left"):
            ops.append(_explain_tc_op("warmup", rec, True, 6, namer(), rnd))
            ops.append(_explain_tc_op("warmup", rec, False, 6, namer(), rnd))
        ops.append(_explain_meta_op("warmup", "right", True, namer(), rnd))
        ops.append(_requirement_op("warmup", True, namer(), rnd))
    return ops
