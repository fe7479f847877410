"""Template dependency graph, strongly connected components, stratification.

Edges run from a rule to every rule whose head its body (positive or
negative) unifies with.  Rules with unifiable heads are forced into the same
component, so each stratum's heads are non-unifiable with everything below
it and the strata can soundly be chained as parameter sets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import UnstratifiableError
from .parser import RuleTemplate, template_to_str
from .terms import functor_index, unifiable


@dataclass(frozen=True)
class Stratification:
    strata: tuple[tuple[RuleTemplate, ...], ...]


def _scc(n: int, adj: list[list[int]]) -> list[int]:
    """Iterative Tarjan; returns component id per node.  A component gets its
    id only after every component it reaches, so ascending ids are a
    bottom-up order of the condensation."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp = [-1] * n
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for j in range(pi, len(adj[v])):
                w = adj[v][j]
                if index[w] == -1:
                    work[-1] = (v, j + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comp


def _graph(templates):
    """Per-rule dependency lists, negative edges and component ids."""
    n = len(templates)
    heads = [t.head for t in templates]
    candidates = functor_index(heads)
    deps: list[list[int]] = [[] for _ in range(n)]
    negative: list[tuple[int, int]] = []

    for i, t in enumerate(templates):
        for k, lit in enumerate(t.pos_body + t.neg_body):
            for j in candidates(lit):
                if unifiable(lit, heads[j]):
                    deps[i].append(j)
                    if k >= len(t.pos_body):
                        negative.append((i, j))

    # Rules with unifiable heads must share a component.
    adj = [list(d) for d in deps]
    for i in range(n):
        for j in candidates(heads[i]):
            if j > i and unifiable(heads[i], heads[j]):
                adj[i].append(j)
                adj[j].append(i)

    return deps, negative, _scc(n, adj)


def recursive_rules(templates) -> list[bool]:
    """Per rule: whether its body depends on a rule of its own component."""
    deps, _, comp = _graph(templates)
    return [any(comp[j] == comp[i] for j in d) for i, d in enumerate(deps)]


def stratify_templates(templates: tuple[RuleTemplate, ...]) -> Stratification:
    deps, negative, comp = _graph(templates)
    for src, dst in negative:
        if comp[src] == comp[dst]:
            cycle = _negative_cycle(templates, deps, comp, src, dst)
            shown = " -> ".join(f"{t.loc} {template_to_str(t)}" for t in cycle)
            raise UnstratifiableError(
                f"negation inside a recursive component: {shown}", cycle
            )

    strata: list[list[RuleTemplate]] = [[] for _ in range(max(comp, default=-1) + 1)]
    for t, c in zip(templates, comp):
        strata[c].append(t)
    return Stratification(tuple(tuple(s) for s in strata))


def _negative_cycle(templates, deps, comp, src: int, dst: int):
    """A rule cycle through the negative edge src -> dst, as a witness."""
    if src == dst:
        return (templates[src],)
    # BFS from dst back to src inside the component.
    prev = {dst: None}
    queue = deque([dst])
    while queue:
        v = queue.popleft()
        if v == src:
            break
        for w in deps[v]:
            if w not in prev and comp[w] == comp[src]:
                prev[w] = v
                queue.append(w)
    path = []
    v = src if src in prev else dst
    while v is not None:
        path.append(v)
        v = prev[v]
    path.reverse()
    return tuple(templates[i] for i in path)
