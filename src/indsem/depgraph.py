"""Template dependency graph, strongly connected components, stratification.

Edges run from a rule to every rule whose head its body (positive or
negative) unifies with.  Rules with unifiable heads are forced into the same
component, so each stratum's heads are non-unifiable with everything below
it and the strata can soundly be chained as parameter sets.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .errors import UnstratifiableError
from .parser import RuleTemplate, template_to_str
from .terms import unifiable


@dataclass(frozen=True)
class DepEdge:
    src: int
    dst: int
    negative: bool


@dataclass(frozen=True)
class Stratification:
    strata: tuple[tuple[RuleTemplate, ...], ...]
    edges: tuple[DepEdge, ...]


def _scc(n: int, adj: list[list[int]]) -> list[int]:
    """Iterative Tarjan; returns component id per node."""
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


def stratify_templates(templates: tuple[RuleTemplate, ...]) -> Stratification:
    n = len(templates)
    heads = [t.head for t in templates]
    dep_edges: list[DepEdge] = []
    adj: list[set[int]] = [set() for _ in range(n)]

    for i, t in enumerate(templates):
        for b in t.pos_body:
            for j, h in enumerate(heads):
                if unifiable(b, h):
                    dep_edges.append(DepEdge(i, j, False))
                    adj[i].add(j)
        for nterm in t.neg_body:
            for j, h in enumerate(heads):
                if unifiable(nterm, h):
                    dep_edges.append(DepEdge(i, j, True))
                    adj[i].add(j)

    # Rules with unifiable heads must share a component.
    for i in range(n):
        for j in range(i + 1, n):
            if unifiable(heads[i], heads[j]):
                adj[i].add(j)
                adj[j].add(i)

    comp = _scc(n, [sorted(a) for a in adj])

    for e in dep_edges:
        if e.negative and comp[e.src] == comp[e.dst]:
            cycle = _negative_cycle(templates, dep_edges, comp, e)
            shown = " -> ".join(f"{t.loc} {template_to_str(t)}" for t in cycle)
            raise UnstratifiableError(
                f"negation inside a recursive component: {shown}", cycle
            )

    # Deterministic bottom-up order: topological over the condensation,
    # ties broken by the smallest source line of any member template.
    ncomp = max(comp, default=-1) + 1
    members: list[list[int]] = [[] for _ in range(ncomp)]
    for i, c in enumerate(comp):
        members[c].append(i)
    succ: list[set[int]] = [set() for _ in range(ncomp)]
    indeg = [0] * ncomp
    for e in dep_edges:
        a, b = comp[e.src], comp[e.dst]
        if a != b and a not in succ[b]:
            # b must be evaluated before a
            succ[b].add(a)
            indeg[a] += 1

    def tiebreak(c: int):
        return (min(templates[i].loc.line for i in members[c]), min(members[c]))

    ready = [(tiebreak(c), c) for c in range(ncomp) if indeg[c] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        _, c = heapq.heappop(ready)
        order.append(c)
        for d in succ[c]:
            indeg[d] -= 1
            if indeg[d] == 0:
                heapq.heappush(ready, (tiebreak(d), d))

    strata = tuple(
        tuple(templates[i] for i in sorted(members[c])) for c in order
    )
    return Stratification(strata, tuple(dep_edges))


def _negative_cycle(templates, dep_edges, comp, bad: DepEdge):
    """A rule cycle through the offending negative edge, as a witness."""
    c = comp[bad.src]
    if bad.src == bad.dst:
        return (templates[bad.src],)
    # BFS from dst back to src inside the component.
    adj: dict[int, list[int]] = {}
    for e in dep_edges:
        if comp[e.src] == c and comp[e.dst] == c:
            adj.setdefault(e.src, []).append(e.dst)
    prev = {bad.dst: None}
    queue = deque([bad.dst])
    while queue:
        v = queue.popleft()
        if v == bad.src:
            break
        for w in adj.get(v, []):
            if w not in prev:
                prev[w] = v
                queue.append(w)
    path = []
    v = bad.src if bad.src in prev else bad.dst
    while v is not None:
        path.append(v)
        v = prev[v]
    path.reverse()
    return tuple(templates[i] for i in path)
