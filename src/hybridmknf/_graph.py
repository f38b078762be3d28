"""Graph routines shared by the update solver and the plan suggester."""

from __future__ import annotations

from typing import Hashable, Iterable, TypeVar

T = TypeVar("T", bound=Hashable)


def union_find_groups(clusters: Iterable[Iterable[T]]) -> list[set[T]]:
    """Connected groups of items, where each cluster links its members."""
    parent: dict[T, T] = {}

    def find(x: T) -> T:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cluster in clusters:
        cluster = list(cluster)
        for a in cluster:
            parent.setdefault(a, a)
        for a in cluster[1:]:
            ra, rb = find(cluster[0]), find(a)
            if ra != rb:
                parent[ra] = rb
    groups: dict[T, set[T]] = {}
    for a in parent:
        groups.setdefault(find(a), set()).add(a)
    return list(groups.values())


def strongly_connected(n: int, edges: dict[int, set[int]]) -> list[list[int]]:
    """Strongly connected components of nodes 0..n-1, by iterative Tarjan.

    Components come out in reverse topological order: every edge leaving a
    component points to one listed earlier.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: dict[int, bool] = {}
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = [0]

    def strongconnect(v: int) -> None:
        work = [(v, iter(sorted(edges.get(v, ()))))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack[v] = True
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(sorted(edges.get(w, ())))))
                    advanced = True
                    break
                if on_stack.get(w):
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)

    for v in range(n):
        if v not in index:
            strongconnect(v)
    return sccs
