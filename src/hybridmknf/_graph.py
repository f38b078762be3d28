"""Union-find grouping, shared by the update solver and the model sets."""

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
