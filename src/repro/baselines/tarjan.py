"""Tarjan's offline LCA — the batch-processing classic (refs. [4, 5]).

Answers a whole batch of (o₁, o₂) queries in near-linear time with one
DFS and a union-find structure.  Included as the offline baseline for
the ablation bench: ``meet_S`` answers *set* queries online without
knowing the pairs in advance, while Tarjan needs the full query list
up front — exactly the trade-off the paper's interactive-querying goal
rules out.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..datamodel.errors import UnknownOIDError
from ..monet.engine import MonetXML

__all__ = ["tarjan_offline_lca", "DisjointSet"]


class DisjointSet:
    """Union-find with path compression and union by rank."""

    def __init__(self):
        self._parent: Dict[int, int] = {}
        self._rank: Dict[int, int] = {}

    def make_set(self, item: int) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0

    def find(self, item: int) -> int:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:  # path compression
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, left: int, right: int) -> int:
        """Union the two sets; returns the new representative."""
        root1, root2 = self.find(left), self.find(right)
        if root1 == root2:
            return root1
        if self._rank[root1] < self._rank[root2]:
            root1, root2 = root2, root1
        self._parent[root2] = root1
        if self._rank[root1] == self._rank[root2]:
            self._rank[root1] += 1
        return root1


def tarjan_offline_lca(
    store: MonetXML, queries: Sequence[Tuple[int, int]]
) -> List[int]:
    """LCA for every query pair, via one post-order DFS (offline).

    Returns the answers positionally aligned with ``queries``.
    """
    for oid1, oid2 in queries:
        if oid1 not in store:
            raise UnknownOIDError(oid1)
        if oid2 not in store:
            raise UnknownOIDError(oid2)

    # Group queries per endpoint for O(1) lookup during the DFS.
    pending: Dict[int, List[Tuple[int, int]]] = {}
    for index, (oid1, oid2) in enumerate(queries):
        pending.setdefault(oid1, []).append((oid2, index))
        if oid1 != oid2:
            pending.setdefault(oid2, []).append((oid1, index))

    children: Dict[int, List[int]] = {}  # in OID order: pre-order
    for oid, parent in enumerate(store.dense_columns()[1], store.first_oid):
        if parent >= 0:
            children.setdefault(parent, []).append(oid)

    answers: List[int] = [-1] * len(queries)
    dsu = DisjointSet()
    ancestor: Dict[int, int] = {}
    visited: Dict[int, bool] = {}

    # Iterative DFS with explicit post-processing stage.
    stack: List[Tuple[int, bool]] = [(store.root_oid, False)]
    while stack:
        oid, processed = stack.pop()
        if not processed:
            dsu.make_set(oid)
            ancestor[dsu.find(oid)] = oid
            stack.append((oid, True))
            for child in reversed(children.get(oid, ())):
                stack.append((child, False))
            continue
        # Post-order: all children merged; answer queries touching oid.
        visited[oid] = True
        for other, index in pending.get(oid, ()):
            if other == oid:
                answers[index] = oid
            elif visited.get(other):
                answers[index] = ancestor[dsu.find(other)]
        parent = store.parent_of(oid)
        if parent is not None:
            dsu.make_set(parent)
            representative = dsu.union(parent, oid)
            ancestor[representative] = parent
    return answers
