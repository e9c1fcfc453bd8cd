"""Meets over reference-augmented graphs (the paper's §7 future work).

"XML documents may also contain references (IDs and IDREFs) that
potentially break the tree structure … If we interpret the meet
operator as some variant of nearest neighbor search, we might find
generalizations on graph structures … However, the fact that we then
have to take care of circular structures may add significant
complexity" (§3.2/§7).

This module implements that generalization:

* :class:`ReferenceIndex` — extracts ID → OID bindings and reference
  edges from a store's string associations (configurable attribute
  names, multi-valued IDREFS supported, dangling references reported);
* :func:`graph_distance` / :func:`graph_shortest_path` —
  bidirectional BFS over the undirected union of tree edges and
  reference edges; cycle-safe by construction;
* :func:`graph_meet` — the nearest-concept generalization: the
  *shallowest node on the shortest connecting path*.  On a pure tree
  this is exactly ``meet₂`` (the LCA is the unique minimum-depth node
  of the tree path), so the operator is a conservative extension; with
  references it returns the concept through which the two hits are
  most closely related, even when that relation crosses an IDREF.

Distances through references count 1 per reference edge, so the §4
k-restriction and ranking carry over unchanged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..monet.engine import MonetXML

__all__ = [
    "ReferenceIndex",
    "GraphMeet",
    "graph_distance",
    "graph_shortest_path",
    "graph_meet",
]


class ReferenceIndex:
    """ID/IDREF extraction over a store.

    Parameters
    ----------
    store:
        The Monet XML instance.
    id_attributes:
        Attribute names whose value *defines* an identifier.
    ref_attributes:
        Attribute names whose (whitespace-separated) values *refer* to
        identifiers (IDREF and IDREFS alike).
    """

    def __init__(
        self,
        store: MonetXML,
        id_attributes: Sequence[str] = ("id", "xml:id"),
        ref_attributes: Sequence[str] = ("idref", "idrefs", "ref", "crossref"),
    ):
        self.store = store
        self.id_attributes = tuple(id_attributes)
        self.ref_attributes = tuple(ref_attributes)
        self._ids: Dict[str, int] = {}
        self._edges: Dict[int, List[int]] = {}
        self._dangling: List[Tuple[int, str]] = []
        self._build()

    def _build(self) -> None:
        summary = self.store.summary
        referers: List[Tuple[int, str]] = []
        strings = self.store.string_runs()
        for pid in strings.pids.tolist():
            label = summary.label(pid)
            oids, values = strings.run(pid)
            if label in self.id_attributes:
                for oid, value in zip(oids.tolist(), values):
                    self._ids.setdefault(value, oid)
            elif label in self.ref_attributes:
                for oid, value in zip(oids.tolist(), values):
                    for token in value.split():
                        referers.append((oid, token))
        for oid, token in referers:
            target = self._ids.get(token)
            if target is None:
                self._dangling.append((oid, token))
                continue
            self._edges.setdefault(oid, []).append(target)
            self._edges.setdefault(target, []).append(oid)

    # -- accessors --------------------------------------------------------
    @property
    def id_count(self) -> int:
        return len(self._ids)

    @property
    def edge_count(self) -> int:
        """Number of (undirected) reference edges."""
        return sum(len(targets) for targets in self._edges.values()) // 2

    @property
    def dangling(self) -> List[Tuple[int, str]]:
        """(referring OID, unresolved identifier) pairs."""
        return list(self._dangling)

    def resolve(self, identifier: str) -> Optional[int]:
        return self._ids.get(identifier)

    def neighbours(self, oid: int) -> List[int]:
        """Reference-adjacent OIDs (both directions)."""
        return list(self._edges.get(oid, ()))


def _adjacent(store: MonetXML, refs: Optional[ReferenceIndex], oid: int):
    parent = store.parent_of(oid)
    if parent is not None:
        yield parent
    yield from store.children_of(oid)
    if refs is not None:
        yield from refs.neighbours(oid)


def graph_shortest_path(
    store: MonetXML,
    oid1: int,
    oid2: int,
    refs: Optional[ReferenceIndex] = None,
    max_distance: Optional[int] = None,
) -> Optional[List[int]]:
    """Shortest path over tree ∪ reference edges (BFS, cycle-safe).

    Returns the OID sequence from ``oid1`` to ``oid2`` inclusive, or
    ``None`` when no path exists within ``max_distance``.
    """
    if oid1 == oid2:
        return [oid1]
    parents: Dict[int, Optional[int]] = {oid1: None}
    frontier = deque([(oid1, 0)])
    while frontier:
        current, depth = frontier.popleft()
        if max_distance is not None and depth >= max_distance:
            continue
        for neighbour in _adjacent(store, refs, current):
            if neighbour in parents:
                continue
            parents[neighbour] = current
            if neighbour == oid2:
                path = [neighbour]
                back: Optional[int] = current
                while back is not None:
                    path.append(back)
                    back = parents[back]
                path.reverse()
                return path
            frontier.append((neighbour, depth + 1))
    return None


def graph_distance(
    store: MonetXML,
    oid1: int,
    oid2: int,
    refs: Optional[ReferenceIndex] = None,
    max_distance: Optional[int] = None,
) -> Optional[int]:
    """Edge count of the shortest connecting path, or ``None``."""
    path = graph_shortest_path(store, oid1, oid2, refs, max_distance)
    return None if path is None else len(path) - 1


@dataclass(frozen=True, slots=True)
class GraphMeet:
    """The graph nearest concept: connecting path + its apex."""

    oid: int
    distance: int
    path: Tuple[int, ...]
    via_references: int

    @property
    def crosses_reference(self) -> bool:
        return self.via_references > 0


def graph_meet(
    store: MonetXML,
    oid1: int,
    oid2: int,
    refs: Optional[ReferenceIndex] = None,
    max_distance: Optional[int] = None,
) -> Optional[GraphMeet]:
    """The nearest concept over the reference-augmented graph.

    The meet is the minimum-depth node of the shortest connecting
    path.  Without references (or when the tree route is shorter) this
    coincides with ``meet₂``; across a reference it is the shallowest
    concept on the crossing route.  Ties on depth resolve to the node
    closest to ``oid1`` (deterministic).
    """
    path = graph_shortest_path(store, oid1, oid2, refs, max_distance)
    if path is None:
        return None
    apex = min(path, key=lambda oid: (store.depth_of(oid), path.index(oid)))
    via_references = 0
    for left, right in zip(path, path[1:]):
        if store.parent_of(left) != right and store.parent_of(right) != left:
            via_references += 1
    return GraphMeet(
        oid=apex,
        distance=len(path) - 1,
        path=tuple(path),
        via_references=via_references,
    )
