"""Distances, shortest paths and contexts derived from the meet (§3.1, §4).

The paper reads several byproducts off a ``meet₂`` computation:

* ``d(o₁, o₂)`` — "the number of joins executed while calculating
  meet₂ corresponds to the number of edges on the shortest path";
* the *contexts* ``path(o₁) − path(meet)`` and ``path(o₂) − path(meet)``
  describing what one traverses between the two nodes;
* the shortest instance path itself (up from o₁ to the meet, down to
  o₂).

A second, cheaper heuristic from §4 is the *source-file distance*
(difference of positions in the serialized document); with pre-order
OIDs that is simply the OID difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..datamodel.paths import Path, relative_suffix
from ..monet.engine import MonetXML
from .meet_pair import meet2_traced

__all__ = [
    "distance",
    "document_distance",
    "shortest_path",
    "contexts",
    "MeetContext",
]


def distance(store: MonetXML, oid1: int, oid2: int) -> int:
    """Tree distance in edges — the paper's d(o₁, o₂) (§4): the joins
    the Fig. 3 walk counts."""
    return meet2_traced(store, oid1, oid2).joins


def document_distance(store: MonetXML, oid1: int, oid2: int) -> int:
    """Distance in the source file, approximated by pre-order OIDs (§4)."""
    if oid1 not in store or oid2 not in store:
        raise ValueError(f"OIDs {oid1}/{oid2} outside the store")
    return abs(oid1 - oid2)


def shortest_path(store: MonetXML, oid1: int, oid2: int) -> List[int]:
    """OIDs along the unique shortest path o₁ → meet → o₂, inclusive."""
    meet = meet2_traced(store, oid1, oid2).oid
    up: List[int] = []
    current = oid1
    while current != meet:
        up.append(current)
        parent = store.parent_of(current)
        assert parent is not None
        current = parent
    down: List[int] = []
    current = oid2
    while current != meet:
        down.append(current)
        parent = store.parent_of(current)
        assert parent is not None
        current = parent
    return up + [meet] + list(reversed(down))


@dataclass(frozen=True, slots=True)
class MeetContext:
    """The §3.1 interpretation bundle of one pairwise meet."""

    meet_oid: int
    meet_path: Path
    left_context: Path
    right_context: Path
    distance: int

    def describe(self) -> str:
        """One-line human description of the relationship found."""
        left = str(self.left_context) or "·"
        right = str(self.right_context) or "·"
        return (
            f"nearest concept {self.meet_path} "
            f"(distance {self.distance}; contexts {left} / {right})"
        )


def contexts(store: MonetXML, oid1: int, oid2: int) -> MeetContext:
    """Compute meet, distance, and the two relative contexts of §3.1.

    ``path(o₁) − path(meet)`` "describe[s] the context of o₁ … with
    respect to [the meet]. Depending on the overall schema, this may
    describe a part-of or is-a relationship or a sequence thereof."
    """
    result = meet2_traced(store, oid1, oid2)
    meet_path = store.path_of(result.oid)
    return MeetContext(
        meet_oid=result.oid,
        meet_path=meet_path,
        left_context=relative_suffix(store.path_of(oid1), meet_path),
        right_context=relative_suffix(store.path_of(oid2), meet_path),
        distance=result.joins,
    )
