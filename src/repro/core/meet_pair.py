"""``meet₂`` — the pairwise meet operator (paper Fig. 3, Def. 6).

Given two nodes o₁, o₂ of the syntax tree, ``meet₂(o₁, o₂)`` is their
lowest common ancestor: the unique node o₃ with

1. path(o₁) ⪯ path(o₃)   (o₃ on the root path of o₁),
2. path(o₂) ⪯ path(o₃)   and
3. no o₄ strictly below o₃ satisfying both.

The algorithm walks ``parent()`` pointers, *steered by the ⪯ prefix
order on* π: comparing π(o₁) and π(o₂) "steers the search direction
of the algorithm and avoids superfluous look-ups" — only the argument
whose path is strictly deeper ascends; when the paths are equal (or
incomparable at equal depth) both ascend in lock-step.  π look-ups are
free in the Monet model (the relation name carries the path).

The number of ``parent`` look-ups (= joins on the Monet engine) is
exactly the tree distance d(o₁, o₂), which §4 reuses as the distance
measure and ranking heuristic.

This module *is* the ``steered`` meet backend's pairwise kernel; pass
``backend=`` (see :mod:`repro.core.backends`) to answer the same
queries from the precomputed Euler-RMQ index instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from ..datamodel.errors import ModelError
from ..monet.engine import MonetXML

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .backends import MeetBackend

__all__ = ["PairMeet", "meet2", "meet2_traced", "meet_many"]


@dataclass(frozen=True, slots=True)
class PairMeet:
    """Result of a pairwise meet: the ancestor OID and the join count."""

    oid: int
    joins: int

    @property
    def distance(self) -> int:
        """d(o₁, o₂): the paper defines it as the number of joins."""
        return self.joins


def meet2(
    store: MonetXML,
    oid1: int,
    oid2: int,
    backend: "Optional[MeetBackend]" = None,
) -> int:
    """The meet (LCA) of two nodes; both must belong to the store."""
    if backend is not None:
        return backend.meet(oid1, oid2).oid
    return meet2_traced(store, oid1, oid2).oid


def meet_many(
    store: MonetXML,
    pairs: Iterable[Tuple[int, int]],
    backend: "Optional[MeetBackend]" = None,
) -> List[PairMeet]:
    """Batched pairwise meets.

    With the default steered backend this is just the Fig. 3 walk in a
    loop; with :class:`~repro.core.backends.VectorBackend` the whole
    batch is answered from one Euler-RMQ index in O(1) per pair.
    """
    if backend is not None:
        return backend.meet_many(pairs)
    return [meet2_traced(store, oid1, oid2) for oid1, oid2 in pairs]


def meet2_traced(store: MonetXML, oid1: int, oid2: int) -> PairMeet:
    """Fig. 3 verbatim, additionally counting parent look-ups (joins).

    Raises :class:`ModelError` if the two OIDs have no common ancestor,
    which cannot happen for nodes of one rooted document.
    """
    if oid1 == oid2:
        return PairMeet(oid1, 0)

    summary = store.summary
    joins = 0
    current1: Optional[int] = oid1
    current2: Optional[int] = oid2
    while current1 != current2:
        if current1 is None or current2 is None:
            raise ModelError(
                f"OIDs {oid1} and {oid2} have no common ancestor"
            )
        pid1 = store.pid_of(current1)
        pid2 = store.pid_of(current2)
        if pid1 != pid2 and summary.prefix_leq(pid1, pid2):
            # π(o1) strictly below π(o2): only o1 can be the deeper node.
            current1 = store.parent_of(current1)
            joins += 1
        elif pid1 != pid2 and summary.prefix_leq(pid2, pid1):
            current2 = store.parent_of(current2)
            joins += 1
        elif summary.depth(pid1) > summary.depth(pid2):
            # Incomparable paths: ascend the deeper side first.
            current1 = store.parent_of(current1)
            joins += 1
        elif summary.depth(pid2) > summary.depth(pid1):
            current2 = store.parent_of(current2)
            joins += 1
        else:
            # Same depth (equal or incomparable paths): lock-step.
            current1 = store.parent_of(current1)
            current2 = store.parent_of(current2)
            joins += 2
    assert current1 is not None
    return PairMeet(current1, joins)
