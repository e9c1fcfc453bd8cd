"""Restricted meet variants (paper §4).

Two knobs give the user "more control over what the operator
returns":

* **Result-type restriction** ``meet_X``: discard result candidates
  whose path lies in an exclusion set X — e.g. exclude the document
  root path in large bibliographies so the query never degenerates to
  "these two strings occur in the same database".  The §5 case study
  runs with the root excluded.  An *allow*-variant (keep only listed
  paths) is also provided; the paper notes it turns the operator into
  plain keyword search over chosen result types.

* **Distance bound** ``k-meet``: return ⊥ (``None``) when
  d(o₁, o₂) > k, "occasionally useful to block undesired matches".
  The bound aborts the ancestor walk after k joins, so an out-of-range
  pair costs at most k look-ups.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Set, Union

from ..datamodel.paths import Path
from ..monet.engine import MonetXML
from .meet_general import GeneralMeet, meet_general
from .meet_pair import PairMeet

__all__ = [
    "resolve_pids",
    "meet_excluding",
    "meet_restricted_to",
    "bounded_meet2",
]

PathLike = Union[Path, str, int]


def resolve_pids(store: MonetXML, paths: Iterable[PathLike]) -> Set[int]:
    """Normalize a mixed path/str/pid collection to a pid set.

    Unknown paths are ignored (they cannot match any result anyway).
    """
    pids: Set[int] = set()
    for item in paths:
        if isinstance(item, int):
            pids.add(item)
            continue
        path = Path.parse(item) if isinstance(item, str) else item
        pid = store.summary.maybe_pid(path)
        if pid is not None:
            pids.add(pid)
    return pids


def meet_excluding(
    store: MonetXML,
    relations: Mapping[int, Iterable[int]],
    excluded: Iterable[PathLike],
) -> List[GeneralMeet]:
    """``meet_X``: the general meet minus results typed in ``excluded``.

    Matches the paper's definition: results are computed by the
    unrestricted operator and candidates with π(o) ∈ X are discarded —
    the roll-up itself is unchanged, so minimality of the surviving
    meets is untouched.
    """
    excluded_pids = resolve_pids(store, excluded)
    return [
        result
        for result in meet_general(store, relations)
        if store.pid_of(result.oid) not in excluded_pids
    ]


def meet_restricted_to(
    store: MonetXML,
    relations: Mapping[int, Iterable[int]],
    allowed: Iterable[PathLike],
) -> List[GeneralMeet]:
    """Keep only meets whose path is in ``allowed``.

    "By restricting the result types, the operator can be used to
    implement keyword search as a special case" (§6).
    """
    allowed_pids = resolve_pids(store, allowed)
    return [
        result
        for result in meet_general(store, relations)
        if store.pid_of(result.oid) in allowed_pids
    ]


def bounded_meet2(
    store: MonetXML,
    oid1: int,
    oid2: int,
    k: int,
) -> Optional[PairMeet]:
    """The §4 k-meet: ``meet₂`` if d(o₁,o₂) ≤ k, else ``None`` (⊥).

    Implemented as the Fig. 3 walk with an early abort, so rejected
    pairs cost at most k parent look-ups.
    """
    if k < 0:
        return None
    if oid1 == oid2:
        return PairMeet(oid1, 0)

    summary = store.summary
    joins = 0
    current1, current2 = oid1, oid2
    while current1 != current2:
        if joins >= k:
            return None
        pid1 = store.pid_of(current1)
        pid2 = store.pid_of(current2)
        if pid1 != pid2 and summary.prefix_leq(pid1, pid2):
            current1 = store.parent_of(current1)  # type: ignore[assignment]
            joins += 1
        elif pid1 != pid2 and summary.prefix_leq(pid2, pid1):
            current2 = store.parent_of(current2)  # type: ignore[assignment]
            joins += 1
        elif summary.depth(pid1) > summary.depth(pid2):
            current1 = store.parent_of(current1)  # type: ignore[assignment]
            joins += 1
        elif summary.depth(pid2) > summary.depth(pid1):
            current2 = store.parent_of(current2)  # type: ignore[assignment]
            joins += 1
        else:
            current1 = store.parent_of(current1)  # type: ignore[assignment]
            current2 = store.parent_of(current2)  # type: ignore[assignment]
            joins += 2
        if current1 is None or current2 is None:
            return None
    if joins > k:
        return None
    return PairMeet(current1, joins)
