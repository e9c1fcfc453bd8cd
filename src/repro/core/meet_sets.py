"""``meet_S`` — set-at-a-time meet of two OID sets (paper Fig. 4).

Inputs are two *homogeneous* sets O₁, O₂ (all members of one set share
a single path — e.g. all the ``year/cdata`` hits of one full-text
search).  The procedure keeps, per side, a binary relation

    (current ancestor OID, original input OID)

initialized with the identity.  Each round it:

1. intersects the two current-ancestor columns — every match is a
   *minimal* meet: it is emitted together with the original inputs it
   covers and **removed** from both relations ("as soon as the first
   meet … is found, subsequent meets are not considered anymore"),
   which is the paper's defence against the combinatorial explosion
   and what makes the operator invariant of input order;
2. steers by the ⪯ prefix order on the (single) path of each side —
   only the deeper side performs the set-wise ``parent`` join
   (``shift(O₁, O₂) = join(O₁, O₂)`` projecting out the inner
   columns, per §3.2), or both sides in lock-step for equal paths.

The loop ends when either side runs empty or both have left the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from ..datamodel.errors import ModelError
from ..monet.engine import MonetXML

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .backends import MeetBackend

__all__ = ["SetMeet", "meet_sets", "meet_sets_traced", "SetMeetTrace"]


@dataclass(frozen=True, slots=True)
class SetMeet:
    """One emitted meet: the ancestor and the inputs it is the LCA of."""

    oid: int
    left_origins: Tuple[int, ...]
    right_origins: Tuple[int, ...]

    @property
    def origins(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.left_origins) | set(self.right_origins)))


@dataclass(slots=True)
class SetMeetTrace:
    """Execution statistics of one ``meet_S`` run."""

    meets: List[SetMeet]
    rounds: int = 0
    parent_joins: int = 0
    intersections: int = 0


def _common_pid(store: MonetXML, oids: Iterable[int], side: str) -> Optional[int]:
    """The single pid shared by all OIDs; raises if the set is mixed."""
    pid: Optional[int] = None
    for oid in oids:
        current = store.pid_of(oid)
        if pid is None:
            pid = current
        elif pid != current:
            raise ModelError(
                f"meet_S requires a homogeneous {side} input set: "
                f"{store.summary.path(pid)} vs {store.summary.path(current)}"
            )
    return pid


def _ascend(
    store: MonetXML, pairs: Dict[int, Set[int]]
) -> Dict[int, Set[int]]:
    """The set-wise parent join: re-key every entry by its parent OID."""
    lifted: Dict[int, Set[int]] = {}
    for current, origins in pairs.items():
        parent = store.parent_of(current)
        if parent is None:
            continue  # fell off the root; the entry cannot meet anything
        lifted.setdefault(parent, set()).update(origins)
    return lifted


def meet_sets_traced(
    store: MonetXML, left: Iterable[int], right: Iterable[int]
) -> SetMeetTrace:
    """Fig. 4 with execution statistics; see module docstring."""
    left_pairs: Dict[int, Set[int]] = {}
    for oid in left:
        left_pairs.setdefault(oid, set()).add(oid)
    right_pairs: Dict[int, Set[int]] = {}
    for oid in right:
        right_pairs.setdefault(oid, set()).add(oid)

    pid1 = _common_pid(store, left_pairs, "left")
    pid2 = _common_pid(store, right_pairs, "right")
    trace = SetMeetTrace(meets=[])
    if pid1 is None or pid2 is None:
        return trace

    summary = store.summary
    while left_pairs and right_pairs:
        trace.rounds += 1
        # 1. Emit and remove every current match (minimal meets).
        trace.intersections += 1
        matches = left_pairs.keys() & right_pairs.keys()
        if matches:
            for oid in sorted(matches):
                trace.meets.append(
                    SetMeet(
                        oid=oid,
                        left_origins=tuple(sorted(left_pairs.pop(oid))),
                        right_origins=tuple(sorted(right_pairs.pop(oid))),
                    )
                )
            if not left_pairs or not right_pairs:
                break

        # 2. Steer by the prefix order of the two (homogeneous) paths.
        depth1, depth2 = summary.depth(pid1), summary.depth(pid2)
        ascend_left = depth1 >= depth2
        ascend_right = depth2 >= depth1
        if summary.prefix_leq(pid1, pid2) and pid1 != pid2:
            ascend_left, ascend_right = True, False
        elif summary.prefix_leq(pid2, pid1) and pid1 != pid2:
            ascend_left, ascend_right = False, True
        if ascend_left:
            if depth1 <= 1:
                break  # already at the root; nothing above to meet at
            left_pairs = _ascend(store, left_pairs)
            pid1 = summary.parent(pid1)
            trace.parent_joins += 1
        if ascend_right:
            if depth2 <= 1:
                break
            right_pairs = _ascend(store, right_pairs)
            pid2 = summary.parent(pid2)
            trace.parent_joins += 1
    return trace


def meet_sets(
    store: MonetXML,
    left: Iterable[int],
    right: Iterable[int],
    backend: "Optional[MeetBackend]" = None,
) -> List[SetMeet]:
    """All minimal meets between two homogeneous OID sets (Fig. 4).

    ``backend=`` selects the execution strategy (default: the Fig. 4
    relational loop above; the vector backend answers from an
    auxiliary tree with the identical meet set).
    """
    if backend is not None:
        return backend.meet_sets(left, right)
    return meet_sets_traced(store, left, right).meets
