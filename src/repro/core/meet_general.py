"""``meet`` — the general n-ary meet over typed relations (paper Fig. 5).

The most general algorithm takes an arbitrary set of nodes grouped
into relations R₁ … Rₙ by association type (path) — in practice the
grouped result of one or more full-text searches — and returns every
node that is the lowest common ancestor of **at least two** distinct
input nodes (the paper's §3.2 extension of Def. 6).

Instead of comparing paths pairwise (which "would become dependent on
the input order"), the algorithm *rolls up the tree-shaped schema from
the bottom*: it repeatedly contracts a path-summary node whose pending
children have all been processed, mapping the pending OID relations to
their parents.  Every ancestor OID that accumulates ≥ 2 distinct
original inputs is a meet — **minimal by construction** — and is
emitted and dropped, "thus avoiding a combinatorial explosion of the
result set and dependence on the input order".

Three entry points:

* :func:`meet_general` — schema-driven roll-up, faithful to Fig. 5
  (post-order over the path summary); inputs are OID sets.
* :func:`meet_depthwise` — depth-synchronous roll-up exploiting
  ``len(π(o)) == depth(o)``; simpler, property-tested equivalent.
* :func:`meet_tagged` — the same roll-up over *tagged* inputs
  (token, OID): a node is a meet when it covers two distinct tokens,
  even if they name the same OID.  This realizes the paper's
  "Bob"/"Byte" example (two search terms hitting one association make
  that association's node the nearest concept) at set scale, and is
  what the :class:`~repro.core.engine.NearestConceptEngine` pipeline
  uses with (term, OID) tokens.

These functions are the paper's roll-up and the reference;
:class:`~repro.core.backends.VectorBackend`, which every open serves
on, emits the same meet set from an auxiliary tree over the inputs,
independent of instance depth and path-summary size.  Emission order
differs (schema post-order vs reverse pre-order); consumers that
rank — :mod:`repro.core.ranking`, the engine — are order-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Set,
    Tuple,
)

from ..monet.engine import MonetXML

__all__ = [
    "GeneralMeet",
    "TaggedMeet",
    "meet_general",
    "meet_depthwise",
    "meet_tagged",
    "group_by_pid",
]

Token = Hashable


@dataclass(frozen=True, slots=True)
class GeneralMeet:
    """A meet node together with the original input OIDs it covers."""

    oid: int
    origins: FrozenSet[int]


@dataclass(frozen=True, slots=True)
class TaggedMeet:
    """A meet over tagged inputs: which (token, OID) pairs it covers."""

    oid: int
    tokens: FrozenSet[Tuple[Token, int]]

    @property
    def origins(self) -> FrozenSet[int]:
        return frozenset(oid for _, oid in self.tokens)

    @property
    def tags(self) -> FrozenSet[Token]:
        return frozenset(token for token, _ in self.tokens)


def group_by_pid(store: MonetXML, oids: Iterable[int]) -> Dict[int, List[int]]:
    """Group a flat OID set into the typed relations Fig. 5 expects.

    Full-text hits arrive per association (attribute path); they are
    re-keyed here by the *node's own* path pid.
    """
    grouped: Dict[int, List[int]] = {}
    for oid in oids:
        grouped.setdefault(store.pid_of(oid), []).append(oid)
    return grouped


# ---------------------------------------------------------------------------
# The roll-up core, shared by all three public variants.
# ---------------------------------------------------------------------------

def _roll_up_schema(
    store: MonetXML, tagged: Iterable[Tuple[Token, int]]
) -> List[Tuple[int, FrozenSet[Tuple[Token, int]]]]:
    """Schema-driven bottom-up contraction (Fig. 5).

    ``tagged`` yields (token, OID) pairs; a current ancestor holding
    ≥ 2 distinct (token, OID) pairs is emitted as a meet and removed.
    Returns (meet OID, covered pairs) in schema post-order.
    """
    summary = store.summary
    # pending[pid][current ancestor OID] = accumulated origin tokens
    pending: Dict[int, Dict[int, Set[Tuple[Token, int]]]] = {}
    for token, oid in tagged:
        bucket = pending.setdefault(store.pid_of(oid), {})
        bucket.setdefault(oid, set()).add((token, oid))

    meets: List[Tuple[int, FrozenSet[Tuple[Token, int]]]] = []
    for pid in summary.postorder():
        entries = pending.get(pid)
        if not entries:
            continue
        # Emit every current OID covering >= 2 tokens; drop it.
        for oid in sorted(entries):
            tokens = entries[oid]
            if len(tokens) >= 2:
                meets.append((oid, frozenset(tokens)))
                del entries[oid]
        parent_pid = summary.parent(pid)
        if parent_pid == 0:
            del pending[pid]  # survivors at a root path die out
            continue
        target = pending.setdefault(parent_pid, {})
        for current, tokens in entries.items():
            parent = store.parent_of(current)
            if parent is None:
                continue
            target.setdefault(parent, set()).update(tokens)
        del pending[pid]
    return meets


def _roll_up_depthwise(
    store: MonetXML, tagged: Iterable[Tuple[Token, int]]
) -> List[Tuple[int, FrozenSet[Tuple[Token, int]]]]:
    """Depth-synchronous contraction; emits the same meets as above."""
    by_depth: Dict[int, Dict[int, Set[Tuple[Token, int]]]] = {}
    for token, oid in tagged:
        level = by_depth.setdefault(store.depth_of(oid), {})
        level.setdefault(oid, set()).add((token, oid))

    meets: List[Tuple[int, FrozenSet[Tuple[Token, int]]]] = []
    if not by_depth:
        return meets
    for depth in range(max(by_depth), 0, -1):
        entries = by_depth.get(depth)
        if not entries:
            continue
        for oid in sorted(entries):
            tokens = entries[oid]
            if len(tokens) >= 2:
                meets.append((oid, frozenset(tokens)))
                del entries[oid]
        if depth == 1:
            break
        target = by_depth.setdefault(depth - 1, {})
        for current, tokens in entries.items():
            parent = store.parent_of(current)
            if parent is None:
                continue
            target.setdefault(parent, set()).update(tokens)
    return meets


# ---------------------------------------------------------------------------
# Public variants.
# ---------------------------------------------------------------------------

def _as_oid_tokens(
    relations: Mapping[Hashable, Iterable[int]]
) -> Iterable[Tuple[Token, int]]:
    """Fig. 5 inputs: the OID is its own origin token (set semantics)."""
    for oids in relations.values():
        for oid in oids:
            yield (oid, oid)


def meet_general(
    store: MonetXML,
    relations: Mapping[Hashable, Iterable[int]],
) -> List[GeneralMeet]:
    """Fig. 5: schema-driven bottom-up roll-up; see module docstring.

    ``relations`` maps a relation key (normally a pid, as produced by
    :func:`group_by_pid`) to the OIDs of that type.  Duplicate OIDs collapse: inputs form a
    set, exactly as in the paper.  Results are emitted in schema
    post-order (per-branch deepest first); use
    :mod:`repro.core.ranking` for a global ranking.
    """
    return [
        GeneralMeet(oid=oid, origins=frozenset(o for _, o in tokens))
        for oid, tokens in _roll_up_schema(store, _as_oid_tokens(relations))
    ]


def meet_depthwise(
    store: MonetXML, relations: Mapping[Hashable, Iterable[int]]
) -> List[GeneralMeet]:
    """Depth-synchronous variant: contract one instance level at a time.

    Because ``len(π(o)) == depth(o)``, grouping pending entries by
    depth instead of by schema node performs the same contractions in a
    coarser order; OIDs on different paths can never collide, so the
    emitted meets are identical to :func:`meet_general`.
    """
    return [
        GeneralMeet(oid=oid, origins=frozenset(o for _, o in tokens))
        for oid, tokens in _roll_up_depthwise(store, _as_oid_tokens(relations))
    ]


def meet_tagged(
    store: MonetXML, tagged: Iterable[Tuple[Token, int]]
) -> List[TaggedMeet]:
    """Roll-up over (token, OID) pairs; meets cover ≥ 2 distinct tokens.

    With tokens = search terms, a node whose single association matches
    two different terms is itself emitted (paper §3.1, "Bob Byte").
    """
    return [
        TaggedMeet(oid=oid, tokens=tokens)
        for oid, tokens in _roll_up_schema(store, tagged)
    ]
