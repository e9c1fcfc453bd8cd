"""Answer-preserving sharding of one Monet XML store by OID range.

The meet roll-up (Fig. 5) has one structural property that makes a
collection embarrassingly parallel: the subtrees hanging off the
document root share no ancestor *except the root itself*, so every
meet either lies inside exactly one top-level subtree or is the root.
Because OIDs are assigned in depth-first pre-order
(:class:`repro.datamodel.document.Document`), every top-level subtree
occupies one *contiguous* OID range.  A shard is therefore nothing but
a range of the one store: shard ``k`` answers over ``[lo_k, hi_k)``, a
run of whole top-level subtrees, and shard 0's range also covers the
root OID.  The store, its LCA and full-text indexes and its bundle are
shared by every shard; the :class:`ShardPlan` is the whole layout.
Live writes keep it: a put appends one top-level subtree at the OID
tail, which the last range grows to cover (:meth:`ShardPlan.extended`),
and a delete leaves tombstones inside its range; only compaction,
which renumbers, plans the ranges anew.

A scatter-gather coordinator (:mod:`repro.exec.coordinator`)
reassembles byte-identical global answers:

* per-shard meets below the root are global meets verbatim (their
  ancestry never leaves the range);
* the meet *at the root* is dropped by every shard and reconstructed
  by the coordinator from each shard's *residue* — the input pairs no
  kept meet absorbed — which is exactly the pending set the monolithic
  roll-up would deliver to the root (each input pair is either
  absorbed by exactly one emitted meet or survives to the root, on
  both backends).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as np

from ..datamodel.errors import ReproError
from ..monet.engine import MonetXML

__all__ = ["ShardingError", "ShardPlan", "compute_shard_plan"]


class ShardingError(ReproError):
    """A store that cannot be sharded, or a malformed shard layout."""


@dataclass(frozen=True)
class ShardPlan:
    """The immutable layout of one sharded collection.

    ``starts[k] .. ends[k]`` is shard ``k``'s half-open range of real
    OIDs (whole top-level subtrees); the root OID belongs to shard 0
    (:meth:`span`).  ``node_count`` is the store's, tombstones
    included, so a plan can refuse a store it does not describe.
    """

    root_oid: int
    root_pid: int
    node_count: int
    starts: Tuple[int, ...]
    ends: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.starts) != len(self.ends) or not self.starts:
            raise ShardingError("shard plan needs matching start/end runs")
        previous = self.root_oid
        for start, end in zip(self.starts, self.ends):
            if start != previous + 1 or end < start:
                raise ShardingError(
                    f"shard ranges must tile [{self.root_oid + 1}..) "
                    f"contiguously; got starts={self.starts} ends={self.ends}"
                )
            previous = end - 1

    @property
    def shard_count(self) -> int:
        return len(self.starts)

    def span(self, shard: int) -> Tuple[int, int]:
        """The half-open OID range shard ``shard`` answers over; shard
        0's starts at the root."""
        low = self.root_oid if shard == 0 else self.starts[shard]
        return low, self.ends[shard]

    def shard_of(self, oid: int) -> int:
        """The shard holding a real OID (the root lives in shard 0)."""
        if oid == self.root_oid:
            return 0
        shard = bisect_right(self.starts, oid) - 1
        if shard < 0 or oid >= self.ends[shard]:
            raise ShardingError(f"OID {oid} is outside the sharded range")
        return shard

    def extended(self, store: MonetXML) -> "ShardPlan":
        """This layout over ``store`` after live writes: the last range
        reaches the OID tail, where puts append their subtrees."""
        return replace(
            self,
            node_count=store.node_count,
            ends=self.ends[:-1] + (store.last_oid + 1,),
        )

    def fingerprint(self) -> Tuple:
        """The layout component of shard-aware cache keys."""
        return (self.shard_count, self.starts, self.ends)

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.shard_count,
            "root_oid": self.root_oid,
            "root_pid": self.root_pid,
            "node_count": self.node_count,
            "starts": list(self.starts),
            "ends": list(self.ends),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ShardPlan":
        try:
            return cls(
                root_oid=int(payload["root_oid"]),  # type: ignore[arg-type]
                root_pid=int(payload["root_pid"]),  # type: ignore[arg-type]
                node_count=int(payload["node_count"]),  # type: ignore[arg-type]
                starts=tuple(int(s) for s in payload["starts"]),  # type: ignore[union-attr]
                ends=tuple(int(e) for e in payload["ends"]),  # type: ignore[union-attr]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ShardingError(f"malformed shard layout: {exc}") from exc

    def check_store(self, store: MonetXML) -> None:
        """Refuse a store this plan was not computed for."""
        if (
            store.root_oid != self.root_oid
            or store.node_count != self.node_count
        ):
            raise ShardingError("shard plan does not describe this store")


def _subtree_spans(store: MonetXML) -> List[Tuple[int, int]]:
    """Contiguous [start, end) OID span per live top-level subtree.

    The heads are the OIDs whose parent is the root; the first span
    starts right after the root, so a tombstoned run (no parents) stays
    inside the span it sits in.  Verifies the pre-order invariant the
    whole scheme rests on: inside each span every live non-head node's
    parent must also lie in the span, before the node — which by
    induction makes the span exactly one subtree plus tombstones.  A
    store with shuffled OIDs (nothing in this repo produces one, but a
    hand-made store can hold one) is rejected rather than sharded
    wrongly.
    """
    root = store.root_oid
    if store.first_oid != root:
        raise ShardingError(
            f"sharding expects the root to carry the first OID "
            f"(root={root}, first={store.first_oid})"
        )
    parents = np.asarray(store.dense_columns()[1], dtype=np.int64)[1:]
    oids = np.arange(root + 1, root + 1 + len(parents))
    heads = oids[parents == root]
    if not len(heads):
        return []
    head_of = heads[np.maximum(np.searchsorted(heads, oids, "right") - 1, 0)]
    in_order = (parents < 0) | (oids == head_of) | (
        (head_of <= parents) & (parents < oids)
    )
    if not in_order.all():
        oid = int(oids[np.argmin(in_order)])
        raise ShardingError(
            f"store OIDs are not in document pre-order near OID "
            f"{oid}; cannot shard this store"
        )
    starts = np.concatenate(([root + 1], heads[1:]))
    ends = np.append(heads[1:], store.last_oid + 1)
    return list(zip(starts.tolist(), ends.tolist()))


def compute_shard_plan(store: MonetXML, shards: int) -> ShardPlan:
    """Partition the top-level subtrees into ``shards`` balanced runs.

    The requested count is clamped to the number of top-level subtrees
    (a three-subtree document cannot use more than three shards); a
    childless root yields one empty-range shard, which still serves
    root-only hits correctly.
    """
    if shards < 1:
        raise ShardingError(f"shard count must be >= 1, got {shards}")
    spans = _subtree_spans(store)
    root = store.root_oid
    if not spans:
        return _plan_for(store, [(root + 1, store.last_oid + 1)])
    count = min(shards, len(spans))
    total = store.node_count - 1
    runs: List[Tuple[int, int]] = []
    cursor = 0
    for shard in range(count):
        remaining_shards = count - shard
        # Greedy balance: aim each shard at its fair share of what is
        # left, but always take at least one subtree.
        target = (total - (spans[cursor][0] - root - 1)) / remaining_shards
        start = spans[cursor][0]
        end = spans[cursor][1]
        cursor += 1
        while (
            cursor < len(spans)
            and len(spans) - cursor >= remaining_shards
            and (end - start) + (spans[cursor][1] - spans[cursor][0]) / 2
            <= target
        ):
            end = spans[cursor][1]
            cursor += 1
        if shard == count - 1:
            end = spans[-1][1]
            cursor = len(spans)
        runs.append((start, end))
    return _plan_for(store, runs)


def _plan_for(store: MonetXML, runs: List[Tuple[int, int]]) -> ShardPlan:
    return ShardPlan(
        root_oid=store.root_oid,
        root_pid=store.pid_of(store.root_oid),
        node_count=store.node_count,
        starts=tuple(start for start, _ in runs),
        ends=tuple(end for _, end in runs),
    )
