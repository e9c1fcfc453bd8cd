"""Answer-preserving document sharding of one Monet XML store.

The meet roll-up (Fig. 5) has one structural property that makes a
collection embarrassingly parallel: the subtrees hanging off the
document root share no ancestor *except the root itself*, so every
meet either lies inside exactly one top-level subtree or is the root.
Because OIDs are assigned in depth-first pre-order
(:class:`repro.datamodel.document.Document`), every top-level subtree
occupies one *contiguous* OID range — a shard can therefore be an
ordinary :class:`~repro.monet.engine.MonetXML` store over a slice of
the dense columns, answering with the **original global OIDs**, and a
scatter-gather coordinator (:mod:`repro.exec.coordinator`) reassembles
byte-identical global answers:

* per-shard meets are global meets verbatim (their ancestry never
  leaves the shard);
* meets *at the root* are reconstructed by the coordinator from each
  shard's *residue* — the input pairs no local meet absorbed — which
  is exactly the pending set the monolithic roll-up would deliver to
  the root (each input pair is either absorbed by exactly one emitted
  meet or survives to the root, on both backends).

Physically, shard ``k`` covers the OID range ``[start_k, end_k)`` (a
run of whole top-level subtrees) plus a **stand-in root** at OID
``start_k - 1`` so the dense columns stay gap-free.  For shard 0 the
stand-in *is* the true document root (pre-order puts the first child
at ``root_oid + 1``), and shard 0 alone carries the root's attribute
associations, so the other stand-ins can never appear in a hit or an
answer — shard services drop their local root from every result and
the coordinator re-derives the one true root globally.  Every stand-in
carries the root's rank row (nothing searches ranks), so a shard's
``ranks`` are its dense columns regrouped by pid, like any store's.
All shards share the complete path summary, so pids, paths, labels and
depths are globally consistent.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..datamodel.errors import ReproError
from ..monet.bat import BAT
from ..monet.engine import MonetXML, int32_column

__all__ = ["ShardingError", "ShardPlan", "compute_shard_plan", "slice_store"]


class ShardingError(ReproError):
    """A store that cannot be sharded, or a malformed shard layout."""


@dataclass(frozen=True)
class ShardPlan:
    """The immutable layout of one sharded collection.

    ``starts[k] .. ends[k]`` is shard ``k``'s half-open range of real
    OIDs (whole top-level subtrees); the root OID belongs to shard 0.
    The global node/path/relation counts ride along so a coordinator
    that never loads a full store can still describe the collection
    (and render byte-identical ``explain`` output).
    """

    root_oid: int
    root_pid: int
    node_count: int
    path_count: int
    relation_count: int
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

    def shard_of(self, oid: int) -> int:
        """The shard holding a real OID (the root lives in shard 0)."""
        if oid == self.root_oid:
            return 0
        shard = bisect_right(self.starts, oid) - 1
        if shard < 0 or oid >= self.ends[shard]:
            raise ShardingError(f"OID {oid} is outside the sharded range")
        return shard

    def fingerprint(self) -> Tuple:
        """The layout component of shard-aware cache keys."""
        return (self.shard_count, self.starts, self.ends)

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.shard_count,
            "root_oid": self.root_oid,
            "root_pid": self.root_pid,
            "node_count": self.node_count,
            "path_count": self.path_count,
            "relation_count": self.relation_count,
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
                path_count=int(payload["path_count"]),  # type: ignore[arg-type]
                relation_count=int(payload["relation_count"]),  # type: ignore[arg-type]
                starts=tuple(int(s) for s in payload["starts"]),  # type: ignore[union-attr]
                ends=tuple(int(e) for e in payload["ends"]),  # type: ignore[union-attr]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ShardingError(f"malformed shard layout: {exc}") from exc


def _subtree_spans(store: MonetXML) -> List[Tuple[int, int]]:
    """Contiguous [start, end) OID span per top-level subtree.

    Verifies the pre-order invariant the whole scheme rests on: inside
    each span every non-head node's parent must also lie in the span —
    which by induction makes the span exactly one subtree.  A store
    with shuffled OIDs (nothing in this repo produces one, but legacy
    JSON images are caller-supplied) is rejected rather than sharded
    wrongly.
    """
    root = store.root_oid
    children = sorted(store.children_of(root))
    if store.first_oid != root:
        raise ShardingError(
            f"sharding expects the root to carry the first OID "
            f"(root={root}, first={store.first_oid})"
        )
    spans: List[Tuple[int, int]] = []
    boundary = store.last_oid + 1
    for position, child in enumerate(children):
        end = children[position + 1] if position + 1 < len(children) else boundary
        spans.append((child, end))
    if spans and (spans[0][0] != root + 1 or spans[-1][1] != boundary):
        raise ShardingError("top-level subtrees do not tile the OID range")
    # One pass over the dense parent column: inside each span every
    # non-head node's parent must lie in [head, oid) — by induction the
    # span is then exactly one subtree.
    parent_col = store.dense_columns()[1]
    first = store.first_oid
    for start, end in spans:
        for oid in range(start + 1, end):
            if not start <= parent_col[oid - first] < oid:
                raise ShardingError(
                    f"store OIDs are not in document pre-order near OID "
                    f"{oid}; cannot shard this store"
                )
    return spans


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
        return _plan_for(store, [(root + 1, root + 1)])
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
        path_count=len(store.summary) - 1,
        relation_count=len(store.edges) + len(store.strings),
        starts=tuple(start for start, _ in runs),
        ends=tuple(end for _, end in runs),
    )


def slice_store(store: MonetXML, plan: ShardPlan) -> List[MonetXML]:
    """Materialize one independent :class:`MonetXML` store per shard.

    Each shard shares the parent store's path summary instance and
    keeps the original OIDs; see the module docstring for the
    stand-in-root scheme.  The slices are plain stores: they snapshot,
    index and validate like any other.
    """
    if store.root_oid != plan.root_oid or store.node_count != plan.node_count:
        raise ShardingError("shard plan does not describe this store")
    root = store.root_oid
    root_pid = store.pid_of(root)
    root_rank = store.rank_of(root)
    pid_col, parent_col, rank_col = store.dense_columns()
    first = store.first_oid
    starts = plan.starts
    count = plan.shard_count
    stand_ins = [lo - 1 for lo in starts]  # shard 0's IS the true root

    def _bucket(
        relations, routing_side: int, every_shard: bool = False
    ) -> List[Dict[int, BAT]]:
        """One pass per relation, rows bucketed by owning shard.

        ``routing_side`` picks the column that decides the shard (the
        child for edges, the owner for strings/ranks).  Rows owned by
        the true root go to shard 0 (its stand-in is the real root), or
        to ``every_shard``; a root head becomes the shard's stand-in.
        """
        buckets: List[Dict[int, List[Tuple]]] = [{} for _ in range(count)]
        everywhere = range(count)
        for pid, relation in relations.items():
            for row in zip(relation.heads, relation.tails):
                oid = row[routing_side]
                if oid != root:
                    owners = (bisect_right(starts, oid) - 1,)
                else:
                    owners = everywhere if every_shard else (0,)
                for shard in owners:
                    buckets[shard].setdefault(pid, []).append(
                        (stand_ins[shard], row[1]) if row[0] == root else row
                    )
        return [
            {
                pid: BAT(rows, name=relations[pid].name)
                for pid, rows in bucket.items()
            }
            for bucket in buckets
        ]

    edge_parts = _bucket(store.edges, routing_side=1)
    # The true root's attributes route to shard 0 only: duplicating
    # them would duplicate hits.  Its rank row is every stand-in's.
    string_parts = _bucket(store.strings, routing_side=0)
    rank_parts = _bucket(store.ranks, routing_side=0, every_shard=True)

    shards: List[MonetXML] = []
    for shard_id, (lo, hi) in enumerate(zip(plan.starts, plan.ends)):
        stand_in = stand_ins[shard_id]
        span = slice(lo - first, hi - first)
        pids = int32_column([root_pid]) + int32_column(pid_col[span])
        parents = int32_column([-1]) + int32_column(
            stand_in if parent == root else parent
            for parent in parent_col[span]
        )
        ranks = int32_column([root_rank]) + int32_column(rank_col[span])
        shards.append(
            MonetXML(
                summary=store.summary,
                root_oid=stand_in,
                first_oid=stand_in,
                oid_pid=pids,
                oid_parent=parents,
                oid_rank=ranks,
                edges=edge_parts[shard_id],
                strings=string_parts[shard_id],
                ranks=rank_parts[shard_id],
            )
        )
    return shards
