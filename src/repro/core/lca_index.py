"""The LCA index of the ``vector`` backend: one depth column per OID.

The paper's ``meet₂`` (Fig. 3) deliberately avoids preprocessing: its
per-query cost *is* the distance, which doubles as the §4 ranking
signal, and nothing beyond the Monet transform is needed.  That trade
is right for one ad-hoc query — and wrong for a server answering
thousands of nearest-concept queries against one loaded store.  This
module provides the offline answer the paper cites as refs. [4, 5] —
LCA as a range-minimum query over depths — in the form the store's
layout makes cheapest.  Every store is in document pre-order, so a
node's subtree is the contiguous OID run after it, and for OIDs
``u < v``

    lca(u, v) = parent(argmin depth over (u, v])
    d(u, v)   = depth(u) + depth(v) − 2·depth(lca)

in O(1) after O(n) preprocessing.  The index *is* one flat ``int32``
column, the depth per ``oid − first_oid`` slot (root = 1), derived
from the store's parent column with whole-array pointer jumping
(:func:`tree_depths`); the range-minimum structure (a sampled sparse
table) is derived from it by :class:`~repro.kernels.lca.LcaKernels`
when they bind, and the parent of the minimum is read off the store.
The Euler tour of 2n − 1 steps with first/last positions per OID that
refs. [4, 5] walk is gone: pre-order already is the order it encoded.
Nothing of the index is persisted; a snapshot load derives the column
while it checks the store's pre-order.

:class:`~repro.core.backends.VectorBackend` reuses one
:class:`LcaIndex` per store across every pairwise, set-wise and n-ary
meet.  The index is one of the store's maintained indexes
(:data:`LCA_INDEXES`, a :class:`~repro.monet.engine.DerivedCache` like
the full-text and value indexes' registries): :func:`get_lca_index`
builds it once per store and brings a stale one current through the
store's mutation journal (:meth:`LcaIndex.patched`) instead of a
rebuild.  ``put_document`` hangs one contiguous pre-order OID run under
the root as its last child, so a put extends the column at its tail;
a delete sets its span to :data:`~repro.kernels.lca.DEAD`, a depth that
never wins a minimum, and its OIDs raise
:class:`~repro.datamodel.errors.UnknownOIDError` like any unknown OID.
Compaction's OID map is monotone and keeps every depth, so the
compacted store's column is the live slots of this one
(:meth:`LcaIndex.carried`).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Tuple

import numpy as np

from ..datamodel.errors import UnknownOIDError
from ..kernels.lca import DEAD, get_kernels, regrown
from ..monet.engine import DerivedCache, MonetXML
from ..monet.mutate import MutationRecord

__all__ = [
    "LcaIndex",
    "tree_depths",
    "LCA_INDEXES",
    "get_lca_index",
    "clear_lca_index_cache",
    "lca_index_cache_info",
]


def tree_depths(
    parents: np.ndarray,
    root_slot: int,
    known: np.ndarray = np.empty(0, dtype=np.int32),
) -> np.ndarray:
    """Depths of a run of slots from their parents' slots.

    ``parents`` holds the parent slot of each slot of the run (negative
    for none) and ``known`` the depths of every slot before the run, so
    a parent lies in the run or before it.  Pointer jumping: each slot
    keeps a hop to an ancestor and the edges to it, and every pass
    doubles the hops until each ends at the slot's topmost ancestor in
    the run — O(n log depth) whole-array work.  The root slot gets
    depth 1, a parentless slot that is not the root (a tombstone)
    :data:`~repro.kernels.lca.DEAD`.
    """
    parents = np.asarray(parents, dtype=np.int64)
    start = len(known)
    inside = parents >= start
    hop = np.where(inside, parents - start, np.arange(len(parents)))
    hops = inside.astype(np.int64)
    while True:
        further = hops[hop]
        if not further.any():
            break
        hops += further
        hop = hop[hop]
    top_parent = parents[hop]
    top = np.full(len(parents), DEAD, dtype=np.int64)
    linked = top_parent >= 0
    top[linked] = known[top_parent[linked]].astype(np.int64) + 1
    top[hop + start == root_slot] = 1
    return np.minimum(hops + top, DEAD).astype(np.int32)


class LcaIndex:
    """O(1)-query LCA/distance index over one store.

    Preprocessing is O(n) space: the depth per OID slot (``DEAD`` for
    a tombstone).  All queries after that are O(1) range minimums of
    the bound kernels: ``lca``, ``distance``, ``is_ancestor``.
    """

    def __init__(self, store: MonetXML):
        parents = np.asarray(store.dense_columns()[1], dtype=np.int64)
        base = store.first_oid
        self._bind(store, tree_depths(parents - base, store.root_oid - base))

    def _bind(self, store: MonetXML, depths: np.ndarray) -> None:
        self.store = store
        self._base = store.first_oid
        #: Depth per ``oid − first_oid`` slot; read-only by contract.
        self.depths = depths
        self._vector_kernels = None  # see repro.kernels.lca
        #: Store generation this index answers for; a mismatch with
        #: ``store.generation`` means the index is stale.
        #: The registry publishes it last after :meth:`patched`.
        self.generation = getattr(store, "generation", 0)

    @classmethod
    def from_depths(cls, store: MonetXML, depths: np.ndarray) -> "LcaIndex":
        """Bind an already derived depth column as a ready index."""
        self = cls.__new__(cls)
        self._bind(store, depths)
        return self

    # -- maintenance ----------------------------------------------------
    def patched(self, chain: Iterable[MutationRecord]) -> "LcaIndex":
        """Apply journalled mutations (oldest first) in place; returns
        this index.

        A put derives its span's depths at the tail of the column (the
        span hangs under the root, which has depth 1; a span a later
        record already deleted has no parents left and reads ``DEAD``),
        a delete sets its span to ``DEAD``.  Attached
        :class:`~repro.kernels.lca.LcaKernels` refill the table cells
        that see a written slot.  The caller publishes ``generation``.
        """
        base = self._base
        root_slot = self.store.root_oid - base
        changed: List[Tuple[int, int]] = []
        for record in chain:
            low, high = record.span[0] - base, record.span[1] - base + 1
            if record.kind == "put":
                grown = regrown(self.depths, (high,))
                parents = self.store.dense_columns()[1][low:high]
                grown[low:] = tree_depths(
                    np.asarray(parents, dtype=np.int64) - base,
                    root_slot,
                    grown[:low],
                )
                self.depths = grown
            else:
                self.depths[low:high] = DEAD
            changed.append((low, high))
        if self._vector_kernels is not None:
            self._vector_kernels.follow(self.depths, changed)
        return self

    def carried(
        self, store: MonetXML, _renumbered: Callable[[np.ndarray], np.ndarray]
    ) -> "LcaIndex":
        """This index carried over to ``store``, the compaction of its own.

        The compaction's OID map is monotone and keeps every parent, so
        the compacted column is this one's live slots, in order.  If
        this index had its kernels bound, the carried one binds them
        too, so the range-minimum table is derived here rather than by
        the first read of the compacted store.  Call it on a current
        index.
        """
        carried = LcaIndex.from_depths(store, self.depths[self.depths != DEAD])
        if self._vector_kernels is not None:
            get_kernels(carried)
        return carried

    # -- O(1) queries ---------------------------------------------------
    def depth(self, oid: int) -> int:
        """Tree depth of a node (root = 1)."""
        slot = oid - self._base
        if 0 <= slot < len(self.depths) and self.depths[slot] != DEAD:
            return int(self.depths[slot])
        raise UnknownOIDError(oid)

    def lca(self, oid1: int, oid2: int) -> int:
        """The lowest common ancestor (= ``meet₂``'s answer), O(1)."""
        return self.lca_with_distance(oid1, oid2)[0]

    def distance(self, oid1: int, oid2: int) -> int:
        """Tree distance d(o₁,o₂) via depths and the O(1) LCA.

        Equals the join count of the paper's traced Fig. 3 walk.
        """
        return self.lca_with_distance(oid1, oid2)[1]

    def lca_with_distance(self, oid1: int, oid2: int) -> Tuple[int, int]:
        """(lca, distance) in one pass: a one-pair kernel batch."""
        meets, distances = get_kernels(self).lca_many(
            np.array([oid1]), np.array([oid2])
        )
        return int(meets[0]), int(distances[0])

    def is_ancestor(self, ancestor_oid: int, descendant_oid: int) -> bool:
        """Reflexive ancestor test: the ancestor is the meet, O(1)."""
        return self.lca(ancestor_oid, descendant_oid) == ancestor_oid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LcaIndex slots={len(self.depths)} "
            f"generation={self.generation}>"
        )


# ---------------------------------------------------------------------------
# The per-store registry (repro.monet.engine.DerivedCache).
# ---------------------------------------------------------------------------

#: The LCA index of every store, kept current across writes.
LCA_INDEXES = DerivedCache("lca", lambda store, _key: LcaIndex(store))


def get_lca_index(store: MonetXML) -> LcaIndex:
    """The current :class:`LcaIndex` of a store, built on first use."""
    return LCA_INDEXES.get(store)


clear_lca_index_cache = LCA_INDEXES.clear
lca_index_cache_info = LCA_INDEXES.info
