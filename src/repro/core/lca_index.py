"""Precomputed Euler-tour LCA index (the ``vector`` backend's columns).

The paper's ``meet₂`` (Fig. 3) deliberately avoids preprocessing: its
per-query cost *is* the distance, which doubles as the §4 ranking
signal, and nothing beyond the Monet transform is needed.  That trade
is right for one ad-hoc query — and wrong for a server answering
thousands of nearest-concept queries against one loaded store.  This
module provides the classic offline answer the paper cites as refs.
[4, 5]: an Euler tour of the instance tree plus a range-minimum
structure over tour depths gives O(1) LCA and O(1) depth-based distance

    d(o₁, o₂) = depth(o₁) + depth(o₂) − 2·depth(lca)

after O(n) preprocessing.  The index *is* four flat ``int32`` columns —
the tour, its depths and the dense first/last tour position per OID —
and they are all a snapshot bundle stores.  The range-minimum structure
(a sampled sparse table) is derived from the depth column by
:class:`~repro.kernels.lca.LcaKernels` when they bind, and never
persisted; the scalar queries here read that same table.

:class:`~repro.core.backends.VectorBackend` reuses one
:class:`LcaIndex` per store across every pairwise, set-wise and n-ary
meet; :func:`get_lca_index` caches the index per store and *maintains*
it across live writes the way the full-text and value indexes are
maintained: a stale generation is bridged with the store's mutation
journal (:func:`repro.monet.mutate.journal_chain`) instead of a
rebuild.

That works because the tour is append-only under the write path.
``put_document`` hangs one contiguous pre-order OID run under the root
as its last child, so the tour only grows at its tail (the new
sub-tree's tour, then the root again), every table cell already filled
stays valid (a cell covers a window that *starts* at its position), and
a put adds O(Δ) cells.  A delete only blanks the span's ``first``/
``last`` slots: the tombstoned document stays in the tour, where no
live pair's range minimum can land (a range between two live nodes that
crosses a dead sub-tree also crosses the root entries around it, which
are shallower), and its OIDs raise
:class:`~repro.datamodel.errors.UnknownOIDError` like any unknown OID.
The full build is the same routine run once over the whole store from
an empty index; it is what a store without a bridging journal chain
gets (evicted journal, bare ``invalidate_caches()``, a compacted — i.e.
new — store).

Beyond plain LCA the index exposes the Euler order itself
(:meth:`LcaIndex.euler_position`) and an O(1) interval ancestor test
(:meth:`LcaIndex.is_ancestor`).
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..datamodel.errors import UnknownOIDError
from ..kernels.lca import get_kernels
from ..monet.engine import DerivedCache, MonetXML
from ..monet.mutate import MutationRecord, journal_chain

__all__ = [
    "LcaIndex",
    "get_lca_index",
    "seed_lca_index",
    "clear_lca_index_cache",
    "lca_index_cache_info",
    "LcaIndexCacheInfo",
]


class LcaIndex:
    """O(1)-query LCA/distance index over one store.

    Preprocessing is O(n) time and space: the Euler tour of length
    2n−1, its depths, and a first/last tour position per OID (``-1``
    for a tombstone).  All queries after that are O(1): ``lca``,
    ``distance``, ``depth``, ``euler_position``, ``is_ancestor``.  The
    range-minimum table behind ``lca`` is the one its
    :class:`~repro.kernels.lca.LcaKernels` derive when they bind.
    """

    def __init__(self, store: MonetXML):
        self._bind(store, array("i"), array("i"), array("i"), array("i"))
        self._append_run(store.first_oid, store.last_oid)

    def _bind(self, store: MonetXML, tour, depth, first, last) -> None:
        self.store = store
        self._base = store.first_oid
        self._tour = tour       # node OID per Euler step
        self._depth = depth     # depth per Euler step
        self._first = first     # OID − base → first tour position
        self._last = last       # OID − base → last tour position
        self._vector_kernels = None  # see repro.kernels.lca
        #: Store generation this index answers for; a mismatch with
        #: ``store.generation`` means the index is stale.
        #: :meth:`roll_forward`'s caller publishes it last.
        self.generation = getattr(store, "generation", 0)

    # -- preprocessing & maintenance ------------------------------------
    def _append_run(self, low: int, high: int) -> None:
        """Append the Euler tour of the OID run ``[low, high]``.

        The run is either the whole store (the build: the tour is empty
        and opens with the root) or one freshly put document, whose top
        node hangs under the root as its last child — so the tour,
        which always ends on the root, continues with the sub-tree's
        tour and the root again.  Tombstoned nodes have no parent
        pointer (``-1``) and are never reached: a put that a later record
        already deleted only gains its blank ``first``/``last`` slots.
        """
        store = self.store
        root = store.root_oid
        base = self._base
        _, parents, ranks = store.dense_columns()
        children: Dict[int, List[int]] = {}
        for oid, parent in enumerate(
            parents[low - base : high - base + 1], low
        ):
            if parent >= 0:
                children.setdefault(parent, []).append(oid)
        for siblings in children.values():
            if len(siblings) > 1:
                siblings.sort(key=lambda oid: ranks[oid - base])

        tour = self._tour
        depths = self._depth
        first = self._first
        last = self._last
        blank = array(first.typecode, [-1]) * (high - base + 1 - len(first))
        first.extend(blank)
        last.extend(blank)
        if not tour:
            first[root - base] = last[root - base] = 0
            tour.append(root)
            depths.append(1)
        for top in children.get(root, ()):
            # Iterative Euler tour: (oid, depth, child cursor) frames; a
            # parent is re-appended every time a child frame returns.
            stack: List[List[int]] = [[top, 2, 0]]
            while stack:
                frame = stack[-1]
                oid, depth, cursor = frame
                if cursor == 0:
                    first[oid - base] = len(tour)
                last[oid - base] = len(tour)
                tour.append(oid)
                depths.append(depth)
                below = children.get(oid, ())
                if cursor < len(below):
                    frame[2] += 1
                    stack.append([below[cursor], depth + 1, 0])
                else:
                    stack.pop()
            last[root - base] = len(tour)
            tour.append(root)
            depths.append(1)

    def roll_forward(self, chain: Iterable[MutationRecord]) -> None:
        """Apply journalled mutations (oldest first) in place.

        A put appends its span's tour (:meth:`_append_run`), a delete
        blanks the span's ``first``/``last`` slots.  Attached
        :class:`~repro.kernels.lca.LcaKernels` (and their derived table)
        follow at the tail.  The caller publishes ``generation``.
        Read-only snapshot columns (``memoryview`` casts over the mmap'd
        bundle) become owned arrays on the first write, like
        ``_ensure_mutable`` does for the store itself.
        """
        if not isinstance(self._tour, array):
            self._tour, self._depth, self._first, self._last = (
                array(column.format, column.tobytes())
                for column in self.columns().values()
            )
        base = self._base
        dropped: List[Tuple[int, int]] = []
        for record in chain:
            low, high = record.span
            if record.kind == "put":
                self._append_run(low, high)
            else:
                blank = array(self._first.typecode, [-1]) * (high - low + 1)
                self._first[low - base : high - base + 1] = blank
                self._last[low - base : high - base + 1] = blank
                dropped.append((low, high))
        if self._vector_kernels is not None:
            self._vector_kernels.follow(dropped)

    # -- O(1) queries ---------------------------------------------------
    def euler_position(self, oid: int) -> int:
        """First Euler-tour position of a node (its pre-order slot)."""
        slot = oid - self._base
        if 0 <= slot < len(self._first):
            position = self._first[slot]
            if position >= 0:
                return position
        raise UnknownOIDError(oid)

    def depth(self, oid: int) -> int:
        """Tree depth of a node (root = 1), read off the tour."""
        return self._depth[self.euler_position(oid)]

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
        """Reflexive ancestor test via Euler interval containment, O(1)."""
        first = self.euler_position(ancestor_oid)
        return (
            first
            <= self.euler_position(descendant_oid)
            <= self._last[ancestor_oid - self._base]
        )

    # -- flat columns (the kernels' and the snapshot store's contract) --
    def columns(self) -> Dict[str, Sequence[int]]:
        """The index state: four flat int columns.

        ``first``/``last`` are dense, indexed by ``oid − first_oid``,
        with ``-1`` marking OIDs absent from the tour (tombstones).
        The columns are handed out without a copy (``array``s of a
        built or rolled-forward index, ``memoryview`` casts of a
        snapshot-loaded one); together with the store they reconstruct
        an equivalent index via :meth:`from_arrays` with no tour walk.
        """
        return {
            "tour": self._tour,
            "depth": self._depth,
            "first": self._first,
            "last": self._last,
        }

    @classmethod
    def from_arrays(cls, store: MonetXML, *, tour, depth, first, last) -> "LcaIndex":
        """Rebind deserialized columns as a ready index — O(1).

        No Euler tour is walked and nothing is copied: the columns
        (any int sequences, e.g. zero-copy memoryview casts, 4 or 8
        bytes per item) are used as-is.
        """
        self = cls.__new__(cls)
        self._bind(store, tour, depth, first, last)
        return self

    @property
    def tour_length(self) -> int:
        return len(self._tour)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LcaIndex slots={len(self._first)} tour={len(self._tour)} "
            f"generation={self.generation}>"
        )


# ---------------------------------------------------------------------------
# Per-store cache, keyed on store identity + generation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LcaIndexCacheInfo:
    """Counters of the per-store index cache (for tests and benches).

    ``builds`` counts full constructions only; ``patches`` counts
    roll-forwards through the mutation journal.
    """

    builds: int
    hits: int
    currsize: int
    patches: int = 0


_cache = DerivedCache("lca_index")  # store → LcaIndex
_builds = 0
_hits = 0
_patches = 0
#: Serializes roll-forwards and builds: readers share the ``Database``
#: read lock, so several can find the same index stale after one write.
_maintenance_lock = threading.Lock()


def get_lca_index(store: MonetXML) -> LcaIndex:
    """The cached :class:`LcaIndex` of a store, maintained on demand.

    The index is kept on the store object (a dropped store takes its
    index with it) under the store's ``generation``.  When the store's
    mutation journal bridges the cached index's generation to the
    current one, the same index object is rolled forward in place
    (:meth:`LcaIndex.roll_forward`); otherwise — a fresh store object,
    a bare :meth:`~repro.monet.engine.MonetXML.invalidate_caches`, a
    journal evicted past its limit — a new index is built.
    """
    global _builds, _hits, _patches
    cached = _cache.get(store)
    if cached is not None and cached.generation == getattr(store, "generation", 0):
        _hits += 1
        return cached
    with _maintenance_lock:
        cached = _cache.get(store)
        generation = getattr(store, "generation", 0)
        if cached is not None and cached.generation == generation:
            _hits += 1
            return cached
        chain = None if cached is None else journal_chain(store, cached.generation)
        if chain is not None:
            try:
                cached.roll_forward(chain)
            except BaseException:
                # Half applied: never serve it, never patch it again.
                del _cache[store]
                raise
            cached.generation = generation  # published last
            _patches += 1
            return cached
        index = LcaIndex(store)
        _cache[store] = index
        _builds += 1
        return index


def seed_lca_index(store: MonetXML, index: LcaIndex) -> None:
    """Install a ready index into the per-store cache without a build.

    The snapshot loader's hook: a deserialized
    :meth:`LcaIndex.from_arrays` index is registered so that every
    subsequent :func:`get_lca_index` call — engines, backends, the CLI
    — is a cache hit.  Neither the build nor the hit counter moves,
    keeping the "zero constructions on warm start" property testable.
    """
    if index.store is not store:
        raise ValueError("cannot seed the cache with an index of another store")
    index.generation = getattr(store, "generation", 0)
    _cache[store] = index


def clear_lca_index_cache() -> None:
    """Drop every cached index and reset the counters (test isolation)."""
    global _builds, _hits, _patches
    _cache.clear()
    _builds = 0
    _hits = 0
    _patches = 0


def lca_index_cache_info() -> LcaIndexCacheInfo:
    return LcaIndexCacheInfo(
        builds=_builds, hits=_hits, currsize=len(_cache), patches=_patches
    )
