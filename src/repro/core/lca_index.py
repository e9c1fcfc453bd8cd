"""Precomputed Euler-tour + sparse-table LCA index (the backend seam's
fast path).

The paper's ``meet₂`` (Fig. 3) deliberately avoids preprocessing: its
per-query cost *is* the distance, which doubles as the §4 ranking
signal, and nothing beyond the Monet transform is needed.  That trade
is right for one ad-hoc query — and wrong for a server answering
thousands of nearest-concept queries against one loaded store.  This
module provides the classic offline answer the paper cites as refs.
[4, 5]: an Euler tour of the instance tree plus a sparse table over
tour depths gives O(1) LCA and O(1) depth-based distance

    d(o₁, o₂) = depth(o₁) + depth(o₂) − 2·depth(lca)

after O(n log n) preprocessing.  :class:`~repro.core.backends.IndexedBackend`
builds one :class:`LcaIndex` per store and reuses it across every
pairwise, set-wise and n-ary meet; :func:`get_lca_index` caches the
index per store and *maintains* it across live writes the way the
full-text and value indexes are maintained: a stale generation is
bridged with the store's mutation journal
(:func:`repro.monet.mutate.journal_chain`) instead of a rebuild.

That works because the tour is append-only under the write path.
``put_document`` hangs one contiguous pre-order OID run under the root
as its last child, so the tour only grows at its tail (the new
sub-tree's tour, then the root again), every sparse-table cell
``[k][i]`` already filled stays valid, and a put adds O(Δ) cells per
level — O(Δ log n) in all.  A delete only drops the span's
``first``/``last`` entries: the tombstoned document stays in the tour,
where no live pair's range minimum can land (a range between two live
nodes that crosses a dead sub-tree also crosses the root entries
around it, which are shallower), and its OIDs raise
:class:`~repro.datamodel.errors.UnknownOIDError` like any unknown OID.
The full build is the same routine run once over the whole store from
an empty index; it is what a store without a bridging journal chain
gets (evicted journal, bare ``invalidate_caches()``, a compacted — i.e.
new — store).

Beyond plain LCA the index exposes the Euler order itself
(:meth:`LcaIndex.euler_position`) and an O(1) interval ancestor test
(:meth:`LcaIndex.is_ancestor`) — the two primitives the indexed
general-meet roll-up needs to build auxiliary ("virtual") trees over
hit sets without touching the full instance tree.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..datamodel.errors import UnknownOIDError
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

    Preprocessing is O(n log n) time and space (Euler tour of length
    2n−1 plus its sparse table).  All queries after that are O(1):
    ``lca``, ``distance``, ``depth``, ``euler_position``,
    ``is_ancestor``.
    """

    def __init__(self, store: MonetXML):
        self.store = store
        self._tour: List[int] = []          # node OID per Euler step
        self._tour_depth: List[int] = []    # depth per Euler step
        self._first: Dict[int, int] = {}    # OID → first tour position
        self._last: Dict[int, int] = {}     # OID → last tour position
        # Dense (oid − first_oid)-indexed first/last columns, built
        # lazily for the vector kernels (snapshot loads carry them in).
        self._first_column = None
        self._last_column = None
        self._log: List[int] = [0, 0]       # floor(log2(i)) per length i
        # table[k][i] = position of min depth in tour[i : i + 2**k];
        # row 0 is position→position, for which ``range`` is an O(1)
        # stand-in with identical indexing behaviour.
        self._table: List[Sequence[int]] = [range(0)]
        self._vector_kernels = None         # see repro.kernels.lca
        self._append_run(store.first_oid, store.last_oid)
        #: Store generation this index answers for; a mismatch with
        #: ``store.generation`` means the index is stale.  Published
        #: last, here and in :meth:`roll_forward`.
        self.generation = getattr(store, "generation", 0)

    # -- preprocessing & maintenance ------------------------------------
    def _append_run(self, low: int, high: int) -> None:
        """Append the Euler tour of the OID run ``[low, high]`` and fill
        the sparse-table cells the longer tour adds.

        The run is either the whole store (the build: the tour is empty
        and opens with the root) or one freshly put document, whose top
        node hangs under the root as its last child — so the tour,
        which always ends on the root, continues with the sub-tree's
        tour and the root again.  Tombstoned nodes have no parent
        pointer and are never reached.
        """
        store = self.store
        root = store.root_oid
        base = store.first_oid
        _, parents, ranks = store.dense_columns()
        children: Dict[int, List[int]] = {}
        for oid, parent in enumerate(
            parents[low - base : high - base + 1], low
        ):
            if parent is not None:
                children.setdefault(parent, []).append(oid)
        for siblings in children.values():
            if len(siblings) > 1:
                siblings.sort(key=lambda oid: ranks[oid - base])

        tour = self._tour
        depths = self._tour_depth
        first = self._first
        last = self._last
        if not tour:
            first[root] = last[root] = 0
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
                    first[oid] = len(tour)
                last[oid] = len(tour)
                tour.append(oid)
                depths.append(depth)
                below = children.get(oid, ())
                if cursor < len(below):
                    frame[2] += 1
                    stack.append([below[cursor], depth + 1, 0])
                else:
                    stack.pop()
            last[root] = len(tour)
            tour.append(root)
            depths.append(1)

        length = len(tour)
        log = self._log
        for i in range(len(log), length + 1):
            log.append(log[i // 2] + 1)
        table = self._table
        table[0] = range(length)
        k = 1
        while (1 << k) <= length:
            if k == len(table):
                table.append([])
            row = table[k]
            span = 1 << (k - 1)
            start, stop = len(row), length - (1 << k) + 1
            previous = table[k - 1]
            row.extend([
                left if depths[left] <= depths[right] else right
                for left, right in zip(
                    previous[start:stop], previous[start + span : stop + span]
                )
            ])
            k += 1

    def _ensure_growable(self) -> None:
        """Turn read-only snapshot columns into plain lists, once.

        :meth:`from_arrays` binds ``memoryview`` casts over the mmap'd
        bundle; the first write pays one conversion to growable form,
        like ``_ensure_mutable`` does for the store itself.
        """

        def growable(column):
            return column if isinstance(column, list) else list(column)

        self._tour = growable(self._tour)
        self._tour_depth = growable(self._tour_depth)
        self._log = growable(self._log)
        self._table[1:] = map(growable, self._table[1:])
        if self._first_column is not None:
            self._first_column = growable(self._first_column)
            self._last_column = growable(self._last_column)

    def roll_forward(self, chain: Iterable[MutationRecord]) -> None:
        """Apply journalled mutations (oldest first) in place.

        A put appends its span's tour (:meth:`_append_run`); a put whose
        span a later delete of the same chain already tombstoned adds
        nothing, exactly like a build over the current store.  A delete
        drops the span's ``first``/``last`` entries.  The memoised dense
        columns and an attached :class:`~repro.kernels.lca.LcaKernels`
        follow at the tail.  The caller publishes ``generation``.
        """
        self._ensure_growable()
        store = self.store
        base = store.first_oid
        root_slot = store.root_oid - base
        first, last = self._first, self._last
        first_column, last_column = self._first_column, self._last_column
        dropped: List[Tuple[int, int]] = []
        for record in chain:
            low, high = record.span
            if record.kind == "put":
                if store.is_live(low):
                    self._append_run(low, high)
                if first_column is not None:
                    span = range(low, high + 1)
                    first_column.extend(first.get(oid, -1) for oid in span)
                    last_column.extend(last.get(oid, -1) for oid in span)
                    last_column[root_slot] = last[store.root_oid]
            else:
                for oid in range(low, high + 1):
                    first.pop(oid, None)
                    last.pop(oid, None)
                if first_column is not None:
                    dead = [-1] * (high - low + 1)
                    first_column[low - base : high - base + 1] = dead
                    last_column[low - base : high - base + 1] = dead
                dropped.append((low, high))
        if self._vector_kernels is not None:
            self._vector_kernels.follow(dropped)

    # -- O(1) queries ---------------------------------------------------
    def euler_position(self, oid: int) -> int:
        """First Euler-tour position of a node (its pre-order slot)."""
        try:
            return self._first[oid]
        except KeyError:
            raise UnknownOIDError(oid) from None

    def depth(self, oid: int) -> int:
        """Tree depth of a node (root = 1), read off the tour."""
        return self._tour_depth[self.euler_position(oid)]

    def lca(self, oid1: int, oid2: int) -> int:
        """The lowest common ancestor (= ``meet₂``'s answer), O(1)."""
        try:
            first1 = self._first[oid1]
            first2 = self._first[oid2]
        except KeyError as exc:
            raise UnknownOIDError(int(str(exc.args[0]))) from None
        low, high = min(first1, first2), max(first1, first2)
        k = self._log[high - low + 1]
        left = self._table[k][low]
        right = self._table[k][high - (1 << k) + 1]
        position = (
            left if self._tour_depth[left] <= self._tour_depth[right] else right
        )
        return self._tour[position]

    def distance(self, oid1: int, oid2: int) -> int:
        """Tree distance d(o₁,o₂) via depths and the O(1) LCA.

        Equals the join count of the paper's traced Fig. 3 walk.
        """
        meet = self.lca(oid1, oid2)
        position1 = self._first[oid1]
        position2 = self._first[oid2]
        return (
            self._tour_depth[position1]
            + self._tour_depth[position2]
            - 2 * self._tour_depth[self._first[meet]]
        )

    def lca_with_distance(self, oid1: int, oid2: int) -> Tuple[int, int]:
        """(lca, distance) in one pass — the batched hot path."""
        meet = self.lca(oid1, oid2)
        distance = (
            self._tour_depth[self._first[oid1]]
            + self._tour_depth[self._first[oid2]]
            - 2 * self._tour_depth[self._first[meet]]
        )
        return meet, distance

    def is_ancestor(self, ancestor_oid: int, descendant_oid: int) -> bool:
        """Reflexive ancestor test via Euler interval containment, O(1)."""
        first = self.euler_position(ancestor_oid)
        return first <= self.euler_position(descendant_oid) <= self._last[ancestor_oid]

    def lca_many(self, pairs: Iterable[Tuple[int, int]]) -> List[int]:
        """Batched LCA — one vectorized sparse-table pass when NumPy is
        importable (:mod:`repro.kernels`), else a python loop over the
        O(1) scalar kernel.  Answers are identical either way."""
        from .. import kernels

        if kernels.available():
            from ..kernels.lca import get_kernels

            return get_kernels(self).lca_pairs(pairs)
        return [self.lca(oid1, oid2) for oid1, oid2 in pairs]

    def auxiliary_tree(
        self, oids: Iterable[int]
    ) -> Tuple[List[int], Dict[int, Optional[int]]]:
        """The virtual tree spanned by ``oids`` and their mutual LCAs.

        Returns ``(order, parent)``: the candidate nodes in Euler
        (pre-)order and the compressed parent map.  Candidates are the
        inputs plus the LCAs of Euler-order neighbours; that set is
        closed under LCA and is exactly where ≥ 2 input ancestor
        chains can first converge, so the Fig. 4/5 roll-ups restricted
        to it emit the same meets as the full instance tree.  Cost is
        O(m log m) for m inputs, independent of tree size and depth.
        """
        first = self._first
        last = self._last
        lca = self.lca
        try:
            ordered = sorted(set(oids), key=first.__getitem__)
        except KeyError as exc:
            raise UnknownOIDError(int(str(exc.args[0]))) from None
        candidates = set(ordered)
        for left_oid, right_oid in zip(ordered, ordered[1:]):
            candidates.add(lca(left_oid, right_oid))
        order = sorted(candidates, key=first.__getitem__)
        parent: Dict[int, Optional[int]] = {}
        stack: List[int] = []
        stack_last: List[int] = []
        for oid in order:
            position = first[oid]
            # The stack holds the ancestor chain of the previous node
            # (in pre-order); pop entries whose Euler interval ended.
            while stack and stack_last[-1] < position:
                stack.pop()
                stack_last.pop()
            parent[oid] = stack[-1] if stack else None
            stack.append(oid)
            stack_last.append(last[oid])
        return order, parent

    def auxiliary_tree_arrays(
        self, oids: Iterable[int]
    ) -> Tuple[List[int], List[int]]:
        """:meth:`auxiliary_tree` in array form — the roll-up hot path.

        Returns ``(order, parent_index)``: the candidate OIDs in Euler
        (pre-)order and, for each position, the *position* of its
        auxiliary parent in ``order`` (``-1`` at the virtual root).
        Parent links as positions let the Fig. 4/5 roll-ups propagate
        over flat parallel arrays instead of per-OID dict look-ups.
        """
        first = self._first
        last = self._last
        try:
            ordered = sorted(set(oids), key=first.__getitem__)
        except KeyError as exc:
            raise UnknownOIDError(int(str(exc.args[0]))) from None
        # Inlined range-minimum LCA over Euler-order neighbours: their
        # first positions are already the sort keys, so the kernel runs
        # straight off the sparse table without re-resolving OIDs.
        log = self._log
        table = self._table
        depths = self._tour_depth
        tour = self._tour
        candidates = set(ordered)
        add_candidate = candidates.add
        low = -1
        for oid in ordered:
            high = first[oid]
            if low >= 0:
                k = log[high - low + 1]
                left = table[k][low]
                right = table[k][high - (1 << k) + 1]
                position = left if depths[left] <= depths[right] else right
                add_candidate(tour[position])
            low = high
        order = sorted(candidates, key=first.__getitem__)
        parent_index: List[int] = [-1] * len(order)
        stack: List[int] = []          # positions in ``order``
        stack_last: List[int] = []     # matching Euler interval ends
        for position, oid in enumerate(order):
            euler = first[oid]
            while stack and stack_last[-1] < euler:
                stack.pop()
                stack_last.pop()
            parent_index[position] = stack[-1] if stack else -1
            stack.append(position)
            stack_last.append(last[oid])
        return order, parent_index

    # -- flat columns (the vector kernels' contract) --------------------
    def kernel_columns(self) -> Dict[str, object]:
        """The raw index state as flat columns for the batch kernels.

        ``first``/``last`` are dense ``(oid − first_oid)``-indexed
        columns with ``-1`` marking OIDs absent from the tour
        (tombstones); snapshot-loaded indexes return the deserialized
        columns as-is (zero-copy for the kernels' buffer views), while
        freshly built indexes densify their dicts once and memoize;
        :meth:`roll_forward` keeps the memo patched at the tail.
        Unlike :meth:`to_arrays` this never assumes a compacted store.
        """
        if self._first_column is None:
            base = self.store.first_oid
            oids = range(base, base + self.store.node_count)
            first_of = self._first.get
            last_of = self._last.get
            self._first_column = [first_of(oid, -1) for oid in oids]
            self._last_column = [last_of(oid, -1) for oid in oids]
        return {
            "base": self.store.first_oid,
            "tour": self._tour,
            "depth": self._tour_depth,
            "first": self._first_column,
            "last": self._last_column,
            "log": self._log,
            "table": self._table,
        }

    # -- persistence (the snapshot store's contract) --------------------
    def to_arrays(self) -> Dict[str, object]:
        """The raw index state as flat int columns, for serialization.

        ``first``/``last`` are emitted in dense OID order (position =
        ``oid - store.first_oid``), ``table_rows`` are the sparse-table
        rows above row 0 (row 0 is the identity and is regenerated on
        load).  Together with the store the columns reconstruct an
        equivalent index via :meth:`from_arrays` with zero tour or
        table rebuilding.
        """
        store = self.store
        base = store.first_oid
        count = store.node_count
        return {
            "tour": self._tour,
            "depth": self._tour_depth,
            "first": [self._first[base + i] for i in range(count)],
            "last": [self._last[base + i] for i in range(count)],
            "log": self._log,
            "table_rows": self._table[1:],
        }

    @classmethod
    def from_arrays(
        cls,
        store: MonetXML,
        *,
        tour,
        depth,
        first,
        last,
        log,
        table_rows,
    ) -> "LcaIndex":
        """Rebind deserialized columns as a ready index — O(columns).

        No Euler tour is walked and no sparse table is computed: the
        columns (any int sequences, e.g. zero-copy memoryview casts)
        are used as-is.  Only the dense ``first``/``last`` columns are
        lifted back into the OID-keyed dicts the query kernels expect.
        """
        self = cls.__new__(cls)
        self.store = store
        self.generation = getattr(store, "generation", 0)
        self._vector_kernels = None
        self._tour = tour
        self._tour_depth = depth
        base = store.first_oid
        oids = range(base, base + store.node_count)
        self._first = dict(zip(oids, first))
        self._last = dict(zip(oids, last))
        # Keep the dense columns as loaded: the vector kernels view
        # them zero-copy (they may be memoryview casts over an mmap'd
        # snapshot) instead of re-densifying the dicts above.
        self._first_column = first
        self._last_column = last
        self._log = log
        # Row 0 of the sparse table is position→position; ``range`` is
        # an O(1) stand-in with identical indexing behaviour.
        self._table = [range(len(tour)), *table_rows]
        return self

    @property
    def tour_length(self) -> int:
        return len(self._tour)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LcaIndex nodes={len(self._first)} tour={len(self._tour)} "
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
