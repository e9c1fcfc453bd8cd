"""The Monet XML store: path-partitioned associations plus OID columns.

This is the physical database instance of Definition 4.  All
associations of one type (= one path) form one binary relation, and a
family of relations is one pair of pid-grouped flat columns
(:class:`~repro.monet.relations.Runs`), the relation of ``pid`` being
its run:

* :meth:`MonetXML.edge_runs`   — (parent OID, child OID) for every
  element edge whose *child* sits on path ``pid`` (the relation is
  "named after" the child path, as in Figure 2);
* :meth:`MonetXML.string_runs` — (OID, string) for every attribute/cdata
  value on attribute path ``pid`` (the ``…@key`` / ``…/cdata@string``
  relations of Figure 2).

The store holds three dense OID-indexed columns — pid, parent OID and
rank — so that ``parent(o)`` and π(o) are the O(1) "hash look-ups" the
paper's Fig. 3 assumes (justified in the paper via functional-join
techniques, ref. [8]), plus the string runs.  The columns are flat
``int32`` buffers with ``-1`` for "no parent"; the edge runs carry
exactly their information regrouped by pid and are derived from them,
as is the sibling order of Def. 2 (the rank column), which is why a
snapshot stores only the columns and the string runs
(:mod:`repro.snapshot.codec`).
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, count
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)
from weakref import WeakSet

import numpy as np

from ..datamodel.errors import ModelError, UnknownOIDError
from ..datamodel.paths import Path
from .pathsummary import PathSummary
from .relations import Runs, dense_edges

__all__ = [
    "MonetXML",
    "DerivedCache",
    "DerivedCacheInfo",
    "derived_caches",
    "index_counters",
    "int32_column",
    "journal_chain",
]


def int32_column(values: Iterable[int] = ()) -> array:
    """An owned ``array('i')`` of ``values`` — the dense-column type.

    An int32 buffer (a snapshot view) or a NumPy column is copied with
    one memcpy, anything else item by item.
    """
    column = array("i")
    if isinstance(values, np.ndarray):
        column.frombytes(np.asarray(values, dtype=np.int32).tobytes())
    elif isinstance(values, memoryview) and values.format == "i":
        column.frombytes(values.cast("B"))
    else:
        column.extend(values)
    return column


def joined_column(columns: Iterable[Sequence[int]]) -> np.ndarray:
    """Integer columns of any item width, end to end, as one int64
    array (one pass over the items, no per-column conversion)."""
    columns = list(columns)
    return np.fromiter(
        chain.from_iterable(columns), np.int64, sum(map(len, columns))
    )


class MonetXML:
    """A loaded database instance: one XML document, path-partitioned.

    Instances are built by :func:`repro.monet.transform.monet_transform`
    or read from a snapshot (:mod:`repro.snapshot.codec`); direct
    construction takes the three dense columns and the string runs.
    The dense columns are ``array('i')`` for a store built in memory
    and read-only int32 snapshot views for a loaded one, which the
    first write copies (:mod:`repro.monet.mutate`).  The edge runs
    are derived from the current columns on first use and dropped
    whenever the generation moves.

    Every instance carries a process-unique, monotonically increasing
    ``generation`` token.  Derived structures built outside the store
    (most importantly the LCA depth column of
    :mod:`repro.core.lca_index`) cache themselves keyed on it.  The
    write path (:mod:`repro.monet.mutate`) bumps the token *and*
    journals the mutation, so those structures roll forward; a bare
    :meth:`invalidate_caches` bumps it without a journal record, so
    they rebuild lazily.
    """

    _generations = count(1)

    def __init__(
        self,
        summary: PathSummary,
        root_oid: int,
        first_oid: int,
        oid_pid: Sequence[int],
        oid_parent: Sequence[int],
        oid_rank: Sequence[int],
        strings: Runs,
    ):
        self.summary = summary
        self.root_oid = root_oid
        self.first_oid = first_oid
        self._oid_pid = oid_pid
        self._oid_parent = oid_parent
        self._oid_rank = oid_rank
        self._string_runs = strings
        self._edge_runs: Optional[Runs] = None
        #: Cache token for externally derived indexes (see class doc).
        self.generation = next(MonetXML._generations)
        #: Named top-level documents: name → (first OID, last OID) of the
        #: document's contiguous pre-order run (see repro.monet.mutate).
        self.documents: Dict[str, Tuple[int, int]] = {}
        #: Sorted, disjoint, inclusive OID ranges of deleted documents.
        self._tombstones: List[Tuple[int, int]] = []
        #: Dead-OID count in self._tombstones[:i] (prefix sums for
        #: live_position); rebuilt whenever a tombstone range is added.
        self._dead_prefix: List[int] = [0]
        #: Recent mutations, newest last (see repro.monet.mutate); index
        #: maintainers roll forward from it instead of rebuilding.
        self.journal: List[object] = []
        #: Structures derived from this store that point back at it (the
        #: LCA, full-text and value indexes), by :class:`DerivedCache`
        #: name: owned here so that they die with the store.  Clearing
        #: it cuts the only link back, so a store whose indexes were
        #: carried elsewhere is freed by reference counting alone.
        self.derived: Dict[str, object] = {}

    # -- size -----------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self._oid_pid)

    @property
    def last_oid(self) -> int:
        return self.first_oid + len(self._oid_pid) - 1

    def __contains__(self, oid: object) -> bool:
        return (
            isinstance(oid, int) and self.first_oid <= oid <= self.last_oid
        )

    def __repr__(self) -> str:
        relations = len(self.edge_runs().pids) + len(self._string_runs.pids)
        return (
            f"<MonetXML nodes={self.node_count} paths={len(self.summary) - 1} "
            f"relations={relations}>"
        )

    # -- O(1) per-OID columns ------------------------------------------
    def _index(self, oid: int) -> int:
        position = oid - self.first_oid
        if 0 <= position < len(self._oid_pid):
            return position
        raise UnknownOIDError(oid)

    def pid_of(self, oid: int) -> int:
        """The interned path id π(o) of a node — O(1)."""
        return self._oid_pid[self._index(oid)]

    def path_of(self, oid: int) -> Path:
        """π(o) as a :class:`Path` (Def. 3)."""
        return self.summary.path(self.pid_of(oid))

    def parent_of(self, oid: int) -> Optional[int]:
        """The parent OID — the Fig. 3 ``parent(o)`` hash look-up.

        Returns ``None`` for the document root (``-1`` in the column).
        """
        parent = self._oid_parent[self._index(oid)]
        return None if parent < 0 else parent

    def rank_of(self, oid: int) -> int:
        return self._oid_rank[self._index(oid)]

    def depth_of(self, oid: int) -> int:
        """Depth of the node = length of π(o); the root has depth 1."""
        return self.summary.depth(self.pid_of(oid))

    def dense_columns(self):
        """The (pid, parent, rank) columns, indexed by ``oid - first_oid``.

        Flat int32 buffers, ``-1`` where a node has no parent.
        Read-only by contract — the columns are handed out without a
        copy so whole-range consumers (the shard planner of
        :mod:`repro.exec.sharding`) stay O(range), not O(range) Python
        calls.
        """
        return self._oid_pid, self._oid_parent, self._oid_rank

    # -- relations ---------------------------------------------------------
    def edge_runs(self) -> Runs:
        """The element edges as pid-grouped runs (parent OID heads, child
        OID tails), derived from the dense columns on first use — the
        nearest-concept path never asks."""
        runs = self._edge_runs
        if runs is None:
            # Racing first readers may both derive; each publishes a
            # whole Runs, so none sees a half-built one.
            runs = self._edge_runs = dense_edges(
                self._oid_pid, self._oid_parent, self.first_oid
            )
        return runs

    def string_runs(self) -> Runs:
        """The string associations as pid-grouped runs (OID heads,
        string tails) — the columns bulk readers scan."""
        return self._string_runs

    def relation_names(self) -> List[str]:
        """Human-readable relation names as printed in Figure 2."""
        pids = chain(self.edge_runs().pids, self._string_runs.pids)
        return sorted(str(self.summary.path(int(pid))) for pid in pids)

    # -- node-set access ---------------------------------------------------
    def oids_on_pid(self, pid: int) -> List[int]:
        """All node OIDs whose path is exactly ``pid``, in document order."""
        if pid == self._oid_pid[self.root_oid - self.first_oid]:
            return [self.root_oid]
        return self.edge_runs().run(pid)[1].tolist()

    def oids_on_path(self, path: Path) -> List[int]:
        pid = self.summary.maybe_pid(path)
        return [] if pid is None else self.oids_on_pid(pid)

    def iter_oids(self) -> Iterator[int]:
        return iter(range(self.first_oid, self.first_oid + self.node_count))

    def subtree_end(self, oid: int) -> int:
        """One past the last OID of the subtree rooted at ``oid``.

        The store is in pre-order, so the subtree is the contiguous OID
        run after the node, up to the first later live node whose parent
        lies before it (a tombstone has no parent).  The parent column
        is scanned in doubling windows: O(subtree), nothing cached.
        """
        parents = self._oid_parent
        start = self._index(oid) + 1
        window = 64
        while start < len(parents):
            chunk = np.asarray(parents[start : start + window])
            outside = np.flatnonzero((chunk >= 0) & (chunk < oid))
            if len(outside):
                return self.first_oid + start + int(outside[0])
            start += len(chunk)
            window *= 2
        return self.last_oid + 1

    def children_of(self, oid: int) -> List[int]:
        """Child OIDs in rank order, read inside the subtree's OID run."""
        start = self._index(oid) + 1
        run = np.asarray(
            self._oid_parent[start : self.subtree_end(oid) - self.first_oid]
        )
        children = np.flatnonzero(run == oid) + (start + self.first_oid)
        return sorted(children.tolist(), key=self.rank_of)

    def attributes_of(self, oid: int) -> Dict[str, str]:
        """Attribute name → value for a node, from the string relations."""
        pid = self.pid_of(oid)
        result: Dict[str, str] = {}
        for attr_pid in self.summary.children(pid):
            if not self.summary.is_attribute(attr_pid):
                continue
            values = self._string_runs.tails_of(attr_pid, oid)
            if len(values):
                result[self.summary.label(attr_pid)] = values[0]
        return result

    # -- tombstones & live positions --------------------------------------
    @property
    def dead_count(self) -> int:
        """Number of tombstoned (deleted but not compacted) OIDs."""
        return self._dead_prefix[-1]

    @property
    def live_node_count(self) -> int:
        return self.node_count - self.dead_count

    @property
    def dead_fraction(self) -> float:
        """Tombstone density: the share of OIDs compaction would reclaim."""
        return self.dead_count / self.node_count if self.node_count else 0.0

    def is_live(self, oid: int) -> bool:
        """``True`` iff the OID denotes a node that has not been deleted."""
        if not self.first_oid <= oid <= self.last_oid:
            return False
        ranges = self._tombstones
        if not ranges:
            return True
        index = bisect_right(ranges, (oid, self.last_oid + 1)) - 1
        return index < 0 or ranges[index][1] < oid

    def add_tombstone_range(self, low: int, high: int) -> None:
        """Mark the inclusive OID range dead (whole-document deletes only)."""
        if not (self.first_oid <= low <= high <= self.last_oid):
            raise ModelError(f"tombstone range [{low}, {high}] out of bounds")
        ranges = self._tombstones
        ranges.append((low, high))
        ranges.sort()
        merged: List[Tuple[int, int]] = []
        for start, end in ranges:
            if merged and start <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        self._tombstones = merged
        prefix = [0]
        for start, end in merged:
            prefix.append(prefix[-1] + end - start + 1)
        self._dead_prefix = prefix

    def tombstone_ranges(self) -> List[Tuple[int, int]]:
        return list(self._tombstones)

    def _dead_before(self, oid: int) -> int:
        """Dead OIDs strictly below ``oid`` (``oid`` itself must be live)."""
        ranges = self._tombstones
        if not ranges:
            return 0
        index = bisect_right(ranges, (oid, self.last_oid + 1)) - 1
        if index < 0:
            return 0
        start, end = ranges[index]
        # A live oid never sits inside a range, so the range at ``index``
        # lies entirely below it.
        return self._dead_prefix[index] + end - start + 1

    def live_position(self, oid: int) -> int:
        """Rank of a live OID among all live OIDs (0-based, document order).

        On a tombstone-free store this is exactly ``oid - first_oid``;
        after deletes it is the OID the node *would* carry in a store
        rebuilt from the surviving documents — the bridge that keeps
        ranking (the spread heuristic of §4) identical between a mutated
        store and a rebuild from scratch.
        """
        return oid - self.first_oid - self._dead_before(oid)

    def live_distance(self, low_oid: int, high_oid: int) -> int:
        """Distance between two live OIDs counted over live nodes only."""
        if not self._tombstones:
            return high_oid - low_oid
        return self.live_position(high_oid) - self.live_position(low_oid)

    def tombstone_table(self) -> Tuple[List[int], List[int]]:
        """The vectorizable core of :meth:`live_position`.

        Returns ``(starts, dead_prefix)``: the sorted tombstone-range
        start OIDs and the dead-node counts *including* each range, so
        for a live OID the dead count strictly below it is
        ``dead_prefix[bisect_right(starts, oid)]`` (a live OID never
        equals a range start).  Both lists are empty-tombstone safe:
        ``([], [0])`` means every OID is live.
        """
        return [start for start, _ in self._tombstones], self._dead_prefix

    def iter_live_oids(self) -> Iterator[int]:
        if not self._tombstones:
            yield from self.iter_oids()
            return
        for oid in self.iter_oids():
            if self.is_live(oid):
                yield oid

    # -- cache control -----------------------------------------------------
    def invalidate_caches(self) -> None:
        """Drop lazily built structures after an in-place rebuild.

        Drops the edge runs derived from the old columns and bumps
        ``generation``.  Generation-keyed external caches (the LCA
        index of the ``vector`` meet backend, the full-text and value
        indexes) rebuild on next use — unless the caller also journals
        a :class:`~repro.monet.mutate.MutationRecord`, as every live
        write does, in which case they roll forward from it.
        """
        self._edge_runs = None
        self.generation = next(MonetXML._generations)

    # -- ancestry (instance-level helpers shared by core and baselines) --
    def ancestry(self, oid: int) -> List[int]:
        """OIDs from the node to the root, inclusive."""
        chain = [oid]
        parent = self.parent_of(oid)
        while parent is not None:
            chain.append(parent)
            parent = self.parent_of(parent)
        return chain

    def is_ancestor(self, ancestor_oid: int, descendant_oid: int) -> bool:
        """Reflexive ancestor test via parent pointers."""
        current: Optional[int] = descendant_oid
        target_depth = self.depth_of(ancestor_oid)
        while current is not None and self.depth_of(current) >= target_depth:
            if current == ancestor_oid:
                return True
            current = self.parent_of(current)
        return False

    # -- integrity -------------------------------------------------------
    def validate(self) -> None:
        """Cross-check the columns and the string runs; raises on
        inconsistency.

        Every linked node's path must extend its parent's path by one
        step (which is what makes the derived edge runs Def. 4's), and every string association must hang off a node
        on its attribute path's parent.
        """
        pids, parents, _ = map(np.asarray, self.dense_columns())
        children = np.flatnonzero(parents >= 0)
        positions = parents[children].astype(np.int64) - self.first_oid
        inside = (positions >= 0) & (positions < len(pids))
        path_parents = np.asarray(
            [self.summary.parent(pid) for pid in range(len(self.summary))]
        )
        agree = np.zeros(len(children), dtype=bool)
        agree[inside] = (
            path_parents[pids[children[inside]]] == pids[positions[inside]]
        )
        if not agree.all():
            child = int(children[np.argmin(agree)]) + self.first_oid
            raise ModelError(
                f"parent column at OID {child} disagrees with its path "
                f"{self.summary.path(self.pid_of(child))}"
            )
        strings = self._string_runs
        row_pids = np.repeat(
            np.arange(len(strings.offsets) - 1), np.diff(strings.offsets)
        )
        for pid, value in zip(row_pids.tolist(), strings.tails):
            if not isinstance(value, str):
                raise ModelError(f"non-string value {value!r} in {pid}")
        heads = np.asarray(strings.heads, dtype=np.int64) - self.first_oid
        owned = (heads >= 0) & (heads < len(pids))
        owned[owned] = (
            pids[heads[owned]] == path_parents[row_pids[owned]]
        )
        if not owned.all():
            row = int(np.argmin(owned))
            raise ModelError(
                f"string relation {self.summary.path(int(row_pids[row]))} "
                f"attached to OID {int(heads[row]) + self.first_oid} of "
                "wrong path"
            )
        if self.parent_of(self.root_oid) is not None:
            raise ModelError("root OID has a parent")


def journal_chain(
    store: MonetXML, generation: int
) -> Optional[List[object]]:
    """Mutation records bridging ``generation`` → the store's current one.

    ``None`` when no contiguous chain exists (journal evicted, store
    without a journal, or a gap) — the caller must rebuild.
    """
    current = getattr(store, "generation", 0)
    if generation == current:
        return []
    records = []
    expected = generation
    for record in getattr(store, "journal", ()):
        from_generation = getattr(record, "from_generation", None)
        if from_generation is None:
            return None
        if not records and from_generation != expected:
            continue
        if records and from_generation != expected:
            return None
        records.append(record)
        expected = record.to_generation
    if not records or expected != current:
        return None
    return records


@dataclass(frozen=True)
class DerivedCacheInfo:
    """Counters of one index registry (for stats, tests and benches).

    ``builds`` counts full constructions only, ``patches`` roll-forwards
    through the mutation journal, ``currsize`` the entries held by live
    stores.  ``hits`` is counted on the lock-free path, so racing hits
    may count once.
    """

    builds: int
    hits: int
    currsize: int
    patches: int


#: Every :class:`DerivedCache` by name, in registration order.
_registered: Dict[str, "DerivedCache"] = {}


def index_counters() -> Dict[str, DerivedCacheInfo]:
    """The counters of every registered index, by name — what a server
    reports and a shard worker forwards with each response."""
    return {name: cache.info() for name, cache in _registered.items()}


def derived_caches() -> List["DerivedCache"]:
    """Every registered index registry, in registration order."""
    return list(_registered.values())


class DerivedCache:
    """The one maintenance policy of an index derived from a store.

    Per store and ``key`` (the full-text index's case mode; ``None``
    for the others) it holds one index and keeps it current:

    * :meth:`get` hits without a lock when the index answers for the
      store's ``generation``; otherwise, under one maintenance lock, it
      patches the index forward through the store's mutation journal
      (``index.patched(chain)``) or, when the journal does not reach it,
      builds a new one (``build(store, key, *args)``);
    * :meth:`carry` hands a compacted store its predecessor's indexes,
      brought current and carried over (``index.carried(compacted,
      renumbered)``);
    * :meth:`seed` installs a ready index (a snapshot's) without a
      build, :meth:`peek` returns a current one without doing anything,
      :meth:`clear` drops them all and resets the counters.

    An index object carries ``store`` and ``generation``; the registry
    publishes ``generation`` last, so an index patched in place is
    never seen current before it is.

    The entries live in ``store.derived[name]`` (key → index), not in
    the registry: an index holds its store, so a ``WeakKeyDictionary``
    cannot cache it — the value would keep its own weak key alive and a
    store, once indexed, would never be freed.  Store and entries form
    an ordinary cycle that the collector frees once the last outside
    reference to the store is gone (a compaction clears the retired
    store's ``derived``, so that one goes by reference counting at
    once); the registry only remembers (weakly) which stores to visit
    for :meth:`info` and :meth:`clear`.
    """

    def __init__(
        self,
        name: str,
        build: Callable[..., object],
        key_of: Callable[[object], Hashable] = lambda index: None,
    ):
        self.name = name
        self._build = build
        self._key_of = key_of
        self._stores: "WeakSet[MonetXML]" = WeakSet()
        #: Serializes patches and builds: readers share the ``Database``
        #: read lock, so several can find the same index stale after
        #: one write.
        self._lock = threading.Lock()
        self.builds = self.hits = self.patches = 0
        _registered[name] = self

    def get(self, store: MonetXML, key: Hashable = None, *args):
        """The index of ``store`` under ``key``, current; ``args`` go to
        the build when there is none to bring current."""
        index = store.derived.get(self.name, _NO_ENTRIES).get(key)
        if index is not None and index.generation == store.generation:
            self.hits += 1
            return index
        with self._lock:
            index = self._current(store, key)
            if index is None:
                index = self._build(store, key, *args)
                self._install(store, key, index)
                self.builds += 1
            return index

    def _current(self, store: MonetXML, key: Hashable):
        """The index brought current through the journal, or ``None``
        when there is none or the journal no longer reaches it.  Call
        with the lock held; this never builds."""
        entries = store.derived.get(self.name, _NO_ENTRIES)
        index = entries.get(key)
        if index is None:
            return None
        generation = store.generation
        if index.generation == generation:
            self.hits += 1
            return index
        chain = journal_chain(store, index.generation)
        if chain is None:
            return None
        try:
            index = index.patched(chain)
        except BaseException:
            # Maybe half applied: never serve it, never patch it again.
            del entries[key]
            raise
        index.generation = generation  # published last
        entries[key] = index
        self.patches += 1
        return index

    def _install(self, store: MonetXML, key: Hashable, index) -> None:
        store.derived.setdefault(self.name, {})[key] = index
        self._stores.add(store)

    def seed(self, store: MonetXML, index) -> None:
        """Install a ready index for ``store`` without a build.

        The snapshot loader's and compaction's hook: every later
        :meth:`get` is a hit.  No counter moves, keeping the "zero
        constructions on warm start" property testable.
        """
        if index.store is not store:
            raise ValueError("cannot seed the cache with an index of another store")
        with self._lock:
            index.generation = store.generation
            self._install(store, self._key_of(index), index)

    def carry(
        self,
        store: MonetXML,
        compacted: MonetXML,
        renumbered: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        """Seed ``compacted`` with ``store``'s indexes, carried over.

        ``compacted`` and ``renumbered`` are what
        :func:`~repro.monet.mutate.compact_store` returned for
        ``store``; every index ``store`` has is brought current first.
        """
        for key in list(store.derived.get(self.name, _NO_ENTRIES)):
            with self._lock:
                index = self._current(store, key)
            if index is not None:
                self.seed(compacted, index.carried(compacted, renumbered))

    def peek(self, store: MonetXML, key: Hashable = None):
        """The index if it is current for ``store``, else ``None``.

        A pure peek — never builds, never patches, moves no counter.
        Objects without a ``derived`` dict have no entry.
        """
        entries = getattr(store, "derived", {}).get(self.name, _NO_ENTRIES)
        index = entries.get(key)
        if index is not None and index.generation == store.generation:
            return index
        return None

    def clear(self) -> None:
        """Drop every index and reset the counters (test isolation)."""
        with self._lock:
            for store in list(self._stores):
                store.derived.pop(self.name, None)
            self._stores.clear()
            self.builds = self.hits = self.patches = 0

    def info(self) -> DerivedCacheInfo:
        return DerivedCacheInfo(
            builds=self.builds,
            hits=self.hits,
            currsize=sum(
                len(store.derived.get(self.name, _NO_ENTRIES))
                for store in list(self._stores)
            ),
            patches=self.patches,
        )


_NO_ENTRIES: Dict[Hashable, object] = {}
