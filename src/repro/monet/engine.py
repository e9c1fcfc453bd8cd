"""The Monet XML store: path-partitioned associations plus OID columns.

This is the physical database instance of Definition 4.  All
associations of one type (= one path) live in one binary relation:

* ``edges[pid]``     — (parent OID, child OID) for every element edge
  whose *child* sits on path ``pid`` (the relation is "named after"
  the child path, as in Figure 2);
* ``strings[pid]``   — (OID, string) for every attribute/cdata value
  on attribute path ``pid`` (the ``…@key`` / ``…/cdata@string``
  relations of Figure 2);
* ``ranks[pid]``     — (OID, rank) preserving sibling order (the
  oid × int associations of Def. 2).

On top of the relations the store keeps three dense OID-indexed
columns — pid, parent OID and rank — so that ``parent(o)`` and π(o)
are the O(1) "hash look-ups" the paper's Fig. 3 assumes (justified in
the paper via functional-join techniques, ref. [8]).  The columns are
flat ``int32`` buffers with ``-1`` for "no parent"; ``edges`` and
``ranks`` carry exactly their information regrouped by pid, which is
why a snapshot stores only the columns (:mod:`repro.snapshot.codec`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import count
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)
from weakref import WeakSet

from ..datamodel.errors import ModelError, UnknownOIDError
from ..datamodel.paths import Path
from .bat import BAT
from .pathsummary import PathSummary

__all__ = ["MonetXML", "DerivedCache", "int32_column"]


def int32_column(values: Iterable[int] = ()) -> array:
    """An owned ``array('i')`` of ``values`` — the dense-column type.

    An int32 buffer (a snapshot view) is copied with one memcpy,
    anything else item by item.
    """
    if isinstance(values, memoryview) and values.format == "i":
        column = array("i")
        column.frombytes(values.cast("B"))
        return column
    return array("i", values)


class MonetXML:
    """A loaded database instance: one XML document, path-partitioned.

    Instances are built by :func:`repro.monet.transform.monet_transform`
    or :func:`repro.monet.storage.load`; direct construction takes
    pre-computed columns and relations.  The dense columns are
    ``array('i')`` for a store built in memory and read-only int32
    snapshot views for a loaded one, which the first write copies
    (:mod:`repro.monet.mutate`).

    Every instance carries a process-unique, monotonically increasing
    ``generation`` token.  Derived structures built outside the store
    (most importantly the Euler-RMQ index of
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
        edges: Mapping[int, BAT],
        strings: Mapping[int, BAT],
        ranks: Mapping[int, BAT],
    ):
        self.summary = summary
        self.root_oid = root_oid
        self.first_oid = first_oid
        self._oid_pid = oid_pid
        self._oid_parent = oid_parent
        self._oid_rank = oid_rank
        self.edges = edges
        self.strings = strings
        self.ranks = ranks
        self._reverse_edges: Dict[int, BAT] = {}
        self._children_index: Optional[Dict[int, List[int]]] = None
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
        #: name: owned here so that they die with the store.
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
        return (
            f"<MonetXML nodes={self.node_count} paths={len(self.summary) - 1} "
            f"relations={len(self.edges) + len(self.strings)}>"
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
        copy so whole-range consumers (the shard slicer of
        :mod:`repro.exec.sharding`) stay O(range), not O(range) Python
        calls.
        """
        return self._oid_pid, self._oid_parent, self._oid_rank

    # -- relations ---------------------------------------------------------
    def edge_relation(self, pid: int) -> BAT:
        """(parent, child) BAT of all nodes on path ``pid`` (may be empty)."""
        return self.edges.get(pid, BAT(name=str(self.summary.path(pid))))

    def string_relation(self, pid: int) -> BAT:
        """(oid, string) BAT of the attribute path ``pid`` (may be empty)."""
        return self.strings.get(pid, BAT(name=str(self.summary.path(pid))))

    def parent_relation(self, pid: int) -> BAT:
        """(child, parent) BAT for path ``pid`` — cached reverse of edges.

        This is the relation the set-wise ``parent(O)`` join of Fig. 4
        runs against.
        """
        cached = self._reverse_edges.get(pid)
        if cached is None:
            cached = self.edge_relation(pid).reverse()
            self._reverse_edges[pid] = cached
        return cached

    def string_relations(self) -> Iterator[Tuple[int, BAT]]:
        """All (pid, BAT) string relations — the full-text search surface."""
        return iter(self.strings.items())

    def relation_names(self) -> List[str]:
        """Human-readable relation names as printed in Figure 2."""
        names = [str(self.summary.path(pid)) for pid in self.edges]
        names.extend(str(self.summary.path(pid)) for pid in self.strings)
        return sorted(names)

    # -- node-set access ---------------------------------------------------
    def oids_on_pid(self, pid: int) -> List[int]:
        """All node OIDs whose path is exactly ``pid``, in document order."""
        if pid == self._oid_pid[self.root_oid - self.first_oid]:
            return [self.root_oid]
        relation = self.edges.get(pid)
        if relation is None:
            return []
        return list(relation.tails)

    def oids_on_path(self, path: Path) -> List[int]:
        pid = self.summary.maybe_pid(path)
        return [] if pid is None else self.oids_on_pid(pid)

    def iter_oids(self) -> Iterator[int]:
        return iter(range(self.first_oid, self.first_oid + self.node_count))

    def children_of(self, oid: int) -> List[int]:
        """Child OIDs in rank order (lazily built adjacency index)."""
        if self._children_index is None:
            index: Dict[int, List[int]] = {}
            for position, parent in enumerate(self._oid_parent):
                if parent >= 0:
                    index.setdefault(parent, []).append(position + self.first_oid)
            for children in index.values():
                children.sort(key=self.rank_of)
            self._children_index = index
        return list(self._children_index.get(oid, ()))

    def attributes_of(self, oid: int) -> Dict[str, str]:
        """Attribute name → value for a node, from the string relations."""
        pid = self.pid_of(oid)
        result: Dict[str, str] = {}
        for attr_pid in self.summary.children(pid):
            if not self.summary.is_attribute(attr_pid):
                continue
            relation = self.strings.get(attr_pid)
            if relation is None:
                continue
            values = relation.find_all(oid)
            if values:
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
        """Tombstone density — drives the lazy index-rebuild threshold."""
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

        Clears the reverse-edge and children adjacency caches and bumps
        ``generation``.  Generation-keyed external caches (the LCA
        index of the ``vector`` meet backend, the full-text and value
        indexes) rebuild on next use — unless the caller also journals
        a :class:`~repro.monet.mutate.MutationRecord`, as every live
        write does, in which case they roll forward from it.
        """
        self._reverse_edges.clear()
        self._children_index = None
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
        """Cross-check columns against relations; raises on inconsistency.

        Used by tests and after :func:`repro.monet.storage.load`.
        """
        for pid, relation in self.edges.items():
            for parent, child in relation:
                if self.parent_of(child) != parent:
                    raise ModelError(
                        f"edge relation {self.summary.path(pid)} disagrees "
                        f"with parent column at OID {child}"
                    )
                if self.pid_of(child) != pid:
                    raise ModelError(
                        f"edge relation {self.summary.path(pid)} holds OID "
                        f"{child} whose pid column says "
                        f"{self.summary.path(self.pid_of(child))}"
                    )
        for pid, relation in self.strings.items():
            parent_pid = self.summary.parent(pid)
            for oid, value in relation:
                if not isinstance(value, str):
                    raise ModelError(f"non-string value {value!r} in {pid}")
                if self.pid_of(oid) != parent_pid:
                    raise ModelError(
                        f"string relation {self.summary.path(pid)} attached "
                        f"to OID {oid} of wrong path"
                    )
        if self.parent_of(self.root_oid) is not None:
            raise ModelError("root OID has a parent")


class DerivedCache:
    """A per-store cache whose entries live on the stores themselves.

    A derived index holds its store, so a ``WeakKeyDictionary`` cannot
    cache it: the value would keep its own weak key alive and a store,
    once indexed, would never be freed — a serving process would retire
    one whole store, indexes included, with every compaction.  Here the
    entry sits in ``store.derived``: store and entry form an ordinary
    cycle that the collector frees once the last outside reference to
    the store is gone, and the cache only remembers (weakly) which
    stores to visit for :meth:`values` and :meth:`clear`.  Objects
    without a ``derived`` dict (the coordinator's summary-only
    stand-in) have no entry.
    """

    def __init__(self, name: str):
        self._name = name
        self._stores: "WeakSet[MonetXML]" = WeakSet()

    def get(self, store, default=None):
        derived = getattr(store, "derived", None)
        return default if derived is None else derived.get(self._name, default)

    def __setitem__(self, store, entry) -> None:
        store.derived[self._name] = entry
        self._stores.add(store)

    def __delitem__(self, store) -> None:
        del store.derived[self._name]
        self._stores.discard(store)

    def values(self) -> List[object]:
        return [store.derived[self._name] for store in list(self._stores)]

    def __len__(self) -> int:
        return len(self._stores)

    def clear(self) -> None:
        for store in list(self._stores):
            del store.derived[self._name]
        self._stores.clear()
