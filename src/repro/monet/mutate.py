"""Live document mutations over a loaded Monet XML store.

The store of Definition 4 is built once from a frozen document; this
module makes it a *collection* you can mutate while it serves queries:

* :func:`put_document` splices an XML fragment under the store root as
  a fresh top-level document: :func:`shred_fragment` parses it into a
  detached column buffer (:class:`~repro.monet.transform.ColumnSink`),
  whose nodes are appended as one contiguous pre-order OID run
  (``last_oid + 1`` onward) and whose new paths are interned into the
  shared summary;
* :func:`delete_document` tombstones a document's OID range — the
  dense columns keep their slots (parent pointers cleared, which drops
  them from the derived edge runs) while the string runs lose
  the span's rows, so every query surface only ever sees live nodes;
* :func:`replace_document` is delete + put under the same name;
* :func:`compact_store` renumbers the surviving nodes densely — the
  compacted OIDs equal what a rebuild from the surviving documents
  would assign, which is what shard ranges and snapshot writing
  require (both assume a dense pre-order store).

Every mutation bumps the store ``generation`` (dropping the
generation-keyed result caches precisely) and appends a
:class:`MutationRecord` to ``store.journal``.  The derived indexes are
*maintained* from that journal, never rebuilt by a write: on their next
use the LCA, full-text and value indexes each bridge their generation
to the store's with :func:`journal_chain` and roll forward at a cost of
the written document — the LCA depth column and its range-minimum
table grow at the tail or blank a deleted span
(:func:`repro.core.lca_index.get_lca_index`), postings of
the terms a record's strings carry are appended or masked out
(:func:`repro.fulltext.index.get_fulltext_index`), and sorted value
columns take a put's entries in by ``searchsorted`` and mask a
delete's span out (:func:`repro.valueindex.index.get_value_index`).
Only a consumer whose generation the journal no longer reaches
rebuilds.  Compaction carries all three across through its monotone
OID map (:func:`repro.snapshot.codec.carry_indexes`).

The pre-order invariant maintained throughout: live OIDs ascend in
document order.  New documents append at the tail; a replace re-appends
at the tail, exactly where the document would sort in a rebuild that
serializes documents in collection order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..datamodel.errors import (
    DocumentError,
    DuplicateDocumentError,
    ModelError,
    UnknownDocumentError,
)
from ..datamodel.parser import parse_into
from .engine import MonetXML, int32_column, journal_chain
from .pathsummary import PathSummary
from .transform import ColumnSink

__all__ = [
    "MutationRecord",
    "JOURNAL_LIMIT",
    "journal_chain",
    "ensure_document_registry",
    "shred_fragment",
    "put_document",
    "delete_document",
    "replace_document",
    "compact_store",
]

#: Journal entries kept per store; consumers finding their generation
#: evicted fall back to a full rebuild.
JOURNAL_LIMIT = 256

#: Registry names auto-assigned to the documents a store was built with.
SEED_PREFIX = "seed-"


@dataclass(frozen=True, slots=True)
class MutationRecord:
    """One applied mutation, as the index maintainers see it.

    ``added_strings`` carries every (attribute pid, OID, value)
    association a put introduced and ``removed_strings`` every one a
    delete dropped — enough to patch an inverted index forward by
    touching only the terms and paths of the written document, without
    re-scanning the relations or walking the other postings.
    """

    kind: str  # "put" | "delete"
    name: str
    span: Tuple[int, int]
    from_generation: int
    to_generation: int
    added_strings: Tuple[Tuple[int, int, str], ...] = field(default=())
    removed_strings: Tuple[Tuple[int, int, str], ...] = field(default=())


# ---------------------------------------------------------------------------
# Registry seeding
# ---------------------------------------------------------------------------

def ensure_document_registry(store: MonetXML) -> Dict[str, Tuple[int, int]]:
    """Register the store's top-level documents under seed names.

    A *document* is one top-level child subtree of the root.  Stores
    built by the transform or loaded from a snapshot are dense and
    pre-order, so each top-level subtree is the contiguous OID run from
    its root to just before the next top-level root.  Runs once;
    mutations maintain the registry from then on.
    """
    if store.documents:
        return store.documents
    if store._tombstones:
        # Mutations seed the registry before the first tombstone can
        # exist, so an empty registry on a tombstoned store means every
        # document was deleted — not that seeding was skipped.  Seeding
        # here would misread surviving top-level OIDs as fresh spans.
        return store.documents
    tops = store.children_of(store.root_oid)
    for index, top in enumerate(tops):
        end = tops[index + 1] - 1 if index + 1 < len(tops) else store.last_oid
        store.documents[f"{SEED_PREFIX}{index:04d}"] = (top, end)
    return store.documents


# ---------------------------------------------------------------------------
# Mutability of snapshot-loaded stores
# ---------------------------------------------------------------------------

def _ensure_mutable(store: MonetXML) -> None:
    """Copy zero-copy snapshot views into appendable columns.

    Snapshot-loaded stores hold read-only int32 views as dense columns;
    the first mutation pays one copy of each into an ``array('i')``.
    The string runs need none: writes replace them whole.
    """
    for name in ("_oid_pid", "_oid_parent", "_oid_rank"):
        column = getattr(store, name)
        if not (isinstance(column, array) and column.typecode == "i"):
            setattr(store, name, int32_column(column))


# ---------------------------------------------------------------------------
# put
# ---------------------------------------------------------------------------

def shred_fragment(store: MonetXML, xml: str) -> ColumnSink:
    """Parse ``xml`` into a detached buffer for :func:`put_document`.

    The buffer holds the fragment's nodes as a new top-level document
    of ``store`` — OIDs from ``last_oid + 1`` on, the root below the
    store root — with pids of its own summary, whose pid 0 stands for
    the store root's path.  Shredding changes nothing in the store, so
    an :class:`XMLParseError` leaves it as it was.
    """
    fragment = ColumnSink(
        PathSummary(),
        first_oid=store.last_oid + 1,
        root_parent=(store.root_oid, 0),
    )
    parse_into(xml, fragment)
    return fragment


def put_document(
    store: MonetXML, name: str, xml: Union[str, ColumnSink]
) -> MutationRecord:
    """Append ``xml`` as the named top-level document.

    ``xml`` is XML text or the buffer :func:`shred_fragment` made of it
    for this store, with no write in between.  The fragment is spliced
    under the store root: its nodes take the contiguous OID run
    ``last_oid + 1 …`` in pre-order, its new paths are interned into
    the shared summary, and the string runs gain the new associations.
    Raises :class:`DuplicateDocumentError` if the name is taken.
    """
    registry = ensure_document_registry(store)
    if name in registry:
        raise DuplicateDocumentError(name)
    fragment = shred_fragment(store, xml) if isinstance(xml, str) else xml
    first_new = store.last_oid + 1
    if fragment.first_oid != first_new:
        raise ModelError("the store changed since the fragment was shredded")
    _ensure_mutable(store)
    # Intern the fragment's paths in its pid order — first appearance
    # in pre-order, as a transform of the whole collection would.
    local, summary = fragment.steps, store.summary
    pids = [store.pid_of(store.root_oid)]
    for pid in local.pids():
        parent = pids[local.parent(pid)]
        pids.append(
            summary.intern_step(parent, local.label(pid), local.is_attribute(pid))
        )
    # The registry holds exactly the live top-level documents, so the
    # next rank comes from it — not from the O(n) children adjacency,
    # which the previous write has just invalidated.
    fragment.ranks[0] = max(
        (store.rank_of(low) + 1 for low, _ in registry.values()), default=0
    )
    store._oid_pid.extend(map(pids.__getitem__, fragment.pids))
    store._oid_parent.extend(fragment.parents)
    store._oid_rank.extend(fragment.ranks)
    added = (
        [pids[pid] for pid in fragment.string_pids],
        fragment.string_oids,
        fragment.values,
    )
    if fragment.values:
        store._string_runs = store._string_runs.with_rows(*added)

    span = (first_new, store.last_oid)
    registry[name] = span
    return _record(
        store,
        kind="put",
        name=name,
        span=span,
        added_strings=tuple(zip(*added)),
    )


# ---------------------------------------------------------------------------
# delete / replace
# ---------------------------------------------------------------------------

def delete_document(store: MonetXML, name: str) -> MutationRecord:
    """Tombstone the named document's OID range and drop its strings.

    One slice assignment clears the span's parents and one mask over
    the string heads drops its associations, which the record carries
    as ``removed_strings``.
    """
    registry = ensure_document_registry(store)
    span = registry.get(name)
    if span is None:
        raise UnknownDocumentError(name)
    _ensure_mutable(store)
    low, high = span

    start, stop = low - store.first_oid, high - store.first_oid + 1
    store._oid_parent[start:stop] = int32_column([-1]) * (stop - start)
    strings = store._string_runs
    heads = np.asarray(strings.heads)
    removed = (heads >= low) & (heads <= high)
    rows = np.flatnonzero(removed)
    row_pids = np.searchsorted(strings.offsets, rows, side="right") - 1
    removed_strings = tuple(
        (pid, oid, strings.tails[row])
        for pid, oid, row in zip(
            row_pids.tolist(), heads[rows].tolist(), rows.tolist()
        )
    )
    store._string_runs = strings.where(~removed)

    store.add_tombstone_range(low, high)
    del registry[name]
    return _record(
        store,
        kind="delete",
        name=name,
        span=(low, high),
        removed_strings=removed_strings,
    )


def replace_document(
    store: MonetXML, name: str, xml: Union[str, ColumnSink]
) -> List[MutationRecord]:
    """Replace (upsert) the named document: delete if present, then put.

    The new content re-appends at the OID tail — the same position a
    rebuild that serializes documents in collection order would give it.
    ``xml`` is XML text or its :func:`shred_fragment` buffer.
    """
    registry = ensure_document_registry(store)
    # Shred the fragment *before* deleting: a parse error must leave
    # the collection exactly as it was.  A delete frees no OID slot, so
    # the buffer still fits the store after it.
    if isinstance(xml, str):
        xml = shred_fragment(store, xml)
    records: List[MutationRecord] = []
    if name in registry:
        records.append(delete_document(store, name))
    records.append(put_document(store, name, xml))
    return records


def _record(store: MonetXML, **fields) -> MutationRecord:
    """Bump the generation and journal one mutation."""
    from_generation = store.generation
    store.invalidate_caches()
    record = MutationRecord(
        from_generation=from_generation,
        to_generation=store.generation,
        **fields,
    )
    store.journal.append(record)
    if len(store.journal) > JOURNAL_LIMIT:
        del store.journal[: len(store.journal) - JOURNAL_LIMIT]
    return record


# ---------------------------------------------------------------------------
# compaction
# ---------------------------------------------------------------------------

def compact_store(
    store: MonetXML,
) -> Tuple[MonetXML, Optional[Callable[[np.ndarray], np.ndarray]]]:
    """Renumber the live nodes densely; returns (new store, OID map).

    The compacted store is exactly what rebuilding from the surviving
    documents would produce (same OIDs, same relation contents), which
    is the precondition for shard slicing and snapshot writing.  The
    OID map is monotone — a live OID moves down by the dead OIDs below
    it — and is returned as the vectorized function that applies it to
    a column of live OIDs.  The dense columns keep their live slots,
    the string heads and the parents go through the map, and the path
    summary is shared (it is append-only); on a tombstone-free store
    this is a no-op returning ``(store, None)``.
    """
    if not store._tombstones:
        ensure_document_registry(store)
        return store, None
    first = store.first_oid
    starts, dead_prefix = store.tombstone_table()
    dead_below = np.asarray(dead_prefix)

    def renumbered(oids) -> np.ndarray:
        oids = np.asarray(oids, dtype=np.int64)
        return oids - dead_below[np.searchsorted(starts, oids, side="right")]

    live = np.ones(store.node_count, dtype=bool)
    for low, high in store.tombstone_ranges():
        live[low - first : high - first + 1] = False
    pids, parents, ranks = (
        np.asarray(column)[live] for column in store.dense_columns()
    )
    linked = parents >= 0
    parents[linked] = renumbered(parents[linked])
    strings = store.string_runs()

    compacted = MonetXML(
        summary=store.summary,
        root_oid=int(renumbered(store.root_oid)),
        first_oid=first,
        oid_pid=int32_column(pids),
        oid_parent=int32_column(parents),
        oid_rank=int32_column(ranks),
        strings=strings._replace(
            heads=renumbered(strings.heads).astype(np.int32)
        ),
    )
    names = list(store.documents)
    spans = renumbered([store.documents[name] for name in names]).tolist()
    compacted.documents = {
        name: (low, high) for name, (low, high) in zip(names, spans)
    }
    return compacted, renumbered
