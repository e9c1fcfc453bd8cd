"""Live document mutations over a loaded Monet XML store.

The store of Definition 4 is built once from a frozen document; this
module makes it a *collection* you can mutate while it serves queries:

* :func:`put_document` parses an XML fragment, grafts it under the
  store root as a fresh top-level document, appends its nodes as one
  contiguous pre-order OID run (``last_oid + 1`` onward) and interns
  its paths into the shared summary;
* :func:`delete_document` tombstones a document's OID range — the
  dense columns keep their slots (parent pointers cleared) while the
  path-partitioned relations are pruned, so every query surface only
  ever sees live nodes;
* :func:`replace_document` is delete + put under the same name;
* :func:`compact_store` renumbers the surviving nodes densely — the
  compacted OIDs equal what a rebuild from the surviving documents
  would assign, which is what shard slicing and snapshot writing
  require (both assume a dense pre-order store).

Every mutation bumps the store ``generation`` (dropping the
generation-keyed result caches precisely) and appends a
:class:`MutationRecord` to ``store.journal``.  The derived indexes are
*maintained* from that journal, never rebuilt by a write: on their next
use the LCA, full-text and value indexes each bridge their generation
to the store's with :func:`journal_chain` and roll forward — the Euler
tour and its range-minimum table grow at the tail
(:func:`repro.core.lca_index.get_lca_index`), postings and typed
columns are appended and pruned by OID span
(:func:`repro.fulltext.index.get_fulltext_index`,
:func:`repro.valueindex.index.get_value_index`).  Only a consumer whose
generation the journal no longer reaches rebuilds.

The pre-order invariant maintained throughout: live OIDs ascend in
document order.  New documents append at the tail; a replace re-appends
at the tail, exactly where the document would sort in a rebuild that
serializes documents in collection order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..datamodel.document import CDATA_LABEL, STRING_ATTRIBUTE
from ..datamodel.errors import (
    DocumentError,
    DuplicateDocumentError,
    UnknownDocumentError,
)
from ..datamodel.node import CDATA_ATTRIBUTE, Node
from ..datamodel.parser import parse_fragment
from .bat import BAT
from .engine import MonetXML, int32_column

__all__ = [
    "MutationRecord",
    "JOURNAL_LIMIT",
    "journal_chain",
    "ensure_document_registry",
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
    association a put introduced — enough to patch an inverted index
    forward without re-scanning the relations.  Deletes carry only the
    tombstoned span; postings are pruned by OID range.
    """

    kind: str  # "put" | "delete"
    name: str
    span: Tuple[int, int]
    from_generation: int
    to_generation: int
    added_strings: Tuple[Tuple[int, int, str], ...] = field(default=())
    removed_associations: int = 0


def journal_chain(
    store: MonetXML, generation: int
) -> Optional[List[MutationRecord]]:
    """Mutation records bridging ``generation`` → the store's current one.

    ``None`` when no contiguous chain exists (journal evicted, store
    without a journal, or a gap) — the caller must rebuild.
    """
    current = getattr(store, "generation", 0)
    if generation == current:
        return []
    chain = []
    expected = generation
    for record in getattr(store, "journal", ()):
        from_generation = getattr(record, "from_generation", None)
        if from_generation is None:
            return None
        if not chain and from_generation != expected:
            continue
        if chain and from_generation != expected:
            return None
        chain.append(record)
        expected = record.to_generation
    if not chain or expected != current:
        return None
    return chain


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
    """Convert zero-copy snapshot views into plain mutable structures.

    Snapshot-loaded stores hold lazily materialized read-only relation
    families and read-only int32 views as dense columns; the first
    mutation pays one conversion to plain dicts and ``array('i')``s.
    """
    for family in ("edges", "strings", "ranks"):
        relations = getattr(store, family)
        if not isinstance(relations, dict):
            setattr(store, family, dict(relations.items()))
    for name in ("_oid_pid", "_oid_parent", "_oid_rank"):
        column = getattr(store, name)
        if not (isinstance(column, array) and column.typecode == "i"):
            setattr(store, name, int32_column(column))


# ---------------------------------------------------------------------------
# put
# ---------------------------------------------------------------------------

def _normalize_cdata(root: Node) -> None:
    """The cdata-attribute → cdata-node normalization of Document."""
    for node in list(root.iter_preorder()):
        value = node.attributes.pop(CDATA_ATTRIBUTE, None)
        if value is None:
            continue
        if node.label == CDATA_LABEL:
            node.attributes[STRING_ATTRIBUTE] = value
            continue
        node.append(Node(CDATA_LABEL, attributes={STRING_ATTRIBUTE: value}))


def put_document(store: MonetXML, name: str, xml: str) -> MutationRecord:
    """Parse ``xml`` and append it as the named top-level document.

    The fragment is grafted under the store root: its nodes receive the
    contiguous OID run ``last_oid + 1 …`` in pre-order, its paths are
    interned into the shared summary prefixed by the root path, and the
    relation families gain the new associations.  Raises
    :class:`DuplicateDocumentError` if the name is taken.
    """
    registry = ensure_document_registry(store)
    if name in registry:
        raise DuplicateDocumentError(name)
    fragment = parse_fragment(xml)
    _normalize_cdata(fragment)
    _ensure_mutable(store)

    root_oid = store.root_oid
    root_pid = store.pid_of(root_oid)
    root_path = store.summary.path(root_pid)
    summary = store.summary
    # The registry holds exactly the live top-level documents, so the
    # next rank comes from it — not from the O(n) children adjacency,
    # which the previous write has just invalidated.
    fragment.rank = max(
        (store.rank_of(low) + 1 for low, _ in registry.values()), default=0
    )

    first_new = store.last_oid + 1
    added_strings: List[Tuple[int, int, str]] = []
    edge_buns: Dict[int, List[Tuple[int, int]]] = {}
    string_buns: Dict[int, List[Tuple[int, str]]] = {}
    rank_buns: Dict[int, List[Tuple[int, int]]] = {}

    # Pre-order pass mirroring monet_transform, rebased on the root path.
    oid = first_new
    stack: List[Tuple[Node, int, object]] = [(fragment, root_oid, root_path)]
    while stack:
        node, parent_oid, parent_path = stack.pop()
        path = parent_path.child(node.label)
        pid = summary.intern(path)
        store._oid_pid.append(pid)
        store._oid_parent.append(parent_oid)
        store._oid_rank.append(node.rank)
        rank_buns.setdefault(pid, []).append((oid, node.rank))
        edge_buns.setdefault(pid, []).append((parent_oid, oid))
        for attr_name, value in node.attributes.items():
            attr_pid = summary.intern(path.attribute(attr_name))
            string_buns.setdefault(attr_pid, []).append((oid, value))
            added_strings.append((attr_pid, oid, value))
        node_oid = oid
        oid += 1
        for child in reversed(node.children):
            stack.append((child, node_oid, path))
    last_new = oid - 1

    for pid, buns in edge_buns.items():
        fresh = BAT(buns, name=str(summary.path(pid)))
        old = store.edges.get(pid)
        store.edges[pid] = fresh if old is None else old.union_all(fresh)
    for pid, buns in string_buns.items():
        fresh = BAT(buns, name=str(summary.path(pid)))
        old = store.strings.get(pid)
        store.strings[pid] = fresh if old is None else old.union_all(fresh)
    for pid, buns in rank_buns.items():
        fresh = BAT(buns, name=str(summary.path(pid)))
        old = store.ranks.get(pid)
        store.ranks[pid] = fresh if old is None else old.union_all(fresh)

    registry[name] = (first_new, last_new)
    record = _record(
        store,
        kind="put",
        name=name,
        span=(first_new, last_new),
        added_strings=tuple(added_strings),
    )
    return record


# ---------------------------------------------------------------------------
# delete / replace
# ---------------------------------------------------------------------------

def delete_document(store: MonetXML, name: str) -> MutationRecord:
    """Tombstone the named document's OID range and prune its relations."""
    registry = ensure_document_registry(store)
    span = registry.get(name)
    if span is None:
        raise UnknownDocumentError(name)
    _ensure_mutable(store)
    low, high = span

    start, stop = low - store.first_oid, high - store.first_oid + 1
    element_pids = set(store._oid_pid[start:stop])
    store._oid_parent[start:stop] = int32_column([-1]) * (stop - start)

    def outside(oid: int) -> bool:
        return not low <= oid <= high

    removed_associations = 0
    for pid in element_pids:
        relation = store.edges.get(pid)
        if relation is not None:
            store.edges[pid] = BAT.from_columns(
                *_filter_columns(relation.heads, relation.tails, outside, key="tail"),
                name=relation.name,
                copy=False,
            )
        relation = store.ranks.get(pid)
        if relation is not None:
            store.ranks[pid] = BAT.from_columns(
                *_filter_columns(relation.heads, relation.tails, outside, key="head"),
                name=relation.name,
                copy=False,
            )
        for attr_pid in store.summary.children(pid):
            if not store.summary.is_attribute(attr_pid):
                continue
            relation = store.strings.get(attr_pid)
            if relation is None:
                continue
            before = len(relation)
            store.strings[attr_pid] = BAT.from_columns(
                *_filter_columns(relation.heads, relation.tails, outside, key="head"),
                name=relation.name,
                copy=False,
            )
            removed_associations += before - len(store.strings[attr_pid])

    store.add_tombstone_range(low, high)
    del registry[name]
    return _record(
        store,
        kind="delete",
        name=name,
        span=(low, high),
        removed_associations=removed_associations,
    )


def _filter_columns(heads, tails, keep, key: str):
    """(heads, tails) restricted to BUNs whose head/tail passes ``keep``."""
    column = heads if key == "head" else tails
    kept = [i for i, value in enumerate(column) if keep(value)]
    if len(kept) == len(column):
        return list(heads), list(tails)
    return [heads[i] for i in kept], [tails[i] for i in kept]


def replace_document(
    store: MonetXML, name: str, xml: str
) -> List[MutationRecord]:
    """Replace (upsert) the named document: delete if present, then put.

    The new content re-appends at the OID tail — the same position a
    rebuild that serializes documents in collection order would give it.
    """
    registry = ensure_document_registry(store)
    # Validate the fragment *before* deleting: a parse error must leave
    # the collection exactly as it was.
    parse_fragment(xml)
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

def compact_store(store: MonetXML) -> Tuple[MonetXML, Optional[Dict[int, int]]]:
    """Renumber the live nodes densely; returns (new store, OID map).

    The compacted store is exactly what rebuilding from the surviving
    documents would produce (same OIDs, same relation contents), which
    is the precondition for shard slicing and snapshot writing.  The
    path summary is shared (it is append-only); on a tombstone-free
    store this is a no-op returning ``(store, None)``.
    """
    if not store._tombstones:
        ensure_document_registry(store)
        return store, None
    first = store.first_oid
    # The live slots are the runs between the tombstone ranges, so the
    # dense columns compact by slices.
    tombstones = store.tombstone_ranges()
    runs = list(zip(
        [0] + [high + 1 - first for _, high in tombstones],
        [low - first for low, _ in tombstones] + [store.node_count],
    ))
    live = [first + slot for start, stop in runs for slot in range(start, stop)]
    mapping = {old: first + position for position, old in enumerate(live)}

    def compacted_column(column) -> array:
        kept = int32_column()
        for start, stop in runs:
            kept += column[start:stop]
        return kept

    pids, parents, ranks = store.dense_columns()
    oid_pid = compacted_column(pids)
    oid_rank = compacted_column(ranks)
    oid_parent = int32_column([
        -1 if parent < 0 else mapping[parent]
        for parent in compacted_column(parents)
    ])

    def remap(relation: BAT, *, heads_only: bool) -> BAT:
        heads = [mapping[h] for h in relation.heads]
        tails = (
            list(relation.tails)
            if heads_only
            else [mapping[t] for t in relation.tails]
        )
        return BAT.from_columns(heads, tails, name=relation.name, copy=False)

    compacted = MonetXML(
        summary=store.summary,
        root_oid=mapping[store.root_oid],
        first_oid=first,
        oid_pid=oid_pid,
        oid_parent=oid_parent,
        oid_rank=oid_rank,
        edges={
            pid: remap(rel, heads_only=False)
            for pid, rel in store.edges.items()
            if len(rel)
        },
        strings={
            pid: remap(rel, heads_only=True)
            for pid, rel in store.strings.items()
            if len(rel)
        },
        ranks={
            pid: remap(rel, heads_only=True)
            for pid, rel in store.ranks.items()
            if len(rel)
        },
    )
    compacted.documents = {
        name: (mapping[low], mapping[high])
        for name, (low, high) in store.documents.items()
    }
    return compacted, mapping
