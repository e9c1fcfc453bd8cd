"""Object re-assembly: from associations back to objects (paper §2).

"We 're-assemble' an object with OID o from those associations whose
first component is o" — the paper shows ``object(o7) = {⟨cdata, …⟩,
⟨year, …⟩, ⟨title, …⟩}`` turning into a class instance or a DOM tree.
This module provides both views:

* :func:`associations_of` — the raw association set of one OID;
* :func:`reassemble_object` — one level deep, a dict-like record;
* :func:`reassemble_node` / :func:`reassemble_subtree` — a full
  :class:`~repro.datamodel.node.Node` tree, usable with the serializer
  to print query results as XML.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from ..datamodel.document import CDATA_LABEL, STRING_ATTRIBUTE
from ..datamodel.node import Node
from .engine import MonetXML

__all__ = [
    "associations_of",
    "reassemble_object",
    "reassemble_node",
    "reassemble_subtree",
    "object_text",
]


def associations_of(store: MonetXML, oid: int) -> List[Tuple[str, int, Any]]:
    """All associations whose first component is ``oid``.

    Returns (relation name, oid, second component) triples — edges to
    children first (rank order), then string associations.
    """
    result: List[Tuple[str, int, Any]] = []
    for child in store.children_of(oid):
        relation = str(store.path_of(child))
        result.append((relation, oid, child))
    pid = store.pid_of(oid)
    path = store.summary.path(pid)
    for name, value in store.attributes_of(oid).items():
        result.append((str(path.attribute(name)), oid, value))
    return result


def reassemble_object(store: MonetXML, oid: int) -> Dict[str, Any]:
    """A one-level record view of a node: label, attrs, children labels.

    Children appear under their label; repeated labels collect into a
    list of OIDs, mirroring the "suitably defined class" example of §2.
    """
    record: Dict[str, Any] = {
        "oid": oid,
        "label": store.summary.label(store.pid_of(oid)),
        "path": str(store.path_of(oid)),
    }
    for name, value in store.attributes_of(oid).items():
        record[name] = value
    for child in store.children_of(oid):
        label = store.summary.label(store.pid_of(child))
        existing = record.get(label)
        if existing is None:
            record[label] = child
        elif isinstance(existing, list):
            existing.append(child)
        else:
            record[label] = [existing, child]
    return record


def reassemble_node(store: MonetXML, oid: int) -> Node:
    """Re-assemble one node (label + attributes), without children."""
    label = store.summary.label(store.pid_of(oid))
    node = Node(label, attributes=store.attributes_of(oid))
    node.oid = oid
    node.rank = store.rank_of(oid)
    return node


def _live_run(store: MonetXML, oid: int) -> Tuple[List[int], List[int]]:
    """The live OIDs below ``oid`` in document order, with their parents.

    Pre-order makes the subtree one contiguous OID run
    (:meth:`~repro.monet.engine.MonetXML.subtree_end`); only the root's
    run can hold tombstones, which have no parent.
    """
    first = store.first_oid
    parents = np.asarray(
        store.dense_columns()[1][oid - first + 1 : store.subtree_end(oid) - first]
    )
    live = np.flatnonzero(parents >= 0)
    return (live + oid + 1).tolist(), parents[live].tolist()


def reassemble_subtree(store: MonetXML, oid: int) -> Node:
    """Re-assemble the full subtree rooted at ``oid`` as a Node tree.

    The result is a fresh tree (OIDs preserved on the nodes); feeding
    it to :func:`repro.datamodel.serializer.serialize_node` prints the
    subtree as XML — the "starting point for displaying and browsing"
    use-case of §4.  One pass over the subtree's OID run: siblings come
    in document (= rank) order.
    """
    root = reassemble_node(store, oid)
    nodes = {oid: root}
    for child_oid, parent in zip(*_live_run(store, oid)):
        child_node = reassemble_node(store, child_oid)
        nodes[parent].append(child_node)
        # re-assembly must preserve original sibling ranks
        child_node.rank = store.rank_of(child_oid)
        nodes[child_oid] = child_node
    return root


def object_text(store: MonetXML, oid: int) -> str:
    """All character data below ``oid`` in document order, joined.

    Convenience used by examples to show what a meet result "is about".
    """
    pieces: List[str] = []
    for current in [oid, *_live_run(store, oid)[0]]:
        if store.summary.label(store.pid_of(current)) == CDATA_LABEL:
            value = store.attributes_of(current).get(STRING_ATTRIBUTE)
            if value:
                pieces.append(value)
    return " ".join(pieces)
