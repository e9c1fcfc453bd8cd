"""The Monet transform (Definition 4): document → path-partitioned store.

``Mt(D) = (r, E', A', R')`` where

* ``E'`` groups parent/child edges by the *child's* path — one binary
  relation per distinct path, named by that path (Figure 2);
* ``A'`` groups (OID, string) attribute/value associations by the
  attribute path ``π(o)@name``;
* ``R'`` groups (OID, rank) associations preserving sibling order;
* ``r`` remains the root.

The transform emits the dense OID columns (pid, parent, rank) that give
the O(1) ``parent``/π look-ups of §3.2; ``E'`` and ``R'`` are those
columns regrouped by pid, derived on first use, and ``A'`` is one
pid-sorted run of string rows per attribute path
(:mod:`repro.monet.relations`).
"""

from __future__ import annotations

from typing import List

from ..datamodel.document import Document
from .engine import MonetXML, int32_column
from .pathsummary import PathSummary
from .relations import group_rows

__all__ = ["monet_transform"]


def monet_transform(document: Document) -> MonetXML:
    """Shred a frozen :class:`Document` into a :class:`MonetXML` store.

    One pre-order pass fills the dense pid/parent/rank columns and
    collects the ``(attribute pid, OID, value)`` rows in OID order; one
    stable pid sort then groups the rows into the string runs.  The
    ``edges`` and ``ranks`` relations are the dense columns regrouped,
    so nothing else is built.  Deterministic for a given document.
    """
    summary = PathSummary()
    node_count = document.node_count
    first_oid = document.first_oid

    oid_pid = int32_column([0]) * node_count
    oid_parent = int32_column([-1]) * node_count
    oid_rank = int32_column([0]) * node_count
    attr_pids: List[int] = []
    attr_oids: List[int] = []
    values: List[str] = []

    for node in document.iter_nodes():
        oid = node.oid
        position = oid - first_oid
        path = document.path(oid)
        oid_pid[position] = summary.intern(path)
        oid_rank[position] = node.rank
        if node.parent is not None:
            oid_parent[position] = node.parent.oid
        for name, value in node.attributes.items():
            attr_pids.append(summary.intern(path.attribute(name)))
            attr_oids.append(oid)
            values.append(value)

    return MonetXML(
        summary=summary,
        root_oid=document.root.oid,
        first_oid=first_oid,
        oid_pid=oid_pid,
        oid_parent=oid_parent,
        oid_rank=oid_rank,
        strings=group_rows(attr_pids, attr_oids, values),
    )
