"""The Monet transform (Definition 4): document → path-partitioned store.

``Mt(D) = (r, E', A', R')`` where

* ``E'`` groups parent/child edges by the *child's* path — one binary
  relation per distinct path, named by that path (Figure 2);
* ``A'`` groups (OID, string) attribute/value associations by the
  attribute path ``π(o)@name``;
* ``R'`` groups (OID, rank) associations preserving sibling order;
* ``r`` remains the root.

The transform also materializes the dense OID columns (pid, parent,
rank) that give the O(1) ``parent``/π look-ups of §3.2.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..datamodel.document import Document
from .bat import BAT
from .engine import MonetXML, int32_column
from .pathsummary import PathSummary

__all__ = ["monet_transform"]


def monet_transform(document: Document) -> MonetXML:
    """Shred a frozen :class:`Document` into a :class:`MonetXML` store.

    Runs in one pre-order pass; deterministic for a given document.
    """
    summary = PathSummary()
    node_count = document.node_count
    first_oid = document.first_oid

    oid_pid = int32_column([0]) * node_count
    oid_parent = int32_column([-1]) * node_count
    oid_rank = int32_column([0]) * node_count

    edge_buns: Dict[int, List[Tuple[int, int]]] = {}
    string_buns: Dict[int, List[Tuple[int, str]]] = {}
    rank_buns: Dict[int, List[Tuple[int, int]]] = {}

    for node in document.iter_nodes():
        oid = node.oid
        position = oid - first_oid
        path = document.path(oid)
        pid = summary.intern(path)
        oid_pid[position] = pid
        oid_rank[position] = node.rank
        rank_buns.setdefault(pid, []).append((oid, node.rank))
        if node.parent is not None:
            oid_parent[position] = node.parent.oid
            edge_buns.setdefault(pid, []).append((node.parent.oid, oid))
        for name, value in node.attributes.items():
            attr_pid = summary.intern(path.attribute(name))
            string_buns.setdefault(attr_pid, []).append((oid, value))

    edges = {
        pid: BAT(buns, name=str(summary.path(pid)))
        for pid, buns in edge_buns.items()
    }
    strings = {
        pid: BAT(buns, name=str(summary.path(pid)))
        for pid, buns in string_buns.items()
    }
    ranks = {
        pid: BAT(buns, name=str(summary.path(pid)))
        for pid, buns in rank_buns.items()
    }

    return MonetXML(
        summary=summary,
        root_oid=document.root.oid,
        first_oid=first_oid,
        oid_pid=oid_pid,
        oid_parent=oid_parent,
        oid_rank=oid_rank,
        edges=edges,
        strings=strings,
        ranks=ranks,
    )
