"""Physical data model: the Monet transform and its column engine (§2).

* :class:`PathSummary` — interned paths / schema tree.
* :func:`monet_transform` — Definition 4, document → store.
* :class:`MonetXML` — the loaded database instance.
* :mod:`~repro.monet.relations` — relation families as pid-grouped
  runs: one pair of flat columns per family, one run per relation.
* :mod:`~repro.monet.reassembly` — OID → object/DOM views.
"""

from .engine import MonetXML
from .pathsummary import PathSummary
from .reassembly import (
    associations_of,
    object_text,
    reassemble_node,
    reassemble_object,
    reassemble_subtree,
)
from .mutate import (
    MutationRecord,
    compact_store,
    delete_document,
    ensure_document_registry,
    put_document,
    replace_document,
)
from .stats import StoreStatistics, collect_statistics
from .transform import monet_transform

__all__ = [
    "MonetXML",
    "MutationRecord",
    "PathSummary",
    "compact_store",
    "delete_document",
    "ensure_document_registry",
    "put_document",
    "replace_document",
    "StoreStatistics",
    "collect_statistics",
    "associations_of",
    "monet_transform",
    "object_text",
    "reassemble_node",
    "reassemble_object",
    "reassemble_subtree",
]
