"""repro — Nearest Concept Queries over XML (the *meet* operator).

A from-scratch reproduction of:

    Albrecht Schmidt, Martin Kersten, Menzo Windhouwer.
    "Querying XML Documents Made Easy: Nearest Concept Queries."
    Proceedings of ICDE 2001.

The library lets users query XML by *content* without knowing tags or
hierarchy: keyword hits are combined with the ``meet`` operator — the
lowest common ancestor interpreted as the *nearest concept* of the
hits — over the Monet XML path-partitioned storage model.

Quickstart — one front door::

    import repro

    db = repro.open("bib.xml")          # XML file or .snap bundle
    for answer in db.nearest("Bit", "1999").answers:
        print(answer["tag"], answer["oid"], answer["joins"])

(:func:`repro.open` returns a :class:`repro.api.Database`; the
lower-level engine tier stays fully importable — see the README's
"Advanced: engine internals".)

Packages:

* :mod:`repro.api`       — the ``Database`` facade, typed request/
  response envelopes, the embedded HTTP/JSON service.
* :mod:`repro.datamodel` — conceptual model (Defs. 1–3, 5), parser.
* :mod:`repro.monet`     — Monet transform, store columns and runs,
  path summary.
* :mod:`repro.fulltext`  — inverted index / ``contains`` search.
* :mod:`repro.core`      — meet₂ / meet_S / meet, restrictions,
  distance, ranking, the NearestConceptEngine pipeline.
* :mod:`repro.query`     — the SQL-with-paths language with
  ``meet(...)`` aggregation.
* :mod:`repro.baselines` — naive/indexed/offline LCA, intro baseline,
  proximity search.
* :mod:`repro.datasets`  — Figure 1, synthetic DBLP and multimedia.
* :mod:`repro.snapshot`  — binary columnar persistence, catalogs,
  shard-aware bundles.
* :mod:`repro.exec`      — sharded collections, the serial and
  socket-worker executors, the scatter-gather coordinator (loaded on
  first use, like :mod:`repro.api.server`).
"""

import importlib

from .api import (
    Database,
    DatabaseOptions,
    NearestRequest,
    QueryRequest,
    ResultEnvelope,
    SearchRequest,
    open_database,
)
from .api import open as open  # noqa: A004 - deliberate repro.open(...)
from .core import (
    GeneralMeet,
    NearestConcept,
    NearestConceptEngine,
    PairMeet,
    SetMeet,
    bounded_meet2,
    distance,
    meet2,
    meet2_traced,
    meet_depthwise,
    meet_excluding,
    meet_general,
    meet_sets,
    meet_tagged,
)
from .datamodel import (
    Document,
    DocumentBuilder,
    Node,
    Path,
    parse_document,
    serialize,
)
from .fulltext import FullTextIndex, SearchEngine
from .monet import MonetXML, PathSummary, monet_transform
from .query import QueryProcessor, parse_query, run_query

#: Names loaded on first access (PEP 562): the execution layer and the
#: HTTP service are ~65 ms of imports a monolithic open never uses.
_LAZY = {
    "ReproServer": "repro.api.server",
    "SerialExecutor": "repro.exec",
    "ShardPlan": "repro.exec",
    "ShardedCollection": "repro.exec",
}


def __getattr__(name: str):
    if name == "exec":
        return importlib.import_module("repro.exec")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_LAZY[name]), name)


__version__ = "0.10.0"

__all__ = [
    "Database",
    "DatabaseOptions",
    "Document",
    "DocumentBuilder",
    "FullTextIndex",
    "GeneralMeet",
    "MonetXML",
    "NearestConcept",
    "NearestConceptEngine",
    "NearestRequest",
    "Node",
    "PairMeet",
    "Path",
    "PathSummary",
    "QueryProcessor",
    "ReproServer",
    "SerialExecutor",
    "ShardPlan",
    "ShardedCollection",
    "QueryRequest",
    "ResultEnvelope",
    "SearchEngine",
    "SearchRequest",
    "SetMeet",
    "__version__",
    "bounded_meet2",
    "distance",
    "meet2",
    "meet2_traced",
    "meet_depthwise",
    "meet_excluding",
    "meet_general",
    "meet_sets",
    "meet_tagged",
    "monet_transform",
    "open",
    "open_database",
    "parse_document",
    "parse_query",
    "run_query",
    "serialize",
]
