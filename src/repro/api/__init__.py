"""repro.api — the one front door to the engine.

Three tiers, outermost first:

* :class:`Database` / :func:`open` — resolve *any* supported source
  (XML file, ``.snap`` snapshot bundle, catalog collection) behind
  one call and query it through typed request/response envelopes.
* :mod:`repro.api.server` — an embedded HTTP/JSON service
  (:class:`~repro.api.server.ReproServer`) exposing the same envelopes
  over ``POST /v1/search|/v1/nearest|/v1/query`` plus
  ``GET /v1/collections|/v1/stats|/healthz``; the CLI spelling is
  ``repro serve``.
* The documented low-level tier stays importable —
  ``db.engine`` is a :class:`~repro.core.engine.NearestConceptEngine`
  and ``db.processor`` a :class:`~repro.query.executor.QueryProcessor`
  — for callers who want the operators without the envelopes.
"""

from .database import Database, open_database
from .envelopes import (
    ENVELOPE_FORMAT,
    ENVELOPE_VERSION,
    CompactRequest,
    DeleteDocumentRequest,
    EnvelopeError,
    NearestRequest,
    PutDocumentRequest,
    QueryRequest,
    Request,
    ResultEnvelope,
    SearchRequest,
    request_from_dict,
)
from .options import DatabaseOptions
from .resolve import (
    DEFAULT_CATALOG,
    ResolvedSource,
    default_catalog_dir,
    resolve_source,
)


def __getattr__(name: str):
    # The HTTP service (and ``http.server`` under it) loads on first
    # use: a library open never needs it.
    if name == "ReproServer":
        from .server import ReproServer

        return ReproServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: ``repro.api.open`` — and, re-exported, ``repro.open``: the
#: Quick-Start spelling of :meth:`Database.open`.
open = open_database

__all__ = [
    "CompactRequest",
    "DEFAULT_CATALOG",
    "Database",
    "DatabaseOptions",
    "DeleteDocumentRequest",
    "ENVELOPE_FORMAT",
    "ENVELOPE_VERSION",
    "EnvelopeError",
    "NearestRequest",
    "PutDocumentRequest",
    "QueryRequest",
    "ReproServer",
    "Request",
    "ResolvedSource",
    "ResultEnvelope",
    "SearchRequest",
    "default_catalog_dir",
    "open",
    "open_database",
    "request_from_dict",
    "resolve_source",
]
