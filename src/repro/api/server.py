"""An embedded HTTP/JSON service over one or more ``Database``\\ s.

Pure stdlib (:class:`http.server.ThreadingHTTPServer`) — the whole
repo stays dependency-free — yet safe for concurrent readers: stores,
path summaries and the generation-keyed indexes are immutable once
built (:meth:`ReproServer.serve_forever` warm-ups every database
before accepting traffic, so no thread ever triggers an index build),
and the one mutable structure, the shared
:class:`~repro.core.result_cache.ResultCache`, locks internally.

Endpoints (all JSON)::

    POST   /v1/search       SearchRequest        → ResultEnvelope
    POST   /v1/nearest      NearestRequest       → ResultEnvelope
    POST   /v1/query        QueryRequest         → ResultEnvelope
    POST   /v1/prepare      PrepareRequest       → prepared-statement handle
    POST   /v1/execute      ExecuteRequest       → ResultEnvelope
    PUT    /v1/documents    PutDocumentRequest   → mutation receipt
    DELETE /v1/documents    DeleteDocumentRequest → mutation receipt
    GET    /v1/documents    name → [low, high] OID spans per document
    POST   /v1/compact      CompactRequest       → compaction receipt
    GET    /v1/collections  collection metadata (Database.describe)
    GET    /v1/stats        live serving stats + admission/latency
    GET    /v1/metrics      Prometheus text exposition (version 0.0.4)
    GET    /healthz         liveness: the process is up
    GET    /readyz          readiness: per-shard replica health
                            (200 ok/degraded, 503 unavailable)

A request body may name a ``"collection"``; with one collection the
field is optional.  Sending ``X-Repro-Trace: 1`` opts a request into
span collection: the response's ``stats["trace"]`` then carries the
named spans (``admission.wait``, ``parse``, ``plan``,
``shard.scatter``, ``shard[i].<op>`` — produced inside the worker
process — ``merge``, ``serialize``), and every response carries its
``X-Repro-Trace-Id`` header so errors join against the access log.  Errors come back as ``{"error": ..., "status": N,
"code": ..., "retryable": ...}`` — the ``code`` is a stable
machine-readable string (``overloaded``, ``shard_unavailable``,
``deadline_exceeded``, ``query_error``, ...) — with 400 (malformed
request / query error), 404 (unknown route, collection or document),
409 (duplicate document on put), 413 (oversized body), 503 (shed or
no healthy replica, with ``Retry-After``), 504 (deadline exceeded) or
500.  Writes serialize behind each database's readers–writer lock, so
in-flight queries always see either the pre- or the post-mutation
store — never a torn state.

Every POST/PUT/DELETE passes **admission control** (bounded
concurrency, bounded queue, load shedding) and may carry an
``X-Repro-Deadline-Ms`` header: the remaining budget rides down the
whole scatter-gather tree and bounds every blocking wait under it.

Programmatic use (the tests and benchmarks drive it this way)::

    server = ReproServer({"plays": db}, port=0)   # port 0: pick a free one
    with server:                                  # warm, bound, serving
        requests.post(server.url("/v1/nearest"), json={...})
"""

from __future__ import annotations

import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Mapping, Optional, Union
from urllib.parse import parse_qs, urlsplit

from ..datamodel.errors import (
    DuplicateDocumentError,
    ReproError,
    UnknownDocumentError,
)
from ..exec.deadline import Deadline, DeadlineExceededError, deadline_scope
from ..exec.executors import ExecutorError
from ..monet.engine import index_counters
from ..obs.logs import log_event
from ..obs.metrics import CallbackGauge, Counter, Histogram, MetricsRegistry
from ..obs.trace import Trace, new_trace_id, trace_scope
from .admission import AdmissionController, OverloadedError
from .database import Database
from .envelopes import (
    CompactRequest,
    DeleteDocumentRequest,
    EnvelopeError,
    ExecuteRequest,
    NearestRequest,
    PrepareRequest,
    PutDocumentRequest,
    QueryRequest,
    Request,
    SearchRequest,
)

__all__ = [
    "ReproServer",
    "MAX_BODY_BYTES",
    "DEADLINE_HEADER",
    "TRACE_HEADER",
    "TRACE_ID_HEADER",
]

logger = logging.getLogger("repro.serve")
access_logger = logging.getLogger("repro.serve.access")

#: Requests larger than this are refused with 413 before parsing.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Per-request deadline override, in milliseconds.  Clients state how
#: long an answer is still useful; the budget rides down the whole
#: scatter-gather tree (admission queue, executors, socket transport).
DEADLINE_HEADER = "X-Repro-Deadline-Ms"

#: Request header opting into span collection: any truthy value makes
#: the response carry ``stats["trace"]`` with the named spans.
TRACE_HEADER = "X-Repro-Trace"

#: Response header carrying the request's trace id (always present, so
#: an error report can be joined against the access log).
TRACE_ID_HEADER = "X-Repro-Trace-Id"

_POST_KINDS = {
    "/v1/search": SearchRequest,
    "/v1/nearest": NearestRequest,
    "/v1/query": QueryRequest,
    "/v1/prepare": PrepareRequest,
    "/v1/execute": ExecuteRequest,
    "/v1/compact": CompactRequest,
}

_PUT_KINDS = {"/v1/documents": PutDocumentRequest}

_DELETE_KINDS = {"/v1/documents": DeleteDocumentRequest}


class _UnknownCollection(ReproError):
    """Routing error distinguished from 400-class request errors."""


class _ReproHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the app object for its handlers."""

    daemon_threads = True
    #: The socketserver default listen backlog (5) resets connections
    #: the moment a few dozen clients connect at once — admission
    #: control never even sees them.  A deep backlog lets every burst
    #: reach the controller, which is where accept/shed is decided.
    request_queue_size = 128

    def __init__(self, address, handler, app: "ReproServer"):
        self.app = app
        super().__init__(address, handler)


class _Handler(BaseHTTPRequestHandler):
    server: _ReproHTTPServer
    protocol_version = "HTTP/1.1"
    #: The handler writes headers and body as two sends; without
    #: TCP_NODELAY, Nagle + delayed ACK stall each response by ~40 ms
    #: on loopback — dominating small-query latency.
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------
    def _begin(self) -> str:
        """Per-request bookkeeping: clock, trace id, opt-in trace."""
        self._started = time.monotonic()
        self._trace_id = new_trace_id()
        raw = self.headers.get(TRACE_HEADER)
        wants_trace = raw is not None and raw.strip().lower() not in (
            "", "0", "false", "no",
        )
        self._trace = Trace(self._trace_id) if wants_trace else None
        self._queue_wait: Optional[float] = None
        self._shards: Optional[int] = None
        return urlsplit(self.path).path

    def _send_json(
        self, status: int, payload: Dict[str, object], close: bool = False
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        # Observe (metrics + access log) before the body goes out: the
        # moment the client finishes reading, the log line exists.
        self._observe(status, len(body))
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        if getattr(self, "_trace_id", None) is not None:
            self.send_header(TRACE_ID_HEADER, self._trace_id)
        if close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self,
        status: int,
        message: str,
        *,
        code: str = "error",
        retryable: bool = False,
        retry_after: Optional[float] = None,
    ) -> None:
        # Close the connection on every error: a request refused before
        # its body was read (413, bad Content-Length) would otherwise
        # leave those bytes on the keep-alive stream, where they would
        # be misparsed as the next request line.
        payload = {
            "error": message,
            "status": status,
            "code": code,
            "retryable": retryable,
        }
        if getattr(self, "_trace_id", None) is not None:
            payload["trace_id"] = self._trace_id
        body = json.dumps(payload).encode("utf-8")
        self._observe(status, len(body), code=code)
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        if getattr(self, "_trace_id", None) is not None:
            self.send_header(TRACE_ID_HEADER, self._trace_id)
        if retry_after is not None:
            # Retry-After is an integer count of seconds; round up so
            # a sub-second hint never becomes "retry immediately".
            self.send_header("Retry-After", str(max(1, int(retry_after + 0.999))))
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _send_repro_error(self, status: int, exc: ReproError, **kw) -> None:
        self._send_error_json(
            status,
            str(exc),
            code=getattr(exc, "code", "error"),
            retryable=getattr(exc, "retryable", False),
            **kw,
        )

    def _observe(
        self, status: int, bytes_out: int, code: Optional[str] = None
    ) -> None:
        """The per-response choke point: metrics + the access log."""
        app = self.server.app
        route = urlsplit(self.path).path
        started = getattr(self, "_started", None)
        elapsed = 0.0 if started is None else time.monotonic() - started
        app.observe_request(route, status, elapsed)
        fields: Dict[str, object] = {
            "trace_id": getattr(self, "_trace_id", None),
            "method": self.command,
            "route": route,
            "status": status,
            "latency_ms": round(elapsed * 1000, 3),
            "bytes": bytes_out,
            "client": self.address_string(),
        }
        if code is not None:
            fields["code"] = code
        if getattr(self, "_queue_wait", None) is not None:
            fields["queue_wait_ms"] = round(self._queue_wait * 1000, 3)
        if getattr(self, "_shards", None) is not None:
            fields["shards"] = self._shards
        log_event(access_logger, logging.INFO, "access", **fields)
        slow_ms = app.slow_query_ms
        if slow_ms is not None and elapsed * 1000 >= slow_ms:
            trace = getattr(self, "_trace", None)
            log_event(
                access_logger,
                logging.WARNING,
                "slow query",
                threshold_ms=slow_ms,
                spans=trace.spans if trace is not None else None,
                **fields,
            )

    def log_request(self, code="-", size="-") -> None:
        """Replaced by the structured access log in :meth:`_observe`."""

    def log_message(self, format: str, *args) -> None:
        # Stray http.server diagnostics (malformed request lines, broken
        # pipes) go through the structured logger, never raw stderr.
        log_event(
            logger,
            logging.WARNING,
            format % args,
            client=self.address_string(),
        )

    def _read_body(self) -> Dict[str, object]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise EnvelopeError("invalid Content-Length header") from None
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(length)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise EnvelopeError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise EnvelopeError("request body must be a JSON object")
        return payload

    def _request_deadline(self) -> Optional[Deadline]:
        """The deadline governing this request, header over default."""
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is not None:
            try:
                millis = float(raw)
            except ValueError:
                raise EnvelopeError(
                    f"invalid {DEADLINE_HEADER} header: {raw!r}"
                ) from None
            if millis <= 0:
                raise EnvelopeError(
                    f"{DEADLINE_HEADER} must be positive, got {raw!r}"
                )
            return Deadline.after(millis / 1000.0)
        default = self.server.app.default_deadline
        return None if default is None else Deadline.after(default)

    def _send_metrics(self, app: "ReproServer") -> None:
        """``GET /v1/metrics``: the Prometheus text exposition."""
        self._observe(200, 0)
        body = app.metrics.render().encode("utf-8")
        self.send_response(200)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        if getattr(self, "_trace_id", None) is not None:
            self.send_header(TRACE_ID_HEADER, self._trace_id)
        self.end_headers()
        self.wfile.write(body)

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        app = self.server.app
        route = self._begin()
        try:
            if route == "/healthz":
                # Liveness only: the process is up and can answer.
                # Readiness (shard replica health) lives at /readyz so
                # a restart-the-process supervisor and a
                # drain-the-traffic balancer watch different signals.
                self._send_json(
                    200,
                    {
                        "status": "ok",
                        "collections": app.names(),
                        "default": app.default,
                    },
                )
            elif route == "/readyz":
                readiness = app.readiness()
                status = 200 if readiness["status"] in ("ok", "degraded") else 503
                self._send_json(status, readiness)
            elif route == "/v1/collections":
                self._send_json(
                    200,
                    {
                        "default": app.default,
                        "collections": {
                            name: db.describe()
                            for name, db in app.databases.items()
                        },
                    },
                )
            elif route == "/v1/stats":
                self._send_json(200, app.stats())
            elif route == "/v1/metrics":
                self._send_metrics(app)
            elif route == "/v1/documents":
                query = parse_qs(urlsplit(self.path).query)
                collection = (query.get("collection") or [None])[0]
                database = app.database_for(collection)
                self._send_json(200, {"documents": database.documents()})
            else:
                self._send_error_json(404, f"unknown route: {route}")
        except _UnknownCollection as exc:
            self._send_repro_error(404, exc)
        except ReproError as exc:
            self._send_repro_error(400, exc)
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error_json(
                500, f"internal error: {exc}", code="internal"
            )

    def _handle_request(self, route_table: Dict[str, type]) -> None:
        """Admit → parse body → envelope → dispatch, errors to codes."""
        app = self.server.app
        route = self._begin()
        request_cls = route_table.get(route)
        if request_cls is None:
            self._send_error_json(
                404, f"unknown route: {route}", code="unknown_route"
            )
            return
        admitted = False
        started = time.monotonic()
        trace = self._trace
        try:
            deadline = self._request_deadline()
            # Admission happens before the body is read: a shed
            # request costs the server a queue check and one small
            # write, never parsing or planning work.
            waited = app.admission.admit(deadline)
            admitted = True
            self._queue_wait = waited
            if trace is not None:
                trace.add("admission.wait", waited * 1000)
            payload = self._read_body()
            kind = payload.get("kind")
            if kind is not None and kind != request_cls.kind:
                raise EnvelopeError(
                    f"request kind {kind!r} does not match route {route}"
                )
            request: Request = request_cls.from_dict(payload)
            database = app.database_for(request.collection)
            with deadline_scope(deadline), trace_scope(trace):
                # Cooperative check at dispatch entry: even an engine
                # with no other blocking points (a monolithic store)
                # must honor an already-spent budget with 504.
                if deadline is not None:
                    deadline.check("request dispatch")
                result = app.dispatch(database, request)
                if hasattr(result, "to_dict"):
                    if trace is not None:
                        with trace.span("serialize"):
                            body = result.to_dict()
                    else:
                        body = result.to_dict()
                else:
                    body = result
            if isinstance(body, dict):
                stats = body.get("stats")
                if isinstance(stats, dict):
                    shards = stats.get("shards")
                    if isinstance(shards, dict):
                        self._shards = shards.get("count")
                    if trace is not None:
                        stats["trace"] = trace.to_dict()
                elif trace is not None:
                    # Mutation receipts carry no stats dict; the trace
                    # rides at the top level instead.
                    body["trace"] = trace.to_dict()
            self._send_json(200, body)
        except _BodyTooLarge as exc:
            self._send_error_json(413, str(exc), code="body_too_large")
        except OverloadedError as exc:
            self._send_repro_error(503, exc, retry_after=exc.retry_after)
        except DeadlineExceededError as exc:
            app.deadline_exhaustions.inc()
            self._send_repro_error(504, exc)
        except DuplicateDocumentError as exc:
            self._send_repro_error(409, exc)
        except (_UnknownCollection, UnknownDocumentError) as exc:
            self._send_repro_error(404, exc)
        except ExecutorError as exc:
            # A dead worker (or a shard with no healthy replica) fails
            # this request cleanly; recovery — worker respawn, replica
            # failover — happens underneath for the next one.
            self._send_repro_error(503, exc, retry_after=1.0)
        except (EnvelopeError, ReproError, ValueError) as exc:
            if isinstance(exc, ReproError):
                self._send_repro_error(400, exc)
            else:
                self._send_error_json(400, str(exc), code="bad_request")
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error_json(
                500, f"internal error: {exc}", code="internal"
            )
        finally:
            if admitted:
                app.admission.release(time.monotonic() - started)

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        self._handle_request(_POST_KINDS)

    def do_PUT(self) -> None:  # noqa: N802 - http.server contract
        self._handle_request(_PUT_KINDS)

    def do_DELETE(self) -> None:  # noqa: N802 - http.server contract
        self._handle_request(_DELETE_KINDS)


class _BodyTooLarge(Exception):
    def __init__(self, length: int):
        super().__init__(
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit"
        )


def _index_patches() -> Dict[str, int]:
    """Journal roll-forwards per registered index, this process.

    Writes only ever apply in the serving process (shard workers serve
    a read-only bundle), so unlike ``index_builds`` there is no
    worker share to merge.
    """
    return {name: info.patches for name, info in index_counters().items()}


class ReproServer:
    """Serve one or more databases over HTTP from the current process.

    ``databases`` maps collection names to opened
    :class:`~repro.api.database.Database` objects (a bare ``Database``
    is accepted and served as ``"default"``).  ``port=0`` binds an
    ephemeral port — read :attr:`port` after construction.
    """

    def __init__(
        self,
        databases: Union[Database, Mapping[str, Database]],
        *,
        default: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 8080,
        verbose: bool = False,
        close_databases: bool = False,
        max_concurrency: int = 8,
        max_queue: int = 16,
        queue_timeout: float = 2.0,
        default_deadline: Optional[float] = None,
        slow_query_ms: Optional[float] = None,
    ):
        if isinstance(databases, Database):
            databases = {"default": databases}
        if not databases:
            raise ReproError("ReproServer needs at least one database")
        self.databases: Dict[str, Database] = dict(databases)
        if default is None:
            default = next(iter(self.databases))
        if default not in self.databases:
            raise ReproError(
                f"default collection {default!r} is not among "
                f"{sorted(self.databases)}"
            )
        self.default = default
        self.verbose = verbose
        self.admission = AdmissionController(
            max_concurrency=max_concurrency,
            max_queue=max_queue,
            queue_timeout=queue_timeout,
        )
        #: Seconds granted to a request that states no deadline of its
        #: own (``None``: unbounded, the embedded-use default).
        self.default_deadline = default_deadline
        #: Requests slower than this (milliseconds) get a WARNING line
        #: in the access log, with their spans when traced.  ``None``
        #: disables the slow-query log.
        self.slow_query_ms = slow_query_ms
        self.metrics = MetricsRegistry()
        self._requests_total = self.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served, by route and status.",
            labels=("route", "status"),
        )
        self._request_latency = self.metrics.histogram(
            "repro_http_request_duration_seconds",
            "Wall-clock request latency, by route.",
            labels=("route",),
        )
        self.deadline_exhaustions = self.metrics.counter(
            "repro_deadline_exhaustions_total",
            "Requests that ran out of their deadline budget.",
        )
        self._close_databases = close_databases
        self._warmed = False
        self._serving = False
        self._thread: Optional[threading.Thread] = None
        for metric in self.admission.metric_objects():
            self.metrics.register(metric)
        self.metrics.register(
            CallbackGauge(
                "repro_index_patches",
                "Derived-index roll-forwards through the mutation journal "
                "(a live write maintains an index instead of rebuilding it).",
                ("index",),
                lambda: [
                    ({"index": index}, float(count))
                    for index, count in _index_patches().items()
                ],
            )
        )
        # Component metrics are per-collection — constant `collection`
        # labels keep one family per name.  Databases may share a
        # result cache or an executor; each shared object is
        # registered once, under the first collection that owns it.
        seen: set = set()
        for name, database in self.databases.items():
            for metric in database.metrics():
                if id(metric) in seen:
                    continue
                seen.add(id(metric))
                self.metrics.register(metric, labels={"collection": name})
        self._httpd = _ReproHTTPServer((host, port), _Handler, self)

    # -- addressing -----------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def url(self, path: str = "/") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def names(self) -> list:
        return sorted(self.databases)

    # -- serving --------------------------------------------------------
    def warm_up(self) -> None:
        """Build every derived index before the first request lands."""
        if self._warmed:
            return
        for database in self.databases.values():
            database.warm_up()
        self._warmed = True

    def serve_forever(self) -> None:
        """Warm up, then block serving until :meth:`shutdown`."""
        self.warm_up()
        self._serving = True
        try:
            self._httpd.serve_forever()
        finally:
            self._serving = False

    def start(self) -> "ReproServer":
        """Warm up and serve from a daemon thread (tests, embedding)."""
        self.warm_up()
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def shutdown(self) -> bool:
        """Stop serving and release the port; never hangs.

        ``BaseServer.shutdown()`` blocks on an event that only the
        serve loop sets — calling it when the loop never ran (a Ctrl-C
        before startup completes, an exception out of warm-up) would
        deadlock.  The guard skips it entirely in that state, and the
        bounded waits cover the window where the loop is still
        starting.

        Returns ``True`` on a clean stop.  A thread surviving its
        bounded join (a handler wedged past the 5 s grace) is **not**
        silent: it is logged as a warning and reported as ``False`` so
        operators and tests can tell a clean shutdown from an
        abandoned thread.
        """
        clean = True
        if self._serving:
            stopper = threading.Thread(
                target=self._httpd.shutdown, daemon=True
            )
            stopper.start()
            stopper.join(timeout=5)
            if stopper.is_alive():
                clean = False
                logger.warning(
                    "server shutdown did not complete within 5s; "
                    "the serve loop is being abandoned (daemon thread)"
                )
            self._serving = False
        if self._thread is not None:
            self._thread.join(timeout=5)
            if self._thread.is_alive():
                clean = False
                logger.warning(
                    "serve thread %r did not exit within 5s after "
                    "shutdown; abandoning it (daemon thread)",
                    self._thread.name,
                )
            self._thread = None
        self._httpd.server_close()
        if self._close_databases:
            for database in self.databases.values():
                database.close()
        return clean

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- request handling ------------------------------------------------
    def observe_request(
        self, route: str, status: int, elapsed_seconds: float
    ) -> None:
        """Fold one finished response into the request metrics."""
        self._requests_total.labels(route=route, status=status).inc()
        self._request_latency.labels(route=route).observe(elapsed_seconds)

    def database_for(self, collection: Optional[str]) -> Database:
        if collection is None:
            return self.databases[self.default]
        try:
            return self.databases[collection]
        except KeyError:
            raise _UnknownCollection(
                f"unknown collection {collection!r}: "
                f"choose from {self.names()}"
            ) from None

    def dispatch(self, database: Database, request: Request):
        if isinstance(request, SearchRequest):
            return database.search(request)
        if isinstance(request, NearestRequest):
            return database.nearest(request)
        if isinstance(request, QueryRequest):
            return database.query(request)
        if isinstance(request, PrepareRequest):
            return database.prepare(request)
        if isinstance(request, ExecuteRequest):
            return database.execute(request)
        if isinstance(request, PutDocumentRequest):
            if request.replace:
                return database.replace(request.name, request.xml)
            return database.put(request.name, request.xml)
        if isinstance(request, DeleteDocumentRequest):
            return database.delete(request.name)
        if isinstance(request, CompactRequest):
            return database.compact()
        raise EnvelopeError(
            f"unsupported request type {type(request).__name__}"
        )  # pragma: no cover - the route table prevents this

    def readiness(self) -> Dict[str, object]:
        """Aggregate readiness: the worst collection wins.

        ``ok`` — every shard of every collection has replica headroom;
        ``degraded`` — some shard is on its *last* healthy replica
        (still serving, but the next failure loses availability);
        ``unavailable`` — some shard has no healthy replica at all.
        """
        rank = {"ok": 0, "degraded": 1, "unavailable": 2}
        worst = "ok"
        collections = {}
        for name, database in self.databases.items():
            health = database.health()
            collections[name] = health
            if rank.get(health["status"], 2) > rank[worst]:
                worst = health["status"]
        return {
            "status": worst,
            "collections": collections,
            "admission": self.admission.snapshot(),
        }

    def stats(self) -> Dict[str, object]:
        # Process-*tree* counters: the serving process plus every
        # shard worker process of every sharded collection (workers
        # report their process-local counters with each response; the
        # executor folds them in).  Without the merge a worker setup
        # would silently undercount — any build after warm-up means a
        # request paid for an index, the zero-rebuild invariant the
        # tests assert, and it must hold across the whole tree.
        builds = {
            name: info.builds for name, info in index_counters().items()
        }
        seen_executors = set()
        workers = 0
        for database in self.databases.values():
            if database.sharded is None:
                continue
            executor = database.sharded.executor
            if id(executor) in seen_executors:
                continue
            seen_executors.add(id(executor))
            executor_stats = executor.stats()
            workers += executor_stats.get("workers", 0)
            for name, count in (executor_stats.get("index_builds") or {}).items():
                builds[name] = builds.get(name, 0) + count
        return {
            "default": self.default,
            "collections": {
                name: db.stats() for name, db in self.databases.items()
            },
            "workers": workers,
            "index_builds": builds,
            "index_patches": _index_patches(),
            "admission": self.admission.snapshot(),
            "metrics": self.metrics.snapshot(),
        }
