"""Command-line interface: a thin client of the :mod:`repro.api` facade.

Usage (also via ``python -m repro``)::

    repro describe  doc.xml
    repro search    doc.xml Bit 1999 --exclude-root --limit 5
    repro search    doc.xml Bit 1999 --backend indexed
    repro query     doc.xml "select meet($a,$b) from # $a, # $b \\
                             where $a contains 'Bit' and $b contains '1999'"
    repro shred     doc.xml store.json      # persist the Monet image
    repro search    store.json Bit 1999     # query the image directly
    repro snapshot build doc.xml docs       # binary snapshot into the catalog
    repro snapshot ls                       # list catalog collections
    repro search    --snapshot docs a b     # zero-rebuild warm start
    repro serve     --snapshot docs --port 8080   # HTTP/JSON service
    repro snapshot build big.xml big --shards 4   # sharded collection
    repro serve     --snapshot big --workers 4    # multi-core serving
    repro put       docs memo new.xml       # add a document (live write)
    repro put       docs memo new.xml --replace   # upsert in place
    repro delete    docs memo               # tombstone its OID range
    repro compact   docs                    # fold tombstones + deltas
    repro compact   docs --shards 4         # ... and re-balance sharded

Live writes append delta sections to the collection's bundle and are
replayed on the next open; ``compact`` folds them into a fresh dense
base generation behind the catalog's crash-safe manifest flip.

Source resolution (XML vs ``.json`` image vs ``.snap`` bundle vs
catalog collection, including the fresh-catalog-hit preference over
re-parsing) lives in :func:`repro.api.resolve.resolve_source` — the
CLI only names the source and renders the result; ``--stats`` reports
which load path was taken.

``--backend`` picks the meet execution strategy (``steered`` — the
paper's per-query parent walks, the default — or ``indexed`` — the
precomputed Euler-RMQ LCA index; see :mod:`repro.core.backends`).
When serving from a snapshot the defaults follow the bundle instead:
``indexed`` (its index is already loaded) and the bundle's case mode,
so the warm start stays rebuild-free.
``--cache N`` enables the generation-keyed result cache with capacity
N, and ``--stats`` reports timing and cache counters on stderr (see
:mod:`repro.core.result_cache`).
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path as FsPath
from typing import Dict, Optional, Sequence

from .api import (
    DEFAULT_CATALOG,
    Database,
    DatabaseOptions,
    NearestRequest,
    QueryRequest,
    ReproServer,
    default_catalog_dir,
    resolve_source,
)
from .core.backends import BACKEND_NAMES
from .datamodel.errors import ReproError
from .monet import storage
from .monet.stats import collect_statistics
from .obs import (
    Trace,
    configure_logging,
    log_event,
    span as trace_span,
    trace_scope,
)
from .snapshot import Catalog

__all__ = ["main", "build_parser"]


def _catalog_dir(args) -> FsPath:
    return default_catalog_dir(getattr(args, "catalog", None))


def _open_catalog(args, *, create: bool = False) -> Catalog:
    return Catalog(_catalog_dir(args), create=create)


def _parse_cluster(groups) -> Optional[tuple]:
    """``--cluster`` values → the options-level address tuple.

    Each ``--cluster`` names one shard's replica group as a
    comma-separated ``HOST:PORT[,HOST:PORT...]`` list; the flag
    repeats once per shard, in shard order.
    """
    if not groups:
        return None
    from .exec.remote import parse_address

    return tuple(
        tuple(parse_address(part.strip()) for part in group.split(","))
        for group in groups
    )


def _database_options(args) -> DatabaseOptions:
    """The facade options encoded by this command's flags."""
    return DatabaseOptions(
        backend=getattr(args, "backend", None),
        case_sensitive=getattr(args, "case_sensitive", None),
        cache=getattr(args, "cache", 0) or None,
        catalog=getattr(args, "catalog", None),
        shards=getattr(args, "shards", None),
        workers=getattr(args, "workers", 0) or 0,
        replicas=getattr(args, "replicas", 0) or 0,
        cluster=_parse_cluster(getattr(args, "cluster", None)),
    )


def _open_database(args, source: Optional[str]) -> Database:
    return Database.open(
        source,
        options=_database_options(args),
        snapshot=getattr(args, "snapshot", None),
    )


def _cache_capacity(text: str) -> int:
    """argparse type for ``--cache``: 0 disables, N > 0 is the capacity."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"cache capacity must be >= 0 (0 disables), got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Nearest Concept Queries over XML (ICDE 2001 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    describe = sub.add_parser(
        "describe", help="print store statistics and the path summary"
    )
    describe.add_argument(
        "source", help="XML file, .json Monet image or .snap bundle"
    )
    describe.add_argument(
        "--paths", action="store_true", help="also list every distinct path"
    )
    _add_catalog_probe_options(describe)

    search = sub.add_parser(
        "search", help="nearest-concept search for two or more terms"
    )
    search.add_argument(
        "source",
        nargs="?",
        default=None,
        help="XML file, .json Monet image or .snap bundle (omit with --snapshot: "
        "the first positional is then read as a search term)",
    )
    search.add_argument("terms", nargs="+", help="two or more search terms")
    search.add_argument("--exclude-root", action="store_true")
    search.add_argument(
        "--all-terms",
        action="store_true",
        help="keep only concepts covering every term",
    )
    search.add_argument("--within", type=int, default=None, metavar="K")
    search.add_argument("--limit", type=int, default=10)
    _add_engine_options(search)
    _add_exec_options(search)
    search.add_argument(
        "--cache",
        type=_cache_capacity,
        default=0,
        metavar="N",
        help="enable the generation-keyed result cache with capacity N",
    )
    search.add_argument(
        "--stats",
        action="store_true",
        help="print timing and cache statistics to stderr",
    )
    search.add_argument(
        "--xml", action="store_true", help="print each result subtree as XML"
    )
    search.add_argument(
        "--trace",
        action="store_true",
        help="collect per-stage spans and print them to stderr",
    )
    _add_snapshot_source_options(search)

    query = sub.add_parser("query", help="run a select/from/where query")
    query.add_argument(
        "source",
        nargs="?",
        default=None,
        help="XML file, .json Monet image or .snap bundle (omit with --snapshot: "
        "the first positional is then read as the query)",
    )
    query.add_argument(
        "text", nargs="?", default=None, help="the query string"
    )
    query.add_argument("--explain", action="store_true")
    query.add_argument(
        "--param",
        action="append",
        default=None,
        metavar="NAME=VALUE",
        help="bind $NAME to VALUE before the query runs (repeatable; "
        "parameter markers appear in the query as $name)",
    )
    _add_engine_options(query)
    _add_exec_options(query)
    query.add_argument(
        "--cache",
        type=_cache_capacity,
        default=0,
        metavar="N",
        help="enable the generation-keyed result cache with capacity N",
    )
    query.add_argument(
        "--stats",
        action="store_true",
        help="print timing and cache statistics to stderr",
    )
    query.add_argument(
        "--trace",
        action="store_true",
        help="collect per-stage spans and print them to stderr",
    )
    _add_snapshot_source_options(query)

    shred = sub.add_parser(
        "shred", help="Monet-transform an XML file and save the JSON image"
    )
    shred.add_argument("source", help="XML file")
    shred.add_argument("image", help="output .json path")
    shred.add_argument(
        "--indent",
        type=int,
        default=None,
        metavar="N",
        help="pretty-print the JSON image with N-space indentation",
    )
    _add_catalog_probe_options(shred)

    snapshot = sub.add_parser(
        "snapshot",
        help="binary columnar snapshots: build, load, list, drop collections",
    )
    snap_sub = snapshot.add_subparsers(dest="snapshot_command", required=True)

    snap_build = snap_sub.add_parser(
        "build", help="ingest XML (or a .json image) into a catalog snapshot"
    )
    snap_build.add_argument("source", help="XML file or .json Monet image")
    snap_build.add_argument(
        "name",
        nargs="?",
        default=None,
        help="collection name (default: the source file's stem)",
    )
    snap_build.add_argument("--catalog", metavar="DIR", default=None)
    snap_build.add_argument("--case-sensitive", action="store_true")
    snap_build.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="partition into N shards: one bundle per shard, layout "
        "recorded in the catalog (serve with --workers M to scale "
        "past one core)",
    )
    snap_build.add_argument(
        "--index",
        action="append",
        default=None,
        metavar="PATH",
        help="declare a typed value index over this path's element "
        "text or attribute values (repeatable; built into the bundle "
        "and kept through live writes and compaction)",
    )

    snap_load = snap_sub.add_parser(
        "load", help="load a snapshot (warm-start check) and print its stats"
    )
    snap_load.add_argument("name", help="collection name or .snap file")
    snap_load.add_argument("--catalog", metavar="DIR", default=None)
    snap_load.add_argument(
        "--mmap",
        action="store_true",
        help="map the bundle instead of copying it into memory (the open-"
        "time checksum pass still touches every page once)",
    )

    snap_ls = snap_sub.add_parser("ls", help="list catalog collections")
    snap_ls.add_argument("--catalog", metavar="DIR", default=None)
    snap_ls.add_argument(
        "--sections",
        action="store_true",
        help="also read every bundle and report payload bytes per "
        "section group (core columns, lca, fulltext, value-index, "
        "deltas) and per section, integer columns with their item width",
    )

    snap_drop = snap_sub.add_parser("drop", help="remove a catalog collection")
    snap_drop.add_argument("name", help="collection name")
    snap_drop.add_argument("--catalog", metavar="DIR", default=None)

    put = sub.add_parser(
        "put", help="add (or, with --replace, upsert) a document live"
    )
    put.add_argument("collection", help="catalog collection or .snap bundle")
    put.add_argument("name", help="document name within the collection")
    put.add_argument(
        "xml", help="XML fragment file ('-' reads standard input)"
    )
    put.add_argument(
        "--replace",
        action="store_true",
        help="replace an existing document instead of requiring a new name",
    )
    put.add_argument("--catalog", metavar="DIR", default=None)

    delete = sub.add_parser(
        "delete", help="delete a document live (tombstones its OID range)"
    )
    delete.add_argument("collection", help="catalog collection or .snap bundle")
    delete.add_argument("name", help="document name within the collection")
    delete.add_argument("--catalog", metavar="DIR", default=None)

    compact = sub.add_parser(
        "compact",
        help="fold tombstones and delta sections into a fresh dense "
        "generation",
    )
    compact.add_argument("collection", help="catalog collection name")
    compact.add_argument("--catalog", metavar="DIR", default=None)
    compact.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="re-balance the compacted store into N shard bundles",
    )

    serve = sub.add_parser(
        "serve",
        help="serve collections over HTTP/JSON "
        "(POST /v1/search|/v1/nearest|/v1/query)",
    )
    serve.add_argument(
        "source",
        nargs="?",
        default=None,
        help="XML file, .json Monet image, .snap bundle or catalog "
        "collection (omit to serve every catalog collection)",
    )
    serve.add_argument(
        "--name",
        default=None,
        metavar="NAME",
        help="collection name for the served source (default: its stem)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    _add_engine_options(serve)
    _add_exec_options(serve)
    serve.add_argument(
        "--cache",
        type=_cache_capacity,
        default=1024,
        metavar="N",
        help="result-cache capacity per collection (0 disables; default 1024)",
    )
    serve.add_argument(
        "--verbose",
        action="store_true",
        help="log every request to stderr (same as --log-level info)",
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured logs as one JSON object per line",
    )
    serve.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="log threshold (default: info with --verbose, else warning); "
        "access logs are info, failover detail is debug",
    )
    serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log a WARNING (with spans, when traced) for requests "
        "slower than MS (default: off)",
    )
    serve.add_argument(
        "--max-concurrency",
        type=int,
        default=8,
        metavar="N",
        help="admission control: requests served at once (default 8)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=16,
        metavar="N",
        help="admission control: requests allowed to wait (default 16; "
        "beyond this the server sheds with 503 + Retry-After)",
    )
    serve.add_argument(
        "--queue-timeout",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="longest a request may wait for admission (default 2.0)",
    )
    serve.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="deadline granted to requests that state none via the "
        "X-Repro-Deadline-Ms header (default: unbounded)",
    )
    _add_snapshot_source_options(serve)

    worker = sub.add_parser(
        "shard-worker",
        help="serve shard bundles over the socket protocol "
        "(a cluster replica; normally spawned by serve --replicas)",
    )
    worker.add_argument(
        "--bundle",
        action="append",
        required=True,
        metavar="PATH",
        help=".snap shard bundle to serve (repeatable; the shard id "
        "follows the bundle's recorded shard_index)",
    )
    worker.add_argument(
        "--shard-id",
        action="append",
        type=int,
        default=None,
        metavar="N",
        help="shard id override per --bundle, in order",
    )
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (default 0: ephemeral, printed on stdout)",
    )
    _add_engine_options(worker)
    return parser


def _add_catalog_probe_options(command: argparse.ArgumentParser) -> None:
    """Catalog observability for commands that only *read* a store."""
    command.add_argument(
        "--catalog",
        metavar="DIR",
        default=None,
        help="snapshot catalog consulted for a fresh hit on an XML source",
    )
    command.add_argument(
        "--stats",
        action="store_true",
        help="report which load path (parse vs snapshot) was taken",
    )


def _add_engine_options(command: argparse.ArgumentParser) -> None:
    """Engine knobs whose defaults follow the source.

    Both default to ``None`` so :meth:`DatabaseOptions.effective` can
    tell "not given" from an explicit choice: serving from a snapshot
    bundle then inherits the bundle's case mode and the fastest
    rebuild-free backend (``vector`` when NumPy is importable, else
    ``indexed`` — both consume the index the bundle already carries).
    """
    command.add_argument(
        "--case-sensitive",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="case-sensitive search (default: off; with --snapshot, "
        "the bundle's case mode)",
    )
    command.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="meet execution strategy (default: steered; with --snapshot "
        "or a .snap source, vector when NumPy is available else indexed)",
    )


def _add_exec_options(command: argparse.ArgumentParser) -> None:
    """Execution-layer knobs: sharding and the worker pool."""
    command.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="partition the collection into N shards (answers stay "
        "byte-identical; a sharded catalog collection supplies its own "
        "layout)",
    )
    command.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="M",
        help="serve shard work from M pool processes instead of "
        "in-process (implies --shards M when --shards is not given)",
    )
    command.add_argument(
        "--replicas",
        type=int,
        default=0,
        metavar="R",
        help="spawn R supervised socket workers per shard with "
        "health-checked failover (implies sharding; exclusive with "
        "--workers and --cluster)",
    )
    command.add_argument(
        "--cluster",
        action="append",
        default=None,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="serve one shard from these already-running shard "
        "workers (repeat once per shard, in shard order; replicas "
        "within a group fail over)",
    )


def _add_snapshot_source_options(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--snapshot",
        metavar="NAME_OR_FILE",
        default=None,
        help="serve from a snapshot bundle (.snap file or catalog collection) "
        "instead of parsing the source",
    )
    command.add_argument(
        "--catalog",
        metavar="DIR",
        default=None,
        help=f"snapshot catalog directory (default: {DEFAULT_CATALOG} "
        "or $REPRO_CATALOG)",
    )


def _command_describe(args) -> int:
    database = _open_database(args, args.source)
    if args.stats:
        _print_load_stats(database.origin, database.load_seconds)
    statistics = collect_statistics(database.store)
    print(statistics.render())
    if args.paths:
        print("\nall paths:")
        for name in database.store.relation_names():
            print(f"  {name}")
    return 0


def _print_load_stats(origin: str, seconds: float) -> None:
    """Report which store-load path ran (parse vs snapshot) on stderr."""
    print(
        f"[stats] store: loaded via {origin} in {seconds * 1000:.1f} ms",
        file=sys.stderr,
    )


def _print_stats(label: str, elapsed_ms: float, cache: Optional[Dict]) -> None:
    """One-line serving report on stderr (the ``--stats`` flag)."""
    line = f"[stats] {label}: {elapsed_ms:.1f} ms"
    if cache is not None:
        line += (
            f"; cache hits={cache['hits']} misses={cache['misses']}"
            f" size={cache['currsize']}/{cache['maxsize']}"
            f" hit_rate={cache['hit_rate']:.0%}"
        )
    print(line, file=sys.stderr)


def _print_trace(trace: Trace) -> None:
    """Render collected spans on stderr (the ``--trace`` flag)."""
    print(f"[trace] {trace.trace_id}", file=sys.stderr)
    for span in trace.spans:
        attrs = "".join(
            f" {key}={value}"
            for key, value in span.items()
            if key not in ("name", "ms")
        )
        print(
            f"[trace]   {span['name']:<20} {span['ms']:>9.3f} ms{attrs}",
            file=sys.stderr,
        )


def _command_search(args) -> int:
    terms = list(args.terms)
    if args.snapshot:
        # --snapshot replaces the source; the first positional (parsed
        # into the optional ``source`` slot) is really a search term.
        if args.source is not None:
            if FsPath(args.source).exists():
                print(
                    f"note: with --snapshot, {args.source!r} is treated as "
                    "a search term, not a source",
                    file=sys.stderr,
                )
            terms.insert(0, args.source)
    elif args.source is None:
        print("search needs a source (or --snapshot)", file=sys.stderr)
        return 2
    if len(terms) < 2:
        print("search needs at least two terms", file=sys.stderr)
        return 2
    database = _open_database(args, args.source)
    if args.stats:
        _print_load_stats(database.origin, database.load_seconds)
    trace = Trace() if args.trace else None
    with trace_scope(trace):
        with trace_span("db.nearest"):
            envelope = database.nearest(
                NearestRequest(
                    terms=tuple(terms),
                    exclude_root=args.exclude_root,
                    require_all_terms=args.all_terms,
                    within=args.within,
                    limit=args.limit,
                    snippets=not args.xml,
                )
            )
    if trace is not None:
        envelope.stats["trace"] = trace.to_dict()
        _print_trace(trace)
    if args.stats:
        _print_stats("search", envelope.elapsed_ms, envelope.stats["cache"])
    if not envelope.answers:
        print("no nearest concepts found")
        return 1
    for rank, answer in enumerate(envelope.answers, start=1):
        print(
            f"{rank:>3}. <{answer['tag']}> oid={answer['oid']} "
            f"joins={answer['joins']} path={answer['path']}"
        )
        if args.xml:
            print(database.to_xml(answer["oid"]))
        else:
            print(f"     {answer['snippet']}")
    return 0


def _parse_params(pairs: Optional[Sequence[str]]) -> Optional[Dict[str, str]]:
    """``--param NAME=VALUE`` flags → the bindings dict (None if absent)."""
    if not pairs:
        return None
    params: Dict[str, str] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        name = name.strip().lstrip("$")
        if not sep or not name:
            raise ReproError(f"--param needs NAME=VALUE, got {pair!r}")
        params[name] = value
    return params


def _command_query(args) -> int:
    if args.snapshot:
        if args.text is not None:
            # Both positionals plus --snapshot is ambiguous: the named
            # source would be silently ignored in favour of the bundle.
            print(
                "with --snapshot, pass only the query string (no source)",
                file=sys.stderr,
            )
            return 2
        # --snapshot replaces the source; the lone positional (parsed
        # into the optional ``source`` slot) is really the query text.
        args.source, args.text = None, args.source
    if args.text is None:
        print("query needs a query string", file=sys.stderr)
        return 2
    if args.source is None and not args.snapshot:
        print("query needs a source (or --snapshot)", file=sys.stderr)
        return 2
    database = _open_database(args, args.source)
    if args.stats:
        _print_load_stats(database.origin, database.load_seconds)
    if args.explain:
        print(database.explain(args.text))
        return 0
    trace = Trace() if getattr(args, "trace", False) else None
    params = _parse_params(getattr(args, "param", None))
    with trace_scope(trace):
        with trace_span("db.query"):
            envelope = database.query(
                QueryRequest(text=args.text, render=True, params=params)
            )
    if trace is not None:
        envelope.stats["trace"] = trace.to_dict()
        _print_trace(trace)
    if args.stats:
        _print_stats("query", envelope.elapsed_ms, envelope.stats["cache"])
    print(envelope.rendered)
    return 0 if envelope.count else 1


def _command_shred(args) -> int:
    database = _open_database(args, args.source)
    if args.stats:
        _print_load_stats(database.origin, database.load_seconds)
    store = database.store
    storage.save(store, args.image, indent=args.indent)
    print(f"wrote {args.image}: {store.node_count} nodes, "
          f"{len(store.relation_names())} relations")
    return 0


def _command_serve(args) -> int:
    level = args.log_level or ("info" if args.verbose else "warning")
    configure_logging(json_logs=args.log_json, level=level)
    options = _database_options(args)
    if args.source is None and args.snapshot is None:
        databases = Database.open_all(_catalog_dir(args), options=options)
    else:
        database = _open_database(args, args.source)
        if args.name:
            name = args.name
        elif args.snapshot and not str(args.snapshot).endswith(".snap"):
            name = str(args.snapshot)
        elif args.source:
            name = FsPath(args.source).stem
        else:
            name = FsPath(str(args.snapshot)).stem
        databases = {name: database}
    server = ReproServer(
        databases,
        host=args.host,
        port=args.port,
        verbose=args.verbose,
        close_databases=True,
        max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
        queue_timeout=args.queue_timeout,
        default_deadline=(
            None
            if args.default_deadline_ms is None
            else args.default_deadline_ms / 1000.0
        ),
        slow_query_ms=args.slow_query_ms,
    )
    server.warm_up()
    from . import kernels

    log_event(
        logging.getLogger("repro.serve"),
        logging.INFO,
        "kernels ready",
        tier=kernels.tier(),
        numpy=kernels.available(),
    )
    for name in server.names():
        database = server.databases[name]
        if database.sharded is not None:
            executor = database.sharded.executor
            mode = (
                f", {database.sharded.shard_count} shards via "
                f"{executor.name} executor"
            )
            if executor.name == "parallel":
                mode += f" ({executor.workers} workers)"
            elif executor.name == "cluster":
                replica_counts = [
                    len(group) for group in executor.replicas
                ]
                mode += f" ({'x'.join(map(str, replica_counts))} replicas)"
        else:
            mode = ""
        print(
            f"  {name}: {database.node_count} nodes via {database.origin} "
            f"({database.backend_name} backend{mode})"
        )
    print(
        f"serving {len(databases)} collection(s) on {server.url()} "
        "— Ctrl-C to stop"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.shutdown()
    return 0


def _command_shard_worker(args) -> int:
    """Serve shard bundles over the framed socket protocol.

    Prints the ready line (``shard-worker listening on HOST:PORT``)
    once the listener is bound — spawners block on it — then serves
    until interrupted.
    """
    from .exec.remote import READY_PREFIX, ShardWorkerServer, format_address
    from .exec.remote import services_from_bundles

    if args.shard_id is not None and len(args.shard_id) != len(args.bundle):
        raise ReproError(
            f"{len(args.shard_id)} --shard-id value(s) for "
            f"{len(args.bundle)} --bundle value(s); give one per bundle"
        )
    services = services_from_bundles(
        args.bundle,
        shard_ids=args.shard_id,
        case_sensitive=args.case_sensitive,
        backend=args.backend,
    )
    server = ShardWorkerServer(services, host=args.host, port=args.port)
    print(
        f"{READY_PREFIX} {format_address(server.address)}",
        flush=True,
    )
    print(
        f"hosting shard(s) {sorted(services)} from {len(args.bundle)} "
        "bundle(s) — Ctrl-C to stop",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.shutdown()
    return 0


def _open_writable(args) -> Database:
    """Open a collection for live writes (monolithic, in-process)."""
    return Database.open(
        options=DatabaseOptions(catalog=getattr(args, "catalog", None)),
        snapshot=args.collection,
    )


def _print_receipt(collection: str, receipt: Dict) -> None:
    span = receipt.get("span")
    spanned = f" span={span[0]}..{span[1]}" if span else ""
    print(
        f"{receipt['op']} {receipt.get('name', collection)}:{spanned} "
        f"generation={receipt['generation']} "
        f"documents={receipt['documents']} "
        f"live_nodes={receipt.get('live_nodes', '-')}"
    )


def _command_put(args) -> int:
    if args.xml == "-":
        xml = sys.stdin.read()
    else:
        xml = FsPath(args.xml).read_text(encoding="utf-8")
    database = _open_writable(args)
    try:
        if args.replace:
            receipt = database.replace(args.name, xml)
        else:
            receipt = database.put(args.name, xml)
    finally:
        database.close()
    _print_receipt(args.collection, receipt)
    return 0


def _command_delete(args) -> int:
    database = _open_writable(args)
    try:
        receipt = database.delete(args.name)
    finally:
        database.close()
    _print_receipt(args.collection, receipt)
    return 0


def _command_compact(args) -> int:
    catalog = _open_catalog(args, create=False)
    started = time.perf_counter()
    meta = catalog.compact(args.collection, shards=args.shards)
    seconds = time.perf_counter() - started
    shards = meta.get("shards")
    layout = (
        f", {shards.get('count')} shard bundles"
        if isinstance(shards, dict)
        else ""
    )
    print(
        f"compacted {catalog.root}/{args.collection}: "
        f"{meta['node_count']} nodes, generation {meta['generation']}"
        f"{layout} ({seconds * 1000:.0f} ms)"
    )
    return 0


def _command_snapshot(args) -> int:
    handler = _SNAPSHOT_COMMANDS[args.snapshot_command]
    return handler(args)


def _snapshot_build(args) -> int:
    name = args.name or FsPath(args.source).stem
    catalog = _open_catalog(args, create=True)
    started = time.perf_counter()
    meta = catalog.ingest(
        name,
        args.source,
        case_sensitive=args.case_sensitive,
        shards=getattr(args, "shards", None),
        value_indexes=getattr(args, "index", None),
    )
    seconds = time.perf_counter() - started
    shards = meta.get("shards")
    if isinstance(shards, dict):
        built = (
            f"{catalog.root}/{name} "
            f"({shards['count']} shard bundles)"
        )
    else:
        built = f"{catalog.root}/{meta['file']}"
    declared = getattr(args, "index", None) or ()
    indexed = f", {len(set(declared))} value index(es)" if declared else ""
    print(
        f"built {built}: {meta['node_count']} nodes, "
        f"{meta['bytes']} bytes, generation {meta['generation']}"
        f"{indexed} ({seconds * 1000:.0f} ms)"
    )
    return 0


def _snapshot_load(args) -> int:
    started = time.perf_counter()
    resolved = resolve_source(
        snapshot=args.name,
        catalog=getattr(args, "catalog", None),
        use_mmap=args.mmap,
    )
    if resolved.sharded is not None:
        # The warm-start check of a sharded collection: load every
        # shard bundle and report the aggregate.
        from .snapshot import read_snapshot

        snapshots = [
            read_snapshot(path, use_mmap=args.mmap)
            for path in resolved.sharded.paths
        ]
        seconds = time.perf_counter() - started
        nodes = sum(s.store.node_count for s in snapshots) - (
            len(snapshots) - 1
        )  # stand-in roots counted once
        terms = sum(s.fulltext_index.vocabulary_size for s in snapshots)
        print(
            f"loaded {args.name}: {len(snapshots)} shards, {nodes} nodes, "
            f"{len(snapshots[0].store.summary) - 1} paths, "
            f"{terms} terms across shards "
            f"({seconds * 1000:.1f} ms, zero index rebuilds)"
        )
        return 0
    seconds = time.perf_counter() - started
    store, snapshot = resolved.store, resolved.snapshot
    print(
        f"loaded {args.name}: {store.node_count} nodes, "
        f"{len(store.summary) - 1} paths, "
        f"{snapshot.fulltext_index.vocabulary_size} terms, "
        f"tour {snapshot.lca_index.tour_length} "
        f"({seconds * 1000:.1f} ms, zero index rebuilds)"
    )
    return 0


_SECTION_GROUPS = {
    "lca": "lca",
    "ft": "fulltext",
    "vx": "value-index",
    "delta": "deltas",
}


def _section_breakdown(paths: Sequence[FsPath]) -> Dict[str, list]:
    """``[group, payload bytes, item type]`` per section, in file order,
    summed across shard bundles.

    Groups follow the section-name prefixes (``lca/``, ``ft/``,
    ``vx/``, ``delta/``); everything unprefixed — the dense columns,
    string tables, path summary and meta — counts as ``core``.  The
    item type is ``int32``/``int64`` for an integer column, else empty.
    """
    from .snapshot.codec import item_widths
    from .snapshot.format import SnapshotReader

    rows: Dict[str, list] = {}
    for path in paths:
        reader = SnapshotReader.open(path, tolerate_torn_tail=True)
        widths = item_widths(reader)
        for section, length in reader.section_sizes().items():
            group = _SECTION_GROUPS.get(section.split("/", 1)[0], "core")
            kind = f"int{8 * widths[section]}" if section in widths else ""
            rows.setdefault(section, [group, 0, kind])[1] += length
    return rows


def _snapshot_ls(args) -> int:
    catalog = _open_catalog(args, create=False)
    collections = catalog.collections()
    if not collections:
        print(f"catalog {catalog.root}: no collections")
        return 0
    print(f"catalog {catalog.root}:")
    for name, meta in collections.items():
        shards = meta.get("shards")
        layout = (
            f", {shards.get('count')} shards"
            if isinstance(shards, dict)
            else ""
        )
        declared = meta.get("value_indexes")
        indexes = (
            f", indexes=[{', '.join(map(str, declared))}]"
            if isinstance(declared, list) and declared
            else ""
        )
        print(
            f"  {name}: {meta.get('node_count')} nodes, "
            f"{meta.get('bytes')} bytes, generation {meta.get('generation')}"
            f"{layout}{indexes}, source={meta.get('source') or '-'}"
        )
        if getattr(args, "sections", False):
            if isinstance(shards, dict):
                paths = catalog.shard_files(name)
            else:
                paths = [catalog.bundle_path(name)]
            rows = _section_breakdown([path for path in paths if path.exists()])
            totals: Dict[str, int] = {}
            for group, size, _ in rows.values():
                totals[group] = totals.get(group, 0) + size
            detail = "  ".join(f"{group}={size}" for group, size in totals.items())
            print(f"    sections: {detail or '-'}")
            for section, (_, size, kind) in rows.items():
                print(f"      {section:<18} {size:>10}  {kind}".rstrip())
    return 0


def _snapshot_drop(args) -> int:
    catalog = _open_catalog(args, create=False)
    catalog.drop(args.name)
    print(f"dropped {args.name} from {catalog.root}")
    return 0


_SNAPSHOT_COMMANDS = {
    "build": _snapshot_build,
    "load": _snapshot_load,
    "ls": _snapshot_ls,
    "drop": _snapshot_drop,
}

_COMMANDS = {
    "describe": _command_describe,
    "search": _command_search,
    "query": _command_query,
    "shred": _command_shred,
    "snapshot": _command_snapshot,
    "serve": _command_serve,
    "shard-worker": _command_shard_worker,
    "put": _command_put,
    "delete": _command_delete,
    "compact": _command_compact,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
