"""The ``Database`` facade — the library's one supported front door.

The paper's pitch is that nearest-concept queries serve users
"familiar with the content but unaware of tags and hierarchies"; this
module extends the courtesy to *programmers*.  Instead of wiring
``MonetXML`` + ``SearchEngine`` + ``NearestConceptEngine`` +
``QueryProcessor`` + ``Catalog`` by hand, callers open one object::

    import repro

    db = repro.open("bib.xml")                  # or .json / .snap / a
    db.nearest("Bit", "1999").answers           # catalog collection
    db.query("select meet($a,$b) from # $a, # $b "
             "where $a contains 'Bit' and $b contains '1999'")

Every entry point returns a :class:`~repro.api.envelopes.ResultEnvelope`
(answers + ranking keys + timing + cache/backend stats, JSON-codable).
For a monolithic open, every answer is produced by the documented
low-level tier — ``db.engine`` / ``db.processor`` are the very
:class:`~repro.core.engine.NearestConceptEngine` and
:class:`~repro.query.executor.QueryProcessor` instances, so facade
answers are identical (including ranking order) to direct calls.

With ``shards=`` / ``workers=`` (or a catalog collection built with
``snapshot build --shards N``) the same surfaces run on the execution
layer instead: per-shard work as a pure function of a shard handle
(:mod:`repro.exec.service`), executed serially or on a process pool
(:mod:`repro.exec.executors`), merged by the coordinator
(:mod:`repro.exec.coordinator`) — with answers and ranking order
byte-identical to the monolithic path by construction and by the
differential test suite.

A ``Database`` is a **live collection**: reads share a
writer-preference readers–writer lock, and :meth:`put` /
:meth:`delete` / :meth:`replace` mutate the store under the exclusive
side while queries keep answering between mutations.  A mutation bumps
the store generation, so every generation-keyed cache (LCA, full-text,
results) invalidates precisely — the full-text index rolls forward
through the mutation journal instead of rebuilding.  Snapshot-backed
opens get durability for free: each acknowledged mutation appends one
delta section to the ``.snap`` bundle (:mod:`repro.snapshot.deltas`)
before it is applied, and :meth:`compact` folds tombstones and the
delta tail back into a dense base bundle behind the catalog's
crash-safe manifest flip.  Lazy engine/processor wiring is still built
under its own lock; threads racing an *un-warmed* database may
duplicate an index build — never corrupting state, since every build
is equivalent and the generation-keyed cache keeps one — but paying
redundant work (call :meth:`warm_up` first, as the server does).
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import threading
import time
import weakref
from contextlib import contextmanager
from pathlib import Path as FsPath
from typing import Dict, List, Optional, Tuple, Union

from ..core.backends import SNAPSHOT_DEFAULT_BACKEND, kernel_tier
from ..core.engine import NearestConceptEngine
from ..core.result_cache import ResultCache, resolve_result_cache
from ..datamodel.errors import (
    DuplicateDocumentError,
    QueryPlanError,
    ReproError,
    StorageError,
    UnknownDocumentError,
)
from ..datamodel.parser import parse_fragment
from ..exec.coordinator import ShardedCollection
from ..exec.executors import ParallelExecutor, SerialExecutor
from ..exec.service import ShardService
from ..exec.sharding import ShardPlan, compute_shard_plan, slice_store
from ..fulltext.search import SearchEngine
from ..monet.engine import MonetXML
from ..monet.mutate import (
    compact_store,
    delete_document,
    ensure_document_registry,
    put_document,
    replace_document,
)
from ..obs.metrics import CallbackGauge, Counter, Gauge
from ..query.ast import Query
from ..query.executor import QueryProcessor, QueryResult
from ..query.parser import parse_query
from ..snapshot.codec import Snapshot, read_snapshot, write_snapshot
from ..snapshot.deltas import DeltaOp, append_delta
from .envelopes import (
    ExecuteRequest,
    NearestRequest,
    PrepareRequest,
    QueryRequest,
    ResultEnvelope,
    SearchRequest,
)
from .options import DatabaseOptions
from .resolve import ResolvedSource, SourceLike, resolve_source

__all__ = ["Database", "open_database"]


class _RWLock:
    """A writer-preference readers–writer lock.

    Readers share; a writer excludes everyone.  Arriving writers block
    *new* readers, so a mutation cannot starve behind a stream of
    overlapping queries.  Not reentrant — the facade takes it exactly
    once per public call.
    """

    __slots__ = (
        "_lock",
        "_readers_ok",
        "_writers_ok",
        "_readers",
        "_writers_waiting",
        "_writing",
    )

    def __init__(self):
        self._lock = threading.Lock()
        self._readers_ok = threading.Condition(self._lock)
        self._writers_ok = threading.Condition(self._lock)
        self._readers = 0
        self._writers_waiting = 0
        self._writing = False

    @contextmanager
    def read(self):
        with self._lock:
            while self._writing or self._writers_waiting:
                self._readers_ok.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._lock:
                self._readers -= 1
                if not self._readers:
                    self._writers_ok.notify()

    @contextmanager
    def write(self):
        with self._lock:
            self._writers_waiting += 1
            while self._writing or self._readers:
                self._writers_ok.wait()
            self._writers_waiting -= 1
            self._writing = True
        try:
            yield
        finally:
            with self._lock:
                self._writing = False
                if self._writers_waiting:
                    self._writers_ok.notify()
                else:
                    self._readers_ok.notify_all()


def _cache_info_dict(info) -> Optional[Dict[str, object]]:
    """A ResultCacheInfo as a JSON-ready dict (None when caching is off)."""
    if info is None:
        return None
    return {
        "hits": info.hits,
        "misses": info.misses,
        "maxsize": info.maxsize,
        "currsize": info.currsize,
        "evictions": info.evictions,
        "hit_rate": round(info.hit_rate, 4),
    }


class Database:
    """One opened document collection, queryable three ways.

    Construct via :meth:`open` (or :func:`repro.open`); the raw
    constructor accepts an already-loaded store for embedding
    scenarios (tests, benchmarks, in-memory documents).
    """

    def __init__(
        self,
        store: Optional[MonetXML] = None,
        *,
        options: Optional[DatabaseOptions] = None,
        origin: str = "store",
        snapshot: Optional[Snapshot] = None,
        source: Optional[str] = None,
        load_seconds: float = 0.0,
        sharded: Optional[ShardedCollection] = None,
        _cleanup=None,
    ):
        if store is None and sharded is None:
            raise ReproError("Database needs a store or a sharded collection")
        self.store = store
        self.options = options or DatabaseOptions()
        self.origin = origin
        self.snapshot = snapshot
        self.source = source
        self.load_seconds = load_seconds
        self.sharded = sharded
        if sharded is not None:
            self.case_sensitive = sharded.case_sensitive
            self.backend_name = sharded.backend_name
            self.result_cache: Optional[ResultCache] = sharded.result_cache
        else:
            self.case_sensitive, self.backend_name = self.options.effective(
                snapshot
            )
            #: One lock-guarded result cache shared by the engine and the
            #: query processor (their key shapes cannot collide).
            self.result_cache = resolve_result_cache(self.options.cache)
        self._wiring_lock = threading.Lock()
        self._engine: Optional[NearestConceptEngine] = None
        self._processor: Optional[QueryProcessor] = None
        #: Readers share; put/delete/replace/compact take the write side.
        self._rw = _RWLock()
        #: For in-memory sharded serving (workers=0): the unsliced store
        #: mutations apply to before the shard fabric is rebuilt.
        self._base_store: Optional[MonetXML] = None
        self._delta_path: Optional[FsPath] = None
        self._mutable_catalog: Optional[Tuple[FsPath, str]] = None
        self._pending_deltas = 0
        self._mutations = 0
        #: Declared value-index path patterns (recorded in the bundle's
        #: manifest meta); preserved across compaction rewrites.
        self._value_indexes: Optional[List[str]] = None
        #: Prepared statements: handle → (normalized text, parsed template).
        self._prepared: Dict[str, Tuple[str, Query]] = {}
        self._prepared_lock = threading.Lock()
        self._metric_objects: Optional[List[object]] = None
        self._prepared_executions = Counter(
            "repro_prepared_executions_total",
            "Executions of prepared statements.",
        )
        if snapshot is not None:
            self._bind_write_through(snapshot)
        self._finalizer = (
            weakref.finalize(self, _cleanup) if _cleanup is not None else None
        )

    def _bind_write_through(self, snapshot: Snapshot) -> None:
        """Route future mutations to the bundle this store loaded from."""
        if snapshot.path is None:
            return
        self._delta_path = FsPath(snapshot.path)
        self._pending_deltas = snapshot.delta_count
        declared = snapshot.meta.get("value_indexes")
        if isinstance(declared, list):
            self._value_indexes = [str(pattern) for pattern in declared]
        catalog_root = snapshot.meta.get("catalog")
        collection = snapshot.meta.get("collection")
        if isinstance(catalog_root, str) and isinstance(collection, str):
            self._mutable_catalog = (FsPath(catalog_root), collection)

    # -- opening --------------------------------------------------------
    @classmethod
    def open(
        cls,
        source: Optional[SourceLike] = None,
        *,
        options: Optional[DatabaseOptions] = None,
        snapshot: Optional[SourceLike] = None,
        **overrides,
    ) -> "Database":
        """Resolve and load any supported source behind one call.

        ``source`` may be an XML file, a legacy ``.json`` Monet image,
        a ``.snap`` snapshot bundle, or the name of a catalog
        collection; ``snapshot=`` forces bundle/collection resolution
        (the CLI's ``--snapshot``).  Keyword ``overrides`` (``backend=``,
        ``case_sensitive=``, ``cache=``, ``catalog=``, ``mmap=``,
        ``max_rows=``, ``shards=``, ``workers=``) are applied on top of
        ``options``.
        """
        options = options or DatabaseOptions()
        if overrides:
            options = options.replace(**overrides)
        started = time.perf_counter()
        resolved: ResolvedSource = resolve_source(
            source,
            snapshot=snapshot,
            catalog=options.catalog,
            case_sensitive=options.case_sensitive,
            use_mmap=options.mmap,
        )
        source_name = None if source is None else str(source)
        if resolved.sharded is not None:
            return cls._open_sharded_bundles(
                resolved, options, source_name, started
            )
        if options.effective_shards is not None:
            return cls._open_sharded_store(
                resolved, options, source_name, started
            )
        return cls(
            resolved.store,
            options=options,
            origin=resolved.origin,
            snapshot=resolved.snapshot,
            source=source_name,
            load_seconds=time.perf_counter() - started,
        )

    @classmethod
    def _open_sharded_bundles(
        cls,
        resolved: ResolvedSource,
        options: DatabaseOptions,
        source_name: Optional[str],
        started: float,
    ) -> "Database":
        """A catalog collection persisted as shard bundles."""
        from ..snapshot.sharded import read_snapshot_header

        bundles = resolved.sharded
        plan = ShardPlan.from_dict(bundles.layout)
        # Only an *explicit* shards= can conflict with the persisted
        # layout; the worker count is independent of the shard count.
        requested = options.shards
        if requested is not None and requested != plan.shard_count:
            raise ReproError(
                f"collection is persisted as {plan.shard_count} shard(s); "
                f"rebuild it (snapshot build --shards {requested}) to "
                "change the layout"
            )
        case_sensitive = (
            bundles.case_sensitive
            if options.case_sensitive is None
            else bool(options.case_sensitive)
        )
        backend_name = options.backend or SNAPSHOT_DEFAULT_BACKEND

        def _check_layout(meta: Dict[str, object], path) -> None:
            # A crash mid-rebuild can leave bundles of one generation
            # under a manifest of another; refuse loudly rather than
            # scatter-gather over a mixed set.
            from ..snapshot.sharded import layout_from_meta

            if layout_from_meta(meta) != plan:
                raise ReproError(
                    f"shard bundle {path} does not match the catalog's "
                    "recorded layout; rebuild the collection "
                    "(snapshot build --shards N)"
                )

        if options.cluster is not None or options.replicas > 0:
            meta, summary = read_snapshot_header(bundles.paths[0])
            _check_layout(meta, bundles.paths[0])
            if options.cluster is not None:
                executor = cls._cluster_executor_from_addresses(
                    options.cluster, plan.shard_count
                )
            else:
                executor = cls._replicated_executor(
                    bundles.paths,
                    options.replicas,
                    case_sensitive=case_sensitive,
                    backend=backend_name,
                )
            generations = (bundles.generation,) * plan.shard_count
        elif options.workers > 0:
            meta, summary = read_snapshot_header(bundles.paths[0])
            _check_layout(meta, bundles.paths[0])
            executor = ParallelExecutor(
                bundles.paths,
                workers=options.workers,
                case_sensitive=case_sensitive,
                backend=backend_name,
                use_mmap=True,
            )
            generations = (bundles.generation,) * plan.shard_count
        else:
            snapshots = [
                read_snapshot(path, use_mmap=options.mmap)
                for path in bundles.paths
            ]
            for snapshot, path in zip(snapshots, bundles.paths):
                _check_layout(snapshot.meta, path)
            meta = snapshots[0].meta
            summary = snapshots[0].store.summary
            executor = SerialExecutor(
                [
                    ShardService(
                        snap.store,
                        shard_id=index,
                        case_sensitive=case_sensitive,
                        backend=backend_name,
                    )
                    for index, snap in enumerate(snapshots)
                ]
            )
            generations = tuple(
                snap.store.generation for snap in snapshots
            )
        sharded = ShardedCollection(
            plan,
            summary,
            executor,
            case_sensitive=case_sensitive,
            backend_name=backend_name,
            generations=generations,
            cache=resolve_result_cache(options.cache),
            max_rows=options.max_rows,
        )
        database = cls(
            options=options,
            origin=resolved.origin,
            source=source_name,
            load_seconds=time.perf_counter() - started,
            sharded=sharded,
        )
        declared = meta.get("value_indexes")
        if isinstance(declared, list):
            database._value_indexes = [str(pattern) for pattern in declared]
        return database

    @staticmethod
    def _cluster_executor_from_addresses(cluster, shard_count: int):
        """A :class:`ClusterExecutor` over already-running workers.

        ``cluster`` is the options-level tuple of per-shard address
        groups; the workers are *unmanaged* — never respawned here,
        only health-checked and failed over.
        """
        from ..exec.cluster import ClusterExecutor, ReplicaSpec

        if len(cluster) != shard_count:
            raise ReproError(
                f"the cluster map has {len(cluster)} shard group(s) but "
                f"the collection has {shard_count} shard(s)"
            )
        return ClusterExecutor(
            [
                [ReplicaSpec(address=(str(host), int(port)))
                 for host, port in group]
                for group in cluster
            ]
        )

    @staticmethod
    def _replicated_executor(
        bundle_paths,
        replicas: int,
        *,
        case_sensitive: bool,
        backend: Optional[str],
    ):
        """Spawn and supervise ``replicas`` socket workers per shard.

        Each worker process loads exactly one shard's bundle, so a
        kill takes out one replica of one shard — the blast radius
        the failover machinery is built around.  The specs carry the
        spawn recipe, so the cluster's prober can respawn a dead
        worker from the same bundle.
        """
        import functools

        from ..exec.cluster import ClusterExecutor, ReplicaSpec
        from ..exec.remote import spawn_worker_process

        specs = []
        for shard_id, path in enumerate(bundle_paths):
            spawn = functools.partial(
                spawn_worker_process,
                [str(path)],
                shard_ids=[shard_id],
                case_sensitive=case_sensitive,
                backend=backend,
            )
            specs.append([ReplicaSpec(spawn=spawn) for _ in range(replicas)])
        return ClusterExecutor(specs)

    @classmethod
    def _open_sharded_store(
        cls,
        resolved: ResolvedSource,
        options: DatabaseOptions,
        source_name: Optional[str],
        started: float,
    ) -> "Database":
        """Shard a store resolved in memory (parse / image / bundle)."""
        store = resolved.store
        shard_count = options.effective_shards
        case_sensitive, backend_name = options.effective(resolved.snapshot)
        cleanup = None
        # One try covers everything from temp-dir creation to instance
        # construction: a failure anywhere after materialization (plan
        # validation, executor spin-up, ShardedCollection wiring) must
        # not leave the temp shard bundles behind.
        try:
            if options.cluster is not None:
                # Remote workers already hold the data; the local
                # store only supplies the plan and path summary the
                # coordinator merges with.
                plan = compute_shard_plan(store, shard_count)
                executor = cls._cluster_executor_from_addresses(
                    options.cluster, plan.shard_count
                )
                generations = (store.generation,) * plan.shard_count
            elif options.workers > 0 or options.replicas > 0:
                # Worker processes load shards from disk: materialize
                # warm bundles (store + indexes) into a temp directory.
                from ..snapshot.sharded import write_shard_bundles

                tempdir = tempfile.mkdtemp(prefix="repro-shards-")
                cleanup = lambda: shutil.rmtree(tempdir, ignore_errors=True)  # noqa: E731
                plan, paths, _size = write_shard_bundles(
                    store,
                    tempdir,
                    "collection",
                    shards=shard_count,
                    case_sensitive=case_sensitive,
                )
                if options.replicas > 0:
                    executor = cls._replicated_executor(
                        paths,
                        options.replicas,
                        case_sensitive=case_sensitive,
                        backend=backend_name,
                    )
                else:
                    executor = ParallelExecutor(
                        paths,
                        workers=options.workers,
                        case_sensitive=case_sensitive,
                        backend=backend_name,
                        use_mmap=True,
                    )
                generations = (store.generation,) * plan.shard_count
            else:
                plan = compute_shard_plan(store, shard_count)
                slices = slice_store(store, plan)
                executor = SerialExecutor(
                    [
                        ShardService(
                            shard,
                            shard_id=index,
                            case_sensitive=case_sensitive,
                            backend=backend_name,
                        )
                        for index, shard in enumerate(slices)
                    ]
                )
                generations = tuple(shard.generation for shard in slices)
            sharded = ShardedCollection(
                plan,
                store.summary,
                executor,
                case_sensitive=case_sensitive,
                backend_name=backend_name,
                generations=generations,
                cache=resolve_result_cache(options.cache),
                max_rows=options.max_rows,
            )
            database = cls(
                options=options,
                origin=f"{resolved.origin} ({plan.shard_count} shards)",
                source=source_name,
                load_seconds=time.perf_counter() - started,
                sharded=sharded,
                _cleanup=cleanup,
            )
        except BaseException:
            if cleanup is not None:
                cleanup()
            raise
        if (
            options.workers == 0
            and options.replicas == 0
            and options.cluster is None
        ):
            # Serial in-process shards stay writable: mutations land on
            # the unsliced base store, then the fabric is re-sliced.
            # Out-of-process shards (pool, replicas, cluster) serve
            # read-only bundles.
            database._base_store = store
            if resolved.snapshot is not None:
                database._bind_write_through(resolved.snapshot)
        return database

    @classmethod
    def open_all(
        cls,
        catalog: SourceLike,
        *,
        options: Optional[DatabaseOptions] = None,
        **overrides,
    ) -> Dict[str, "Database"]:
        """Open every collection of a catalog — the server's fleet."""
        from ..snapshot import Catalog

        options = options or DatabaseOptions()
        if overrides:
            options = options.replace(**overrides)
        options = options.replace(catalog=catalog)
        names = Catalog(FsPath(catalog), create=False).names()
        if not names:
            raise ReproError(f"catalog {catalog} holds no collections")
        return {
            name: cls.open(options=options, snapshot=name) for name in names
        }

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Release executor processes and temp shard bundles (idempotent)."""
        if self.sharded is not None:
            self.sharded.executor.close()
        if self._finalizer is not None:
            self._finalizer()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def is_sharded(self) -> bool:
        return self.sharded is not None

    # -- wiring (lazy, built once) --------------------------------------
    @property
    def engine(self) -> NearestConceptEngine:
        """The documented low-level tier, wired to this database."""
        if self.store is None:
            raise ReproError(
                "a sharded database has no single engine; use the facade "
                "methods (search/nearest/query) or open without shards"
            )
        if self._engine is None:
            with self._wiring_lock:
                if self._engine is None:
                    self._engine = NearestConceptEngine(
                        self.store,
                        case_sensitive=self.case_sensitive,
                        backend=self.backend_name,
                        cache=self.result_cache,
                    )
        return self._engine

    @property
    def processor(self) -> QueryProcessor:
        """The query-language tier, sharing this database's wiring."""
        if self.store is None:
            raise ReproError(
                "a sharded database has no single query processor; use "
                "db.query(...) or open without shards"
            )
        if self._processor is None:
            with self._wiring_lock:
                if self._processor is None:
                    self._processor = QueryProcessor(
                        self.store,
                        search=SearchEngine(
                            self.store, case_sensitive=self.case_sensitive
                        ),
                        max_rows=self.options.max_rows,
                        backend=self.backend_name,
                        cache=self.result_cache,
                        value_indexes=tuple(self._value_indexes or ()),
                    )
        return self._processor

    def warm_up(self) -> None:
        """Force every derived index to exist before traffic arrives.

        Touching the full-text index and (on the vector backend) the
        LCA index through their generation-keyed caches here is what
        lets a multi-threaded server guarantee zero index rebuilds
        once it starts answering.  A sharded database pings every
        shard instead — same effect per shard store, and it spins the
        worker pool up before the first request.
        """
        with self._rw.read():
            if self.sharded is not None:
                self.sharded.warm_up()
                return
            _ = self.engine.index
            backend = self.engine.backend
            # The vector backend additionally binds its NumPy column
            # views here, so the first query pays no view setup.
            _ = getattr(backend, "kernels", None)
            _ = self.processor.search.index

    # -- introspection --------------------------------------------------
    @property
    def generation(self):
        if self.sharded is not None:
            return self.sharded.generations
        return self.store.generation

    @property
    def node_count(self) -> int:
        if self.sharded is not None:
            return self.sharded.node_count
        return self.store.node_count

    def cache_info(self):
        """Result-cache counters, or ``None`` when caching is off."""
        if self.result_cache is None:
            return None
        return self.result_cache.cache_info()

    def metrics(self) -> List[object]:
        """The typed metric objects this database owns (cache, executor
        and planner counters), for registration in a server's
        :class:`~repro.obs.metrics.MetricsRegistry`."""
        objects: List[object] = []
        if self.result_cache is not None:
            objects.extend(self.result_cache.metric_objects())
        if self.sharded is not None:
            collect = getattr(
                self.sharded.executor, "metric_objects", None
            )
            if callable(collect):
                objects.extend(collect())
        objects.extend(self._planner_metric_objects())
        return objects

    def _planner_metric_objects(self) -> List[object]:
        """Prepared-statement and plan-cache metrics (built once)."""
        if self._metric_objects is None:
            statements = Gauge(
                "repro_prepared_statements",
                "Prepared statements currently held by the collection.",
            ).set_function(lambda: float(len(self._prepared)))
            hits = Gauge(
                "repro_planner_plan_cache_hits",
                "Prepared-plan cache hits (plan reused across executions).",
            ).set_function(lambda: float(self.plan_cache_info()["hits"]))
            misses = Gauge(
                "repro_planner_plan_cache_misses",
                "Prepared-plan cache misses (plan computed).",
            ).set_function(lambda: float(self.plan_cache_info()["misses"]))
            tier = CallbackGauge(
                "repro_kernel_tier_info",
                "Active batch-kernel tier (info-style: the labelled "
                "sample with value 1 names the tier in use).",
                ("tier",),
                lambda: [
                    ({"tier": kernel_tier(self.backend_name)}, 1.0)
                ],
            )
            self._metric_objects = [
                statements,
                self._prepared_executions,
                hits,
                misses,
                tier,
            ]
        return self._metric_objects

    def plan_cache_info(self) -> Dict[str, int]:
        """Prepared-plan cache counters, summed across the execution tree.

        Monolithic opens read the query processor's cache; in-process
        sharded opens sum over the shard services' template memos.
        Out-of-process executors keep their memos worker-side and
        report zeros here.
        """
        totals = {"hits": 0, "misses": 0, "currsize": 0}
        processor = self._processor
        if processor is not None:
            info = processor.plan_cache_info()
            for field in totals:
                totals[field] += info[field]
        if self.sharded is not None:
            services = getattr(self.sharded.executor, "services", None)
            if services:
                for service in services:
                    plans = getattr(service, "_plans", None)
                    if plans is not None:
                        totals["hits"] += service._plan_hits
                        totals["misses"] += service._plan_misses
                        totals["currsize"] += len(plans)
        return totals

    def to_xml(self, oid: int, indent: int = 2) -> str:
        """Serialize one answer subtree, whichever execution layer."""
        with self._rw.read():
            if self.sharded is not None:
                return self.sharded.to_xml(oid, indent=indent)
            return self.engine.to_xml(oid, indent=indent)

    def describe(self) -> Dict[str, object]:
        """Static collection metadata (the ``/v1/collections`` row)."""
        meta: Dict[str, object] = {
            "origin": self.origin,
            "source": self.source,
            "node_count": self.node_count,
            "backend": self.backend_name,
            "kernel_tier": kernel_tier(self.backend_name),
            "case_sensitive": self.case_sensitive,
        }
        if self._value_indexes:
            meta["value_indexes"] = list(self._value_indexes)
        if self.sharded is not None:
            plan = self.sharded.plan
            meta["path_count"] = plan.path_count
            meta["shards"] = {
                "count": plan.shard_count,
                "executor": self.sharded.executor.name,
                "starts": list(plan.starts),
                "ends": list(plan.ends),
            }
        else:
            meta["path_count"] = len(self.store.summary) - 1
        if self.snapshot is not None:
            meta["snapshot"] = {
                "vocabulary_size": self.snapshot.fulltext_index.vocabulary_size,
                "tour_length": self.snapshot.lca_index.tour_length,
            }
        return meta

    def stats(self) -> Dict[str, object]:
        """Live serving statistics (the ``/v1/stats`` row).

        Index-build counters are process-wide, not per-store, so they
        live one level up — :meth:`ReproServer.stats` reports them
        once for the whole process (merging in worker-pool counters
        for sharded collections).
        """
        stats: Dict[str, object] = {
            "origin": self.origin,
            "backend": self.backend_name,
            "kernel_tier": kernel_tier(self.backend_name),
            "case_sensitive": self.case_sensitive,
            "generation": self.generation,
            "node_count": self.node_count,
            "load_ms": round(self.load_seconds * 1000, 3),
            "cache": _cache_info_dict(self.cache_info()),
        }
        base = self._base_store if self._base_store is not None else self.store
        if base is not None:
            stats["writes"] = {
                "mutations": self._mutations,
                "documents": len(base.documents),
                "live_nodes": base.live_node_count,
                "dead_fraction": round(base.dead_fraction, 4),
                "pending_deltas": self._pending_deltas,
            }
        if self.sharded is not None:
            stats["executor"] = self.sharded.executor.stats()
        return stats

    def health(self) -> Dict[str, object]:
        """Readiness of this collection (the ``/readyz`` row).

        Monolithic and serial-sharded databases are ready whenever
        the process is alive; executor-backed ones delegate, so a
        replicated cluster reports ``degraded`` (last healthy replica
        on some shard) or ``unavailable`` (a shard with none left).
        """
        if self.sharded is not None:
            executor = self.sharded.executor
            health_fn = getattr(executor, "health", None)
            if callable(health_fn):
                return health_fn()
            return {"status": "ok", "shards": []}  # pragma: no cover
        return {"status": "ok", "shards": []}

    def _envelope_stats(self) -> Dict[str, object]:
        stats: Dict[str, object] = {
            "origin": self.origin,
            "backend": self.backend_name,
            "case_sensitive": self.case_sensitive,
            "generation": self.generation,
            "cache": _cache_info_dict(self.cache_info()),
        }
        if self.sharded is not None:
            stats["shards"] = self.sharded.last_shard_stats()
        return stats

    # -- the three query surfaces ----------------------------------------
    def search(self, request: Union[str, SearchRequest]) -> ResultEnvelope:
        """Raw full-text hits for one term, as an envelope."""
        if isinstance(request, str):
            request = SearchRequest(term=request)
        started = time.perf_counter()
        with self._rw.read():
            if self.sharded is not None:
                rows = self.sharded.term_hit_rows(request.term)
                if request.limit is not None:
                    rows = rows[: request.limit]
                summary = self.sharded.summary
                answers = tuple(
                    {
                        "oid": oid,
                        "tag": summary.label(pid),
                        "path": str(summary.path(pid)),
                    }
                    for oid, pid in rows
                )
            else:
                hits = self.engine.term_hits(request.term)
                oids = sorted(hits.oids())
                if request.limit is not None:
                    oids = oids[: request.limit]
                store = self.store
                answers = tuple(
                    {
                        "oid": oid,
                        "tag": store.summary.label(store.pid_of(oid)),
                        "path": str(store.path_of(oid)),
                    }
                    for oid in oids
                )
        elapsed = time.perf_counter() - started
        return ResultEnvelope(
            kind=SearchRequest.kind,
            request=request.to_dict(),
            answers=answers,
            count=len(answers),
            elapsed_ms=round(elapsed * 1000, 3),
            stats=self._envelope_stats(),
        )

    def nearest(
        self, request: Union[NearestRequest, str], *terms: str, **options
    ) -> ResultEnvelope:
        """Ranked nearest concepts; answers carry the full §4 key.

        Accepts either a ready :class:`NearestRequest` or the terms
        inline — ``db.nearest("Bit", "1999", limit=5)``.
        """
        if isinstance(request, str):
            request = NearestRequest(terms=(request, *terms), **options)
        elif terms or options:
            raise TypeError(
                "pass either a NearestRequest or inline terms, not both"
            )
        started = time.perf_counter()
        with self._rw.read():
            surface = self.sharded if self.sharded is not None else self.engine
            concepts = surface.nearest_concepts(
                *request.terms,
                exclude_root=request.exclude_root,
                require_all_terms=request.require_all_terms,
                within=request.within,
                limit=request.limit,
            )
            snippets: Dict[int, str] = {}
            if request.snippets and self.sharded is not None:
                snippets = self.sharded.snippets(
                    [concept.oid for concept in concepts]
                )
            answers: List[Dict[str, object]] = []
            for concept in concepts:
                answer: Dict[str, object] = {
                    "oid": concept.oid,
                    "tag": concept.tag,
                    "path": str(concept.path),
                    "joins": concept.joins,
                    "spread": concept.spread,
                    "depth": concept.depth,
                    "origins": list(concept.origins),
                    "terms": list(concept.terms),
                }
                if request.snippets:
                    answer["snippet"] = (
                        snippets[concept.oid]
                        if self.sharded is not None
                        else self.engine.snippet(concept)
                    )
                answers.append(answer)
        elapsed = time.perf_counter() - started
        return ResultEnvelope(
            kind=NearestRequest.kind,
            request=request.to_dict(),
            answers=tuple(answers),
            count=len(answers),
            elapsed_ms=round(elapsed * 1000, 3),
            stats=self._envelope_stats(),
        )

    def query(self, request: Union[str, QueryRequest]) -> ResultEnvelope:
        """Execute (or explain) a select/from/where query."""
        if isinstance(request, str):
            request = QueryRequest(text=request)
        started = time.perf_counter()
        with self._rw.read():
            if request.explain:
                rendered = self._explain_impl(request.text)
                elapsed = time.perf_counter() - started
                return ResultEnvelope(
                    kind=QueryRequest.kind,
                    request=request.to_dict(),
                    columns=(),
                    rows=(),
                    rendered=rendered,
                    count=0,
                    elapsed_ms=round(elapsed * 1000, 3),
                    stats=self._envelope_stats(),
                )
            if self.sharded is not None:
                result: QueryResult = self.sharded.execute(
                    request.text, bindings=request.params
                )
            else:
                result = self.processor.execute(
                    request.text, bindings=request.params
                )
            rendered = self._render_answer(result) if request.render else None
        elapsed = time.perf_counter() - started
        table = result.to_dict()
        stats = self._envelope_stats()
        if result.plan is not None:
            stats["plan"] = result.plan
        return ResultEnvelope(
            kind=QueryRequest.kind,
            request=request.to_dict(),
            columns=tuple(table["columns"]),
            rows=tuple(tuple(row) for row in table["rows"]),
            rendered=rendered,
            count=table["row_count"],
            elapsed_ms=round(elapsed * 1000, 3),
            stats=stats,
        )

    def _render_answer(self, result: QueryResult) -> str:
        if self.sharded is not None:
            in_range = [
                cell
                for row in result.rows
                for cell in row
                if isinstance(cell, int)
                and self.sharded.plan.root_oid
                <= cell
                < self.sharded.plan.ends[-1]
            ]
            return result.render_answer(
                _SummaryRenderStore(
                    self.sharded, self.sharded.pids_of(set(in_range))
                )
            )
        return result.render_answer(self.store)

    def explain(self, text: str) -> str:
        """The query plan, as the processor renders it."""
        with self._rw.read():
            return self._explain_impl(text)

    def _explain_impl(self, text: str) -> str:
        if self.sharded is not None:
            return self.sharded.explain(text)
        return self.processor.explain(text)

    # -- prepared statements ----------------------------------------------
    def prepare(
        self, request: Union[str, PrepareRequest]
    ) -> Dict[str, object]:
        """Parse and register a parameterized query; returns its handle.

        The handle is a deterministic digest of the normalized text, so
        re-preparing the same statement is idempotent and clients can
        share handles.  Executions bind ``$name`` parameters per call
        (:meth:`execute`); the schema half of the plan is computed once
        per store generation and reused across executions.
        """
        if isinstance(request, str):
            request = PrepareRequest(text=request)
        text = request.text.strip()
        template = parse_query(text)  # surfaces syntax errors now
        handle = "q" + hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        with self._prepared_lock:
            self._prepared[handle] = (text, template)
        return {
            "op": "prepare",
            "handle": handle,
            "text": text,
            "parameters": sorted(template.parameters),
        }

    def execute(
        self,
        request: Union[str, ExecuteRequest],
        params: Optional[Dict[str, str]] = None,
        render: bool = False,
    ) -> ResultEnvelope:
        """Execute a prepared statement with per-call parameter bindings.

        Answers are byte-identical to :meth:`query` over the same text
        with the same bindings — only the parse/plan work is amortized.
        """
        if isinstance(request, str):
            request = ExecuteRequest(
                handle=request, params=params, render=render
            )
        elif params is not None or render:
            raise TypeError(
                "pass either an ExecuteRequest or a handle with inline "
                "params, not both"
            )
        entry = self._prepared.get(request.handle)
        if entry is None:
            raise QueryPlanError(
                f"unknown prepared-statement handle {request.handle!r}; "
                "prepare the statement first"
            )
        text, template = entry
        started = time.perf_counter()
        with self._rw.read():
            if self.sharded is not None:
                result: QueryResult = self.sharded.execute(
                    text, bindings=request.params
                )
            else:
                result = self.processor.execute_template(
                    template, text=text, bindings=request.params
                )
            rendered = self._render_answer(result) if request.render else None
        self._prepared_executions.inc()
        elapsed = time.perf_counter() - started
        table = result.to_dict()
        stats = self._envelope_stats()
        if result.plan is not None:
            stats["plan"] = result.plan
        stats["plan_cache"] = self.plan_cache_info()
        return ResultEnvelope(
            kind=ExecuteRequest.kind,
            request=request.to_dict(),
            columns=tuple(table["columns"]),
            rows=tuple(tuple(row) for row in table["rows"]),
            rendered=rendered,
            count=table["row_count"],
            elapsed_ms=round(elapsed * 1000, 3),
            stats=stats,
        )

    # -- the live write path ---------------------------------------------
    def put(self, name: str, xml: str) -> Dict[str, object]:
        """Add ``xml`` as a new named document; rejects duplicates."""
        return self._mutate("put", name, xml)

    def delete(self, name: str) -> Dict[str, object]:
        """Tombstone the named document's OID range."""
        return self._mutate("delete", name, None)

    def replace(self, name: str, xml: str) -> Dict[str, object]:
        """Upsert: delete ``name`` if present, then put ``xml`` under it."""
        return self._mutate("replace", name, xml)

    def documents(self) -> Dict[str, List[int]]:
        """The live registry: document name → ``[first OID, last OID]``.

        Takes the write side because the first call on a freshly
        opened pre-registry store seeds the seed-NNNN names.
        """
        with self._rw.write():
            store = self._writable_store()
            return {
                name: list(span)
                for name, span in sorted(
                    ensure_document_registry(store).items()
                )
            }

    def _writable_store(self) -> MonetXML:
        if self._base_store is not None:
            return self._base_store
        if self.store is not None:
            return self.store
        raise ReproError(
            "this database serves read-only shard bundles; live writes "
            "need a monolithic open or in-process shards (workers=0)"
        )

    def _mutate(self, op: str, name: str, xml: Optional[str]) -> Dict[str, object]:
        with self._rw.write():
            store = self._writable_store()
            registry = ensure_document_registry(store)
            # Everything that can reject the mutation is checked before
            # the durable append: a delta must never record an
            # operation the in-memory apply then refuses.
            if op == "put" and name in registry:
                raise DuplicateDocumentError(name)
            if op == "delete" and name not in registry:
                raise UnknownDocumentError(name)
            if xml is not None:
                parse_fragment(xml)
            self._write_through(DeltaOp(op, name, xml))
            if op == "put":
                records = [put_document(store, name, xml)]
            elif op == "delete":
                records = [delete_document(store, name)]
            else:
                records = replace_document(store, name, xml)
            if self.sharded is not None:
                self._reshard_locked()
            self._mutations += 1
            current = self._writable_store()
            span = (
                list(current.documents[name])
                if name in current.documents
                # A delete's span is the tombstoned range, pre-compaction.
                else list(records[-1].span)
            )
            return {
                "op": op,
                "name": name,
                "span": span,
                "generation": self.generation,
                "documents": len(current.documents),
                "live_nodes": current.live_node_count,
                "dead_fraction": round(current.dead_fraction, 4),
            }

    def compact(self) -> Dict[str, object]:
        """Renumber live nodes densely; fold the bundle's delta tail.

        In memory, tombstoned slots are reclaimed and OIDs return to
        exactly what a rebuild from the surviving documents would
        assign.  Snapshot-backed databases also rewrite their bundle —
        catalog collections through the catalog's crash-safe
        temp-write → rename → manifest-flip (the previous generation
        keeps serving until the flip), direct ``.snap`` files through
        an atomic replace — which drops the accumulated delta
        sections.
        """
        with self._rw.write():
            store = self._writable_store()
            before = store.node_count
            if self.sharded is not None:
                self._reshard_locked()
                store = self._base_store
            else:
                compacted, mapping = compact_store(store)
                if mapping is not None:
                    self.store = compacted
                    self.snapshot = None  # its store/indexes are stale now
                    with self._wiring_lock:
                        self._engine = None
                        self._processor = None
                store = compacted
            self._rewrite_bundle(store)
            return {
                "op": "compact",
                "node_count": store.node_count,
                "reclaimed": before - store.node_count,
                "documents": len(ensure_document_registry(store)),
                "generation": self.generation,
            }

    def _write_through(self, op: DeltaOp) -> None:
        """Durably journal one mutation before it applies in memory.

        A crash after the append replays the delta on the next open; a
        crash *during* it leaves a torn tail that tolerant readers drop
        — either way the bundle holds exactly the acknowledged prefix.
        """
        if self._delta_path is None:
            return
        if self._mutable_catalog is not None:
            # Drop the source fingerprint *before* the delta lands: a
            # crash between the two must never leave a mutated bundle
            # that find_source still serves as fresh for its source
            # file.  The reverse loss (fingerprint gone, delta never
            # written) only costs a warm-start preference.
            from ..snapshot import Catalog

            root, name = self._mutable_catalog
            try:
                Catalog(root, create=False).note_mutation(name)
            except StorageError:
                pass  # manifest gone mid-serve; writes stay in-memory-safe
        append_delta(self._delta_path, op)
        self._pending_deltas += 1

    def _reshard_locked(self) -> None:
        """Rebuild the in-process shard fabric over the mutated base.

        Shard plans slice contiguous OID ranges, so the base store is
        first compacted back to dense pre-order; the new
        :class:`ShardedCollection` reuses this database's result cache,
        whose layout-fingerprint + generation key drops stale entries
        by itself.
        """
        base, _ = compact_store(self._base_store)
        self._base_store = base
        plan = compute_shard_plan(base, self.sharded.plan.shard_count)
        slices = slice_store(base, plan)
        executor = SerialExecutor(
            [
                ShardService(
                    shard,
                    shard_id=index,
                    case_sensitive=self.case_sensitive,
                    backend=self.backend_name,
                )
                for index, shard in enumerate(slices)
            ]
        )
        previous = self.sharded
        self.sharded = ShardedCollection(
            plan,
            base.summary,
            executor,
            case_sensitive=self.case_sensitive,
            backend_name=self.backend_name,
            generations=tuple(shard.generation for shard in slices),
            cache=self.result_cache,
            max_rows=self.options.max_rows,
        )
        previous.executor.close()

    def _rewrite_bundle(self, store: MonetXML) -> None:
        if self._delta_path is None or not self._pending_deltas:
            return
        if self._mutable_catalog is not None:
            from ..snapshot import Catalog

            root, name = self._mutable_catalog
            Catalog(root).build(
                name,
                store,
                case_sensitive=self.case_sensitive,
                value_indexes=self._value_indexes,
            )
        else:
            temp = self._delta_path.with_suffix(".snap.tmp")
            try:
                write_snapshot(
                    store,
                    temp,
                    case_sensitive=self.case_sensitive,
                    value_indexes=self._value_indexes,
                )
                temp.replace(self._delta_path)
            except BaseException:
                temp.unlink(missing_ok=True)
                raise
        self._pending_deltas = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = (
            f"shards={self.sharded.shard_count}"
            if self.sharded is not None
            else "monolithic"
        )
        return (
            f"<Database nodes={self.node_count} origin={self.origin!r} "
            f"backend={self.backend_name!r} {mode}>"
        )


class _SummaryRenderStore:
    """Just enough store surface for ``QueryResult.render_answer``.

    The renderer needs OID membership, ``pid_of`` and summary labels;
    the pid map is pre-fetched in one scatter, and membership mirrors
    the monolithic store's range test (so a non-OID integer cell that
    happens to land in range renders the same either way).
    """

    def __init__(self, sharded: ShardedCollection, pid_map: Dict[int, int]):
        self.summary = sharded.summary
        self._pid_map = pid_map

    def __contains__(self, oid: object) -> bool:
        return isinstance(oid, int) and oid in self._pid_map

    def pid_of(self, oid: int) -> int:
        return self._pid_map[oid]


def open_database(
    source: Optional[SourceLike] = None,
    *,
    options: Optional[DatabaseOptions] = None,
    snapshot: Optional[SourceLike] = None,
    **overrides,
) -> Database:
    """Module-level spelling of :meth:`Database.open` (``repro.open``)."""
    return Database.open(
        source, options=options, snapshot=snapshot, **overrides
    )
