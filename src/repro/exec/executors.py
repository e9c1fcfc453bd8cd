"""Executors: where a sharded collection's scatter-gather work runs.

The :class:`Executor` protocol is the seam between the coordinator
(:mod:`repro.exec.coordinator`) and the hardware: a coordinator only
ever calls ``scatter([(shard_id, op, params), ...])`` and gets one
plain-data response per request, so the same coordinator code serves

* :class:`SerialExecutor` — handlers run in-process, in order.  Zero
  overhead, byte-identical to the monolithic engine, and the default;
* :class:`ParallelExecutor` — a ``concurrent.futures``
  ``ProcessPoolExecutor`` whose workers each map (``mmap``) the
  collection's one snapshot bundle **once at spawn**, serve every
  shard of the plan as a range of that store, and answer
  scatter-gather requests over the pool's pipes.  Compute happens in
  worker processes, so a multi-threaded HTTP server finally scales
  past one core: the GIL only ever sees cheap merge work.

Worker processes are started with the ``spawn`` method (never
``fork``): executors live inside threaded servers, and forking a
threaded process is a deadlock lottery.  The one-time spawn cost is
paid eagerly at construction, before any serving thread exists.

A killed worker breaks the pool; :meth:`ParallelExecutor.scatter`
converts that into a clean :class:`ExecutorError` for the in-flight
request, tears the pool down, and respawns it lazily for the next
request — the server stays up.

Every worker response carries the worker's process-local index-build
and result-cache counters; the executor folds them into
:meth:`Executor.stats` so ``/v1/stats`` can present one process-tree
view (the satellite fix: process-local counters would silently
undercount behind a pool).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Protocol, Sequence, Set, Tuple

from ..datamodel.errors import ReproError
from ..obs.metrics import Counter
from .deadline import DeadlineExceededError, current_deadline
from .service import ShardService, shard_services
from .sharding import ShardPlan

__all__ = [
    "Executor",
    "ExecutorError",
    "SerialExecutor",
    "ParallelExecutor",
]

ShardOp = Tuple[int, str, Dict[str, object]]


class ExecutorError(ReproError):
    """A scatter that could not complete (e.g. a worker died)."""

    code = "shard_unavailable"
    retryable = True


class Executor(Protocol):
    """What the coordinator needs from an execution strategy."""

    name: str
    shard_count: int

    def scatter(self, ops: Sequence[ShardOp]) -> List[Dict[str, object]]:
        """Run every (shard_id, op, params) request; results in order."""
        ...

    def broadcast(self, op: str, params: Dict[str, object]) -> List[Dict[str, object]]:
        """``scatter`` of one op to every shard."""
        ...

    def stats(self) -> Dict[str, object]:
        """Executor-level observability (mode, workers, merged counters)."""
        ...

    def health(self) -> Dict[str, object]:
        """Readiness: overall ``status`` plus per-shard detail."""
        ...

    def close(self) -> None:
        ...


class SerialExecutor:
    """In-process scatter-gather: the default, and the serial baseline."""

    name = "serial"

    def __init__(self, services: Sequence[ShardService]):
        self.services = list(services)
        self.shard_count = len(self.services)

    def scatter(self, ops: Sequence[ShardOp]) -> List[Dict[str, object]]:
        deadline = current_deadline()
        results = []
        for shard_id, op, params in ops:
            # Cooperative enforcement: a serial scatter checks the
            # budget between shards (mid-shard compute cannot be
            # preempted, but a multi-shard pile-up is cut short).
            if deadline is not None:
                deadline.check(f"shard {shard_id} op {op!r}")
            results.append(self.services[shard_id].handle(op, params))
        return results

    def broadcast(self, op: str, params: Dict[str, object]) -> List[Dict[str, object]]:
        return self.scatter([(i, op, dict(params)) for i in range(self.shard_count)])

    def stats(self) -> Dict[str, object]:
        return {
            "mode": self.name,
            "shards": self.shard_count,
            "workers": 0,
        }

    def health(self) -> Dict[str, object]:
        # In-process shards cannot partially fail: alive means ready.
        return {
            "status": "ok",
            "shards": [
                {"shard": i, "status": "ok", "healthy_replicas": 1}
                for i in range(self.shard_count)
            ],
        }

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Worker-side plumbing (module-level: must be picklable by qualified name).
# ---------------------------------------------------------------------------

_WORKER_SERVICES: List[ShardService] = []

#: How long pool start-up waits for every worker to answer a ping.
_WARM_UP_SECONDS = 30.0


def _worker_init(
    bundle_path: str,
    plan: ShardPlan,
    case_sensitive: bool,
    backend: Optional[str],
    use_mmap: bool,
) -> None:
    """Load the bundle once per worker (mmap-backed by default) and
    serve every shard of ``plan`` over it.

    The bundle comes back with the LCA and full-text caches pre-seeded,
    so a worker's build counters stay at zero for its whole life — the
    zero-rebuild invariant ``/v1/stats`` asserts survives the pool.
    """
    from ..snapshot.codec import read_snapshot

    snapshot = read_snapshot(
        bundle_path, use_mmap=use_mmap, tolerate_torn_tail=True
    )
    services = shard_services(
        snapshot.store, plan, case_sensitive=case_sensitive, backend=backend
    )
    _WORKER_SERVICES[:] = services.values()


def _worker_call(
    shard_id: int, op: str, params: Dict[str, object]
) -> Dict[str, object]:
    if op == "_crash":  # test hook: die like a real worker failure
        os._exit(int(params.get("status", 70)))
    from ..core.lca_index import lca_index_cache_info
    from ..fulltext.index import fulltext_index_cache_info

    response = _WORKER_SERVICES[shard_id].handle(op, params)
    response["_worker"] = {
        "pid": os.getpid(),
        "lca_builds": lca_index_cache_info().builds,
        "fulltext_builds": fulltext_index_cache_info().builds,
    }
    return response


class ParallelExecutor:
    """Process-pool scatter-gather over one on-disk bundle and a plan."""

    name = "parallel"

    def __init__(
        self,
        bundle_path,
        plan: ShardPlan,
        *,
        workers: int,
        case_sensitive: bool = False,
        backend: Optional[str] = None,
        use_mmap: bool = True,
        start_method: str = "spawn",
    ):
        if workers < 1:
            raise ExecutorError(f"worker count must be >= 1, got {workers}")
        self._path = str(bundle_path)
        self._plan = plan
        self.shard_count = plan.shard_count
        self.workers = int(workers)
        self._case_sensitive = bool(case_sensitive)
        self._backend = backend
        self._use_mmap = bool(use_mmap)
        self._start_method = start_method
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._worker_stats: Dict[int, Dict[str, int]] = {}
        self._respawns = Counter(
            "repro_respawns_total",
            "Worker pools respawned after a worker process died.",
        )
        self._spawned_once = False
        self._closed = False
        # Spawn (and load bundles into) every worker now, before any
        # server thread exists — both the fork-safety argument above
        # and the warm-up: no request ever waits on a cold worker.
        try:
            self._ensure_pool()
        except BrokenProcessPool:
            self._discard_pool()
            raise ExecutorError(
                "worker pool failed to start (a worker died while "
                "loading the bundle)"
            ) from None

    # -- pool lifecycle -------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise ExecutorError(
                    "the worker pool has been closed; reopen the database "
                    "to serve again"
                )
            if self._pool is None:
                context = multiprocessing.get_context(self._start_method)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=context,
                    initializer=_worker_init,
                    initargs=(
                        self._path,
                        self._plan,
                        self._case_sensitive,
                        self._backend,
                        self._use_mmap,
                    ),
                )
                if self._spawned_once:
                    self._respawns.inc()
                self._spawned_once = True
                # One submit per worker slot forces the pool to spawn
                # its full complement immediately.  The first worker
                # up can drain every ping while the others still load
                # the bundle, so ping until each has answered once.
                warm: Set[int] = set()
                give_up = time.monotonic() + _WARM_UP_SECONDS
                while len(warm) < self.workers and time.monotonic() < give_up:
                    if warm:
                        time.sleep(0.01)  # leave the CPU to the loaders
                    futures = [
                        self._pool.submit(
                            _worker_call, index % self.shard_count, "ping", {}
                        )
                        for index in range(self.workers)
                    ]
                    for future in futures:
                        warm.add(self._harvest(future.result())["pid"])
            return self._pool

    def _discard_pool(
        self, observed: Optional[ProcessPoolExecutor] = None
    ) -> None:
        """Tear down the broken pool — but only the one the caller saw.

        A thread handling an old failure must not shut down a healthy
        pool another thread already respawned (that would cancel its
        in-flight requests); ``observed=None`` (close, or a failure
        while the pool was still being built) discards whatever is
        current.
        """
        with self._lock:
            if observed is not None and self._pool is not observed:
                return
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _harvest(self, response: Dict[str, object]) -> Dict[str, object]:
        worker = response.pop("_worker", None)
        if isinstance(worker, dict) and "pid" in worker:
            self._worker_stats[int(worker["pid"])] = {
                "lca_builds": int(worker.get("lca_builds", 0)),
                "fulltext_builds": int(worker.get("fulltext_builds", 0)),
            }
        return response

    # -- the executor surface -------------------------------------------
    def scatter(self, ops: Sequence[ShardOp]) -> List[Dict[str, object]]:
        deadline = current_deadline()
        pool: Optional[ProcessPoolExecutor] = None
        try:
            # _ensure_pool sits inside the try: a worker dying during
            # the respawn warm-up must surface as the same clean
            # ExecutorError as one dying mid-query.
            pool = self._ensure_pool()
            futures = [
                pool.submit(_worker_call, shard_id, op, params)
                for shard_id, op, params in ops
            ]
            results = []
            for future in futures:
                # Bound each gather by the remaining request budget;
                # the worker-side compute keeps running (it cannot be
                # preempted), but the caller gets its 504 on time.
                timeout = None if deadline is None else deadline.remaining()
                try:
                    results.append(self._harvest(future.result(timeout)))
                except FuturesTimeoutError:
                    for pending in futures:
                        pending.cancel()
                    raise DeadlineExceededError(
                        "scatter exceeded its deadline waiting on a "
                        "shard worker"
                    ) from None
            return results
        except BrokenProcessPool:
            self._discard_pool(pool)
            raise ExecutorError(
                "a shard worker died mid-query; the request failed and the "
                "worker pool will be respawned for the next one"
            ) from None

    def broadcast(self, op: str, params: Dict[str, object]) -> List[Dict[str, object]]:
        return self.scatter([(i, op, dict(params)) for i in range(self.shard_count)])

    def metric_objects(self) -> List[object]:
        """Typed metrics: pool respawns."""
        return [self._respawns]

    def stats(self) -> Dict[str, object]:
        with self._lock:
            workers = dict(self._worker_stats)
            respawns = self._respawns.value
        return {
            "mode": self.name,
            "shards": self.shard_count,
            "workers": self.workers,
            "worker_pids": sorted(workers),
            "respawns": respawns,
            "index_builds": {
                "lca": sum(w["lca_builds"] for w in workers.values()),
                "fulltext": sum(
                    w["fulltext_builds"] for w in workers.values()
                ),
            },
        }

    def health(self) -> Dict[str, object]:
        with self._lock:
            pool_up = self._pool is not None and not self._closed
        status = "ok" if pool_up else "degraded"
        return {
            "status": status,
            "shards": [
                {
                    "shard": i,
                    "status": status,
                    "healthy_replicas": 1 if pool_up else 0,
                }
                for i in range(self.shard_count)
            ],
        }

    def close(self) -> None:
        """Shut the pool down for good: later scatters raise cleanly
        instead of silently respawning workers (whose temp bundle may
        already be deleted)."""
        with self._lock:
            self._closed = True
        self._discard_pool()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ParallelExecutor shards={self.shard_count} "
            f"workers={self.workers}>"
        )
