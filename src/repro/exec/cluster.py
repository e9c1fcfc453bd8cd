"""N-way shard replicas with health-checked failover.

:class:`ClusterExecutor` implements the :class:`~repro.exec.executors.
Executor` protocol over *remote* shard workers (:mod:`repro.exec.
remote`): each shard is served by one or more replicas, and a scatter
survives any single replica failing — by timeout, torn frame, dropped
connection or a killed process — as long as one replica per shard
stays reachable within the request's deadline.

Per replica, a **circuit breaker**: consecutive transport failures
open the circuit (the replica is skipped without paying a connect
timeout per request), and a background **heartbeat prober** pings it
back to health.  Failover between replicas retries with
jittered exponential backoff bounded by the request deadline.
Permanent failure is handled per replica kind:

* **managed** replicas (spawned by this executor, or anything with a
  ``spawn`` callback) are *respawned* — a dead process is restarted
  from the collection's bundle, up to ``max_respawns`` times, after which
  the replica is **evicted**;
* **unmanaged** replicas (bare addresses — a worker on another host)
  are never evicted: the circuit stays open and the prober keeps
  checking, so an operator restarting the remote worker heals the
  cluster without intervention here.

Answers are byte-identical to the serial executor by construction:
replicas of a shard serve the *same* bundle, and which replica
answers never affects the response — the chaos suite
(:mod:`tests.exec.chaos`) asserts exactly that under injected faults.
"""

from __future__ import annotations

import logging
import random
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..datamodel.errors import ReproError
from ..monet.engine import index_counters
from ..obs.logs import log_event
from ..obs.metrics import CallbackGauge, Counter
from .deadline import Deadline, DeadlineExceededError, current_deadline
from .executors import ExecutorError, ShardOp
from .remote import (
    RemoteOpError,
    RemoteShardClient,
    WorkerProcess,
    format_address,
)
from .transport import TransportError, sleep_within_deadline

__all__ = ["ClusterExecutor", "ReplicaSpec", "Replica"]

#: Replica circuit states.
_logger = logging.getLogger("repro.exec.cluster")

#: Circuit state as a numeric gauge level for ``/v1/metrics``.
_STATE_LEVELS = {"healthy": 0, "open": 1, "evicted": 2}

_HEALTHY = "healthy"
_OPEN = "open"  # circuit open: skipped by requests, probed by heartbeat
_EVICTED = "evicted"  # permanent: a managed replica out of respawns


class ReplicaSpec:
    """How to reach (and possibly revive) one replica of one shard.

    ``address`` is a ``(host, port)`` tuple; ``spawn`` is an optional
    zero-argument callable returning a fresh
    :class:`~repro.exec.remote.WorkerProcess` — its presence makes the
    replica *managed* (respawnable).  Pass one or the other: a spec
    with only ``spawn`` is started by the executor at construction.
    """

    __slots__ = ("address", "spawn")

    def __init__(
        self,
        address: Optional[Tuple[str, int]] = None,
        spawn: Optional[Callable[[], WorkerProcess]] = None,
    ):
        if address is None and spawn is None:
            raise ReproError("a replica spec needs an address or a spawner")
        self.address = address
        self.spawn = spawn


class Replica:
    """Live state of one replica: circuit breaker, pool, process."""

    def __init__(
        self,
        shard_id: int,
        index: int,
        spec: ReplicaSpec,
        *,
        connect_timeout: float,
    ):
        self.shard_id = shard_id
        self.index = index
        self.spec = spec
        self.address = spec.address
        self.process: Optional[WorkerProcess] = None
        self.state = _HEALTHY
        self.open_until = 0.0
        self.consecutive_failures = 0
        self.failures = 0
        self.respawns = 0
        self.last_heartbeat: Optional[float] = None
        self._connect_timeout = connect_timeout
        self._idle: List[RemoteShardClient] = []
        self._lock = threading.Lock()

    @property
    def managed(self) -> bool:
        return self.spec.spawn is not None

    # -- connection pool ------------------------------------------------
    def acquire(self) -> RemoteShardClient:
        with self._lock:
            if self._idle:
                return self._idle.pop()
            address = self.address
        if address is None:
            raise TransportError(
                f"replica {self.name} has no address (never spawned)"
            )
        return RemoteShardClient(address, connect_timeout=self._connect_timeout)

    def release(self, client: RemoteShardClient) -> None:
        with self._lock:
            if client.address == self.address and len(self._idle) < 8:
                self._idle.append(client)
                return
        client.close()

    def discard_pool(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for client in idle:
            client.close()

    # -- naming ---------------------------------------------------------
    @property
    def name(self) -> str:
        where = (
            format_address(self.address) if self.address else "<unspawned>"
        )
        return f"shard{self.shard_id}/replica{self.index}@{where}"

    def snapshot(self) -> Dict[str, object]:
        """One JSON-ready health row (the ``/readyz`` detail)."""
        return {
            "replica": self.index,
            "address": (
                format_address(self.address) if self.address else None
            ),
            "state": self.state,
            "managed": self.managed,
            "failures": self.failures,
            "consecutive_failures": self.consecutive_failures,
            "respawns": self.respawns,
            "pid": self.process.pid if self.process is not None else None,
            "last_heartbeat_age_ms": (
                None
                if self.last_heartbeat is None
                else round((time.monotonic() - self.last_heartbeat) * 1000, 1)
            ),
        }


class ClusterExecutor:
    """Scatter-gather over replicated socket shard workers."""

    name = "cluster"

    def __init__(
        self,
        replica_specs: Sequence[Sequence[ReplicaSpec]],
        *,
        connect_timeout: float = 2.0,
        attempt_timeout: float = 30.0,
        failure_threshold: int = 2,
        open_seconds: float = 1.0,
        probe_interval: float = 0.25,
        backoff_base: float = 0.02,
        backoff_cap: float = 0.25,
        max_respawns: int = 3,
        seed: Optional[int] = None,
    ):
        if not replica_specs:
            raise ExecutorError("cluster executor needs at least one shard")
        for shard_id, specs in enumerate(replica_specs):
            if not specs:
                raise ExecutorError(
                    f"shard {shard_id} has no replicas configured"
                )
        self.shard_count = len(replica_specs)
        self._connect_timeout = connect_timeout
        self._attempt_timeout = attempt_timeout
        self._failure_threshold = max(1, int(failure_threshold))
        self._open_seconds = open_seconds
        self._probe_interval = probe_interval
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._max_respawns = max(0, int(max_respawns))
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._rr: List[int] = [0] * self.shard_count
        self._worker_stats: Dict[Tuple[str, int], Dict[str, int]] = {}
        self._failovers = Counter(
            "repro_failovers_total",
            "Requests retried on another replica after a transport failure.",
        )
        self._shed = Counter(
            "repro_cluster_shed_total",
            "Requests that failed because a shard had no healthy replica.",
        )
        self._respawn_count = Counter(
            "repro_respawns_total",
            "Managed replica worker processes respawned after dying.",
        )
        self._circuit_gauge = CallbackGauge(
            "repro_replica_circuit_state",
            "Replica circuit state (0=healthy, 1=open, 2=evicted).",
            ("shard", "replica"),
            self._circuit_levels,
        )
        self._closed = False
        self.replicas: List[List[Replica]] = [
            [
                Replica(
                    shard_id, index, spec,
                    connect_timeout=connect_timeout,
                )
                for index, spec in enumerate(specs)
            ]
            for shard_id, specs in enumerate(replica_specs)
        ]
        # Spawn managed replicas that arrived without an address.
        try:
            for shard in self.replicas:
                for replica in shard:
                    if replica.address is None:
                        self._spawn(replica, initial=True)
        except BaseException:
            self.close()
            raise
        self._prober = threading.Thread(
            target=self._probe_loop, name="cluster-prober", daemon=True
        )
        self._prober_stop = threading.Event()
        self._prober.start()

    # -- the executor surface -------------------------------------------
    def scatter(self, ops: Sequence[ShardOp]) -> List[Dict[str, object]]:
        if self._closed:
            raise ExecutorError(
                "the cluster executor has been closed; reopen the "
                "database to serve again"
            )
        deadline = current_deadline()
        if len(ops) <= 1:
            return [
                self._call_with_failover(shard_id, op, params, deadline)
                for shard_id, op, params in ops
            ]
        # Fan out concurrently: shard round-trips overlap, so a scatter
        # costs one network round trip, not shard_count of them.  The
        # calling thread takes the first op itself: one thread start
        # fewer per scatter.
        results: List[Optional[Dict[str, object]]] = [None] * len(ops)
        errors: List[BaseException] = []
        threads = []

        def _run(slot: int, shard_id: int, op: str, params: Dict[str, object]):
            try:
                results[slot] = self._call_with_failover(
                    shard_id, op, params, deadline
                )
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        for slot, (shard_id, op, params) in enumerate(ops[1:], 1):
            thread = threading.Thread(
                target=_run, args=(slot, shard_id, op, params), daemon=True
            )
            thread.start()
            threads.append(thread)
        _run(0, *ops[0])
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return results  # type: ignore[return-value]

    def broadcast(self, op: str, params: Dict[str, object]) -> List[Dict[str, object]]:
        return self.scatter([(i, op, dict(params)) for i in range(self.shard_count)])

    # -- failover core ---------------------------------------------------
    def _call_with_failover(
        self,
        shard_id: int,
        op: str,
        params: Dict[str, object],
        deadline: Optional[Deadline],
    ) -> Dict[str, object]:
        with self._lock:
            offset = self._rr[shard_id]
            self._rr[shard_id] = (offset + 1) % len(self.replicas[shard_id])
        shard = self.replicas[shard_id]
        order = [shard[(offset + i) % len(shard)] for i in range(len(shard))]
        last_error: Optional[BaseException] = None
        attempt = 0
        for replica in order:
            if deadline is not None and deadline.expired:
                raise DeadlineExceededError(
                    f"shard {shard_id} op {op!r} ran out of deadline "
                    f"during failover"
                )
            if not self._available(replica):
                continue
            client = None
            try:
                client = replica.acquire()
                timeout = self._attempt_timeout
                response = client.call(
                    shard_id, op, params, deadline=deadline, timeout=timeout
                )
                replica.release(client)
                self._mark_ok(replica)
                return self._harvest(replica, response)
            except (TransportError, OSError) as exc:
                if client is not None:
                    client.close()
                self._mark_failure(replica)
                last_error = exc
                attempt += 1
                self._failovers.inc()
                log_event(
                    _logger,
                    logging.DEBUG,
                    "failover",
                    trace_id=params.get("_trace"),
                    shard=shard_id,
                    op=op,
                    replica=replica.name,
                    attempt=attempt,
                    error=str(exc),
                )
                # Jittered exponential backoff before the next replica
                # (bounded by the deadline: shedding beats hanging).
                pause = min(
                    self._backoff_cap,
                    self._backoff_base * (2 ** (attempt - 1)),
                ) * (0.5 + self._rng.random())
                sleep_within_deadline(pause, deadline)
            except DeadlineExceededError:
                if client is not None:
                    client.close()
                raise
            except RemoteOpError:
                # The op itself failed (bad query, unknown op): every
                # replica would refuse identically — not a failover.
                if client is not None:
                    replica.release(client)
                self._mark_ok(replica)
                raise
        self._shed.inc()
        log_event(
            _logger,
            logging.WARNING,
            "shard unavailable",
            trace_id=params.get("_trace"),
            shard=shard_id,
            op=op,
            replicas=len(shard),
            error=str(last_error) if last_error else None,
        )
        detail = f": last error: {last_error}" if last_error else ""
        raise ExecutorError(
            f"shard {shard_id} has no healthy replica "
            f"({len(shard)} configured){detail}"
        )

    # -- circuit breaker -------------------------------------------------
    def _available(self, replica: Replica) -> bool:
        with self._lock:
            if replica.state == _EVICTED:
                return False
            if replica.state == _OPEN:
                # Half-open: one caller may try again after the window.
                if time.monotonic() < replica.open_until:
                    return False
                replica.open_until = time.monotonic() + self._open_seconds
                return True
            return True

    def _mark_ok(self, replica: Replica) -> None:
        with self._lock:
            replica.consecutive_failures = 0
            replica.last_heartbeat = time.monotonic()
            if replica.state == _OPEN:
                replica.state = _HEALTHY

    def _mark_failure(self, replica: Replica) -> None:
        opened = False
        with self._lock:
            replica.failures += 1
            replica.consecutive_failures += 1
            if (
                replica.state == _HEALTHY
                and replica.consecutive_failures >= self._failure_threshold
            ):
                replica.state = _OPEN
                replica.open_until = time.monotonic() + self._open_seconds
                opened = True
        replica.discard_pool()
        if opened:
            log_event(
                _logger,
                logging.DEBUG,
                "circuit opened",
                replica=replica.name,
                consecutive_failures=replica.consecutive_failures,
            )

    # -- heartbeat prober ------------------------------------------------
    def _probe_loop(self) -> None:
        while not self._prober_stop.wait(self._probe_interval):
            for shard in self.replicas:
                for replica in shard:
                    if self._prober_stop.is_set():
                        return
                    try:
                        self._probe(replica)
                    except Exception:  # pragma: no cover - defensive
                        pass

    def _probe(self, replica: Replica) -> None:
        with self._lock:
            state = replica.state
        if state == _EVICTED:
            return
        # A managed replica whose process died is respawned (or
        # evicted once out of budget) without waiting for a timeout.
        if replica.managed and (
            replica.process is None or not replica.process.alive
        ):
            self._respawn(replica)
            return
        if state == _HEALTHY:
            # Heartbeat healthy replicas only when stale: the probe is
            # for *detecting* silent death, not extra steady-state load.
            last = replica.last_heartbeat
            if last is not None and (
                time.monotonic() - last < 4 * self._probe_interval
            ):
                return
        client = None
        try:
            client = replica.acquire()
            response = client.ping(
                replica.shard_id, timeout=self._connect_timeout
            )
            replica.release(client)
            self._harvest(replica, response)
            self._mark_ok(replica)
        except (TransportError, OSError, ReproError):
            if client is not None:
                client.close()
            self._mark_failure(replica)

    def _respawn(self, replica: Replica) -> None:
        with self._lock:
            if replica.respawns >= self._max_respawns:
                replica.state = _EVICTED
                evicted = True
            else:
                replica.respawns += 1
                evicted = False
        if evicted:
            log_event(
                _logger,
                logging.WARNING,
                "replica evicted",
                replica=replica.name,
                respawns=replica.respawns,
            )
            return
        self._respawn_count.inc()
        log_event(
            _logger,
            logging.DEBUG,
            "respawning replica",
            replica=replica.name,
            respawn=replica.respawns,
        )
        replica.discard_pool()
        old = replica.process
        if old is not None and old.alive:  # pragma: no cover - defensive
            old.kill()
        try:
            process = replica.spec.spawn()
        except Exception:
            # Spawn itself failed; stay OPEN, the next probe retries
            # (and the respawn budget above still bounds attempts).
            with self._lock:
                replica.state = _OPEN
                replica.open_until = time.monotonic() + self._open_seconds
            return
        with self._lock:
            replica.process = process
            replica.address = process.address
            replica.consecutive_failures = 0
            replica.last_heartbeat = time.monotonic()
            replica.state = _HEALTHY

    def _spawn(self, replica: Replica, *, initial: bool) -> None:
        process = replica.spec.spawn()
        replica.process = process
        replica.address = process.address
        replica.last_heartbeat = time.monotonic()

    # -- observability ----------------------------------------------------
    def _circuit_levels(self) -> List[Tuple[Dict[str, object], float]]:
        with self._lock:
            return [
                (
                    {"shard": shard_id, "replica": replica.index},
                    _STATE_LEVELS.get(replica.state, 1),
                )
                for shard_id, shard in enumerate(self.replicas)
                for replica in shard
            ]

    def metric_objects(self) -> List[object]:
        """Typed metrics: failovers, sheds, respawns, circuit states."""
        return [
            self._failovers,
            self._shed,
            self._respawn_count,
            self._circuit_gauge,
        ]

    def _harvest(
        self, replica: Replica, response: Dict[str, object]
    ) -> Dict[str, object]:
        worker = response.pop("_worker", None)
        if isinstance(worker, dict) and "pid" in worker:
            address = (
                format_address(replica.address) if replica.address else "?"
            )
            with self._lock:
                self._worker_stats[(address, int(worker["pid"]))] = {
                    str(name): int(count)
                    for name, count in (worker.get("index_builds") or {}).items()
                }
        return response

    def health(self) -> Dict[str, object]:
        """Per-shard replica status: the ``/readyz`` payload.

        ``degraded`` means at least one shard is down to its **last**
        healthy replica (the next failure loses availability);
        ``unavailable`` means some shard has none left.
        """
        shards = []
        worst = "ok"
        rank = {"ok": 0, "degraded": 1, "unavailable": 2}
        with self._lock:
            for shard_id, shard in enumerate(self.replicas):
                rows = [replica.snapshot() for replica in shard]
                healthy = sum(1 for row in rows if row["state"] == _HEALTHY)
                if healthy == 0:
                    status = "unavailable"
                elif healthy == 1 and len(rows) > 1:
                    status = "degraded"
                else:
                    status = "ok"
                if rank[status] > rank[worst]:
                    worst = status
                shards.append(
                    {
                        "shard": shard_id,
                        "status": status,
                        "healthy_replicas": healthy,
                        "replicas": rows,
                    }
                )
        return {"status": worst, "shards": shards}

    def stats(self) -> Dict[str, object]:
        with self._lock:
            workers = dict(self._worker_stats)
            live = sum(
                1
                for shard in self.replicas
                for replica in shard
                if replica.state == _HEALTHY
            )
            respawns = sum(
                replica.respawns
                for shard in self.replicas
                for replica in shard
            )
        health = self.health()
        # Every registered index, so a row reads 0 before any worker
        # reported.
        builds = dict.fromkeys(index_counters(), 0)
        for counts in workers.values():
            for name, count in counts.items():
                builds[name] = builds.get(name, 0) + count
        return {
            "mode": self.name,
            "shards": self.shard_count,
            "workers": live,
            "replicas": health["shards"],
            "status": health["status"],
            "failovers": self._failovers.value,
            "shed": self._shed.value,
            "respawns": respawns,
            "index_builds": builds,
        }

    def close(self) -> None:
        """Stop probing, close pools, terminate managed workers."""
        self._closed = True
        stop = getattr(self, "_prober_stop", None)
        if stop is not None:
            stop.set()
        prober = getattr(self, "_prober", None)
        if prober is not None and prober.is_alive():
            prober.join(timeout=5)
        for shard in self.replicas:
            for replica in shard:
                replica.discard_pool()
                if replica.process is not None:
                    try:
                        replica.process.terminate()
                    except Exception:  # pragma: no cover - defensive
                        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ClusterExecutor shards={self.shard_count} "
            f"replicas={[len(shard) for shard in self.replicas]}>"
        )
