"""Cluster executor: replicas, failover, circuit breaker, health."""

import time

import pytest

from repro.api import Database
from repro.datasets import DblpConfig, dblp_document
from repro.exec import (
    ClusterExecutor,
    DeadlineExceededError,
    ExecutorError,
    Deadline,
    ReplicaSpec,
    SerialExecutor,
    ShardService,
    ShardedCollection,
    compute_shard_plan,
    deadline_scope,
    slice_store,
)
from repro.exec.remote import (
    RemoteOpError,
    ShardWorkerServer,
    services_from_bundles,
)
from repro.monet.transform import monet_transform
from repro.snapshot import write_snapshot

SHARDS = 2


@pytest.fixture(scope="module")
def store():
    return monet_transform(
        dblp_document(DblpConfig(papers_per_proceedings=3, articles_per_year=2))
    )


@pytest.fixture(scope="module")
def fabric(store):
    plan = compute_shard_plan(store, SHARDS)
    slices = slice_store(store, plan)
    services = {
        index: ShardService(shard, shard_id=index, backend="vector")
        for index, shard in enumerate(slices)
    }
    return plan, services


def _worker(services):
    return ShardWorkerServer(services, host="127.0.0.1", port=0).start()


def _cluster(addresses_per_shard, **kw):
    kw.setdefault("connect_timeout", 1.0)
    kw.setdefault("attempt_timeout", 10.0)
    kw.setdefault("backoff_base", 0.005)
    kw.setdefault("backoff_cap", 0.02)
    kw.setdefault("seed", 7)
    return ClusterExecutor(
        [
            [ReplicaSpec(address) for address in group]
            for group in addresses_per_shard
        ],
        **kw,
    )


def test_cluster_answers_match_serial(store, fabric):
    plan, services = fabric
    worker = _worker(services)
    executor = _cluster([[worker.address]] * SHARDS)
    try:
        serial = ShardedCollection(
            plan,
            store.summary,
            SerialExecutor([services[i] for i in range(SHARDS)]),
            backend_name="vector",
            generations=[0] * SHARDS,
        )
        remote = ShardedCollection(
            plan,
            store.summary,
            executor,
            backend_name="vector",
            generations=[0] * SHARDS,
        )
        for terms in [("ICDE", "1999"), ("VLDB", "1994")]:
            assert remote.nearest_concepts(*terms) == (
                serial.nearest_concepts(*terms)
            )
    finally:
        executor.close()
        worker.shutdown()


def test_bundle_worker_defaults_to_the_snapshot_backend(store, tmp_path):
    """``repro shard-worker --bundle x.snap`` without ``--backend``
    serves what ``Database.open`` picks for the same bundle."""
    path = tmp_path / "shard.snap"
    write_snapshot(store, path)
    (service,) = services_from_bundles([path]).values()
    assert service.backend_name == "vector"
    assert service.handle("ping", {})["kernel_tier"] == "vector"
    database = Database.open(path)
    try:
        assert database.backend_name == service.backend_name
    finally:
        database.close()


def test_failover_to_surviving_replica(fabric):
    _plan, services = fabric
    doomed = _worker(services)
    survivor = _worker(services)
    executor = _cluster(
        [[doomed.address, survivor.address]] * SHARDS,
    )
    try:
        assert [r["shard"] for r in executor.broadcast("ping", {})] == [0, 1]
        doomed.shutdown()
        # Every subsequent request must still succeed (no healthy-replica
        # window): the failover loop retries the survivor in-line.
        for _ in range(6):
            responses = executor.broadcast("ping", {})
            assert [r["shard"] for r in responses] == [0, 1]
        assert executor.stats()["failovers"] >= 1
    finally:
        executor.close()
        survivor.shutdown()


def test_all_replicas_down_is_typed_executor_error(fabric):
    _plan, services = fabric
    worker = _worker(services)
    executor = _cluster([[worker.address]] * SHARDS)
    try:
        executor.broadcast("ping", {})
        worker.shutdown()
        with pytest.raises(ExecutorError) as excinfo:
            for _ in range(4):  # enough attempts to open every circuit
                executor.broadcast("ping", {})
        assert excinfo.value.code == "shard_unavailable"
        assert excinfo.value.retryable
    finally:
        executor.close()


def test_remote_op_error_does_not_fail_over(fabric):
    _plan, services = fabric
    worker = _worker(services)
    executor = _cluster([[worker.address, worker.address]] * SHARDS)
    try:
        with pytest.raises(RemoteOpError):
            executor.scatter([(0, "no_such_op", {})])
        # An application error is not a replica fault: nothing failed
        # over, no circuit moved.
        assert executor.stats()["failovers"] == 0
        assert executor.health()["status"] == "ok"
    finally:
        executor.close()
        worker.shutdown()


def test_unhosted_shard_is_remote_op_error(fabric):
    # A worker hosting only shard 0 configured as shard 1's replica: a
    # deployment mistake that must surface as a typed application
    # error, not a retry storm.
    _plan, services = fabric
    worker = _worker({0: services[0]})
    executor = _cluster([[worker.address], [worker.address]])
    try:
        with pytest.raises(RemoteOpError, match="does not host shard"):
            executor.scatter([(1, "ping", {})])
        assert executor.stats()["failovers"] == 0
    finally:
        executor.close()
        worker.shutdown()


def test_expired_deadline_aborts_failover(fabric):
    _plan, services = fabric
    worker = _worker(services)
    executor = _cluster([[worker.address]] * SHARDS)
    try:
        with deadline_scope(Deadline(expires_at=0.0)):
            with pytest.raises(DeadlineExceededError):
                executor.broadcast("ping", {})
    finally:
        executor.close()
        worker.shutdown()


def test_health_degrades_on_last_replica(fabric):
    _plan, services = fabric
    doomed = _worker(services)
    survivor = _worker(services)
    executor = _cluster(
        [[doomed.address, survivor.address]] * SHARDS,
        failure_threshold=1,
        probe_interval=0.05,
    )
    try:
        assert executor.health()["status"] == "ok"
        doomed.shutdown()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            executor.broadcast("ping", {})
            health = executor.health()
            if health["status"] == "degraded":
                break
            time.sleep(0.05)
        health = executor.health()
        assert health["status"] == "degraded"
        shard0 = health["shards"][0]
        assert shard0["healthy_replicas"] == 1
        states = {row["state"] for row in shard0["replicas"]}
        assert "open" in states or "evicted" in states
    finally:
        executor.close()
        survivor.shutdown()


def test_circuit_reopens_after_recovery(fabric):
    _plan, services = fabric
    flaky = _worker(services)
    backup = _worker(services)
    address = flaky.address
    executor = _cluster(
        [[address, backup.address]] * SHARDS,
        failure_threshold=1,
        probe_interval=0.05,
        open_seconds=0.1,
    )
    try:
        executor.broadcast("ping", {})
        flaky.shutdown()
        # Drive failures until the circuit opens.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            executor.broadcast("ping", {})
            if executor.health()["status"] == "degraded":
                break
            time.sleep(0.02)
        assert executor.health()["status"] == "degraded"
        # Bring a worker back on the *same* address: the prober must
        # close the circuit again without any caller intervention.
        revived = ShardWorkerServer(
            services, host=address[0], port=address[1]
        ).start()
        try:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if executor.health()["status"] == "ok":
                    break
                time.sleep(0.05)
            assert executor.health()["status"] == "ok"
        finally:
            revived.shutdown()
    finally:
        executor.close()
        backup.shutdown()


def test_evicts_managed_replica_out_of_respawn_budget(fabric):
    _plan, services = fabric
    survivor = _worker(services)

    class _DeadOnArrival:
        """A spawned 'process' that is already dead."""

        def __init__(self, address):
            self.address = address
            self.pid = -1
            self.alive = False

        def kill(self):  # pragma: no cover - never alive
            pass

        def terminate(self):
            pass

    spawn_count = 0

    def hopeless_spawn():
        nonlocal spawn_count
        spawn_count += 1
        return _DeadOnArrival(("127.0.0.1", 1))

    executor = ClusterExecutor(
        [
            [
                ReplicaSpec(spawn=hopeless_spawn),
                ReplicaSpec(survivor.address),
            ],
        ],
        connect_timeout=0.2,
        probe_interval=0.02,
        max_respawns=2,
        seed=3,
    )
    try:
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            rows = executor.health()["shards"][0]["replicas"]
            if any(row["state"] == "evicted" for row in rows):
                break
            time.sleep(0.05)
        rows = executor.health()["shards"][0]["replicas"]
        assert any(row["state"] == "evicted" for row in rows)
        # Respawn attempts were bounded by the budget (initial spawn
        # excluded), and the shard still serves from the survivor.
        assert spawn_count <= 4
        assert executor.scatter([(0, "ping", {})])[0]["shard"] == 0
    finally:
        executor.close()
        survivor.shutdown()
