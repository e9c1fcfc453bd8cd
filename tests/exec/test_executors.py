"""Executor behaviour: serial scatter, worker processes, crash recovery."""

import functools
import os
import signal
import time

import pytest

from repro.core.engine import NearestConceptEngine
from repro.datasets import DblpConfig, dblp_document
from repro.exec import (
    ClusterExecutor,
    ExecutorError,
    ReplicaSpec,
    SerialExecutor,
    ShardedCollection,
    compute_shard_plan,
    shard_services,
    spawn_worker_process,
)
from repro.monet.transform import monet_transform
from repro.snapshot import write_snapshot
from repro.snapshot.sharded import LAYOUT_KEY


@pytest.fixture(scope="module")
def store():
    return monet_transform(
        dblp_document(DblpConfig(papers_per_proceedings=3, articles_per_year=2))
    )


@pytest.fixture(scope="module")
def bundle(store, tmp_path_factory):
    """One bundle of the whole store, recording a two-shard layout."""
    plan = compute_shard_plan(store, 2)
    path = tmp_path_factory.mktemp("shards") / "dblp.snap"
    write_snapshot(store, path, extra_meta={LAYOUT_KEY: plan.to_dict()})
    return plan, path


def _workers(bundle, **kw):
    """One managed ``repro shard-worker`` process per shard."""
    plan, path = bundle
    kw.setdefault("probe_interval", 0.05)
    return ClusterExecutor(
        [
            [
                ReplicaSpec(
                    spawn=functools.partial(
                        spawn_worker_process,
                        str(path),
                        shard_ids=[shard_id],
                    )
                )
            ]
            for shard_id in range(plan.shard_count)
        ],
        **kw,
    )


def _worker_pids(executor):
    return [
        row["pid"]
        for shard in executor.health()["shards"]
        for row in shard["replicas"]
    ]


@pytest.fixture(scope="module")
def pool(bundle):
    executor = _workers(bundle)
    yield executor
    executor.close()


def test_serial_scatter_preserves_order(store):
    plan = compute_shard_plan(store, 3)
    executor = SerialExecutor(list(shard_services(store, plan).values()))
    responses = executor.broadcast("ping", {})
    assert [response["shard"] for response in responses] == [0, 1, 2]
    # The ranges tile the store: shard 0's covers the root.
    assert sum(response["nodes"] for response in responses) == (
        store.node_count
    )
    assert executor.stats()["mode"] == "serial"


def test_parallel_pool_answers_and_reports_workers(bundle, pool, store):
    responses = pool.broadcast("ping", {})
    assert [response["shard"] for response in responses] == [0, 1]
    pids = {response["pid"] for response in responses}
    assert len(pids) == 2 and os.getpid() not in pids
    stats = pool.stats()
    assert stats["mode"] == "cluster"
    assert stats["workers"] == 2
    # Bundles load pre-seeded: the workers never build an index.
    assert stats["index_builds"] == {"lca": 0, "fulltext": 0, "valueindex": 0}


def test_parallel_end_to_end_matches_engine(bundle, pool, store):
    plan, _path = bundle
    sharded = ShardedCollection(
        plan,
        store,
        pool,
        generations=(1, 1),
    )
    engine = NearestConceptEngine(store, backend="vector")
    assert sharded.nearest_concepts(
        "ICDE", "1999", limit=5
    ) == engine.nearest_concepts("ICDE", "1999", limit=5)


def test_worker_crash_fails_cleanly_then_respawns(bundle):
    executor = _workers(bundle, connect_timeout=0.5)
    try:
        assert executor.stats()["respawns"] == 0
        process = executor.replicas[0][0].process
        pid = process.pid
        os.kill(pid, signal.SIGKILL)
        # Wait for the corpse: a ping now could still be answered.
        deadline = time.monotonic() + 10
        while process.alive and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(ExecutorError):
            executor.scatter([(0, "ping", {})])
        # The prober respawns the worker and the shard serves again.
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            try:
                responses = executor.broadcast("ping", {})
                break
            except ExecutorError:
                time.sleep(0.05)
        else:
            pytest.fail("the killed worker was never respawned")
        assert [response["shard"] for response in responses] == [0, 1]
        assert responses[0]["pid"] != pid
        assert executor.stats()["respawns"] == 1
    finally:
        executor.close()


def test_worker_killed_externally_fails_cleanly(bundle):
    executor = _workers(bundle, connect_timeout=0.5)
    try:
        [response] = executor.scatter([(0, "ping", {})])
        os.kill(response["pid"], signal.SIGKILL)
        deadline = time.monotonic() + 10
        failed = False
        while time.monotonic() < deadline:
            try:
                executor.broadcast("ping", {})
            except ExecutorError:
                failed = True
                break
            time.sleep(0.05)
        assert failed, "killing the worker never surfaced an ExecutorError"
        # Recovery: the worker comes back.
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            try:
                assert len(executor.broadcast("ping", {})) == 2
                break
            except ExecutorError:
                time.sleep(0.05)
        else:
            pytest.fail("the killed worker was never respawned")
    finally:
        executor.close()


def test_invalid_construction(bundle):
    with pytest.raises(ExecutorError):
        ClusterExecutor([])
    with pytest.raises(ExecutorError):
        ClusterExecutor([[]])


def test_closed_pool_refuses_instead_of_respawning(bundle):
    """After close() the workers must never silently resurrect — their
    temp bundle may already be deleted."""
    executor = _workers(bundle)
    pids = _worker_pids(executor)
    executor.close()
    with pytest.raises(ExecutorError, match="closed"):
        executor.broadcast("ping", {})
    # Closing terminated the managed workers.
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    executor.close()  # idempotent
