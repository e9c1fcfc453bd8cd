"""Executor behaviour: serial scatter, the process pool, crash recovery."""

import os
import signal
import time

import pytest

from repro.core.engine import NearestConceptEngine
from repro.datasets import DblpConfig, dblp_document
from repro.exec import (
    ExecutorError,
    ParallelExecutor,
    SerialExecutor,
    ShardService,
    ShardedCollection,
    compute_shard_plan,
    slice_store,
)
from repro.monet.transform import monet_transform
from repro.snapshot.sharded import write_shard_bundles


@pytest.fixture(scope="module")
def store():
    return monet_transform(
        dblp_document(DblpConfig(papers_per_proceedings=3, articles_per_year=2))
    )


@pytest.fixture(scope="module")
def bundles(store, tmp_path_factory):
    directory = tmp_path_factory.mktemp("shards")
    plan, paths, _size = write_shard_bundles(
        store, directory, "dblp", shards=2
    )
    return plan, paths


@pytest.fixture(scope="module")
def pool(bundles):
    _plan, paths = bundles
    executor = ParallelExecutor(paths, workers=2, backend="vector")
    yield executor
    executor.close()


def test_serial_scatter_preserves_order(store):
    plan = compute_shard_plan(store, 3)
    slices = slice_store(store, plan)
    executor = SerialExecutor(
        [ShardService(s, shard_id=i) for i, s in enumerate(slices)]
    )
    responses = executor.broadcast("ping", {})
    assert [response["shard"] for response in responses] == [0, 1, 2]
    assert sum(response["nodes"] for response in responses) == (
        store.node_count + plan.shard_count - 1
    )
    assert executor.stats()["mode"] == "serial"


def test_parallel_pool_answers_and_reports_workers(bundles, pool, store):
    plan, _paths = bundles
    responses = pool.broadcast("ping", {})
    assert [response["shard"] for response in responses] == [0, 1]
    pids = {response["pid"] for response in responses}
    assert pids and os.getpid() not in pids
    stats = pool.stats()
    assert stats["mode"] == "parallel"
    assert stats["workers"] == 2
    # Bundles load pre-seeded: the pool never builds an index.
    assert stats["index_builds"] == {"lca": 0, "fulltext": 0}


def test_parallel_end_to_end_matches_engine(bundles, pool, store):
    plan, _paths = bundles
    sharded = ShardedCollection(
        plan,
        store.summary,
        pool,
        backend_name="vector",
        generations=(1, 1),
    )
    engine = NearestConceptEngine(store, backend="vector")
    assert sharded.nearest_concepts(
        "ICDE", "1999", limit=5
    ) == engine.nearest_concepts("ICDE", "1999", limit=5)


def test_worker_crash_fails_cleanly_then_respawns(bundles):
    _plan, paths = bundles
    executor = ParallelExecutor(paths, workers=1, backend="vector")
    try:
        before = executor.stats()
        assert before["respawns"] == 0
        with pytest.raises(ExecutorError):
            executor.scatter([(0, "_crash", {})])
        # The very next request respawns the pool and succeeds.
        responses = executor.broadcast("ping", {})
        assert [response["shard"] for response in responses] == [0, 1]
        assert executor.stats()["respawns"] == 1
    finally:
        executor.close()


def test_worker_killed_externally_fails_cleanly(bundles):
    _plan, paths = bundles
    executor = ParallelExecutor(paths, workers=1, backend="vector")
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
        # Recovery: the pool comes back.
        assert len(executor.broadcast("ping", {})) == 2
    finally:
        executor.close()


def test_invalid_construction(bundles):
    _plan, paths = bundles
    with pytest.raises(ExecutorError):
        ParallelExecutor(paths, workers=0)
    with pytest.raises(ExecutorError):
        ParallelExecutor([], workers=1)


def test_closed_pool_refuses_instead_of_respawning(bundles):
    """After close() the pool must never silently resurrect — its temp
    bundles may already be deleted."""
    _plan, paths = bundles
    executor = ParallelExecutor(paths, workers=1, backend="vector")
    executor.close()
    with pytest.raises(ExecutorError, match="closed"):
        executor.broadcast("ping", {})
    executor.close()  # idempotent
