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
    ShardedCollection,
    compute_shard_plan,
    shard_services,
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


@pytest.fixture(scope="module")
def pool(bundle):
    plan, path = bundle
    executor = ParallelExecutor(path, plan, workers=2, backend="vector")
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
    assert pids and os.getpid() not in pids
    stats = pool.stats()
    assert stats["mode"] == "parallel"
    assert stats["workers"] == 2
    # Bundles load pre-seeded: the pool never builds an index.
    assert stats["index_builds"] == {"lca": 0, "fulltext": 0}


def test_parallel_end_to_end_matches_engine(bundle, pool, store):
    plan, _path = bundle
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


def test_worker_crash_fails_cleanly_then_respawns(bundle):
    plan, path = bundle
    executor = ParallelExecutor(path, plan, workers=1, backend="vector")
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


def test_worker_killed_externally_fails_cleanly(bundle):
    plan, path = bundle
    executor = ParallelExecutor(path, plan, workers=1, backend="vector")
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


def test_invalid_construction(bundle):
    plan, path = bundle
    with pytest.raises(ExecutorError):
        ParallelExecutor(path, plan, workers=0)


def test_closed_pool_refuses_instead_of_respawning(bundle):
    """After close() the pool must never silently resurrect — its temp
    bundle may already be deleted."""
    plan, path = bundle
    executor = ParallelExecutor(path, plan, workers=1, backend="vector")
    executor.close()
    with pytest.raises(ExecutorError, match="closed"):
        executor.broadcast("ping", {})
    executor.close()  # idempotent
