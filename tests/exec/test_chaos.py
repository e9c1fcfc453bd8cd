"""Randomized fault injection: chaos runs end byte-identical to serial.

Two layers of guarantee, both driven by the seeded
:class:`tests.exec.chaos.ChaosProxy`:

* **with a healthy backup replica**, every query *succeeds* and its
  answer is byte-identical to the serial executor's, no matter what
  the proxy does to the primary — delays, drops, torn frames,
  corrupted checksums, connection kills;
* **with only chaotic replicas**, every query either succeeds with
  the correct answer or raises a *typed* error
  (:class:`ExecutorError` / :class:`DeadlineExceededError`) within
  its deadline — never a wrong answer, never a hang.

The fault schedule is seeded; the seed is baked into the failure
message, so any failure replays with
``REPRO_CHAOS_SEED=<seed> python -m pytest tests/exec/test_chaos.py``.
"""

import os
import random
import time

import pytest

from repro.datasets import DblpConfig, dblp_document
from repro.exec import (
    ClusterExecutor,
    Deadline,
    DeadlineExceededError,
    ExecutorError,
    ReplicaSpec,
    SerialExecutor,
    ShardedCollection,
    compute_shard_plan,
    deadline_scope,
)
from repro.exec.remote import ShardWorkerServer, services_from_bundle
from repro.monet.transform import monet_transform
from repro.snapshot import write_snapshot
from repro.snapshot.sharded import LAYOUT_KEY

from .chaos import ChaosProxy

SHARDS = 2

#: Every fault kind, weighted towards actual faults.
CHAOS_WEIGHTS = {
    "ok": 3.0,
    "delay": 1.0,
    "drop": 1.0,
    "torn": 1.0,
    "corrupt": 1.0,
    "kill": 1.0,
}

QUERIES = [
    ("ICDE", "1999"),
    ("VLDB", "1994"),
    ("SIGMOD", "1988"),
    ("ICDE", "2001"),
]


def _seed() -> int:
    env = os.environ.get("REPRO_CHAOS_SEED")
    return int(env) if env else random.randrange(2**32)


@pytest.fixture(scope="module")
def fabric(tmp_path_factory):
    store = monet_transform(
        dblp_document(DblpConfig(papers_per_proceedings=4, articles_per_year=2))
    )
    plan = compute_shard_plan(store, SHARDS)
    # Every worker maps the one bundle: the store plus its layout.
    bundle = tmp_path_factory.mktemp("chaos") / "dblp.snap"
    write_snapshot(store, bundle, extra_meta={LAYOUT_KEY: plan.to_dict()})
    services = services_from_bundle(bundle)
    serial = ShardedCollection(
        plan,
        store,
        SerialExecutor([services[i] for i in range(SHARDS)]),
        generations=[0] * SHARDS,
    )
    baselines = {terms: serial.nearest_concepts(*terms) for terms in QUERIES}
    return store, plan, services, baselines


def _collection(store, plan, executor):
    return ShardedCollection(
        plan,
        store,
        executor,
        generations=[0] * SHARDS,
    )


def test_chaos_with_backup_replica_is_byte_identical(fabric):
    store, plan, services, baselines = fabric
    seed = _seed()
    worker = ShardWorkerServer(services, host="127.0.0.1", port=0).start()
    proxy = ChaosProxy(
        worker.address, seed=seed, weights=CHAOS_WEIGHTS, max_delay=0.05
    ).start()
    # Shard replica order: the chaotic proxy first, the direct worker
    # as backup — failover must absorb every injected fault.
    executor = ClusterExecutor(
        [[ReplicaSpec(proxy.address), ReplicaSpec(worker.address)]] * SHARDS,
        connect_timeout=1.0,
        attempt_timeout=5.0,
        backoff_base=0.005,
        backoff_cap=0.02,
        failure_threshold=3,
        open_seconds=0.05,
        seed=seed,
    )
    collection = _collection(store, plan, executor)
    try:
        for round_index in range(10):
            for terms in QUERIES:
                with deadline_scope(Deadline.after(30.0)):
                    actual = collection.nearest_concepts(*terms)
                assert actual == baselines[terms], (
                    f"chaos run diverged from serial "
                    f"(seed={seed}, round={round_index}, terms={terms}) — "
                    f"replay with REPRO_CHAOS_SEED={seed}"
                )
        assert sum(proxy.injected.values()) > 0
    finally:
        executor.close()
        proxy.stop()
        worker.shutdown()


def test_chaos_without_backup_never_wrong_never_hangs(fabric):
    store, plan, services, baselines = fabric
    seed = _seed()
    worker = ShardWorkerServer(services, host="127.0.0.1", port=0).start()
    proxies = [
        ChaosProxy(
            worker.address, seed=seed + i, weights=CHAOS_WEIGHTS,
            max_delay=0.05,
        ).start()
        for i in range(SHARDS)
    ]
    executor = ClusterExecutor(
        [[ReplicaSpec(proxy.address)] for proxy in proxies],
        connect_timeout=1.0,
        attempt_timeout=2.0,
        backoff_base=0.005,
        backoff_cap=0.02,
        failure_threshold=1_000_000,  # keep circuits closed: max churn
        seed=seed,
    )
    collection = _collection(store, plan, executor)
    outcomes = {"ok": 0, "unavailable": 0, "deadline": 0}
    try:
        for round_index in range(12):
            for terms in QUERIES:
                started = time.monotonic()
                budget = 3.0
                try:
                    with deadline_scope(Deadline.after(budget)):
                        actual = collection.nearest_concepts(*terms)
                except ExecutorError:
                    outcomes["unavailable"] += 1
                except DeadlineExceededError:
                    outcomes["deadline"] += 1
                else:
                    outcomes["ok"] += 1
                    assert actual == baselines[terms], (
                        f"chaos produced a WRONG ANSWER "
                        f"(seed={seed}, round={round_index}, "
                        f"terms={terms}) — replay with "
                        f"REPRO_CHAOS_SEED={seed}"
                    )
                elapsed = time.monotonic() - started
                assert elapsed < budget + 2.0, (
                    f"request overran its deadline by {elapsed - budget:.1f}s "
                    f"(seed={seed}) — replay with REPRO_CHAOS_SEED={seed}"
                )
        # The schedule weighted half the frames as faults: the run
        # must actually have exercised them.
        total_faults = sum(
            sum(v for k, v in proxy.injected.items() if k != "ok")
            for proxy in proxies
        )
        assert total_faults > 0, f"no faults injected (seed={seed})"
    finally:
        executor.close()
        for proxy in proxies:
            proxy.stop()
        worker.shutdown()


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: signal 0 probes existence
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def test_managed_worker_exits_with_its_killed_spawner(tmp_path):
    """SIGKILL the process that spawned a ``repro shard-worker``: the
    worker reads EOF on the stdin pipe its spawner held and exits."""
    import selectors
    import signal
    import subprocess
    import sys

    import repro
    from repro.datasets import figure1_document

    bundle = tmp_path / "figure1.snap"
    write_snapshot(monet_transform(figure1_document()), bundle)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    script = (
        "import time\n"
        "from repro.exec.remote import spawn_worker_process\n"
        f"worker = spawn_worker_process({str(bundle)!r})\n"
        "print(worker.pid, flush=True)\n"
        "time.sleep(120)\n"
    )
    spawner = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    worker = None
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(spawner.stdout, selectors.EVENT_READ)
            assert selector.select(timeout=60), "spawner never reported"
        worker = int(spawner.stdout.readline())
        assert _running(worker)
        spawner.kill()
        spawner.wait(timeout=10)
        deadline = time.monotonic() + 15
        while _running(worker) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not _running(worker), "the worker outlived its spawner"
    finally:
        if spawner.poll() is None:
            spawner.kill()
            spawner.wait(timeout=10)
        spawner.stdout.close()
        if worker is not None and _running(worker):
            os.kill(worker, signal.SIGKILL)
