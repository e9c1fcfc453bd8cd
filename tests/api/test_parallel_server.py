"""HTTP serving over one worker process per shard (``replicas=1``).

The server must stay rebuild-free under concurrent traffic with the
compute running in socket workers, merge worker counters into one
process-tree ``/v1/stats`` view, and survive a worker being killed
mid-flight: with no other replica the in-flight request fails cleanly
(503), the prober respawns the worker, the server keeps serving.
"""

import http.client
import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.api import Database, NearestRequest, ReproServer
from repro.datamodel.serializer import serialize
from repro.datasets import DblpConfig, dblp_document
from repro.monet.transform import monet_transform
from repro.snapshot import Catalog


@pytest.fixture(scope="module")
def catalog_dir(tmp_path_factory):
    document = dblp_document(
        DblpConfig(papers_per_proceedings=3, articles_per_year=2)
    )
    root = tmp_path_factory.mktemp("catalog")
    xml = root / "dblp.xml"
    xml.write_text(serialize(document), encoding="utf-8")
    Catalog(root / "cat").ingest("dblp", xml, shards=2)
    return root / "cat", document


def _post(server, payload, path="/v1/nearest"):
    connection = http.client.HTTPConnection(server.host, server.port)
    try:
        connection.request(
            "POST",
            path,
            body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _get(server, path):
    connection = http.client.HTTPConnection(server.host, server.port)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _worker_pids(executor_stats):
    """The live worker pids of a cluster executor's stats row."""
    return [
        row["pid"]
        for shard in executor_stats["replicas"]
        for row in shard["replicas"]
    ]


def test_parallel_serving_zero_rebuilds_and_merged_stats(catalog_dir):
    root, document = catalog_dir
    reference = Database(monet_transform(document))
    expected = reference.nearest(NearestRequest(terms=("ICDE", "1999")))
    # The fixtures above built indexes in *this* process (snapshot
    # writes, the reference engine); zero the process-global counters
    # so the assertion measures serving only.
    from repro.core.lca_index import clear_lca_index_cache
    from repro.fulltext.index import clear_fulltext_index_cache

    clear_lca_index_cache()
    clear_fulltext_index_cache()
    with repro.open(snapshot="dblp", catalog=root, replicas=1) as database:
        with ReproServer(database, port=0) as server:
            def hammer(_index):
                status, payload = _post(
                    server, {"terms": ["ICDE", "1999"], "limit": 10}
                )
                assert status == 200
                return payload["answers"]

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(hammer, range(24)))
            for answers in results:
                assert answers == [dict(a) for a in expected.answers]

            status, stats = _get(server, "/v1/stats")
            assert status == 200
            # One process-tree view: serving process + both workers.
            assert stats["workers"] == 2
            assert stats["index_builds"]["lca"] == 0
            assert stats["index_builds"]["fulltext"] == 0
            executor = stats["collections"]["default"]["executor"]
            assert executor["mode"] == "cluster"
            assert len(_worker_pids(executor)) == 2


def test_worker_value_index_builds_reach_the_stats(catalog_dir):
    """An ``=`` query builds a value index inside each shard worker (the
    bundle declares none); ``/v1/stats`` counts those builds with the
    rest of the process tree, on the executor row and the merged row."""
    root, _document = catalog_dir
    query = "select $a from dblp/inproceedings/year/cdata $a where $a = '1999'"
    with repro.open(snapshot="dblp", catalog=root, replicas=1) as database:
        with ReproServer(database, port=0) as server:
            _status, before = _get(server, "/v1/stats")
            status, payload = _post(server, {"text": query}, path="/v1/query")
            assert status == 200 and payload["rows"]
            _status, after = _get(server, "/v1/stats")
    executor = after["collections"]["default"]["executor"]["index_builds"]
    assert set(executor) == {"lca", "fulltext", "valueindex"}
    assert executor["valueindex"] >= 1
    assert after["index_builds"]["valueindex"] >= (
        before["index_builds"]["valueindex"] + executor["valueindex"]
    )


def test_worker_killed_mid_query_fails_cleanly_server_stays_up(catalog_dir):
    root, _document = catalog_dir
    with repro.open(snapshot="dblp", catalog=root, replicas=1) as database:
        with ReproServer(database, port=0) as server:
            status, _payload = _post(server, {"terms": ["ICDE", "1999"]})
            assert status == 200
            pids = _worker_pids(database.sharded.executor.stats())
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            # The first request to notice the corpse fails cleanly.
            deadline = time.monotonic() + 10
            saw_failure = False
            while time.monotonic() < deadline:
                status, payload = _post(server, {"terms": ["ICDE", "1999"]})
                if status == 503:
                    saw_failure = True
                    assert payload["code"] == "shard_unavailable"
                    assert "no healthy replica" in payload["error"]
                    break
                time.sleep(0.05)
            assert saw_failure, "killed worker never produced a 503"
            # ... and the server is still up: the workers respawned.
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                status, payload = _post(server, {"terms": ["ICDE", "1999"]})
                if status == 200:
                    break
                time.sleep(0.05)
            assert status == 200
            assert payload["count"] >= 1
            status, _health = _get(server, "/healthz")
            assert status == 200


def test_respawn_under_sustained_concurrent_traffic(catalog_dir):
    """SIGKILL mid-hammer: bounded failure window, no duplicate builds.

    Concurrent traffic keeps flowing while every worker is killed.
    Requests in the failure window 503 cleanly; once any request
    succeeds again (the workers respawned), **no later request may fail**
    — and the respawned workers must reload their bundles with
    pre-seeded indexes, so the index-build counters stay at zero.
    """
    from concurrent.futures import ThreadPoolExecutor as _TPE

    root, _document = catalog_dir
    from repro.core.lca_index import clear_lca_index_cache
    from repro.fulltext.index import clear_fulltext_index_cache

    clear_lca_index_cache()
    clear_fulltext_index_cache()
    with repro.open(snapshot="dblp", catalog=root, replicas=1) as database:
        with ReproServer(database, port=0) as server:
            stop_at = time.monotonic() + 12
            kill_at = time.monotonic() + 1.0
            killed = threading.Event()

            def hammer(worker_index):
                # (monotonic_time, status) per request, in order.
                timeline = []
                while time.monotonic() < stop_at:
                    status, _payload = _post(
                        server, {"terms": ["ICDE", "1999"], "limit": 5}
                    )
                    timeline.append((time.monotonic(), status))
                    if killed.is_set() and status == 200:
                        # Traffic has provably recovered; a couple more
                        # successes and this thread can stop.
                        if [s for _, s in timeline[-3:]] == [200] * 3:
                            break
                return timeline

            def assassin():
                while time.monotonic() < kill_at:
                    time.sleep(0.01)
                pids = _worker_pids(database.sharded.executor.stats())
                for pid in pids:
                    os.kill(pid, signal.SIGKILL)
                killed.set()
                return pids

            with _TPE(max_workers=7) as pool:
                futures = [pool.submit(hammer, index) for index in range(6)]
                killed_pids = pool.submit(assassin).result()
                timelines = [future.result() for future in futures]

            assert killed_pids, "nothing was killed; the test proved nothing"
            merged = sorted(
                entry for timeline in timelines for entry in timeline
            )
            assert merged, "no traffic flowed"
            statuses = {status for _, status in merged}
            assert statuses <= {200, 503}, f"unexpected statuses: {statuses}"
            # Failures are *contained*: nothing after the last success
            # preceded by a failure window may fail again — i.e. once
            # the workers respawned and served, they stayed up.
            last_failure = max(
                (stamp for stamp, status in merged if status == 503),
                default=None,
            )
            successes_after = [
                stamp
                for stamp, status in merged
                if status == 200 and (last_failure is None or stamp > last_failure)
            ]
            assert successes_after, (
                "traffic never recovered after the kill "
                f"(last_failure={last_failure})"
            )

            status, stats = _get(server, "/v1/stats")
            assert status == 200
            executor_stats = stats["collections"]["default"]["executor"]
            # Exactly one respawn per killed worker: concurrent
            # failures must not each restart a worker.
            assert executor_stats["respawns"] == len(killed_pids)
            # The respawned workers reloaded warm bundles: zero index
            # rebuilds anywhere in the process tree.
            assert stats["index_builds"]["lca"] == 0
            assert stats["index_builds"]["fulltext"] == 0
            # The replacements are a different set of processes.
            fresh = set(_worker_pids(executor_stats)) - set(killed_pids)
            assert len(fresh) == 2
            assert database.sharded.executor.stats()["respawns"] == 2
