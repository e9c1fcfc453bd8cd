"""Readers hammer the HTTP service while a writer mutates: no torn answers.

Eight reader threads loop ``POST /v1/nearest``, ``POST /v1/search`` and
``GET /v1/stats`` while one writer applies a mutation sequence.  The
write path serializes behind the database's readers–writer lock, so
every response must equal the canonical answer of *some* state in the
mutation history — the pre- or post-state of whichever mutation it
raced, never a blend.  The writer records each state's canonical
answers as it goes; readers check membership.
"""

import json
import sys
import threading
import urllib.request

from repro.api import Database, DatabaseOptions, NearestRequest, ReproServer
from repro.core.engine import NearestConceptEngine
from repro.core.lca_index import lca_index_cache_info
from repro.snapshot import Catalog

from .harness import (
    DATASETS,
    live_nearest,
    open_live,
    oracle_nearest,
    write_source,
)

READERS = 8
REQUESTS_PER_READER = 25
TERMS = ("Bit", "1999")
SEARCH_TERM = "Bit"

FRAGMENTS = DATASETS["figure1"]["fragments"]


def _canonical(db):
    """The full answer surface of the current state, as plain JSON."""
    nearest = db.nearest(
        NearestRequest(terms=TERMS, limit=10, snippets=False)
    ).answers
    search = db.search(SEARCH_TERM).answers
    return json.dumps(
        {"nearest": list(nearest), "search": list(search)}, sort_keys=True
    )


def _get(url):
    with urllib.request.urlopen(url) as response:
        return response.status, json.loads(response.read())


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


def test_readers_never_see_torn_answers(tmp_path):
    source, _model = write_source(tmp_path, "figure1")
    catalog = Catalog(tmp_path / "catalog", create=True)
    catalog.ingest("docs", source)
    db = Database.open(
        snapshot="docs",
        options=DatabaseOptions(
            catalog=catalog.root, backend="vector", cache=64
        ),
    )

    valid_states = {_canonical(db)}
    states_lock = threading.Lock()
    writer_done = threading.Event()
    failures = []

    mutations = [
        ("put", "doc-a", FRAGMENTS[0]),
        ("put", "doc-b", FRAGMENTS[1]),
        ("replace", "doc-a", FRAGMENTS[2]),
        ("delete", "doc-b", None),
        ("put", "doc-c", FRAGMENTS[3 % len(FRAGMENTS)]),
        ("delete", "doc-a", None),
        ("replace", "doc-c", FRAGMENTS[0]),
        ("put", "doc-d", FRAGMENTS[1]),
    ]

    def writer():
        try:
            for op, name, xml in mutations:
                if op == "put":
                    db.put(name, xml)
                elif op == "delete":
                    db.delete(name)
                else:
                    db.replace(name, xml)
                # Record the new state's canonical answers before the
                # next mutation; readers racing this capture can only
                # observe this state or an older one — both recorded.
                with states_lock:
                    valid_states.add(_canonical(db))
        except Exception as exc:  # pragma: no cover - failure reporting
            failures.append(f"writer: {exc!r}")
        finally:
            writer_done.set()

    def reader(server_url, index):
        try:
            for _ in range(REQUESTS_PER_READER):
                status, body = _post(
                    f"{server_url}/v1/nearest",
                    {"terms": list(TERMS), "limit": 10},
                )
                assert status == 200
                status, search_body = _post(
                    f"{server_url}/v1/search", {"term": SEARCH_TERM}
                )
                assert status == 200
                observed = json.dumps(
                    {
                        "nearest": list(body["answers"]),
                        "search": list(search_body["answers"]),
                    },
                    sort_keys=True,
                )
                # Tiny race: nearest and search are two requests, so a
                # mutation may land between them; each half must still
                # match SOME recorded state.
                with states_lock:
                    states = set(valid_states)
                halves_ok = any(
                    json.loads(state)["nearest"] == body["answers"]
                    for state in states
                ) and any(
                    json.loads(state)["search"] == search_body["answers"]
                    for state in states
                )
                if observed not in states and not halves_ok:
                    failures.append(
                        f"reader {index}: torn answer {observed[:200]}"
                    )
                status, stats = _get(f"{server_url}/v1/stats")
                assert status == 200
                writes = stats["collections"]["docs"]["writes"]
                if not (0 <= writes["mutations"] <= len(mutations)):
                    failures.append(
                        f"reader {index}: stats out of range {writes}"
                    )
        except Exception as exc:  # pragma: no cover - failure reporting
            failures.append(f"reader {index}: {exc!r}")

    server = ReproServer({"docs": db}, port=0, close_databases=True)
    with server:
        threads = [
            threading.Thread(target=reader, args=(server.url(""), index))
            for index in range(READERS)
        ]
        writer_thread = threading.Thread(target=writer)
        for thread in threads:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=60)
        for thread in threads:
            thread.join(timeout=60)
        assert writer_done.is_set(), "writer never finished"

        assert not failures, failures[:5]

        # Quiesced: the final answers equal the last recorded state and
        # the counters add up exactly.
        status, stats = _get(server.url("/v1/stats"))
        writes = stats["collections"]["docs"]["writes"]
        assert writes["mutations"] == len(mutations)
        assert writes["documents"] == len(db.documents())
        status, body = _post(
            server.url("/v1/nearest"), {"terms": list(TERMS), "limit": 10}
        )
        final = _canonical(db)
        assert json.loads(final)["nearest"] == body["answers"]


def test_first_readers_after_a_write_share_one_roll_forward(tmp_path):
    """Eight readers released together on the first read after a write.

    They all find the LCA index one generation behind under the shared
    read lock; exactly one of them may roll it forward, the rest must
    wait for the published generation, and every answer must equal the
    rebuild-from-scratch oracle.
    """
    source, model = write_source(tmp_path, "dblp")
    db = open_live(source, backend="vector")
    terms, options = DATASETS["dblp"]["terms"][0], {"limit": 10}
    fragments = DATASETS["dblp"]["fragments"]
    live_nearest(db, terms, options)  # index built and bound
    before = lca_index_cache_info()

    writes = [
        ("put", "doc-a", fragments[0]),
        ("replace", "doc-a", fragments[1]),
        ("put", "doc-b", fragments[2]),
        ("delete", "doc-a", None),
        ("replace", "doc-b", fragments[0]),
    ]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # make the threads interleave for real
    try:
        for op, name, xml in writes:
            if op == "delete":
                db.delete(name)
                model.delete(name)
            else:
                getattr(db, op)(name, xml)
                getattr(model, op)(name, xml)
            expected = oracle_nearest(
                # The steered walk needs no index: the counters below
                # then belong to the database under test alone.
                NearestConceptEngine(model.oracle_store(), backend="steered"),
                terms,
                options,
            )
            barrier = threading.Barrier(READERS)
            answers, failures = [], []

            def reader():
                try:
                    barrier.wait(timeout=30)
                    answers.append(live_nearest(db, terms, options))
                except Exception as exc:  # pragma: no cover - reporting
                    failures.append(repr(exc))

            threads = [threading.Thread(target=reader) for _ in range(READERS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures, failures[:3]
            assert answers == [expected] * READERS, f"after {op} {name}"
    finally:
        sys.setswitchinterval(switch_interval)
        db.close()
    after = lca_index_cache_info()
    assert after.builds == before.builds
    assert after.patches == before.patches + len(writes)
