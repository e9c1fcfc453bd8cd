"""The embedded HTTP/JSON service: routes, errors, and concurrency.

The headline assertion mirrors the PR's acceptance criteria: with warm
databases, 8 client threads hammering ``/v1/search`` and ``/v1/query``
(and ``/v1/nearest``) trigger **zero index rebuilds** — asserted via
the cache counters surfaced by ``/v1/stats`` — and every response body
round-trips through ``ResultEnvelope.from_dict``.
"""

import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Database, DatabaseOptions, ReproServer
from repro.api.envelopes import ResultEnvelope
from repro.core.lca_index import lca_index_cache_info
from repro.datamodel.serializer import serialize
from repro.datasets import PlaysConfig, figure1_document, plays_document
from repro.fulltext.index import fulltext_index_cache_info
from repro.monet.transform import monet_transform


def http_json(url, payload=None):
    """(status, parsed body) for a GET (payload None) or JSON POST."""
    request = urllib.request.Request(
        url,
        data=None if payload is None else json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture(scope="module")
def server():
    options = DatabaseOptions(backend="vector", cache=256)
    figure1 = Database(
        monet_transform(figure1_document()), options=options
    )
    plays = Database(
        monet_transform(
            plays_document(PlaysConfig(plays=2, acts_per_play=2, scenes_per_act=2))
        ),
        options=options,
    )
    with ReproServer(
        {"figure1": figure1, "plays": plays}, default="figure1", port=0
    ) as running:
        yield running


QUERY_TEXT = (
    "select meet($a,$b) from # $a, # $b "
    "where $a contains 'Bit' and $b contains '1999'"
)


class TestRoutes:
    def test_healthz(self, server):
        status, body = http_json(server.url("/healthz"))
        assert status == 200
        assert body["status"] == "ok"
        assert body["collections"] == ["figure1", "plays"]
        assert body["default"] == "figure1"

    def test_collections(self, server):
        status, body = http_json(server.url("/v1/collections"))
        assert status == 200
        assert body["collections"]["figure1"]["node_count"] == 19
        assert body["collections"]["plays"]["backend"] == "vector"

    def test_stats(self, server):
        status, body = http_json(server.url("/v1/stats"))
        assert status == 200
        row = body["collections"]["figure1"]
        assert row["backend"] == "vector"
        # Index-build counters are process-wide, reported once.
        assert set(body["index_builds"]) == {"lca", "fulltext", "valueindex"}

    def test_nearest(self, server):
        status, body = http_json(
            server.url("/v1/nearest"), {"terms": ["Bit", "1999"]}
        )
        assert status == 200
        envelope = ResultEnvelope.from_dict(body)
        assert envelope.answers[0]["tag"] == "article"
        assert envelope.answers[0]["joins"] == 5

    def test_search(self, server):
        status, body = http_json(server.url("/v1/search"), {"term": "Bit"})
        assert status == 200
        envelope = ResultEnvelope.from_dict(body)
        assert envelope.count == 1

    def test_query(self, server):
        status, body = http_json(
            server.url("/v1/query"), {"text": QUERY_TEXT, "render": True}
        )
        assert status == 200
        envelope = ResultEnvelope.from_dict(body)
        assert envelope.count == len(envelope.rows) == 1
        assert "<answer>" in envelope.rendered

    def test_collection_routing(self, server):
        status, body = http_json(
            server.url("/v1/nearest"),
            {"terms": ["crown", "ghost"], "collection": "plays"},
        )
        assert status == 200
        assert ResultEnvelope.from_dict(body).stats["backend"] == "vector"


class TestErrors:
    def test_unknown_route(self, server):
        status, body = http_json(server.url("/v1/teleport"), {})
        assert status == 404 and "unknown route" in body["error"]

    def test_unknown_collection(self, server):
        status, body = http_json(
            server.url("/v1/search"), {"term": "x", "collection": "ghost"}
        )
        assert status == 404 and "unknown collection" in body["error"]

    def test_malformed_json(self, server):
        request = urllib.request.Request(
            server.url("/v1/search"),
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_single_term_nearest_is_400(self, server):
        status, body = http_json(server.url("/v1/nearest"), {"terms": ["solo"]})
        assert status == 400 and "two terms" in body["error"]

    def test_kind_route_mismatch(self, server):
        status, body = http_json(
            server.url("/v1/search"), {"kind": "query", "text": "x"}
        )
        assert status == 400 and "does not match route" in body["error"]

    def test_bad_query_is_400(self, server):
        status, body = http_json(
            server.url("/v1/query"), {"text": "selekt nothing"}
        )
        assert status == 400 and "error" in body


class TestLifecycle:
    def test_shutdown_before_serving_returns_promptly(self):
        # BaseServer.shutdown() blocks on an event only the serve loop
        # sets; ReproServer.shutdown must not hang when the loop never
        # ran (e.g. Ctrl-C before startup finished).
        database = Database(monet_transform(figure1_document()))
        server = ReproServer({"bib": database}, port=0)
        server.shutdown()  # must return, releasing the port

    def test_oversized_body_closes_connection(self, server):
        # A 413 is sent before the body is read; the server must close
        # the connection, otherwise the unread bytes would sit on the
        # keep-alive stream and be misparsed as the next request line.
        import socket

        from repro.api.server import MAX_BODY_BYTES

        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            head = (
                f"POST /v1/search HTTP/1.1\r\n"
                f"Host: {server.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
            ).encode()
            sock.sendall(head + b'{"term": "')  # body mostly unsent
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break  # EOF: the server closed the connection
                chunks.append(chunk)
            response = b"".join(chunks)
            assert b"413" in response.split(b"\r\n", 1)[0]
            assert b"Connection: close" in response


class TestConcurrency:
    def test_eight_threads_zero_rebuilds(self, server):
        # Warm both collections through every endpoint once, then
        # freeze the process-wide index-build counters.
        http_json(server.url("/v1/nearest"), {"terms": ["Bit", "1999"]})
        http_json(server.url("/v1/query"), {"text": QUERY_TEXT})
        http_json(
            server.url("/v1/nearest"),
            {"terms": ["crown", "ghost"], "collection": "plays"},
        )
        lca_builds = lca_index_cache_info().builds
        ft_builds = fulltext_index_cache_info().builds
        _, stats_before = http_json(server.url("/v1/stats"))
        hits_before = stats_before["collections"]["figure1"]["cache"]["hits"]

        payloads = [
            ("/v1/nearest", {"terms": ["Bit", "1999"], "limit": 5}),
            ("/v1/search", {"term": "Bit"}),
            ("/v1/query", {"text": QUERY_TEXT}),
            (
                "/v1/nearest",
                {"terms": ["crown", "ghost"], "collection": "plays"},
            ),
            ("/v1/query", {"text": QUERY_TEXT, "render": True}),
        ]

        def hammer(index: int):
            route, payload = payloads[index % len(payloads)]
            status, body = http_json(server.url(route), payload)
            assert status == 200
            envelope = ResultEnvelope.from_dict(body)
            assert envelope.to_dict() == body
            return envelope

        with ThreadPoolExecutor(max_workers=8) as pool:
            envelopes = list(pool.map(hammer, range(96)))
        assert len(envelopes) == 96

        # Zero index rebuilds under concurrent load …
        assert lca_index_cache_info().builds == lca_builds
        assert fulltext_index_cache_info().builds == ft_builds
        # … and the shared result cache absorbed the repeats (the
        # counters are exposed via /v1/stats, per acceptance criteria).
        _, stats_after = http_json(server.url("/v1/stats"))
        cache_row = stats_after["collections"]["figure1"]["cache"]
        assert cache_row["hits"] > hits_before
        assert stats_after["index_builds"]["lca"] == lca_index_cache_info().builds
        assert (
            stats_after["index_builds"]["fulltext"]
            == fulltext_index_cache_info().builds
        )
