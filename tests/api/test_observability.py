"""End-to-end observability: tracing, /v1/metrics, structured logs.

The acceptance test mirrors the PR's headline criterion: a traced
query against a **2-shard × 2-replica cluster** comes back with at
least six named spans, at least one of them produced inside a remote
worker process (it carries that worker's ``pid``), and the span
timings are consistent with the envelope's own clock.
"""

import io
import json
import logging
import os
import urllib.error
import urllib.request

import pytest

import repro
from repro.api import Database, DatabaseOptions, ReproServer
from repro.datamodel.serializer import serialize
from repro.datasets import DblpConfig, dblp_document, figure1_document
from repro.monet.transform import monet_transform
from repro.obs.logs import configure_logging
from repro.snapshot import Catalog

from ..obs.prom_parser import parse_prometheus_text


def _request(url, payload=None, headers=()):
    request = urllib.request.Request(
        url,
        data=None if payload is None else json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **dict(headers)},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def _json(url, payload=None, headers=()):
    status, response_headers, body = _request(url, payload, headers)
    return status, response_headers, json.loads(body)


@pytest.fixture(scope="module")
def server():
    database = Database(
        monet_transform(figure1_document()),
        options=DatabaseOptions(backend="vector", cache=64),
    )
    with ReproServer({"figure1": database}, port=0) as running:
        yield running


@pytest.fixture(scope="module")
def cluster_server(tmp_path_factory):
    document = dblp_document(
        DblpConfig(papers_per_proceedings=3, articles_per_year=2)
    )
    root = tmp_path_factory.mktemp("obs-catalog")
    xml = root / "dblp.xml"
    xml.write_text(serialize(document), encoding="utf-8")
    Catalog(root / "cat").ingest("dblp", xml, shards=2)
    with repro.open(
        snapshot="dblp", catalog=root / "cat", replicas=2, cache=64
    ) as database:
        with ReproServer({"dblp": database}, port=0) as running:
            yield running


class TestTracedRequests:
    def test_trace_header_opts_into_spans(self, server):
        status, headers, body = _json(
            server.url("/v1/nearest"),
            {"terms": ["Bit", "1999"]},
            headers={"X-Repro-Trace": "1"},
        )
        assert status == 200
        trace = body["stats"]["trace"]
        assert headers["X-Repro-Trace-Id"] == trace["trace_id"]
        names = [span["name"] for span in trace["spans"]]
        assert "admission.wait" in names
        assert "serialize" in names
        assert trace["span_count"] == len(trace["spans"])

    def test_no_header_no_trace(self, server):
        status, headers, body = _json(
            server.url("/v1/nearest"), {"terms": ["Bit", "1999"]}
        )
        assert status == 200
        assert "trace" not in body["stats"]
        # The trace *id* is always assigned, trace or not.
        assert headers["X-Repro-Trace-Id"]

    @pytest.mark.parametrize("value", ["0", "false", "no", ""])
    def test_falsy_header_values_do_not_trace(self, server, value):
        status, _headers, body = _json(
            server.url("/v1/nearest"),
            {"terms": ["Bit", "1999"]},
            headers={"X-Repro-Trace": value},
        )
        assert status == 200
        assert "trace" not in body["stats"]

    def test_error_envelope_carries_trace_id(self, server):
        status, headers, body = _json(
            server.url("/v1/nearest"), {"terms": ["only-one"]}
        )
        assert status == 400
        assert body["trace_id"]
        assert headers["X-Repro-Trace-Id"] == body["trace_id"]
        # The envelope shape stays backward compatible.
        assert set(body) >= {"error", "status", "code", "retryable"}

    def test_unknown_route_404_carries_trace_id(self, server):
        status, headers, body = _json(server.url("/v1/nope"))
        assert status == 404
        assert headers["X-Repro-Trace-Id"] == body["trace_id"]


class TestClusterTraceAcceptance:
    def test_sharded_replicated_query_spans(self, cluster_server):
        status, _headers, body = _json(
            cluster_server.url("/v1/nearest"),
            {"terms": ["Bit", "1999"]},
            headers={"X-Repro-Trace": "1"},
        )
        assert status == 200
        trace = body["stats"]["trace"]
        spans = trace["spans"]
        names = [span["name"] for span in spans]

        # ≥ 6 named spans across the whole path.
        assert len(names) >= 6
        assert "admission.wait" in names
        assert "cache.lookup" in names
        assert "shard.scatter" in names
        assert "shard[0].nearest" in names
        assert "shard[1].nearest" in names
        assert "merge" in names
        assert "serialize" in names

        # At least one span was produced inside a remote worker
        # process: it carries that worker's pid, which is not ours.
        worker_spans = [span for span in spans if "pid" in span]
        assert worker_spans
        assert all(span["pid"] != os.getpid() for span in worker_spans)

        # Span timings are consistent with the envelope's own clock:
        # every span is non-negative, each worker span is contained in
        # the scatter that carried it, and the coordinator-side
        # exclusive stages sum to no more than the request total.
        assert all(span["ms"] >= 0 for span in spans)
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], 0.0)
            by_name[span["name"]] += span["ms"]
        epsilon = 5.0  # ms of clock slack between processes
        scatter_ms = by_name["shard.scatter"]
        for span in worker_spans:
            assert span["ms"] <= scatter_ms + epsilon
        exclusive = (
            by_name["cache.lookup"]
            + by_name["shard.scatter"]
            + by_name["merge"]
        )
        assert exclusive <= body["elapsed_ms"] + epsilon

    def test_cache_hit_trace_is_shorter(self, cluster_server):
        payload = {"terms": ["Bit", "1999"], "limit": 3}
        for _ in range(2):
            status, _headers, body = _json(
                cluster_server.url("/v1/nearest"),
                payload,
                headers={"X-Repro-Trace": "1"},
            )
            assert status == 200
        names = [
            span["name"] for span in body["stats"]["trace"]["spans"]
        ]
        assert "cache.lookup" in names
        assert "shard.scatter" not in names  # served from the cache


class TestMetricsEndpoint:
    def test_metrics_parse_strictly_and_core_series_nonzero(self, server):
        # Drive some traffic first so the series have values.
        _json(server.url("/v1/nearest"), {"terms": ["Bit", "1999"]})
        _json(server.url("/v1/nearest"), {"terms": ["Bit", "1999"]})
        status, headers, body = _request(server.url("/v1/metrics"))
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]

        families = parse_prometheus_text(body.decode("utf-8"))
        requests_total = sum(
            value
            for _name, labels, value in families["repro_http_requests_total"][
                "samples"
            ]
            if labels["route"] == "/v1/nearest" and labels["status"] == "200"
        )
        assert requests_total >= 2
        admitted = families["repro_admission_admitted_total"]["samples"]
        assert admitted[0][2] >= 2
        hits = {
            labels["collection"]: value
            for _n, labels, value in families["repro_cache_hits_total"][
                "samples"
            ]
        }
        assert hits["figure1"] >= 1  # the repeat request hit the cache
        assert families["repro_http_request_duration_seconds"]["kind"] == (
            "histogram"
        )

    def test_cluster_metrics_expose_circuit_state(self, cluster_server):
        status, _headers, body = _request(cluster_server.url("/v1/metrics"))
        assert status == 200
        families = parse_prometheus_text(body.decode("utf-8"))
        circuit = families["repro_replica_circuit_state"]["samples"]
        # 2 shards × 2 replicas, all healthy (state 0).
        assert len(circuit) == 4
        assert {
            (labels["shard"], labels["replica"]) for _n, labels, _v in circuit
        } == {("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")}
        assert all(value == 0.0 for _n, _labels, value in circuit)
        assert "repro_failovers_total" in families

    def test_stats_stays_backward_compatible(self, server):
        status, _headers, body = _json(server.url("/v1/stats"))
        assert status == 200
        # Every pre-existing key survives ...
        assert set(body) >= {
            "default",
            "collections",
            "workers",
            "index_builds",
            "admission",
        }
        admission = body["admission"]
        assert set(admission) >= {
            "in_flight",
            "queued",
            "max_concurrency",
            "max_queue",
            "admitted",
            "shed",
            "queue_timeouts",
            "latency",
        }
        assert isinstance(admission["admitted"], int)
        collection = body["collections"]["figure1"]
        assert set(collection["cache"]) >= {"hits", "misses", "currsize"}
        # ... and the new metrics view is additive.
        assert body["metrics"]["repro_http_requests_total"]["kind"] == (
            "counter"
        )


class TestAccessLog:
    @pytest.fixture(autouse=True)
    def _clean_repro_logger(self):
        logger = logging.getLogger("repro")
        saved = (list(logger.handlers), logger.level, logger.propagate)
        yield
        logger.handlers[:] = saved[0]
        logger.setLevel(saved[1])
        logger.propagate = saved[2]

    def test_json_access_line_per_request(self, server):
        stream = io.StringIO()
        configure_logging(json_logs=True, level="info", stream=stream)
        status, headers, _body = _json(
            server.url("/v1/nearest"),
            {"terms": ["Bit", "1999"]},
            headers={"X-Repro-Trace": "1"},
        )
        assert status == 200
        lines = [
            json.loads(line)
            for line in stream.getvalue().splitlines()
            if json.loads(line).get("message") == "access"
        ]
        assert lines
        record = lines[-1]
        assert record["route"] == "/v1/nearest"
        assert record["method"] == "POST"
        assert record["status"] == 200
        assert record["trace_id"] == headers["X-Repro-Trace-Id"]
        assert record["latency_ms"] >= 0
        assert record["queue_wait_ms"] >= 0
        assert record["bytes"] > 0

    def test_error_access_line_carries_code(self, server):
        stream = io.StringIO()
        configure_logging(json_logs=True, level="info", stream=stream)
        status, _headers, _body = _json(
            server.url("/v1/nearest"), {"terms": ["only-one"]}
        )
        assert status == 400
        records = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        errors = [r for r in records if r.get("status") == 400]
        assert errors
        assert errors[-1]["code"]
        assert errors[-1]["trace_id"]

    def test_slow_query_log_includes_spans(self, server):
        stream = io.StringIO()
        configure_logging(json_logs=True, level="info", stream=stream)
        server.slow_query_ms = 0.0  # every request is "slow"
        try:
            status, _headers, _body = _json(
                server.url("/v1/nearest"),
                {"terms": ["Bit", "1999"]},
                headers={"X-Repro-Trace": "1"},
            )
            assert status == 200
        finally:
            server.slow_query_ms = None
        slow = [
            json.loads(line)
            for line in stream.getvalue().splitlines()
            if json.loads(line).get("message") == "slow query"
        ]
        assert slow
        record = slow[-1]
        assert record["level"] == "warning"
        assert record["threshold_ms"] == 0.0
        assert any(span["name"] == "serialize" for span in record["spans"])
