"""Prepared statements through the facade and over HTTP.

Covers the prepare → execute lifecycle (deterministic handles, binding
per call, unknown-handle errors), the plan payload in envelope stats,
and the planner/prepared metric families on ``/v1/metrics``.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.api import Database, DatabaseOptions, ReproServer
from repro.api.envelopes import (
    ExecuteRequest,
    PrepareRequest,
    QueryRequest,
    ResultEnvelope,
)
from repro.datamodel.errors import QueryPlanError
from repro.datasets import figure1_document
from repro.monet.transform import monet_transform

TEMPLATE = "select $a from # $a where $a = $v"


def http_json(url, payload=None):
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


@pytest.fixture()
def database():
    db = Database(
        monet_transform(figure1_document()),
        options=DatabaseOptions(backend="vector", cache=64),
    )
    yield db
    db.close()


class TestFacade:
    def test_prepare_is_deterministic_and_idempotent(self, database):
        first = database.prepare(TEMPLATE)
        second = database.prepare(PrepareRequest(text=TEMPLATE))
        assert first["handle"] == second["handle"]
        assert first["handle"].startswith("q")
        assert first["parameters"] == ["v"]

    def test_prepare_surfaces_syntax_errors(self, database):
        with pytest.raises(Exception):
            database.prepare("selekt nonsense")

    def test_execute_binds_per_call(self, database):
        handle = database.prepare(TEMPLATE)["handle"]
        bit = database.execute(handle, params={"v": "Bit"})
        ben = database.execute(handle, params={"v": "Ben"})
        assert bit.rows and ben.rows
        assert bit.rows != ben.rows

    def test_execute_matches_adhoc_query(self, database):
        handle = database.prepare(TEMPLATE)["handle"]
        prepared = database.execute(handle, params={"v": "Bit"})
        adhoc = database.query(
            QueryRequest(text=TEMPLATE, params={"v": "Bit"})
        )
        assert prepared.rows == adhoc.rows
        assert prepared.columns == adhoc.columns

    def test_execute_unknown_handle_raises(self, database):
        with pytest.raises(QueryPlanError):
            database.execute("q0000000000000000", params={"v": "x"})

    def test_execute_stats_carry_plan_and_plan_cache(self, database):
        handle = database.prepare(TEMPLATE)["handle"]
        envelope = database.execute(
            ExecuteRequest(handle=handle, params={"v": "Bit"})
        )
        plan = envelope.stats["plan"]
        assert plan["conditions"][0]["access"] == "value-index"
        assert set(envelope.stats["plan_cache"]) == {
            "hits",
            "misses",
            "currsize",
        }

    def test_plan_reused_across_distinct_bindings(self, database):
        handle = database.prepare(TEMPLATE)["handle"]
        database.execute(handle, params={"v": "Bit"})
        database.execute(handle, params={"v": "Ben"})
        database.execute(handle, params={"v": "1999"})
        info = database.plan_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 2

    def test_adhoc_query_stats_carry_plan(self, database):
        envelope = database.query(
            QueryRequest(text=TEMPLATE, params={"v": "Bit"})
        )
        assert envelope.stats["plan"]["mode"] == "enumeration"

    def test_metrics_families_registered(self, database):
        database.prepare(TEMPLATE)
        names = {
            metric.name for metric in database.metrics()  # type: ignore
        }
        assert "repro_prepared_statements" in names
        assert "repro_prepared_executions_total" in names
        assert "repro_planner_plan_cache_hits" in names
        assert "repro_planner_plan_cache_misses" in names


@pytest.fixture(scope="module")
def server():
    database = Database(
        monet_transform(figure1_document()),
        options=DatabaseOptions(backend="vector", cache=64),
    )
    with ReproServer({"figure1": database}, port=0) as running:
        yield running


class TestHttp:
    def test_prepare_execute_round_trip(self, server):
        status, prepared = http_json(
            server.url("/v1/prepare"), {"text": TEMPLATE}
        )
        assert status == 200
        assert prepared["parameters"] == ["v"]
        handle = prepared["handle"]

        status, executed = http_json(
            server.url("/v1/execute"),
            {"handle": handle, "params": {"v": "Bit"}},
        )
        assert status == 200
        envelope = ResultEnvelope.from_dict(executed)
        assert envelope.count == 1

        status, adhoc = http_json(
            server.url("/v1/query"),
            {"text": TEMPLATE, "params": {"v": "Bit"}},
        )
        assert status == 200
        assert executed["rows"] == adhoc["rows"]

    def test_execute_unknown_handle_is_400(self, server):
        status, body = http_json(
            server.url("/v1/execute"),
            {"handle": "q0000000000000000", "params": {"v": "x"}},
        )
        assert status == 400
        assert body["code"] == "query_error"

    def test_execute_missing_binding_is_400(self, server):
        status, prepared = http_json(
            server.url("/v1/prepare"), {"text": TEMPLATE}
        )
        handle = prepared["handle"]
        status, body = http_json(
            server.url("/v1/execute"), {"handle": handle}
        )
        assert status == 400
        assert body["code"] == "query_error"

    def test_metrics_expose_prepared_series(self, server):
        http_json(server.url("/v1/prepare"), {"text": TEMPLATE})
        _, prepared = http_json(server.url("/v1/prepare"), {"text": TEMPLATE})
        for value in ("Bit", "Ben"):
            status, _body = http_json(
                server.url("/v1/execute"),
                {"handle": prepared["handle"], "params": {"v": value}},
            )
            assert status == 200
        with urllib.request.urlopen(server.url("/v1/metrics")) as response:
            text = response.read().decode()
        assert 'repro_prepared_statements{collection="figure1"}' in text
        assert 'repro_prepared_executions_total{collection="figure1"}' in text
        assert 'repro_planner_plan_cache_hits{collection="figure1"}' in text
