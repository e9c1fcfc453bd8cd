"""The calls the serving benchmark of record makes into the program.

``benchmarks/serving/`` runs against a checkout's ``src/`` and exits
before timing anything when one of these is gone, so they are pinned
here, on figure1, where a broken contract fails the suite instead:

* ``gate.oracle_main`` opens the source XML with
  ``Database.open(xml, backend="steered", cache=None)`` — the paper's
  walks as the correctness oracle — and answers nearest, query,
  prepare, put/replace/delete and compact ops through it;
* ``layers.py`` opens ``Database.open(xml, backend="vector",
  cache=None)`` and wraps ``VectorBackend.meet_term_hits``;
* ``run.py`` reads ``backend`` and ``kernel_tier`` from the collection
  row of ``/v1/stats``.
"""

import importlib.util
import json
from pathlib import Path

from repro.api import Database, NearestRequest, QueryRequest, ReproServer
from repro.core.backends import VectorBackend
from repro.datamodel.serializer import serialize
from repro.datasets import figure1_document

REPO = Path(__file__).resolve().parents[2]

QUERY = (
    "select meet($a,$b) from # $a, # $b "
    "where $a contains 'Bit' and $b contains '1999'"
)


def _gate():
    spec = importlib.util.spec_from_file_location(
        "serving_gate", REPO / "benchmarks" / "serving" / "gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_steered_oracle_answers_writes_and_queries(tmp_path):
    xml = tmp_path / "bib.xml"
    xml.write_text(serialize(figure1_document()), encoding="utf-8")
    nearest = ["POST", "/v1/nearest", {"terms": ["Bit", "1999"], "limit": 5}]
    ops = [
        ["PUT", "/v1/documents",
         {"name": "memo",
          "xml": "<book><title>Bit</title><year>1999</year></book>"}],
        nearest,
        ["POST", "/v1/query", {"text": QUERY}],
        ["POST", "/v1/prepare",
         {"text": "select $a from # $a where $a contains $t"}],
        ["PUT", "/v1/documents",
         {"name": "memo", "replace": True,
          "xml": "<book><title>Byte</title></book>"}],
        ["DELETE", "/v1/documents", {"name": "memo"}],
        ["POST", "/v1/compact", {}],
    ]
    spec = {
        "xml": str(xml), "src": str(REPO / "src"), "cpu": None,
        "sample": None, "prelude": [], "ops": ops, "tail": [nearest],
        "out": str(tmp_path / "oracle.json"),
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert _gate().oracle_main(str(tmp_path / "spec.json")) == 0
    answers = json.loads((tmp_path / "oracle.json").read_text())
    assert len(answers["ops"]) == len(ops)
    assert answers["ops"]["1"][0]["tag"] == "book"  # the put's own meet
    # meet rows: the article and the memo's book
    assert answers["ops"]["2"][1] == [[3], [20]]
    assert answers["tail"][0][0]["tag"] == "article"

    # The oracle is the paper's walk; the served default is the kernels.
    with Database.open(str(xml), backend="steered", cache=None) as oracle:
        assert oracle.stats()["backend"] == "steered"
        expected = oracle.nearest(NearestRequest(terms=("Bit", "1999")))
        with Database.open(str(xml), cache=None) as served:
            assert served.nearest(
                NearestRequest(terms=("Bit", "1999"))
            ).answers == expected.answers


def test_vector_open_and_the_wrapped_kernel_entry(tmp_path):
    xml = tmp_path / "bib.xml"
    xml.write_text(serialize(figure1_document()), encoding="utf-8")
    with Database.open(str(xml), backend="vector", cache=None) as db:
        assert db.engine.backend.name == "vector"
        assert callable(VectorBackend.meet_term_hits)
        assert db.query(QueryRequest(text=QUERY)).rows == ((3,),)


def test_stats_row_names_backend_and_kernel_tier(tmp_path):
    xml = tmp_path / "bib.xml"
    xml.write_text(serialize(figure1_document()), encoding="utf-8")
    db = Database.open(str(xml), cache=None)
    with ReproServer({"bib": db}, port=0, close_databases=True) as server:
        import urllib.request

        with urllib.request.urlopen(server.url("/v1/stats")) as response:
            row = json.load(response)["collections"]["bib"]
    assert row["backend"] == "vector"
    assert row["kernel_tier"] == "vector"
