"""The outward write surface: HTTP verbs and CLI subcommands.

Covers the ``/v1/documents`` PUT/DELETE/GET routes and ``/v1/compact``
(status mapping included: 409 duplicate, 404 unknown document or
collection, 400 malformed), the envelope codecs, and the ``repro
put``/``delete``/``compact`` CLI round trip against a real catalog.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.api import Database, DatabaseOptions, ReproServer
from repro.api.envelopes import (
    CompactRequest,
    DeleteDocumentRequest,
    EnvelopeError,
    PutDocumentRequest,
    request_from_dict,
)
from repro.cli import main
from repro.snapshot import Catalog, read_snapshot

from .harness import DATASETS, write_source

FRAGMENT = DATASETS["figure1"]["fragments"][0]
FRAGMENT2 = DATASETS["figure1"]["fragments"][1]


# -- envelope codecs ----------------------------------------------------
def test_put_request_codec_round_trip():
    request = PutDocumentRequest(name="memo", xml="<m>x</m>", replace=True)
    assert request_from_dict(request.to_dict()) == request
    assert request_from_dict(
        {"kind": "put_document", "name": "a", "xml": "<a/>"}
    ) == PutDocumentRequest(name="a", xml="<a/>")


def test_delete_and_compact_request_codecs():
    request = DeleteDocumentRequest(name="memo", collection="docs")
    assert request_from_dict(request.to_dict()) == request
    assert request_from_dict({"kind": "compact"}) == CompactRequest()


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "put_document", "xml": "<a/>"},  # missing name
        {"kind": "put_document", "name": "a"},  # missing xml
        {"kind": "put_document", "name": "a", "xml": "  "},  # blank xml
        {"kind": "put_document", "name": "", "xml": "<a/>"},  # empty name
        {"kind": "put_document", "name": "a", "xml": "<a/>", "bogus": 1},
        {"kind": "delete_document"},  # missing name
        {"kind": "compact", "bogus": True},
    ],
)
def test_malformed_write_envelopes_rejected(payload):
    with pytest.raises(EnvelopeError):
        request_from_dict(payload)


# -- HTTP ---------------------------------------------------------------
def _call(url, method, payload=None):
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture()
def served(tmp_path):
    source, _model = write_source(tmp_path, "figure1")
    catalog = Catalog(tmp_path / "catalog", create=True)
    catalog.ingest("docs", source)
    db = Database.open(
        snapshot="docs",
        options=DatabaseOptions(catalog=catalog.root, backend="vector"),
    )
    server = ReproServer({"docs": db}, port=0, close_databases=True)
    with server:
        yield server, catalog


def test_http_document_lifecycle(served):
    server, catalog = served
    url = server.url

    status, receipt = _call(
        url("/v1/documents"), "PUT", {"name": "memo", "xml": FRAGMENT}
    )
    assert status == 200 and receipt["op"] == "put"
    assert receipt["documents"] == 2  # one seed + memo

    # Duplicate put → 409; replace flag → upsert; unknown delete → 404.
    status, body = _call(
        url("/v1/documents"), "PUT", {"name": "memo", "xml": FRAGMENT}
    )
    assert status == 409
    status, receipt = _call(
        url("/v1/documents"),
        "PUT",
        {"name": "memo", "xml": FRAGMENT2, "replace": True},
    )
    assert status == 200 and receipt["op"] == "replace"
    status, _body = _call(url("/v1/documents"), "DELETE", {"name": "ghost"})
    assert status == 404

    status, listing = _call(url("/v1/documents?collection=docs"), "GET")
    assert status == 200 and "memo" in listing["documents"]
    status, _body = _call(url("/v1/documents?collection=nope"), "GET")
    assert status == 404

    # Mutations are durable: the bundle carries the delta tail until
    # /v1/compact folds it.
    assert read_snapshot(catalog.bundle_path("docs")).delta_count == 2
    status, receipt = _call(url("/v1/compact"), "POST", {})
    assert status == 200 and receipt["op"] == "compact"
    assert read_snapshot(catalog.bundle_path("docs")).delta_count == 0

    status, receipt = _call(
        url("/v1/documents"), "DELETE", {"name": "memo"}
    )
    assert status == 200 and receipt["op"] == "delete"

    # Malformed body → 400; kind mismatch → 400.
    status, _body = _call(url("/v1/documents"), "PUT", {"name": "x"})
    assert status == 400
    status, _body = _call(
        url("/v1/documents"), "PUT", {"kind": "compact"}
    )
    assert status == 400
    status, _body = _call(url("/v1/compact?x=1"), "PUT", {})
    assert status == 404  # compact is POST-only


def test_http_unparseable_fragment_rejected(served):
    server, _catalog = served
    status, body = _call(
        server.url("/v1/documents"),
        "PUT",
        {"name": "broken", "xml": "<a><b></a>"},
    )
    assert status == 400
    status, listing = _call(server.url("/v1/documents"), "GET")
    assert "broken" not in listing["documents"]


# -- CLI ----------------------------------------------------------------
def test_cli_put_delete_compact_round_trip(tmp_path, capsys):
    source, _model = write_source(tmp_path, "figure1")
    catalog_dir = str(tmp_path / "catalog")
    fragment_file = tmp_path / "memo.xml"
    fragment_file.write_text(FRAGMENT, encoding="utf-8")

    assert main(
        ["snapshot", "build", str(source), "docs", "--catalog", catalog_dir]
    ) == 0
    assert main(
        ["put", "docs", "memo", str(fragment_file), "--catalog", catalog_dir]
    ) == 0
    assert "put memo" in capsys.readouterr().out

    # The new document answers queries on the next open.
    assert main(
        ["search", "--snapshot", "docs", "--catalog", catalog_dir,
         "Bit", "1999", "--limit", "3"]
    ) == 0

    # Duplicate put → clean CLI error; --replace upserts.
    assert main(
        ["put", "docs", "memo", str(fragment_file), "--catalog", catalog_dir]
    ) == 2
    assert "already exists" in capsys.readouterr().err
    fragment_file.write_text(FRAGMENT2, encoding="utf-8")
    assert main(
        ["put", "docs", "memo", str(fragment_file), "--catalog", catalog_dir,
         "--replace"]
    ) == 0

    assert main(["compact", "docs", "--catalog", catalog_dir]) == 0
    assert "compacted" in capsys.readouterr().out
    assert read_snapshot(
        Catalog(tmp_path / "catalog").bundle_path("docs")
    ).delta_count == 0

    assert main(["delete", "docs", "memo", "--catalog", catalog_dir]) == 0
    assert main(["delete", "docs", "memo", "--catalog", catalog_dir]) == 2

    # Re-balance into shard bundles, after which live writes refuse.
    assert main(
        ["compact", "docs", "--catalog", catalog_dir, "--shards", "2"]
    ) == 0
    capsys.readouterr()
    assert main(
        ["put", "docs", "memo2", str(fragment_file), "--catalog", catalog_dir]
    ) == 2
    assert "read-only" in capsys.readouterr().err
