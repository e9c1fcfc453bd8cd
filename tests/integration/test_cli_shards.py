"""Integration tests: the sharding/executor CLI surface.

``snapshot build --shards N`` persists the layout, ``search``/``query``
accept ``--shards``/``--workers``, and output stays byte-identical to
the monolithic CLI (the thin-client contract survives the execution
layer).
"""

import pytest

from repro.cli import main
from repro.datamodel.serializer import serialize
from repro.datasets import DblpConfig, dblp_document

XML = serialize(
    dblp_document(DblpConfig(papers_per_proceedings=3, articles_per_year=2))
)

QUERY = (
    "select meet($a,$b) from # $a, # $b "
    "where $a contains 'ICDE' and $b contains '1999'"
)


@pytest.fixture()
def xml_file(tmp_path):
    path = tmp_path / "dblp.xml"
    path.write_text(XML, encoding="utf-8")
    return str(path)


@pytest.fixture()
def catalog_dir(tmp_path):
    return str(tmp_path / "catalog")


def test_snapshot_build_shards_and_ls(xml_file, catalog_dir, capsys):
    assert main(
        [
            "snapshot", "build", xml_file, "dblp",
            "--catalog", catalog_dir, "--shards", "3",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "3 shard bundles" in out
    assert main(["snapshot", "ls", "--catalog", catalog_dir]) == 0
    assert "3 shards" in capsys.readouterr().out


def test_search_output_identical_across_layers(xml_file, catalog_dir, capsys):
    args = [xml_file, "ICDE", "1999", "--limit", "5", "--catalog", catalog_dir]
    assert main(["search", *args]) == 0
    monolithic = capsys.readouterr().out
    assert main(["search", *args, "--shards", "3"]) == 0
    sharded = capsys.readouterr().out
    assert sharded == monolithic


def test_search_from_sharded_snapshot(xml_file, catalog_dir, capsys):
    assert main(
        [
            "snapshot", "build", xml_file, "dblp",
            "--catalog", catalog_dir, "--shards", "2",
        ]
    ) == 0
    capsys.readouterr()
    assert main(
        [
            "search", "--snapshot", "dblp", "ICDE", "1999",
            "--limit", "5", "--catalog", catalog_dir,
        ]
    ) == 0
    sharded = capsys.readouterr().out
    # A sharded collection serves with the snapshot defaults (vector
    # backend), so compare against the monolithic vector run.
    assert main(
        [
            "search", xml_file, "ICDE", "1999", "--limit", "5",
            "--backend", "vector", "--catalog", catalog_dir + "-none",
        ]
    ) == 0
    monolithic = capsys.readouterr().out
    assert sharded == monolithic


def test_query_output_identical_with_workers(xml_file, catalog_dir, capsys):
    args = [xml_file, QUERY, "--catalog", catalog_dir]
    assert main(["query", *args]) == 0
    monolithic = capsys.readouterr().out
    assert main(["query", *args, "--workers", "2"]) == 0
    parallel = capsys.readouterr().out
    assert parallel == monolithic


def test_search_xml_rendering_sharded(xml_file, catalog_dir, capsys):
    args = [
        xml_file, "ICDE", "1999", "--limit", "2", "--xml",
        "--catalog", catalog_dir,
    ]
    assert main(["search", *args]) == 0
    monolithic = capsys.readouterr().out
    assert main(["search", *args, "--shards", "2"]) == 0
    assert capsys.readouterr().out == monolithic
