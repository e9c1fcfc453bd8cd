"""Integration tests: the snapshot CLI surface and catalog preference."""

import pytest

from repro.cli import main
from repro.datamodel.serializer import serialize
from repro.datasets import figure1_document

XML = serialize(figure1_document())


@pytest.fixture()
def xml_file(tmp_path):
    path = tmp_path / "bib.xml"
    path.write_text(XML, encoding="utf-8")
    return str(path)


@pytest.fixture()
def catalog_dir(tmp_path):
    return str(tmp_path / "catalog")


@pytest.fixture()
def built(xml_file, catalog_dir, capsys):
    assert main(["snapshot", "build", xml_file, "bib", "--catalog", catalog_dir]) == 0
    capsys.readouterr()
    return catalog_dir


class TestSnapshotCommands:
    def test_build_reports_metadata(self, xml_file, catalog_dir, capsys):
        assert main(
            ["snapshot", "build", xml_file, "--catalog", catalog_dir]
        ) == 0
        out = capsys.readouterr().out
        # Default collection name is the source stem.
        assert "bib.snap" in out and "19 nodes" in out and "generation 1" in out

    def test_ls(self, built, capsys):
        assert main(["snapshot", "ls", "--catalog", built]) == 0
        out = capsys.readouterr().out
        assert "bib: 19 nodes" in out

    def test_ls_sections_lists_item_widths(self, built, capsys):
        assert main(["snapshot", "ls", "--catalog", built, "--sections"]) == 0
        lines = [line.split() for line in capsys.readouterr().out.splitlines()]
        groups = next(line for line in lines if line[0] == "sections:")
        assert [cell.split("=")[0] for cell in groups[1:]] == [
            "core", "lca", "fulltext"
        ]
        listed = {line[0]: line[1:] for line in lines if "/" in line[0]}
        tour = 4 * (2 * 19 - 1)
        assert listed["lca/tour"] == [str(tour), "int32"]
        assert listed["lca/first"] == [str(4 * 19), "int32"]
        assert listed["store/oid_pid"] == [str(4 * 19), "int32"]
        assert not any(name.startswith(("edges/", "ranks/")) for name in listed)
        assert {
            cells[1] for name, cells in listed.items() if len(cells) == 2
        } == {"int32"}
        assert len(listed["summary/labels"]) == 1  # a string table: bytes only
        lca = sum(int(cells[0]) for name, cells in listed.items() if name.startswith("lca/"))
        assert f"lca={lca}" in groups

    def test_ls_empty(self, tmp_path, capsys):
        catalog = tmp_path / "empty-cat"
        catalog.mkdir()
        assert main(["snapshot", "ls", "--catalog", str(catalog)]) == 0
        assert "no collections" in capsys.readouterr().out

    def test_load_by_name_and_by_file(self, built, capsys):
        assert main(["snapshot", "load", "bib", "--catalog", built]) == 0
        assert "zero index rebuilds" in capsys.readouterr().out
        bundle = f"{built}/bib.snap"
        assert main(["snapshot", "load", bundle, "--mmap"]) == 0
        assert "19 nodes" in capsys.readouterr().out

    def test_drop(self, built, capsys):
        assert main(["snapshot", "drop", "bib", "--catalog", built]) == 0
        assert main(["snapshot", "ls", "--catalog", built]) == 0
        assert "no collections" in capsys.readouterr().out

    def test_rebuild_bumps_generation(self, built, xml_file, capsys):
        assert main(
            ["snapshot", "build", xml_file, "bib", "--catalog", built]
        ) == 0
        assert "generation 2" in capsys.readouterr().out

    def test_load_unknown_collection_fails(self, built, capsys):
        assert main(["snapshot", "load", "ghost", "--catalog", built]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_bundle_reports_error(self, built, tmp_path, capsys):
        from pathlib import Path

        bundle = Path(built) / "bib.snap"
        data = bytearray(bundle.read_bytes())
        data[len(data) // 2] ^= 0xFF
        bundle.write_bytes(bytes(data))
        assert main(["snapshot", "load", "bib", "--catalog", built]) == 2
        assert "checksum failure" in capsys.readouterr().err


class TestServeFromSnapshot:
    def test_search_snapshot_flag(self, built, capsys):
        assert main(
            ["search", "--snapshot", "bib", "--catalog", built, "Bit", "1999"]
        ) == 0
        out = capsys.readouterr().out
        assert "<article>" in out and "joins=5" in out

    def test_search_snap_file_source(self, built, capsys):
        assert main(["search", f"{built}/bib.snap", "Bit", "1999"]) == 0
        assert "<article>" in capsys.readouterr().out

    def test_query_snapshot_plus_source_is_rejected(self, built, capsys):
        # A source that would be silently ignored is an error instead.
        assert main(
            ["query", "--snapshot", "bib", "--catalog", built,
             "ghost.xml", "select $a from # $a"]
        ) == 2
        assert "pass only the query string" in capsys.readouterr().err

    def test_describe_and_shred_report_load_path(
        self, built, xml_file, tmp_path, capsys
    ):
        assert main(
            ["describe", xml_file, "--catalog", built, "--stats"]
        ) == 0
        captured = capsys.readouterr()
        assert "loaded via snapshot" in captured.err and "nodes:" in captured.out
        image = str(tmp_path / "out.json")
        assert main(
            ["shred", xml_file, image, "--catalog", built, "--stats"]
        ) == 0
        assert "loaded via snapshot" in capsys.readouterr().err

    def test_query_snapshot_flag(self, built, capsys):
        query = (
            "select meet($a,$b) from # $a, # $b "
            "where $a contains 'Bit' and $b contains '1999'"
        )
        assert main(["query", "--snapshot", "bib", "--catalog", built, query]) == 0
        assert "article" in capsys.readouterr().out

    def test_case_sensitive_bundle_serves_without_rebuild(
        self, xml_file, catalog_dir, capsys
    ):
        # Serving inherits the bundle's case mode (and the vector
        # backend), so a --case-sensitive build still starts warm.
        from repro.core.lca_index import (
            clear_lca_index_cache,
            lca_index_cache_info,
        )
        from repro.fulltext.index import (
            clear_fulltext_index_cache,
            fulltext_index_cache_info,
        )

        assert main(
            ["snapshot", "build", xml_file, "bib", "--catalog", catalog_dir,
             "--case-sensitive"]
        ) == 0
        capsys.readouterr()
        clear_lca_index_cache()
        clear_fulltext_index_cache()
        assert main(
            ["search", "--snapshot", "bib", "--catalog", catalog_dir,
             "Bit", "1999"]
        ) == 0
        assert "<article>" in capsys.readouterr().out
        assert fulltext_index_cache_info().builds == 0
        assert lca_index_cache_info().builds == 0

    def test_explicit_flags_override_bundle_defaults(
        self, built, capsys
    ):
        assert main(
            ["search", "--snapshot", "bib", "--catalog", built,
             "Bit", "1999", "--backend", "steered", "--no-case-sensitive"]
        ) == 0
        assert "<article>" in capsys.readouterr().out

    def test_search_without_source_or_snapshot_fails(self, capsys):
        # A single positional parses as a term, not a source.
        assert main(["search", "Bit"]) == 2
        assert "needs a source" in capsys.readouterr().err


class TestCatalogPreference:
    def test_xml_source_prefers_fresh_catalog_hit(self, built, xml_file, capsys):
        assert main(
            ["search", xml_file, "Bit", "1999", "--catalog", built, "--stats"]
        ) == 0
        captured = capsys.readouterr()
        assert "loaded via snapshot" in captured.err
        assert "<article>" in captured.out

    def test_xml_source_parses_without_catalog(self, xml_file, tmp_path, capsys):
        assert main(
            [
                "search", xml_file, "Bit", "1999",
                "--catalog", str(tmp_path / "nowhere"), "--stats",
            ]
        ) == 0
        assert "loaded via parse" in capsys.readouterr().err

    def test_stale_bundle_falls_back_to_parse(self, built, xml_file, capsys):
        # Any change to the source (here: appending whitespace) breaks
        # the (size, mtime) fingerprint taken at build time.
        from pathlib import Path

        path = Path(xml_file)
        path.write_text(
            path.read_text(encoding="utf-8") + "\n", encoding="utf-8"
        )
        assert main(
            ["search", xml_file, "Bit", "1999", "--catalog", built, "--stats"]
        ) == 0
        assert "loaded via parse" in capsys.readouterr().err

    def test_json_image_prefers_catalog_hit(
        self, catalog_dir, tmp_path, capsys
    ):
        from repro.monet import storage
        from repro.monet.transform import monet_transform
        from repro.datasets import figure1_document

        image = tmp_path / "bib.json"
        storage.save(monet_transform(figure1_document()), image)
        assert main(
            ["snapshot", "build", str(image), "img", "--catalog", catalog_dir]
        ) == 0
        capsys.readouterr()
        assert main(
            ["search", str(image), "Bit", "1999", "--catalog", catalog_dir,
             "--stats"]
        ) == 0
        captured = capsys.readouterr()
        assert "loaded via snapshot" in captured.err
        assert "<article>" in captured.out

    def test_corrupt_catalog_falls_back_to_parse(self, built, xml_file, capsys):
        # The probe is best-effort: a broken manifest must not take
        # down commands that never asked for snapshots.
        from pathlib import Path

        (Path(built) / "catalog.json").write_text("{broken", encoding="utf-8")
        assert main(
            ["search", xml_file, "Bit", "1999", "--catalog", built, "--stats"]
        ) == 0
        captured = capsys.readouterr()
        assert "loaded via parse" in captured.err
        assert "<article>" in captured.out

    def test_explicit_bundle_file_survives_corrupt_catalog(
        self, built, tmp_path, capsys
    ):
        # A suffixless bundle file named with --snapshot must load even
        # when the catalog manifest is broken.
        import shutil
        from pathlib import Path

        bundle = tmp_path / "bundlefile"
        shutil.copy(Path(built) / "bib.snap", bundle)
        (Path(built) / "catalog.json").write_text("{broken", encoding="utf-8")
        assert main(
            ["search", "--snapshot", str(bundle), "--catalog", built,
             "Bit", "1999"]
        ) == 0
        assert "<article>" in capsys.readouterr().out

    def test_collection_name_beats_stray_directory(
        self, built, tmp_path, monkeypatch, capsys
    ):
        # A cwd entry named like the collection must not shadow it.
        workdir = tmp_path / "work"
        (workdir / "bib").mkdir(parents=True)
        monkeypatch.chdir(workdir)
        assert main(
            ["search", "--snapshot", "bib", "--catalog", built, "Bit", "1999"]
        ) == 0
        assert "<article>" in capsys.readouterr().out

    def test_case_mismatched_bundle_is_not_preferred(
        self, xml_file, catalog_dir, capsys
    ):
        # A case-sensitive bundle must not hijack a plain (case-
        # insensitive) XML search: same command, same answers,
        # regardless of catalog state.
        assert main(["search", xml_file, "bit", "1999", "--limit", "1"]) == 0
        baseline = capsys.readouterr().out
        assert main(
            ["snapshot", "build", xml_file, "bib", "--catalog", catalog_dir,
             "--case-sensitive"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["search", xml_file, "bit", "1999", "--limit", "1",
             "--catalog", catalog_dir, "--stats"]
        ) == 0
        captured = capsys.readouterr()
        assert "loaded via parse" in captured.err
        assert captured.out == baseline

    def test_snapshot_answers_match_parse(self, built, xml_file, capsys):
        assert main(["search", xml_file, "Hack", "1999", "--limit", "3"]) == 0
        parsed = capsys.readouterr().out
        assert main(
            ["search", "--snapshot", "bib", "--catalog", built,
             "Hack", "1999", "--limit", "3"]
        ) == 0
        assert capsys.readouterr().out == parsed
