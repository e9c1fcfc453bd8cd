"""Integration tests for the command-line interface."""

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


class TestDescribe:
    def test_basic(self, xml_file, capsys):
        assert main(["describe", xml_file]) == 0
        out = capsys.readouterr().out
        assert "nodes:" in out and "19" in out

    def test_paths_flag(self, xml_file, capsys):
        assert main(["describe", xml_file, "--paths"]) == 0
        out = capsys.readouterr().out
        assert "bibliography/institute/article@key" in out


class TestSearch:
    def test_finds_article(self, xml_file, capsys):
        assert main(["search", xml_file, "Bit", "1999"]) == 0
        out = capsys.readouterr().out
        assert "<article>" in out and "joins=5" in out

    def test_xml_rendering(self, xml_file, capsys):
        assert main(["search", xml_file, "Bit", "1999", "--xml"]) == 0
        out = capsys.readouterr().out
        assert "<lastname>Bit</lastname>" in out

    def test_no_hits_exit_code(self, xml_file, capsys):
        assert main(["search", xml_file, "zz", "qq"]) == 1
        assert "no nearest concepts" in capsys.readouterr().out

    def test_single_term_rejected(self, xml_file, capsys):
        assert main(["search", xml_file, "Bit"]) == 2

    def test_within_filter(self, xml_file, capsys):
        assert main(["search", xml_file, "Bit", "1999", "--within", "4"]) == 1

    def test_limit(self, xml_file, capsys):
        assert main(["search", xml_file, "Hack", "1999", "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("oid=") == 1


class TestQuery:
    def test_meet_query(self, xml_file, capsys):
        code = main(
            [
                "query",
                xml_file,
                "select meet($a,$b) from # $a, # $b "
                "where $a contains 'Bit' and $b contains '1999'",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "<answer>" in out and "article" in out

    def test_empty_result_exit_code(self, xml_file):
        assert (
            main(
                [
                    "query",
                    xml_file,
                    "select $o from zebra $o",
                ]
            )
            == 1
        )

    def test_explain(self, xml_file, capsys):
        assert (
            main(["query", xml_file, "select $o from bibliography/# $o", "--explain"])
            == 0
        )
        assert "plan over" in capsys.readouterr().out


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["describe", "/no/such/file.xml"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_source_names_the_rebuild(self, tmp_path, capsys):
        image = tmp_path / "bib.json"
        image.write_text('{"format": "repro-monet-xml"}', encoding="utf-8")
        catalog = str(tmp_path / "catalog")
        for argv in (
            ["search", str(image), "Bit", "1999", "--catalog", catalog],
            ["snapshot", "build", str(image), "--catalog", catalog],
        ):
            assert main(argv) == 2
            assert "repro snapshot build <xml>" in capsys.readouterr().err
