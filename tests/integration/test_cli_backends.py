"""End-to-end CLI coverage of the one serving tier: every command
answers on the kernels, with exactly the answers of the paper's
``steered`` walks (the library's reference, not a CLI flag), on XML
inputs and snapshot bundles; and the per-store LCA index cache must be
rebuilt when a store is rebuilt or invalidated.
"""

import pytest

from repro.api import Database, NearestRequest, QueryRequest
from repro.cli import main
from repro.core.engine import NearestConceptEngine
from repro.core.lca_index import (
    clear_lca_index_cache,
    get_lca_index,
    lca_index_cache_info,
)
from repro.datamodel.serializer import serialize
from repro.datasets import figure1_document
from repro.monet.transform import monet_transform

XML = serialize(figure1_document())

QUERY = (
    "select meet($a,$b) from # $a, # $b "
    "where $a contains 'Bit' and $b contains '1999'"
)


@pytest.fixture()
def xml_file(tmp_path):
    path = tmp_path / "bib.xml"
    path.write_text(XML, encoding="utf-8")
    return str(path)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_lca_index_cache()
    yield
    clear_lca_index_cache()


def _steered(xml_file):
    return Database.open(xml_file, backend="steered", cache=None)


class TestSearchBackendFlag:
    def test_vector_matches_steered(self, xml_file, capsys):
        assert main(["search", xml_file, "Bit", "1999"]) == 0
        served = capsys.readouterr().out
        with _steered(xml_file) as reference:
            expected = "".join(
                f"{rank:>3}. <{answer['tag']}> oid={answer['oid']} "
                f"joins={answer['joins']} path={answer['path']}\n"
                f"     {answer['snippet']}\n"
                for rank, answer in enumerate(
                    reference.nearest(
                        NearestRequest(terms=("Bit", "1999"), snippets=True)
                    ).answers,
                    start=1,
                )
            )
        assert served == expected
        assert "<article>" in served and "joins=5" in served

    def test_unknown_backend_rejected(self, xml_file, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["search", xml_file, "Bit", "1999", "--backend", "quantum"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_retired_indexed_backend_is_an_invalid_choice(
        self, xml_file, capsys
    ):
        with pytest.raises(SystemExit) as exited:
            main(["search", xml_file, "Bit", "1999", "--backend", "indexed"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_vector_on_persisted_image(self, xml_file, tmp_path, capsys):
        catalog = str(tmp_path / "catalog")
        assert main(["snapshot", "build", xml_file, "bib", "--catalog", catalog]) == 0
        capsys.readouterr()
        assert main(["search", xml_file, "Bit", "1999"]) == 0
        from_xml = capsys.readouterr().out
        image = str(tmp_path / "catalog" / "bib.snap")
        assert main(["search", image, "Bit", "1999"]) == 0
        assert capsys.readouterr().out == from_xml
        assert "<article>" in from_xml


class TestQueryBackendFlag:
    def test_vector_matches_steered(self, xml_file, capsys):
        assert main(["query", xml_file, QUERY]) == 0
        served = capsys.readouterr().out
        with _steered(xml_file) as reference:
            envelope = reference.query(QueryRequest(text=QUERY, render=True))
        assert served == envelope.rendered + "\n"


class TestIndexCacheLifecycle:
    def test_cli_vector_search_builds_an_index(self, xml_file):
        assert lca_index_cache_info().builds == 0
        assert main(["search", xml_file, "Bit", "1999"]) == 0
        assert lca_index_cache_info().builds == 1

    def test_rebuilt_store_gets_fresh_index(self):
        first_store = monet_transform(figure1_document())
        engine = NearestConceptEngine(first_store, backend="vector")
        engine.nearest_concepts("Bit", "1999")
        assert lca_index_cache_info().builds == 1

        # Same store, same generation: the cached index is reused.
        engine.nearest_concepts("Hack", "1999")
        assert lca_index_cache_info().builds == 1
        assert lca_index_cache_info().hits >= 1

        # Re-transforming the document is a rebuild: a distinct store
        # object (new generation) must not see the old index.
        second_store = monet_transform(figure1_document())
        second_engine = NearestConceptEngine(second_store, backend="vector")
        assert second_engine.nearest_concepts(
            "Bit", "1999"
        ) == engine.nearest_concepts("Bit", "1999")
        assert lca_index_cache_info().builds == 2

    def test_invalidate_caches_forces_rebuild(self):
        store = monet_transform(figure1_document())
        first = get_lca_index(store)
        assert get_lca_index(store) is first
        store.invalidate_caches()
        second = get_lca_index(store)
        assert second is not first
        assert lca_index_cache_info().builds == 2
        # The rebuilt index still answers identically.
        engine = NearestConceptEngine(store, backend="vector")
        assert engine.nearest_concepts("Bit", "1999")[0].tag == "article"
