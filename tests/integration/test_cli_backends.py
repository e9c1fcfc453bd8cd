"""End-to-end ``--backend`` coverage: the CLI must produce identical
answers with either backend, on XML inputs and persisted Monet images,
and the per-store LCA index cache must be rebuilt when a store is
rebuilt or invalidated.
"""

import pytest

from repro.cli import main
from repro.core.engine import NearestConceptEngine
from repro.core.lca_index import (
    clear_lca_index_cache,
    get_lca_index,
    lca_index_cache_info,
)
from repro.datamodel.serializer import serialize
from repro.datasets import figure1_document
from repro.monet import storage
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


class TestSearchBackendFlag:
    def test_vector_matches_steered(self, xml_file, capsys):
        assert main(["search", xml_file, "Bit", "1999"]) == 0
        steered_out = capsys.readouterr().out
        assert main(["search", xml_file, "Bit", "1999", "--backend", "vector"]) == 0
        vector_out = capsys.readouterr().out
        assert vector_out == steered_out
        assert "<article>" in vector_out and "joins=5" in vector_out

    def test_explicit_steered_accepted(self, xml_file, capsys):
        assert main(["search", xml_file, "Bit", "1999", "--backend", "steered"]) == 0
        assert "joins=5" in capsys.readouterr().out

    def test_unknown_backend_rejected(self, xml_file):
        with pytest.raises(SystemExit):
            main(["search", xml_file, "Bit", "1999", "--backend", "quantum"])

    def test_retired_indexed_backend_is_an_invalid_choice(
        self, xml_file, capsys
    ):
        with pytest.raises(SystemExit) as exited:
            main(["search", xml_file, "Bit", "1999", "--backend", "indexed"])
        assert exited.value.code == 2
        assert "invalid choice: 'indexed'" in capsys.readouterr().err

    def test_vector_on_persisted_image(self, xml_file, tmp_path, capsys):
        image = str(tmp_path / "bib.json")
        assert main(["shred", xml_file, image]) == 0
        capsys.readouterr()
        assert main(["search", image, "Bit", "1999", "--backend", "vector"]) == 0
        assert "<article>" in capsys.readouterr().out


class TestQueryBackendFlag:
    def test_vector_matches_steered(self, xml_file, capsys):
        assert main(["query", xml_file, QUERY]) == 0
        steered_out = capsys.readouterr().out
        assert main(["query", xml_file, QUERY, "--backend", "vector"]) == 0
        assert capsys.readouterr().out == steered_out


class TestIndexCacheLifecycle:
    def test_cli_vector_search_builds_an_index(self, xml_file):
        assert lca_index_cache_info().builds == 0
        assert main(["search", xml_file, "Bit", "1999", "--backend", "vector"]) == 0
        assert lca_index_cache_info().builds == 1

    def test_rebuilt_store_gets_fresh_index(self, xml_file, tmp_path):
        image = str(tmp_path / "bib.json")
        assert main(["shred", xml_file, image]) == 0

        first_store = storage.load(image)
        engine = NearestConceptEngine(first_store, backend="vector")
        engine.nearest_concepts("Bit", "1999")
        assert lca_index_cache_info().builds == 1

        # Same store, same generation: the cached index is reused.
        engine.nearest_concepts("Hack", "1999")
        assert lca_index_cache_info().builds == 1
        assert lca_index_cache_info().hits >= 1

        # Reloading the image is a rebuild: a distinct store object
        # (new generation) must not see the old index.
        second_store = storage.load(image)
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
