"""The ``Database`` facade: source resolution and differential fidelity.

Two contracts under test:

1. ``Database.open`` resolves all four source kinds — XML file, legacy
   JSON image, ``.snap`` bundle, catalog collection — plus the
   corrupt-catalog → parse fallback (each branch explicitly).
2. Facade answers are byte-identical, including ranking order, to
   direct ``NearestConceptEngine`` / ``QueryProcessor`` calls on every
   bundled dataset.
"""

import pytest

import repro
from repro.api import Database, DatabaseOptions
from repro.api.envelopes import NearestRequest, QueryRequest, ResultEnvelope
from repro.cli import main as cli_main
from repro.core.backends import snapshot_default_backend
from repro.core.engine import NearestConceptEngine
from repro.datamodel.errors import ReproError
from repro.datamodel.serializer import serialize
from repro.datasets import (
    DblpConfig,
    MultimediaConfig,
    PlaysConfig,
    dblp_document,
    figure1_document,
    multimedia_document,
    plays_document,
)
from repro.datasets.randomtree import random_document
from repro.fulltext.search import SearchEngine
from repro.monet import storage
from repro.monet.transform import monet_transform
from repro.query.executor import QueryProcessor


@pytest.fixture()
def xml_file(tmp_path):
    path = tmp_path / "bib.xml"
    path.write_text(serialize(figure1_document()), encoding="utf-8")
    return path


@pytest.fixture()
def catalog_dir(tmp_path):
    return tmp_path / "catalog"


@pytest.fixture()
def built_catalog(xml_file, catalog_dir, capsys):
    assert cli_main(
        ["snapshot", "build", str(xml_file), "bib", "--catalog", str(catalog_dir)]
    ) == 0
    capsys.readouterr()
    return catalog_dir


class TestOpenResolution:
    def test_xml_path_parses(self, xml_file):
        db = Database.open(xml_file)
        assert db.origin == "parse"
        assert db.snapshot is None
        assert db.backend_name == "steered" and db.case_sensitive is False
        assert db.node_count == 19

    def test_legacy_json_image(self, xml_file, tmp_path):
        image = tmp_path / "bib.json"
        storage.save(monet_transform(figure1_document()), image)
        db = Database.open(image)
        assert db.origin == "json image"
        assert db.node_count == 19

    def test_snap_file(self, built_catalog):
        bundle = built_catalog / "bib.snap"
        db = Database.open(bundle)
        assert db.origin == f"snapshot {bundle}"
        assert db.snapshot is not None
        # Bundle defaults: the fastest rebuild-free backend (vector
        # when NumPy is importable, else indexed), the bundle's case
        # mode.
        assert db.backend_name == snapshot_default_backend()

    def test_catalog_collection_by_bare_name(self, built_catalog):
        db = Database.open("bib", catalog=built_catalog)
        assert db.origin == f"snapshot {built_catalog}:bib"
        assert db.snapshot is not None

    def test_explicit_snapshot_name(self, built_catalog):
        db = Database.open(snapshot="bib", catalog=built_catalog)
        assert db.origin == f"snapshot {built_catalog}:bib"

    def test_xml_prefers_fresh_catalog_hit(self, built_catalog, xml_file):
        db = Database.open(xml_file, catalog=built_catalog)
        assert db.origin == f"snapshot {built_catalog}:bib"

    def test_stale_fingerprint_falls_back_to_parse(
        self, built_catalog, xml_file
    ):
        xml_file.write_text(
            xml_file.read_text(encoding="utf-8") + "\n", encoding="utf-8"
        )
        db = Database.open(xml_file, catalog=built_catalog)
        assert db.origin == "parse"

    def test_corrupt_catalog_falls_back_to_parse(self, built_catalog, xml_file):
        (built_catalog / "catalog.json").write_text("{broken", encoding="utf-8")
        db = Database.open(xml_file, catalog=built_catalog)
        assert db.origin == "parse"

    def test_missing_source_raises(self, tmp_path):
        with pytest.raises(ReproError, match="no such file"):
            Database.open(tmp_path / "ghost.xml")

    def test_no_source_raises(self):
        with pytest.raises(ReproError, match="no source given"):
            Database.open()

    def test_option_overrides(self, xml_file):
        db = Database.open(xml_file, backend="indexed", case_sensitive=True)
        assert db.backend_name == "indexed" and db.case_sensitive is True

    def test_invalid_backend_rejected(self, xml_file):
        with pytest.raises(ValueError, match="unknown backend"):
            Database.open(xml_file, backend="warp")

    def test_open_all(self, built_catalog):
        databases = Database.open_all(built_catalog)
        assert set(databases) == {"bib"}
        assert databases["bib"].snapshot is not None

    def test_repro_open_reexport(self, xml_file):
        db = repro.open(str(xml_file))
        assert isinstance(db, Database)
        assert db.nearest("Bit", "1999").count == 1


class TestOptions:
    def test_frozen(self):
        options = DatabaseOptions()
        with pytest.raises(AttributeError):
            options.backend = "indexed"

    def test_replace_revalidates(self):
        with pytest.raises(ValueError, match="unknown backend"):
            DatabaseOptions().replace(backend="warp")

    def test_effective_defaults(self):
        assert DatabaseOptions().effective(None) == (False, "steered")

    def test_effective_snapshot_defaults(self, tmp_path):
        from repro.snapshot import read_snapshot, write_snapshot

        store = monet_transform(figure1_document())
        bundle = tmp_path / "b.snap"
        write_snapshot(store, bundle, case_sensitive=True)
        snapshot = read_snapshot(bundle)
        assert DatabaseOptions().effective(snapshot) == (
            True,
            snapshot_default_backend(),
        )
        explicit = DatabaseOptions(case_sensitive=False, backend="steered")
        assert explicit.effective(snapshot) == (False, "steered")


DATASETS = {
    "figure1": (
        lambda: figure1_document(),
        [("Bit", "1999"), ("Bob", "Byte"), ("Hack", "1999")],
    ),
    "plays": (
        lambda: plays_document(
            PlaysConfig(plays=2, acts_per_play=2, scenes_per_act=2)
        ),
        [("crown", "ghost"), ("love", "storm"), ("king", "night")],
    ),
    "dblp": (
        lambda: dblp_document(
            DblpConfig(papers_per_proceedings=4, articles_per_year=2)
        ),
        [("ICDE", "1999"), ("VLDB", "1994"), ("SIGMOD", "1988")],
    ),
    "multimedia": (
        lambda: multimedia_document(MultimediaConfig(items=8)),
        [("wavelet", "texture"), ("motion", "region")],
    ),
    "random": (
        lambda: random_document(7, nodes=600, max_children=4),
        [("wavelet", "texture"), ("histogram", "contour")],
    ),
}


@pytest.fixture(scope="module", params=sorted(DATASETS))
def dataset_db(request, tmp_path_factory):
    """Each bundled dataset opened through the facade, from an XML file."""
    build, queries = DATASETS[request.param]
    path = tmp_path_factory.mktemp("facade") / f"{request.param}.xml"
    path.write_text(serialize(build()), encoding="utf-8")
    return Database.open(path), queries


def as_concept_tuple(concept):
    return (
        concept.oid,
        concept.tag,
        str(concept.path),
        concept.joins,
        concept.spread,
        concept.depth,
        list(concept.origins),
        list(concept.terms),
    )


def as_answer_tuple(answer):
    return (
        answer["oid"],
        answer["tag"],
        answer["path"],
        answer["joins"],
        answer["spread"],
        answer["depth"],
        answer["origins"],
        answer["terms"],
    )


class TestFacadeDifferential:
    """Facade == direct low-level calls, answers and order alike."""

    def test_nearest_matches_engine(self, dataset_db):
        db, queries = dataset_db
        direct = NearestConceptEngine(
            db.store,
            case_sensitive=db.case_sensitive,
            backend=db.backend_name,
        )
        for terms in queries:
            expected = direct.nearest_concepts(*terms, limit=10)
            envelope = db.nearest(NearestRequest(terms=terms, limit=10))
            assert [as_answer_tuple(a) for a in envelope.answers] == [
                as_concept_tuple(c) for c in expected
            ], f"facade diverged on {terms!r}"
            assert envelope.count == len(expected)

    def test_nearest_matches_engine_from_snapshot(
        self, dataset_db, tmp_path_factory
    ):
        from repro.snapshot import write_snapshot

        db, queries = dataset_db
        bundle = tmp_path_factory.mktemp("bundles") / "d.snap"
        write_snapshot(db.store, bundle)
        snap_db = Database.open(bundle)
        direct = NearestConceptEngine(
            snap_db.store,
            case_sensitive=snap_db.case_sensitive,
            backend=snap_db.backend_name,
        )
        for terms in queries:
            expected = direct.nearest_concepts(*terms, limit=10)
            envelope = snap_db.nearest(NearestRequest(terms=terms, limit=10))
            assert [as_answer_tuple(a) for a in envelope.answers] == [
                as_concept_tuple(c) for c in expected
            ]

    def test_query_matches_processor(self, dataset_db):
        db, queries = dataset_db
        direct = QueryProcessor(
            db.store,
            search=SearchEngine(db.store, case_sensitive=db.case_sensitive),
            backend=db.backend_name,
        )
        terms = queries[0]
        text = (
            f"select meet($a,$b) from # $a, # $b "
            f"where $a contains '{terms[0]}' and $b contains '{terms[1]}'"
        )
        expected = direct.execute(text)
        envelope = db.query(QueryRequest(text=text, render=True))
        assert list(envelope.columns) == expected.columns
        assert [list(row) for row in envelope.rows] == [
            list(row) for row in expected.rows
        ]
        assert envelope.rendered == expected.render_answer(db.store)
        assert envelope.count == len(expected.rows)

    def test_search_matches_engine_hits(self, dataset_db):
        db, queries = dataset_db
        direct = NearestConceptEngine(
            db.store,
            case_sensitive=db.case_sensitive,
            backend=db.backend_name,
        )
        term = queries[0][0]
        expected = sorted(direct.term_hits(term).oids())
        envelope = db.search(term)
        assert [answer["oid"] for answer in envelope.answers] == expected


class TestEnvelopeSurface:
    def test_nearest_envelope_shape(self, xml_file):
        db = Database.open(xml_file, cache=32)
        envelope = db.nearest("Bit", "1999", snippets=True)
        assert envelope.kind == "nearest"
        answer = envelope.answers[0]
        assert answer["tag"] == "article" and answer["joins"] == 5
        assert "snippet" in answer
        assert envelope.stats["origin"] == "parse"
        assert envelope.stats["cache"]["misses"] >= 1
        # The whole response survives the JSON codec.
        rebuilt = ResultEnvelope.from_dict(envelope.to_dict())
        assert rebuilt.to_dict() == envelope.to_dict()

    def test_nearest_inline_and_request_agree(self, xml_file):
        db = Database.open(xml_file)
        inline = db.nearest("Bit", "1999", limit=3)
        typed = db.nearest(NearestRequest(terms=("Bit", "1999"), limit=3))
        assert inline.answers == typed.answers

    def test_nearest_rejects_mixed_call(self, xml_file):
        db = Database.open(xml_file)
        with pytest.raises(TypeError, match="not both"):
            db.nearest(NearestRequest(terms=("a", "b")), "c")

    def test_query_explain(self, xml_file):
        db = Database.open(xml_file)
        envelope = db.query(
            QueryRequest(text="select $o from bibliography/# $o", explain=True)
        )
        assert "plan over" in envelope.rendered
        assert envelope.count == 0
        assert db.explain("select $o from bibliography/# $o") == envelope.rendered

    def test_cached_repeat_hits(self, xml_file):
        db = Database.open(xml_file, cache=32)
        db.nearest("Bit", "1999")
        envelope = db.nearest("Bit", "1999")
        assert envelope.stats["cache"]["hits"] >= 1

    def test_stats_and_describe(self, built_catalog):
        db = Database.open("bib", catalog=built_catalog, cache=8)
        stats = db.stats()
        assert stats["origin"].startswith("snapshot")
        assert stats["backend"] == snapshot_default_backend()
        assert stats["kernel_tier"] in ("python", "vector")
        assert stats["cache"]["maxsize"] == 8
        describe = db.describe()
        assert describe["node_count"] == 19
        assert describe["snapshot"]["vocabulary_size"] > 0

    def test_warm_up_builds_nothing_for_snapshot(self, built_catalog):
        from repro.core.lca_index import (
            clear_lca_index_cache,
            lca_index_cache_info,
        )
        from repro.fulltext.index import (
            clear_fulltext_index_cache,
            fulltext_index_cache_info,
        )

        clear_lca_index_cache()
        clear_fulltext_index_cache()
        db = Database.open("bib", catalog=built_catalog)
        db.warm_up()
        assert db.nearest("Bit", "1999").count == 1
        assert lca_index_cache_info().builds == 0
        assert fulltext_index_cache_info().builds == 0
