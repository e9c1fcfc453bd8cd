"""Unit tests for the multi-collection snapshot catalog."""

import json

import pytest

from repro.datamodel.errors import StorageError
from repro.datamodel.serializer import serialize
from repro.datasets import figure1_document
from repro.snapshot import Catalog


@pytest.fixture()
def xml_file(tmp_path):
    path = tmp_path / "bib.xml"
    path.write_text(serialize(figure1_document()), encoding="utf-8")
    return path


@pytest.fixture()
def catalog(tmp_path):
    return Catalog(tmp_path / "catalog")


class TestLifecycle:
    def test_ingest_open_query(self, catalog, xml_file):
        meta = catalog.ingest("bib", xml_file)
        assert meta["node_count"] == 19
        assert meta["generation"] == 1
        snapshot = catalog.open("bib")
        assert snapshot.store.node_count == 19
        assert snapshot.engine().nearest_concepts("Bit", "1999")

    def test_ingest_json_image(self, catalog, tmp_path):
        image = tmp_path / "bib.json"
        image.write_text('{"format": "repro-monet-xml"}', encoding="utf-8")
        with pytest.raises(StorageError, match="repro snapshot build <xml>"):
            catalog.ingest("from-json", image)
        assert "from-json" not in catalog

    def test_list_and_contains(self, catalog, xml_file):
        assert catalog.names() == []
        catalog.ingest("a", xml_file)
        catalog.ingest("b", xml_file)
        assert catalog.names() == ["a", "b"]
        assert "a" in catalog and "zz" not in catalog
        assert set(catalog.collections()) == {"a", "b"}

    def test_rebuild_bumps_generation(self, catalog, xml_file):
        catalog.ingest("bib", xml_file)
        meta = catalog.ingest("bib", xml_file)
        assert meta["generation"] == 2
        assert catalog.info("bib")["generation"] == 2

    def test_drop(self, catalog, xml_file):
        catalog.ingest("bib", xml_file)
        bundle = catalog.bundle_path("bib")
        assert bundle.exists()
        catalog.drop("bib")
        assert not bundle.exists()
        assert "bib" not in catalog

    def test_build_from_store(self, catalog, figure1_store):
        meta = catalog.build("direct", figure1_store)
        assert meta["source"] is None
        assert catalog.open("direct").store.node_count == 19


class TestFindSource:
    def test_hit_on_fresh_bundle(self, catalog, xml_file):
        catalog.ingest("bib", xml_file)
        assert catalog.find_source(xml_file) == "bib"

    def test_miss_on_unknown_file(self, catalog, xml_file, tmp_path):
        catalog.ingest("bib", xml_file)
        other = tmp_path / "other.xml"
        other.write_text("<a/>", encoding="utf-8")
        assert catalog.find_source(other) is None

    def test_modified_source_is_not_served_stale(self, catalog, xml_file):
        import os

        catalog.ingest("bib", xml_file)
        stat = xml_file.stat()
        xml_file.write_text("<bib><other/></bib>", encoding="utf-8")
        assert catalog.find_source(xml_file) is None
        # Even a restore of different content with a *backdated* mtime
        # (cp -p, tar extraction) breaks the (size, mtime) fingerprint.
        os.utime(xml_file, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert catalog.find_source(xml_file) is None

    def test_source_modified_during_ingest_is_not_fresh(
        self, catalog, xml_file, monkeypatch
    ):
        # The fingerprint is taken before the (long) parse: content
        # that changes mid-ingest must not register as fresh.
        import repro.monet.transform as transform_mod

        real = transform_mod.shred_xml

        def mutating_shred(text, first_oid=0):
            xml_file.write_text(
                xml_file.read_text(encoding="utf-8") + "\n", encoding="utf-8"
            )
            return real(text, first_oid)

        monkeypatch.setattr(transform_mod, "shred_xml", mutating_shred)
        catalog.ingest("bib", xml_file)
        assert catalog.find_source(xml_file) is None



class TestErrors:
    def test_open_unknown_collection(self, catalog):
        with pytest.raises(StorageError, match="no collection"):
            catalog.open("ghost")

    def test_drop_unknown_collection(self, catalog):
        with pytest.raises(StorageError, match="no collection"):
            catalog.drop("ghost")

    def test_invalid_name(self, catalog, figure1_store):
        with pytest.raises(StorageError, match="invalid collection name"):
            catalog.build("../escape", figure1_store)
        with pytest.raises(StorageError, match="invalid collection name"):
            catalog.build("", figure1_store)
        # A '.snap' suffix would be unaddressable by every load path.
        with pytest.raises(StorageError, match="must not end in '.snap'"):
            catalog.build("backup.snap", figure1_store)

    def test_missing_source(self, catalog, tmp_path):
        with pytest.raises(StorageError, match="no such source"):
            catalog.ingest("x", tmp_path / "absent.xml")

    def test_missing_catalog_dir(self, tmp_path):
        with pytest.raises(StorageError, match="no such catalog"):
            Catalog(tmp_path / "absent", create=False)

    def test_corrupt_manifest(self, catalog, xml_file):
        catalog.ingest("bib", xml_file)
        catalog.manifest_path.write_text("{broken", encoding="utf-8")
        with pytest.raises(StorageError, match="corrupt catalog manifest"):
            catalog.names()

    def test_wrong_manifest_format(self, catalog):
        catalog.manifest_path.write_text(
            json.dumps({"format": "other", "version": 1}), encoding="utf-8"
        )
        with pytest.raises(StorageError, match="not a snapshot catalog"):
            catalog.names()

    def test_corrupt_generation_in_manifest(self, catalog, xml_file):
        catalog.ingest("bib", xml_file)
        manifest = json.loads(catalog.manifest_path.read_text(encoding="utf-8"))
        manifest["collections"]["bib"]["generation"] = "two"
        catalog.manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(StorageError, match="generation .* is not a number"):
            catalog.ingest("bib", xml_file)

    def test_registered_but_missing_bundle(self, catalog, xml_file):
        catalog.ingest("bib", xml_file)
        catalog.bundle_path("bib").unlink()
        with pytest.raises(StorageError, match="bundle .* missing"):
            catalog.open("bib")
