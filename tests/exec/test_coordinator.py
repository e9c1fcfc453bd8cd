"""Coordinator specifics: root meets, residue, caching, presentation."""

import pytest

from repro.api import Database, NearestRequest
from repro.api.envelopes import QueryRequest
from repro.core.engine import NearestConceptEngine
from repro.core.result_cache import ResultCache
from repro.datamodel.errors import ReproError
from repro.datamodel.parser import parse_document
from repro.datasets import DblpConfig, dblp_document
from repro.exec import (
    SerialExecutor,
    ShardedCollection,
    compute_shard_plan,
    shard_services,
)
from repro.monet.transform import monet_transform

ROOT_HIT_XML = """
<bib owner="Bob Byte">
  <article><author>Alice Bit</author><year>1999</year></article>
  <article><author>Carol Code</author><year>2001</year></article>
  <article><author>Dan Data</author><year>1999</year></article>
</bib>
"""


def _sharded(store, shards, *, cache=None):
    plan = compute_shard_plan(store, shards)
    services = shard_services(store, plan)
    return ShardedCollection(
        plan,
        store,
        SerialExecutor(list(services.values())),
        generations=[store.generation] * plan.shard_count,
        cache=cache,
    )


@pytest.fixture(scope="module")
def root_store():
    return monet_transform(parse_document(ROOT_HIT_XML, first_oid=1))


@pytest.fixture(scope="module")
def dblp_store():
    return monet_transform(
        dblp_document(DblpConfig(papers_per_proceedings=3, articles_per_year=2))
    )


def test_root_attribute_hits_meet_at_root(root_store):
    """Two terms hitting only the root's own attribute ("Bob Byte"):

    the meet *is* the root, and only shard 0 holds the association —
    the coordinator must assemble it from the residue."""
    engine = NearestConceptEngine(root_store)
    for shards in (1, 2, 3):
        sharded = _sharded(root_store, shards)
        expected = engine.nearest_concepts("Bob", "Byte")
        actual = sharded.nearest_concepts("Bob", "Byte")
        assert actual == expected
        assert actual and actual[0].oid == root_store.root_oid


def test_cross_shard_residue_forms_root_meet(root_store):
    """Terms whose witnesses live in different top-level subtrees meet
    at the root; per-shard roll-ups can never see that node."""
    engine = NearestConceptEngine(root_store)
    sharded = _sharded(root_store, 3)
    expected = engine.nearest_concepts("Alice", "Carol")
    actual = sharded.nearest_concepts("Alice", "Carol")
    assert actual == expected
    assert any(c.oid == root_store.root_oid for c in actual)


def test_exclude_root_suppresses_the_root_meet(root_store):
    engine = NearestConceptEngine(root_store)
    sharded = _sharded(root_store, 3)
    assert sharded.nearest_concepts(
        "Alice", "Carol", exclude_root=True
    ) == engine.nearest_concepts("Alice", "Carol", exclude_root=True)


def test_nearest_requires_two_terms(root_store):
    sharded = _sharded(root_store, 2)
    with pytest.raises(ValueError):
        sharded.nearest_concepts("Alice")


def test_cache_hits_and_layout_isolation(dblp_store):
    """One shared cache across two layouts: keys must never collide."""
    cache = ResultCache(maxsize=64)
    two = _sharded(dblp_store, 2, cache=cache)
    first = two.nearest_concepts("ICDE", "1999", limit=5)
    again = two.nearest_concepts("ICDE", "1999", limit=5)
    assert again == first
    info = cache.cache_info()
    assert info.hits == 1 and info.misses == 1

    # A different layout (re-sharding) must miss, not serve stale rows:
    # its generation vector differs, so sync_generation purges.
    three = _sharded(dblp_store, 3, cache=cache)
    rebuilt = three.nearest_concepts("ICDE", "1999", limit=5)
    assert rebuilt == first
    assert cache.cache_info().misses == 2


def test_query_cache_round_trip(dblp_store):
    cache = ResultCache(maxsize=8)
    sharded = _sharded(dblp_store, 2, cache=cache)
    text = (
        "select meet($a,$b) from # $a, # $b "
        "where $a contains 'ICDE' and $b contains '1999'"
    )
    first = sharded.execute(text)
    second = sharded.execute(text)
    assert second.columns == first.columns and second.rows == first.rows
    assert cache.cache_info().hits == 1


@pytest.fixture(scope="module")
def xml_paths(root_store, dblp_store, tmp_path_factory):
    """The two fixture documents as XML files, for ``Database.open``."""
    root = tmp_path_factory.mktemp("coordinator")
    paths = {}
    for name, store in (("root", root_store), ("dblp", dblp_store)):
        paths[name] = root / f"{name}.xml"
        paths[name].write_text(
            NearestConceptEngine(store).to_xml(store.root_oid),
            encoding="utf-8",
        )
    return paths


def _opened(path, shards):
    """(monolithic, sharded) databases over one XML file."""
    return Database.open(str(path)), Database.open(str(path), shards=shards)


def test_snippets_match_engine(xml_paths):
    mono, sharded = _opened(xml_paths["dblp"], 3)
    request = NearestRequest(terms=("ICDE", "1999"), limit=5, snippets=True)
    expected = mono.nearest(request).answers
    assert sharded.nearest(request).answers == expected
    for answer in expected:
        assert answer["snippet"] == mono.engine.snippet(answer["oid"])


def test_root_snippet_composes_across_shards(xml_paths):
    mono, sharded = _opened(xml_paths["root"], 3)
    request = NearestRequest(terms=("Alice", "Carol"), snippets=True)
    answers = sharded.nearest(request).answers
    assert answers == mono.nearest(request).answers
    root = mono.store.root_oid
    assert root in [answer["oid"] for answer in answers]
    assert sharded.engine.snippet(root) == mono.engine.snippet(root)
    # Narrow widths exercise the truncation path.
    assert sharded.engine.snippet(root, width=10) == mono.engine.snippet(
        root, width=10
    )


def test_to_xml_matches_engine(xml_paths):
    mono, sharded = _opened(xml_paths["dblp"], 3)
    [answer] = mono.nearest("ICDE", "1999", limit=1).answers
    assert sharded.to_xml(answer["oid"]) == mono.to_xml(answer["oid"])


@pytest.mark.parametrize("shards", (1, 2, 3))
@pytest.mark.parametrize("indent", (2, 4, None))
def test_root_to_xml_composes_across_shards(xml_paths, shards, indent):
    """Serializing the root — the whole document — spans every shard
    and must match the monolithic serializer byte for byte."""
    for path in xml_paths.values():
        mono, sharded = _opened(path, shards)
        root = mono.store.root_oid
        assert sharded.to_xml(root, indent=indent) == (
            mono.to_xml(root, indent=indent)
        )


def test_root_to_xml_edge_shapes(tmp_path):
    """Self-closing and all-cdata roots frame identically."""
    for xml in ("<bib key='x'/>", "<bib>only text here</bib>"):
        path = tmp_path / "edge.xml"
        path.write_text(xml, encoding="utf-8")
        mono, sharded = _opened(path, 2)
        root = mono.store.root_oid
        for indent in (2, None):
            assert sharded.to_xml(root, indent=indent) == (
                mono.to_xml(root, indent=indent)
            )


def test_render_reads_pids_across_shards(xml_paths):
    """Rendered answers label OIDs of every shard and the root."""
    texts = {
        "dblp": "select $a from # $a where $a contains 'ICDE'",
        "root": "select $a, tag($a) from bib $a where $a contains 'Alice'",
    }
    for name, text in texts.items():
        mono, sharded = _opened(xml_paths[name], 3)
        request = QueryRequest(text=text, render=True)
        rendered = sharded.query(request).rendered
        assert rendered == mono.query(request).rendered
        assert "<!-- oid" in rendered


def test_last_shard_stats_records_rounds(dblp_store):
    sharded = _sharded(dblp_store, 2)
    sharded.nearest_concepts("ICDE", "1999", limit=3)
    stats = sharded.last_shard_stats()
    assert stats["count"] == 2
    assert stats["rounds"] == 1
    assert len(stats["per_shard_ms"]) == 2
    # A term absent from the token index is scanned in the same round.
    sharded.nearest_concepts("Hac", "1999")
    assert sharded.last_shard_stats()["rounds"] == 1


HACK_XML = """
<bib>
  <article><title>How to Hack</title><year>1999</year></article>
  <article><title>Hacking &amp; RSI</title><year>1999</year></article>
  <article><title>Bits</title><year>2001</year></article>
</bib>
"""


def test_partial_word_takes_one_scatter_per_op():
    """"Hac" is no token of the index: every shard scans for it in the
    one scatter of each op, and the merge equals monolithic."""
    from repro.query.executor import QueryProcessor

    store = monet_transform(parse_document(HACK_XML, first_oid=1))
    plan = compute_shard_plan(store, 2)
    assert plan.shard_count == 2
    scatters = []

    class CountingExecutor(SerialExecutor):
        def scatter(self, ops):
            scatters.append(len(ops))
            return super().scatter(ops)

    sharded = ShardedCollection(
        plan,
        store,
        CountingExecutor(list(shard_services(store, plan).values())),
        generations=[store.generation] * plan.shard_count,
    )
    engine = NearestConceptEngine(store)
    text = "select $a from # $a where $a contains 'Hac'"

    nearest = sharded.nearest_concepts("Hac", "1999")
    assert scatters == [2]
    assert nearest == engine.nearest_concepts("Hac", "1999")
    assert len(nearest) == 2

    rows = sharded.term_hit_rows("Hac")
    assert scatters == [2, 2]
    assert [oid for oid, _pid in rows] == sorted(engine.term_hits("Hac").oids())
    assert len(rows) == 2

    result = sharded.execute(text)
    assert scatters == [2, 2, 2]
    assert result.rows == QueryProcessor(store).execute(text).rows
    assert sharded.last_shard_stats()["rounds"] == 1


ROOT_QUERY_CASES = [
    # Root binds via the ancestor closure; text(root) spans all shards.
    "select $a, tag($a), text($a) from bib $a where $a contains 'Alice'",
    # Root binds via equals on its own attribute (shard 0 only).
    "select $a, path($a) from bib $a where $a = 'Bob Byte'",
    # Enumeration where the root is one bound node among many.
    "select tag($a) from # $a where $a contains '1999'",
    # Distance where one witness is the root itself.
    "select distance($a,$b) from bib $a, #/author $b "
    "where $a = 'Bob Byte' and $b contains 'Alice'",
    # Meet aggregation where one variable binds only the root.
    "select meet($a,$b) from bib $a, #/author $b "
    "where $a = 'Bob Byte' and $b contains 'Carol'",
]


@pytest.mark.parametrize("shards", (1, 2, 3))
def test_root_binding_query_paths(root_store, shards):
    """Every way the true root can enter a query binds identically."""
    from repro.query.executor import QueryProcessor

    processor = QueryProcessor(root_store)
    sharded = _sharded(root_store, shards)
    for text in ROOT_QUERY_CASES:
        expected = processor.execute(text)
        actual = sharded.execute(text)
        assert (actual.columns, actual.rows) == (
            expected.columns,
            expected.rows,
        ), (shards, text)


def test_executor_shard_count_must_match(dblp_store):
    plan = compute_shard_plan(dblp_store, 2)
    services = list(shard_services(dblp_store, plan, [0]).values())
    with pytest.raises(ReproError):
        ShardedCollection(
            plan,
            dblp_store,
            SerialExecutor(services),
            generations=(1,),
        )
