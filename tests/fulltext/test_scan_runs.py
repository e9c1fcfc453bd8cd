"""``SearchEngine.scan`` reads the string runs and keeps nothing.

A missed term falls back to the substring scan.  The scan is one pass
over the store's string columns: once it returns, the traced memory is
where it was (a per-path relation object cached on first access kept
about 0.5 MiB on this store, 10 MiB on the 84k-node benchmark store).
Its postings are the per-row ``contains`` definition over
``store.string_runs()``, in both case modes, whole and cut to a shard's
OID span.
"""

import gc
import tracemalloc

import pytest

from repro.datasets.randomtree import random_document
from repro.exec.sharding import compute_shard_plan
from repro.fulltext.index import Posting
from repro.fulltext.search import SearchEngine, contains
from repro.monet.transform import monet_transform
from repro.snapshot import read_snapshot, write_snapshot


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    path = tmp_path_factory.mktemp("scan") / "random.snap"
    write_snapshot(monet_transform(random_document(42, nodes=3000)), path)
    return read_snapshot(path)


def test_missed_term_scan_keeps_no_memory(loaded):
    assert loaded.engine().nearest_concepts("histogram", "wavelet")
    search = SearchEngine(loaded.store)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hits = search.scan("zzzqx")
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert not hits.postings
    assert kept < 64 * 2**10, kept


def per_row_contains(store, needle, case_sensitive, span=None):
    """The definition: every string row whose value contains the needle,
    run by run in pid order, as a posting on the element path."""
    strings = store.string_runs()
    postings = []
    for pid in strings.pids.tolist():
        oids, values = strings.run(pid)
        for oid, value in zip(oids.tolist(), values):
            if span is not None and not span[0] <= oid < span[1]:
                continue
            if contains(value, needle, case_sensitive):
                postings.append(Posting(store.summary.parent(pid), oid))
    return postings


@pytest.mark.parametrize("case_sensitive", [False, True])
@pytest.mark.parametrize("needle", ["Hist", "ram", "e s", "9", "zzzqx"])
def test_scan_is_per_row_contains(loaded, needle, case_sensitive):
    store = loaded.store
    search = SearchEngine(store, case_sensitive=case_sensitive)
    expected = per_row_contains(store, needle, case_sensitive)
    assert search.scan(needle).postings == expected
    plan = compute_shard_plan(store, 2)
    assert plan.shard_count == 2
    shards = []
    for shard in range(plan.shard_count):
        span = plan.span(shard)
        postings = search.scan(needle, span).postings
        assert postings == per_row_contains(store, needle, case_sensitive, span)
        shards.extend(postings)
    assert sorted(shards, key=lambda p: (p.pid, p.oid)) == sorted(
        expected, key=lambda p: (p.pid, p.oid)
    )
    if needle == "Hist":
        assert bool(expected) != case_sensitive
