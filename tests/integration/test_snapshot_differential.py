"""Differential acceptance: snapshot-loaded stores answer identically.

For every bundled dataset, ``nearest_concepts`` answer sets *and*
ranking order of a snapshot-loaded store, served on the kernels, must
be byte-identical to a freshly built store's on ``backend`` — the
paper's ``steered`` walks (the reference) or the ``vector`` kernels:
persistence changes nothing about semantics.
"""

import pytest

from repro.core.engine import NearestConceptEngine
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
from repro.monet.transform import monet_transform
from repro.snapshot import read_snapshot, write_snapshot

DATASETS = {
    "figure1": (
        lambda: figure1_document(),
        [("Bit", "1999"), ("Bob", "Byte"), ("Hack", "1999")],
    ),
    "plays": (
        lambda: plays_document(PlaysConfig(plays=2, acts_per_play=2, scenes_per_act=2)),
        [("crown", "ghost"), ("love", "storm"), ("king", "night")],
    ),
    "dblp": (
        lambda: dblp_document(DblpConfig(papers_per_proceedings=4, articles_per_year=2)),
        [("ICDE", "1999"), ("VLDB", "1994"), ("SIGMOD", "1988")],
    ),
    "multimedia": (
        lambda: multimedia_document(MultimediaConfig(items=8)),
        [("wavelet", "texture"), ("motion", "region")],
    ),
    "random": (
        lambda: random_document(7, nodes=800, max_children=4),
        [("wavelet", "texture"), ("histogram", "contour")],
    ),
}


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """(fresh store, loaded store) per dataset, built once."""
    root = tmp_path_factory.mktemp("differential")
    pairs = {}
    for name, (build, _queries) in DATASETS.items():
        store = monet_transform(build())
        bundle = root / f"{name}.snap"
        write_snapshot(store, bundle)
        pairs[name] = (store, read_snapshot(bundle).store)
    return pairs


@pytest.mark.parametrize("dataset", list(DATASETS))
@pytest.mark.parametrize("backend", ["steered", "vector"])
def test_answers_and_ranking_identical(snapshots, dataset, backend):
    fresh_store, loaded_store = snapshots[dataset]
    _build, queries = DATASETS[dataset]
    fresh = NearestConceptEngine(fresh_store, backend=backend)
    loaded = NearestConceptEngine(loaded_store)
    for terms in queries:
        for options in (
            {},
            {"limit": 5},
            {"exclude_root": True, "require_all_terms": True},
        ):
            expected = fresh.nearest_concepts(*terms, **options)
            actual = loaded.nearest_concepts(*terms, **options)
            # Dataclass equality covers oid, path, origins, terms,
            # joins, spread and depth; list equality covers ranking
            # order.  Byte-identical or bust.
            assert actual == expected, (
                f"{dataset}/{backend}/{terms}/{options}: snapshot-loaded "
                f"store diverged from the freshly built one"
            )


@pytest.mark.parametrize("dataset", list(DATASETS))
def test_batch_entry_point_identical(snapshots, dataset):
    fresh_store, loaded_store = snapshots[dataset]
    _build, queries = DATASETS[dataset]
    fresh = NearestConceptEngine(fresh_store, backend="vector")
    loaded = NearestConceptEngine(loaded_store, backend="vector")
    assert loaded.nearest_concepts_batch(queries, limit=3) == (
        fresh.nearest_concepts_batch(queries, limit=3)
    )
