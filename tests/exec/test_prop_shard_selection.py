"""Property: every shard response equals the definition, written out here.

The shard service answers ``nearest`` ops and ``meet(...)`` query items
through :func:`repro.core.backends.select_meets`.  This suite holds
each response to the definition spelled out below in plain python, on
every backend — so the routine, the batch columns behind it and the
residue mask are all checked against something that shares none of
their code:

* roll up the shard's input pairs with the paper's steered walk;
* drop the meet at the shard's stand-in root;
* residue = the input pairs no kept meet contains, with their depths;
* then ``meet_X`` (excluded pids), all-terms, ``within`` and — for
  ``nearest`` — the §4 ranking ``(joins, spread, -depth, oid)`` cut to
  ``limit``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import backends
from repro.core.meet_general import meet_tagged
from repro.datasets import DblpConfig, dblp_document
from repro.exec import ShardService, compute_shard_plan, slice_store
from repro.fulltext.search import SearchEngine
from repro.monet.transform import monet_transform

from ..property.strategies import WORDS, stores

BACKENDS = ("steered", "vector")


def _joins(shard, meet):
    depth = shard.depth_of(meet.oid)
    return sum(shard.depth_of(oid) - depth for oid in meet.origins)


def _kept_and_residue(shard, tagged):
    """The steered roll-up minus the stand-in root, and what it left."""
    kept = [
        meet for meet in meet_tagged(shard, tagged)
        if meet.oid != shard.root_oid
    ]
    residue = sorted(
        (token, oid, shard.depth_of(oid))
        for token, oid in set(tagged)
        if not any((token, oid) in meet.tokens for meet in kept)
    )
    return kept, residue


def _expected_nearest(shard, terms, exclude_pids, require_all, within, limit):
    search = SearchEngine(shard)
    hits = {term: search.index.search(term).oids() for term in terms}
    tagged = [(term, oid) for term in terms for oid in hits[term]]
    kept, residue = _kept_and_residue(shard, tagged)
    meets = []
    for meet in kept:
        if shard.pid_of(meet.oid) in exclude_pids:
            continue
        if require_all and not meet.tags >= set(terms):
            continue
        if within is not None and _joins(shard, meet) > within:
            continue
        origins = sorted(meet.origins)
        meets.append(
            {
                "oid": meet.oid,
                "pid": shard.pid_of(meet.oid),
                "origins": origins,
                "terms": sorted(meet.tags),
                "joins": _joins(shard, meet),
                "spread": shard.live_distance(origins[0], origins[-1]),
                "depth": shard.depth_of(meet.oid),
            }
        )
    meets.sort(key=lambda m: (m["joins"], m["spread"], -m["depth"], m["oid"]))
    return {
        "meets": meets if limit is None else meets[:limit],
        "residue": residue,
        "index_counts": {term: len(set(hits[term])) for term in terms},
    }


def _services(store, shards, backend):
    slices = slice_store(store, compute_shard_plan(store, shards))
    return [
        ShardService(shard, shard_id=index, backend=backend)
        for index, shard in enumerate(slices)
    ]


@settings(max_examples=60, deadline=None)
@given(
    store=stores(max_nodes=40),
    shards=st.integers(1, 5),
    terms=st.lists(st.sampled_from(WORDS), min_size=2, max_size=4, unique=True),
    exclude_seed=st.integers(0, 2**16),
    require_all=st.booleans(),
    within=st.none() | st.integers(0, 8),
    limit=st.none() | st.integers(0, 6),
)
def test_nearest_response_matches_definition(
    store, shards, terms, exclude_seed, require_all, within, limit
):
    # A pseudo-random subset of the path summary as the meet_X set.
    exclude_pids = [
        pid for pid in range(1, len(store.summary))
        if (exclude_seed >> (pid % 16)) & 1
    ]
    for backend in BACKENDS:
        for service in _services(store, shards, backend):
            response = service.handle(
                "nearest",
                {
                    "terms": [(term, "token") for term in terms],
                    "exclude_pids": exclude_pids,
                    "require_all_terms": require_all,
                    "within": within,
                    "limit": limit,
                },
            )
            expected = _expected_nearest(
                service.store, terms, set(exclude_pids), require_all,
                within, limit,
            )
            for field, value in expected.items():
                assert response[field] == value, (backend, field)


@settings(max_examples=60, deadline=None)
@given(
    store=stores(max_nodes=40),
    shards=st.integers(1, 5),
    terms=st.lists(st.sampled_from(WORDS), min_size=2, max_size=3, unique=True),
    within=st.none() | st.integers(0, 8),
    exclude_root=st.booleans(),
)
def test_meet_item_matches_definition(
    store, shards, terms, within, exclude_root
):
    variables = [f"v{index}" for index in range(len(terms))]
    text = (
        "select meet(" + ", ".join(f"${v}" for v in variables) + ")"
        + (f" within {within}" if within is not None else "")
        + (" exclude root" if exclude_root else "")
        + " from " + ", ".join(f"# ${v}" for v in variables)
        + " where " + " and ".join(
            f"${v} contains '{term}'" for v, term in zip(variables, terms)
        )
    )
    for backend in BACKENDS:
        for service in _services(store, shards, backend):
            shard = service.store
            response = service.handle("query", {"text": text})
            item = response["meet_items"]["0"]
            tagged = [
                (variable, oid)
                for variable in variables
                for oid in response["variables"][variable]["minimal"]
            ]
            kept, residue = _kept_and_residue(shard, tagged)
            root_pid = shard.pid_of(shard.root_oid)
            meets = sorted(
                meet.oid
                for meet in kept
                if not (exclude_root and shard.pid_of(meet.oid) == root_pid)
                and (within is None or _joins(shard, meet) <= within)
            )
            assert item["meets"] == meets, backend
            assert item["residue"] == residue, backend


def test_limited_vector_shard_request_builds_only_the_winners(monkeypatch):
    """``limit=5`` on the vector tier constructs at most 5 TaggedMeets:
    filtering, ranking and the residue all run on the batch's columns."""
    store = monet_transform(
        dblp_document(DblpConfig(papers_per_proceedings=4, articles_per_year=2))
    )
    (service,) = _services(store, 1, "vector")
    params = {"terms": [("ICDE", "token"), ("1999", "token")], "limit": 5}
    unlimited = service.handle("nearest", dict(params, limit=None))
    assert len(unlimited["meets"]) > 5 and unlimited["residue"]

    built = []

    class CountingMeet(backends.TaggedMeet):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(backends, "TaggedMeet", CountingMeet)
    limited = service.handle("nearest", dict(params))
    assert limited["meets"] == unlimited["meets"][:5]
    assert limited["residue"] == unlimited["residue"]
    assert 0 < len(built) <= 5
