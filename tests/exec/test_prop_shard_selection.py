"""Property: every shard response equals the definition, written out here.

The shard service answers ``nearest`` ops and ``meet(...)`` query items
through :func:`repro.core.backends.select_meets`.  This suite holds
each response, served on the kernels, to the definition spelled out
below in plain python — so the routine, the batch columns behind it and the
residue mask are all checked against something that shares none of
their code.  A shard is ``(store, lo, hi)``: the one store and its
half-open OID range, which for shard 0 also covers the root.  Its hits
are the term's hits inside the range, chosen by the one rule of the
whole store: the associations holding the term as a whole word when
there are any, else those holding it as a substring.  Then:

* roll up the shard's input pairs with the paper's steered walk;
* drop the meet at the document root;
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
from repro.exec import compute_shard_plan, shard_services
from repro.monet.transform import monet_transform

from ..property.strategies import WORDS, stores

#: Parts of WORDS that are no whole word of any value: their hits come
#: from the substring scan.
PARTIALS = ("alp", "eta", "99")


def _joins(store, meet):
    depth = store.depth_of(meet.oid)
    return sum(store.depth_of(oid) - depth for oid in meet.origins)


def _kept_and_residue(store, tagged):
    """The steered roll-up minus the root meet, and what it left."""
    kept = [
        meet for meet in meet_tagged(store, tagged)
        if meet.oid != store.root_oid
    ]
    residue = sorted(
        (token, oid, store.depth_of(oid))
        for token, oid in set(tagged)
        if not any((token, oid) in meet.tokens for meet in kept)
    )
    return kept, residue


def _words(value):
    """The lower-cased alphanumeric runs of a value."""
    return "".join(ch if ch.isalnum() else " " for ch in value.lower()).split()


def _hits(store, term, lo, hi):
    """The term's whole-word hits in the store if it has any, else its
    substring hits — cut to ``[lo, hi)``."""
    strings = store.string_runs()
    pairs = list(zip(strings.heads.tolist(), strings.tails))
    term = term.lower()
    found = {oid for oid, value in pairs if term in _words(value)} or {
        oid for oid, value in pairs if term in value.lower()
    }
    return {oid for oid in found if lo <= oid < hi}


def _expected_nearest(
    store, lo, hi, terms, exclude_pids, require_all, within, limit
):
    hits = {term: _hits(store, term, lo, hi) for term in terms}
    tagged = [(term, oid) for term in terms for oid in hits[term]]
    kept, residue = _kept_and_residue(store, tagged)
    meets = []
    for meet in kept:
        if store.pid_of(meet.oid) in exclude_pids:
            continue
        if require_all and not meet.tags >= set(terms):
            continue
        if within is not None and _joins(store, meet) > within:
            continue
        origins = sorted(meet.origins)
        meets.append(
            {
                "oid": meet.oid,
                "pid": store.pid_of(meet.oid),
                "origins": origins,
                "terms": sorted(meet.tags),
                "joins": _joins(store, meet),
                "spread": store.live_distance(origins[0], origins[-1]),
                "depth": store.depth_of(meet.oid),
            }
        )
    meets.sort(key=lambda m: (m["joins"], m["spread"], -m["depth"], m["oid"]))
    return {
        "meets": meets if limit is None else meets[:limit],
        "residue": residue,
    }


def _shards(store, shards):
    """``(service, lo, hi)`` per shard, the range written out: the
    plan's run of whole top-level subtrees, from the root for shard 0."""
    plan = compute_shard_plan(store, shards)
    services = shard_services(store, plan)
    return [
        (service, store.root_oid if index == 0 else plan.starts[index],
         plan.ends[index])
        for index, service in services.items()
    ]


@settings(max_examples=60, deadline=None)
@given(
    store=stores(max_nodes=40),
    shards=st.integers(1, 5),
    terms=st.lists(
        st.sampled_from(WORDS + PARTIALS), min_size=2, max_size=4, unique=True
    ),
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
    for service, lo, hi in _shards(store, shards):
        response = service.handle(
            "nearest",
            {
                "terms": terms,
                "exclude_pids": exclude_pids,
                "require_all_terms": require_all,
                "within": within,
                "limit": limit,
            },
        )
        expected = _expected_nearest(
            store, lo, hi, terms, set(exclude_pids), require_all,
            within, limit,
        )
        for field, value in expected.items():
            assert response[field] == value, field


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
    for service, _lo, _hi in _shards(store, shards):
        response = service.handle("query", {"text": text})
        item = response["meet_items"]["0"]
        tagged = [
            (variable, oid)
            for variable in variables
            for oid in response["variables"][variable]["minimal"]
        ]
        kept, residue = _kept_and_residue(store, tagged)
        root_pid = store.pid_of(store.root_oid)
        meets = sorted(
            meet.oid
            for meet in kept
            if not (exclude_root and store.pid_of(meet.oid) == root_pid)
            and (within is None or _joins(store, meet) <= within)
        )
        assert item["meets"] == meets
        assert item["residue"] == residue


def test_limited_vector_shard_request_builds_only_the_winners(monkeypatch):
    """``limit=5`` on the vector tier constructs at most 5 TaggedMeets:
    filtering, ranking and the residue all run on the batch's columns."""
    store = monet_transform(
        dblp_document(DblpConfig(papers_per_proceedings=4, articles_per_year=2))
    )
    [(service, _lo, _hi)] = _shards(store, 1)
    params = {"terms": ["ICDE", "1999"], "limit": 5}
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
