"""Structural invariants of the shard plan: OID ranges of one store."""

import pytest

from repro.datasets import DblpConfig, dblp_document, figure1_document
from repro.datasets.randomtree import random_document
from repro.datamodel.paths import Path
from repro.exec import ShardPlan, ShardingError, compute_shard_plan, shard_services
from repro.monet.engine import MonetXML, int32_column
from repro.monet.transform import monet_transform


@pytest.fixture(scope="module")
def dblp_store():
    return monet_transform(
        dblp_document(DblpConfig(papers_per_proceedings=3, articles_per_year=2))
    )


def test_plan_tiles_the_oid_range(dblp_store):
    plan = compute_shard_plan(dblp_store, 4)
    assert plan.shard_count == 4
    assert plan.starts[0] == dblp_store.root_oid + 1
    assert plan.ends[-1] == dblp_store.last_oid + 1
    for previous_end, start in zip(plan.ends, plan.starts[1:]):
        assert start == previous_end
    assert plan.node_count == dblp_store.node_count


def test_plan_balances_shards(dblp_store):
    plan = compute_shard_plan(dblp_store, 4)
    sizes = [end - start for start, end in zip(plan.starts, plan.ends)]
    assert sum(sizes) == dblp_store.node_count - 1
    # Balanced within a factor: no shard dominates the run.
    assert max(sizes) <= 2 * (sum(sizes) / len(sizes))


def test_requested_count_clamps_to_subtrees():
    store = monet_transform(figure1_document())
    subtrees = len(store.children_of(store.root_oid))
    plan = compute_shard_plan(store, 64)
    assert plan.shard_count == min(64, subtrees)


def test_shard_of_routes_every_oid(dblp_store):
    plan = compute_shard_plan(dblp_store, 3)
    assert plan.shard_of(dblp_store.root_oid) == 0
    for oid in dblp_store.iter_oids():
        shard = plan.shard_of(oid)
        if oid != dblp_store.root_oid:
            assert plan.starts[shard] <= oid < plan.ends[shard]
    with pytest.raises(ShardingError):
        plan.shard_of(dblp_store.last_oid + 1)


def test_plan_round_trips_through_dict(dblp_store):
    plan = compute_shard_plan(dblp_store, 2)
    assert ShardPlan.from_dict(plan.to_dict()) == plan
    with pytest.raises(ShardingError):
        ShardPlan.from_dict({"count": 2})


def test_invalid_shard_count(dblp_store):
    with pytest.raises(ShardingError):
        compute_shard_plan(dblp_store, 0)


def test_shard_spans_tile_the_store(dblp_store):
    plan = compute_shard_plan(dblp_store, 3)
    spans = [plan.span(shard) for shard in range(plan.shard_count)]
    assert spans[0][0] == dblp_store.root_oid
    assert spans[-1][1] == dblp_store.last_oid + 1
    for (_lo, hi), (lo, _hi) in zip(spans, spans[1:]):
        assert hi == lo
    for shard, (lo, hi) in enumerate(spans):
        assert all(plan.shard_of(oid) == shard for oid in range(lo, hi))


def test_string_rows_partition_exactly(dblp_store):
    """Every string row's owner lies in exactly one shard's range; the
    root's rows in shard 0's."""
    plan = compute_shard_plan(dblp_store, 4)
    spans = [plan.span(shard) for shard in range(plan.shard_count)]
    owners = dblp_store.string_runs().heads.tolist()
    for owner in owners:
        holders = [lo <= owner < hi for lo, hi in spans]
        assert holders.count(True) == 1
        if owner == dblp_store.root_oid:
            assert holders[0]


def test_wrong_plan_is_rejected(dblp_store):
    other = monet_transform(figure1_document())
    plan = compute_shard_plan(other, 1)
    with pytest.raises(ShardingError):
        shard_services(dblp_store, plan)


def test_childless_root_shards_to_root_only():
    from repro.datamodel.parser import parse_document

    store = monet_transform(parse_document("<bib key='x'/>", first_oid=1))
    plan = compute_shard_plan(store, 4)
    assert plan.shard_count == 1
    assert plan.span(0) == (store.root_oid, store.root_oid + 1)
    [service] = shard_services(store, plan).values()
    assert service.handle("ping", {})["nodes"] == 1


def _store(parents):
    """A hand-made store: the root (OID 1) and ``parents[i]`` as the
    parent of OID ``i + 2``."""
    from repro.monet.pathsummary import PathSummary
    from repro.monet.relations import group_rows

    summary = PathSummary()
    pid = summary.intern(Path.of("bib"))
    child = summary.intern(Path.of("bib", "x"))
    count = len(parents) + 1
    return MonetXML(
        summary=summary,
        root_oid=1,
        first_oid=1,
        oid_pid=int32_column([pid] + [child] * len(parents)),
        oid_parent=int32_column([-1] + list(parents)),
        oid_rank=int32_column(range(count)),
        strings=group_rows([], [], []),
    )


def test_store_out_of_pre_order_is_refused():
    # 1 → {2, 3}, 2 → {4}: pre-order puts 4 inside 2's subtree, before 3.
    plan = compute_shard_plan(_store([1, 2, 1]), 2)
    assert (plan.starts, plan.ends) == ((2, 4), (4, 5))
    # Shuffled: OID 4's parent is 2, but 4 sits in 3's span.
    with pytest.raises(ShardingError, match="pre-order"):
        compute_shard_plan(_store([1, 1, 2]), 2)
