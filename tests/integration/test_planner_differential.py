"""Differential acceptance for the cost-based planner.

The contract: for every bundled dataset, on both meet backends and on
monolithic and 2-shard layouts, the planner-chosen access paths must
answer **byte-identically** — column names, rows, and row order — to a
forced path-summary scan (``force_scan=True``), both on the pristine
store and after a randomized live mutate sequence.  Prepared execution
must likewise be indistinguishable from ad-hoc queries with the same
bindings.

Query literals are drawn from the store's actual association values,
so equality probes genuinely hit and the comparison is never
vacuously empty-vs-empty.
"""

import pytest

from repro.exec import (
    SerialExecutor,
    ShardService,
    ShardedCollection,
    compute_shard_plan,
    slice_store,
)
from repro.monet.transform import monet_transform
from repro.query.executor import QueryProcessor
from repro.query.parser import parse_query

from ..write.harness import (
    DATASETS,
    MutationFuzzer,
    apply_step,
    open_live,
    write_source,
)

BACKENDS = ("steered", "vector")
MUTATION_STEPS = 8
TEMPLATE = "select $a, tag($a) from # $a where $a = $v"


def picked_values(store, count=3):
    """Real association values to probe (quote-free, deterministic)."""
    values = sorted(
        {
            value
            for _pid, relation in store.string_relations()
            for _oid, value in relation
            if value and "'" not in value
        }
    )
    assert values, "dataset has no string associations to probe"
    step = max(1, len(values) // count)
    return values[::step][:count]


def queries_for(store):
    first, middle, last = (picked_values(store) + [""] * 3)[:3]
    return [
        f"select $a, tag($a) from # $a where $a = '{first}'",
        f"select $a, path($a) from # $a where $a = '{middle}'",
        f"select $a from # $a where $a >= '{last}'",
        f"select $a from # $a where $a < '{middle}'",
        f"select distinct tag($a) from # $a "
        f"where $a >= '{first}' and $a <= '{middle}'",
        f"select meet($a,$b) from # $a, # $b "
        f"where $a = '{first}' and $b >= '{middle}'",
    ]


def sharded_pair(store, backend, shards=2):
    """(planner, force-scan) coordinators sharing one set of services."""
    plan = compute_shard_plan(store, shards)
    slices = slice_store(store, plan)
    executor = SerialExecutor(
        [
            ShardService(shard, shard_id=index, backend=backend)
            for index, shard in enumerate(slices)
        ]
    )
    generations = [shard.generation for shard in slices]
    build = lambda force: ShardedCollection(
        plan,
        store.summary,
        executor,
        backend_name=backend,
        generations=generations,
        force_scan=force,
    )
    return build(False), build(True)


def assert_identical(planned, scanned, context):
    assert planned.columns == scanned.columns, context
    assert planned.rows == scanned.rows, context


@pytest.fixture(scope="module")
def stores():
    return {
        name: monet_transform(spec["build"]())
        for name, spec in DATASETS.items()
    }


@pytest.mark.parametrize("dataset", list(DATASETS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_planner_matches_forced_scan_monolithic(stores, dataset, backend):
    store = stores[dataset]
    planner = QueryProcessor(store, None, backend=backend)
    scanner = QueryProcessor(store, None, backend=backend, force_scan=True)
    for text in queries_for(store):
        assert_identical(
            planner.execute(text),
            scanner.execute(text),
            (dataset, backend, text),
        )


@pytest.mark.parametrize("dataset", list(DATASETS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_planner_matches_forced_scan_sharded(stores, dataset, backend):
    store = stores[dataset]
    planned_sc, scanned_sc = sharded_pair(store, backend)
    mono_scan = QueryProcessor(store, None, backend=backend, force_scan=True)
    for text in queries_for(store):
        planned = planned_sc.execute(text)
        scanned = scanned_sc.execute(text)
        assert_identical(planned, scanned, (dataset, backend, text))
        # ... and the sharded scatter-gather agrees with the
        # monolithic reference, closing the triangle.
        assert planned.rows == mono_scan.execute(text).rows, (
            dataset,
            backend,
            text,
        )


@pytest.mark.parametrize("dataset", list(DATASETS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_prepared_matches_adhoc(stores, dataset, backend):
    store = stores[dataset]
    template = parse_query(TEMPLATE)
    processor = QueryProcessor(store, None, backend=backend)
    planned_sc, _ = sharded_pair(store, backend)
    for value in picked_values(store):
        prepared = processor.execute_template(
            template, text=TEMPLATE, bindings={"v": value}
        )
        adhoc = QueryProcessor(store, None, backend=backend).execute(
            TEMPLATE, bindings={"v": value}
        )
        assert_identical(prepared, adhoc, (dataset, backend, value))
        sharded = planned_sc.execute(TEMPLATE, bindings={"v": value})
        assert_identical(sharded, adhoc, (dataset, backend, value))


@pytest.mark.parametrize("dataset", list(DATASETS))
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shards", (None, 2), ids=("monolithic", "sharded"))
def test_planner_matches_forced_scan_after_mutations(
    tmp_path, dataset, backend, shards
):
    """Live writes: probe answers keep tracking the scan, step by step."""
    source, model = write_source(tmp_path, dataset)
    db = open_live(source, backend=backend, shards=shards)
    try:
        fuzzer = MutationFuzzer(model, dataset, seed=902_000 + hash(dataset) % 97)
        for _ in range(MUTATION_STEPS):
            apply_step(db, model, fuzzer.step())

        if shards is None:
            store = db.store
            planner = db.processor
            scanner = QueryProcessor(
                store, None, backend=backend, force_scan=True
            )
            execute_planned = planner.execute
            execute_scanned = scanner.execute
        else:
            store = model.oracle_store()
            coordinator = db.sharded
            twin = ShardedCollection(
                coordinator.plan,
                coordinator.summary,
                coordinator.executor,
                case_sensitive=coordinator.case_sensitive,
                backend_name=coordinator.backend_name,
                generations=coordinator.generations,
                force_scan=True,
            )
            execute_planned = coordinator.execute
            execute_scanned = twin.execute

        for text in queries_for(store):
            assert_identical(
                execute_planned(text),
                execute_scanned(text),
                (dataset, backend, shards, text),
            )
        for value in picked_values(store):
            assert_identical(
                execute_planned(TEMPLATE, bindings={"v": value}),
                execute_scanned(TEMPLATE, bindings={"v": value}),
                (dataset, backend, shards, "prepared", value),
            )
    finally:
        db.close()
