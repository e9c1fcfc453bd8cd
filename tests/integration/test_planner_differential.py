"""Differential acceptance for the cost-based planner.

The contract: for every bundled dataset, on monolithic and 2-shard
layouts, the planner-chosen access paths must answer
**byte-identically** — column names, rows, and row order — to a forced
path-summary scan (``force_scan=True``), both on the pristine store and
after a randomized live mutate sequence.  Prepared execution must
likewise be indistinguishable from ad-hoc queries with the same
bindings.  Shards serve on the kernels; ``backend`` names the
monolithic processor they are held to — ``steered``, the paper's
walks, or ``vector``, the served monolithic path.

Query literals are drawn from the store's actual association values,
so equality probes genuinely hit and the comparison is never
vacuously empty-vs-empty.
"""

import pytest

from repro.exec import (
    SerialExecutor,
    ShardedCollection,
    compute_shard_plan,
    shard_services,
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
            for value in store.string_runs().tails
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


def sharded_pair(store, shards=2):
    """(planner, force-scan) coordinators sharing one set of services."""
    plan = compute_shard_plan(store, shards)
    executor = SerialExecutor(list(shard_services(store, plan).values()))
    generations = [store.generation] * plan.shard_count
    build = lambda force: ShardedCollection(
        plan,
        store,
        executor,
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
    planned_sc, scanned_sc = sharded_pair(store)
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


def plan_estimates(plan):
    """``stats.plan``'s estimates: rows per variable and per condition,
    and the scan cost (``actual_rows`` is not compared)."""
    return (
        [variable["estimated_rows"] for variable in plan["variables"]],
        [
            (condition["estimated_rows"], condition["scan_cost"])
            for condition in plan["conditions"]
        ],
    )


@pytest.mark.parametrize("dataset", list(DATASETS))
def test_sharded_plan_estimates_match_monolithic(tmp_path, dataset):
    """The coordinator plans against the one store, so ``stats.plan``
    reports the monolithic estimates — not ``None``."""
    source, _model = write_source(tmp_path, dataset)
    mono = open_live(source, backend="vector")
    sharded = open_live(source, backend="vector", shards=2)
    try:
        for text in queries_for(mono.store):
            # The second round plans with the indexes the first built.
            for _round in range(2):
                expected = plan_estimates(mono.query(text).stats["plan"])
                actual = plan_estimates(sharded.query(text).stats["plan"])
                assert actual == expected, (dataset, text)
                variables, conditions = expected
                assert None not in variables
                assert all(cost is not None for _rows, cost in conditions)
    finally:
        mono.close()
        sharded.close()


@pytest.mark.parametrize("dataset", list(DATASETS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_prepared_matches_adhoc(stores, dataset, backend):
    store = stores[dataset]
    template = parse_query(TEMPLATE)
    processor = QueryProcessor(store, None, backend=backend)
    planned_sc, _ = sharded_pair(store)
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
    """Live writes: probe answers keep tracking the scan, step by step.

    A monolithic open answers on ``backend``; a sharded one serves on
    the kernels and is also held to a force-scan processor on
    ``backend`` over the store it keeps."""
    source, model = write_source(tmp_path, dataset)
    db = open_live(
        source, backend=backend if shards is None else None, shards=shards
    )
    try:
        fuzzer = MutationFuzzer(model, dataset, seed=902_000 + hash(dataset) % 97)
        for _ in range(MUTATION_STEPS):
            apply_step(db, model, fuzzer.step())

        store = db.store
        reference = QueryProcessor(
            store, None, backend=backend, force_scan=True
        ).execute
        if shards is None:
            execute_planned = db.processor.execute
            execute_scanned = reference
        else:
            coordinator = db.sharded
            twin = ShardedCollection(
                coordinator.plan,
                coordinator.store,
                coordinator.executor,
                case_sensitive=coordinator.case_sensitive,
                generations=coordinator.generations,
                force_scan=True,
            )
            execute_planned = coordinator.execute
            execute_scanned = twin.execute

        for text in queries_for(store):
            planned = execute_planned(text)
            context = (dataset, backend, shards, text)
            assert_identical(planned, execute_scanned(text), context)
            assert_identical(planned, reference(text), context)
        for value in picked_values(store):
            planned = execute_planned(TEMPLATE, bindings={"v": value})
            context = (dataset, backend, shards, "prepared", value)
            assert_identical(
                planned,
                execute_scanned(TEMPLATE, bindings={"v": value}),
                context,
            )
            assert_identical(
                planned, reference(TEMPLATE, bindings={"v": value}), context
            )
    finally:
        db.close()
