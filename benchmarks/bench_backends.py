#!/usr/bin/env python
"""Bench: ``SteeredBackend`` vs ``IndexedBackend`` across workloads.

Runnable directly (CI smoke: ``python benchmarks/bench_backends.py
--quick``); no pytest required.  Two datasets bracket the trade-off:

* **random** — the largest dataset the suite materializes: a deep
  random tree (tens of thousands of nodes, ~100k distinct paths).
  Per-query steered walks pay O(depth) per hit and the schema roll-up
  scans the huge path summary per query; the Euler-RMQ index answers
  in O(1) per pair / O(m log m) per roll-up.  **Indexed wins.**
* **dblp** — the paper's §5 corpus scaled up: wide but shallow
  (depth ≈ 6) with a ~70-entry path summary.  This is the regime the
  paper designed for: steered walks are already near-optimal, so the
  index only pays off on the pairwise batch.  The bench keeps this
  dataset honest rather than cherry-picking.

Workloads per dataset:

* ``build``       — one-off Euler-RMQ index construction cost;
* ``meet_many``   — batched pairwise meets over uniform OID pairs
  (the ranking hot path: thousands of hit-pairs, one index);
* ``nc_batch``    — full ``nearest_concepts_batch`` pipelines (search
  → roll-up → restrict → rank) over two-term queries.

Output: a fixed-width table (also written to
``benchmarks/out/bench_backends.txt``) with per-backend wall times and
the indexed-over-steered speedup, plus the machine-readable
``BENCH_backends.json`` trajectory artefact (override the path with
``--json``).
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.report import render_table, write_json_report
from repro.core.backends import IndexedBackend, SteeredBackend
from repro.core.engine import NearestConceptEngine
from repro.core.lca_index import LcaIndex, clear_lca_index_cache
from repro.datasets import DblpConfig, dblp_document
from repro.datasets.randomtree import random_document, random_oid_pairs
from repro.datasets.textpool import TECH_NOUNS
from repro.monet.transform import monet_transform

OUT_PATH = Path(__file__).parent / "out" / "bench_backends.txt"
JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_backends.json"


def _time(task: Callable[[], object]) -> float:
    start = time.perf_counter()
    task()
    return time.perf_counter() - start


def _best_of(task: Callable[[], object], repeat: int) -> float:
    return min(_time(task) for _ in range(repeat))


def _random_queries(
    words: Sequence[str], count: int, seed: int = 0
) -> List[Tuple[str, str]]:
    rng = random.Random(seed)
    return [tuple(rng.sample(list(words), 2)) for _ in range(count)]


def bench_dataset(
    name: str,
    store,
    queries: List[Tuple[str, str]],
    pair_count: int,
    repeat: int,
    case_sensitive: bool = False,
) -> List[dict]:
    rows: List[dict] = []
    pairs = random_oid_pairs(store, pair_count, seed=1)

    build = _best_of(lambda: LcaIndex(store), repeat)
    rows.append(
        {
            "dataset": name,
            "workload": "build",
            "indexed_seconds": round(build, 6),
        }
    )

    clear_lca_index_cache()
    steered = SteeredBackend(store)
    indexed = IndexedBackend(store)
    indexed.index  # build once outside the timed region (cached after)

    steered_time = _best_of(lambda: steered.meet_many(pairs), repeat)
    indexed_time = _best_of(lambda: indexed.meet_many(pairs), repeat)
    rows.append(
        {
            "dataset": name,
            "workload": f"meet_many[{pair_count}]",
            "steered_seconds": round(steered_time, 6),
            "indexed_seconds": round(indexed_time, 6),
            "speedup": round(steered_time / indexed_time, 2),
        }
    )

    batch_times = {}
    for backend_name in ("steered", "indexed"):
        engine = NearestConceptEngine(
            store, case_sensitive=case_sensitive, backend=backend_name
        )
        engine.term_hits(queries[0][0])  # warm the full-text index
        batch_times[backend_name] = _best_of(
            lambda: engine.nearest_concepts_batch(queries, limit=5), repeat
        )
    rows.append(
        {
            "dataset": name,
            "workload": f"nc_batch[{len(queries)}]",
            "steered_seconds": round(batch_times["steered"], 6),
            "indexed_seconds": round(batch_times["indexed"], 6),
            "speedup": round(batch_times["steered"] / batch_times["indexed"], 2),
        }
    )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke: tiny sizes, 1 repeat"
    )
    parser.add_argument("--nodes", type=int, default=60_000,
                        help="random-tree size (the largest dataset)")
    parser.add_argument("--pairs", type=int, default=20_000)
    parser.add_argument("--queries", type=int, default=150)
    parser.add_argument("--repeat", type=int, default=2)
    parser.add_argument("--json", type=Path, default=JSON_PATH, metavar="PATH",
                        help=f"JSON artefact path (default: {JSON_PATH.name})")
    args = parser.parse_args(argv)

    if args.quick:
        args.nodes, args.pairs, args.queries, args.repeat = 3_000, 2_000, 20, 1

    rows: List[dict] = []

    random_store = monet_transform(
        random_document(42, nodes=args.nodes, max_children=3)
    )
    print(
        f"random: {random_store.node_count} nodes, "
        f"{len(random_store.summary) - 1} paths", file=sys.stderr
    )
    rows += bench_dataset(
        "random",
        random_store,
        _random_queries(list(TECH_NOUNS)[:12], args.queries),
        args.pairs,
        args.repeat,
    )

    dblp_config = (
        DblpConfig(papers_per_proceedings=8, articles_per_year=4)
        if args.quick
        else DblpConfig(papers_per_proceedings=60, articles_per_year=40)
    )
    dblp_store = monet_transform(dblp_document(dblp_config))
    print(f"dblp: {dblp_store.node_count} nodes", file=sys.stderr)
    years = [str(year) for year in dblp_config.years()]
    venues = ["ICDE", "VLDB", "SIGMOD"]
    rng = random.Random(3)
    dblp_queries = [
        (rng.choice(venues), rng.choice(years)) for _ in range(args.queries)
    ]
    rows += bench_dataset(
        "dblp", dblp_store, dblp_queries, args.pairs, args.repeat,
        case_sensitive=True,
    )

    def _cell(row: dict, field: str, fmt: str) -> str:
        value = row.get(field)
        return "-" if value is None else fmt.format(value)

    table = render_table(
        ["dataset", "workload", "steered[s]", "indexed[s]", "speedup"],
        [
            [
                row["dataset"],
                row["workload"],
                _cell(row, "steered_seconds", "{:.3f}"),
                _cell(row, "indexed_seconds", "{:.3f}"),
                _cell(row, "speedup", "{:.2f}x"),
            ]
            for row in rows
        ],
        title="meet backends: steered walks vs Euler-RMQ index",
    )
    print(table)
    OUT_PATH.parent.mkdir(exist_ok=True)
    OUT_PATH.write_text(table + "\n", encoding="utf-8")
    written = write_json_report(
        args.json,
        "backends",
        {
            "quick": args.quick,
            "nodes": args.nodes,
            "pairs": args.pairs,
            "queries": args.queries,
            "repeat": args.repeat,
        },
        rows,
    )
    print(f"[report written to {OUT_PATH} and {written}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
