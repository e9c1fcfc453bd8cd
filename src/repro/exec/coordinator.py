"""The coordinator: global answers from per-shard partial results.

One :class:`ShardedCollection` owns a shard layout
(:class:`~repro.exec.sharding.ShardPlan`), the one store the layout
ranges over, and an :class:`~repro.exec.executors.Executor`; it
exposes the same three query surfaces as the monolithic
engine/processor pair — ``nearest_concepts``, full-text hits, and the
select/from/where language — with **byte-identical answers and
ranking order**.

The division of labour:

* a shard performs the range work — term search, the meet roll-up, §4
  filtering, local top-k with full ranking keys — over its OID range
  of the one store and its indexes (:mod:`repro.exec.service`); it
  resolves terms against the full-text index every shard shares, so
  each operation is one scatter of plain-string terms;
* the coordinator reads the store itself for everything that is not
  range work: parsing, planning and ``explain``, path resolution, the
  pids of hit OIDs, and the root's path, spread, cells and text;
* and merges: concatenates shard-ordered hit lists (shard OID ranges
  are ascending, so concatenation *is* the global sort order), k-way
  merges ranked candidates on the §4 key (a strict total order, so
  per-shard top-k union ⊇ global top-k exactly), and re-derives the
  one answer no shard can see — the meet at the document root — from
  the union of shard residues plus per-variable root flags.

Presentation (snippets, ``to_xml``, rendered answers) is not the
coordinator's job at all: the facade calls the monolithic engine on
the same store (:class:`repro.api.database.Database`).

Result caching happens here, keyed on the **shard layout fingerprint
and generation vector** in addition to the usual query/options key, so
re-sharding or rebuilding a collection can never serve stale merged
results (the cache satellite).
"""

from __future__ import annotations

import threading
from itertools import product
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.engine import NearestConcept
from ..core.restrictions import PathLike, resolve_pids
from ..core.result_cache import (
    CacheSpec,
    ResultCache,
    ResultCacheInfo,
    resolve_result_cache,
)
from ..datamodel.errors import QueryPlanError, ReproError
from ..fulltext.index import Hits
from ..monet.engine import MonetXML
from ..obs.trace import current_trace, span as trace_span
from ..query.ast import DistanceItem, MeetItem, Query
from ..query.executor import (
    Cell,
    QueryResult,
    column_name,
    referenced_variables,
    row_cell,
)
from ..query.parser import parse_query
from ..query.planner import Plan, plan_query
from .executors import Executor
from .service import item_variable
from .sharding import ShardPlan

__all__ = ["ShardMismatchError", "ShardedCollection"]

_key_of = itemgetter(0)


class ShardMismatchError(ReproError):
    """A shard's service serves another layout or case mode than the
    collection it was attached to."""

    code = "shard_mismatch"


class ShardedCollection:
    """Scatter-gather query serving over one sharded collection."""

    def __init__(
        self,
        plan: ShardPlan,
        store: MonetXML,
        executor: Executor,
        *,
        case_sensitive: bool = False,
        generations: Sequence = (),
        cache: CacheSpec = None,
        max_rows: Optional[int] = 100_000,
        force_scan: bool = False,
    ):
        if executor.shard_count != plan.shard_count:
            raise ReproError(
                f"executor serves {executor.shard_count} shard(s) but the "
                f"plan has {plan.shard_count}"
            )
        self.plan = plan
        self.store = store
        self.executor = executor
        self.case_sensitive = bool(case_sensitive)
        #: The differential harness's escape hatch, scattered to every
        #: shard so per-predicate access paths match the monolithic
        #: ``force_scan`` processor exactly.
        self.force_scan = bool(force_scan)
        self.generations = tuple(generations)
        self.max_rows = max_rows
        self.result_cache: Optional[ResultCache] = resolve_result_cache(cache)
        #: Shard-layout component of every cache key (the satellite):
        #: shard count, range boundaries and the generation vector.
        self.layout_key = (plan.fingerprint(), self.generations)
        self._last = threading.local()

    # -- observability ---------------------------------------------------
    @property
    def shard_count(self) -> int:
        return self.plan.shard_count

    def cache_info(self) -> Optional[ResultCacheInfo]:
        if self.result_cache is None:
            return None
        return self.result_cache.cache_info()

    def warm_up(self) -> None:
        """Ping every shard (indexes touched, bundles hot) and refuse a
        shard whose service disagrees with this collection.

        A worker mapping another bundle, or opened with another case
        mode, would answer its pings and then merge wrong answers; the
        ping reports the span length and case mode it serves, and a
        mismatch raises :class:`ShardMismatchError` before any query.
        """
        responses = self._record(self._broadcast("ping", {}))
        for shard_id, response in enumerate(responses):
            start, stop = self.plan.span(shard_id)
            for field, expected in (
                ("nodes", stop - start),
                ("case_sensitive", self.case_sensitive),
            ):
                served = response.get(field)
                if served != expected:
                    raise ShardMismatchError(
                        f"shard {shard_id} serves {field}={served!r} but "
                        f"the collection expects {field}={expected!r}"
                    )

    def last_shard_stats(self) -> Dict[str, object]:
        """Per-shard timings of this thread's most recent operation."""
        return getattr(
            self._last,
            "stats",
            {"count": self.shard_count, "per_shard_ms": [], "rounds": 0},
        )

    def _record(
        self, responses: List[Dict[str, object]]
    ) -> List[Dict[str, object]]:
        """Remember one operation's shard timings; ``rounds`` is the
        number of scatters it made (every op makes one, a result-cache
        hit none)."""
        self._last.stats = {
            "count": self.shard_count,
            "executor": self.executor.name,
            "per_shard_ms": [
                response.get("elapsed_ms") for response in responses
            ],
            "rounds": 1 if responses else 0,
        }
        return responses

    # -- traced scatter-gather -------------------------------------------
    def _scatter(
        self, ops: Sequence[Tuple[int, str, Dict[str, object]]]
    ) -> List[Dict[str, object]]:
        """``executor.scatter`` with the current trace riding along.

        The trace id is stamped into each op's params (crossing socket
        frames as plain payload data); worker-produced
        spans come home in the responses and are folded back here, in
        the request thread — the executors' own fan-out threads never
        need to inherit the trace contextvar.
        """
        trace = current_trace()
        if trace is None:
            return self.executor.scatter(ops)
        for _shard_id, _op, params in ops:
            params["_trace"] = trace.trace_id
        with trace.span("shard.scatter", ops=len(ops)):
            responses = self.executor.scatter(ops)
        for response in responses:
            trace.absorb(response.pop("_spans", None))
        return responses

    def _broadcast(
        self, op: str, params: Dict[str, object]
    ) -> List[Dict[str, object]]:
        return self._scatter(
            [(i, op, dict(params)) for i in range(self.shard_count)]
        )

    # -- full-text surface ----------------------------------------------
    def term_hits(self, term: str) -> Hits:
        """Global hits of one term, ascending by OID, the pids read from
        the store."""
        responses = self._record(self._broadcast("hits", {"terms": [term]}))
        # Shard OID ranges ascend (and the root, the smallest OID, sits
        # in shard 0), so shard-order concatenation is globally sorted.
        oids = [
            oid for response in responses for oid in response["terms"][term]
        ]
        pid_of = self.store.pid_of
        return Hits(term, columns=([pid_of(oid) for oid in oids], oids))

    def term_hit_rows(self, term: str) -> List[Tuple[int, int]]:
        """Global (oid, pid) hit rows of one term, ascending by OID."""
        return [
            (posting.oid, posting.pid)
            for posting in self.term_hits(term).postings
        ]

    # -- nearest-concept surface ----------------------------------------
    def nearest_concepts(
        self,
        *terms: str,
        exclude_paths: Sequence[PathLike] = (),
        exclude_root: bool = False,
        require_all_terms: bool = False,
        within: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[NearestConcept]:
        if len(terms) < 2:
            raise ValueError("nearest_concepts needs at least two terms")
        excluded: Set[int] = resolve_pids(self.store, exclude_paths)
        if exclude_root:
            excluded.add(self.plan.root_pid)

        cache = self.result_cache
        key = None
        if cache is not None:
            cache.sync_generation(self.layout_key)
            key = (
                self.layout_key,
                self.case_sensitive,
                tuple(sorted(set(terms))),
                frozenset(excluded),
                require_all_terms,
                within,
                limit,
            )
            with trace_span("cache.lookup"):
                cached = cache.get(key)
            if cached is not None:
                self._record([])
                return list(cached)

        params = {
            "terms": list(terms),
            "exclude_pids": sorted(excluded),
            "require_all_terms": require_all_terms,
            "within": within,
            "limit": limit,
        }
        responses = self._record(self._broadcast("nearest", params))

        with trace_span("merge", shards=len(responses)):
            concepts = self._merge_nearest(
                responses,
                terms=terms,
                excluded=excluded,
                require_all_terms=require_all_terms,
                within=within,
                limit=limit,
            )
        if cache is not None:
            cache.put(key, tuple(concepts))
        return concepts

    def _merge_nearest(
        self,
        responses: List[Dict[str, object]],
        *,
        terms: Sequence[str],
        excluded: Set[int],
        require_all_terms: bool,
        within: Optional[int],
        limit: Optional[int],
    ) -> List[NearestConcept]:
        summary = self.store.summary
        candidates: List[Tuple[Tuple[int, int, int, int], NearestConcept]] = []
        residue: Set[Tuple[str, int]] = set()
        depth_of: Dict[int, int] = {}
        for response in responses:
            for row in response["meets"]:
                concept = NearestConcept(
                    oid=row["oid"],
                    path=summary.path(row["pid"]),
                    origins=tuple(row["origins"]),
                    terms=tuple(row["terms"]),
                    joins=row["joins"],
                    spread=row["spread"],
                    depth=row["depth"],
                )
                candidates.append((concept.sort_key(), concept))
            for term, oid, depth in response["residue"]:
                residue.add((term, oid))
                depth_of[oid] = depth

        root = self._root_meet(
            residue,
            depth_of,
            terms=terms,
            excluded=excluded,
            require_all_terms=require_all_terms,
            within=within,
        )
        if root is not None:
            candidates.append((root.sort_key(), root))
        candidates.sort(key=_key_of)
        if limit is not None:
            candidates = candidates[:limit]
        return [concept for _key, concept in candidates]

    def _root_meet(
        self,
        residue: Set[Tuple[str, int]],
        depth_of: Dict[int, int],
        *,
        terms: Sequence[str],
        excluded: Set[int],
        require_all_terms: bool,
        within: Optional[int],
    ) -> Optional[NearestConcept]:
        """The one cross-shard meet: the document root over the residues.

        Every input pair either joined exactly one emitted (shard-local)
        meet or survived to the root; the union of shard residues is
        therefore precisely the pending set the monolithic roll-up
        would deliver there, and the root is a meet iff it covers two
        distinct pairs (Fig. 5's emission rule, applied once, here).
        """
        if len(residue) < 2:
            return None
        if self.plan.root_pid in excluded:
            return None
        tags = {term for term, _oid in residue}
        if require_all_terms and not tags >= set(terms):
            return None
        origins = tuple(sorted({oid for _term, oid in residue}))
        joins = sum(depth_of[oid] - 1 for oid in origins)
        if within is not None and joins > within:
            return None
        store = self.store
        return NearestConcept(
            oid=self.plan.root_oid,
            path=store.path_of(self.plan.root_oid),
            origins=origins,
            terms=tuple(sorted(str(tag) for tag in tags)),
            joins=joins,
            # Over live nodes, as the engine counts it: tombstones of
            # deleted documents may lie between the origins.
            spread=store.live_distance(origins[0], origins[-1]),
            depth=1,
        )

    # -- query-language surface ------------------------------------------
    def explain(self, text: str) -> str:
        return plan_query(
            parse_query(text),
            self.store,
            force_scan=self.force_scan,
            case_sensitive=self.case_sensitive,
        ).explain()

    def execute(
        self,
        text: str,
        bindings: Optional[Dict[str, str]] = None,
    ) -> QueryResult:
        if not isinstance(text, str):
            raise ReproError(
                "sharded query execution takes a query string"
            )
        bindings_key = tuple(
            sorted((str(k), str(v)) for k, v in (bindings or {}).items())
        )
        cache = self.result_cache
        key = None
        if cache is not None:
            cache.sync_generation(self.layout_key)
            key = (
                self.layout_key,
                text.strip(),
                self.case_sensitive,
                self.force_scan,
                bindings_key,
            )
            with trace_span("cache.lookup"):
                cached = cache.get(key)
            if cached is not None:
                columns, rows = cached
                self._record([])
                return QueryResult(columns=list(columns), rows=list(rows))

        # Plan locally first: parse/plan/binding errors surface
        # identically to the monolithic processor, before any scatter
        # happens.
        with trace_span("parse"):
            parsed = parse_query(text)
            if bindings or parsed.parameters:
                try:
                    parsed = parsed.bind(dict(bindings or {}))
                except (KeyError, ValueError) as exc:
                    raise QueryPlanError(str(exc).strip("'\"")) from exc
        with trace_span("plan"):
            plan = plan_query(
                parsed,
                self.store,
                force_scan=self.force_scan,
                case_sensitive=self.case_sensitive,
            )

        params: Dict[str, object] = {
            "text": text,
            "params": dict(bindings) if bindings else None,
            "force_scan": self.force_scan,
        }
        responses = self._record(self._broadcast("query", params))

        with trace_span("merge", shards=len(responses)):
            if plan.aggregate:
                result = self._merge_aggregate(parsed, responses)
            else:
                result = self._merge_enumeration(parsed, plan, responses)
        result.plan = plan.describe()
        if key is not None:
            cache.put(key, (tuple(result.columns), tuple(result.rows)))
        return result

    # -- query merge: shared root logic ----------------------------------
    def _root_bound(
        self,
        variable: str,
        responses: List[Dict[str, object]],
    ) -> bool:
        """Is the true root in the variable's *global* binding set?

        The root matches the pattern iff shard 0, whose range covers
        the root OID, says so, and satisfies each condition iff any
        shard's closure over its range reached the root — for
        ``contains`` that means "some witness exists somewhere", which
        is exactly the root's global closure membership.
        """
        entries = [response["variables"][variable] for response in responses]
        if not any(entry["root_pattern"] for entry in entries):
            return False
        condition_count = len(entries[0]["root_conds"])
        return all(
            any(entry["root_conds"][index] for entry in entries)
            for index in range(condition_count)
        )

    def _root_in_minimal(
        self, variable: str, responses: List[Dict[str, object]]
    ) -> bool:
        """Root is a minimal binding iff it is the *only* binding."""
        return self._root_bound(variable, responses) and all(
            not response["variables"][variable]["minimal"]
            for response in responses
        )

    # -- query merge: enumeration mode -----------------------------------
    def _merge_enumeration(
        self,
        parsed: Query,
        plan: Plan,
        responses: List[Dict[str, object]],
    ) -> QueryResult:
        root = self.plan.root_oid
        needed = referenced_variables(parsed)
        bound: Dict[str, List[int]] = {}
        for variable in needed:
            oids: List[int] = []
            if self._root_bound(variable, responses):
                oids.append(root)  # the smallest OID: sorted order holds
            for response in responses:
                oids.extend(response["variables"][variable]["bound"])
            bound[variable] = oids

        # item index → oid → cell, merged from the shard-aligned lists.
        cell_maps: Dict[int, Dict[int, Cell]] = {}
        for index, item in enumerate(parsed.select):
            variable = item_variable(item, plan)
            if variable is None:
                continue
            mapping: Dict[int, Cell] = {}
            for response in responses:
                entry = response["variables"][variable]
                cells = entry["cells"].get(str(index), ())
                for oid, cell in zip(entry["bound"], cells):
                    mapping[oid] = cell
            if root in bound[variable]:
                mapping[root] = row_cell(
                    self.store, plan, item, {variable: root}
                )
            cell_maps[index] = mapping

        columns = [column_name(item) for item in parsed.select]
        result = QueryResult(columns=columns)
        seen: Set[Tuple[Cell, ...]] = set()
        variables = list(needed)
        if not variables:
            return result

        def emit(assignment: Dict[str, int]) -> None:
            row = tuple(
                cell_maps[index][assignment[item_variable(item, plan)]]
                for index, item in enumerate(parsed.select)
            )
            if parsed.distinct:
                if row in seen:
                    return
                seen.add(row)
            result.rows.append(row)
            if self.max_rows is not None and len(result.rows) > self.max_rows:
                raise QueryPlanError(
                    f"result exceeds max_rows={self.max_rows}; "
                    "refine the query or use meet(...) aggregation"
                )

        for oids in product(*(bound[variable] for variable in variables)):
            emit(dict(zip(variables, oids)))
        return result

    # -- query merge: aggregate mode --------------------------------------
    def _merge_aggregate(
        self, parsed: Query, responses: List[Dict[str, object]]
    ) -> QueryResult:
        columns = [column_name(item) for item in parsed.select]
        result = QueryResult(columns=columns)
        cells_per_item: List[List[Cell]] = []
        for index, item in enumerate(parsed.select):
            if isinstance(item, MeetItem):
                cells_per_item.append(
                    self._merge_meet_cells(index, item, responses)
                )
            else:
                cells_per_item.append(
                    self._merge_distance_cells(index, item, responses)
                )
        height = max((len(cells) for cells in cells_per_item), default=0)
        for position in range(height):
            result.rows.append(
                tuple(
                    cells[position] if position < len(cells) else ""
                    for cells in cells_per_item
                )
            )
        return result

    def _merge_meet_cells(
        self,
        index: int,
        item: MeetItem,
        responses: List[Dict[str, object]],
    ) -> List[Cell]:
        key = str(index)
        cells: List[int] = []
        residue: Set[Tuple[str, int]] = set()
        depth_of: Dict[int, int] = {}
        root_excluded = False
        for response in responses:
            entry = response["meet_items"][key]
            cells.extend(entry["meets"])
            root_excluded = root_excluded or entry["root_excluded"]
            for variable, oid, depth in entry["residue"]:
                residue.add((variable, oid))
                depth_of[oid] = depth
        root = self.plan.root_oid
        for variable in item.variables:
            if self._root_in_minimal(variable, responses):
                residue.add((variable, root))
                depth_of[root] = 1
        if len(residue) >= 2 and not root_excluded:
            origins = {oid for _variable, oid in residue}
            joins = sum(depth_of[oid] - 1 for oid in origins)
            if item.within is None or joins <= item.within:
                cells.append(root)
        cells.sort()
        return cells

    def _merge_distance_cells(
        self,
        index: int,
        item: DistanceItem,
        responses: List[Dict[str, object]],
    ) -> List[Cell]:
        key = str(index)
        witnesses: Dict[str, List[Tuple[int, int, int]]] = {
            item.left: [],
            item.right: [],
        }
        pair_joins: Dict[int, Optional[int]] = {}
        for shard, response in enumerate(responses):
            entry = response["distance_items"][key]
            pair_joins[shard] = entry["pair_joins"]
            for variable in (item.left, item.right):
                for oid, depth in entry["witnesses"][variable]:
                    witnesses[variable].append((shard, oid, depth))
        root_left = self._root_in_minimal(item.left, responses)
        root_right = self._root_in_minimal(item.right, responses)
        count_left = len(witnesses[item.left]) + root_left
        count_right = len(witnesses[item.right]) + root_right
        if count_left != 1 or count_right != 1:
            raise QueryPlanError(
                "distance($a, $b) requires both variables to bind exactly "
                f"one witness (got {count_left} and {count_right})"
            )
        if root_left and root_right:
            return [0]
        if root_left:
            return [witnesses[item.right][0][2] - 1]
        if root_right:
            return [witnesses[item.left][0][2] - 1]
        shard_left, _oid_left, depth_left = witnesses[item.left][0]
        shard_right, _oid_right, depth_right = witnesses[item.right][0]
        if shard_left == shard_right:
            # Both witnesses local to one shard: it computed the exact
            # pairwise meet distance already.
            return [pair_joins[shard_left]]
        # Different shards means different top-level subtrees, whose
        # only common ancestor is the root (depth 1).
        return [(depth_left - 1) + (depth_right - 1)]
