"""Per-shard request handlers — the pure function a shard executes.

A :class:`ShardService` answers for one shard of one store: the
shared :class:`~repro.monet.engine.MonetXML` store plus the half-open
OID range the shard owns (:meth:`repro.exec.sharding.ShardPlan.span`;
shard 0's range also covers the root).  It answers plain-data
requests with plain-data responses: every parameter and every
response is built from JSON/pickle-safe primitives, so the same
handler serves the in-process
:class:`~repro.exec.executors.SerialExecutor` and the socket workers
of :class:`~repro.exec.cluster.ClusterExecutor` unchanged.  Handlers
are **read-only** — one service instance is safe under the
multi-threaded HTTP server; the only retained state is a
generation-keyed memo of parsed query templates and their plans
(prepared statements re-execute without re-parsing), which at worst
recomputes an equivalent entry under a race.

A shard does range work only — ``ping``, ``hits``, ``nearest`` and
``query`` — and the range is applied where the data comes from, so
its work stays proportional to the range: term hits are cut to it
(:meth:`repro.fulltext.index.Hits.within`), substring scans skip rows
owned outside it, and pattern OIDs are cut with bisections.  What is
not range work — the pids of hit OIDs, snippets, ``to_xml``, the
root's text and cells — the coordinator and the facade read from the
store they hold themselves.

The contract with the coordinator (:mod:`repro.exec.coordinator`):

* the document root never appears in a response — a meet at it is
  dropped (the coordinator re-derives the one root meet globally) and
  the **residue**, the input pairs no kept meet covers, is exactly
  what this shard's pairs would deliver to the root in the monolithic
  roll-up; binding sets drop it, and per-variable *root flags* report
  what the coordinator needs to decide the root's membership
  globally.  Both, and every filter and the §4 ranking after them,
  are :func:`repro.core.backends.select_meets` — the same routine the
  monolithic engine ranks through, so a shard turns only its winners
  and its residue pairs into python objects;
* full-text terms are resolved by
  :meth:`repro.fulltext.search.SearchEngine.find` with the shard's
  range: whether the index or a scan answers a term is decided
  against the store's whole index, so every shard takes the branch
  the monolithic engine takes and one scatter answers each op.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.backends import meet_oids, select_meets
from ..core.engine import NearestConceptEngine
from ..core.restrictions import resolve_pids
from ..datamodel.errors import ReproError
from ..monet.engine import MonetXML
from ..query.ast import (
    DistanceItem,
    MeetItem,
    PathItem,
    PathVarItem,
    Query,
    TagItem,
    TextItem,
    VarItem,
)
from ..query.executor import QueryProcessor, row_cell
from ..query.parser import parse_query
from ..query.planner import plan_query
from .sharding import ShardPlan

__all__ = [
    "ShardService",
    "shard_services",
    "item_variable",
]

Span = Tuple[int, int]


def item_variable(item, plan) -> Optional[str]:
    """The node variable a row-wise select item enumerates over."""
    if isinstance(item, (VarItem, TagItem, PathItem, TextItem)):
        return item.variable
    if isinstance(item, PathVarItem):
        return plan.path_variable_owner[item.name]
    return None


def shard_services(
    store: MonetXML,
    plan: ShardPlan,
    shard_ids: Optional[Iterable[int]] = None,
    *,
    case_sensitive: bool = False,
) -> Dict[int, ShardService]:
    """One service per shard id (default: every shard), all over
    ``store`` — the store the plan was computed for."""
    plan.check_store(store)
    ids = range(plan.shard_count) if shard_ids is None else shard_ids
    return {
        shard_id: ShardService(
            store,
            shard_id=shard_id,
            span=plan.span(shard_id),
            case_sensitive=case_sensitive,
        )
        for shard_id in ids
    }


class ShardService:
    """Stateless request handlers over one shard: a store and ``span``,
    the half-open OID range the shard answers over."""

    def __init__(
        self,
        store: MonetXML,
        *,
        shard_id: int,
        span: Span,
        case_sensitive: bool = False,
    ):
        self.shard_id = shard_id
        self.store = store
        self.span = span
        self.case_sensitive = bool(case_sensitive)
        self.engine = NearestConceptEngine(
            store, case_sensitive=self.case_sensitive
        )
        #: normalized text → (generation, parsed template, schema plan).
        #: Keyed per force_scan flag so differential runs never reuse an
        #: indexed plan.  Races at worst duplicate an equivalent entry.
        self._plans: Dict[
            Tuple[str, bool], Tuple[int, Query, object]
        ] = {}
        self._plan_hits = 0
        self._plan_misses = 0

    # -- dispatch -------------------------------------------------------
    def handle(self, op: str, params: Dict[str, object]) -> Dict[str, object]:
        # The coordinator stamps the trace id into the op payload
        # (riding the same frames as the params themselves);
        # popping it here keeps every _op_* handler trace-oblivious.
        trace_id = params.pop("_trace", None)
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ReproError(f"unknown shard operation {op!r}")
        started = time.perf_counter()
        response = handler(params)
        elapsed_ms = round((time.perf_counter() - started) * 1000, 3)
        response["shard"] = self.shard_id
        response["elapsed_ms"] = elapsed_ms
        if trace_id is not None:
            # One span per handled op, produced *in this process* (the
            # worker, for the cluster executor) — the coordinator
            # absorbs it back into the request's trace the same way it
            # folds worker index-build counters.
            response["_spans"] = {
                "trace_id": trace_id,
                "spans": [
                    {
                        "name": f"shard[{self.shard_id}].{op}",
                        "ms": elapsed_ms,
                        "pid": os.getpid(),
                    }
                ],
            }
        return response

    # -- lifecycle / observability --------------------------------------
    def _op_ping(self, params: Dict[str, object]) -> Dict[str, object]:
        # Touching the indexes here is the warm-up: on a snapshot-loaded
        # store both come from the seeded caches (zero builds).
        _ = self.engine.index
        # Binding the kernels also fetches the LCA index and its NumPy
        # column views, so the first query pays no view setup.
        _ = self.engine.backend.kernels
        return {
            "pid": os.getpid(),
            "nodes": self.span[1] - self.span[0],
            "case_sensitive": self.case_sensitive,
        }

    # -- full-text ------------------------------------------------------
    def _op_hits(self, params: Dict[str, object]) -> Dict[str, object]:
        find = self.engine.search.find
        return {
            "terms": {
                term: sorted(find(term, self.span).oids())
                for term in params["terms"]
            }
        }

    # -- nearest concepts -----------------------------------------------
    def _op_nearest(self, params: Dict[str, object]) -> Dict[str, object]:
        terms: List[str] = list(params["terms"])
        exclude_pids = set(params.get("exclude_pids", ()))
        require_all = bool(params.get("require_all_terms", False))

        store = self.store
        engine = self.engine
        hits = {term: engine.search.find(term, self.span) for term in terms}
        results = engine.backend.meet_term_hits(hits.items())
        chosen, residue = select_meets(
            store,
            results,
            pairs=(
                (term, oid)
                for term, found in hits.items()
                for oid in found.oids()
            ),
            drop_oid=store.root_oid,
            excluded=exclude_pids,
            wanted=set(terms) if require_all else None,
            within=params.get("within"),
            limit=params.get("limit"),
        )

        meets = []
        pid_of = store.pid_of
        for index in chosen:
            concept = engine._annotate(results[index])
            meets.append(
                {
                    "oid": concept.oid,
                    "pid": pid_of(concept.oid),
                    "origins": list(concept.origins),
                    "terms": list(concept.terms),
                    "joins": concept.joins,
                    "spread": concept.spread,
                    "depth": concept.depth,
                }
            )
        return {"meets": meets, "residue": self._residue(residue)}

    def _residue(self, pairs) -> List[Tuple[object, int, int]]:
        """Residue pairs on the wire: sorted ``(token, OID, depth)``."""
        depth_of = self.store.depth_of
        return sorted((token, oid, depth_of(oid)) for token, oid in pairs)

    # -- query language --------------------------------------------------
    def _template_plan(self, text: str, force_scan: bool):
        """The parsed template and schema plan, memoized per generation."""
        key = (text.strip(), force_scan)
        generation = self.store.generation
        cached = self._plans.get(key)
        if cached is not None and cached[0] == generation:
            self._plan_hits += 1
            return cached[1], cached[2]
        self._plan_misses += 1
        template = parse_query(text)
        plan = plan_query(
            template,
            self.store,
            force_scan=force_scan,
            case_sensitive=self.case_sensitive,
        )
        self._plans[key] = (generation, template, plan)
        return template, plan

    def _op_query(self, params: Dict[str, object]) -> Dict[str, object]:
        text = str(params["text"])
        bindings = params.get("params") or None
        force_scan = bool(params.get("force_scan", False))
        store = self.store
        root = store.root_oid
        template, plan = self._template_plan(text, force_scan)
        parsed: Query = template
        if bindings or parsed.parameters:
            # The coordinator binds first and surfaces errors before the
            # scatter, so this bind never fails on a well-formed op.
            parsed = template.bind(dict(bindings or {}))
            plan = plan.rebound(parsed)
        processor = QueryProcessor(
            store,
            search=self.engine.search,
            max_rows=None,
            force_scan=force_scan,
            span=self.span,
        )

        aggregate = plan.aggregate
        if aggregate:
            needed = sorted(
                {
                    variable
                    for item in parsed.select
                    for variable in (
                        item.variables
                        if isinstance(item, MeetItem)
                        else (item.left, item.right)
                        if isinstance(item, DistanceItem)
                        else ()
                    )
                }
            )
        else:
            needed = processor._referenced_variables(parsed)

        variables: Dict[str, Dict[str, object]] = {}
        minimal: Dict[str, List[int]] = {}
        for variable in needed:
            pattern = processor._pattern_oids(plan, variable)
            closures = [
                processor._condition_closure(condition, plan)
                for condition in parsed.conditions_for(variable)
            ]
            bound = set(pattern)
            for closure in closures:
                bound &= closure
            public = sorted(bound - {root})
            entry: Dict[str, object] = {
                "bound": public,
                "root_pattern": root in pattern,
                "root_conds": [root in closure for closure in closures],
            }
            if aggregate:
                minimal[variable] = sorted(
                    processor._minimal(bound - {root})
                )
                entry["minimal"] = minimal[variable]
            else:
                cells: Dict[str, List[object]] = {}
                for index, item in enumerate(parsed.select):
                    if item_variable(item, plan) == variable:
                        cells[str(index)] = [
                            row_cell(store, plan, item, {variable: oid})
                            for oid in public
                        ]
                entry["cells"] = cells
            variables[variable] = entry

        response: Dict[str, object] = {"variables": variables}
        if aggregate:
            response["meet_items"] = {
                str(index): self._meet_item(plan, item, minimal)
                for index, item in enumerate(parsed.select)
                if isinstance(item, MeetItem)
            }
            response["distance_items"] = {
                str(index): self._distance_item(item, minimal)
                for index, item in enumerate(parsed.select)
                if isinstance(item, DistanceItem)
            }
        return response

    def _meet_item(
        self, plan, item: MeetItem, minimal: Dict[str, List[int]]
    ) -> Dict[str, object]:
        store = self.store
        root = store.root_oid
        tagged = [
            (variable, oid)
            for variable in item.variables
            for oid in minimal[variable]
        ]
        excluded = resolve_pids(store, item.exclude_paths)
        root_pid = store.pid_of(root)
        if item.exclude_root:
            excluded.add(root_pid)
        results = self.engine.backend.meet_tagged(tagged)
        chosen, residue = select_meets(
            store,
            results,
            pairs=tagged,
            drop_oid=root,
            excluded=excluded,
            within=item.within,
            ranked=False,
        )
        oids = meet_oids(results)
        return {
            "meets": sorted(oids[index] for index in chosen),
            "residue": self._residue(residue),
            "root_excluded": root_pid in excluded,
        }

    def _distance_item(
        self, item: DistanceItem, minimal: Dict[str, List[int]]
    ) -> Dict[str, object]:
        depth_of = self.store.depth_of
        left = minimal[item.left]
        right = minimal[item.right]
        pair_joins = None
        if len(left) == 1 and len(right) == 1:
            pair_joins = self.engine.backend.meet(left[0], right[0]).joins
        return {
            "witnesses": {
                item.left: [(oid, depth_of(oid)) for oid in left],
                item.right: [(oid, depth_of(oid)) for oid in right],
            },
            "pair_joins": pair_joins,
        }
