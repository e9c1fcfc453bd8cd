"""Per-shard request handlers — the pure function a shard executes.

A :class:`ShardService` wraps one shard store (see
:mod:`repro.exec.sharding`) and answers plain-data requests with
plain-data responses: every parameter and every response is built from
JSON/pickle-safe primitives, so the same handler serves the in-process
:class:`~repro.exec.executors.SerialExecutor` and the process-pool
workers of :class:`~repro.exec.executors.ParallelExecutor` unchanged.
Handlers are **read-only** — one service instance is safe under the
multi-threaded HTTP server; the only retained state is a
generation-keyed memo of parsed query templates and their plans
(prepared statements re-execute without re-parsing), which at worst
recomputes an equivalent entry under a race.

The contract with the coordinator (:mod:`repro.exec.coordinator`):

* the shard's stand-in root never appears in a response — a meet at
  it is dropped (the coordinator re-derives the one true root meet
  globally) and the **residue**, the input pairs no kept meet covers,
  is exactly the pending set the monolithic roll-up would deliver to
  the document root; binding sets drop it, and per-variable *root
  flags* report what the coordinator needs to decide the true root's
  membership globally.  Both, and every filter and the §4 ranking
  after them, are :func:`repro.core.backends.select_meets` — the same
  routine the monolithic engine ranks through, so a shard turns only
  its winners and its residue pairs into python objects;
* full-text terms arrive with a coordinator-chosen **mode** (``token``
  / ``multi`` / ``scan``): the index-vs-scan fallback of
  :meth:`repro.fulltext.search.SearchEngine.find` depends on whether
  the *global* index has hits, which no single shard can know, so the
  shard reports its local index counts and the coordinator re-scatters
  with ``scan_terms`` when the global count is zero.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.backends import kernel_tier, meet_oids, select_meets
from ..core.engine import NearestConceptEngine
from ..core.restrictions import resolve_pids
from ..datamodel.document import CDATA_LABEL, STRING_ATTRIBUTE
from ..datamodel.errors import ReproError
from ..fulltext.index import Hits
from ..fulltext.search import SearchEngine
from ..fulltext.tokenizer import tokenize
from ..monet.engine import MonetXML
from ..monet.reassembly import object_text
from ..query.ast import (
    ContainsCondition,
    DistanceItem,
    MeetItem,
    PathItem,
    PathVarItem,
    Query,
    TagItem,
    TextItem,
    VarItem,
)
from ..query.executor import QueryProcessor
from ..query.parser import parse_query
from ..query.planner import plan_query

__all__ = [
    "ShardService",
    "term_mode",
    "hits_for_mode",
    "item_variable",
]


def term_mode(term: str, case_sensitive: bool) -> str:
    """The find-semantics branch a term takes — mirrors ``SearchEngine.find``.

    ``token`` terms consult the inverted index (and fall back to a
    substring scan only when the *global* index misses); ``multi``
    terms run the conjunctive-tokens-plus-substring-confirm path;
    everything else is a straight ``scan``.
    """
    tokens = tokenize(term, case_sensitive)
    if len(tokens) == 1 and all(ch.isalnum() for ch in term.strip()):
        return "token"
    if len(tokens) > 1:
        return "multi"
    return "scan"


def hits_for_mode(
    search: SearchEngine, term: str, mode: str, force_scan: bool
) -> Hits:
    """Local hits for one term under a coordinator-decided mode."""
    if force_scan or mode == "scan":
        return search.scan(term)
    if mode == "token":
        # No local scan fallback: that decision is global.
        return search.index.search(term)
    hits = search.index.search_conjunctive(
        tokenize(term, search.case_sensitive)
    )
    return Hits(term=term, postings=search._confirm_substring(term, hits))


def item_variable(item, plan) -> Optional[str]:
    """The node variable a row-wise select item enumerates over."""
    if isinstance(item, (VarItem, TagItem, PathItem, TextItem)):
        return item.variable
    if isinstance(item, PathVarItem):
        return plan.path_variable_owner[item.name]
    return None


def _text_head(store: MonetXML, oid: int, width: int) -> str:
    """The first characters of ``object_text(store, oid)``, early-stopped.

    Walks the same document order and joins with the same separator,
    but stops as soon as ``width + 1`` characters are secured — enough
    for the caller to reproduce both the exact short text and the
    truncation decision of :meth:`NearestConceptEngine.snippet`.
    """
    pieces: List[str] = []
    length = -1  # join() adds len(pieces) - 1 separators
    stack = [oid]
    while stack and length <= width:
        current = stack.pop()
        if store.summary.label(store.pid_of(current)) == CDATA_LABEL:
            value = store.attributes_of(current).get(STRING_ATTRIBUTE)
            if value:
                pieces.append(value)
                length += len(value) + 1
        stack.extend(reversed(store.children_of(current)))
    return " ".join(pieces)[: width + 1]


class ShardService:
    """Stateless request handlers over one shard store."""

    def __init__(
        self,
        store: MonetXML,
        *,
        shard_id: int,
        case_sensitive: bool = False,
        backend: Optional[str] = None,
    ):
        self.shard_id = shard_id
        self.store = store
        self.case_sensitive = bool(case_sensitive)
        self.backend_name = backend or "steered"
        self.engine = NearestConceptEngine(
            store,
            case_sensitive=self.case_sensitive,
            backend=self.backend_name,
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
        # (riding the same frames/pipes as the params themselves);
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
            # worker, for pool/cluster executors) — the coordinator
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
        # Touching the indexes here is the warm-up: on snapshot-loaded
        # shards both come from the seeded caches (zero builds).
        _ = self.engine.index
        backend = self.engine.backend
        # Vector shards also bind the LCA index and its NumPy column
        # views, so the first query pays no view setup.
        _ = getattr(backend, "kernels", None)
        return {
            "pid": os.getpid(),
            "nodes": self.store.node_count,
            "backend": self.backend_name,
            "kernel_tier": kernel_tier(backend.name),
            "case_sensitive": self.case_sensitive,
        }

    # -- full-text ------------------------------------------------------
    def _resolve_hits(
        self,
        terms: Iterable[Tuple[str, str]],
        scan_terms: Set[str],
    ) -> Tuple[Dict[str, Hits], Dict[str, int]]:
        hits: Dict[str, Hits] = {}
        index_counts: Dict[str, int] = {}
        for term, mode in terms:
            found = hits_for_mode(
                self.engine.search, term, mode, term in scan_terms
            )
            hits[term] = found
            if mode == "token" and term not in scan_terms:
                index_counts[term] = len(found)
        return hits, index_counts

    def _op_hits(self, params: Dict[str, object]) -> Dict[str, object]:
        scan_terms = set(params.get("scan_terms", ()))
        hits, index_counts = self._resolve_hits(params["terms"], scan_terms)
        pid_of = self.store.pid_of
        return {
            "terms": {
                term: sorted((oid, pid_of(oid)) for oid in found.oids())
                for term, found in hits.items()
            },
            "index_counts": index_counts,
        }

    # -- nearest concepts -----------------------------------------------
    def _op_nearest(self, params: Dict[str, object]) -> Dict[str, object]:
        terms: List[Tuple[str, str]] = [
            (term, mode) for term, mode in params["terms"]
        ]
        scan_terms = set(params.get("scan_terms", ()))
        exclude_pids = set(params.get("exclude_pids", ()))
        require_all = bool(params.get("require_all_terms", False))

        hits, index_counts = self._resolve_hits(terms, scan_terms)
        store = self.store
        engine = self.engine
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
            wanted={term for term, _ in terms} if require_all else None,
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
        return {
            "meets": meets,
            "residue": self._residue(residue),
            "index_counts": index_counts,
        }

    def _residue(self, pairs) -> List[Tuple[object, int, int]]:
        """Residue pairs on the wire: sorted ``(token, OID, depth)``."""
        depth_of = self.store.depth_of
        return sorted((token, oid, depth_of(oid)) for token, oid in pairs)

    # -- presentation ----------------------------------------------------
    def _op_snippets(self, params: Dict[str, object]) -> Dict[str, object]:
        width = int(params.get("width", 120))
        return {
            "snippets": {
                oid: self.engine.snippet(oid, width=width)
                for oid in params["oids"]
            }
        }

    def _op_text_head(self, params: Dict[str, object]) -> Dict[str, object]:
        width = int(params.get("width", 120))
        return {"part": _text_head(self.store, self.store.root_oid, width)}

    def _op_root_text(self, params: Dict[str, object]) -> Dict[str, object]:
        return {"part": object_text(self.store, self.store.root_oid)}

    def _op_root_xml_parts(self, params: Dict[str, object]) -> Dict[str, object]:
        """This shard's slice of the serialized document root.

        Each top-level subtree is written exactly as the monolithic
        serializer would emit it as a child of the root (level 1), so
        the coordinator only wraps the concatenated parts in the root
        tag.  The ``only_text`` inline special case of the serializer
        (all root children are cdata) needs the raw escaped strings
        instead, so both forms are returned.
        """
        from ..datamodel.serializer import _write_node, escape_text
        from ..monet.reassembly import reassemble_subtree

        indent = params.get("indent")
        store = self.store
        root = store.root_oid
        out: List[str] = []
        inline: List[str] = []
        cdata_only = True
        for child_oid in store.children_of(root):
            node = reassemble_subtree(store, child_oid)
            _write_node(node, out, indent, 1)
            if node.label == CDATA_LABEL:
                inline.append(escape_text(node.string_value or ""))
            else:
                cdata_only = False
        return {
            "children": "".join(out),
            "cdata_only": cdata_only,
            "inline": inline,
            "root_attributes": store.attributes_of(root),
        }

    def _op_pids(self, params: Dict[str, object]) -> Dict[str, object]:
        pid_of = self.store.pid_of
        return {"pids": {oid: pid_of(oid) for oid in params["oids"]}}

    def _op_to_xml(self, params: Dict[str, object]) -> Dict[str, object]:
        return {
            "xml": self.engine.to_xml(
                int(params["oid"]), indent=int(params.get("indent", 2))
            )
        }

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
        scan_needles = set(params.get("scan_needles", ()))
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
        search = _CoordinatedSearch(
            store, case_sensitive=self.case_sensitive, scan_terms=scan_needles
        )
        processor = QueryProcessor(
            store,
            search=search,
            max_rows=None,
            backend=self.engine.backend,
            force_scan=force_scan,
        )

        index_counts: Dict[str, int] = {}
        for condition in parsed.conditions:
            if isinstance(condition, ContainsCondition):
                needle = condition.needle
                if (
                    term_mode(needle, self.case_sensitive) == "token"
                    and needle not in scan_needles
                ):
                    index_counts[needle] = len(search.index.search(needle))

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
                            processor._cell(plan, item, {variable: oid})
                            for oid in public
                        ]
                entry["cells"] = cells
            variables[variable] = entry

        response: Dict[str, object] = {
            "variables": variables,
            "index_counts": index_counts,
        }
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


class _CoordinatedSearch(SearchEngine):
    """A :class:`SearchEngine` whose index-vs-scan choice is imposed.

    The stock ``find`` falls back to a substring scan when the local
    index misses — a decision that must be made against the *global*
    index under sharding.  This variant follows the coordinator's
    per-term verdict instead (``scan_terms`` forces the fallback).
    """

    def __init__(self, store, *, case_sensitive: bool, scan_terms: Set[str]):
        super().__init__(store, case_sensitive=case_sensitive)
        self._scan_terms = frozenset(scan_terms)

    def find(self, term: str) -> Hits:
        return hits_for_mode(
            self, term, term_mode(term, self.case_sensitive),
            term in self._scan_terms,
        )
