"""Cost-based query planning: patterns, predicates and access paths.

Planning has two halves.  The schema-level half is unchanged from the
original planner: every FROM pattern is matched once against the
(small) path summary, yielding the candidate relation set per variable
together with any path-variable bindings.  The predicate half is new:
each WHERE condition gets an *access path* —

===============  ====================================================
predicate        access paths considered
===============  ====================================================
``=``            value-index probe  ·  string-relation scan
``<,<=,>,>=``    value-index range  ·  string-relation scan
``contains``     fulltext postings  ·  string-relation scan
===============  ====================================================

The choice is ranked by cost: an equality/range probe into the typed
value index touches only matching entries, a fulltext posting lookup
touches one dictionary bucket, and a scan touches every string
association.  Because the probe structures reproduce the scan
semantics *exactly* (see :mod:`repro.valueindex` and
:func:`repro.query.ast.compare_values`), the choice changes cost, not
answers — which the differential harness asserts byte-for-byte via
``force_scan``.

The chosen access per predicate is rendered in :meth:`Plan.explain`
(deterministically, without row counts), while :meth:`Plan.describe`
additionally carries the store-dependent estimated and actual row
counts from per-pid cardinalities, surfaced as
``ResultEnvelope.stats["plan"]``.  The sharded coordinator plans
against the same store as the monolithic processor, so both report
the same plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from ..datamodel.errors import QueryPlanError
from ..fulltext.index import cached_fulltext_index
from ..fulltext.search import PHRASE, SCAN, TOKEN, term_shape
from ..monet.engine import MonetXML
from ..valueindex import cached_value_index
from .ast import (
    Binding,
    Condition,
    ContainsCondition,
    DistanceItem,
    EqualsCondition,
    MeetItem,
    ParamRef,
    PathVarItem,
    Query,
    RangeCondition,
    SelectItem,
)

__all__ = [
    "VariablePlan",
    "ConditionPlan",
    "Plan",
    "plan_query",
    "ACCESS_VALUE_INDEX",
    "ACCESS_FULLTEXT",
    "ACCESS_SCAN",
]

#: Access-path names recorded per predicate.
ACCESS_VALUE_INDEX = "value-index"
ACCESS_FULLTEXT = "fulltext"
ACCESS_SCAN = "scan"

#: The access path of a literal ``contains`` per :func:`term_shape`.
_CONTAINS_ACCESS = {
    TOKEN: (ACCESS_FULLTEXT, "fulltext token postings"),
    PHRASE: (ACCESS_FULLTEXT, "fulltext prefilter + substring confirm"),
    SCAN: (ACCESS_SCAN, "string-relation scan (substring)"),
}


@dataclass(slots=True)
class VariablePlan:
    """Candidate relations for one node variable."""

    variable: str
    binding: Binding
    #: (pid, path-variable bindings) for every matching summary path.
    matches: List[Tuple[int, Dict[str, str]]] = field(default_factory=list)
    #: Instance nodes across the matched relations.
    estimated_rows: Optional[int] = None

    @property
    def pids(self) -> List[int]:
        return [pid for pid, _ in self.matches]


@dataclass(slots=True)
class ConditionPlan:
    """The chosen access path for one WHERE predicate."""

    condition: Condition
    #: One of :data:`ACCESS_VALUE_INDEX` / ``FULLTEXT`` / ``SCAN``.
    access: str
    #: Deterministic label shown in explain (no store-dependent numbers).
    detail: str
    #: Rows the access path is expected to yield (None when unknowable
    #: without building an index, or with an unbound parameter).
    estimated_rows: Optional[int] = None
    #: Associations a full scan would touch (the rejected alternative).
    scan_cost: Optional[int] = None
    #: Rows the access path actually yielded (filled by the executor).
    actual_rows: Optional[int] = None

    def render(self) -> str:
        """The predicate with its access path, estimate-free."""
        return f"where {_render_condition(self.condition)} via {self.detail}"

    def describe(self) -> Dict[str, object]:
        return {
            "predicate": _render_condition(self.condition),
            "access": self.access,
            "detail": self.detail,
            "estimated_rows": self.estimated_rows,
            "actual_rows": self.actual_rows,
            "scan_cost": self.scan_cost,
        }


def _render_literal(literal) -> str:
    if isinstance(literal, ParamRef):
        return str(literal)
    return f"'{literal}'"


def _render_condition(condition: Condition) -> str:
    if isinstance(condition, ContainsCondition):
        return (
            f"${condition.variable} contains {_render_literal(condition.needle)}"
        )
    if isinstance(condition, EqualsCondition):
        return f"${condition.variable} = {_render_literal(condition.value)}"
    if isinstance(condition, RangeCondition):
        return (
            f"${condition.variable} {condition.op} "
            f"{_render_literal(condition.value)}"
        )
    raise QueryPlanError(f"unknown condition {condition!r}")  # pragma: no cover


@dataclass(slots=True)
class Plan:
    """A planned query, ready to execute against its store."""

    query: Query
    store: MonetXML
    variables: Dict[str, VariablePlan]
    #: which variable's pattern binds each select-able path variable
    path_variable_owner: Dict[str, str]
    aggregate: bool
    #: Access-path decision per WHERE condition, in condition order.
    condition_plans: List[ConditionPlan] = field(default_factory=list)
    #: The differential harness's escape hatch: every predicate scans.
    forced_scan: bool = False
    #: Case mode the executing search engine runs under (estimates only).
    case_sensitive: bool = False

    def explain(self) -> str:
        """Human-readable relation fan-out and access paths of the plan.

        Deterministic given the query text and planner flags, so
        store-dependent row estimates live in :meth:`describe`, not
        here.
        """
        lines = [f"plan over {self.store!r}"]
        for plan in self.variables.values():
            lines.append(
                f"  ${plan.variable} := {plan.binding.pattern} "
                f"→ {len(plan.matches)} relation(s)"
            )
            for pid, bindings in plan.matches[:8]:
                path = self.store.summary.path(pid)
                suffix = f"  {bindings}" if bindings else ""
                lines.append(f"      {path}{suffix}")
            if len(plan.matches) > 8:
                lines.append(f"      … {len(plan.matches) - 8} more")
        for condition_plan in self.condition_plans:
            lines.append(f"  {condition_plan.render()}")
        mode = "aggregate (meet)" if self.aggregate else "enumeration"
        lines.append(f"  mode: {mode}")
        return "\n".join(lines)

    def describe(self) -> Dict[str, object]:
        """The machine-readable plan: ``ResultEnvelope.stats["plan"]``."""
        return {
            "mode": "aggregate" if self.aggregate else "enumeration",
            "forced_scan": self.forced_scan,
            "variables": [
                {
                    "variable": plan.variable,
                    "pattern": str(plan.binding.pattern),
                    "relations": len(plan.matches),
                    "estimated_rows": plan.estimated_rows,
                }
                for plan in self.variables.values()
            ],
            "conditions": [
                condition_plan.describe()
                for condition_plan in self.condition_plans
            ],
        }

    def condition_plan_for(self, condition: Condition) -> Optional[ConditionPlan]:
        """The access decision of one condition (identity, then equality)."""
        for condition_plan in self.condition_plans:
            if condition_plan.condition is condition:
                return condition_plan
        for condition_plan in self.condition_plans:
            if condition_plan.condition == condition:
                return condition_plan
        return None

    def rebound(self, bound_query: Query) -> "Plan":
        """This plan re-targeted at a parameter-bound copy of its query.

        The schema half (pattern matches) is reused as-is — bindings
        never change which relations a pattern matches — while the
        predicate half is re-planned so bound literals get real
        estimates.  This is what lets a prepared statement plan once
        and execute many times.
        """
        return Plan(
            query=bound_query,
            store=self.store,
            variables=self.variables,
            path_variable_owner=self.path_variable_owner,
            aggregate=self.aggregate,
            condition_plans=[
                _plan_condition(
                    condition,
                    self.store,
                    forced_scan=self.forced_scan,
                    case_sensitive=self.case_sensitive,
                )
                for condition in bound_query.conditions
            ],
            forced_scan=self.forced_scan,
            case_sensitive=self.case_sensitive,
        )


def _is_aggregate_item(item: SelectItem) -> bool:
    return isinstance(item, (MeetItem, DistanceItem))


# ---------------------------------------------------------------------------
# Cardinality estimation (store-dependent).
# ---------------------------------------------------------------------------

#: store → (generation, pid → node count, attr pid → association count).
_stats_cache: "WeakKeyDictionary[MonetXML, Tuple[int, Dict[int, int], Dict[int, int]]]" = (
    WeakKeyDictionary()
)


def _cardinalities(store: MonetXML) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Per-pid node and association counts, cached per generation."""
    generation = store.generation
    cached = _stats_cache.get(store)
    if cached is not None and cached[0] == generation:
        return cached[1], cached[2]
    pids, parents, _ = map(np.asarray, store.dense_columns())
    live = parents >= 0  # a tombstoned node has no parent
    live[store.root_oid - store.first_oid] = True
    counts = np.bincount(pids[live])
    present = np.flatnonzero(counts)
    pid_counts = dict(zip(present.tolist(), counts[present].tolist()))
    strings = store.string_runs()
    association_counts = dict(
        zip(strings.pids.tolist(), strings.lengths().tolist())
    )
    _stats_cache[store] = (generation, pid_counts, association_counts)
    return pid_counts, association_counts


def _estimate_variable(
    plan: VariablePlan,
    store: MonetXML,
    pid_counts: Dict[int, int],
    association_counts: Dict[int, int],
) -> int:
    total = 0
    summary = store.summary
    for pid in plan.pids:
        if summary.is_attribute(pid):
            total += association_counts.get(pid, 0)
        else:
            total += pid_counts.get(pid, 0)
    return total


def _plan_condition(
    condition: Condition,
    store: MonetXML,
    *,
    forced_scan: bool,
    case_sensitive: bool,
    scan_cost: Optional[int] = None,
) -> ConditionPlan:
    """Choose and annotate the access path of one predicate.

    The *choice* is deterministic given the predicate shape and the
    ``forced_scan`` flag.  The *estimates* consult whatever index is already
    cached for the store (a pure peek; planning never builds one).
    """
    literal = (
        condition.needle
        if isinstance(condition, ContainsCondition)
        else condition.value
    )
    bound = None if isinstance(literal, ParamRef) else literal

    if isinstance(condition, ContainsCondition):
        # contains always executes through SearchEngine.find; the plan
        # records the branch find's rule takes for this needle.
        estimate = None
        if bound is None:
            detail = "fulltext postings (strategy bound per execution)"
            access = ACCESS_FULLTEXT
        else:
            shape = term_shape(bound, case_sensitive)
            access, detail = _CONTAINS_ACCESS[shape]
            index = cached_fulltext_index(store, case_sensitive)
            if index is not None and shape == TOKEN:
                estimate = index.document_frequency(bound)
        return ConditionPlan(
            condition=condition,
            access=access,
            detail=detail,
            estimated_rows=estimate,
            scan_cost=scan_cost,
        )

    if forced_scan:
        return ConditionPlan(
            condition=condition,
            access=ACCESS_SCAN,
            detail="string-relation scan (forced)",
            scan_cost=scan_cost,
        )

    # Equality and range prefer the typed value index: a probe touches
    # only matching entries where a scan touches every association, so
    # the cost ranking is independent of the literal.  The estimate is
    # exact when an index is already warm.
    index = cached_value_index(store)
    estimate = None
    if isinstance(condition, EqualsCondition):
        detail = "value-index probe"
        if index is not None and bound is not None:
            estimate = index.estimate_eq(bound)
    else:
        detail = f"value-index range ({condition.op})"
        if index is not None and bound is not None:
            estimate = index.estimate_cmp(condition.op, bound)
    return ConditionPlan(
        condition=condition,
        access=ACCESS_VALUE_INDEX,
        detail=detail,
        estimated_rows=estimate,
        scan_cost=scan_cost,
    )


def plan_query(
    query: Query,
    store: MonetXML,
    *,
    force_scan: bool = False,
    case_sensitive: bool = False,
) -> Plan:
    """Match patterns against the path summary and pick access paths.

    Raises :class:`QueryPlanError` when aggregation items (``meet``,
    ``distance``) are mixed with row-wise items — the paper treats meet
    as an aggregation over the bound sets, so a mixed select has no
    coherent row semantics.

    ``force_scan`` pins every equality/range predicate to the
    string-relation scan — the differential harness's reference
    execution.  Cardinality estimates come from the per-generation
    pid/association histograms.
    """
    aggregates = [item for item in query.select if _is_aggregate_item(item)]
    rowwise = [item for item in query.select if not _is_aggregate_item(item)]
    if aggregates and rowwise:
        raise QueryPlanError(
            "meet()/distance() aggregations cannot be mixed with "
            "row-wise select items"
        )

    pid_counts, association_counts = _cardinalities(store)
    scan_cost = (
        sum(association_counts.values()) if association_counts else None
    )

    variables: Dict[str, VariablePlan] = {}
    path_variable_owner: Dict[str, str] = {}
    for binding in query.bindings:
        plan = VariablePlan(variable=binding.variable, binding=binding)
        plan.matches = binding.pattern.matching_pids(store.summary)
        plan.estimated_rows = _estimate_variable(
            plan, store, pid_counts, association_counts
        )
        variables[binding.variable] = plan
        for name in binding.pattern.variables:
            path_variable_owner.setdefault(name, binding.variable)

    for item in query.select:
        if isinstance(item, PathVarItem) and item.name not in path_variable_owner:
            raise QueryPlanError(f"path variable %{item.name} is not bound")

    condition_plans = [
        _plan_condition(
            condition,
            store,
            forced_scan=force_scan,
            case_sensitive=case_sensitive,
            scan_cost=scan_cost,
        )
        for condition in query.conditions
    ]

    return Plan(
        query=query,
        store=store,
        variables=variables,
        path_variable_owner=path_variable_owner,
        aggregate=bool(aggregates),
        condition_plans=condition_plans,
        forced_scan=force_scan,
        case_sensitive=case_sensitive,
    )
