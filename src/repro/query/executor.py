"""Query execution: bindings, closures, enumeration and meet aggregation.

Binding semantics (matching the paper's reading of the intro query):

* a node variable ``$v`` with pattern P and conditions C ranges over
  **all nodes matching P whose offspring satisfies every condition in
  C** — "the query binds T to the tag names of all nodes whose
  offspring contains as character data the string";
* for row-wise select items the variables enumerate independently
  (cross product — precisely the redundancy the paper criticizes, kept
  faithful here as the baseline behaviour);
* a ``meet(...)`` select item is an *aggregation*: each variable
  contributes its **minimal** bound nodes (those without a bound
  proper descendant — i.e. the witnesses themselves, not their implied
  ancestors), tagged per variable, and the general roll-up of Fig. 5
  computes the nearest concepts.  This is how the §3.2 reformulated
  query returns exactly the ``article`` node.

Results are :class:`QueryResult` tables; ``render_answer`` prints the
paper's ``<answer><result>…`` blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..core.backends import (
    BackendSpec,
    MeetBackend,
    meet_oids,
    resolve_backend,
    select_meets,
)
from ..core.restrictions import resolve_pids
from ..core.result_cache import (
    CacheSpec,
    ResultCache,
    ResultCacheInfo,
    resolve_result_cache,
)
from ..datamodel.errors import QueryPlanError
from ..datamodel.paths import Path
from ..fulltext.search import SearchEngine
from ..monet.engine import MonetXML
from ..monet.reassembly import object_text
from ..valueindex import get_value_index
from .ast import (
    ContainsCondition,
    DistanceItem,
    EqualsCondition,
    MeetItem,
    PathItem,
    PathVarItem,
    Query,
    RangeCondition,
    TagItem,
    TextItem,
    VarItem,
    compare_values,
)
from .parser import parse_query
from .planner import ACCESS_VALUE_INDEX, Plan, plan_query

__all__ = [
    "QueryResult",
    "QueryProcessor",
    "run_query",
    "column_name",
    "referenced_variables",
]

Cell = Union[int, str]


def column_name(item) -> str:
    """The result-table column header of one select item."""
    if isinstance(item, VarItem):
        return f"${item.variable}"
    if isinstance(item, TagItem):
        return f"tag(${item.variable})"
    if isinstance(item, PathItem):
        return f"path(${item.variable})"
    if isinstance(item, TextItem):
        return f"text(${item.variable})"
    if isinstance(item, PathVarItem):
        return f"%{item.name}"
    if isinstance(item, DistanceItem):
        return f"distance(${item.left}, ${item.right})"
    if isinstance(item, MeetItem):
        return "meet(" + ", ".join(f"${v}" for v in item.variables) + ")"
    raise QueryPlanError(f"unknown select item {item!r}")  # pragma: no cover


def referenced_variables(query: Query) -> List[str]:
    """Variables the select list actually touches, in binding order."""
    referenced: Set[str] = set()
    for item in query.select:
        if isinstance(item, (VarItem, TagItem, PathItem, TextItem)):
            referenced.add(item.variable)
        elif isinstance(item, PathVarItem):
            # Path variables live on the owning binding's pattern.
            for binding in query.bindings:
                if item.name in binding.pattern.variables:
                    referenced.add(binding.variable)
                    break
    return [
        binding.variable
        for binding in query.bindings
        if binding.variable in referenced
    ]


@dataclass(slots=True)
class QueryResult:
    """A small result table; cells are OIDs or strings."""

    columns: List[str]
    rows: List[Tuple[Cell, ...]] = field(default_factory=list)
    #: The executed plan's :meth:`~repro.query.planner.Plan.describe`
    #: payload (chosen access paths, estimated vs actual rows).  Not
    #: part of the row data: ``to_dict`` omits it, cache hits lack it.
    plan: Optional[Dict[str, object]] = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name: str) -> List[Cell]:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def to_dict(self) -> Dict[str, object]:
        """The machine-readable table: columns, typed cells, row count.

        Cells keep their Python types (OIDs stay ``int``, strings stay
        ``str``), which JSON preserves — the one shared representation
        behind both :meth:`render_answer` and the API envelope codec
        (:mod:`repro.api.envelopes`), so servers never re-parse
        rendered text.
        """
        return {
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "row_count": len(self.rows),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "QueryResult":
        """Rebuild a result table from :meth:`to_dict` output."""
        columns = payload.get("columns")
        rows = payload.get("rows")
        if not isinstance(columns, list) or not isinstance(rows, list):
            raise ValueError("query result payload needs 'columns' and 'rows' lists")
        return cls(
            columns=[str(name) for name in columns],
            rows=[tuple(row) for row in rows],
        )

    def render_answer(self, store: Optional[MonetXML] = None) -> str:
        """The paper's ``<answer>`` block: tags with OID annotations."""
        lines = ["<answer>"]
        for row in self.rows:
            cells = []
            for cell in row:
                if isinstance(cell, int) and store is not None and cell in store:
                    label = store.summary.label(store.pid_of(cell))
                    cells.append(f"{label} <!-- oid {cell} -->")
                else:
                    cells.append(str(cell))
            lines.append("  <result> " + ", ".join(cells) + " </result>")
        lines.append("</answer>")
        return "\n".join(lines)


class QueryProcessor:
    """Plans and executes queries over one store (reusable, cached index)."""

    def __init__(
        self,
        store: MonetXML,
        search: Optional[SearchEngine] = None,
        max_rows: Optional[int] = 100_000,
        backend: BackendSpec = None,
        cache: CacheSpec = None,
        force_scan: bool = False,
        value_indexes: Sequence[str] = (),
    ):
        self.store = store
        self.search = search or SearchEngine(store)
        self.max_rows = max_rows
        #: Meet execution strategy for meet(...)/distance(...) items.
        self.backend: MeetBackend = resolve_backend(store, backend)
        #: Serving-layer result cache (off by default); keys embed the
        #: store generation, so invalidated stores never serve stale rows.
        self.result_cache: Optional[ResultCache] = resolve_result_cache(cache)
        #: The differential harness's escape hatch: pin every
        #: equality/range predicate to the string-relation scan.
        self.force_scan = force_scan
        #: Declared value-index path patterns (observability; the
        #: in-memory index always covers every path).
        self.value_indexes: Tuple[str, ...] = tuple(value_indexes)
        #: Prepared-plan cache: normalized text → (generation, Plan).
        self._plan_cache: Dict[str, Tuple[int, Plan]] = {}
        self._plan_hits = 0
        self._plan_misses = 0

    # -- public API ---------------------------------------------------------
    @staticmethod
    def _bindings_key(
        bindings: Optional[Mapping[str, str]]
    ) -> Tuple[Tuple[str, str], ...]:
        """Canonical, order-independent form of parameter bindings.

        Part of every result-cache key: two executions of one prepared
        plan with different bindings must never collide.
        """
        if not bindings:
            return ()
        return tuple(sorted((str(k), str(v)) for k, v in bindings.items()))

    def execute(
        self,
        query: Union[str, Query],
        bindings: Optional[Mapping[str, str]] = None,
    ) -> QueryResult:
        cache = self.result_cache
        key = None
        if cache is not None and isinstance(query, str):
            # Normalized query: only *surrounding* whitespace is safe to
            # strip — interior runs can sit inside quoted string
            # literals, where they change `contains` semantics.  The
            # search case mode, backend and parameter bindings are part
            # of the key so a shared cache never crosses configurations
            # or serves one binding's rows for another.
            cache.sync_generation(self.store.generation)
            key = (
                self.store.generation,
                query.strip(),
                self.search.case_sensitive,
                self.backend.name,
                self._bindings_key(bindings),
            )
            cached = cache.get(key)
            if cached is not None:
                columns, rows = cached
                return QueryResult(columns=list(columns), rows=list(rows))
        result = self._execute(query, bindings=bindings)
        if key is not None:
            cache.put(key, (tuple(result.columns), tuple(result.rows)))
        return result

    def execute_template(
        self,
        template: Query,
        *,
        text: str,
        bindings: Optional[Mapping[str, str]] = None,
    ) -> QueryResult:
        """Execute an already-parsed prepared template with bindings.

        The schema half of the plan is cached per normalized text and
        store generation — repeated executions of one prepared
        statement skip lexing, parsing and pattern matching, and only
        re-plan the predicate access paths for the bound literals.
        """
        normalized = text.strip()
        bindings_key = self._bindings_key(bindings)
        cache = self.result_cache
        key = None
        if cache is not None:
            cache.sync_generation(self.store.generation)
            key = (
                self.store.generation,
                normalized,
                self.search.case_sensitive,
                self.backend.name,
                bindings_key,
            )
            cached = cache.get(key)
            if cached is not None:
                columns, rows = cached
                return QueryResult(columns=list(columns), rows=list(rows))
        plan = self._template_plan(template, normalized)
        try:
            bound_query = template.bind(dict(bindings or {}))
        except (KeyError, ValueError) as exc:
            raise QueryPlanError(str(exc).strip("'\"")) from exc
        result = self._execute_plan(plan.rebound(bound_query))
        if key is not None:
            cache.put(key, (tuple(result.columns), tuple(result.rows)))
        return result

    def _template_plan(self, template: Query, normalized: str) -> Plan:
        """The generation-keyed schema plan of a prepared template."""
        generation = self.store.generation
        cached = self._plan_cache.get(normalized)
        if cached is not None and cached[0] == generation:
            self._plan_hits += 1
            return cached[1]
        self._plan_misses += 1
        plan = plan_query(
            template,
            self.store,
            force_scan=self.force_scan,
            case_sensitive=self.search.case_sensitive,
        )
        self._plan_cache[normalized] = (generation, plan)
        return plan

    def plan_cache_info(self) -> Dict[str, int]:
        """Prepared-plan cache counters (for the metrics registry)."""
        return {
            "hits": self._plan_hits,
            "misses": self._plan_misses,
            "currsize": len(self._plan_cache),
        }

    def cache_info(self) -> Optional[ResultCacheInfo]:
        """Result-cache counters, or ``None`` when caching is off."""
        if self.result_cache is None:
            return None
        return self.result_cache.cache_info()

    def _execute(
        self,
        query: Union[str, Query],
        bindings: Optional[Mapping[str, str]] = None,
    ) -> QueryResult:
        parsed = parse_query(query) if isinstance(query, str) else query
        if bindings or parsed.parameters:
            try:
                parsed = parsed.bind(dict(bindings or {}))
            except (KeyError, ValueError) as exc:
                raise QueryPlanError(str(exc).strip("'\"")) from exc
        plan = plan_query(
            parsed,
            self.store,
            force_scan=self.force_scan,
            case_sensitive=self.search.case_sensitive,
        )
        return self._execute_plan(plan)

    def _execute_plan(self, plan: Plan) -> QueryResult:
        if plan.query.parameters:
            raise QueryPlanError(
                "cannot execute a query with unbound parameter(s) "
                + ", ".join(f"${name}" for name in plan.query.parameters)
            )
        if plan.aggregate:
            result = self._execute_aggregate(plan)
        else:
            result = self._execute_enumeration(plan)
        result.plan = plan.describe()
        return result

    def explain(self, query: Union[str, Query]) -> str:
        parsed = parse_query(query) if isinstance(query, str) else query
        return plan_query(
            parsed,
            self.store,
            force_scan=self.force_scan,
            case_sensitive=self.search.case_sensitive,
        ).explain()

    # -- binding computation --------------------------------------------
    def _pattern_oids(self, plan: Plan, variable: str) -> Set[int]:
        """All node OIDs on any summary path matched by the pattern.

        A pattern ending in an attribute step (``…@shelf``) binds the
        *owning elements* — the first components of the oid × string
        associations on that path.
        """
        oids: Set[int] = set()
        for pid in plan.variables[variable].pids:
            if self.store.summary.is_attribute(pid):
                relation = self.store.strings.get(pid)
                if relation is not None:
                    oids.update(relation.heads)
                continue
            oids.update(self.store.oids_on_pid(pid))
        return oids

    def _condition_closure(self, condition, plan: Optional[Plan] = None) -> Set[int]:
        """Node set satisfying the condition.

        ``contains`` has offspring semantics (the intro query: "nodes
        whose offspring contains … the string"), so the witnesses are
        closed under ancestors.  ``=`` and the range comparisons are
        node-level tests: the node itself carries an association whose
        value passes.

        The plan's chosen access path decides *how* the node set is
        produced — value-index probe vs. string-relation scan — never
        *what* it contains; the probe structures reproduce the scan
        semantics exactly.  The observed row count is recorded back
        onto the plan for estimated-vs-actual reporting.
        """
        condition_plan = (
            plan.condition_plan_for(condition) if plan is not None else None
        )
        use_index = (
            condition_plan is not None
            and condition_plan.access == ACCESS_VALUE_INDEX
        )
        if isinstance(condition, ContainsCondition):
            witnesses = self.search.find(condition.needle).oids()
            closure: Set[int] = set()
            for oid in witnesses:
                current: Optional[int] = oid
                while current is not None and current not in closure:
                    closure.add(current)
                    current = self.store.parent_of(current)
            result = closure
        elif isinstance(condition, EqualsCondition):
            if use_index:
                result = set(get_value_index(self.store).lookup_eq(condition.value))
            else:
                result = set()
                for _pid, relation in self.store.string_relations():
                    for oid, _value in relation.select_eq(condition.value):
                        result.add(oid)
        elif isinstance(condition, RangeCondition):
            if use_index:
                result = set(
                    get_value_index(self.store).lookup_cmp(
                        condition.op, condition.value
                    )
                )
            else:
                result = set()
                for _pid, relation in self.store.string_relations():
                    for oid, value in relation:
                        if compare_values(value, condition.op, condition.value):
                            result.add(oid)
        else:  # pragma: no cover - parser only emits the three kinds
            raise QueryPlanError(f"unknown condition {condition!r}")
        if condition_plan is not None:
            condition_plan.actual_rows = len(result)
        return result

    def _bound_nodes(self, plan: Plan, variable: str) -> Set[int]:
        """Closure-semantics binding set of a variable."""
        bound = self._pattern_oids(plan, variable)
        for condition in plan.query.conditions_for(variable):
            bound &= self._condition_closure(condition, plan)
        return bound

    def _minimal(self, bound: Set[int]) -> Set[int]:
        """Members with no proper descendant in the set (the witnesses)."""
        dominated: Set[int] = set()
        for oid in bound:
            current = self.store.parent_of(oid)
            while current is not None:
                if current in bound:
                    dominated.add(current)
                current = self.store.parent_of(current)
        return bound - dominated

    # -- enumeration mode ------------------------------------------------
    def _execute_enumeration(self, plan: Plan) -> QueryResult:
        query = plan.query
        bound: Dict[str, List[int]] = {}
        needed = self._referenced_variables(query)
        for variable in needed:
            bound[variable] = sorted(self._bound_nodes(plan, variable))

        columns = [self._column_name(item) for item in query.select]
        result = QueryResult(columns=columns)
        seen: Set[Tuple[Cell, ...]] = set()

        def emit(assignment: Dict[str, int]) -> bool:
            row = tuple(
                self._cell(plan, item, assignment) for item in query.select
            )
            if query.distinct:
                if row in seen:
                    return True
                seen.add(row)
            result.rows.append(row)
            if self.max_rows is not None and len(result.rows) > self.max_rows:
                raise QueryPlanError(
                    f"result exceeds max_rows={self.max_rows}; "
                    "refine the query or use meet(...) aggregation"
                )
            return True

        variables = list(needed)
        if not variables:
            return result

        def recurse(index: int, assignment: Dict[str, int]) -> None:
            if index == len(variables):
                emit(assignment)
                return
            variable = variables[index]
            for oid in bound[variable]:
                assignment[variable] = oid
                recurse(index + 1, assignment)
            assignment.pop(variable, None)

        recurse(0, {})
        return result

    def _referenced_variables(self, query: Query) -> List[str]:
        """Variables the select list actually touches, in binding order."""
        return referenced_variables(query)

    def _column_name(self, item) -> str:
        return column_name(item)

    def _cell(self, plan: Plan, item, assignment: Dict[str, int]) -> Cell:
        store = self.store
        if isinstance(item, VarItem):
            return assignment[item.variable]
        if isinstance(item, TagItem):
            return store.summary.label(store.pid_of(assignment[item.variable]))
        if isinstance(item, PathItem):
            return str(store.path_of(assignment[item.variable]))
        if isinstance(item, TextItem):
            return object_text(store, assignment[item.variable])
        if isinstance(item, PathVarItem):
            owner = plan.path_variable_owner[item.name]
            oid = assignment[owner]
            bindings = plan.variables[owner].binding.pattern.match(
                store.path_of(oid)
            )
            return "" if bindings is None else bindings.get(item.name, "")
        raise QueryPlanError(f"unexpected row item {item!r}")  # pragma: no cover

    # -- aggregation mode -------------------------------------------------
    def _execute_aggregate(self, plan: Plan) -> QueryResult:
        query = plan.query
        columns = [self._column_name(item) for item in query.select]
        result = QueryResult(columns=columns)

        cells_per_item: List[List[Cell]] = []
        for item in query.select:
            if isinstance(item, MeetItem):
                cells_per_item.append(self._meet_cells(plan, item))
            elif isinstance(item, DistanceItem):
                cells_per_item.append(self._distance_cells(plan, item))
            else:  # pragma: no cover - planner rejects mixed selects
                raise QueryPlanError("row-wise item in aggregate query")

        height = max((len(cells) for cells in cells_per_item), default=0)
        for index in range(height):
            row = tuple(
                cells[index] if index < len(cells) else ""
                for cells in cells_per_item
            )
            result.rows.append(row)
        return result

    def _meet_cells(self, plan: Plan, item: MeetItem) -> List[Cell]:
        tagged: List[Tuple[str, int]] = []
        for variable in item.variables:
            bound = self._bound_nodes(plan, variable)
            for oid in self._minimal(bound):
                tagged.append((variable, oid))
        excluded = resolve_pids(self.store, item.exclude_paths)
        if item.exclude_root:
            excluded.add(self.store.pid_of(self.store.root_oid))
        results = self.backend.meet_tagged(tagged)
        chosen, _ = select_meets(
            self.store,
            results,
            excluded=excluded,
            within=item.within,
            ranked=False,
        )
        oids = meet_oids(results)
        return sorted(oids[index] for index in chosen)

    def _distance_cells(self, plan: Plan, item: DistanceItem) -> List[Cell]:
        left = self._minimal(self._bound_nodes(plan, item.left))
        right = self._minimal(self._bound_nodes(plan, item.right))
        if len(left) != 1 or len(right) != 1:
            raise QueryPlanError(
                "distance($a, $b) requires both variables to bind exactly "
                f"one witness (got {len(left)} and {len(right)})"
            )
        (oid1,), (oid2,) = tuple(left), tuple(right)
        return [self.backend.meet(oid1, oid2).joins]


def run_query(store: MonetXML, text: str) -> QueryResult:
    """One-shot convenience: parse, plan and execute a query string."""
    return QueryProcessor(store).execute(text)
