"""Descriptive statistics of a Monet XML store.

The paper argues the schema of semistructured data "may be large,
unknown or implicit and therefore opaque to the user" (§1, citing
[1, 15]).  These statistics are the quantitative face of that
argument: path-summary size vs. instance size, instance counts per
path, depth and fan-out profiles.  The CLI's ``describe`` command and
the dataset tests use them; they also give query planners the
cardinalities they need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..datamodel.paths import Path
from .engine import MonetXML

__all__ = ["StoreStatistics", "collect_statistics"]


@dataclass(slots=True)
class StoreStatistics:
    """Aggregate shape numbers of one store."""

    node_count: int
    distinct_paths: int
    element_paths: int
    attribute_paths: int
    string_associations: int
    max_depth: int
    mean_depth: float
    max_fanout: int
    mean_fanout: float
    #: instance nodes per path, densest first.
    path_histogram: List[Tuple[Path, int]] = field(default_factory=list)
    #: nodes per depth level (index 0 unused; depth is 1-based).
    depth_histogram: List[int] = field(default_factory=list)
    #: instance nodes per element pid — the planner's cardinalities.
    pid_histogram: Dict[int, int] = field(default_factory=dict)
    #: string associations per attribute pid (planner cardinalities).
    association_histogram: Dict[int, int] = field(default_factory=dict)

    def schema_ratio(self) -> float:
        """Distinct paths per node — the 'loose schema' measure.

        Near 1.0 means every node has its own path (pathological);
        near 0 means a regular, relational-ish instance.
        """
        if self.node_count == 0:
            return 0.0
        return self.distinct_paths / self.node_count

    def render(self, top: int = 10) -> str:
        """Human-readable multi-line description."""
        lines = [
            f"nodes:               {self.node_count}",
            f"distinct paths:      {self.distinct_paths} "
            f"({self.element_paths} element, {self.attribute_paths} attribute)",
            f"schema ratio:        {self.schema_ratio():.4f} paths/node",
            f"string associations: {self.string_associations}",
            f"depth:               max {self.max_depth}, "
            f"mean {self.mean_depth:.2f}",
            f"fan-out:             max {self.max_fanout}, "
            f"mean {self.mean_fanout:.2f}",
            f"densest paths:",
        ]
        for path, count in self.path_histogram[:top]:
            lines.append(f"  {count:>8}  {path}")
        return "\n".join(lines)


def collect_statistics(store: MonetXML) -> StoreStatistics:
    """One pass over the columns; O(nodes + relations)."""
    summary = store.summary
    node_count = store.node_count

    path_counts: Dict[int, int] = {}
    depth_total = 0
    max_depth = 0
    depth_histogram: List[int] = []
    for oid in store.iter_oids():
        pid = store.pid_of(oid)
        path_counts[pid] = path_counts.get(pid, 0) + 1
        depth = summary.depth(pid)
        depth_total += depth
        if depth > max_depth:
            max_depth = depth
        while len(depth_histogram) <= depth:
            depth_histogram.append(0)
        depth_histogram[depth] += 1

    child_counts: Dict[int, int] = {}
    for oid in store.iter_oids():
        parent = store.parent_of(oid)
        if parent is not None:
            child_counts[parent] = child_counts.get(parent, 0) + 1
    internal = len(child_counts)
    max_fanout = max(child_counts.values(), default=0)
    mean_fanout = (
        sum(child_counts.values()) / internal if internal else 0.0
    )

    strings = store.string_runs()
    association_histogram: Dict[int, int] = dict(
        zip(strings.pids.tolist(), strings.lengths().tolist())
    )
    string_associations = sum(association_histogram.values())

    histogram = sorted(
        ((summary.path(pid), count) for pid, count in path_counts.items()),
        key=lambda item: (-item[1], str(item[0])),
    )

    element_paths = len(summary.element_pids())
    attribute_paths = len(summary.attribute_pids())
    return StoreStatistics(
        node_count=node_count,
        distinct_paths=element_paths + attribute_paths,
        element_paths=element_paths,
        attribute_paths=attribute_paths,
        string_associations=string_associations,
        max_depth=max_depth,
        mean_depth=depth_total / node_count if node_count else 0.0,
        max_fanout=max_fanout,
        mean_fanout=mean_fanout,
        path_histogram=histogram,
        depth_histogram=depth_histogram,
        pid_histogram=path_counts,
        association_histogram=association_histogram,
    )
