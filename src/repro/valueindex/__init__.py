"""Typed per-path value indexes over a store's string associations.

Where :mod:`repro.fulltext` indexes *tokens*, this package indexes the
association *values* themselves: equality and range probes over element
character data and attribute values, string and numeric, grouped by
path.  The query planner consults it to answer ``$v = 'literal'``
predicates by a sorted-column probe instead of scanning every string
relation.
"""

from .index import (
    VALUE_INDEXES,
    ValueIndex,
    cached_value_index,
    clear_value_index_cache,
    get_value_index,
    value_index_cache_info,
)

__all__ = [
    "ValueIndex",
    "VALUE_INDEXES",
    "cached_value_index",
    "get_value_index",
    "clear_value_index_cache",
    "value_index_cache_info",
]
