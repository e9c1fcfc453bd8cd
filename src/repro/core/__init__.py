"""The paper's primary contribution: the meet operator family (§3–§4).

* :func:`meet2` / :func:`meet2_traced` — pairwise meet (Fig. 3).
* :func:`meet_sets` — set-at-a-time minimal meets (Fig. 4).
* :func:`meet_general` / :func:`meet_depthwise` — n-ary roll-up (Fig. 5).
* :func:`meet_excluding` / :func:`bounded_meet2` — §4 restrictions.
* :mod:`~repro.core.distance` / :mod:`~repro.core.ranking` — §4
  distance measure and ranking heuristics.
* :class:`NearestConceptEngine` — the end-to-end query pipeline.
* :mod:`~repro.core.backends` — meet execution:
  :class:`VectorBackend` (NumPy kernels over a pre-order range-minimum
  :class:`~repro.core.lca_index.LcaIndex`), which every open serves
  on, and :class:`SteeredBackend` (the paper's walks, the reference).
"""

from .backends import SteeredBackend, VectorBackend, resolve_backend
from .crossdoc import CrossMatch, distinctive_terms, find_elsewhere
from .lca_index import LcaIndex, get_lca_index
from .distance import (
    MeetContext,
    contexts,
    distance,
    document_distance,
    shortest_path,
)
from .engine import NearestConcept, NearestConceptEngine
from .graph_meet import (
    GraphMeet,
    ReferenceIndex,
    graph_distance,
    graph_meet,
    graph_shortest_path,
)
from .keyword import KeywordHit, keyword_search
from .ranking_ir import IRRanker, IRWeights, ScoredConcept
from .meet_general import (
    GeneralMeet,
    TaggedMeet,
    group_by_pid,
    meet_depthwise,
    meet_general,
    meet_tagged,
)
from .meet_pair import PairMeet, meet2, meet2_traced
from .meet_sets import SetMeet, SetMeetTrace, meet_sets, meet_sets_traced
from .ranking import RankedMeet, join_count, origin_spread, rank_meets
from .restrictions import (
    bounded_meet2,
    meet_excluding,
    meet_restricted_to,
    resolve_pids,
)
from .result_cache import ResultCache, ResultCacheInfo, resolve_result_cache

__all__ = [
    "CrossMatch",
    "GeneralMeet",
    "LcaIndex",
    "SteeredBackend",
    "VectorBackend",
    "GraphMeet",
    "IRRanker",
    "IRWeights",
    "KeywordHit",
    "MeetContext",
    "NearestConcept",
    "NearestConceptEngine",
    "PairMeet",
    "RankedMeet",
    "ReferenceIndex",
    "ScoredConcept",
    "SetMeet",
    "SetMeetTrace",
    "TaggedMeet",
    "meet_tagged",
    "bounded_meet2",
    "contexts",
    "distance",
    "distinctive_terms",
    "find_elsewhere",
    "graph_distance",
    "graph_meet",
    "graph_shortest_path",
    "keyword_search",
    "document_distance",
    "get_lca_index",
    "group_by_pid",
    "resolve_backend",
    "join_count",
    "meet2",
    "meet2_traced",
    "meet_depthwise",
    "meet_excluding",
    "meet_general",
    "meet_restricted_to",
    "meet_sets",
    "meet_sets_traced",
    "origin_spread",
    "rank_meets",
    "resolve_pids",
    "ResultCache",
    "ResultCacheInfo",
    "resolve_result_cache",
    "shortest_path",
]
