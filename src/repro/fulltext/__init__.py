"""Full-text search over string associations (the paper's search engine).

* :class:`FullTextIndex` — inverted token index; postings are
  (pid, OID) associations, pre-grouped for the meet operator.
* :class:`SearchEngine` — token search plus substring scans, the
  ``contains`` semantics of the query language.
"""

from .index import FullTextIndex, Hits, Posting
from .search import SearchEngine, contains, term_shape
from .thesaurus import BroadeningSearch, Thesaurus, expand_term
from .tokenizer import normalize, tokenize

__all__ = [
    "FullTextIndex",
    "Hits",
    "Posting",
    "BroadeningSearch",
    "SearchEngine",
    "Thesaurus",
    "expand_term",
    "contains",
    "term_shape",
    "normalize",
    "tokenize",
]
