"""The four workloads: fixed documents, seed-generated request lists.

Document seeds are constants (bundles are byte-stable across runs);
only the request list depends on ``--seed``.  Every list is banded so
that p50 and p90 each sit inside one population of requests, never on
the boundary between two.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Dict, List, Tuple

from harness import Op

#: Terms per request, repeated: every block of five ops holds three
#: two-term, one three-term and one four-term request (60/20/20), so
#: any prefix of the list that is a multiple of five is banded alike.
_NEAREST_PATTERN = (2, 2, 3, 2, 4)
_NEAREST_BANDS = {2: "two_term", 3: "three_term", 4: "four_term"}

NEAREST_LIMIT = 5

#: The prepared statement of ``query_rw`` (handle = sha256 of the text,
#: the server's own deterministic rule, so ops can be encoded up front).
PREPARED_TEXT = "select $a from # $a where $a = $v"


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str                      # "random" | "dblp"
    build_args: Tuple[str, ...]       # extra `snapshot build` flags
    serve_args: Tuple[str, ...]       # extra `serve` flags
    #: Result-cache hit ratio the measured passes must show.
    expect_hit_ratio: Tuple[float, float]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("nearest_distinct", "random", (), ("--cache", "0"), (0.0, 0.0)),
        Workload("nearest_hot", "random", (), (), (0.99, 1.0)),
        Workload(
            "query_rw", "dblp",
            ("--index", "dblp/inproceedings/year"), (), (0.0, 0.0),
        ),
        Workload(
            "nearest_sharded", "random",
            ("--shards", "2"), ("--cache", "0"), (0.0, 0.0),
        ),
    )
}


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

def write_dataset(dataset: str, path: Path, quick: bool) -> None:
    """Serialize the fixed-seed document of ``dataset`` to ``path``.

    The XML is an input, not something the program under test makes,
    and it is the same for every seed: the first run of a checkout
    keeps a copy beside the run directories and later runs copy it
    (generating the 60k-element tree takes ~1.5 s of every run's
    budget otherwise).
    """
    kept = path.parent.parent / f"{dataset}{'-quick' if quick else ''}.xml"
    if not kept.is_file():
        from repro.datamodel.serializer import serialize
        from repro.datasets.dblp import DblpConfig, dblp_document
        from repro.datasets.randomtree import random_document

        if dataset == "random":
            document = random_document(42, nodes=3000 if quick else 60000)
        else:
            config = DblpConfig(last_year=1986) if quick else DblpConfig()
            document = dblp_document(config)
        scratch = kept.with_suffix(f".{os.getpid()}.tmp")
        scratch.write_text(serialize(document), encoding="utf-8")
        scratch.replace(kept)  # atomic: a concurrent run sees all or nothing
    shutil.copyfile(kept, path)


# ---------------------------------------------------------------------------
# Request lists
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RequestList:
    prelude: Tuple[Op, ...]   # sent once per server, unmeasured
    ops: Tuple[Op, ...]       # one pass, each op timed
    tail: Tuple[Op, ...]      # after the ops of a pass, timed apart

    def band_sizes(self) -> Dict[str, int]:
        sizes: Dict[str, int] = {}
        for op in self.ops:
            sizes[op.band] = sizes.get(op.band, 0) + 1
        return sizes


def nearest_ops(seed: int, count: int) -> List[Op]:
    """``count`` distinct nearest-concept requests over ``TECH_NOUNS``."""
    from repro.datasets.textpool import TECH_NOUNS

    rng = Random(seed)
    nouns = list(TECH_NOUNS)
    seen = set()
    ops: List[Op] = []
    while len(ops) < count:
        width = _NEAREST_PATTERN[len(ops) % len(_NEAREST_PATTERN)]
        terms = rng.sample(nouns, width)
        key = frozenset(terms)
        if key in seen:  # the result cache keys on the term *set*
            continue
        seen.add(key)
        ops.append(
            Op.make(
                "POST", "/v1/nearest",
                {"terms": terms, "limit": NEAREST_LIMIT},
                _NEAREST_BANDS[width],
            )
        )
    return ops


def _fragment(rng: Random, key: str) -> str:
    from repro.datasets.textpool import paper_title, person_name

    authors = "".join(
        f"<author>{person_name(rng)}</author>"
        for _ in range(rng.randint(1, 3))
    )
    return (
        f'<inproceedings key="conf/bench/{key}">{authors}'
        f"<title>{paper_title(rng, words=rng.randint(4, 7))}</title>"
        f"<booktitle>BENCH</booktitle><year>{rng.randint(1984, 1999)}</year>"
        "</inproceedings>"
    )


def _read_op(rng: Random, kind: int, band: str, last_year: int) -> Op:
    from repro.datasets.textpool import LAST_NAMES, TITLE_WORDS

    word = rng.choice(TITLE_WORDS)
    year = rng.randint(1984, last_year)
    if kind == 0:
        text = (
            "select meet($a,$b) from # $a, # $b "
            f"where $a contains '{word}' and $b contains '{year}'"
        )
    elif kind == 1:
        text = (
            "select $a from dblp/inproceedings/year/cdata $a "
            f"where $a = '{year}'"
        )
    elif kind == 2:
        low = rng.randint(1984, last_year - 1)
        text = (
            "select $a from dblp/inproceedings/year/cdata $a "
            f"where $a >= '{low}' and $a <= '{low + 1}'"
        )
    elif kind == 3:
        # Two words: a conjunctive postings intersection, then confirmed.
        phrase = f"{word} {rng.choice(TITLE_WORDS)}"
        text = f"select $a from # $a where $a contains '{phrase}'"
    elif kind == 4:
        text = (
            "select $t from dblp/inproceedings/title $t "
            f"where $t contains '{word}'"
        )
    elif kind == 5:
        handle = "q" + hashlib.sha256(PREPARED_TEXT.encode()).hexdigest()[:16]
        return Op.make(
            "POST", "/v1/execute",
            {"handle": handle, "params": {"v": str(year)}}, band,
        )
    else:
        return Op.make(
            "POST", "/v1/nearest",
            {"terms": [rng.choice(LAST_NAMES), str(year)],
             "limit": NEAREST_LIMIT},
            band,
        )
    return Op.make("POST", "/v1/query", {"text": text}, band)


#: Write cycles per ``query_rw`` pass: three documents, each put,
#: replaced and deleted (45 ops: 9 writes, 9 first reads, 27 warm).
#: A pass takes ~1.8 s, so the measuring time holds six or seven.
RW_CYCLES = 9


def query_rw_list(seed: int, quick: bool) -> RequestList:
    """Cycles of [1 write, 4 reads], then one compaction.

    Document ``k`` is put, replaced and deleted within the pass, so
    the compaction at the end returns the store to the dense state the
    pass started from and every pass sees the same answers.  The read
    right after a write is always a meet (query or nearest): it pays
    for the LCA index the write invalidated, which makes the slowest
    fifth of the list one population with p90 in its middle.  The
    three warm reads rotate over all seven read shapes.
    """
    rng = Random(seed)
    last_year = 1986 if quick else 1999
    ops: List[Op] = []
    read_kind = 0
    for cycle in range(RW_CYCLES):
        name = f"bench-{cycle // 3}"
        step = cycle % 3
        if step == 2:
            ops.append(
                Op.make("DELETE", "/v1/documents", {"name": name},
                        "write", repeatable=False)
            )
        else:
            ops.append(
                Op.make(
                    "PUT", "/v1/documents",
                    {"name": name, "xml": _fragment(rng, f"{name}-{step}"),
                     "replace": step == 1},
                    "write", repeatable=False,
                )
            )
        ops.append(
            _read_op(rng, 0 if cycle % 2 else 6, "read_after_write", last_year)
        )
        for _ in range(3):
            ops.append(_read_op(rng, read_kind % 7, "read_warm", last_year))
            read_kind += 1
    return RequestList(
        prelude=(
            Op.make("POST", "/v1/prepare", {"text": PREPARED_TEXT},
                    "prepare"),
        ),
        ops=tuple(ops),
        tail=(Op.make("POST", "/v1/compact", {}, "compact",
                      repeatable=False),),
    )


def request_list(workload: Workload, seed: int, quick: bool) -> RequestList:
    if workload.name == "query_rw":
        return query_rw_list(seed, quick)
    ops = nearest_ops(seed, 40 if quick else 200)
    if workload.name == "nearest_hot":
        # One pass replays the 200 requests 25 times: after the gate
        # pass filled the cache every timed op is a hit.
        ops = ops * (5 if quick else 25)
    elif workload.name == "nearest_sharded":
        # The first quarter of nearest_distinct's list (same bands): a
        # sharded request costs ~6x a monolithic one, and the run needs
        # several passes inside its measuring time.
        ops = ops[: 20 if quick else 50]
    return RequestList(prelude=(), ops=tuple(ops), tail=())
