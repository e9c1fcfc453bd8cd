"""The correctness gate: answers are checked before anything is timed.

Two oracles, neither of them the code path being measured:

* the paper's own walk — a ``Database`` opened from the **source XML**
  with the ``steered`` backend answers a sample of the request list
  in-process (every op of ``query_rw``, writes included), and the
  bundle-served HTTP answers must equal it: same ranked answers, same
  §4 keys, same rows;
* stdlib ``xml.etree.ElementTree`` over the same XML — an oracle this
  repo did not write — checks EquiX's containment reading: the
  sub-tree of every nearest-concept answer holds each term the answer
  claims to relate.

The steered walk over the 84k-node store takes ~10 s for 50 requests,
so it runs as a child process on the other core while the set-up
cycles are being timed (``python gate.py SPEC.json``).
"""

from __future__ import annotations

import json
import os
import sys
import xml.etree.ElementTree as ElementTree
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: OID of the document root; nodes are numbered in pre-order from it.
FIRST_OID = 1


def dispatch(database, method: str, path: str, payload: dict) -> dict:
    """Answer one op in-process, shaped like the HTTP response body."""
    from repro.api import envelopes

    if path == "/v1/nearest":
        result = database.nearest(envelopes.NearestRequest.from_dict(payload))
    elif path == "/v1/query":
        result = database.query(envelopes.QueryRequest.from_dict(payload))
    elif path == "/v1/execute":
        result = database.execute(envelopes.ExecuteRequest.from_dict(payload))
    elif path == "/v1/prepare":
        return database.prepare(envelopes.PrepareRequest.from_dict(payload))
    elif path == "/v1/compact":
        return database.compact()
    elif path == "/v1/documents" and method == "PUT":
        request = envelopes.PutDocumentRequest.from_dict(payload)
        if request.replace:
            return database.replace(request.name, request.xml)
        return database.put(request.name, request.xml)
    elif path == "/v1/documents" and method == "DELETE":
        return database.delete(payload["name"])
    else:
        raise ValueError(f"no in-process route for {method} {path}")
    return result.to_dict()


def canonical(path: str, body: dict) -> object:
    """The part of a response two correct servers must agree on."""
    if path == "/v1/nearest":
        return body["answers"]
    if path in ("/v1/query", "/v1/execute"):
        return [body["columns"], body["rows"], body["count"]]
    if path == "/v1/prepare":
        return [body["handle"], body["parameters"]]
    if path == "/v1/documents":
        return [body[key] for key in
                ("op", "name", "span", "documents", "live_nodes")]
    if path == "/v1/compact":
        return [body[key] for key in ("node_count", "reclaimed", "documents")]
    raise ValueError(f"no canonical form for {path}")


class SourceTree:
    """The source XML as ElementTree sees it, numbered like the store.

    Elements and non-blank text chunks (leading text and tails) are
    nodes in document order; attributes belong to their element.  The
    numbering is checked, not assumed: :meth:`check_answer` compares
    the tag the program reports for an OID with the tag found here.
    """

    def __init__(self, xml_path: Path):
        root = ElementTree.parse(xml_path).getroot()
        self.tag: List[str] = []
        self.text: List[Optional[str]] = []
        self.size: List[int] = []
        stack = [("open", root)]
        while stack:
            kind, item = stack.pop()
            if kind == "close":
                self.size[item] = len(self.tag) - item
                continue
            if kind == "text":
                self.tag.append("cdata")
                self.text.append(item.lower())
                self.size.append(1)
                continue
            index = len(self.tag)
            self.tag.append(item.tag)
            self.text.append(" ".join(item.attrib.values()).lower() or None)
            self.size.append(0)
            children = []
            if item.text and item.text.strip():
                children.append(("text", item.text))
            for child in item:
                children.append(("open", child))
                if child.tail and child.tail.strip():
                    children.append(("text", child.tail))
            stack.append(("close", index))
            stack.extend(reversed(children))

    def check_answer(self, answer: dict) -> Optional[str]:
        """``None`` when the answer's sub-tree holds each of its terms."""
        index = answer["oid"] - FIRST_OID
        if not 0 <= index < len(self.tag):
            return f"oid {answer['oid']} is not a node of the source"
        if self.tag[index] != answer["tag"]:
            return (
                f"oid {answer['oid']} is <{self.tag[index]}> in the source, "
                f"the program says <{answer['tag']}>"
            )
        texts = self.text[index:index + self.size[index]]
        for term in answer["terms"]:
            needle = term.lower()
            if not any(needle in text for text in texts if text):
                return f"sub-tree of oid {answer['oid']} lacks {term!r}"
        return None


def check(
    ops: Sequence,
    bodies: Sequence[bytes],
    expected: Dict[int, object],
    tree: SourceTree,
    live_writes: bool,
) -> List[str]:
    """Compare HTTP bodies with the oracle's answers; list the failures.

    ``live_writes``: documents are being put and deleted, so OIDs at or
    past the source's node count name written nodes the source tree
    cannot speak for (the steered oracle still covers them).
    """
    failures: List[str] = []
    for index, want in sorted(expected.items()):
        op = ops[index]
        body = json.loads(bodies[index])
        got = canonical(op.path, body)
        if got != want:
            failures.append(
                f"op {index} {op.method} {op.path} {op.payload}: "
                f"served {got!r}, steered oracle {want!r}"
            )
            continue
        if op.path != "/v1/nearest":
            continue
        for answer in got:
            if live_writes and answer["oid"] - FIRST_OID >= len(tree.tag):
                continue
            problem = tree.check_answer(answer)
            if problem is not None:
                failures.append(f"op {index} {op.payload}: {problem}")
    return failures


def oracle_main(spec_path: str) -> int:
    """Child-process entry: answer the spec's ops with the steered walk."""
    spec = json.loads(Path(spec_path).read_text())
    if spec.get("cpu") is not None:
        os.sched_setaffinity(0, {spec["cpu"]})
    sys.path.insert(0, spec["src"])
    from repro.api.database import Database

    database = Database.open(spec["xml"], backend="steered", cache=None)
    sample = None if spec["sample"] is None else set(spec["sample"])

    def answer(op) -> object:
        method, path, payload = op
        body = dispatch(database, method, path, payload)
        return canonical(path, json.loads(json.dumps(body)))

    for op in spec["prelude"]:
        answer(op)
    answers = {
        index: answer(op)
        for index, op in enumerate(spec["ops"])
        if sample is None or index in sample
    }
    tail = [answer(op) for op in spec["tail"]]
    Path(spec["out"]).write_text(json.dumps({"ops": answers, "tail": tail}))
    return 0


if __name__ == "__main__":
    sys.exit(oracle_main(sys.argv[1]))
