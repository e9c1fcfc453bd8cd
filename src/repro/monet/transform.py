"""The Monet transform (Definition 4): document → path-partitioned store.

``Mt(D) = (r, E', A', R')`` where

* ``E'`` groups parent/child edges by the *child's* path — one binary
  relation per distinct path, named by that path (Figure 2);
* ``A'`` groups (OID, string) attribute/value associations by the
  attribute path ``π(o)@name``;
* ``R'`` groups (OID, rank) associations preserving sibling order;
* ``r`` remains the root.

The transform emits the dense OID columns (pid, parent, rank) that give
the O(1) ``parent``/π look-ups of §3.2; ``E'`` and ``R'`` are those
columns regrouped by pid, derived on first use, and ``A'`` is one
pid-sorted run of string rows per attribute path
(:mod:`repro.monet.relations`).

:class:`ColumnSink` is that one pre-order pass.  The XML parser drives
it straight from the text (:func:`shred_xml`: snapshot builds, parsed
opens), :func:`monet_transform` from a node tree, and a write into a
detached buffer (:func:`repro.monet.mutate.shred_fragment`); every pid
is interned from its parent's by one step, so none builds a
:class:`~repro.datamodel.paths.Path`.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

from ..datamodel.document import (
    CDATA_LABEL,
    STRING_ATTRIBUTE,
    Document,
    split_cdata,
)
from ..datamodel.parser import parse_into
from .engine import MonetXML
from .pathsummary import PathSummary
from .relations import group_rows

__all__ = ["ColumnSink", "monet_transform", "shred_xml"]


class ColumnSink:
    """Parser sink appending one document to store columns.

    Node ``first_oid + i`` appends its pid, parent OID and rank to
    :attr:`pids`, :attr:`parents`, :attr:`ranks`, and each attribute a
    ``(pid, OID, value)`` row to :attr:`string_pids`,
    :attr:`string_oids`, :attr:`values`.  A text event is a ``cdata``
    node with a ``string`` attribute, and a ``cdata`` attribute becomes
    one (:func:`~repro.datamodel.document.split_cdata`).  ``steps``
    interns pids (``intern_step``); the root hangs below
    ``root_parent``, a ``(parent OID, parent pid)`` pair.
    """

    def __init__(
        self,
        steps,
        first_oid: int = 0,
        root_parent: Tuple[int, int] = (-1, 0),
    ):
        self.steps = steps
        self.first_oid = first_oid
        self.pids = array("i")
        self.parents = array("i")
        self.ranks = array("i")
        self.string_pids: List[int] = []
        self.string_oids: List[int] = []
        self.values: List[str] = []
        self._root_parent = root_parent
        # One frame per open element: [OID, pid, children so far, the
        # value of its trailing cdata child or None].
        self._open: List[list] = []

    def _append(self, label: str) -> Tuple[int, int]:
        """Append an element node below the open one; its (OID, pid)."""
        if self._open:
            frame = self._open[-1]
            parent_oid, parent_pid, rank = frame[0], frame[1], frame[2]
            frame[2] = rank + 1
        else:
            (parent_oid, parent_pid), rank = self._root_parent, 0
        pid = self.steps.intern_step(parent_pid, label, False)
        oid = self.first_oid + len(self.pids)
        self.pids.append(pid)
        self.parents.append(parent_oid)
        self.ranks.append(rank)
        return oid, pid

    def _string(self, pid: int, name: str, oid: int, value: str) -> None:
        self.string_pids.append(self.steps.intern_step(pid, name, True))
        self.string_oids.append(oid)
        self.values.append(value)

    def open(self, label: str, attributes: Dict[str, str]) -> None:
        oid, pid = self._append(label)
        trailing = split_cdata(label, attributes)
        for name, value in attributes.items():
            self._string(pid, name, oid, value)
        self._open.append([oid, pid, 0, trailing])

    def text(self, value: str) -> None:
        oid, pid = self._append(CDATA_LABEL)
        self._string(pid, STRING_ATTRIBUTE, oid, value)

    def close(self) -> None:
        trailing = self._open[-1][3]
        if trailing is not None:
            self.text(trailing)
        self._open.pop()

    def store(self) -> MonetXML:
        """The store of the shredded document (``steps`` its summary)."""
        return MonetXML(
            summary=self.steps,
            root_oid=self.first_oid,
            first_oid=self.first_oid,
            oid_pid=self.pids,
            oid_parent=self.parents,
            oid_rank=self.ranks,
            strings=group_rows(self.string_pids, self.string_oids, self.values),
        )


def shred_xml(
    text: str, first_oid: int = 0, keep_whitespace: bool = False
) -> MonetXML:
    """``monet_transform(parse_document(text, first_oid,
    keep_whitespace))``, errors included, without the node tree."""
    sink = ColumnSink(PathSummary(), first_oid)
    parse_into(text, sink, keep_whitespace)
    return sink.store()


def monet_transform(document: Document) -> MonetXML:
    """Shred a frozen :class:`Document` into a :class:`MonetXML` store.

    A pre-order walk of the node tree feeds a :class:`ColumnSink`, so
    the store's OIDs are the document's.  Deterministic.
    """
    sink = ColumnSink(PathSummary(), document.first_oid)
    stack = [document.root]
    while stack:
        node = stack.pop()
        if node is None:
            sink.close()
            continue
        sink.open(node.label, dict(node.attributes))
        stack.append(None)
        stack.extend(reversed(node.children))
    return sink.store()
