"""XML text to parse events, read by the stdlib's expat.

:func:`parse_into` runs :mod:`xml.parsers.expat` (the parser that
:mod:`xml.etree` reads XML with) and drives a *sink* in document
order: ``open(label, attributes)`` per start tag, ``text(value)`` per
run of character data (a ``cdata`` node of Figure 1, see
:mod:`repro.datamodel.document`) and ``close()`` per end tag; a
self-closing tag is an ``open`` and a ``close``.  A text run ends at a
tag, a comment, a processing instruction and a CDATA-section
boundary, so a CDATA section is a run of its own, emitted even when
empty.  By default (``keep_whitespace=False``) text is stripped and
whitespace-only runs outside CDATA sections are dropped, because the
paper's bibliographic documents are data-centric.  Namespaces are
treated textually (prefixes stay part of the tag name), matching the
paper's purely label-based model.  Two sinks share the one parse, so
they see the same events and errors: :class:`NodeSink` builds the
:class:`~repro.datamodel.node.Node` tree of :func:`parse_fragment` and
:func:`parse_document`, and :class:`repro.monet.transform.ColumnSink`
the store's columns.

Entities: the five predefined ones and character references decode;
any other reference is an error, never dropped.  A DOCTYPE is read
(its ``ATTLIST`` defaults apply) but may declare no entity, general or
parameter, and a document with an external subset that is not
``standalone="yes"`` is refused, because expat does not read that
subset and would drop the references it might define.  So no entity
ever expands to markup.  Every error is an :class:`XMLParseError`
carrying expat's message and a 1-based line and column.
"""

from __future__ import annotations

from typing import Dict, List, Optional
from xml.parsers import expat

from .document import CDATA_LABEL, STRING_ATTRIBUTE, Document
from .errors import XMLParseError
from .node import Node

__all__ = ["parse_document", "parse_fragment", "parse_into"]


class NodeSink:
    """The sink that builds the parse's :class:`Node` tree (``root``)."""

    def __init__(self):
        self.root: Optional[Node] = None
        self._open: List[Node] = []

    def open(self, label: str, attributes: Dict[str, str]) -> None:
        node = Node(label, attributes=attributes)
        if self._open:
            self._open[-1].append(node)
        else:
            self.root = node
        self._open.append(node)

    def text(self, value: str) -> None:
        self._open[-1].append(
            Node(CDATA_LABEL, attributes={STRING_ATTRIBUTE: value})
        )

    def close(self) -> None:
        self._open.pop()


def parse_into(text: str, sink, keep_whitespace: bool = False) -> None:
    """Parse XML text, feeding its events to ``sink`` (see module doc).

    Raises :class:`XMLParseError` on malformed input; a sink may have
    seen some events by then.
    """
    parser = expat.ParserCreate()
    parser.buffer_text = True
    pending: List[str] = []  # the text run so far
    open_, emit, close = sink.open, sink.text, sink.close

    def flush(section: bool = False) -> None:
        value = "".join(pending)
        pending.clear()
        if not keep_whitespace:
            value = value.strip()
        if value or section:
            emit(value)

    def start(label: str, attributes: Dict[str, str]) -> None:
        if pending:
            flush()
        open_(label, attributes)

    def end(label: str) -> None:
        if pending:
            flush()
        close()

    def boundary(*_) -> None:
        if pending:
            flush()

    def refuse_entity(name: str, is_parameter: bool, *_) -> None:
        kind = "parameter entity" if is_parameter else "entity"
        raise XMLParseError(
            f"{kind} declarations are not supported: {name}",
            parser.CurrentLineNumber,
            parser.CurrentColumnNumber + 1,
        )

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = pending.append
    parser.StartCdataSectionHandler = boundary
    parser.EndCdataSectionHandler = lambda: flush(section=True)
    parser.CommentHandler = boundary
    parser.ProcessingInstructionHandler = boundary
    parser.EntityDeclHandler = refuse_entity
    parser.NotStandaloneHandler = lambda: 0
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        raise XMLParseError(
            expat.ErrorString(exc.code), exc.lineno, exc.offset + 1
        ) from None


def parse_fragment(text: str, keep_whitespace: bool = False) -> Node:
    """Parse XML text and return the root :class:`Node` (no OIDs yet)."""
    sink = NodeSink()
    parse_into(text, sink, keep_whitespace)
    return sink.root


def parse_document(
    text: str, first_oid: int = 0, keep_whitespace: bool = False
) -> Document:
    """Parse XML text into a frozen :class:`Document`.

    Parameters
    ----------
    text:
        The XML source.
    first_oid:
        OID assigned to the root (the paper's Figure 1 starts at 1).
    keep_whitespace:
        Keep whitespace-only text nodes (off for data-centric XML).
    """
    root = parse_fragment(text, keep_whitespace=keep_whitespace)
    return Document(root, first_oid=first_oid)
