"""A from-scratch XML parser driving a sink of parse events.

The parser handles the XML subset relevant to the paper's workloads:
elements, attributes, character data (including mixed content), CDATA
sections, comments, processing instructions, an (ignored) DOCTYPE, the
five predefined entities and numeric character references.  Namespaces
are treated textually (prefixes stay part of the tag name), matching
the paper's purely label-based model.

The implementation is a hand-written single-pass scanner — no external
dependencies — with precise line/column error reporting.  It drives a
*sink* in document order: ``open(label, attributes)`` per start tag,
``text(value)`` per character data chunk (a ``cdata`` node of Figure 1,
see :mod:`repro.datamodel.document`) and ``close()`` per end tag; a
self-closing tag is an ``open`` and a ``close``.  Whitespace-only text
between elements is dropped by default (``keep_whitespace=False``)
because the paper's bibliographic documents are data-centric.  Two
sinks share the one loop, so they see the same events and errors:
:class:`NodeSink` builds the :class:`~repro.datamodel.node.Node` tree
of :func:`parse_fragment` and :func:`parse_document`, and
:class:`repro.monet.transform.ColumnSink` the store's columns.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .document import CDATA_LABEL, STRING_ATTRIBUTE, Document
from .errors import XMLParseError
from .node import Node

__all__ = ["parse_document", "parse_fragment", "parse_into", "XMLScanner"]

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "quot": '"',
    "apos": "'",
}

_NAME_START_EXTRA = set("_:")

#: A run of name characters: those for which ``str.isalnum()`` holds
#: (exactly ``\w`` but ``_``) and ``_:-.``.
_NAME_CHARS = re.compile(r"[\w:.-]+")


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch in _NAME_START_EXTRA


class XMLScanner:
    """Low-level cursor over the source text with position tracking."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.length = len(text)

    # -- position --------------------------------------------------------
    def location(self, pos: Optional[int] = None) -> Tuple[int, int]:
        """1-based (line, column) of a source offset."""
        if pos is None:
            pos = self.pos
        line = self.text.count("\n", 0, pos) + 1
        last_newline = self.text.rfind("\n", 0, pos)
        column = pos - last_newline
        return line, column

    def error(self, message: str, pos: Optional[int] = None) -> XMLParseError:
        line, column = self.location(pos)
        return XMLParseError(message, line=line, column=column)

    # -- primitives -----------------------------------------------------
    def at_end(self) -> bool:
        return self.pos >= self.length

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < self.length else ""

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def starts_with(self, literal: str) -> bool:
        return self.text.startswith(literal, self.pos)

    def expect(self, literal: str) -> None:
        if not self.starts_with(literal):
            raise self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def skip_whitespace(self) -> None:
        while self.pos < self.length and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def read_until(self, terminator: str) -> str:
        """Consume up to and including ``terminator``; return the body."""
        end = self.text.find(terminator, self.pos)
        if end < 0:
            raise self.error(f"unterminated construct, expected {terminator!r}")
        body = self.text[self.pos:end]
        self.pos = end + len(terminator)
        return body

    def read_name(self) -> str:
        start = self.pos
        match = _NAME_CHARS.match(self.text, start)
        if match is None or not _is_name_start(self.text[start]):
            raise self.error("expected an XML name")
        self.pos = match.end()
        return match.group()


def _decode_entity(scanner: XMLScanner) -> str:
    """Decode one ``&...;`` reference; the cursor sits on the ``&``."""
    start = scanner.pos
    scanner.expect("&")
    body = scanner.read_until(";")
    if not body:
        raise scanner.error("empty entity reference", pos=start)
    if body.startswith("#x") or body.startswith("#X"):
        try:
            return chr(int(body[2:], 16))
        except ValueError:
            raise scanner.error(f"bad character reference &{body};", pos=start)
    if body.startswith("#"):
        try:
            return chr(int(body[1:], 10))
        except ValueError:
            raise scanner.error(f"bad character reference &{body};", pos=start)
    try:
        return _PREDEFINED_ENTITIES[body]
    except KeyError:
        raise scanner.error(f"unknown entity &{body};", pos=start)


def _decode_text(raw: str, scanner: XMLScanner, base: int) -> str:
    """Decode entity references inside a text or attribute-value slice."""
    if "&" not in raw:
        return raw
    sub = XMLScanner(raw)
    # Error positions inside the slice map back to the enclosing text.
    out: List[str] = []
    while not sub.at_end():
        ch = sub.peek()
        if ch == "&":
            sub_start = sub.pos
            try:
                out.append(_decode_entity(sub))
            except XMLParseError as exc:
                raise scanner.error(str(exc).split(" (line")[0], pos=base + sub_start)
        else:
            out.append(ch)
            sub.advance()
    return "".join(out)


class _Parser:
    """Recursive-descent XML parser over an :class:`XMLScanner`."""

    def __init__(self, text: str, keep_whitespace: bool, sink):
        self.scanner = XMLScanner(text)
        self.keep_whitespace = keep_whitespace
        self.sink = sink

    # -- top level -------------------------------------------------------
    def parse(self) -> None:
        """Iterative element parsing with an explicit open-tag stack.

        Documents regularly out-depth Python's recursion limit, so the
        element structure is driven by a loop, not by recursion.
        """
        scanner = self.scanner
        text = scanner.text
        close = self.sink.close
        self._skip_misc()
        if scanner.at_end() or scanner.peek() != "<":
            raise scanner.error("expected a root element")
        stack: List[str] = []
        self._parse_start_tag(stack)
        while stack:
            current = stack[-1]
            start = scanner.pos
            if start >= scanner.length:
                raise scanner.error(f"unterminated element <{current}>")
            if text[start] != "<":
                end = text.find("<", start)
                if end < 0:
                    raise scanner.error(f"unterminated element <{current}>")
                scanner.pos = end
                self._text(_decode_text(text[start:end], scanner, start))
                continue
            marker = text[start + 1 : start + 2]
            if marker == "/":
                scanner.advance(2)
                end_name = scanner.read_name()
                if end_name != current:
                    raise scanner.error(
                        f"mismatched closing tag </{end_name}>, "
                        f"expected </{current}>"
                    )
                scanner.skip_whitespace()
                scanner.expect(">")
                stack.pop()
                close()
            elif marker == "!" and scanner.starts_with("<!--"):
                scanner.advance(4)
                scanner.read_until("-->")
            elif marker == "!" and scanner.starts_with("<![CDATA["):
                scanner.advance(9)
                value = scanner.read_until("]]>")
                self._text(value, decoded=True)
            elif marker == "?":
                scanner.advance(2)
                scanner.read_until("?>")
            else:
                self._parse_start_tag(stack)
        self._skip_misc()
        if not scanner.at_end():
            raise scanner.error("content after the root element")

    def _parse_start_tag(self, stack: List[str]) -> None:
        """Parse ``<name attrs…>`` or ``<name attrs…/>`` into an ``open``
        (and, for a self-closing tag, a ``close``) of the sink; an open
        element's name goes on ``stack``."""
        scanner = self.scanner
        scanner.expect("<")
        label = scanner.read_name()
        attributes = self._parse_attributes()
        scanner.skip_whitespace()
        if scanner.starts_with("/>"):
            scanner.advance(2)
            self.sink.open(label, attributes)
            self.sink.close()
            return
        scanner.expect(">")
        self.sink.open(label, attributes)
        stack.append(label)

    def _skip_misc(self) -> None:
        """Skip whitespace, comments, PIs and DOCTYPE outside elements."""
        scanner = self.scanner
        while True:
            scanner.skip_whitespace()
            if scanner.starts_with("<?"):
                scanner.advance(2)
                scanner.read_until("?>")
            elif scanner.starts_with("<!--"):
                scanner.advance(4)
                scanner.read_until("-->")
            elif scanner.starts_with("<!DOCTYPE"):
                self._skip_doctype()
            else:
                return

    def _skip_doctype(self) -> None:
        """Skip a DOCTYPE declaration, tolerating an internal subset."""
        scanner = self.scanner
        scanner.expect("<!DOCTYPE")
        depth = 1
        while depth > 0:
            if scanner.at_end():
                raise scanner.error("unterminated DOCTYPE")
            ch = scanner.peek()
            if ch == "<":
                depth += 1
            elif ch == ">":
                depth -= 1
            scanner.advance()

    def _parse_attributes(self) -> Dict[str, str]:
        scanner = self.scanner
        attributes: Dict[str, str] = {}
        while True:
            scanner.skip_whitespace()
            ch = scanner.peek()
            if ch in (">", "/") or scanner.at_end():
                return attributes
            name = scanner.read_name()
            scanner.skip_whitespace()
            scanner.expect("=")
            scanner.skip_whitespace()
            quote = scanner.peek()
            if quote not in ("'", '"'):
                raise scanner.error("attribute value must be quoted")
            scanner.advance()
            base = scanner.pos
            raw = scanner.read_until(quote)
            if name in attributes:
                raise scanner.error(f"duplicate attribute {name!r}")
            attributes[name] = _decode_text(raw, scanner, base)

    def _text(self, text: str, decoded: bool = False) -> None:
        if not self.keep_whitespace:
            text = text.strip()
            if not text and not decoded:
                return
        self.sink.text(text)


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
    _Parser(text, keep_whitespace, sink).parse()


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
