"""The rooted-tree XML document of Definition 1.

``Document`` wraps a tree of :class:`~repro.datamodel.node.Node` and,
once frozen, assigns depth-first pre-order OIDs (the paper: "the
assignment of OIDs is arbitrary, e.g., depth-first traversal order"),
caches per-node paths, and answers the conceptual-model queries that
the rest of the library builds on: node-by-OID, parent-of, path-of.

The physical counterpart (binary associations partitioned by path) is
produced from a frozen document by
:func:`repro.monet.transform.monet_transform`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from .errors import ModelError, UnknownOIDError
from .node import CDATA_ATTRIBUTE, Node
from .paths import Path

__all__ = ["Document", "CDATA_LABEL", "STRING_ATTRIBUTE", "split_cdata"]

#: Label of materialized character-data nodes (Figure 1 of the paper).
CDATA_LABEL = "cdata"

#: Attribute name carrying the value of a cdata node; the Monet
#: transform turns it into the ``.../cdata@string`` relations of Fig. 2.
STRING_ATTRIBUTE = "string"


def split_cdata(label: str, attributes: Dict[str, str]) -> Optional[str]:
    """The cdata normalization of one node, applied to ``attributes``.

    Definition 1 models character data as a special ``cdata``
    attribute; the paper's Figures 1 and 2 materialize it as a ``cdata``
    *node* carrying it as ``string`` (relation ``.../cdata@string``).
    A ``cdata`` node keeps the popped value as ``string``; any other
    node gets it back, for a new ``cdata`` child after its children.
    """
    value = attributes.pop(CDATA_ATTRIBUTE, None)
    if value is not None and label == CDATA_LABEL:
        attributes[STRING_ATTRIBUTE] = value
        return None
    return value


class Document:
    """A frozen XML document: rooted, ordered, labelled tree with OIDs.

    Build the tree with :class:`~repro.datamodel.node.Node` /
    :mod:`~repro.datamodel.builder`, then construct a ``Document`` from
    the root.  Construction *freezes* the tree: OIDs are assigned in
    depth-first pre-order starting at ``first_oid`` and structural
    indexes are built.  Mutating the tree afterwards is undefined
    behaviour.
    """

    def __init__(self, root: Node, first_oid: int = 0):
        if root.parent is not None:
            raise ModelError("document root must not have a parent")
        self.root = root
        self.first_oid = first_oid
        self._nodes: List[Node] = []
        self._paths: List[Path] = []
        self._normalize_cdata()
        self._freeze()

    # -- construction ----------------------------------------------------
    def _normalize_cdata(self) -> None:
        """Materialize ``cdata`` attributes as explicit ``cdata`` nodes
        (:func:`split_cdata`), so a single uniform transform rule
        reproduces Figure 2 exactly.  Idempotent."""
        for node in list(self.root.iter_preorder()):
            value = split_cdata(node.label, node.attributes)
            if value is not None:
                node.append(
                    Node(CDATA_LABEL, attributes={STRING_ATTRIBUTE: value})
                )

    def _freeze(self) -> None:
        """Assign pre-order OIDs and compute π(o) for every node."""
        oid = self.first_oid
        stack: List[tuple[Node, Path]] = [(self.root, Path.root(self.root.label))]
        while stack:
            node, path = stack.pop()
            node.oid = oid
            oid += 1
            self._nodes.append(node)
            self._paths.append(path)
            for child in reversed(node.children):
                stack.append((child, path.child(child.label)))

    # -- size ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def last_oid(self) -> int:
        return self.first_oid + len(self._nodes) - 1

    # -- lookups -----------------------------------------------------------
    def node(self, oid: int) -> Node:
        """The node with the given OID.

        Raises :class:`~repro.datamodel.errors.UnknownOIDError` for OIDs
        outside the document.
        """
        index = oid - self.first_oid
        if 0 <= index < len(self._nodes):
            return self._nodes[index]
        raise UnknownOIDError(oid)

    def __contains__(self, oid: object) -> bool:
        if not isinstance(oid, int):
            return False
        return self.first_oid <= oid <= self.last_oid

    def path(self, oid: int) -> Path:
        """π(o): the label path from the root to the node (Def. 3)."""
        index = oid - self.first_oid
        if 0 <= index < len(self._paths):
            return self._paths[index]
        raise UnknownOIDError(oid)

    def parent_oid(self, oid: int) -> Optional[int]:
        """OID of the parent node, or ``None`` for the root."""
        parent = self.node(oid).parent
        return None if parent is None else parent.oid

    def depth(self, oid: int) -> int:
        """Depth of a node = length of its path; the root has depth 1."""
        return len(self.path(oid))

    # -- traversal ---------------------------------------------------------
    def iter_nodes(self) -> Iterator[Node]:
        """All nodes in document (pre-)order."""
        return iter(self._nodes)

    def iter_oids(self) -> Iterator[int]:
        return iter(range(self.first_oid, self.first_oid + len(self._nodes)))

    def nodes_with_label(self, label: str) -> List[Node]:
        return [node for node in self._nodes if node.label == label]

    def nodes_on_path(self, path: Path) -> List[Node]:
        """All nodes whose π equals the given path, in document order."""
        return [
            node
            for node, node_path in zip(self._nodes, self._paths)
            if node_path == path
        ]

    # -- conceptual-model helpers -----------------------------------------
    def ancestry(self, oid: int) -> List[int]:
        """OIDs from the node up to the root, inclusive (instance path)."""
        chain = [oid]
        node = self.node(oid)
        for ancestor in node.iter_ancestors():
            chain.append(ancestor.oid)
        return chain

    def is_ancestor(self, ancestor_oid: int, descendant_oid: int) -> bool:
        """``True`` iff the first node lies on the root path of the second.

        A node is considered its own ancestor (matches the reflexive
        prefix order of Def. 5).
        """
        node: Optional[Node] = self.node(descendant_oid)
        while node is not None:
            if node.oid == ancestor_oid:
                return True
            node = node.parent
        return False

    def document_order(self, oid: int) -> int:
        """Position of a node in document order (== OID offset here)."""
        if oid not in self:
            raise UnknownOIDError(oid)
        return oid - self.first_oid

    def path_summary_counts(self) -> Dict[Path, int]:
        """How many instance nodes sit on each distinct path."""
        counts: Dict[Path, int] = {}
        for path in self._paths:
            counts[path] = counts.get(path, 0) + 1
        return counts

    def distinct_paths(self) -> List[Path]:
        """The document's path summary, in first-appearance order."""
        seen: Dict[Path, None] = {}
        for path in self._paths:
            seen.setdefault(path)
        return list(seen)

    def __repr__(self) -> str:
        return (
            f"<Document root={self.root.label!r} nodes={len(self._nodes)} "
            f"oids=[{self.first_oid}..{self.last_oid}]>"
        )
