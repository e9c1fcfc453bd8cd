"""The path summary: interned paths forming the schema tree.

"The set of all paths in a document is called its path summary"
(Def. 3).  For the meet algorithms the summary is the *schema tree*
that Fig. 5 rolls up bottom-up, and it is also what makes the ⪯ prefix
tests of Fig. 3 cheap: every distinct path is interned once to a small
integer *pid* with a parent pointer, so prefix comparisons walk interned
ids instead of label sequences.

The paper assumes "for a given node with OID o we assume that we can
derive π(o) given an OID o" — the engine realizes that with an
OID → pid column; this class supplies the pid side.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..datamodel.errors import UnknownPathError
from ..datamodel.paths import ATTRIBUTE, Path

__all__ = ["PathSummary", "ColumnarPathSummary"]


class PathSummary:
    """Interning table for paths; doubles as the schema tree.

    pid 0 is reserved for the empty path (the virtual parent of
    document roots), so every real path has a parent pid and the schema
    tree is rooted.
    """

    def __init__(self):
        empty = Path()
        self._paths: List[Path] = [empty]
        self._pids: Dict[Path, int] = {empty: 0}
        self._parents: List[int] = [0]
        self._depths: List[int] = [0]
        self._children: List[List[int]] = [[]]

    # -- interning ---------------------------------------------------------
    def intern(self, path: Path) -> int:
        """Return the pid for ``path``, interning it (and its prefixes)."""
        pid = self._pids.get(path)
        if pid is not None:
            return pid
        if path.is_empty():
            return 0
        parent_pid = self.intern(path.parent())
        pid = len(self._paths)
        self._paths.append(path)
        self._pids[path] = pid
        self._parents.append(parent_pid)
        self._depths.append(len(path))
        self._adopt(parent_pid, pid)
        return pid

    def _adopt(self, parent_pid: int, pid: int) -> None:
        """Record the newly interned ``pid`` as a child of its parent."""
        self._children.append([])
        self._children[parent_pid].append(pid)

    def pid(self, path: Path) -> int:
        """The pid of an already-interned path.

        Raises :class:`UnknownPathError` if the path was never interned.
        """
        try:
            return self._pids[path]
        except KeyError:
            raise UnknownPathError(path) from None

    def maybe_pid(self, path: Path) -> Optional[int]:
        return self._pids.get(path)

    def __contains__(self, path: object) -> bool:
        return isinstance(path, Path) and path in self._pids

    # -- accessors -----------------------------------------------------
    def path(self, pid: int) -> Path:
        return self._paths[pid]

    def parent(self, pid: int) -> int:
        """Parent pid; the empty path (pid 0) is its own parent."""
        return self._parents[pid]

    def depth(self, pid: int) -> int:
        return self._depths[pid]

    def children(self, pid: int) -> Tuple[int, ...]:
        return tuple(self._children[pid])

    def label(self, pid: int) -> str:
        path = self._paths[pid]
        return path.last.label if not path.is_empty() else ""

    def is_attribute(self, pid: int) -> bool:
        path = self._paths[pid]
        return not path.is_empty() and path.last.kind == ATTRIBUTE

    def __len__(self) -> int:
        return len(self._paths)

    def pids(self) -> Iterator[int]:
        """All real pids (excluding the reserved empty path)."""
        return iter(range(1, len(self._paths)))

    def all_paths(self) -> List[Path]:
        return self._paths[1:]

    # -- order & prefix machinery -------------------------------------
    def prefix_leq(self, pid1: int, pid2: int) -> bool:
        """The paper's ⪯ on pids: path(pid2) is a prefix of path(pid1).

        Walks parent pointers from the deeper pid; O(depth difference).
        """
        depth1, depth2 = self._depths[pid1], self._depths[pid2]
        if depth1 < depth2:
            return False
        while depth1 > depth2:
            pid1 = self._parents[pid1]
            depth1 -= 1
        return pid1 == pid2

    def common_prefix(self, pid1: int, pid2: int) -> int:
        """pid of the longest common prefix of two interned paths."""
        depth1, depth2 = self._depths[pid1], self._depths[pid2]
        while depth1 > depth2:
            pid1 = self._parents[pid1]
            depth1 -= 1
        while depth2 > depth1:
            pid2 = self._parents[pid2]
            depth2 -= 1
        while pid1 != pid2:
            pid1 = self._parents[pid1]
            pid2 = self._parents[pid2]
        return pid1

    # -- schema-tree traversals (for Fig. 5's roll-up) -------------------
    def pids_by_depth_desc(self) -> List[int]:
        """All real pids ordered from deepest to shallowest."""
        return sorted(self.pids(), key=lambda pid: -self._depths[pid])

    def postorder(self) -> List[int]:
        """Real pids in post-order (children before parents).

        This is the "pick a node all of whose children are leaves"
        contraction order of Fig. 5 flattened into a sequence.
        """
        order: List[int] = []
        stack: List[Tuple[int, bool]] = [(0, False)]
        while stack:
            pid, expanded = stack.pop()
            if expanded:
                if pid != 0:
                    order.append(pid)
                continue
            stack.append((pid, True))
            for child in reversed(self.children(pid)):
                stack.append((child, False))
        return order

    def element_pids(self) -> List[int]:
        """pids of element (non-attribute) paths."""
        return [pid for pid in self.pids() if not self.is_attribute(pid)]

    def attribute_pids(self) -> List[int]:
        """pids of attribute paths (string-valued leaves of the schema)."""
        return [pid for pid in self.pids() if self.is_attribute(pid)]

    def __repr__(self) -> str:
        return f"<PathSummary paths={len(self._paths) - 1}>"


class ColumnarPathSummary(PathSummary):
    """A summary rebound from flat parent/label/kind columns.

    The snapshot loader's summary: everything the meet machinery
    touches per query — parent pids, depths, children, labels, the ⪯
    walks — answers straight from the columns, so loading is O(columns)
    with **zero** :class:`~repro.datamodel.paths.Path` constructions.
    Path objects materialize lazily (memoized, sharing ancestor
    prefixes), and the first *path-keyed* operation (``pid()``,
    ``intern()``, ``in``) pays a one-off full materialization of the
    path → pid dictionary.

    Children are two flat columns (per-pid offsets into one child-pid
    column, both in pid order) rather than a list per pid: a summary
    of 100k paths then adds two objects to what the cyclic collector
    walks on every full pass, not 100k.  Pids interned after the load
    are larger than every loaded pid, so they go to a small overflow
    dict and still come out last.
    """

    def __init__(
        self,
        parents: Sequence[int],
        labels: Sequence[str],
        kinds: Sequence[int],
    ):
        count = len(parents) + 1
        if not len(labels) == len(kinds) == count - 1:
            raise ValueError("summary columns disagree in length")
        parent_column: List[int] = [0]
        parent_column.extend(parents)
        label_column: List[str] = [""]
        label_column.extend(labels)
        attr_flags: List[bool] = [False]
        attr_flags.extend(bool(kind) for kind in kinds)
        depths = [0] * count
        child_counts = [0] * count
        for pid in range(1, count):
            parent = parent_column[pid]
            if not 0 <= parent < pid:
                raise ValueError(
                    f"summary parent {parent} out of order at pid {pid}"
                )
            depths[pid] = depths[parent] + 1
            child_counts[parent] += 1
        self._parents = parent_column
        self._labels = label_column
        self._attr_flags = attr_flags
        self._depths = depths
        # The children of ``pid`` are
        # _child_pids[_child_offsets[pid]:_child_offsets[pid + 1]]; the
        # stable sort by parent keeps every run in pid order.
        self._child_offsets = array("q", accumulate(child_counts, initial=0))
        self._child_pids = array(
            "q", sorted(range(1, count), key=parent_column.__getitem__)
        )
        self._late_children: Dict[int, List[int]] = {}
        empty = Path()
        self._paths = [empty] + [None] * (count - 1)  # type: ignore[list-item]
        self._pids = {empty: 0}
        #: Paths below this pid are present in ``_pids``.
        self._indexed_upto = 1

    # -- lazy materialization -------------------------------------------
    def path(self, pid: int) -> Path:
        cached = self._paths[pid]
        if cached is None:
            cached = self._materialize(pid)
        return cached

    def _materialize(self, pid: int) -> Path:
        paths = self._paths
        parents = self._parents
        chain: List[int] = []
        current = pid
        while paths[current] is None:
            chain.append(current)
            current = parents[current]
        path = paths[current]
        for current in reversed(chain):
            if self._attr_flags[current]:
                path = path.attribute(self._labels[current])
            else:
                path = path.child(self._labels[current])
            paths[current] = path
        return path

    def _ensure_index(self) -> None:
        count = len(self._paths)
        if self._indexed_upto >= count:
            return
        pids = self._pids
        for pid in range(self._indexed_upto, count):
            pids[self.path(pid)] = pid
        self._indexed_upto = count

    # -- children -------------------------------------------------------
    def children(self, pid: int) -> Tuple[int, ...]:
        late = self._late_children.get(pid, ())
        offsets = self._child_offsets
        if pid + 1 >= len(offsets):  # interned after the load
            return tuple(late)
        return (*self._child_pids[offsets[pid]:offsets[pid + 1]], *late)

    def _adopt(self, parent_pid: int, pid: int) -> None:
        self._late_children.setdefault(parent_pid, []).append(pid)

    # -- overrides touching lazy state ----------------------------------
    def label(self, pid: int) -> str:
        return self._labels[pid]

    def is_attribute(self, pid: int) -> bool:
        return self._attr_flags[pid]

    def all_paths(self) -> List[Path]:
        return [self.path(pid) for pid in self.pids()]

    def pid(self, path: Path) -> int:
        self._ensure_index()
        return super().pid(path)

    def maybe_pid(self, path: Path) -> Optional[int]:
        self._ensure_index()
        return super().maybe_pid(path)

    def __contains__(self, path: object) -> bool:
        self._ensure_index()
        return super().__contains__(path)

    def intern(self, path: Path) -> int:
        self._ensure_index()
        pid = super().intern(path)
        # ``intern`` may have appended this path plus missing prefixes,
        # and it recurses through *this* override for each prefix — so
        # sync the label/kind columns against their own length (inner
        # frames have already covered theirs), never a captured start.
        for new_pid in range(len(self._labels), len(self._paths)):
            step = self._paths[new_pid].last
            self._labels.append(step.label)
            self._attr_flags.append(step.kind == ATTRIBUTE)
        self._indexed_upto = len(self._paths)
        return pid
