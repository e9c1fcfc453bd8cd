"""The path summary: interned paths forming the schema tree.

"The set of all paths in a document is called its path summary"
(Def. 3).  For the meet algorithms the summary is the *schema tree*
that Fig. 5 rolls up bottom-up, and it is also what makes the ⪯ prefix
tests of Fig. 3 cheap: every distinct path is interned once to a small
integer *pid* with a parent pointer, so prefix comparisons walk interned
ids instead of label sequences.

The paper assumes "for a given node with OID o we assume that we can
derive π(o) given an OID o" — the engine realizes that with an
OID → pid column; this class supplies the pid side.  A pid is interned
by its *step* — (parent pid, label, is-attribute) — so the shredders of
:mod:`repro.monet.transform` and :mod:`repro.monet.mutate` name every
node's pid from its parent's without building a
:class:`~repro.datamodel.paths.Path`.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..datamodel.errors import UnknownPathError
from ..datamodel.paths import ATTRIBUTE, Path

__all__ = ["PathSummary"]


class PathSummary:
    """Interned paths as flat parent/label/kind columns; doubles as the
    schema tree.

    pid 0 is reserved for the empty path (the virtual parent of
    document roots), so every real path has a parent pid and the schema
    tree is rooted.  The snapshot loader rebinds a summary from its
    three columns (``parents``, ``labels``, ``kinds`` of the real pids,
    in pid order); everything the meet machinery touches per query —
    parent pids, depths, children, labels, the ⪯ walks — answers
    straight from the columns, so loading is O(columns) with **zero**
    :class:`~repro.datamodel.paths.Path` constructions.  Path objects
    materialize lazily (memoized, sharing ancestor prefixes);
    path-keyed look-ups walk the path's steps.

    Children are two flat columns (per-pid offsets into one child-pid
    column, both in pid order) rather than a list per pid: a summary
    of 100k paths then adds two objects to what the cyclic collector
    walks on every full pass, not 100k.  Pids interned after the
    columns were bound are larger than every bound pid, so they go to a
    small overflow dict and still come out last.  The step → pid index
    is filled one parent at a time, when a step below it is first
    looked up.
    """

    def __init__(
        self,
        parents: Sequence[int] = (),
        labels: Sequence[str] = (),
        kinds: Sequence[int] = (),
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
        self._paths: List[Optional[Path]] = [Path()] + [None] * (count - 1)
        #: (parent pid, label, is-attribute) → pid, for the parents
        #: whose flag in ``_stepped`` is set.
        self._steps: Dict[Tuple[int, str, bool], int] = {}
        self._stepped = bytearray(count)

    # -- interning ---------------------------------------------------------
    def find_step(
        self, parent: int, label: str, is_attribute: bool
    ) -> Optional[int]:
        """The pid of one step below ``parent``, or ``None``."""
        if not self._stepped[parent]:
            self._stepped[parent] = 1
            labels, flags = self._labels, self._attr_flags
            for child in self.children(parent):
                self._steps[(parent, labels[child], flags[child])] = child
        return self._steps.get((parent, label, is_attribute))

    def intern_step(self, parent: int, label: str, is_attribute: bool) -> int:
        """The pid of one step below ``parent``, interning it if new."""
        pid = self._steps.get((parent, label, is_attribute))
        if pid is None:
            pid = self.find_step(parent, label, is_attribute)
            if pid is None:
                pid = len(self._parents)
                self._parents.append(parent)
                self._labels.append(label)
                self._attr_flags.append(is_attribute)
                self._depths.append(self._depths[parent] + 1)
                self._paths.append(None)
                self._stepped.append(1)
                self._steps[(parent, label, is_attribute)] = pid
                self._late_children.setdefault(parent, []).append(pid)
        return pid

    def intern(self, path: Path) -> int:
        """Return the pid for ``path``, interning it (and its prefixes)."""
        pid = 0
        for step in path:
            pid = self.intern_step(pid, step.label, step.kind == ATTRIBUTE)
        return pid

    def maybe_pid(self, path: Path) -> Optional[int]:
        pid: Optional[int] = 0
        for step in path:
            pid = self.find_step(pid, step.label, step.kind == ATTRIBUTE)
            if pid is None:
                return None
        return pid

    def pid(self, path: Path) -> int:
        """The pid of an already-interned path.

        Raises :class:`UnknownPathError` if the path was never interned.
        """
        pid = self.maybe_pid(path)
        if pid is None:
            raise UnknownPathError(path)
        return pid

    def __contains__(self, path: object) -> bool:
        return isinstance(path, Path) and self.maybe_pid(path) is not None

    # -- accessors -----------------------------------------------------
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

    def parent(self, pid: int) -> int:
        """Parent pid; the empty path (pid 0) is its own parent."""
        return self._parents[pid]

    def depth(self, pid: int) -> int:
        return self._depths[pid]

    def children(self, pid: int) -> Tuple[int, ...]:
        late = self._late_children.get(pid, ())
        offsets = self._child_offsets
        if pid + 1 >= len(offsets):  # interned after the columns
            return tuple(late)
        return (*self._child_pids[offsets[pid]:offsets[pid + 1]], *late)

    def label(self, pid: int) -> str:
        return self._labels[pid]

    def is_attribute(self, pid: int) -> bool:
        return self._attr_flags[pid]

    def __len__(self) -> int:
        return len(self._parents)

    def pids(self) -> Iterator[int]:
        """All real pids (excluding the reserved empty path)."""
        return iter(range(1, len(self._parents)))

    def all_paths(self) -> List[Path]:
        return [self.path(pid) for pid in self.pids()]

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
