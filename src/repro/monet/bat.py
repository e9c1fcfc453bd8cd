"""Binary Association Tables — the column engine under the meet operator.

The paper implements meet "on top of the Monet XML module within the
Monet database server" and stresses that its algorithms "make heavy use
of the relational operations of the underlying database engine".  This
module is that engine: a small, from-scratch re-creation of Monet's
BAT (Binary Association Table) abstraction with the MIL primitives the
meet algorithms in Figs. 3–5 lean on (see Boncz & Kersten, "MIL
Primitives for Querying a Fragmented World", VLDB J. 1999 — ref. [6]).

A :class:`BAT` is an ordered sequence of (head, tail) pairs.  Heads and
tails are arbitrary hashable Python values (in practice: OIDs, strings
and ints).  Operations never mutate their operands; they return fresh
BATs, which keeps algebraic reasoning (and the property tests) simple.
Hash indexes over head and tail are built lazily and cached.

Naming follows MIL: ``join``, ``semijoin``, ``kdiff``, ``kunion``,
``kintersect``, ``reverse``, ``mirror``, ``mark``, ``uselect``.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

__all__ = ["BAT", "BUN"]

#: A single Binary UNit — one (head, tail) pair.
BUN = Tuple[Any, Any]


class BAT:
    """An immutable-by-convention binary association table.

    Parameters
    ----------
    buns:
        Iterable of (head, tail) pairs.  Order is preserved; duplicates
        are allowed (MIL BATs are bags).
    name:
        Optional relation name (a path, e.g.
        ``bibliography/institute/article@key``).
    """

    __slots__ = ("_heads", "_tails", "name", "_head_index", "_tail_index")

    def __init__(self, buns: Iterable[BUN] = (), name: str = ""):
        heads: List[Any] = []
        tails: List[Any] = []
        for head, tail in buns:
            heads.append(head)
            tails.append(tail)
        self._heads = heads
        self._tails = tails
        self.name = name
        self._head_index: Optional[Dict[Any, List[int]]] = None
        self._tail_index: Optional[Dict[Any, List[int]]] = None

    # -- alternative constructors -------------------------------------
    @classmethod
    def from_columns(
        cls,
        heads: Sequence[Any],
        tails: Sequence[Any],
        name: str = "",
        *,
        copy: bool = True,
    ) -> "BAT":
        """Build from two parallel columns.

        With ``copy=False`` the (list) columns are adopted as-is — the
        caller promises not to mutate them afterwards.  This is the
        relation families' allocation-free path
        (:mod:`repro.monet.relations`); everyone else should keep the
        defensive copy.
        """
        if len(heads) != len(tails):
            raise ValueError("head and tail columns must have equal length")
        bat = cls(name=name)
        bat._heads = list(heads) if copy else heads
        bat._tails = list(tails) if copy else tails
        return bat

    @classmethod
    def singleton(cls, head: Any, tail: Any, name: str = "") -> "BAT":
        return cls(((head, tail),), name=name)

    # -- basic accessors -----------------------------------------------
    @property
    def heads(self) -> Sequence[Any]:
        return self._heads

    @property
    def tails(self) -> Sequence[Any]:
        return self._tails

    def count(self) -> int:
        """MIL ``count``: number of BUNs."""
        return len(self._heads)

    def __len__(self) -> int:
        return len(self._heads)

    def __bool__(self) -> bool:
        return bool(self._heads)

    def __iter__(self) -> Iterator[BUN]:
        return iter(zip(self._heads, self._tails))

    def __eq__(self, other: object) -> bool:
        """Bag equality: same BUN multiset (order-insensitive)."""
        if not isinstance(other, BAT):
            return NotImplemented
        if len(self) != len(other):
            return False
        return sorted(map(repr, self)) == sorted(map(repr, other))

    def __hash__(self):  # pragma: no cover - BATs are not hashable
        raise TypeError("BAT objects are unhashable")

    def __repr__(self) -> str:
        label = self.name or "BAT"
        preview = ", ".join(f"({h!r},{t!r})" for h, t in list(self)[:4])
        suffix = ", ..." if len(self) > 4 else ""
        return f"<{label}[{len(self)}] {preview}{suffix}>"

    # -- indexes --------------------------------------------------------
    def head_index(self) -> Dict[Any, List[int]]:
        """Positions of each head value (lazily built hash index)."""
        if self._head_index is None:
            index: Dict[Any, List[int]] = {}
            for position, head in enumerate(self._heads):
                index.setdefault(head, []).append(position)
            self._head_index = index
        return self._head_index

    def tail_index(self) -> Dict[Any, List[int]]:
        """Positions of each tail value (lazily built hash index)."""
        if self._tail_index is None:
            index: Dict[Any, List[int]] = {}
            for position, tail in enumerate(self._tails):
                index.setdefault(tail, []).append(position)
            self._tail_index = index
        return self._tail_index

    def head_set(self) -> Set[Any]:
        return set(self._heads)

    def tail_set(self) -> Set[Any]:
        return set(self._tails)

    def find(self, head: Any) -> Any:
        """Tail of the first BUN with the given head; the MIL ``find``.

        Raises :class:`KeyError` if absent — this is the "basically a
        hash look-up" the paper uses for ``parent(o)`` in Fig. 3.
        """
        positions = self.head_index().get(head)
        if not positions:
            raise KeyError(head)
        return self._tails[positions[0]]

    def find_all(self, head: Any) -> List[Any]:
        """All tails associated with the given head, in BUN order."""
        positions = self.head_index().get(head, ())
        return [self._tails[p] for p in positions]

    # -- unary structural ops --------------------------------------------
    def reverse(self) -> "BAT":
        """MIL ``reverse``: swap head and tail columns (O(1) data copy)."""
        return BAT.from_columns(self._tails, self._heads, name=self.name)

    def mirror(self) -> "BAT":
        """MIL ``mirror``: (head, head) for every BUN."""
        return BAT.from_columns(self._heads, list(self._heads), name=self.name)

    def mark(self, base: int = 0) -> "BAT":
        """MIL ``mark``: number the BUNs — (head, base+position)."""
        return BAT.from_columns(
            self._heads, list(range(base, base + len(self))), name=self.name
        )

    def copy(self, name: Optional[str] = None) -> "BAT":
        return BAT.from_columns(
            list(self._heads), list(self._tails), name=self.name if name is None else name
        )

    # -- selections ------------------------------------------------------
    def select(self, predicate: Callable[[Any], bool]) -> "BAT":
        """BUNs whose *tail* satisfies the predicate (MIL ``select``)."""
        buns = [
            (head, tail)
            for head, tail in zip(self._heads, self._tails)
            if predicate(tail)
        ]
        return BAT(buns, name=self.name)

    def select_eq(self, value: Any) -> "BAT":
        """BUNs whose tail equals ``value`` (uses the tail hash index)."""
        positions = self.tail_index().get(value, ())
        return BAT(
            ((self._heads[p], self._tails[p]) for p in positions), name=self.name
        )

    def select_range(self, low: Any, high: Any) -> "BAT":
        """BUNs with ``low <= tail <= high``."""
        return self.select(lambda tail: low <= tail <= high)

    def uselect(self, predicate: Callable[[Any], bool]) -> "BAT":
        """Like ``select`` but returns (head, head) — MIL's uselect view."""
        buns = [
            (head, head)
            for head, tail in zip(self._heads, self._tails)
            if predicate(tail)
        ]
        return BAT(buns, name=self.name)

    def select_heads(self, wanted: Set[Any]) -> "BAT":
        """BUNs whose head is contained in ``wanted``."""
        buns = [
            (head, tail)
            for head, tail in zip(self._heads, self._tails)
            if head in wanted
        ]
        return BAT(buns, name=self.name)

    # -- joins -----------------------------------------------------------
    def join(self, other: "BAT") -> "BAT":
        """MIL ``join``: match self.tail with other.head.

        Returns (self.head, other.tail) for every matching pair; the
        inner columns are projected out, "leaving a binary relation —
        association in our terminology" (paper §3.2).  Hash join over
        the smaller build side.
        """
        result: List[BUN] = []
        other_index = other.head_index()
        for head, tail in zip(self._heads, self._tails):
            for position in other_index.get(tail, ()):
                result.append((head, other._tails[position]))
        return BAT(result)

    def semijoin(self, other: "BAT") -> "BAT":
        """MIL ``semijoin``: BUNs of self whose head occurs in other's head."""
        other_heads = other.head_set()
        return self.select_heads(other_heads)

    def antijoin_heads(self, other: "BAT") -> "BAT":
        """BUNs of self whose head does *not* occur in other's head."""
        other_heads = other.head_set()
        buns = [
            (head, tail)
            for head, tail in zip(self._heads, self._tails)
            if head not in other_heads
        ]
        return BAT(buns, name=self.name)

    # -- set operations (k-prefixed: key/head based, as in MIL) ----------
    def kdiff(self, other: "BAT") -> "BAT":
        """BUNs whose head is absent from other's head column."""
        return self.antijoin_heads(other)

    def kunion(self, other: "BAT") -> "BAT":
        """All BUNs of self plus other's BUNs with unseen heads."""
        seen = set(self._heads)
        buns = list(zip(self._heads, self._tails))
        for head, tail in other:
            if head not in seen:
                buns.append((head, tail))
        return BAT(buns, name=self.name)

    def kintersect(self, other: "BAT") -> "BAT":
        """BUNs of self whose head occurs in other's head column."""
        return self.semijoin(other)

    def union_all(self, other: "BAT") -> "BAT":
        """Bag union preserving duplicates (plain append)."""
        return BAT.from_columns(
            list(self._heads) + list(other._heads),
            list(self._tails) + list(other._tails),
            name=self.name,
        )

    # -- duplicate handling ----------------------------------------------
    def kunique(self) -> "BAT":
        """First BUN per distinct head value."""
        seen: Set[Any] = set()
        buns: List[BUN] = []
        for head, tail in zip(self._heads, self._tails):
            if head not in seen:
                seen.add(head)
                buns.append((head, tail))
        return BAT(buns, name=self.name)

    def unique(self) -> "BAT":
        """First occurrence per distinct (head, tail) pair."""
        seen: Set[BUN] = set()
        buns: List[BUN] = []
        for bun in zip(self._heads, self._tails):
            if bun not in seen:
                seen.add(bun)
                buns.append(bun)
        return BAT(buns, name=self.name)

    # -- grouping ----------------------------------------------------------
    def group_by_head(self) -> Dict[Any, List[Any]]:
        """head → list of tails, in BUN order."""
        groups: Dict[Any, List[Any]] = {}
        for head, tail in zip(self._heads, self._tails):
            groups.setdefault(head, []).append(tail)
        return groups

    def histogram(self) -> Dict[Any, int]:
        """head → multiplicity."""
        counts: Dict[Any, int] = {}
        for head in self._heads:
            counts[head] = counts.get(head, 0) + 1
        return counts

    # -- conversions ---------------------------------------------------
    def to_list(self) -> List[BUN]:
        return list(zip(self._heads, self._tails))

    def to_dict(self) -> Dict[Any, Any]:
        """head → first tail (convenience for functional BATs)."""
        result: Dict[Any, Any] = {}
        for head, tail in zip(self._heads, self._tails):
            result.setdefault(head, tail)
        return result
