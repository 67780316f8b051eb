"""Immutable bipartite graphs in CSR form, with modular-degree checks.

Vertex ids are dense 0-based integers: ids ``0..n1-1`` form side 1 and ids
``n1..n1+n2-1`` form side 2.  A graph stores its adjacency as two read-only
NumPy ``int64`` arrays in compressed sparse row form: the neighbours of ``v``
are ``indices[indptr[v]:indptr[v+1]]``, in ascending order, so memory is
O(n + E) and a degree count into a vertex set is one vectorized O(E) pass.
Building it from an edge list sorts one E-length key buffer, unless its
keys already come strictly ascending, and writes the CSR in place, never
into the caller's array, so a build's working memory is little more than
its input and its output.
A :class:`VertexSet` is a read-only NumPy bool mask of length n, the
graph's vertex count, so a degree query reads a subset's membership of
each CSR entry with one gather, and a pool's ids are the mask's nonzero
positions.  Every set carries its n: sets over different n do not mix,
and ids outside [0, n) are refused when a set is built.

This module alone knows both formats.  The rest of the package works through
:class:`VertexSet` operations, :meth:`BipartiteGraph.neighbor_ids` (one row
as a list), :meth:`BipartiteGraph.neighbor_rows` (the rows of an id array,
gathered as CSR offsets into one flat ``int64`` array), three readers that
return ``int64`` arrays aligned with a pool's ids, and
:meth:`BipartiteGraph.edges_between`.
:meth:`BipartiteGraph.edges_between` reads the edges between two sets once,
as an :class:`Incidence` that counts degrees between their subsets without
reading a row again.  Every edge between two sets lies in the rows of
either set, so it gathers the rows of whichever set's members hold fewer
entries.  :meth:`BipartiteGraph.degrees_into`, each member's neighbour
count in a subset, reads through it; :func:`verify_residue` reads a
subset's induced edges the same way, from the rows of whichever side's
members hold fewer entries.
:meth:`BipartiteGraph.last_neighbors` reads the rows from the pool's first
member to its last, for each member's neighbour count in a subset and its
largest neighbour there.
:meth:`BipartiteGraph.neighbors_within` gathers the members' rows alone, for
their neighbours in a subset as CSR offsets into one flat array.

A labeled document that is plain ASCII digits, blanks, comments and "\\n"
or "\\r\\n" line ends, which is every document ``moddeg gen`` writes, is
read one block of whole lines at a time, by C-level ``bytes`` scans and one
NumPy pass over the positions of the block's blank bytes (its line ends are
gathered by intp positions, then narrowed to int32), and each block's edges
go straight into the one key buffer that the CSR is built from.  Any
other document, and any document with an error, is read line by line, and
that reading names the first bad line.  A permissive document is read
line by line and 2-coloured by array component labels.
"""

from __future__ import annotations

import operator
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator

import numpy as np


class GraphError(ValueError):
    """Invalid graph input: bad format, bad structure, or failed validation."""


class NotBipartiteError(GraphError):
    """The input admits no two-sided structure (odd cycle or self-loop)."""


class IsolatedVertexError(GraphError):
    """A vertex with no incident edge; all algorithms here require degree >= 1."""


class DuplicateEdgeWarning(UserWarning):
    """An edge appeared more than once in the input and was deduplicated."""


class VertexSet:
    """A set of vertex ids of one n-vertex graph, held as a read-only NumPy
    bool mask of length n.

    Treated as immutable: every operation returns a new set.  Sets over
    different n do not mix: set algebra between them raises ``ValueError``.
    """

    __slots__ = ("mask",)

    def __init__(self, mask: np.ndarray):
        """The set of the ``True`` entries of the 1-D bool array ``mask``;
        the set keeps ``mask`` and makes it read-only."""
        if not isinstance(mask, np.ndarray) or mask.dtype != bool or mask.ndim != 1:
            raise TypeError("a vertex set's mask must be a 1-D bool array")
        mask.setflags(write=False)
        self.mask = mask

    @classmethod
    def from_ids(cls, ids: Iterable[int], n: int) -> "VertexSet":
        """The set of ``ids`` among n vertices, given as any iterable of
        ints (bools are 1 and 0), an integer array among them, which is
        iterated; raises ``ValueError`` naming the first id outside [0, n)."""
        ids = list(ids)
        low, high = (min(ids), max(ids)) if ids else (0, -1)
        if low < 0 or high >= n:
            bad = next(v for v in ids if not 0 <= v < n)
            raise ValueError(f"vertex id {bad} outside [0, {n})")
        index = np.asarray(ids) if ids else np.empty(0, dtype=np.int64)
        mask = np.zeros(n, dtype=bool)
        # a bool index would read as a mask; a float one raises IndexError
        mask[index.view(np.uint8) if index.dtype == bool else index] = True
        return cls(mask)

    def _other(self, other: "VertexSet") -> np.ndarray:
        if other.mask.size != self.mask.size:
            raise ValueError(
                f"vertex sets over {self.mask.size} and {other.mask.size} vertices"
            )
        return other.mask

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __bool__(self) -> bool:
        return bool(np.count_nonzero(self.mask))

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.mask.size and bool(self.mask[v])

    def __iter__(self) -> Iterator[int]:
        """Yield member ids in ascending order."""
        return iter(self.ids())

    def __or__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.mask | self._other(other))

    def __and__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.mask & self._other(other))

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.mask & ~self._other(other))

    def __le__(self, other: "VertexSet") -> bool:
        return not np.count_nonzero(self.mask & ~self._other(other))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.mask.size == other.mask.size
            and np.array_equal(self.mask, other.mask)
        )

    def __hash__(self) -> int:
        return hash(self.mask.tobytes())

    def isdisjoint(self, other: "VertexSet") -> bool:
        return not np.count_nonzero(self.mask & self._other(other))

    def select(self, keep: np.ndarray) -> "VertexSet":
        """The members at the positions, in ascending id order, where the
        bool array ``keep`` (one entry per member) is true."""
        mask = np.zeros(self.mask.size, dtype=bool)
        mask[self.mask.nonzero()[0][keep]] = True
        return VertexSet(mask)

    def contains_each(self, ids: np.ndarray) -> np.ndarray:
        """Whether each of ``ids``, an integer array of ids in [0, n), is a
        member, as a bool array aligned with ``ids``."""
        return self.mask[ids]

    def ids(self) -> list[int]:
        """Member ids in ascending order."""
        return self.mask.nonzero()[0].tolist()

    def __repr__(self) -> str:
        return f"VertexSet({self.ids()!r}, n={self.mask.size})"


@dataclass(frozen=True)
class ResidueSpec:
    """A target congruence: induced degrees must be ``residue`` mod ``modulus``."""

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            raise ValueError(
                f"residue must lie in [0, {self.modulus}), got {self.residue}"
            )


@dataclass(frozen=True)
class ResidueCheck:
    """Outcome of a residue verification; truthy iff every vertex passed."""

    ok: bool
    witness: int | None = None
    witness_residue: int | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """A bipartite graph, immutable after construction.

    ``adj`` is the CSR pair ``(indptr, indices)`` of read-only ``int64``
    arrays: ``indptr`` has n+1 entries and ``indices`` 2E, and the neighbours
    of ``v`` are ``indices[indptr[v]:indptr[v+1]]`` in ascending order, all
    on the opposite side.  Graphs compare and hash by their sides and edge
    set.  Build instances through :meth:`from_edges`, :func:`parse_graph`, or
    the generators module so validation always runs.
    """

    n1: int
    n2: int
    adj: tuple[np.ndarray, np.ndarray]

    @classmethod
    def from_edges(
        cls,
        n1: int,
        n2: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
    ) -> "BipartiteGraph":
        """Validate and build a graph from (side-1 id, side-2 id) pairs, or
        from an ``(E, 2)`` integer array with one edge per row.

        Edges may be given in either endpoint order.  Duplicates are dropped
        with a :class:`DuplicateEdgeWarning`.  Raises if any edge fails to
        cross sides or any vertex ends up isolated; an invalid edge is
        reported as the first one in input order.

        Working memory: besides the two endpoint columns (views of an
        ``int64`` array, else one ``int64`` copy of the input) and the CSR
        it returns, the build holds one E-length ``int64`` key buffer, a
        second one only until the keys are formed, and a few bool and
        n-length arrays.  It never writes into the caller's array.  The
        keys are sorted, unless already strictly ascending, and turned into
        the CSR by :meth:`_from_keys`, which :func:`parse_graph` feeds the
        keys it reads directly.
        """
        if n1 < 1 or n2 < 1:
            raise GraphError(f"both sides must be non-empty, got n1={n1}, n2={n2}")
        n = n1 + n2
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
            ids = map(operator.index, chain.from_iterable(edges))
            try:
                flat = np.fromiter(ids, dtype=np.int64)
            except OverflowError:
                raise GraphError(f"edge ids out of range for {n} vertices") from None
            except TypeError:  # a float id, say, which int64 would truncate
                raise GraphError("edges must be pairs of integer vertex ids") from None
            if len(flat) != 2 * len(edges):
                raise GraphError("edges must be pairs of vertex ids")
            edges = flat.reshape(-1, 2)
        if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind != "i":
            raise GraphError("edges must be pairs of signed integer vertex ids")
        # views of an int64 input: only ever read
        a, b = edges.astype(np.int64, copy=False).T
        key, right = np.minimum(a, b), np.maximum(a, b)
        right -= n1
        # as unsigned, a negative end lies beyond every side
        bad = key.view(np.uint64) >= n1
        bad |= right.view(np.uint64) >= n2
        if bad.any():
            i = int(bad.argmax())
            lo, hi = sorted((int(a[i]), int(b[i])))
            if lo < 0 or hi >= n:
                raise GraphError(f"edge ({a[i]}, {b[i]}) out of range for {n} vertices")
            raise GraphError(f"edge ({lo}, {hi}) does not join side 1 to side 2")
        del bad
        # one key per edge, ordered by (side-1 end, side-2 end)
        key *= n2
        key += right
        del right  # freed before the CSR is allocated, to bound the peak
        return cls._from_keys(n1, n2, key)

    @classmethod
    def _from_keys(cls, n1: int, n2: int, key: np.ndarray) -> "BipartiteGraph":
        """The graph of the edges ``key // n2``–``n1 + key % n2``, for an
        ``int64`` array ``key`` of values in [0, n1·n2) that the build sorts
        and reuses in place.  Duplicates are dropped with a
        :class:`DuplicateEdgeWarning`; raises if a vertex is isolated.
        Strictly ascending keys are sorted and distinct already, so they
        skip the sort and the dedup: one comparison pass tells."""
        n = n1 + n2
        fresh = np.ones(len(key), dtype=bool)
        np.greater(key[1:], key[:-1], out=fresh[1:])
        if not fresh.all():  # not strictly ascending
            key.sort()
            np.not_equal(key[1:], key[:-1], out=fresh[1:])
        duplicates = len(key) - int(np.count_nonzero(fresh))
        if duplicates:
            _warn_outside(
                f"deduplicated {duplicates} repeated edge(s)", DuplicateEdgeWarning
            )
            key = key[fresh]
        del fresh
        # side-1 rows come sorted with the keys: their side-2 ends go to the
        # first half, and the side-1 ends wait in the second
        m = len(key)
        indices = np.empty(2 * m, dtype=np.int64)
        right, left = indices[:m], indices[m:]
        # a scalar floor division is far faster than divmod or remainder
        np.floor_divide(key, n2, out=left)
        np.multiply(left, n2, out=right)
        np.subtract(key, right, out=right)
        indptr = np.zeros(n + 1, dtype=np.int64)
        degrees = indptr[1:]
        degrees[:n1] = np.bincount(left, minlength=n1)
        degrees[n1:] = np.bincount(right, minlength=n2)
        if not degrees.all():
            v = np.argmin(degrees)
            raise IsolatedVertexError(f"vertex {v} has no incident edge")
        np.cumsum(degrees, out=degrees)
        # side-2 rows need the transposed order, sorted in the key buffer
        np.multiply(right, n1, out=key)
        key += left
        key.sort()
        right += n1
        np.floor_divide(key, n1, out=left)
        left *= n1
        np.subtract(key, left, out=left)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return cls(n1=n1, n2=n2, adj=(indptr, indices))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (self.n1, self.n2) == (other.n1, other.n2) and all(
            np.array_equal(mine, theirs) for mine, theirs in zip(self.adj, other.adj)
        )

    def __hash__(self) -> int:
        indptr, indices = self.adj
        return hash((self.n1, self.n2, indptr.tobytes(), indices.tobytes()))

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @cached_property
    def side1(self) -> VertexSet:
        return VertexSet(np.arange(self.n) < self.n1)

    @cached_property
    def side2(self) -> VertexSet:
        return VertexSet(np.arange(self.n) >= self.n1)

    @cached_property
    def vertices(self) -> VertexSet:
        return VertexSet(np.ones(self.n, dtype=bool))

    def neighbor_ids(self, v: int) -> list[int]:
        """Neighbours of ``v`` in ascending order."""
        indptr, indices = self.adj
        return indices[indptr[v]:indptr[v + 1]].tolist()

    def degrees_into(
        self, pool: VertexSet, subset: VertexSet
    ) -> tuple[np.ndarray, np.ndarray]:
        """The members of ``pool`` in ascending order and each one's
        neighbour count inside ``subset``, as two aligned ``int64`` arrays.
        Reads the rows of whichever set's members hold fewer entries, as
        :meth:`edges_between` does."""
        return self.edges_between(pool, subset).degrees_into(pool)

    def last_neighbors(
        self, pool: VertexSet, subset: VertexSet
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The members of ``pool`` in ascending order, each one's neighbour
        count inside ``subset`` and its largest neighbour inside ``subset``
        (-1 if none), as three aligned ``int64`` arrays.  Where the count is
        1, the largest neighbour is the only one."""
        ids, rows, starts, entries, hits = self._pool_rows(pool, subset)
        counts = np.add.reduceat(hits, starts, dtype=np.int64)[rows]
        members = np.where(hits, entries, -1)
        return ids, counts, np.maximum.reduceat(members, starts)[rows]

    def neighbors_within(
        self, pool: VertexSet, subset: VertexSet
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The members of ``pool`` in ascending order, and their neighbours
        inside ``subset`` in CSR form, as three ``int64`` arrays ``(ids,
        offsets, neighbors)``: the neighbours of ``ids[i]`` inside
        ``subset`` are ``neighbors[offsets[i]:offsets[i + 1]]``, ascending.
        Reads the members' rows only, with one gather."""
        ids = self._own(pool).nonzero()[0]
        return (ids, *self._cut(*self.neighbor_rows(ids), self._own(subset)))

    def neighbor_rows(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``ids``, an integer array of vertex ids, in CSR form,
        as two ``int64`` arrays ``(offsets, neighbors)``: the neighbours of
        ``ids[i]`` are ``neighbors[offsets[i]:offsets[i + 1]]``, ascending.
        Reads those rows only, with one gather."""
        begin, lengths, offsets = self._spans(ids)
        return offsets, self._gather(begin, lengths, offsets)

    def edges_between(self, a: VertexSet, b: VertexSet) -> "Incidence":
        """The edges joining a member of ``a`` to a member of ``b``, read
        once for many degree counts between their subsets.  Reads the rows
        of whichever set's members hold fewer entries, with one gather."""
        in_a, in_b = self._own(a), self._own(b)
        a_ids = in_a.nonzero()[0]
        ids = np.concatenate((a_ids, in_b.nonzero()[0]))
        from_a, near, offsets, far = self._edges_between(ids, len(a_ids), in_a, in_b)
        lengths = offsets[1:] - offsets[:-1]
        if from_a:
            a_ends, b_ends = np.arange(len(a_ids)).repeat(lengths), far
        else:
            position = np.empty(self.n, dtype=np.int64)  # of each id in a_ids
            position[a_ids] = np.arange(len(a_ids))
            a_ends, b_ends = position[far], near.repeat(lengths)
        a_ids.setflags(write=False)
        return Incidence(self, a, b, a_ids, a_ends, b_ends)

    def _edges_between(
        self, ids: np.ndarray, split: int, in_first: np.ndarray, in_second: np.ndarray
    ) -> tuple[bool, np.ndarray, np.ndarray, np.ndarray]:
        """The edges between the ids ``ids[:split]`` and ``ids[split:]``,
        whose members the bool masks ``in_first`` and ``in_second`` mark
        among the entries of the other part's rows.  Every such edge lies in
        the rows of both parts, so this reads the rows of whichever part
        holds fewer entries (the first on a tie), with one gather.  Returns
        ``(first, part, offsets, neighbors)``: whether the part read is the
        first, its ids, and in CSR form each one's neighbours in the other
        part, as :meth:`neighbors_within` gives them."""
        begin, lengths, offsets = self._spans(ids)
        middle = offsets[split]
        first = bool(2 * middle <= offsets[-1])
        if first:
            part, offsets = slice(split), offsets[:split + 1]
        else:
            part, offsets = slice(split, None), offsets[split:] - middle
        entries = self._gather(begin[part], lengths[part], offsets)
        return (first, ids[part], *self._cut(offsets, entries, in_second if first else in_first))

    @staticmethod
    def _cut(
        offsets: np.ndarray, entries: np.ndarray, within: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The rows in CSR form ``(offsets, entries)`` cut to the entries
        that the bool mask ``within`` marks, in the same form."""
        kept = within[entries].nonzero()[0]
        return kept.searchsorted(offsets), entries.take(kept)

    def _spans(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where the rows of ``ids`` begin in ``indices``, their lengths,
        and the CSR offsets of those rows gathered into one array."""
        indptr = self.adj[0]
        begin = indptr[ids]
        lengths = indptr[1:][ids] - begin
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        np.add.accumulate(lengths, out=offsets[1:])  # cumsum(out=) costs twice that
        return begin, lengths, offsets

    def _gather(
        self, begin: np.ndarray, lengths: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """The rows ``indices[begin[i]:begin[i] + lengths[i]]`` gathered
        into one array, each at its offset in the CSR ``offsets``."""
        # an entry's position in indices: its row's begin plus its place in
        # the row, which is its offset here minus the row's
        positions = (begin - offsets[:-1]).repeat(lengths)
        positions += np.arange(offsets[-1])
        return self.adj[1][positions]

    def _own(self, vertex_set: VertexSet) -> np.ndarray:
        """The mask of ``vertex_set``, which must be drawn from this graph's
        n vertices."""
        if vertex_set.mask.size != self.n:
            raise ValueError(
                f"vertex set over {vertex_set.mask.size} vertices used with "
                f"a graph of {self.n}"
            )
        return vertex_set.mask

    def _pool_rows(
        self, pool: VertexSet, subset: VertexSet
    ) -> tuple[np.ndarray, ...]:
        """The members of ``pool`` in ascending order, and the CSR rows from
        the first member to the last: each member's row among them, each
        row's start, the entries, and each entry's membership in
        ``subset``."""
        ids = self._own(pool).nonzero()[0]
        first, stop = (ids[0], ids[-1] + 1) if ids.size else (0, 0)
        indptr, indices = self.adj
        # every row is non-empty (no isolated vertices), as reduceat needs
        bounds = indptr[first:stop + 1]
        entries = indices[bounds[0]:bounds[-1]]
        hits = self._own(subset)[entries]
        return ids, ids - first, bounds[:-1] - bounds[0], entries, hits

    def edge_count(self) -> int:
        return len(self.adj[1]) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (side-1 id, side-2 id), sorted."""
        return list(zip(*(ends.tolist() for ends in self._edge_ends())))

    def _edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The side-1 and the side-2 end of every edge, as two aligned
        arrays in sorted edge order."""
        indptr, indices = self.adj
        side1_rows = indptr[: self.n1 + 1]
        left = np.repeat(np.arange(self.n1), np.diff(side1_rows))
        return left, indices[: side1_rows[-1]]


@dataclass(frozen=True, eq=False)
class Incidence:
    """The edges between two vertex sets ``a`` and ``b`` of one graph, as
    :meth:`BipartiteGraph.edges_between` reads them.

    ``a_ids`` holds the members of ``a`` in ascending order, and edge i
    joins ``a_ids[a_ends[i]]`` to ``b_ends[i]``, a member of ``b``.  The
    edges come in the order of the rows they were read from.
    """

    graph: BipartiteGraph
    a: VertexSet
    b: VertexSet
    a_ids: np.ndarray
    a_ends: np.ndarray
    b_ends: np.ndarray

    def degrees_into(
        self, pool: VertexSet, subset: VertexSet | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The members of ``pool``, a subset of ``a``, in ascending order and
        each one's neighbour count inside ``subset``, a subset of ``b``, or
        in all of ``b`` when ``subset`` is None, as two aligned ``int64``
        arrays.  Counts the edges whose ``b`` end ``subset`` holds, and
        reads no row.
        Raises ``ValueError`` for a ``pool`` outside ``a`` or a ``subset``
        outside ``b``, whose edges were not read."""
        if subset is None:
            counts = self._counts
        else:
            in_subset = self.graph._own(subset)
            if subset is not self.b and not subset <= self.b:
                raise ValueError("subset holds vertices outside the incidence's b")
            ends = self.a_ends.take(in_subset[self.b_ends].nonzero()[0])
            counts = np.bincount(ends, minlength=len(self.a_ids))
        if pool is self.a:  # the set it was read for needs no cut
            return self.a_ids, counts
        members = self.graph._own(pool)[self.a_ids]
        if np.count_nonzero(members) != len(pool):
            raise ValueError("pool holds vertices outside the incidence's a")
        return self.a_ids[members], counts[members]

    @cached_property
    def _counts(self) -> np.ndarray:
        """Each member of ``a``'s neighbour count in ``b``, read-only."""
        counts = np.bincount(self.a_ends, minlength=len(self.a_ids))
        counts.setflags(write=False)
        return counts


def _warn_outside(message: str, category: type[Warning]) -> None:
    """Warn with ``message``, naming the first caller outside this module:
    the caller of the public function that found the fault."""
    frame, level = sys._getframe(1), 2
    while frame.f_code.co_filename == __file__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


def verify_residue(
    graph: BipartiteGraph, subset: VertexSet, spec: ResidueSpec
) -> ResidueCheck:
    """Check that every vertex of ``subset`` has the required induced degree.

    Returns a truthy :class:`ResidueCheck` when ``deg(v) mod modulus ==
    residue`` holds inside the induced subgraph for every member, and
    otherwise reports the smallest offending vertex id with its residue.
    An empty subset passes vacuously.

    Every induced edge joins a side-1 member to a side-2 member, so the
    rows of one side's members hold them all.  The check reads the rows of
    whichever side's members hold fewer entries, with one gather: a row's
    owner counts its entries inside ``subset``, and each such entry counts
    once for the member it names.
    """
    mask = graph._own(subset)
    ids = mask.nonzero()[0]
    split = int(ids.searchsorted(graph.n1))  # the side-1 members come first
    _, near, offsets, far = graph._edges_between(ids, split, mask, mask)
    counts = np.bincount(far, minlength=graph.n)
    counts[near] = offsets[1:] - offsets[:-1]
    counts = counts[ids]
    # every count is below n, so a modulus beyond int64 acts as n does
    residues = counts % min(spec.modulus, graph.n)
    wrong = residues != spec.residue
    if np.count_nonzero(wrong):  # one C call, where .any() goes through Python
        i = int(wrong.argmax())
        return ResidueCheck(
            ok=False, witness=int(ids[i]), witness_residue=int(residues[i])
        )
    return ResidueCheck(ok=True)


# 18 decimal digits always fit int64
_MAX_DIGITS = 18
# the characters a labeled document's scan reads at a time
_BLOCK_CHARS = 1 << 18
_DIGITS_AND_BLANKS = b"0123456789 \t\r\n"
_TEXT = bytes(range(32, 127)) + b"\t\r\n"  # every byte but the control bytes


def _tokenize(text: str) -> np.ndarray | None:
    """The content lines of ``text`` as an ``(L, 2)`` int64 array, or None to
    leave the document to the per-line reading.

    Accepts an ASCII document whose lines end in "\\n" or "\\r\\n" and hold no
    other control byte, in which every line is blank, a comment (first
    non-blank byte ``#``), or two runs of at most 18 digits split by spaces
    or tabs.  Such a line reads as ``int()`` reads it, and a document with no
    such line reads as a ``(0, 2)`` array.  Anything else declines: a
    non-ASCII document, a lone "\\r", a sign, an underscore, any other byte
    outside a comment, or 19 digits or more.

    ``bytes.translate`` finds any byte that is neither a digit nor a blank.
    After the comment lines are cut, one NumPy pass over the positions of the
    blank bytes checks that runs of blanks alternate line end, separator,
    line end, with words of 1 to 18 digits between them.
    """
    if not text.isascii():
        return None
    # a line end before the first line and after the last one
    raw = b"\n" + text.encode("ascii") + (b"" if text.endswith("\n") else b"\n")
    if b"\r" in raw:
        data = np.frombuffer(raw, dtype=np.uint8)
        if (data[np.flatnonzero(data == ord("\r")) + 1] != ord("\n")).any():
            return None  # a lone "\r"
    other = raw.translate(None, _DIGITS_AND_BLANKS)
    if other:
        # only comments may hold other bytes, and none may be a control byte
        if b"#" not in other or other.translate(None, _TEXT):
            return None
        raw = _cut_comment_lines(raw)
        if raw is None or raw.translate(None, _DIGITS_AND_BLANKS):
            return None
    data = np.frombuffer(raw, dtype=np.uint8)
    blank = np.flatnonzero(data <= ord(" "))
    if blank.size == data.size:
        return np.empty((0, 2), dtype=np.int64)  # no content line
    line_end = data[blank] == ord("\n")  # gathers faster by intp than int32
    if data.size < 2**31:  # halves the memory every later pass reads
        blank = blank.astype(np.int32)
    gap = np.diff(blank)  # one more than the length of the word in between
    apart = gap > 1
    if not apart.all():  # one run per stretch of adjacent blanks
        word = np.flatnonzero(apart)  # the last blank before each word
        line_end = np.logical_or.reduceat(line_end, np.concatenate(([0], word + 1)))
        gap = gap[word]
    # line end, separator, line end, ...: two words on every content line
    alternate = line_end.size > 2 and line_end[::2].all() and not line_end[1::2].any()
    if not alternate or gap.max() > _MAX_DIGITS + 1:
        return None
    del blank, line_end, gap, apart  # freed before the values are read
    return np.fromstring(raw, dtype=np.int64, sep=" ").reshape(-1, 2)


def _cut_comment_lines(raw: bytes) -> bytes | None:
    """``raw`` without its comment lines, for ``raw`` that starts and ends
    with "\\n"; None when a ``#`` follows a non-blank byte on its line."""
    data = np.frombuffer(raw, dtype=np.uint8)
    breaks = np.flatnonzero(data == ord("\n"))
    hashes = np.flatnonzero(data == ord("#"))
    line = np.searchsorted(breaks, hashes)
    first = np.concatenate(([True], line[1:] != line[:-1]))
    hashes, line = hashes[first], line[first]
    start, stop = breaks[line - 1] + 1, breaks[line] + 1
    # the bytes before each line's first "#" must all be blank
    width = hashes - start
    prefix = np.repeat(hashes - width.cumsum(), width) + np.arange(width.sum())
    if (data[prefix] > ord(" ")).any():
        return None
    # whole lines go, so no cut leaves a blank line; lengths alternate cut,
    # kept, cut, ... from the first comment line to the last
    lo, hi = start[0], stop[-1]
    lengths = np.diff(np.stack((start, stop), axis=1).ravel())
    keep = np.repeat(np.arange(lengths.size) % 2 == 1, lengths)
    return b"".join([data[:lo], data[lo:hi][keep], data[hi:]])


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line))
    return out


def _parse_int_pair(line: str, lineno: int) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise GraphError(f"line {lineno}: expected two integers, got {line!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphError(f"line {lineno}: expected two integers, got {line!r}") from None


def parse_graph(text: str, *, permissive: bool = False) -> BipartiteGraph:
    """Parse an edge-list document into a validated :class:`BipartiteGraph`.

    Labeled format (default): the first non-comment line is the header
    ``n1 n2``; each following line is an edge ``u v`` with ``0 <= u < n1`` and
    ``n1 <= v < n1+n2``.  Lines starting with ``#`` are comments.

    Permissive format (``permissive=True``): every line is an edge ``u v``
    over non-negative integer ids of any size.  Component labels on the
    bipartite double cover 2-colour it, the class holding each component's
    smallest id going to side 1, and ids are compacted, side 1 first.  A
    self-loop or an odd cycle ("the component of vertex v has an odd cycle",
    v its smallest id) raises :class:`NotBipartiteError`.

    A labeled document keeps its declared sides and ids.  Either side may be
    the larger one: the construction picks the side it dominates itself.
    Duplicate edges are dropped with a warning.  Errors name the first bad
    line and vertices by their ids in the document.

    A labeled document in the scan's grammar (see :func:`_tokenize`) is
    read ``_BLOCK_CHARS`` characters at a time, up to a line end, straight
    into the CSR's key buffer, so its peak is about 1.6 times the CSR.  A
    canonical document's keys come strictly ascending and skip the sort.
    Any other document, or one that fails a check, is read line by line.
    """
    if permissive:
        return _parse_permissive(_content_lines(text))
    graph = _read_labeled_blocks(text)
    if graph is None:
        # the per-line reading names the first bad line, or reads a document
        # the scan declined
        rows = np.array(_read_labeled_lines(text), dtype=np.int64)
        (n1, n2), edges = rows[0].tolist(), rows[1:]
        graph = BipartiteGraph.from_edges(n1, n2, edges)
    return graph


def _read_labeled_blocks(text: str) -> BipartiteGraph | None:
    """The graph of a labeled document, scanned by :func:`_tokenize` one
    block of about ``_BLOCK_CHARS`` characters at a time, each block ending
    just after a line end; None when a block declines or a check of
    :func:`_read_labeled_lines` fails, so that reading can name the line.

    Each block's edges go straight into one key buffer sized by the line
    count, which :meth:`BipartiteGraph._from_keys` builds the CSR from.
    """
    if not text.isascii():
        return None
    lines = text.count("\n") + 1
    key, m, start = None, 0, 0
    while start < len(text):
        stop = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        rows = _tokenize(text[start:stop])
        start = stop
        if rows is None:
            return None
        if key is None:  # the header comes first
            if not len(rows):
                continue
            (n1, n2), rows = rows[0].tolist(), rows[1:]
            # every vertex needs an edge line, so each key stays below lines²
            if not (1 <= min(n1, n2) and max(n1, n2) <= lines):
                return None
            key = np.empty(lines, dtype=np.int64)
        u, v = rows.T
        # the scan reads no sign, so no id is negative; initial= passes a
        # block of comment lines only
        if (u.max(initial=0) >= n1 or v.min(initial=n1) < n1
                or v.max(initial=n1) >= n1 + n2):
            return None
        # one key per edge, ordered by (side-1 end, side-2 end)
        block = key[m:m + len(rows)]
        np.multiply(u, n2, out=block)
        block += v
        block -= n1
        m += len(rows)
    if key is None or max(n1, n2) > m:
        return None
    return BipartiteGraph._from_keys(n1, n2, key[:m])


def _read_labeled_lines(text: str) -> list[tuple[int, int]]:
    """The header and edge rows of a labeled document, read line by line;
    raises :class:`GraphError` naming the first bad line."""
    lines = _content_lines(text)
    if not lines:
        raise GraphError("empty document: missing 'n1 n2' header")
    header_no, header = lines[0]
    n1, n2 = _parse_int_pair(header, header_no)
    if n1 < 1 or n2 < 1:
        raise GraphError(f"line {header_no}: sides must be positive, got {n1} {n2}")
    if max(n1, n2) > len(lines) - 1:
        # every vertex needs an edge, so refuse the header before from_edges
        # sizes its degree and row arrays by the declared sides
        raise GraphError(
            f"line {header_no}: header declares sides of {n1} and {n2} vertices "
            f"but only {len(lines) - 1} edge lines follow"
        )
    rows = [(n1, n2)]
    for lineno, line in lines[1:]:
        u, v = _parse_int_pair(line, lineno)
        if not (0 <= u < n1):
            raise GraphError(f"line {lineno}: vertex {u} outside side 1 range [0, {n1})")
        if not (n1 <= v < n1 + n2):
            raise GraphError(
                f"line {lineno}: vertex {v} outside side 2 range [{n1}, {n1 + n2})"
            )
        rows.append((u, v))
    return rows


def _component_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The smallest vertex in each of n vertices' component, for the edges
    ``a[i]``–``b[i]``, by min-label hooking and pointer jumping (Shiloach and
    Vishkin, J. Algorithms 1982): O(log n) rounds of array passes."""
    label = np.arange(n, dtype=np.int64)
    while True:
        ends_a, ends_b = label[a], label[b]
        if np.array_equal(ends_a, ends_b):
            return label
        np.minimum.at(label, ends_a, ends_b)
        np.minimum.at(label, ends_b, ends_a)
        up = label[label]
        while not np.array_equal(up, label):
            label, up = up, up[up]


def _parse_permissive(lines: list[tuple[int, str]]) -> BipartiteGraph:
    if not lines:
        raise GraphError("empty document: no edges")
    rows = []
    for lineno, line in lines:
        u, v = _parse_int_pair(line, lineno)
        if u == v:
            raise NotBipartiteError(f"line {lineno}: self-loop at vertex {u}")
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative vertex id")
        rows.append((u, v))
    try:
        pairs = np.array(rows, dtype=np.int64)
    except OverflowError:  # Python ints: a float64 array would merge ids
        pairs = np.array(rows, dtype=object)
    # the document's ids in ascending order, and each end's place among them
    ids, ends = np.unique(pairs, return_inverse=True)
    m = len(ids)
    # double cover: v has copies v and m + v, and u–w joins u to m + w, w to m + u
    u, w = ends.T
    first, second = _component_labels(2 * m, np.r_[u, w], np.r_[w, u] + m).reshape(2, m)
    if (first == second).any():
        v = ids[np.argmax(first == second)]
        raise NotBipartiteError(f"the component of vertex {v} has an odd cycle")
    # side 1, numbered first: first copies carrying their component's smallest id
    side2 = first > second
    n1 = m - int(np.count_nonzero(side2))
    compact = np.argsort(np.argsort(side2, kind="stable"))
    return BipartiteGraph.from_edges(n1, m - n1, compact[ends])


def serialize_graph(graph: BipartiteGraph) -> str:
    """Emit the labeled canonical form: header line, then sorted edges."""
    left, right = graph._edge_ends()
    # one formatting pass over the interleaved ids u0 w0 u1 w1 ...
    ids = np.stack((left, right), axis=1).ravel().tolist()
    lines = ("%d %d\n" * len(left)) % tuple(ids)
    return f"{graph.n1} {graph.n2}\n" + lines
