"""Immutable bipartite graphs in CSR form, with modular-degree checks.

Vertex ids are dense 0-based integers: ids ``0..n1-1`` form side 1 and ids
``n1..n1+n2-1`` form side 2.  A graph stores its adjacency as two read-only
NumPy ``int64`` arrays in compressed sparse row form: the neighbours of ``v``
are ``indices[indptr[v]:indptr[v+1]]``, in ascending order, so memory is
O(n + E) and a degree count into a vertex set is one vectorized O(E) pass.
Building it from an edge list sorts one E-length key buffer and writes the
CSR in place, never into the caller's array, so a build's working memory
is little more than its input and its output.
A :class:`VertexSet` is a read-only NumPy bool mask of length n, the
graph's vertex count, so a degree query reads a subset's membership of
each CSR entry with one gather, and a pool's ids are the mask's nonzero
positions.  Every set carries its n: sets over different n do not mix,
and ids outside [0, n) are refused when a set is built.

This module alone knows both formats.  The rest of the package works through
:class:`VertexSet` operations, :meth:`BipartiteGraph.neighbor_ids` (one row
as a list), :meth:`BipartiteGraph.neighbor_rows` (the rows of an id array,
gathered as CSR offsets into one flat ``int64`` array), and
:meth:`BipartiteGraph.degrees_into`, :meth:`BipartiteGraph.last_neighbors`
and :meth:`BipartiteGraph.neighbors_within`, which read only the rows from
a pool's first member to its last and return ``int64`` arrays aligned with
the pool's ids: each member's neighbour count in a subset, from the second
its largest neighbour there, and from the last its neighbours there, as
CSR offsets into one flat array.

A labeled document is read by C-level ``bytes`` scans and one NumPy pass
over the positions of its blank bytes when it is plain ASCII digits, blanks,
comments and "\\n" or "\\r\\n" line ends, which is every document ``moddeg
gen`` writes; any other document, and any document with an error, is read
line by line, and that reading names the first bad line.
"""

from __future__ import annotations

import operator
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
        n-length arrays.  It never writes into the caller's array.
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
        key.sort()
        fresh = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=fresh[1:])
        duplicates = len(key) - int(np.count_nonzero(fresh))
        if duplicates:
            warnings.warn(
                f"deduplicated {duplicates} repeated edge(s)",
                DuplicateEdgeWarning,
                stacklevel=2,
            )
            key = key[fresh]
        del fresh
        # side-1 rows come sorted with the keys: their side-2 ends go to the
        # first half, and the side-1 ends wait in the second
        m = len(key)
        indices = np.empty(2 * m, dtype=np.int64)
        right, left = indices[:m], indices[m:]
        np.divmod(key, n2, out=(left, right))
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
        np.remainder(key, n1, out=left)
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
        neighbour count inside ``subset``, as two aligned ``int64`` arrays."""
        ids, rows, starts, _, hits = self._pool_rows(pool, subset)
        return ids, np.add.reduceat(hits, starts, dtype=np.int64)[rows]

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
        ``subset`` are ``neighbors[offsets[i]:offsets[i + 1]]``, ascending."""
        ids, rows, starts, entries, hits = self._pool_rows(pool, subset)
        # each entry's member, the position of its row's vertex in ids, or
        # -1 for a row between members
        member = np.full(len(starts), -1, dtype=np.int64)
        member[rows] = np.arange(len(ids))
        member = np.repeat(member, np.diff(starts, append=len(entries)))
        keep = hits & (member >= 0)
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(member[keep], minlength=len(ids)), out=offsets[1:])
        return ids, offsets, entries[keep]

    def neighbor_rows(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``ids``, an integer array of vertex ids, in CSR form,
        as two ``int64`` arrays ``(offsets, neighbors)``: the neighbours of
        ``ids[i]`` are ``neighbors[offsets[i]:offsets[i + 1]]``, ascending.
        Reads those rows only, with one gather."""
        indptr, indices = self.adj
        begin = indptr[ids]
        lengths = indptr[ids + 1] - begin
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        lengths.cumsum(out=offsets[1:])
        # an entry's position in indices: its row's begin plus its place in
        # the row, which is its offset here minus the row's
        positions = (begin - offsets[:-1]).repeat(lengths)
        positions += np.arange(offsets[-1])
        return offsets, indices[positions]

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


def verify_residue(
    graph: BipartiteGraph, subset: VertexSet, spec: ResidueSpec
) -> ResidueCheck:
    """Check that every vertex of ``subset`` has the required induced degree.

    Returns a truthy :class:`ResidueCheck` when ``deg(v) mod modulus ==
    residue`` holds inside the induced subgraph for every member, and
    otherwise reports the smallest offending vertex id with its residue.
    An empty subset passes vacuously.
    """
    ids, counts = graph.degrees_into(subset, subset)
    # every count is below n, so a modulus beyond int64 acts as n does
    residues = counts % min(spec.modulus, graph.n)
    wrong = residues != spec.residue
    if wrong.any():
        i = int(wrong.argmax())
        return ResidueCheck(
            ok=False, witness=int(ids[i]), witness_residue=int(residues[i])
        )
    return ResidueCheck(ok=True)


# 18 decimal digits always fit int64
_MAX_DIGITS = 18
_DIGITS_AND_BLANKS = b"0123456789 \t\r\n"
_TEXT = bytes(range(32, 127)) + b"\t\r\n"  # every byte but the control bytes


def _tokenize(text: str) -> np.ndarray | None:
    """The content lines of ``text`` as an ``(L, 2)`` int64 array, or None to
    leave the document to the per-line reading.

    Accepts an ASCII document whose lines end in "\\n" or "\\r\\n" and hold no
    other control byte, in which every line is blank, a comment (first
    non-blank byte ``#``), or two runs of at most 18 digits split by spaces
    or tabs, and at least one line is neither blank nor a comment.  Such a line
    reads as ``int()`` reads it.  Anything else declines: a non-ASCII
    document, a lone "\\r", a sign, an underscore, any other byte outside a
    comment, or 19 digits or more.

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
    if data.size < 2**31:  # halves the memory every later pass reads
        blank = blank.astype(np.int32)
    line_end = data[blank] == ord("\n")
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
    over non-negative integer ids of any size; the bipartition is computed by
    2-coloring, each component's class holding its smallest id going to side
    1, and ids are compacted, side 1 first.  Raises
    :class:`NotBipartiteError` if no 2-coloring exists (a self-loop counts as
    non-bipartite structure and is a hard error).

    A labeled document keeps its declared sides and ids.  Either side may be
    the larger one: the construction picks the side it dominates itself.
    Duplicate edges are dropped with a warning.  Errors name the first bad
    line and vertices by their ids in the document.
    """
    if permissive:
        return _parse_permissive(_content_lines(text))
    rows = _tokenize(text)
    valid = rows is not None and len(rows) > 0
    if valid:  # the checks of _read_labeled_lines, on every row at once
        (n1, n2), u, v = rows[0].tolist(), rows[1:, 0], rows[1:, 1]
        valid = 1 <= min(n1, n2) and max(n1, n2) <= len(u) and bool(
            ((0 <= u) & (u < n1) & (n1 <= v) & (v < n1 + n2)).all()
        )
    if not valid:
        # the per-line reading names the first bad line, or reads a document
        # the tokenizer declined
        rows = np.array(_read_labeled_lines(text), dtype=np.int64)
    (n1, n2), edges = rows[0].tolist(), rows[1:]
    return BipartiteGraph.from_edges(n1, n2, edges)


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


def _parse_permissive(lines: list[tuple[int, str]]) -> BipartiteGraph:
    if not lines:
        raise GraphError("empty document: no edges")
    raw_edges = []
    adjacency: dict[int, set[int]] = {}
    for lineno, line in lines:
        u, v = _parse_int_pair(line, lineno)
        if u == v:
            raise NotBipartiteError(f"line {lineno}: self-loop at vertex {u}")
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative vertex id")
        raw_edges.append((u, v))
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)

    # 2-color each component; the class holding the component's smallest id
    # goes to side 1 so the split is deterministic
    color: dict[int, int] = {}
    group_a: set[int] = set()
    group_b: set[int] = set()
    for start in sorted(adjacency):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        component = {0: [start], 1: []}
        while queue:
            x = queue.pop()
            for y in adjacency[x]:
                if y not in color:
                    color[y] = 1 - color[x]
                    component[color[y]].append(y)
                    queue.append(y)
                elif color[y] == color[x]:
                    raise NotBipartiteError(
                        f"vertices {x} and {y} are adjacent but forced to one side"
                    )
        group_a.update(component[0])
        group_b.update(component[1])

    side1 = sorted(group_a)
    side2 = sorted(group_b)
    relabel = {v: i for i, v in enumerate(side1)}
    relabel.update({v: len(side1) + i for i, v in enumerate(side2)})
    edges = [(relabel[u], relabel[v]) for u, v in raw_edges]
    return BipartiteGraph.from_edges(len(side1), len(side2), edges)


def serialize_graph(graph: BipartiteGraph) -> str:
    """Emit the labeled canonical form: header line, then sorted edges."""
    left, right = graph._edge_ends()
    # one formatting pass over the interleaved ids u0 w0 u1 w1 ...
    ids = np.stack((left, right), axis=1).ravel().tolist()
    lines = ("%d %d\n" * len(left)) % tuple(ids)
    return f"{graph.n1} {graph.n2}\n" + lines
