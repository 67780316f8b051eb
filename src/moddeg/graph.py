"""Immutable bipartite graphs in CSR form, with modular-degree checks.

Vertex ids are dense 0-based integers: ids ``0..n1-1`` form side 1 and ids
``n1..n1+n2-1`` form side 2.  A graph stores its adjacency as two read-only
NumPy ``int64`` arrays in compressed sparse row form: the neighbours of ``v``
are ``indices[indptr[v]:indptr[v+1]]``, in ascending order, so memory is
O(n + E) and a degree count into a vertex set is one vectorized O(E) pass.
A :class:`VertexSet` is one Python int used as a bitmask, so set algebra,
hashing and equality stay single int operations; converting a set to and
from sorted ids goes through NumPy's bit packing instead of a walk over the
bits.

This module alone knows both formats.  The rest of the package works through
:class:`VertexSet` operations, :meth:`BipartiteGraph.neighbor_ids`,
:meth:`BipartiteGraph.neighbors` and :meth:`BipartiteGraph.degrees_into`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
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


def _bits(mask: int, count: int = 0) -> np.ndarray:
    """Bits of ``mask`` from bit 0 up as a 0/1 ``uint8`` array, padded with
    zeros or cut to ``count`` entries when ``count`` is positive."""
    size = max((mask.bit_length() + 7) >> 3, (count + 7) >> 3)
    raw = np.frombuffer(mask.to_bytes(size, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=count or None, bitorder="little")


class VertexSet:
    """A set of vertex ids backed by a single int bitmask.

    Treated as immutable: every operation returns a new set.
    """

    __slots__ = ("mask",)

    def __init__(self, mask: int = 0):
        if mask < 0:
            raise ValueError("bitmask must be non-negative")
        self.mask = mask

    @classmethod
    def from_ids(cls, ids: Iterable[int]) -> "VertexSet":
        arr = np.fromiter(ids, dtype=np.int64)
        if not arr.size:
            return cls()
        # bincount rejects negative ids; its nonzero entries are the members
        packed = np.packbits(np.bincount(arr) != 0, bitorder="little")
        return cls(int.from_bytes(packed, "little"))

    @classmethod
    def single(cls, v: int) -> "VertexSet":
        return cls(1 << v)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, v: int) -> bool:
        return (self.mask >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        """Yield member ids in ascending order."""
        return iter(self.ids())

    def __or__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.mask & ~other.mask)

    def __le__(self, other: "VertexSet") -> bool:
        return self.mask & ~other.mask == 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VertexSet) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def add(self, v: int) -> "VertexSet":
        return VertexSet(self.mask | (1 << v))

    def remove(self, v: int) -> "VertexSet":
        return VertexSet(self.mask & ~(1 << v))

    def isdisjoint(self, other: "VertexSet") -> bool:
        return self.mask & other.mask == 0

    def ids(self) -> list[int]:
        """Member ids in ascending order."""
        if not self.mask:
            return []
        return _bits(self.mask).nonzero()[0].tolist()

    def __repr__(self) -> str:
        return f"VertexSet({self.ids()!r})"


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
        edges: Iterable[tuple[int, int]],
    ) -> "BipartiteGraph":
        """Validate and build a graph from (side-1 id, side-2 id) pairs.

        Edges may be given in either endpoint order.  Duplicates are dropped
        with a :class:`DuplicateEdgeWarning`.  Raises if any edge fails to
        cross sides or any vertex ends up isolated; an invalid edge is
        reported as the first one in input order.
        """
        if n1 < 1 or n2 < 1:
            raise GraphError(f"both sides must be non-empty, got n1={n1}, n2={n2}")
        n = n1 + n2
        edges = list(edges)
        try:
            flat = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
        except OverflowError:
            raise GraphError(f"edge ids out of range for {n} vertices") from None
        if len(flat) != 2 * len(edges):
            raise GraphError("edges must be pairs of vertex ids")
        a, b = flat[0::2], flat[1::2]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        out_of_range = (lo < 0) | (hi >= n)
        bad = out_of_range | (lo >= n1) | (hi < n1)
        if bad.any():
            i = int(bad.argmax())
            if out_of_range[i]:
                raise GraphError(f"edge ({a[i]}, {b[i]}) out of range for {n} vertices")
            raise GraphError(f"edge ({lo[i]}, {hi[i]}) does not join side 1 to side 2")
        # one key per edge, ordered by (side-1 end, side-2 end)
        key = lo * n2 + (hi - n1)
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
        left, right = np.divmod(key, n2)
        degrees = np.concatenate(
            (np.bincount(left, minlength=n1), np.bincount(right, minlength=n2))
        )
        if not degrees.all():
            v = int(np.argmin(degrees))
            raise IsolatedVertexError(f"vertex {v} has no incident edge")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        # side-1 rows come sorted with the keys; side-2 rows need the
        # transposed order
        transposed = right * n1 + left
        transposed.sort()
        indices = np.concatenate((right + n1, transposed % n1))
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

    @property
    def side1(self) -> VertexSet:
        return VertexSet((1 << self.n1) - 1)

    @property
    def side2(self) -> VertexSet:
        return VertexSet(((1 << self.n2) - 1) << self.n1)

    @property
    def vertices(self) -> VertexSet:
        return VertexSet((1 << self.n) - 1)

    def neighbor_ids(self, v: int) -> list[int]:
        """Neighbours of ``v`` in ascending order."""
        indptr, indices = self.adj
        return indices[indptr[v]:indptr[v + 1]].tolist()

    def neighbors(self, v: int) -> VertexSet:
        return VertexSet.from_ids(self.neighbor_ids(v))

    def degree(self, v: int) -> int:
        indptr = self.adj[0]
        return int(indptr[v + 1] - indptr[v])

    def degrees_into(self, pool: VertexSet, subset: VertexSet) -> dict[int, int]:
        """Neighbour count inside ``subset`` of each member of ``pool``,
        keyed in ascending id order."""
        ids = pool.ids()
        if not ids:
            return {}
        indptr, indices = self.adj
        member = _bits(subset.mask, self.n)
        # every row is non-empty (no isolated vertices), as reduceat needs
        counts = np.add.reduceat(member[indices], indptr[:-1], dtype=np.int64).tolist()
        return {v: counts[v] for v in ids}

    def edge_count(self) -> int:
        return len(self.adj[1]) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (side-1 id, side-2 id), sorted."""
        indptr, indices = self.adj
        side1_rows = indptr[: self.n1 + 1]
        left = np.repeat(np.arange(self.n1), np.diff(side1_rows))
        return list(zip(left.tolist(), indices[: side1_rows[-1]].tolist()))


def verify_residue(
    graph: BipartiteGraph, subset: VertexSet, spec: ResidueSpec
) -> ResidueCheck:
    """Check that every vertex of ``subset`` has the required induced degree.

    Returns a truthy :class:`ResidueCheck` when ``deg(v) mod modulus ==
    residue`` holds inside the induced subgraph for every member, and
    otherwise reports the smallest offending vertex id with its residue.
    An empty subset passes vacuously.
    """
    for v, d in graph.degrees_into(subset, subset).items():
        r = d % spec.modulus
        if r != spec.residue:
            return ResidueCheck(ok=False, witness=v, witness_residue=r)
    return ResidueCheck(ok=True)


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
    over arbitrary vertex ids; the bipartition is computed by 2-coloring and
    ids are compacted.  Raises :class:`NotBipartiteError` if no 2-coloring
    exists (a self-loop counts as non-bipartite structure and is a hard
    error).

    In both formats the result is relabeled so side 1 is the side of larger
    cardinality; on ties, the side containing the smallest original vertex id
    stays side 1.  Duplicate edges are dropped with a warning.
    """
    lines = _content_lines(text)
    if permissive:
        return _parse_permissive(lines)
    if not lines:
        raise GraphError("empty document: missing 'n1 n2' header")
    header_no, header = lines[0]
    n1, n2 = _parse_int_pair(header, header_no)
    if n1 < 1 or n2 < 1:
        raise GraphError(f"line {header_no}: sides must be positive, got {n1} {n2}")
    if max(n1, n2) > len(lines) - 1:
        # every vertex needs an edge, so refuse the header before from_edges
        # allocates a mask per declared vertex
        raise GraphError(
            f"line {header_no}: header declares sides of {n1} and {n2} vertices "
            f"but only {len(lines) - 1} edge lines follow"
        )
    edges = []
    for lineno, line in lines[1:]:
        u, v = _parse_int_pair(line, lineno)
        if not (0 <= u < n1):
            raise GraphError(f"line {lineno}: vertex {u} outside side 1 range [0, {n1})")
        if not (n1 <= v < n1 + n2):
            raise GraphError(
                f"line {lineno}: vertex {v} outside side 2 range [{n1}, {n1 + n2})"
            )
        edges.append((u, v))
    if n2 > n1:
        # Relabel so side 1 is the larger side: old side 2 becomes 0..n2-1.
        edges = [(v - n1, n2 + u) for (u, v) in edges]
        n1, n2 = n2, n1
    return BipartiteGraph.from_edges(n1, n2, edges)


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
    # goes to group A so the split is deterministic.
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

    if len(group_b) > len(group_a) or (
        len(group_b) == len(group_a) and min(group_b) < min(group_a)
    ):
        group_a, group_b = group_b, group_a
    side1 = sorted(group_a)
    side2 = sorted(group_b)
    relabel = {v: i for i, v in enumerate(side1)}
    relabel.update({v: len(side1) + i for i, v in enumerate(side2)})
    edges = []
    for u, v in raw_edges:
        a, b = relabel[u], relabel[v]
        edges.append((a, b) if a < b else (b, a))
    return BipartiteGraph.from_edges(len(side1), len(side2), edges)


def serialize_graph(graph: BipartiteGraph) -> str:
    """Emit the labeled canonical form: header line, then sorted edges."""
    lines = [f"{graph.n1} {graph.n2}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"
