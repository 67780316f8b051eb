"""Exact maximum order of induced subgraphs with a fixed degree residue.

Two independent routes compute the same quantity: a branch-and-bound search
(:func:`exact_max_order`) that scales to a few dozen vertices, and a brute
enumeration of all vertex subsets (:func:`enumerate_max_order`) kept as a
cross-check for small graphs.  The two implementations share no search logic
and must never be merged.

Both treat the empty set as a valid induced subgraph of order 0, so the
result is 0 exactly when no non-empty witness exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .graph import BipartiteGraph, ResidueSpec, VertexSet, verify_residue

ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one exact search.

    ``order`` is the largest witness found and is exact unless ``timed_out``
    is set, in which case it is only a lower bound reached within ``budget``
    explored nodes.
    """

    order: int
    witness: VertexSet
    explored: int
    budget: int
    timed_out: bool

    @property
    def exact(self) -> bool:
        return not self.timed_out


def exact_max_order(
    graph: BipartiteGraph, spec: ResidueSpec, budget: int = 100_000_000
) -> OracleResult:
    """Branch-and-bound over include/exclude decisions in degree order.

    Vertices are decided from highest degree down.  Two prunes keep the tree
    small: a branch dies when the decided vertices plus all undecided ones
    cannot beat the incumbent, and an included vertex whose missing residue
    exceeds its undecided neighbour count makes the branch infeasible.  The
    include branch is explored first so large witnesses arrive early.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    n = graph.n
    r, q = spec.residue, spec.modulus
    neighbours = [graph.neighbor_ids(v) for v in range(n)]
    cur = [0] * n
    und = [len(nbrs) for nbrs in neighbours]
    order = sorted(range(n), key=lambda v: (-und[v], v))

    best_size = 0
    best_mask = 0
    explored = 0
    timed_out = False

    def dfs(pos: int, inc_size: int, inc_mask: int):
        nonlocal best_size, best_mask, explored, timed_out
        explored += 1
        if explored > budget:
            timed_out = True
            return
        if inc_size + (n - pos) <= best_size:
            return
        if pos == n:
            # every included vertex was checked with zero undecided
            # neighbours when its last neighbour got decided, so the
            # residue is exact here
            best_size, best_mask = inc_size, inc_mask
            return
        x = order[pos]
        nbrs = neighbours[x]
        if (r - cur[x]) % q <= und[x]:
            viable = True
            for y in nbrs:
                cur[y] += 1
                und[y] -= 1
                if viable and inc_mask >> y & 1 and (r - cur[y]) % q > und[y]:
                    viable = False
            if viable and not timed_out:
                dfs(pos + 1, inc_size + 1, inc_mask | 1 << x)
            for y in nbrs:
                cur[y] -= 1
                und[y] += 1
        viable = True
        for y in nbrs:
            und[y] -= 1
            if viable and inc_mask >> y & 1 and (r - cur[y]) % q > und[y]:
                viable = False
        if viable and not timed_out:
            dfs(pos + 1, inc_size, inc_mask)
        for y in nbrs:
            und[y] += 1

    dfs(0, 0, 0)
    witness = VertexSet(best_mask)
    if not verify_residue(graph, witness, spec):
        raise AssertionError("search returned an invalid witness")
    return OracleResult(
        order=best_size,
        witness=witness,
        explored=explored,
        budget=budget,
        timed_out=timed_out,
    )


def enumerate_max_order(graph: BipartiteGraph, spec: ResidueSpec) -> OracleResult:
    """Check every one of the 2**n vertex subsets; vectorized with numpy.

    Independent of the branch-and-bound route on purpose.  Memory grows as
    2**n, so graphs above ENUMERATION_LIMIT vertices are rejected.
    """
    n = graph.n
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"full enumeration supports at most {ENUMERATION_LIMIT} vertices, got {n}"
        )
    r, q = np.uint64(spec.residue), np.uint64(spec.modulus)
    masks = np.arange(1 << n, dtype=np.uint64)
    valid = np.ones(masks.shape, dtype=bool)
    for v in range(n):
        included = (masks >> np.uint64(v)) & np.uint64(1)
        row = sum(1 << w for w in graph.neighbor_ids(v))
        deg = np.bitwise_count(masks & np.uint64(row))
        valid &= (included == 0) | (deg % q == r)
    sizes = np.bitwise_count(masks)
    sizes[~valid] = 0
    pick = int(np.argmax(sizes))
    witness = VertexSet(int(masks[pick]))
    if not verify_residue(graph, witness, spec):
        raise AssertionError("enumeration returned an invalid witness")
    return OracleResult(
        order=len(witness),
        witness=witness,
        explored=1 << n,
        budget=1 << n,
        timed_out=False,
    )


@dataclass(frozen=True)
class RatioRow:
    """One graph's exact value next to its order."""

    index: int
    order: int
    value: int
    timed_out: bool

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.value, self.order)


@dataclass(frozen=True)
class RatioReport:
    """Smallest value/order ratio across a batch of graphs.

    Rows flagged ``timed_out`` carry lower bounds on their true values, so
    ``min_ratio`` is always a sound lower bound on the true minimum; it is
    the exact minimum when ``exact`` holds (no row timed out).
    """

    spec: ResidueSpec
    rows: tuple[RatioRow, ...]
    min_ratio: Fraction
    argmin_index: int

    @property
    def exact(self) -> bool:
        return all(not row.timed_out for row in self.rows)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "residue": self.spec.residue,
            "modulus": self.spec.modulus,
            "count": len(self.rows),
            "min_ratio": str(self.min_ratio),
            "min_ratio_float": float(self.min_ratio),
            "argmin_index": self.argmin_index,
            "exact": self.exact,
            "rows": [
                {
                    "index": row.index,
                    "order": row.order,
                    "value": row.value,
                    "timed_out": row.timed_out,
                }
                for row in self.rows
            ],
        }


def min_ratio_report(
    graphs: Iterable[BipartiteGraph] | Sequence[BipartiteGraph],
    spec: ResidueSpec,
    budget: int = 100_000_000,
) -> RatioReport:
    """Exact value over order for each graph, tracking the minimum.

    The minimum of f/n over a graph family estimates the worst-case share
    of vertices one can always keep; rows are preserved so callers can plot
    or re-check individual graphs.
    """
    rows = []
    for index, graph in enumerate(graphs):
        result = exact_max_order(graph, spec, budget=budget)
        rows.append(
            RatioRow(
                index=index,
                order=graph.n,
                value=result.order,
                timed_out=result.timed_out,
            )
        )
    if not rows:
        raise ValueError("need at least one graph")
    argmin = min(rows, key=lambda row: (row.ratio, row.index))
    return RatioReport(
        spec=spec,
        rows=tuple(rows),
        min_ratio=argmin.ratio,
        argmin_index=argmin.index,
    )
