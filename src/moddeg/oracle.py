"""Exact maximum order of induced subgraphs with a fixed degree residue.

Two independent routes compute the same quantity: a branch-and-bound search
(:func:`exact_max_order`) that scales to a few dozen vertices, and a brute
enumeration of all vertex subsets (:func:`enumerate_max_order`) kept as a
cross-check for small graphs.  The two implementations share no search logic
and must never be merged.

The search decides the smaller side first, so once that side is fixed every
remaining vertex's degree is known.  It prunes a node whose included plus
live undecided vertices cannot beat the incumbent, where a vertex is dead
once its missing residue exceeds its undecided neighbours, and a branch in
which an included vertex turns dead.  It runs on an explicit stack, so its
depth is bounded by memory rather than by Python's recursion limit, and it
counts its prunes and incumbent improvements in :class:`OracleResult`.

Both treat the empty set as a valid induced subgraph of order 0, so the
result is 0 exactly when no non-empty witness exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import BipartiteGraph, ResidueSpec, VertexSet, verify_residue

ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one exact search.

    ``order`` is the largest witness found and is exact unless ``timed_out``
    is set, in which case it is only a lower bound reached within ``budget``
    explored nodes.  ``bound_prunes`` counts nodes cut by the size bound,
    ``infeasible_prunes`` branches cut because an included vertex can no
    longer reach the residue, and ``improvements`` incumbent updates; full
    enumeration leaves all three at 0.
    """

    order: int
    witness: VertexSet
    explored: int
    budget: int
    timed_out: bool
    bound_prunes: int = 0
    infeasible_prunes: int = 0
    improvements: int = 0

    @property
    def exact(self) -> bool:
        return not self.timed_out


def exact_max_order(
    graph: BipartiteGraph, spec: ResidueSpec, budget: int = 100_000_000
) -> OracleResult:
    """Branch-and-bound over include/exclude decisions.

    Order: the smaller side is decided first (side 1 on a tie), then the
    larger one, each from highest degree down with ties by id.  Once the
    smaller side is decided, every larger-side vertex's final degree is
    known, which makes the bound below tight there.

    Prunes: an undecided vertex x is *dead* when ``(r - cur[x]) % q`` exceeds
    its undecided neighbour count, since it can then never reach residue r;
    a dead vertex stays dead in the whole subtree and is only ever excluded.
    A node dies when its included vertices plus its live undecided ones
    cannot beat the incumbent (``bound_prunes``), and a branch dies when an
    included vertex turns dead (``infeasible_prunes``).  The include branch
    is explored first so large witnesses arrive early.

    The depth-first search runs on an explicit stack, so no graph can hit
    Python's recursion limit.  ``explored`` counts nodes entered; past
    ``budget`` the search stops and the result is flagged ``timed_out``.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    n = graph.n
    r, q = spec.residue, spec.modulus
    neighbours = [graph.neighbor_ids(v) for v in range(n)]
    cur = [0] * n  # included neighbours
    und = [len(nbrs) for nbrs in neighbours]  # undecided neighbours
    sides = [range(graph.n1), range(graph.n1, n)]
    if graph.n2 < graph.n1:
        sides.reverse()
    order = [v for side in sides for v in sorted(side, key=lambda v: (-und[v], v))]
    n_small = len(sides[0])
    included = [0] * n
    dead = sum(r > d for d in und)  # nothing included yet: dead iff r > degree

    best_size = 0
    best_mask = 0
    explored = bound_prunes = infeasible_prunes = improvements = 0
    timed_out = False
    # one (vertex, taken, change in dead) per decided depth; `take` is the
    # next step: 2 enter the node at depth pos, 1 include or 0 exclude the
    # vertex at depth pos, -1 backtrack
    stack: list[tuple[int, int, int]] = []
    pos = inc = 0
    take = 2
    while True:
        if take == 2:
            explored += 1
            if explored > budget:
                timed_out = True
                break
            if inc + (n - pos) - dead <= best_size:
                bound_prunes += 1
                take = -1
            elif pos == n:
                # every included vertex was checked with zero undecided
                # neighbours when its last neighbour got decided, so the
                # residue is exact here
                best_size = inc
                best_mask = sum(1 << v for v, taken, _ in stack if taken)
                improvements += 1
                take = -1
            else:
                x = order[pos]
                take = 1 if (r - cur[x]) % q <= und[x] else 0
        elif take < 0:
            if not stack:
                break
            x, taken, delta = stack.pop()
            pos -= 1
            for y in neighbours[x]:
                cur[y] -= taken
                und[y] += 1
            dead -= delta
            inc -= taken
            included[x] = 0
            take = taken - 1
        else:
            x = order[pos]
            delta = -1 if (r - cur[x]) % q > und[x] else 0
            viable = True
            if pos < n_small:
                # x's neighbours are all on the larger side, all undecided
                for y in neighbours[x]:
                    c = cur[y] = cur[y] + take
                    u = und[y] = und[y] - 1
                    if (r - c) % q > u and (r - c + take) % q <= u + 1:
                        delta += 1
            else:
                # x's neighbours are all on the smaller side, all decided
                for y in neighbours[x]:
                    c = cur[y] = cur[y] + take
                    u = und[y] = und[y] - 1
                    if included[y] and (r - c) % q > u:
                        viable = False
            dead += delta
            inc += take
            included[x] = take
            stack.append((x, take, delta))
            pos += 1
            if viable:
                take = 2
            else:
                infeasible_prunes += 1
                take = -1

    witness = VertexSet(best_mask)
    if not verify_residue(graph, witness, spec):
        raise AssertionError("search returned an invalid witness")
    return OracleResult(
        order=best_size,
        witness=witness,
        explored=explored,
        budget=budget,
        timed_out=timed_out,
        bound_prunes=bound_prunes,
        infeasible_prunes=infeasible_prunes,
        improvements=improvements,
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
