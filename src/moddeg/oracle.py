"""Exact maximum order of induced subgraphs with a fixed degree residue.

Two independent routes compute the same quantity: a best-first search
(:func:`exact_max_order`) that proves optima of graphs with about 60-70
vertices, and a brute enumeration of all vertex subsets
(:func:`enumerate_max_order`) kept as a cross-check for small graphs.  The
two implementations share no search logic and must never be merged.

The search rests on one observation: once the smaller side's included set A
is fixed, every larger-side vertex's degree is known, so the larger-side
vertices that can still be included are exactly C(A), those whose degree
into A is r mod q.  What is left is to pick a subset of C(A) that gives
every vertex of A its residue, and that problem splits over the connected
components of the graph between A and C(A).

So the search ranks every include/exclude assignment of the smaller side's
``TOP_BITS`` highest-degree vertices by a size bound in one pass, visits
them best first, and stops at the first whose bound cannot beat the
incumbent.  The pass is vectorized with NumPy, one array entry per
assignment.  When those vertices are the whole eligible smaller side, each
assignment A decides it, so the pass ranks A by ``|A| + |C(A)|`` less the
most candidate neighbours that any vertex of A must lose to reach its
residue, and leaves out every A in which a vertex has fewer than r
candidate neighbours.  Otherwise the further smaller-side vertices are
decided depth first under the ranking's live-vertex bound.  Each fully
decided smaller side has its larger side solved one component at a time.
Every loop runs on an explicit stack, so no graph can hit Python's
recursion limit, and the search counts its prunes and incumbent
improvements in :class:`OracleResult`.

Both treat the empty set as a valid induced subgraph of order 0, so the
result is 0 exactly when no non-empty witness exists.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graph import BipartiteGraph, ResidueSpec, VertexSet, verify_residue

ENUMERATION_LIMIT = 20
# the smaller-side vertices ranked in one pass: its arrays hold the
# 2**TOP_BITS assignments, and none holds more
TOP_BITS = 16


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
    """Best-first search over the smaller side, exact solve of the larger.

    The smaller side (side 1 on a tie) is decided first, from highest degree
    down with ties by id; a vertex with fewer than r neighbours is never
    included.  Its first ``TOP_BITS`` vertices are assigned all at once: an
    assignment A gets the bound ``|A| + (undecided smaller-side vertices) +
    (live larger-side vertices)``, where a larger-side vertex y is *live*
    while ``(r - deg_A(y)) % q`` is at most its undecided neighbour count.
    The assignments are visited in descending bound order, ties by
    descending mask, until a bound no longer beats the incumbent
    (``bound_prunes``).  The remaining smaller-side vertices are decided
    depth first, include branch first, under the same bound.

    With the smaller side decided, its included set A fixes the candidates
    C(A), the larger-side vertices with degree r mod q into A.  A vertex x
    of A with k candidate neighbours needs k >= r and must lose at least
    ``(k - r) % q`` of them, so ``|A| + |C(A)| - most``, with ``most`` the
    largest such loss, bounds every completion of A.  When no smaller-side
    vertex is left undecided after the first ``TOP_BITS``, this is the
    bound the assignments are ranked by, and an assignment with some
    k < r is left out of the ranking and counted nowhere.  Otherwise each
    depth-first leaf checks both, and counts a failure in
    ``infeasible_prunes`` or ``bound_prunes``.

    The larger side is then chosen on each connected component of the
    graph between A and C(A) by a depth-first search over the component's
    candidates, include branch first.  Its size bound is the chosen plus
    undecided candidates, less the most that any vertex of A must still
    lose to reach its residue, measured against what the component must
    reach for the whole set to beat the incumbent; it also prunes a branch
    in which a vertex of A can no longer reach its residue
    (``infeasible_prunes``).

    ``explored`` counts the assignments solved plus the search nodes
    entered; once it reaches ``budget`` the search stops and the result is
    flagged ``timed_out``.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    search = _Search(graph, spec, budget)
    timed_out = False
    try:
        search.run()
    except _OutOfBudget:
        timed_out = True
    witness = VertexSet.from_ids(search.best_ids, graph.n)
    if not verify_residue(graph, witness, spec):
        raise AssertionError("search returned an invalid witness")
    return OracleResult(
        order=search.best,
        witness=witness,
        explored=search.explored,
        budget=budget,
        timed_out=timed_out,
        bound_prunes=search.bound_prunes,
        infeasible_prunes=search.infeasible_prunes,
        improvements=search.improvements,
    )


class _OutOfBudget(Exception):
    """The search has spent its whole budget."""


@functools.cache
def _assignments(h: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``2**h`` assignments of ``h`` top vertices, read-only and built
    once per ``h``: ``masks``, each assignment as its mask, and ``bits``,
    whose row i is 1 on the assignments that include top vertex i.  As h
    is at most ``TOP_BITS``, at most ``TOP_BITS + 1`` tables are kept, the
    largest about 1.5 MB."""
    size = 1 << h
    masks = np.arange(size, dtype=np.int64)
    bits = np.zeros((h, size), np.uint8)
    for i, bit in enumerate(bits):
        bit.reshape(-1, 2, 1 << i)[:, 1] = 1
    masks.setflags(write=False)
    bits.setflags(write=False)
    return masks, bits


class _Search:
    """One :func:`exact_max_order` call: the graph as neighbour lists, the
    smaller side's decision order, the incumbent and the counters.  The
    neighbour lists come from one gather of every row, turned into Python
    lists with one ``tolist()`` per array."""

    def __init__(self, graph: BipartiteGraph, spec: ResidueSpec, budget: int):
        n1, n = graph.n1, graph.n
        offsets, flat = (part.tolist() for part in graph.neighbor_rows(np.arange(n)))
        self.nbrs = nbrs = [flat[a:b] for a, b in zip(offsets, offsets[1:])]
        small, large = range(n1), range(n1, n)
        if graph.n2 < n1:
            small, large = large, small
        self.r, self.q, self.budget = spec.residue, spec.modulus, budget
        # a stable sort of ascending ids: ties stay in id order
        order = sorted(small, key=lambda x: -len(nbrs[x]))
        order = [x for x in order if len(nbrs[x]) >= self.r]
        self.top, self.rest = order[:TOP_BITS], order[TOP_BITS:]
        self.large = list(large)
        self.best = 0
        self.best_ids: list[int] = []
        self.explored = self.bound_prunes = self.infeasible_prunes = 0
        self.improvements = 0

    def _spend(self) -> None:
        if self.explored == self.budget:
            raise _OutOfBudget
        self.explored += 1

    def run(self) -> None:
        top, nbrs, large = self.top, self.nbrs, self.large
        r, q = self.r, self.q
        # per larger-side vertex: its top neighbours as a mask, and its
        # undecided (rest) neighbours
        rows = [0] * len(nbrs)
        und = [0] * len(nbrs)
        for i, x in enumerate(top):
            for y in nbrs[x]:
                rows[y] |= 1 << i
        for x in self.rest:
            for y in nbrs[x]:
                und[y] += 1
        h = len(top)
        full = (1 << h) - 1
        for key in self._ranked(h, [(rows[y], und[y]) for y in large]):
            if key >> h <= self.best:
                self.bound_prunes += 1
                return
            self._spend()
            mask = key & full
            chosen = [x for i, x in enumerate(top) if mask >> i & 1]
            if self.rest:
                cur = [(mask & row).bit_count() for row in rows]
                self._descend(chosen, cur, und[:])
            else:
                self._solve_larger(chosen, [
                    y for y in large if (mask & rows[y]).bit_count() % q == r
                ])

    def _ranked(self, h: int, pairs: list[tuple[int, int]]) -> list[int]:
        """Every assignment of the ``h`` top vertices as the key
        ``bound << h | mask``, in descending order: by bound, then by mask.
        ``pairs`` holds each larger-side vertex's top neighbours as a mask
        and its undecided neighbours.  One NumPy pass computes them: every
        array holds one entry per assignment, and the larger-side vertices
        with equal pairs are added in one step.  The assignments' masks and
        include bits are read from :func:`_assignments`' table for ``h``.

        When the top vertices are the whole eligible smaller side, an
        assignment decides it, its live larger-side vertices are exactly its
        candidates, and the bound is the one :meth:`_solve_larger` checks
        at a depth-first leaf: ``|A| + |C(A)| - most``, with ``most`` the largest
        ``(k - r) % q`` over the vertices of A, each with k candidate
        neighbours.  An assignment in which some vertex of A has k < r is
        left out."""
        r, q, size = self.r, self.q, 1 << h
        base = len(self.rest)
        decided = not self.rest
        masks, bits = _assignments(h)
        # every count below is at most len(pairs) + 1 = over, so the
        # narrowest unsigned type that holds that keeps the arrays small
        over = len(pairs) + 1
        width = np.min_scalar_type(over)
        live = np.zeros(size, width)
        # per top vertex and assignment: the candidate neighbours
        counts = np.zeros((h if decided else 0, size), width)
        for (row, u), count in Counter(pairs).items():
            ids = [i for i in range(h) if row >> i & 1]
            # the numbers of included top neighbours at which a vertex is live
            hits = [d for d in range(len(ids) + 1) if (r - d) % q <= u]
            if not hits:
                continue
            if len(hits) == len(ids) + 1:  # when decided, only if ids is empty
                live += count
                continue
            included = bits[ids[0]]
            for i in ids[1:]:
                included = included + bits[i]
            hit = included == hits[0]
            for d in hits[1:]:
                hit |= included == d
            hit = hit * width.type(count)
            live += hit
            if decided:
                for i in ids:
                    counts[i] += hit
        bound = np.bitwise_count(masks).astype(np.int64) + base
        bound += live
        if decided:
            # what a top vertex with k candidate neighbours must lose, or
            # more than any such loss when k < r
            lose = np.array(
                [(k - r) % q if k >= r else over for k in range(over)], width
            )
            most = (np.take(lose, counts) * bits).max(axis=0, initial=0)
            bound -= most
        keys = bound << h | masks
        if decided:
            keys = keys[most < over]
        keys.sort()
        return keys[::-1].tolist()

    def _descend(self, chosen: list[int], cur: list[int], und: list[int]) -> None:
        """Decide the rest of the smaller side depth first, then solve the
        larger side at every leaf.  ``cur`` and ``und`` hold each
        larger-side vertex's included and undecided neighbours."""
        r, q, nbrs, rest = self.r, self.q, self.nbrs, self.rest
        m = len(rest)
        live = sum((r - cur[y]) % q <= und[y] for y in self.large)
        inc = len(chosen)
        # one (vertex, taken, change in live) per decided vertex; `take` is
        # the next step: 2 enter the node at depth pos, 1 include or 0
        # exclude the vertex at depth pos, -1 backtrack
        stack: list[tuple[int, int, int]] = []
        pos = 0
        take = 2
        while True:
            if take == 2:
                self._spend()
                if inc + (m - pos) + live <= self.best:
                    self.bound_prunes += 1
                    take = -1
                elif pos == m:
                    self._solve_larger(
                        chosen + [x for x, t, _ in stack if t],
                        [y for y in self.large if cur[y] % q == r],
                    )
                    take = -1
                else:
                    take = 1
            elif take < 0:
                if not stack:
                    return
                x, taken, delta = stack.pop()
                pos -= 1
                for y in nbrs[x]:
                    cur[y] -= taken
                    und[y] += 1
                live -= delta
                inc -= taken
                take = taken - 1
            else:
                x = rest[pos]
                delta = 0
                for y in nbrs[x]:
                    c = cur[y] = cur[y] + take
                    u = und[y] = und[y] - 1
                    if (r - c) % q > u and (r - c + take) % q <= u + 1:
                        delta -= 1
                live += delta
                inc += take
                stack.append((x, take, delta))
                pos += 1
                take = 2

    def _solve_larger(self, chosen: list[int], candidates: list[int]) -> None:
        """Best completion of the decided smaller-side set ``chosen``, whose
        candidates are the larger-side vertices with degree r mod q into
        it; the completion replaces the incumbent if it beats it."""
        r, q, nbrs = self.r, self.q, self.nbrs
        # 2: unvisited member of `chosen`, 1: unvisited candidate
        state = bytearray(len(nbrs))
        for y in candidates:
            state[y] = 1
        # each included vertex x must lose at least (k - r) % q of its k
        # candidate neighbours, and needs k >= r; with no smaller-side
        # vertex past the top ones, the ranking pass has checked both
        if self.rest:
            most = 0
            for x in chosen:
                k = sum(map(state.__getitem__, nbrs[x]))
                if k < r:
                    self.infeasible_prunes += 1
                    return
                most = max(most, (k - r) % q)
            if len(chosen) + len(candidates) - most <= self.best:
                self.bound_prunes += 1
                return
        for x in chosen:
            state[x] = 2
        components = []
        for x0 in chosen:
            if not state[x0]:
                continue
            state[x0] = 0
            slot, part_c, todo = {x0: 0}, [], [x0]
            while todo:
                for w in nbrs[todo.pop()]:
                    kind = state[w]
                    if kind:
                        state[w] = 0
                        todo.append(w)
                        if kind == 1:
                            part_c.append(w)
                        else:
                            slot[w] = len(slot)
            if part_c:  # else r = 0 and x0 keeps degree 0
                components.append((slot, part_c))
        # candidates next to no included vertex join freely (only if r = 0)
        picked = [y for y in candidates if state[y]]
        total = len(chosen) + len(picked)
        slack = len(candidates) - len(picked)
        for slot, part_c in components:
            slack -= len(part_c)
            got = self._solve_component(slot, part_c, self.best - total - slack)
            if got is None:
                return
            total += len(got)
            picked += got
        self.best = total
        self.best_ids = chosen + picked
        self.improvements += 1

    def _solve_component(
        self, slot: dict[int, int], part_c: list[int], target: int
    ) -> list[int] | None:
        """The largest subset of the candidates ``part_c`` that gives each
        included vertex (the keys of ``slot``, which maps them to 0, 1, ...)
        residue r, or None when no subset has more than ``target``
        vertices."""
        r, q, nbrs = self.r, self.q, self.nbrs
        rows = [[slot[x] for x in nbrs[y] if x in slot] for y in part_c]
        und = [0] * len(slot)  # undecided candidate neighbours
        for row in rows:
            for i in row:
                und[i] += 1
        cur = [0] * len(slot)  # chosen candidate neighbours
        # the fewest undecided neighbours a vertex must still lose:
        # (cur + und - r) % q, which an include leaves unchanged
        out = [(u - r) % q for u in und]
        m = len(part_c)
        ceiling = m - max(out)
        if ceiling <= target:
            self.bound_prunes += 1
            return None
        best, found = target, None
        explored, budget = self.explored, self.budget
        bound_prunes = infeasible_prunes = 0
        # `taken` per decided candidate; `take` as in _descend.  A node's
        # bound is inc + (m - pos) - max(out): the include branch keeps its
        # parent's, so only the exclude branch is checked against `best`
        stack: list[int] = []
        pos = inc = 0
        take = 2
        try:
            while True:
                if take == 2:
                    if explored == budget:
                        raise _OutOfBudget
                    explored += 1
                    if pos == m:
                        best = inc
                        found = [y for y, t in zip(part_c, stack) if t]
                        if best == ceiling:
                            return found
                        take = -1
                    else:
                        take = 1
                elif take < 0:
                    if not stack:
                        return found
                    taken = stack.pop()
                    pos -= 1
                    row = rows[pos]
                    if taken:
                        for i in row:
                            cur[i] -= 1
                            und[i] += 1
                        inc -= 1
                        take = 0
                    else:
                        for i in row:
                            und[i] += 1
                            out[i] = (out[i] + 1) % q
                else:
                    viable = True
                    if take:
                        for i in rows[pos]:
                            c = cur[i] = cur[i] + 1
                            u = und[i] = und[i] - 1
                            if (r - c) % q > u:
                                viable = False
                        inc += 1
                    else:
                        for i in rows[pos]:
                            u = und[i] = und[i] - 1
                            out[i] = (out[i] - 1) % q
                            if (r - cur[i]) % q > u:
                                viable = False
                    stack.append(take)
                    pos += 1
                    if not viable:
                        infeasible_prunes += 1
                        take = -1
                    elif take or inc + (m - pos) - max(out) > best:
                        take = 2
                    else:
                        bound_prunes += 1
                        take = -1
        finally:
            self.explored = explored
            self.bound_prunes += bound_prunes
            self.infeasible_prunes += infeasible_prunes


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
    pick = int(masks[np.argmax(sizes)])
    witness = VertexSet.from_ids([v for v in range(n) if pick >> v & 1], n)
    if not verify_residue(graph, witness, spec):
        raise AssertionError("enumeration returned an invalid witness")
    return OracleResult(
        order=len(witness),
        witness=witness,
        explored=1 << n,
        budget=1 << n,
        timed_out=False,
    )
