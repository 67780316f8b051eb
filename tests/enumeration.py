"""Exhaustive enumeration of small connected bipartite graphs, the corpus
of the worst-case scans in the tests."""

from __future__ import annotations

from typing import Iterator

from moddeg.graph import BipartiteGraph


def enumerate_connected_bipartite(
    max_n: int, min_n: int = 2
) -> Iterator[BipartiteGraph]:
    """Every connected bipartite graph with min_n..max_n vertices.

    Exhaustive over labelled side splits: for each (n1, n2) with
    n1 + n2 in range and each of the 2**(n1*n2) cross-adjacency patterns,
    yields the graph when every vertex has a neighbour and the graph is
    connected.  Each isomorphism class therefore appears many times; that is
    deliberate, worst-case scans want raw coverage, not canonical forms.
    Feasible up to about 9 vertices.
    """
    if min_n < 2:
        raise ValueError(f"min_n must be >= 2, got {min_n}")
    for total in range(min_n, max_n + 1):
        for n1 in range(1, total):
            n2 = total - n1
            full = (1 << n2) - 1
            for pattern in range(1 << (n1 * n2)):
                rows = [(pattern >> (u * n2)) & full for u in range(n1)]
                if any(row == 0 for row in rows):
                    continue
                union = 0
                for row in rows:
                    union |= row
                if union != full:
                    continue
                if not _rows_connected(rows, n1, n2):
                    continue
                edges = [
                    (u, n1 + w)
                    for u in range(n1)
                    for w in range(n2)
                    if rows[u] >> w & 1
                ]
                yield BipartiteGraph.from_edges(n1, n2, edges)


def _rows_connected(rows: list[int], n1: int, n2: int) -> bool:
    """Breadth-first reachability from side-1 vertex 0 over the row masks."""
    seen1 = 1
    seen2 = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            fresh = rows[u] & ~seen2
            seen2 |= fresh
            while fresh:
                low = fresh & -fresh
                w = low.bit_length() - 1
                fresh ^= low
                for v in range(n1):
                    if rows[v] >> w & 1 and not seen1 >> v & 1:
                        seen1 |= 1 << v
                        nxt.append(v)
        frontier = nxt
    return seen1 == (1 << n1) - 1 and seen2 == (1 << n2) - 1
