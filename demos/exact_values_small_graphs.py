#!/usr/bin/env python3
"""Exact maximum orders on a zoo of named small graphs.

For each graph and (residue, modulus) target, runs the branch-and-bound
search and the brute-force enumeration side by side; the two must agree.
The final table shows the balanced complete graphs pinning the value at 2,
which is what makes the 1/k share asymptotically unbeatable.
"""

from moddeg import ResidueSpec, enumerate_max_order, exact_max_order
from moddeg.generators import complete_bipartite, matching, star
from moddeg.graph import BipartiteGraph


def hexagon() -> BipartiteGraph:
    return BipartiteGraph.from_edges(
        3, 3, [(0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)]
    )


ZOO = [
    ("single edge", matching(1)),
    ("path on 4 vertices", BipartiteGraph.from_edges(2, 2, [(0, 2), (1, 2), (1, 3)])),
    ("hexagon", hexagon()),
    ("star with 3 leaves", star(3)),
    ("star with 6 leaves", star(6)),
    ("complete 2x3", complete_bipartite(2, 3)),
    ("complete 3x3", complete_bipartite(3, 3)),
    ("5 disjoint edges", matching(5)),
]

TARGETS = [ResidueSpec(1, 2), ResidueSpec(0, 2), ResidueSpec(1, 3)]


def main() -> None:
    header = f"{'graph':24s} {'n':>3s}" + "".join(
        f"  {'=' + str(s.residue) + ' mod ' + str(s.modulus):>10s}" for s in TARGETS
    )
    print(header)
    print("-" * len(header))
    for name, graph in ZOO:
        cells = []
        for spec in TARGETS:
            fast = exact_max_order(graph, spec)
            slow = enumerate_max_order(graph, spec)
            assert fast.order == slow.order, (name, spec)
            cells.append(f"{fast.order:>10d}")
        print(f"{name:24s} {graph.n:>3d}  " + "  ".join(cells))

    print("\nbalanced complete graphs, target degree 1 mod k:")
    for k in range(2, 7):
        assert exact_max_order(complete_bipartite(k, k), ResidueSpec(1, k)).order == 2
        print(f"  k = {k}: maximum order 2 of {2 * k} vertices, share 1/{k}")


if __name__ == "__main__":
    main()
