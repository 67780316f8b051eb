#!/usr/bin/env python3
"""Walk one graph through the whole pipeline, printing every stage.

Builds a small bipartite graph whose structure forces all three candidate
routes to run: a block of matched pairs pins every side-2 vertex as a
dominator, one extra vertex has enough neighbours to clear the high-degree
threshold, and a few more fall into dyadic degree buckets below it.
"""

import random

from moddeg import (
    BipartiteGraph,
    ResidueSpec,
    build_chain,
    check_chain,
    find_mod_one_subgraph,
    high_degree_targets,
    verify_residue,
)

K = 2


def build_demo_graph() -> BipartiteGraph:
    rng = random.Random(5)
    pairs = 10
    extras = 4
    n1 = pairs + extras
    edges = [(i, n1 + i) for i in range(pairs)]
    for e in range(extras):
        degree = (8, 3, 3, 2)[e]
        edges.extend((pairs + e, n1 + w) for w in rng.sample(range(pairs), degree))
    return BipartiteGraph.from_edges(n1, pairs, edges)


def main() -> None:
    graph = build_demo_graph()
    print(f"graph: {graph.n1} + {graph.n2} vertices, {graph.edge_count()} edges")

    chain = build_chain(graph, K)
    print(f"\nchain of {len(chain.levels)} dominating level(s) for k = {K}:")
    for i, level in enumerate(chain.levels, start=1):
        print(f"  level {i}: dominators {level.dominators.ids()}")
        print(f"           privates   {level.privates.ids()}")
    print(f"  remainder (side-1 vertices never claimed): {chain.remainder.ids()}")
    problems = check_chain(graph, chain)
    print(f"  independent invariant check: {problems or 'clean'}")

    incidence = graph.edges_between(chain.remainder, chain.deepest)
    heavy = high_degree_targets(incidence, K)
    print(f"\nhigh-degree remainder vertices (threshold {K ** 3}): {heavy.ids()}")

    for mode in ("sampled", "derandomized"):
        vertices, trace = find_mod_one_subgraph(graph, K, mode=mode, seed=1)
        check = verify_residue(graph, vertices, ResidueSpec(1, K))
        print(f"\n{mode} mode:")
        print(f"  candidate sizes by route: {trace.candidate_sizes}")
        print(f"  winner: route {trace.case} with {len(vertices)} vertices")
        print(f"  vertices: {vertices.ids()}")
        print(f"  every induced degree = 1 mod {K}: {bool(check)}")


if __name__ == "__main__":
    main()
