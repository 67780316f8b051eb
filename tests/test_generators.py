"""Instance generators and the exhaustive small-graph enumeration."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from enumeration import enumerate_connected_bipartite
from moddeg.generators import (
    GENERATORS,
    check_params,
    complete_bipartite,
    generate,
    matching,
    random_bipartite,
    random_regularish,
    star,
)
from moddeg.graph import BipartiteGraph, GraphError


class TestFixedFamilies:
    def test_complete_shape(self):
        g = complete_bipartite(2, 3)
        assert (g.n1, g.n2, g.edge_count()) == (2, 3, 6)
        assert all(len(g.neighbor_ids(u)) == 3 for u in g.side1)
        assert all(len(g.neighbor_ids(w)) == 2 for w in g.side2)

    def test_matching_degrees(self):
        g = matching(4)
        assert g.edge_count() == 4
        assert all(len(g.neighbor_ids(v)) == 1 for v in g.vertices)

    def test_star_orientations(self):
        left = star(5)
        assert (left.n1, left.n2) == (1, 5)
        assert len(left.neighbor_ids(0)) == 5
        right = star(5, center_side=2)
        assert (right.n1, right.n2) == (5, 1)
        assert len(right.neighbor_ids(5)) == 5

    def test_star_validation(self):
        with pytest.raises(ValueError):
            star(0)
        with pytest.raises(ValueError):
            star(3, center_side=0)


class TestRandomFamilies:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            random_bipartite(3, 3, -0.1, random.Random(0))
        with pytest.raises(ValueError):
            random_bipartite(3, 3, 1.5, random.Random(0))

    def test_zero_probability_still_validates(self):
        # repairs kick in: every vertex keeps at least one edge
        g = random_bipartite(5, 3, 0.0, random.Random(2))
        assert all(len(g.neighbor_ids(v)) >= 1 for v in g.vertices)

    def test_full_probability_is_complete(self):
        g = random_bipartite(3, 4, 1.0, random.Random(0))
        assert g.edge_count() == 12

    def test_regularish_degrees(self):
        g = random_regularish(20, 10, 3, random.Random(7))
        assert all(len(g.neighbor_ids(u)) == 3 for u in g.side1)
        assert all(len(g.neighbor_ids(w)) >= 1 for w in g.side2)

    def test_regularish_repairs_uncovered_side(self):
        g = random_regularish(2, 30, 1, random.Random(5))
        assert all(len(g.neighbor_ids(w)) >= 1 for w in g.side2)

    def test_regularish_validation(self):
        with pytest.raises(ValueError):
            random_regularish(4, 3, 4, random.Random(0))
        with pytest.raises(ValueError):
            random_regularish(4, 3, 0, random.Random(0))

    @pytest.mark.parametrize("build", [
        lambda n1, n2, rng: random_bipartite(n1, n2, 0.5, rng),
        lambda n1, n2, rng: random_regularish(n1, n2, 1, rng),
    ], ids=["random", "regularish"])
    @pytest.mark.parametrize("n1, n2", [(0, 3), (3, 0), (-1, 2)])
    def test_empty_side_refused_before_any_draw(self, build, n1, n2):
        rng = random.Random(0)
        with pytest.raises(GraphError) as caught:
            build(n1, n2, rng)
        assert str(caught.value) == f"both sides must be non-empty, got n1={n1}, n2={n2}"
        assert rng.getstate() == random.Random(0).getstate()


def reference_regularish(n1, n2, degree, rng):
    """The generator's draws as tuples: one sample per side-1 vertex, then one
    partner per uncovered side-2 vertex in ascending order."""
    chosen = [rng.sample(range(n2), degree) for _ in range(n1)]
    covered = {w for row in chosen for w in row}
    edges = [(u, n1 + w) for u, row in enumerate(chosen) for w in row]
    edges += [(rng.randrange(n1), n1 + w) for w in range(n2) if w not in covered]
    return BipartiteGraph.from_edges(n1, n2, edges)


@pytest.mark.parametrize("n1, n2, degree", [
    (1, 1, 1), (2, 30, 1), (30, 2, 2), (50, 40, 3), (300, 30, 12),
])
def test_regularish_keeps_its_draws(n1, n2, degree):
    for seed in range(3):
        rng, same = random.Random(seed), random.Random(seed)
        assert random_regularish(n1, n2, degree, rng) == reference_regularish(
            n1, n2, degree, same
        )
        assert rng.getstate() == same.getstate()


class TestDispatch:
    def test_known_kinds(self):
        assert set(GENERATORS) == {
            "complete", "matching", "star", "random", "regularish"
        }

    def test_descriptors(self):
        _, desc = generate("complete", a=2, b=3)
        assert desc == "complete(a=2,b=3)"
        _, desc = generate("random", seed=9, n1=4, n2=4, p=0.5)
        assert desc == "random(n1=4,n2=4,p=0.5,seed=9)"

    def test_seed_reproducibility(self):
        g1, _ = generate("regularish", seed=3, n1=12, n2=8, degree=2)
        g2, _ = generate("regularish", seed=3, n1=12, n2=8, degree=2)
        g3, _ = generate("regularish", seed=4, n1=12, n2=8, degree=2)
        assert g1 == g2
        assert g1 != g3  # one collision would be astronomically unlucky

    @pytest.mark.parametrize("kind, params, error", [
        ("random", {"n1": 3, "n2": 3, "p": 1.5}, ValueError),
        ("star", {"leaves": 2, "center_side": 0}, ValueError),
        ("star", {"leaves": 0}, ValueError),
        ("regularish", {"n1": 3, "n2": 2, "degree": 3}, ValueError),
        ("matching", {"pairs": 0}, GraphError),
    ])
    def test_check_params_holds_the_range_rules(self, kind, params, error):
        with pytest.raises(error) as checked:
            check_params(kind, params)
        seeded = {"rng": random.Random(0)} if kind in ("random", "regularish") else {}
        with pytest.raises(error) as built:
            GENERATORS[kind](**params, **seeded)
        assert str(checked.value) == str(built.value)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown generator"):
            generate("hypercube", n=3)


def nx_connected_count(max_n: int) -> int:
    """Independent recount of the enumeration via networkx connectivity."""
    total = 0
    for n in range(2, max_n + 1):
        for n1 in range(1, n):
            n2 = n - n1
            for bits in range(1 << (n1 * n2)):
                G = nx.Graph()
                G.add_nodes_from(range(n))
                for i in range(n1):
                    for j in range(n2):
                        if bits >> (i * n2 + j) & 1:
                            G.add_edge(i, n1 + j)
                if any(d == 0 for _, d in G.degree):
                    continue
                if nx.is_connected(G):
                    total += 1
    return total


class TestEnumeration:
    # [DERIVED] counts frozen from the networkx recount below
    COUNTS = {3: 2, 4: 7, 5: 40, 6: 337}

    def test_counts_by_order(self):
        for n, want in self.COUNTS.items():
            got = sum(1 for _ in enumerate_connected_bipartite(n, min_n=n))
            assert got == want

    def test_cumulative_count_matches_networkx(self):
        ours = sum(1 for _ in enumerate_connected_bipartite(5))
        assert ours == 50
        assert nx_connected_count(5) == 50

    def test_yields_are_connected_and_bipartite(self):
        for g in enumerate_connected_bipartite(5):
            G = nx.Graph()
            G.add_nodes_from(range(g.n))
            G.add_edges_from(g.edges())
            assert nx.is_connected(G)
            assert nx.is_bipartite(G)
            assert all(d >= 1 for _, d in G.degree)

    def test_no_duplicate_patterns(self):
        seen = set()
        for g in enumerate_connected_bipartite(5):
            key = (g.n1, g.n2, tuple(g.edges()))
            assert key not in seen
            seen.add(key)

    def test_min_n_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_connected_bipartite(4, min_n=1))

    def test_empty_range(self):
        assert list(enumerate_connected_bipartite(1)) == []
