"""Instance generators and the exhaustive small-graph enumeration."""

from __future__ import annotations

import random
import tracemalloc
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from enumeration import enumerate_connected_bipartite
from moddeg import generators
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
    # rows of random.sample's set branch: repeats in most rows, heavy
    # rejection (1025 takes 11 bits), none (1024 takes 10)
    (300, 300, 30), (200, 1025, 3), (200, 1024, 3),
    # either side of random.sample's set-size threshold: 85 pool, 86 set;
    # at degree 5 the threshold is 21, at degree 6 it is 85
    (50, 85, 6), (50, 86, 6), (50, 22, 5), (50, 22, 6),
    # rows over several of the blocks the generator reads its words in: many
    # rows of the set branch, many of the pool branch, then one row of each
    # longer than a block
    (5000, 300, 30), (6000, 60, 12), (1, 200000, 100000), (1, 300000, 70000),
])
def test_regularish_keeps_its_draws(n1, n2, degree):
    for seed in range(3):
        rng, same = random.Random(seed), random.Random(seed)
        assert random_regularish(n1, n2, degree, rng) == reference_regularish(
            n1, n2, degree, same
        )
        assert rng.getstate() == same.getstate()


@settings(max_examples=200, deadline=None)
@given(
    n1=st.integers(1, 40),
    n2=st.integers(1, 300),
    degree=st.integers(1, 30),
    block=st.integers(2, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_regularish_keeps_its_draws_across_blocks(n1, n2, degree, block, seed):
    # blocks this short end inside rows of either branch of random.sample
    degree = min(degree, n2)
    rng, same = random.Random(seed), random.Random(seed)
    with mock.patch.object(generators, "_BLOCK_WORDS", block):
        graph = random_regularish(n1, n2, degree, rng)
    assert graph == reference_regularish(n1, n2, degree, same)
    assert rng.getstate() == same.getstate()


@pytest.mark.parametrize("n1, n2, degree", [(40, 20, 3), (200, 100, 3)])
def test_regularish_reads_blocks_sized_to_its_draws(n1, n2, degree):
    # a small graph reads a few words per value, not a full block
    with mock.patch.object(generators, "_words", wraps=generators._words) as words:
        graph = random_regularish(n1, n2, degree, random.Random(1))
    read = sum(call.args[1] for call in words.call_args_list)
    # one value per edge: n1 * degree picks, then one per repaired vertex
    assert read <= 8 * graph.edge_count()


def reference_random(n1, n2, p, rng):
    """The generator's draws as lists: one ``random()`` per pair in ascending
    (u, w) order, then one ``randrange`` per isolated side-1 vertex, then one
    per side-2 vertex still isolated, each in ascending id order."""
    present = [[rng.random() < p for _ in range(n2)] for _ in range(n1)]
    for u in range(n1):
        if not any(present[u]):
            present[u][rng.randrange(n2)] = True
    for w in range(n2):
        if not any(present[u][w] for u in range(n1)):
            present[rng.randrange(n1)][w] = True
    edges = [(u, n1 + w) for u in range(n1) for w in range(n2) if present[u][w]]
    return BipartiteGraph.from_edges(n1, n2, edges)


def assert_random_keeps_its_draws(n1, n2, p, seed):
    rng, same = random.Random(seed), random.Random(seed)
    assert random_bipartite(n1, n2, p, rng) == reference_random(n1, n2, p, same)
    assert rng.getstate() == same.getstate()


@pytest.mark.parametrize("n1, n2, p", [
    (1, 1, 0.5), (5, 3, 0.0), (3, 4, 1.0), (16, 10, 0.25), (200, 100, 0.25),
    (30, 3, 0.02),  # repairs on both sides
])
def test_random_keeps_its_draws(n1, n2, p):
    for seed in range(3):
        assert_random_keeps_its_draws(n1, n2, p, seed)


@settings(max_examples=100, deadline=None)
@given(
    n1=st.integers(1, 40),
    n2=st.integers(1, 40),
    p=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_keeps_its_draws_at_any_p(n1, n2, p, seed):
    assert_random_keeps_its_draws(n1, n2, p, seed)


class TestGenerateMemory:
    """The traced peak of a random generator stays at most the one of the
    per-call code, which built its draws as lists: 19.6 MiB for
    ``random_bipartite(2000, 1000, 0.01)`` and 15.8 MiB for
    ``random_regularish(8000, 800, 40)``."""

    @staticmethod
    def peak_mib(build, *args) -> float:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            build(*args)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def test_random_peak(self):
        assert self.peak_mib(random_bipartite, 2000, 1000, 0.01, random.Random(1)) <= 19.6

    def test_regularish_peak(self):
        assert self.peak_mib(random_regularish, 8000, 800, 40, random.Random(1)) <= 15.8


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
        ("regularish", {"n1": 1, "n2": 2**32, "degree": 1}, ValueError),
        ("regularish", {"n1": 2**32, "n2": 1, "degree": 1}, ValueError),
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
