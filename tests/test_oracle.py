"""Exact maximum-order searches: branch and bound vs full enumeration."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bipartite_graphs, transpose
from moddeg import (
    ENUMERATION_LIMIT,
    BipartiteGraph,
    ResidueSpec,
    VertexSet,
    enumerate_max_order,
    exact_max_order,
    oracle,
    verify_residue,
)
from moddeg.generators import (
    complete_bipartite,
    generate,
    matching,
    random_bipartite,
    star,
)


def cycle6() -> BipartiteGraph:
    # hexagon 0-3-1-4-2-5-0
    return BipartiteGraph.from_edges(
        3, 3, [(0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)]
    )


def path4() -> BipartiteGraph:
    return BipartiteGraph.from_edges(2, 2, [(0, 2), (1, 2), (1, 3)])


FROZEN_VALUES = [
    # [DERIVED] frozen from an independent subset enumeration
    (path4, (1, 2), 2),
    (path4, (0, 2), 2),
    (cycle6, (1, 2), 4),
    (cycle6, (0, 2), 6),
    (cycle6, (1, 3), 4),
    (lambda: star(3), (1, 2), 4),
    (lambda: complete_bipartite(3, 3), (1, 3), 2),
    (lambda: complete_bipartite(3, 3), (0, 2), 4),
    (lambda: complete_bipartite(3, 3), (1, 2), 6),
    (lambda: complete_bipartite(2, 3), (1, 2), 4),
    (lambda: matching(1), (1, 2), 2),
]


# [DERIVED] optima of generate("random", seed=s, n1=16, n2=10, p=0.25) for
# s = 0..39 at residue 1 mod 3, recorded with the search that pruned only on
# included plus undecided vertices and decided them in plain degree order
FROZEN_RANDOM_OPTIMA = [
    16, 14, 14, 15, 14, 16, 13, 14, 16, 14, 17, 15, 16, 15, 17, 15, 14, 16, 15, 16,
    17, 15, 15, 15, 16, 16, 16, 16, 15, 14, 14, 14, 14, 17, 16, 14, 15, 15, 14, 14,
]

# (explored, bound_prunes, infeasible_prunes, improvements) of the search
FROZEN_COUNTERS = [
    (cycle6, (1, 2), (5, 1, 0, 1)),
    (lambda: complete_bipartite(3, 3), (0, 2), (5, 1, 1, 1)),
    (lambda: complete_bipartite(3, 3), (1, 3), (5, 1, 2, 1)),
    (lambda: complete_bipartite(8, 8), (1, 2), (10, 1, 1, 1)),
]


class TestExactMaxOrder:
    @pytest.mark.parametrize("make,spec,value", FROZEN_VALUES)
    def test_frozen_small_graphs(self, make, spec, value):
        g = make()
        result = exact_max_order(g, ResidueSpec(*spec))
        assert result.order == value
        assert not result.timed_out and result.exact

    @pytest.mark.parametrize("make,spec,counts", FROZEN_COUNTERS)
    def test_frozen_counters(self, make, spec, counts):
        result = exact_max_order(make(), ResidueSpec(*spec))
        assert (
            result.explored,
            result.bound_prunes,
            result.infeasible_prunes,
            result.improvements,
        ) == counts

    def test_frozen_random_optima(self):
        optima = []
        for seed in range(len(FROZEN_RANDOM_OPTIMA)):
            g, _ = generate("random", seed=seed, n1=16, n2=10, p=0.25)
            result = exact_max_order(g, ResidueSpec(1, 3))
            assert result.exact
            optima.append(result.order)
        assert optima == FROZEN_RANDOM_OPTIMA

    def test_single_edge_for_every_modulus(self):
        g = matching(1)
        for k in range(2, 9):
            assert exact_max_order(g, ResidueSpec(1, k)).order == 2

    def test_complete_balanced_value_two(self):
        for k in range(2, 7):
            result = exact_max_order(complete_bipartite(k, k), ResidueSpec(1, k))
            assert result.order == 2

    def test_witness_achieves_the_order(self):
        g = cycle6()
        spec = ResidueSpec(1, 2)
        result = exact_max_order(g, spec)
        assert len(result.witness) == result.order
        assert verify_residue(g, result.witness, spec).ok

    def test_unattainable_residue_gives_empty_witness(self):
        g = matching(1)
        result = exact_max_order(g, ResidueSpec(3, 5))
        assert result.order == 0
        assert result.witness == VertexSet.from_ids([], g.n)
        assert result.exact

    def test_budget_exhaustion_flags_timeout(self):
        g = complete_bipartite(10, 10)  # the full search takes 12 nodes
        result = exact_max_order(g, ResidueSpec(1, 2), budget=10)
        assert result.timed_out and not result.exact
        assert result.explored >= 10
        assert result.explored == result.budget
        # the partial answer is still a verified lower bound
        assert verify_residue(g, result.witness, ResidueSpec(1, 2)).ok
        full = exact_max_order(g, ResidueSpec(1, 2))
        assert result.order <= full.order

    def test_proves_a_sixty_vertex_optimum(self):
        g, _ = generate("regularish", seed=1, n1=40, n2=20, degree=3)
        # the budget caps the work: a search that needs far more nodes
        # than this one does (about 15k) fails here instead of running on
        result = exact_max_order(g, ResidueSpec(1, 3), budget=200_000)
        assert result.exact
        assert result.order == 36

    def test_validation(self):
        g = matching(1)
        with pytest.raises(ValueError):
            exact_max_order(g, ResidueSpec(1, 2), budget=0)


class TestEnumerationCrossCheck:
    @given(
        bipartite_graphs(max_side1=5, max_side2=5),
        st.integers(0, 4),
        st.integers(2, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_pruned_equals_naive(self, g, r, q):
        if r >= q:
            r %= q
        spec = ResidueSpec(r, q)
        pruned = exact_max_order(g, spec)
        naive = enumerate_max_order(g, spec)
        assert pruned.order == naive.order
        if naive.order:
            assert verify_residue(g, naive.witness, spec).ok

    @given(bipartite_graphs(max_side1=8, max_side2=8))
    @settings(max_examples=100, deadline=None)
    def test_both_orientations_every_residue(self, g):
        # the smaller side is decided first, so the transpose takes the
        # other branch of that rule unless the sides are equal
        swapped = transpose(g)
        for q in range(2, 6):
            for r in range(q):
                spec = ResidueSpec(r, q)
                naive = enumerate_max_order(g, spec).order
                assert exact_max_order(g, spec).order == naive
                assert exact_max_order(swapped, spec).order == naive

    def test_enumeration_refuses_large_graphs(self):
        g = matching(11)  # 22 vertices
        assert g.n == 2 * 11 > ENUMERATION_LIMIT
        with pytest.raises(ValueError):
            enumerate_max_order(g, ResidueSpec(1, 2))

    def test_enumeration_at_the_limit(self):
        g = matching(10)
        assert enumerate_max_order(g, ResidueSpec(1, 2)).order == 20


def disjoint_union(parts) -> BipartiteGraph:
    n1 = sum(g.n1 for g in parts)
    n2 = sum(g.n2 for g in parts)
    edges = []
    off1 = off2 = 0
    for g in parts:
        edges += [(off1 + u, n1 + off2 + w - g.n1) for u, w in g.edges()]
        off1 += g.n1
        off2 += g.n2
    return BipartiteGraph.from_edges(n1, n2, edges)


def check_ranking(g: BipartiteGraph, spec: ResidueSpec) -> None:
    """Assert that ``_Search._ranked`` gives, for ``g`` and ``spec``, the keys
    of a plain-Python reference that ranks one assignment at a time."""
    search = oracle._Search(g, spec, 1)
    r, q, top, rest = search.r, search.q, search.top, search.rest
    h = len(top)
    rows = {y: 0 for y in search.large}
    und = {y: 0 for y in search.large}
    for i, x in enumerate(top):
        for y in search.nbrs[x]:
            rows[y] |= 1 << i
    for x in rest:
        for y in search.nbrs[x]:
            und[y] += 1
    pairs = [(rows[y], und[y]) for y in search.large]
    keys = []
    for m in range(1 << h):
        live = [row for row, u in pairs if (r - (m & row).bit_count()) % q <= u]
        bound = len(rest) + m.bit_count() + len(live)
        if not rest:
            ks = [sum(row >> i & 1 for row in live) for i in range(h) if m >> i & 1]
            if ks and min(ks) < r:
                continue
            bound -= max([(k - r) % q for k in ks], default=0)
        keys.append(bound << h | m)
    keys.sort(reverse=True)
    assert search._ranked(h, pairs) == keys


class TestDisjointUnion:
    """The optimum of a disjoint union is the sum of its parts' optima."""

    @given(
        st.lists(bipartite_graphs(max_side1=6, max_side2=6), min_size=2, max_size=3),
        st.integers(2, 5),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sum_of_the_parts(self, parts, q, data):
        spec = ResidueSpec(data.draw(st.integers(0, q - 1)), q)
        expected = sum(enumerate_max_order(g, spec).order for g in parts)
        union = disjoint_union(parts)
        result = exact_max_order(union, spec)
        assert result.exact and result.order == expected
        assert verify_residue(union, result.witness, spec).ok

    # at r <= 1 the smaller side has more than TOP_BITS eligible vertices,
    # so its last ones are decided depth first
    @pytest.mark.parametrize("sides", [[(6, 6)] * 3, [(6, 6), (6, 5), (6, 6)]])
    @pytest.mark.parametrize("seed", range(3))
    def test_sum_past_the_ranked_vertices(self, sides, seed):
        rng = random.Random(seed)
        parts = [
            random_bipartite(n1, n2, rng.uniform(0.2, 0.6), rng) for n1, n2 in sides
        ]
        union = disjoint_union(parts)
        assert oracle._Search(union, ResidueSpec(1, 2), 1).rest
        for q in (2, 3):
            for r in range(q):
                spec = ResidueSpec(r, q)
                expected = sum(enumerate_max_order(g, spec).order for g in parts)
                result = exact_max_order(union, spec)
                assert result.exact and result.order == expected
                assert verify_residue(union, result.witness, spec).ok
                check_ranking(union, spec)


class TestRankingPass:
    """The NumPy ranking pass gives the keys of a plain-Python reference
    that ranks one assignment at a time."""

    @given(bipartite_graphs(max_side1=8, max_side2=8))
    @settings(max_examples=60, deadline=None)
    def test_same_keys_as_the_reference(self, g):
        swapped = transpose(g)
        for q in range(2, 6):
            for r in range(q):
                spec = ResidueSpec(r, q)
                check_ranking(g, spec)
                check_ranking(swapped, spec)

    def test_no_eligible_vertex(self):
        # no vertex has r = 2 neighbours, so no top vertex is ranked (h = 0)
        g, spec = matching(3), ResidueSpec(2, 3)
        search = oracle._Search(g, spec, 1)
        assert (search.top, search.rest) == ([], [])
        check_ranking(g, spec)

    @pytest.mark.parametrize("n1, rest", [(16, 0), (17, 1)])
    def test_every_top_bit(self, n1, rest):
        g = random_bipartite(n1, n1 + 1, 0.3, random.Random(3))
        spec = ResidueSpec(1, 3)
        search = oracle._Search(g, spec, 1)
        assert (len(search.top), len(search.rest)) == (oracle.TOP_BITS, rest)
        check_ranking(g, spec)


class TestAssignmentTables:
    """The ranking pass's per-size tables are built once and shared by every
    search, so none of them may be written."""

    @pytest.mark.parametrize("h", [0, 1, 5, oracle.TOP_BITS])
    def test_contents(self, h):
        masks, bits = oracle._assignments(h)
        assert masks.tolist() == list(range(1 << h))
        assert bits.tolist() == [[m >> i & 1 for m in range(1 << h)] for i in range(h)]

    def test_built_once_and_read_only(self):
        masks, bits = oracle._assignments(4)
        assert oracle._assignments(4)[0] is masks
        with pytest.raises(ValueError):
            masks[3] = 0
        with pytest.raises(ValueError):
            bits[0] += 1
        assert masks[3] == 3 and bits[0].tolist() == [0, 1] * 8


def relabel(g: BipartiteGraph, perm1, perm2) -> BipartiteGraph:
    edges = [
        (perm1[u], g.n1 + perm2[w - g.n1]) for u, w in g.edges()
    ]
    return BipartiteGraph.from_edges(g.n1, g.n2, edges)


class TestInvariance:
    @given(bipartite_graphs(max_side1=6, max_side2=6), st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_relabeling_does_not_move_the_value(self, g, rng):
        spec = ResidueSpec(1, 3)
        perm1 = list(range(g.n1))
        perm2 = list(range(g.n2))
        rng.shuffle(perm1)
        rng.shuffle(perm2)
        assert exact_max_order(relabel(g, perm1, perm2), spec).order == (
            exact_max_order(g, spec).order
        )

    @given(bipartite_graphs(max_side1=6, max_side2=6))
    @settings(max_examples=50, deadline=None)
    def test_side_swap_does_not_move_the_value(self, g):
        spec = ResidueSpec(1, 2)
        assert exact_max_order(transpose(g), spec).order == (
            exact_max_order(g, spec).order
        )
