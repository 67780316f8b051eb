"""Graph core: bitsets, validation, residue verification, parsing."""

from __future__ import annotations

import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bipartite_graphs
from moddeg import graph as graph_module
from moddeg.cli import main
from moddeg.generators import complete_bipartite, random_regularish
from moddeg.graph import (
    BipartiteGraph,
    DuplicateEdgeWarning,
    GraphError,
    IsolatedVertexError,
    NotBipartiteError,
    ResidueSpec,
    VertexSet,
    parse_graph,
    serialize_graph,
    verify_residue,
)

id_sets = st.sets(st.integers(0, 40), max_size=12)
ID_RANGE = 41  # the vertex count that id_sets draw from


def within(g: BipartiteGraph, ids) -> VertexSet:
    """The members of ``ids`` among the vertices of ``g``."""
    return VertexSet.from_ids([v for v in ids if v < g.n], g.n)


class TestVertexSet:
    @given(id_sets, id_sets)
    def test_operations_match_python_sets(self, a, b):
        va, vb = VertexSet.from_ids(a, ID_RANGE), VertexSet.from_ids(b, ID_RANGE)
        assert set(va | vb) == a | b
        assert set(va & vb) == a & b
        assert set(va - vb) == a - b
        assert (va <= vb) == (a <= b)
        assert va.isdisjoint(vb) == a.isdisjoint(b)
        assert len(va) == len(a)
        assert (va == vb) == (a == b)
        assert (hash(va) == hash(vb)) or a != b

    @given(id_sets)
    def test_iteration_is_ascending(self, a):
        assert list(VertexSet.from_ids(a, ID_RANGE)) == sorted(a)
        assert VertexSet.from_ids(a, ID_RANGE).ids() == sorted(a)

    def test_membership_add_remove(self):
        s = VertexSet.from_ids([1, 5], 8)
        assert 5 in s and 2 not in s
        assert -1 not in s and 8 not in s  # no wrap-around, no IndexError
        assert set(s | VertexSet.from_ids([2], 8)) == {1, 2, 5}
        assert set(s - VertexSet.from_ids([5], 8)) == {1}
        assert set(s) == {1, 5}  # originals untouched
        assert VertexSet.from_ids([7], 8).mask.tolist() == [False] * 7 + [True]

    def test_len_is_popcount(self):
        mask = np.array([1, 1, 0, 1, 1, 0, 1], dtype=bool)
        assert len(VertexSet(mask)) == 5

    def test_mask_must_be_a_flat_bool_array(self):
        for bad in (0b1011, np.array([0, 1]), np.zeros((2, 2), dtype=bool), [True]):
            with pytest.raises(TypeError):
                VertexSet(bad)

    def test_masks_are_read_only(self):
        mask = np.zeros(4, dtype=bool)
        s = VertexSet(mask)
        for made in (s, VertexSet.from_ids([1], 4), s | VertexSet.from_ids([2], 4),
                     s - s, s & s, s.select(np.array([], dtype=bool))):
            assert not made.mask.flags.writeable
            with pytest.raises(ValueError):
                made.mask[0] = True
        g = BipartiteGraph.from_edges(1, 1, [(0, 1)])
        for made in (g.side1, g.side2, g.vertices):
            assert not made.mask.flags.writeable

    def test_truthiness_and_hash(self):
        assert not VertexSet.from_ids([], 3)
        assert VertexSet.from_ids([0], 3)
        assert hash(VertexSet.from_ids([2, 3], 4)) == hash(
            VertexSet(np.array([0, 0, 1, 1], dtype=bool))
        )

    @pytest.mark.parametrize("ids, first", [
        ([0, 4, 9, 5], 4), ([-1, 2], -1), ([3, 2**70], 2**70),
        (np.array([1, -3, 7]), -3), (np.array([0, 3, 4]), 4),
        # named exactly, not by its wrapped int64 value
        (np.array([2**63], dtype=np.uint64), 2**63),
    ])
    def test_ids_outside_the_graph_are_refused(self, ids, first):
        with pytest.raises(ValueError, match=rf"^vertex id {first} outside \[0, 4\)$"):
            VertexSet.from_ids(ids, 4)

    @pytest.mark.parametrize("ids, want", [
        ([True, False, True, False], [0, 1]), ([True], [1]),
        (np.array([True, False, True]), [0, 1]),
    ])
    def test_bools_are_the_ids_one_and_zero_not_a_mask(self, ids, want):
        assert VertexSet.from_ids(ids, 4).ids() == want

    @pytest.mark.parametrize("ids", [[1.5], np.array([1.5]), np.array([1.0])])
    def test_float_ids_are_refused_not_truncated(self, ids):
        with pytest.raises(IndexError):
            VertexSet.from_ids(ids, 4)

    def test_out_of_range_id_is_refused_before_verification(self):
        g = complete_bipartite(2, 2)
        with pytest.raises(ValueError, match="vertex id 9 outside"):
            verify_residue(g, VertexSet.from_ids([0, 2, 9], g.n), ResidueSpec(1, 2))

    def test_sets_over_different_counts_do_not_mix(self):
        small, large = VertexSet.from_ids([1], 3), VertexSet.from_ids([1], 4)
        assert small != large
        for op in ("__or__", "__and__", "__sub__", "__le__", "isdisjoint"):
            with pytest.raises(ValueError, match="over 3 and 4 vertices"):
                getattr(small, op)(large)
        g = complete_bipartite(2, 2)
        with pytest.raises(ValueError, match="vertex set over 3 vertices"):
            g.degrees_into(small, g.side2)
        with pytest.raises(ValueError, match="vertex set over 3 vertices"):
            g.degrees_into(g.side1, small)

    @given(id_sets, st.data())
    def test_select_and_contains_each(self, a, data):
        s = VertexSet.from_ids(a, ID_RANGE)
        keep = data.draw(st.lists(st.booleans(), min_size=len(a), max_size=len(a)))
        picked = s.select(np.array(keep, dtype=bool))
        assert picked.ids() == [v for v, k in zip(sorted(a), keep) if k]
        probe = np.arange(ID_RANGE)
        assert s.contains_each(probe).tolist() == [v in a for v in range(ID_RANGE)]


class TestResidueSpec:
    def test_bounds(self):
        ResidueSpec(0, 2)
        ResidueSpec(1, 2)
        with pytest.raises(ValueError):
            ResidueSpec(1, 1)
        with pytest.raises(ValueError):
            ResidueSpec(2, 2)
        with pytest.raises(ValueError):
            ResidueSpec(-1, 3)


class TestFromEdges:
    def test_complete_shape(self):
        g = BipartiteGraph.from_edges(3, 3, [(u, 3 + w) for u in range(3) for w in range(3)])
        assert (g.n1, g.n2, g.n) == (3, 3, 6)
        assert g.edge_count() == 9
        assert all(len(g.neighbor_ids(v)) == 3 for v in range(6))
        assert set(g.side1) == {0, 1, 2}
        assert set(g.side2) == {3, 4, 5}
        assert set(g.vertices) == set(range(6))

    def test_endpoint_order_is_free(self):
        a = BipartiteGraph.from_edges(1, 1, [(0, 1)])
        b = BipartiteGraph.from_edges(1, 1, [(1, 0)])
        assert a == b

    def test_out_of_range_edge(self):
        with pytest.raises(GraphError):
            BipartiteGraph.from_edges(1, 1, [(0, 2)])

    def test_same_side_edge(self):
        with pytest.raises(GraphError):
            BipartiteGraph.from_edges(2, 2, [(0, 1), (0, 2), (1, 3)])

    def test_isolated_vertex(self):
        with pytest.raises(IsolatedVertexError):
            BipartiteGraph.from_edges(2, 1, [(0, 2)])

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("edges, message", [
        ([(0, 2), (5, 1)], "edge (5, 1) out of range for 4 vertices"),
        ([(0, 2), (2, -1)], "edge (2, -1) out of range for 4 vertices"),
        ([(0, 2), (3, 2)], "edge (2, 3) does not join side 1 to side 2"),
        ([(1, 0), (0, 3)], "edge (0, 1) does not join side 1 to side 2"),
        # the first bad edge in input order is named, whichever its kind
        ([(0, 2), (1, 0), (4, 0)], "edge (0, 1) does not join side 1 to side 2"),
        ([(0, 2), (4, 0), (1, 0)], "edge (4, 0) out of range for 4 vertices"),
    ])
    def test_bad_edge_messages(self, edges, message, as_array):
        given_edges = np.array(edges) if as_array else edges
        with pytest.raises(GraphError) as caught:
            BipartiteGraph.from_edges(2, 2, given_edges)
        assert str(caught.value) == message

    @pytest.mark.parametrize("edges", [
        [(0, 1.5)], [(0.9, 1)], [(0, np.float64(1.0))], [(0, 1), 2],
    ])
    def test_non_integer_ids_are_refused_not_truncated(self, edges):
        with pytest.raises(GraphError, match="^edges must be pairs of integer vertex ids$"):
            BipartiteGraph.from_edges(1, 1, edges)

    @pytest.mark.parametrize("big", [2**63, np.uint64(2**63), 2**70])
    def test_ids_beyond_int64_are_refused(self, big):
        with pytest.raises(GraphError, match="^edge ids out of range for 2 vertices$"):
            BipartiteGraph.from_edges(1, 1, [(0, big)])

    @pytest.mark.parametrize("layout", ["int64", "swapped columns", "int32"])
    def test_caller_array_is_left_unchanged(self, layout):
        rows = np.array([[2, 5], [0, 3], [4, 1], [1, 3], [2, 4], [0, 5]])
        edges = {
            "int64": rows,
            "swapped columns": rows[:, ::-1],
            "int32": rows.astype(np.int32),
        }[layout]
        before = edges.copy()
        g = BipartiteGraph.from_edges(3, 3, edges)
        assert edges.dtype == before.dtype and np.array_equal(edges, before)
        assert g == BipartiteGraph.from_edges(3, 3, rows.tolist())

    def test_empty_side(self):
        with pytest.raises(GraphError):
            BipartiteGraph.from_edges(0, 3, [])

    def test_duplicate_policies(self):
        edges = [(0, 1), (0, 1)]
        with pytest.warns(DuplicateEdgeWarning):
            g = BipartiteGraph.from_edges(1, 1, edges)
        assert g.edge_count() == 1

    def test_duplicates_give_the_deduplicated_csr(self):
        edges = np.array([[1, 2], [3, 0], [2, 1], [0, 2], [0, 3], [1, 2]])
        with pytest.warns(DuplicateEdgeWarning, match="deduplicated 3 repeated"):
            g = BipartiteGraph.from_edges(2, 2, edges)
        assert g.adj[0].tolist() == [0, 2, 3, 5, 6]
        assert g.adj[1].tolist() == [2, 3, 2, 0, 1, 0]
        assert g == BipartiteGraph.from_edges(2, 2, [(1, 2), (3, 0), (0, 2)])

    def test_immutable(self):
        g = BipartiteGraph.from_edges(1, 1, [(0, 1)])
        with pytest.raises(AttributeError):
            g.n1 = 2

    def test_value_semantics(self):
        edges = [(0, 3), (1, 3), (1, 4), (2, 4)]
        g = BipartiteGraph.from_edges(3, 2, edges)
        shuffled = BipartiteGraph.from_edges(3, 2, [(4, 2), (3, 0), (4, 1), (1, 3)])
        with pytest.warns(DuplicateEdgeWarning):
            doubled = BipartiteGraph.from_edges(3, 2, edges + [(3, 1), (0, 3)])
        assert g == shuffled == doubled
        assert hash(g) == hash(shuffled) == hash(doubled)
        assert len({g, shuffled, doubled}) == 1
        assert g != BipartiteGraph.from_edges(3, 2, edges[:3] + [(2, 3)])
        assert g != BipartiteGraph.from_edges(2, 3, [(0, 2), (0, 3), (1, 3), (1, 4)])
        assert g != "graph"
        for array in g.adj:
            with pytest.raises(ValueError):
                array[0] = 1

    def test_csr_layout(self):
        g = BipartiteGraph.from_edges(2, 2, [(1, 2), (3, 0), (0, 2)])
        indptr, indices = g.adj
        assert indptr.tolist() == [0, 2, 3, 5, 6]
        assert indices.tolist() == [2, 3, 2, 0, 1, 0]
        assert g.neighbor_ids(2) == [0, 1]
        assert all(a.dtype == "int64" and a.flags.owndata for a in g.adj)

    @pytest.mark.filterwarnings("ignore::moddeg.DuplicateEdgeWarning")
    @given(st.data())
    def test_matches_edge_set_reference(self, data):
        n1 = data.draw(st.integers(1, 6))
        n2 = data.draw(st.integers(1, 6))
        drawn = data.draw(st.lists(st.tuples(
            st.integers(0, n1 - 1), st.integers(n1, n1 + n2 - 1), st.booleans()
        ), max_size=30))
        edges = [(w, u) if flip else (u, w) for u, w, flip in drawn]
        reference = {v: set() for v in range(n1 + n2)}
        for a, b in edges:
            reference[a].add(b)
            reference[b].add(a)
        if not all(reference.values()):
            with pytest.raises(IsolatedVertexError):
                BipartiteGraph.from_edges(n1, n2, edges)
            return
        g = BipartiteGraph.from_edges(n1, n2, edges)
        subset = VertexSet.from_ids(
            data.draw(st.sets(st.integers(0, n1 + n2 - 1))), n1 + n2
        )
        for v, nbrs in reference.items():
            assert g.neighbor_ids(v) == sorted(nbrs)
        ids, counts = g.degrees_into(g.vertices, subset)
        assert ids.dtype == counts.dtype == "int64"
        assert ids.tolist() == list(reference)
        members = set(subset)
        assert counts.tolist() == [len(nbrs & members) for nbrs in reference.values()]
        assert g.edges() == sorted({(min(e), max(e)) for e in edges})
        assert g.edge_count() == len(g.edges())

    @given(bipartite_graphs())
    def test_adjacency_is_symmetric_and_cross_side(self, g):
        for v in range(g.n):
            for u in g.neighbor_ids(v):
                assert v in g.neighbor_ids(u)
                assert (v < g.n1) != (u < g.n1)
            assert len(g.neighbor_ids(v)) >= 1


class TestBuildMemory:
    """The working memory of a graph build, as traced by ``tracemalloc``,
    to which NumPy reports its buffers: at most a small multiple of the CSR
    it returns."""

    @pytest.fixture(scope="class")
    def graph_and_edges(self):
        g = random_regularish(20000, 10000, 5, random.Random(1))
        left, right = g._edge_ends()
        order = np.random.default_rng(1).permutation(g.edge_count())
        return g, np.column_stack((left, right))[order]

    @staticmethod
    def peak_ratio(build, *args) -> float:
        """The traced peak of ``build(*args)`` over its CSR's bytes."""
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            g = build(*args)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return peak / sum(array.nbytes for array in g.adj)

    def test_from_edges_peak(self, graph_and_edges):
        g, edges = graph_and_edges
        assert len(edges) > 100_000
        assert self.peak_ratio(BipartiteGraph.from_edges, g.n1, g.n2, edges) <= 2.0

    def test_parse_graph_peak(self, graph_and_edges):
        g, _ = graph_and_edges
        assert self.peak_ratio(parse_graph, serialize_graph(g)) <= 3.5


class TestDegreeQueries:
    @given(bipartite_graphs(), id_sets, id_sets)
    def test_degree_in_additive_over_disjoint_sets(self, g, a, b):
        va = within(g, a)
        vb = within(g, b) - va
        (ids, union), (_, left), (_, right) = (
            g.degrees_into(g.vertices, s) for s in (va | vb, va, vb)
        )
        assert ids.tolist() == list(range(g.n))
        for v in range(g.n):
            recount = len(set(g.neighbor_ids(v)) & set(va | vb))
            assert union[v] == left[v] + right[v] == recount

    def test_empty_and_full(self):
        g = BipartiteGraph.from_edges(2, 2, [(0, 2), (0, 3), (1, 3)])
        def pairs(pool, subset):
            ids, counts = g.degrees_into(pool, subset)
            assert ids.dtype == counts.dtype == "int64"
            return list(zip(ids.tolist(), counts.tolist()))

        one = VertexSet.from_ids([0], g.n)
        empty = VertexSet.from_ids([], g.n)
        assert pairs(one, empty) == [(0, 0)]
        assert pairs(one, g.vertices) == [(0, len(g.neighbor_ids(0)))] == [(0, 2)]
        assert pairs(one, VertexSet.from_ids([2, 3], g.n)) == [(0, 2)]
        assert pairs(empty, g.vertices) == []


class TestPoolRows:
    """``degrees_into`` and ``last_neighbors`` read only the rows from the
    pool's first member to its last; each is checked against a recount of
    every member's whole row."""

    @staticmethod
    def pools(g):
        yield from (g.side1, g.side2, g.vertices, VertexSet.from_ids([0], g.n),
                    VertexSet.from_ids([g.n - 1], g.n), VertexSet.from_ids([], g.n))
        yield VertexSet.from_ids(range(0, g.n, 3), g.n)  # spread over both sides

    @staticmethod
    def check(g, pool, subset):
        members = set(subset)
        rows = {v: [u for u in g.neighbor_ids(v) if u in members] for v in pool}
        ids, counts = g.degrees_into(pool, subset)
        same_ids, same_counts, last = g.last_neighbors(pool, subset)
        for array in (ids, counts, same_ids, same_counts, last):
            assert array.dtype == "int64"
        assert ids.tolist() == same_ids.tolist() == list(rows)
        assert counts.tolist() == same_counts.tolist() == [len(r) for r in rows.values()]
        assert last.tolist() == [max(r, default=-1) for r in rows.values()]

    @given(bipartite_graphs(), id_sets)
    def test_every_pool_matches_a_recount(self, g, subset):
        subset = within(g, subset)
        for pool in self.pools(g):
            for s in (subset, VertexSet.from_ids([], g.n), g.vertices):
                self.check(g, pool, s)

    def test_sole_neighbour_is_the_last_one(self):
        g = BipartiteGraph.from_edges(3, 2, [(0, 3), (0, 4), (1, 4), (2, 3), (2, 4)])
        ids, counts, last = g.last_neighbors(g.side1, VertexSet.from_ids([3], g.n))
        assert (ids.tolist(), counts.tolist(), last.tolist()) == (
            [0, 1, 2], [1, 0, 1], [3, -1, 3]
        )
        ids, counts, last = g.last_neighbors(g.side2, g.side1)
        assert (ids.tolist(), counts.tolist(), last.tolist()) == (
            [3, 4], [2, 3], [2, 2]
        )


class TestNeighborsWithin:
    """``neighbors_within`` is checked against each member's whole row cut
    to the subset."""

    @staticmethod
    def rows(g, pool, subset):
        ids, offsets, neighbors = g.neighbors_within(pool, subset)
        for array in (ids, offsets, neighbors):
            assert array.dtype == "int64"
        assert ids.tolist() == pool.ids()
        assert offsets[0] == 0 and offsets[-1] == len(neighbors)
        return [neighbors[a:b].tolist() for a, b in zip(offsets, offsets[1:])]

    @given(bipartite_graphs(), id_sets, id_sets)
    def test_every_pool_matches_a_cut_row(self, g, pool, subset):
        subset = within(g, subset)
        for p in (*TestPoolRows.pools(g), within(g, pool)):
            for s in (subset, VertexSet.from_ids([], g.n), g.vertices):
                assert self.rows(g, p, s) == [
                    [u for u in g.neighbor_ids(v) if u in s] for v in p
                ]

    def test_empty_pool_and_empty_subset(self):
        g = BipartiteGraph.from_edges(2, 2, [(0, 2), (0, 3), (1, 3)])
        empty = VertexSet.from_ids([], g.n)
        ids, offsets, neighbors = g.neighbors_within(empty, g.vertices)
        assert (ids.tolist(), offsets.tolist(), neighbors.tolist()) == ([], [0], [])
        assert self.rows(g, empty, empty) == []
        assert self.rows(g, g.side1, empty) == [[], []]
        assert self.rows(g, g.side2, empty) == [[], []]

    def test_rows_between_members_are_left_out(self):
        g = BipartiteGraph.from_edges(
            3, 3, [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)]
        )
        gaps = VertexSet.from_ids([0, 2], g.n)
        ids, offsets, neighbors = g.neighbors_within(gaps, g.side2)
        assert (ids.tolist(), offsets.tolist(), neighbors.tolist()) == (
            [0, 2], [0, 2, 4], [3, 4, 4, 5]
        )
        assert self.rows(g, gaps, VertexSet.from_ids([4], g.n)) == [[4], [4]]
        # across the sides: the rows of 2 and 3 lie between 1 and 4
        across = VertexSet.from_ids([1, 4], g.n)
        assert self.rows(g, across, g.vertices - VertexSet.from_ids([5], g.n)) == [
            [3], [0, 2]
        ]


class TestNeighborRows:
    """``neighbor_rows`` is checked against ``neighbor_ids`` row by row."""

    @staticmethod
    def rows(g, ids):
        offsets, neighbors = g.neighbor_rows(np.array(ids, dtype=np.int64))
        assert offsets.dtype == neighbors.dtype == "int64"
        assert len(offsets) == len(ids) + 1
        assert offsets[0] == 0 and offsets[-1] == len(neighbors)
        return [neighbors[a:b].tolist() for a, b in zip(offsets, offsets[1:])]

    @given(bipartite_graphs(), st.data())
    def test_every_id_list_matches_neighbor_ids(self, g, data):
        # any order, repeats allowed, both sides, and the empty list
        ids = data.draw(st.lists(st.integers(0, g.n - 1), max_size=12))
        for some in (ids, sorted(set(ids)), [], list(range(g.n))):
            assert self.rows(g, some) == [g.neighbor_ids(v) for v in some]

    def test_empty_id_array(self):
        g = BipartiteGraph.from_edges(2, 2, [(0, 2), (0, 3), (1, 3)])
        offsets, neighbors = g.neighbor_rows(np.array([], dtype=np.int64))
        assert (offsets.tolist(), neighbors.tolist()) == ([0], [])

    def test_rows_are_gathered_in_the_order_asked(self):
        g = BipartiteGraph.from_edges(
            3, 3, [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)]
        )
        offsets, neighbors = g.neighbor_rows(np.array([5, 0, 5], dtype=np.int64))
        assert (offsets.tolist(), neighbors.tolist()) == (
            [0, 2, 4, 6], [1, 2, 3, 4, 1, 2]
        )


class TestVerifyResidue:
    def test_single_edge_all_moduli(self):
        g = BipartiteGraph.from_edges(1, 1, [(0, 1)])
        for k in range(2, 9):
            assert verify_residue(g, g.vertices, ResidueSpec(1, k))

    def test_star_odd_degrees(self):
        g = BipartiteGraph.from_edges(1, 3, [(0, 1), (0, 2), (0, 3)])
        assert verify_residue(g, g.vertices, ResidueSpec(1, 2))

    def test_failure_reports_smallest_offender(self):
        g = BipartiteGraph.from_edges(2, 2, [(0, 2), (0, 3), (1, 2), (1, 3)])
        check = verify_residue(g, g.vertices, ResidueSpec(1, 2))
        assert not check
        assert check.witness == 0
        assert check.witness_residue == 0

    def test_empty_subset_vacuous(self):
        g = BipartiteGraph.from_edges(1, 1, [(0, 1)])
        assert verify_residue(g, VertexSet.from_ids([], g.n), ResidueSpec(1, 5))

    def test_modulus_beyond_int64(self):
        g = BipartiteGraph.from_edges(1, 2, [(0, 1), (0, 2)])
        assert verify_residue(g, VertexSet.from_ids([0, 1], g.n), ResidueSpec(1, 10**20))
        check = verify_residue(g, g.vertices, ResidueSpec(1, 10**20))
        assert (check.ok, check.witness, check.witness_residue) == (False, 0, 2)

    @given(bipartite_graphs(), id_sets, st.integers(2, 6), st.integers(0, 5))
    def test_agrees_with_naive_recount(self, g, raw, q, r):
        subset = within(g, raw)
        spec = ResidueSpec(r % q, q)
        members = set(subset)
        naive_ok = all(
            len(set(g.neighbor_ids(v)) & members) % q == spec.residue for v in members
        )
        assert bool(verify_residue(g, subset, spec)) == naive_ok


class TestParseLabeled:
    def test_two_disjoint_edges(self):
        g = parse_graph("2 2\n0 2\n1 3\n")
        assert (g.n1, g.n2, g.edge_count()) == (2, 2, 2)

    def test_k33_with_comments(self):
        lines = ["# complete", "3 3"] + [f"{u} {3 + w}" for u in range(3) for w in range(3)]
        g = parse_graph("\n".join(lines))
        assert g.edge_count() == 9

    def test_missing_header(self):
        with pytest.raises(GraphError):
            parse_graph("# nothing\n")

    def test_malformed_line(self):
        with pytest.raises(GraphError):
            parse_graph("2 2\n0 2 9\n")
        with pytest.raises(GraphError):
            parse_graph("2 2\n0 two\n")

    def test_side_ranges_enforced(self):
        with pytest.raises(GraphError):
            parse_graph("2 2\n2 3\n")  # u must be < n1
        with pytest.raises(GraphError):
            parse_graph("2 2\n0 1\n")  # v must be >= n1

    def test_keeps_the_declared_sides(self):
        g = parse_graph("1 3\n0 1\n0 2\n0 3\n")
        assert (g.n1, g.n2) == (1, 3)
        assert g.neighbor_ids(0) == [1, 2, 3]  # the center stays the side-1 hub

    def test_duplicate_edge_warns(self):
        with pytest.warns(DuplicateEdgeWarning):
            parse_graph("1 1\n0 1\n0 1\n")


class TestParsePermissive:
    def test_path_two_coloring(self):
        g = parse_graph("10 20\n20 30\n30 40\n", permissive=True)
        assert (g.n1, g.n2) == (2, 2)
        assert g.edge_count() == 3

    def test_odd_cycle_rejected(self):
        with pytest.raises(NotBipartiteError):
            parse_graph("0 1\n1 2\n2 0\n", permissive=True)

    def test_self_loop_rejected(self):
        with pytest.raises(NotBipartiteError):
            parse_graph("0 0\n", permissive=True)

    def test_negative_id_rejected(self):
        with pytest.raises(GraphError):
            parse_graph("-1 2\n", permissive=True)

    def test_side_of_smallest_id_is_side_1_whatever_its_size(self):
        g = parse_graph("0 1\n0 2\n0 3\n", permissive=True)
        assert (g.n1, g.n2) == (1, 3)

    def test_tie_goes_to_side_of_smallest_id(self):
        # components: 0-9 and 5-6; sides {0, 5} vs {9, 6}: tie on size,
        # vertex 0's side must stay side 1
        g = parse_graph("0 9\n5 6\n", permissive=True)
        assert (g.n1, g.n2) == (2, 2)
        ids, counts = g.degrees_into(VertexSet.from_ids([0], g.n), g.side2)
        assert (ids.tolist(), counts.tolist()) == ([0], [1])

    def test_empty_document(self):
        with pytest.raises(GraphError):
            parse_graph("", permissive=True)


class TestParseMessages:
    """Every way a document is refused, with its exact message, and the
    spellings of a valid document that must all read as the same graph."""

    @pytest.mark.parametrize("text, permissive, error, message", [
        ("", False, GraphError, "empty document: missing 'n1 n2' header"),
        ("# nothing\n\n", False, GraphError, "empty document: missing 'n1 n2' header"),
        ("5\n0 1\n", False, GraphError, "line 1: expected two integers, got '5'"),
        ("2 2 2\n0 2\n1 3\n", False, GraphError,
         "line 1: expected two integers, got '2 2 2'"),
        ("# c\n\n2 x\n0 2\n", False, GraphError,
         "line 3: expected two integers, got '2 x'"),
        ("2 2\n0 2\n1 two\n", False, GraphError,
         "line 3: expected two integers, got '1 two'"),
        ("2 2\n0 2\n1 3 3\n", False, GraphError,
         "line 3: expected two integers, got '1 3 3'"),
        ("2 2\n0 2 1 3\n1 3\n", False, GraphError,
         "line 2: expected two integers, got '0 2 1 3'"),
        ("2 2\n0 2\n1\n", False, GraphError, "line 3: expected two integers, got '1'"),
        ("2 2\n0 2\n1 3.0\n", False, GraphError,
         "line 3: expected two integers, got '1 3.0'"),
        ("2 2\n0 2 # x\n1 3\n", False, GraphError,
         "line 2: expected two integers, got '0 2 # x'"),
        ("2 2\r\n0 2\r\n1 x\r\n", False, GraphError,
         "line 3: expected two integers, got '1 x'"),
        ("0 2\n0 1\n", False, GraphError, "line 1: sides must be positive, got 0 2"),
        ("2 -1\n0 2\n", False, GraphError, "line 1: sides must be positive, got 2 -1"),
        ("3 1\n0 3\n1 3\n", False, GraphError,
         "line 1: header declares sides of 3 and 1 vertices "
         "but only 2 edge lines follow"),
        ("1000000 1\n0 1000000\n", False, GraphError,
         "line 1: header declares sides of 1000000 and 1 vertices "
         "but only 1 edge lines follow"),
        ("99999999999999999999 1\n0 1\n", False, GraphError,
         "line 1: header declares sides of 99999999999999999999 and 1 vertices "
         "but only 1 edge lines follow"),
        ("2 2\n0 2\n2 3\n", False, GraphError,
         "line 3: vertex 2 outside side 1 range [0, 2)"),
        ("2 2\n0 2\n-1 3\n", False, GraphError,
         "line 3: vertex -1 outside side 1 range [0, 2)"),
        ("2 2\n0 2\n99999999999999999999 3\n", False, GraphError,
         "line 3: vertex 99999999999999999999 outside side 1 range [0, 2)"),
        ("2 2\n0 2\n1 1\n", False, GraphError,
         "line 3: vertex 1 outside side 2 range [2, 4)"),
        ("2 2\n0 2\n1 4\n", False, GraphError,
         "line 3: vertex 4 outside side 2 range [2, 4)"),
        ("2 2\n0 2\n1 99999999999999999999\n", False, GraphError,
         "line 3: vertex 99999999999999999999 outside side 2 range [2, 4)"),
        ("2 2\n0 2\n1 3000000000000000000\n", False, GraphError,
         "line 3: vertex 3000000000000000000 outside side 2 range [2, 4)"),
        ("1000000000000000000 1\n0 1\n", False, GraphError,
         "line 1: header declares sides of 1000000000000000000 and 1 vertices "
         "but only 1 edge lines follow"),
        ("2 2\n0 2\x0b1 x\n", False, GraphError,
         "line 3: expected two integers, got '1 x'"),
        ("2 2\n0 2\n\x0b1 4\n", False, GraphError,
         "line 4: vertex 4 outside side 2 range [2, 4)"),
        # the first bad line wins, whatever is wrong with it
        ("2 2\n0 2\n0 9\n1 x\n", False, GraphError,
         "line 3: vertex 9 outside side 2 range [2, 4)"),
        ("2 2\n0 2\n1 x\n0 9\n", False, GraphError,
         "line 3: expected two integers, got '1 x'"),
        ("3 2\n0 3\n1 3\n0 4\n", False, IsolatedVertexError,
         "vertex 2 has no incident edge"),
        ("2 3\n0 2\n1 3\n0 3\n", False, IsolatedVertexError,
         "vertex 4 has no incident edge"),
        ("2 3\n0 2\n0 3\n0 4\n", False, IsolatedVertexError,
         "vertex 1 has no incident edge"),
        ("", True, GraphError, "empty document: no edges"),
        ("# only\n", True, GraphError, "empty document: no edges"),
        ("0 x\n", True, GraphError, "line 1: expected two integers, got '0 x'"),
        ("0 0\n", True, NotBipartiteError, "line 1: self-loop at vertex 0"),
        ("1 2\n3 3\n-1 4\n", True, NotBipartiteError, "line 2: self-loop at vertex 3"),
        ("-1 -1\n", True, NotBipartiteError, "line 1: self-loop at vertex -1"),
        ("-1 2\n", True, GraphError, "line 1: negative vertex id"),
        ("1 2\n2 -5\n", True, GraphError, "line 2: negative vertex id"),
        ("0 1\n1 2\n2 0\n", True, NotBipartiteError,
         "vertices 2 and 1 are adjacent but forced to one side"),
    ])
    def test_rejected_with_exact_message(self, text, permissive, error, message):
        with pytest.raises(error) as caught:
            parse_graph(text, permissive=permissive)
        assert str(caught.value) == message

    TWO_EDGES = BipartiteGraph.from_edges(2, 2, [(0, 2), (1, 3)])
    STAR = BipartiteGraph.from_edges(3, 1, [(0, 3), (1, 3), (2, 3)])

    @pytest.mark.parametrize("text, permissive, want", [
        ("2 2\n0 2\n1 3\n", False, TWO_EDGES),
        ("2 2\n0 2\n1 3", False, TWO_EDGES),
        ("# c\n\n2 2\n\n0 2\n  # mid\n1 3\n# end", False, TWO_EDGES),
        ("2\t2\n0\t2\n1 \t 3\n", False, TWO_EDGES),
        ("  2 2  \n 0 2\n1 3 \n", False, TWO_EDGES),
        ("2 2\r\n0 2\r\n1 3\r\n", False, TWO_EDGES),
        ("+2 2\n+0 +2\n1 3\n", False, TWO_EDGES),
        ("2 2\n0 2\n1 0_3\n", False, TWO_EDGES),
        ("2 2\n0 2\n1 \u0663\n", False, TWO_EDGES),
        ("2\xa02\n0 2\n1 3\n", False, TWO_EDGES),
        ("2 2\u20280 2\u20281 3", False, TWO_EDGES),
        # a comment ends at any line break, so the edge after it counts
        ("2 2\n0 2\n1 3\n# c\u20281 2\n", False,
         BipartiteGraph.from_edges(2, 2, [(0, 2), (1, 3), (1, 2)])),
        ("1 3\n0 1\n0 2\n0 3\n", False,
         BipartiteGraph.from_edges(1, 3, [(0, 1), (0, 2), (0, 3)])),
        ("10 20\n11 21\n", True, TWO_EDGES),
        ("# c\r\n3 7\r\n\r\n7 3\r\n7 5\r\n0 7\r\n", True, STAR),
        ("0 99999999999999999999\n", True, BipartiteGraph.from_edges(1, 1, [(0, 1)])),
        ("2 2\x0b0 2\x0b1 3\n", False, TWO_EDGES),
        ("2 2\n0 2 \x0b\n1 3\n", False, TWO_EDGES),
        ("2 2\n0 2\n1 000000000000000003\n", False, TWO_EDGES),
        ("2 2\n0 2\n1 0000000000000000003\n", False, TWO_EDGES),
        ("002 2\r\n# 1 9999999999999999999\r\n0 2\r\n\t\r\n1 3", False, TWO_EDGES),
    ])
    def test_accepted_spellings(self, text, permissive, want):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DuplicateEdgeWarning)
            assert parse_graph(text, permissive=permissive) == want

    @staticmethod
    def outcome(text):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DuplicateEdgeWarning)
                return parse_graph(text)
        except GraphError as exc:
            return type(exc), str(exc)

    _token = st.sampled_from(
        ["0", "1", "2", "3", "4", "+1", "02", "-1", "1_0", "x", "#", "2.0",
         "99999999999999999999", "\u0663"]
    )
    _line = st.tuples(
        st.sampled_from(["", " ", "\t", "#"]),
        st.lists(_token, max_size=3),
        st.sampled_from([" ", "\t", " \t "]),
    ).map(lambda parts: parts[0] + parts[2].join(parts[1]))
    _edge = st.tuples(st.integers(0, 1), st.integers(2, 3)).map("{0[0]} {0[1]}".format)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_line, _edge, _edge, _edge), max_size=8),
           st.sampled_from(["2 2", "2 2", "2 3", "3 2"]))
    def test_agrees_with_the_line_by_line_reading(self, lines, header):
        text = "\n".join([header] + lines)
        # U+2028 ends a line for str.splitlines, as "\n" does, but the
        # tokenizer declines it, so this spelling takes the per-line reading
        assert self.outcome(text) == self.outcome(text.replace("\n", "\u2028"))


    @staticmethod
    def read_by_lines(text):
        """The content lines of ``text``, each token read with ``int()``."""
        rows = []
        for raw in text.splitlines():
            line = raw.strip()
            if line and not line.startswith("#"):
                rows.append([int(token) for token in line.split()])
        return rows

    _scan_token = st.one_of(
        _token,
        st.sampled_from(["007", "0" * 17 + "5", "9" * 18, "9" * 19, "1" + "0" * 18]),
    )
    _scan_line = st.one_of(
        _line,
        _edge,
        st.tuples(
            st.sampled_from(["", " ", "\t"]), _scan_token, st.sampled_from([" ", "\t"]),
            _scan_token, st.sampled_from(["", " ", " #", "\t# 5", "#", " 1 3"]),
        ).map("".join),
        st.sampled_from(["\t", " \t ", "# 1 2", "  #3 4", "#", "#\t0 9"]),
    )

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(_scan_line, st.sampled_from(["\n", "\n", "\r\n", "\r"])),
                    max_size=8),
           st.booleans())
    def test_scan_agrees_with_int_per_token(self, lines, trailing):
        text = "".join(line + end for line, end in lines)
        if lines and not trailing:
            text = text[: -len(lines[-1][1])]
        tokens = graph_module._tokenize(text)
        if tokens is not None:
            assert tokens.dtype == "int64" and tokens.shape[1] == 2
            assert tokens.tolist() == self.read_by_lines(text)

    def test_generated_documents_take_the_scan(self, tmp_path, monkeypatch):
        path = tmp_path / "regularish.txt"
        assert main(["gen", "--kind", "regularish", "--param", "n1=8000",
                     "--param", "n2=2000", "--param", "degree=3", "--seed", "4",
                     "--out", str(path)]) == 0
        text = path.read_text()
        assert text.startswith("# regularish(")
        header, *edges = self.read_by_lines(text)
        assert len(edges) >= 20_000

        self.refuse_the_line_reading(monkeypatch)
        assert parse_graph(text) == BipartiteGraph.from_edges(*header, edges)

    @staticmethod
    def refuse_the_line_reading(monkeypatch):
        def refuse(text):
            raise AssertionError(f"the scan declined {text!r}")

        monkeypatch.setattr(graph_module, "_read_labeled_lines", refuse)

    @pytest.mark.parametrize("text", [
        "2 2\r\n0 2\r\n1 3\r\n",
        "2\t2\n0\t2\n1\t3\n",
        "2  2\n0 \t 2\n1\t\t3\n",
        "  2 2\n\t0 2 \n1 3\t \n",
        "\n2 2\n\n0 2\n \t\n\n1 3\n\n",
        "# c\n2 2\n# 1 9\n0 2\n  #x\n\t# y\n1 3\n# end\n",
        "2 2\n0 2\n1 3",
    ], ids=["crlf", "tabs", "blank-runs", "indents-and-trailing-blanks", "blank-lines",
            "comment-lines", "no-final-line-end"])
    def test_each_spelling_takes_the_scan(self, text, monkeypatch):
        self.refuse_the_line_reading(monkeypatch)
        assert parse_graph(text) == self.TWO_EDGES

    _blanks = st.text(" \t", max_size=3)
    _content_line = st.tuples(
        _blanks, st.text("0123456789", min_size=1, max_size=18),
        st.text(" \t", min_size=1, max_size=3),
        st.text("0123456789", min_size=1, max_size=18), _blanks,
    ).map("".join)
    _comment_line = st.tuples(
        _blanks, st.text([chr(c) for c in range(32, 127)] + ["\t"], max_size=8),
    ).map("#".join)
    _any_line = st.one_of(_content_line, _comment_line, _blanks)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_any_line, max_size=5), _content_line,
           st.lists(_any_line, max_size=5),
           st.lists(st.sampled_from(["\n", "\r\n"]), min_size=11, max_size=11),
           st.booleans())
    def test_scan_reads_every_document_of_its_grammar(self, before, line, after,
                                                      ends, trailing):
        lines = before + [line] + after
        text = "".join(map("".join, zip(lines, ends)))
        if not trailing:
            text = text[: -len(ends[len(lines) - 1])]
        tokens = graph_module._tokenize(text)
        assert tokens is not None
        assert tokens.tolist() == self.read_by_lines(text)


class TestSerialize:
    def test_golden_form(self):
        g = BipartiteGraph.from_edges(2, 2, [(1, 3), (0, 2)])
        assert serialize_graph(g) == "2 2\n0 2\n1 3\n"

    @given(bipartite_graphs())
    def test_parse_serialize_roundtrip_on_canonical_form(self, g):
        canonical = parse_graph(serialize_graph(g))
        again = parse_graph(serialize_graph(canonical))
        assert again == canonical
        assert canonical.edge_count() == g.edge_count()
        assert canonical.n == g.n
