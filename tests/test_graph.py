"""Graph core: bitsets, validation, residue verification, parsing."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from conftest import bipartite_graphs
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


class TestVertexSet:
    @given(id_sets, id_sets)
    def test_operations_match_python_sets(self, a, b):
        va, vb = VertexSet.from_ids(a), VertexSet.from_ids(b)
        assert set(va | vb) == a | b
        assert set(va & vb) == a & b
        assert set(va - vb) == a - b
        assert (va <= vb) == (a <= b)
        assert va.isdisjoint(vb) == a.isdisjoint(b)
        assert len(va) == len(a)
        assert (va == vb) == (a == b)

    @given(id_sets)
    def test_iteration_is_ascending(self, a):
        assert list(VertexSet.from_ids(a)) == sorted(a)

    def test_membership_add_remove(self):
        s = VertexSet.from_ids([1, 5])
        assert 5 in s and 2 not in s
        assert set(s.add(2)) == {1, 2, 5}
        assert set(s.remove(5)) == {1}
        assert set(s) == {1, 5}  # originals untouched
        assert VertexSet.single(7).mask == 1 << 7

    def test_len_is_popcount(self):
        assert len(VertexSet(0b1011011)) == 0b1011011.bit_count()

    def test_negative_mask_rejected(self):
        with pytest.raises(ValueError):
            VertexSet(-1)

    def test_truthiness_and_hash(self):
        assert not VertexSet()
        assert VertexSet.single(0)
        assert hash(VertexSet.from_ids([2, 3])) == hash(VertexSet(0b1100))


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
        assert all(g.degree(v) == 3 for v in range(6))
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

    def test_empty_side(self):
        with pytest.raises(GraphError):
            BipartiteGraph.from_edges(0, 3, [])

    def test_duplicate_policies(self):
        edges = [(0, 1), (0, 1)]
        with pytest.warns(DuplicateEdgeWarning):
            g = BipartiteGraph.from_edges(1, 1, edges)
        assert g.edge_count() == 1

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
        subset = VertexSet.from_ids(data.draw(st.sets(st.integers(0, n1 + n2 - 1))))
        for v, nbrs in reference.items():
            assert g.neighbor_ids(v) == sorted(nbrs)
            assert g.degree(v) == len(nbrs)
        assert g.degrees_into(g.vertices, subset) == {
            v: len(nbrs & set(subset)) for v, nbrs in reference.items()
        }
        assert g.edges() == sorted({(min(e), max(e)) for e in edges})
        assert g.edge_count() == len(g.edges())

    @given(bipartite_graphs())
    def test_adjacency_is_symmetric_and_cross_side(self, g):
        for v in range(g.n):
            for u in g.neighbors(v):
                assert v in g.neighbors(u)
                assert (v < g.n1) != (u < g.n1)
            assert g.degree(v) >= 1


class TestDegreeQueries:
    @given(bipartite_graphs(), id_sets, id_sets)
    def test_degree_in_additive_over_disjoint_sets(self, g, a, b):
        va = VertexSet.from_ids(a) & g.vertices
        vb = (VertexSet.from_ids(b) & g.vertices) - va
        union, left, right = (g.degrees_into(g.vertices, s) for s in (va | vb, va, vb))
        assert list(union) == list(range(g.n))
        for v in range(g.n):
            assert union[v] == left[v] + right[v] == len(g.neighbors(v) & (va | vb))

    def test_empty_and_full(self):
        g = BipartiteGraph.from_edges(2, 2, [(0, 2), (0, 3), (1, 3)])
        one = VertexSet.single(0)
        assert g.degrees_into(one, VertexSet()) == {0: 0}
        assert g.degrees_into(one, g.vertices) == {0: g.degree(0)} == {0: 2}
        assert g.degrees_into(one, VertexSet.from_ids([2, 3])) == {0: 2}
        assert g.degrees_into(VertexSet(), g.vertices) == {}


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
        assert verify_residue(g, VertexSet(), ResidueSpec(1, 5))

    @given(bipartite_graphs(), id_sets, st.integers(2, 6), st.integers(0, 5))
    def test_agrees_with_naive_recount(self, g, raw, q, r):
        subset = VertexSet.from_ids(raw) & g.vertices
        spec = ResidueSpec(r % q, q)
        members = set(subset)
        naive_ok = all(
            len(set(g.neighbors(v)) & members) % q == spec.residue for v in members
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

    def test_relabels_larger_side_first(self):
        g = parse_graph("1 3\n0 1\n0 2\n0 3\n")
        assert (g.n1, g.n2) == (3, 1)
        assert g.degree(3) == 3  # the old center is now the side-2 hub

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

    def test_larger_side_becomes_side_1(self):
        g = parse_graph("0 1\n0 2\n0 3\n", permissive=True)
        assert (g.n1, g.n2) == (3, 1)

    def test_tie_goes_to_side_of_smallest_id(self):
        # components: 0-9 and 5-6; sides {0, 5} vs {9, 6}: tie on size,
        # vertex 0's side must stay side 1
        g = parse_graph("0 9\n5 6\n", permissive=True)
        assert (g.n1, g.n2) == (2, 2)
        assert g.degrees_into(VertexSet.single(0), g.side2) == {0: 1}

    def test_empty_document(self):
        with pytest.raises(GraphError):
            parse_graph("", permissive=True)


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
