"""Dominating chains, route candidates, degree patching, the full driver."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bipartite_graphs
from moddeg import (
    BipartiteGraph,
    ChainLevel,
    ConstructionError,
    DominatingChain,
    DominationError,
    ResidueSpec,
    VertexSet,
    build_chain,
    check_chain,
    find_mod_one_subgraph,
    fix_degrees,
    high_degree_targets,
    largest_dyadic_bucket,
    matching_candidate,
    minimal_dominating_set,
    sample_subset,
    unit_residue_targets,
    verify_residue,
)
from moddeg.construction import HEAVY_SHARE, MATCHING_SHARE
from moddeg.generators import complete_bipartite, matching, random_regularish, star


def path4() -> BipartiteGraph:
    # 0 - 2 - 1 - 3
    return BipartiteGraph.from_edges(2, 2, [(0, 2), (1, 2), (1, 3)])


def boundary_graph() -> BipartiteGraph:
    """Nine matched pairs plus one vertex of degree 8 and one of degree 7.

    At modulus 2 the high-degree threshold is 8, so vertex 9 lands exactly
    on it and vertex 10 falls one short.
    """
    edges = [(i, 11 + i) for i in range(9)]
    edges += [(9, 11 + j) for j in range(8)]
    edges += [(10, 11 + j) for j in range(7)]
    return BipartiteGraph.from_edges(11, 9, edges)


def staircase_graph() -> BipartiteGraph:
    """Seven matched pairs plus extra vertices of degree 1, 2, 3 and 7."""
    edges = [(i, 11 + i) for i in range(7)]
    edges += [(7, 11)]
    edges += [(8, 11 + j) for j in range(2)]
    edges += [(9, 11 + j) for j in range(3)]
    edges += [(10, 11 + j) for j in range(7)]
    return BipartiteGraph.from_edges(11, 7, edges)


class TestMinimalDominatingSet:
    def test_star_keeps_the_center(self):
        g = star(3, center_side=2)
        level = minimal_dominating_set(g, g.side1, g.side2)
        assert set(level.dominators) == {3}
        assert level.private_of == {3: 0}

    def test_matching_keeps_everything(self):
        g = matching(3)
        level = minimal_dominating_set(g, g.side1, g.side2)
        assert level.dominators == g.side2
        assert level.private_of == {3: 0, 4: 1, 5: 2}

    def test_complete_graph_vs_exhaustive_minimal_sets(self):
        g = complete_bipartite(3, 3)
        doms = minimal_dominating_set(g, g.side1, g.side2).dominators
        minimal_sets = []
        for size in range(1, 4):
            for combo in itertools.combinations(g.side2, size):
                mask = VertexSet.from_ids(combo)
                if any(not g.neighbors(v) & mask for v in g.side1):
                    continue
                proper = any(
                    all(g.neighbors(v) & mask.remove(w) for v in g.side1)
                    for w in combo
                )
                if not proper:
                    minimal_sets.append(mask)
        # dual route: every minimal dominating set of K33 is a singleton
        assert minimal_sets == [
            VertexSet.single(3), VertexSet.single(4), VertexSet.single(5)
        ]
        assert doms in minimal_sets

    def test_undominatable_target_raises(self):
        g = path4()
        with pytest.raises(DominationError):
            minimal_dominating_set(g, g.side1, VertexSet.single(3))

    @given(bipartite_graphs(max_side1=8, max_side2=8))
    @settings(max_examples=80)
    def test_domination_minimality_privates(self, g):
        level = minimal_dominating_set(g, g.side1, g.side2)
        doms, private_of = level.dominators, level.private_of
        assert doms <= g.side2
        for v in g.side1:
            assert g.neighbors(v) & doms
        assert set(private_of) == set(doms.ids())
        seen = set()
        for w, v in private_of.items():
            # sole dominator neighbour, and the smallest such target
            candidates = [
                t for t in g.side1 if g.neighbors(t) & doms == VertexSet.single(w)
            ]
            assert v == candidates[0]
            assert v not in seen
            seen.add(v)
        for w in doms:
            shrunk = doms.remove(w)
            assert any(not g.neighbors(v) & shrunk for v in g.side1)


class TestBuildChain:
    def test_k2_single_level(self):
        chain = build_chain(matching(2), 2)
        assert len(chain.levels) == 1
        assert chain.remainder == VertexSet()

    def test_complete_3x3_modulus_3(self):
        chain = build_chain(complete_bipartite(3, 3), 3)
        assert [set(l.dominators) for l in chain.levels] == [{5}, {5}]
        assert [set(l.privates) for l in chain.levels] == [{0}, {1}]
        assert [dict(l.private_of) for l in chain.levels] == [{5: 0}, {5: 1}]
        assert set(chain.remainder) == {2}
        assert chain.dominator_sizes() == [1, 1]

    def test_matching_exhausts_targets_early(self):
        chain = build_chain(matching(4), 3)
        assert len(chain.levels[0].dominators) == 4
        assert len(chain.levels[1].dominators) == 0
        assert chain.remainder == VertexSet()
        assert chain.deepest == VertexSet()

    def test_nesting_and_cardinalities_directly(self):
        g = complete_bipartite(4, 4)
        chain = build_chain(g, 4)
        claimed = VertexSet()
        previous = g.side2
        for level in chain.levels:
            assert level.dominators <= previous
            assert len(level.privates) == len(level.dominators)
            assert level.privates.isdisjoint(claimed)
            for w, v in level.private_of.items():
                assert g.neighbors(v) & level.dominators == VertexSet.single(w)
            claimed = claimed | level.privates
            previous = level.dominators
        assert chain.remainder == g.side1 - claimed

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            build_chain(matching(2), 1)

    @given(bipartite_graphs(max_side1=8, max_side2=8), st.integers(2, 6))
    @settings(max_examples=80)
    def test_checker_accepts_every_built_chain(self, g, k):
        assert check_chain(g, build_chain(g, k)) == []


class TestCheckChain:
    def test_flags_wrong_level_count(self):
        g = complete_bipartite(3, 3)
        chain = build_chain(g, 3)
        bad = DominatingChain(k=3, levels=chain.levels[:1], remainder=chain.remainder)
        assert any("levels" in p for p in check_chain(g, bad))

    def test_flags_redundant_dominator(self):
        g = complete_bipartite(3, 3)
        level = ChainLevel(private_of={4: 0, 5: 1})
        bad = DominatingChain(k=2, levels=(level,), remainder=VertexSet.single(2))
        problems = check_chain(g, bad)
        # in K33 no vertex is private to anyone once two dominators stay
        assert any("not private" in p for p in problems)
        assert any("redundant" in p for p in problems)

    def test_flags_tampered_remainder(self):
        g = complete_bipartite(3, 3)
        chain = build_chain(g, 3)
        bad = DominatingChain(k=3, levels=chain.levels, remainder=VertexSet())
        assert any("remainder" in p for p in check_chain(g, bad))

    def test_flags_overlapping_privates(self):
        g = complete_bipartite(3, 3)
        level = ChainLevel(private_of={5: 0})
        bad = DominatingChain(
            k=3, levels=(level, level), remainder=g.side1 - VertexSet.single(0)
        )
        assert any("overlap" in p for p in check_chain(g, bad))

    def test_flags_private_shared_by_two_dominators(self):
        g = complete_bipartite(3, 3)
        level = ChainLevel(private_of={4: 0, 5: 0})
        bad = DominatingChain(k=2, levels=(level,), remainder=g.side1 - level.privates)
        assert any("private count differs" in p for p in check_chain(g, bad))

    def test_flags_broken_domination(self):
        g = matching(3)
        level = ChainLevel(private_of={3: 0})
        bad = DominatingChain(k=2, levels=(level,), remainder=VertexSet.from_ids([1, 2]))
        assert any("undominated" in p for p in check_chain(g, bad))


class TestRouteIngredients:
    def test_matching_candidate_is_an_induced_matching(self):
        g = complete_bipartite(4, 4)
        chain = build_chain(g, 3)
        cand = matching_candidate(chain)
        assert len(cand) == 2 * len(chain.levels[0].dominators)
        for v in cand:
            assert len(g.neighbors(v) & cand) == 1

    def test_high_degree_threshold_is_inclusive(self):
        g = boundary_graph()
        chain = build_chain(g, 2)
        assert set(chain.remainder) == {9, 10}
        heavy = high_degree_targets(g, chain)
        assert set(heavy) == {9}

    def test_dyadic_bucket_prefers_the_fullest(self):
        g = staircase_graph()
        chain = build_chain(g, 2)
        assert set(chain.remainder) == {7, 8, 9, 10}
        exponent, bucket = largest_dyadic_bucket(g, chain, chain.remainder)
        assert exponent == 1
        assert set(bucket) == {8, 9}

    def test_dyadic_bucket_rejects_empty_input(self):
        g = matching(2)
        chain = build_chain(g, 2)
        with pytest.raises(ValueError):
            largest_dyadic_bucket(g, chain, VertexSet())

    @given(bipartite_graphs(max_side1=8, max_side2=8), st.integers(2, 4))
    @settings(max_examples=60)
    def test_dyadic_bucket_pigeonhole(self, g, k):
        chain = build_chain(g, k)
        rest = chain.remainder - high_degree_targets(g, chain)
        if not rest:
            return
        exponent, bucket = largest_dyadic_bucket(g, chain, rest)
        assert bucket <= rest
        slots = (k ** 3).bit_length()
        assert len(bucket) * slots >= len(rest)
        for d in g.degrees_into(bucket, chain.deepest).values():
            assert d.bit_length() - 1 == exponent

    def test_sample_exponent_zero_is_identity(self):
        members = VertexSet.from_ids([2, 5, 9])
        rng = random.Random(7)
        state = rng.getstate()
        assert sample_subset(members, 0, rng) == members
        assert rng.getstate() == state  # no randomness consumed

    def test_sample_determinism_and_bounds(self):
        members = VertexSet.from_ids(range(30))
        a = sample_subset(members, 2, random.Random(11))
        b = sample_subset(members, 2, random.Random(11))
        assert a == b and a <= members
        assert sample_subset(VertexSet(), 3, random.Random(0)) == VertexSet()
        with pytest.raises(ValueError):
            sample_subset(members, -1, random.Random(0))

    def test_sample_hits_half_density_on_average(self):
        # [DERIVED] mean of Binomial(100, 1/2) estimated over 10**4 draws;
        # 5% tolerance is 50 standard errors wide
        members = VertexSet.from_ids(range(100))
        total = sum(
            len(sample_subset(members, 1, random.Random(seed)))
            for seed in range(10_000)
        )
        assert abs(total / 10_000 - 50.0) < 2.5

    def test_unit_residue_targets_counts_mod_k(self):
        g = complete_bipartite(3, 3)
        pool = g.side1
        assert unit_residue_targets(g, pool, g.side2, 3) == VertexSet()
        assert unit_residue_targets(g, pool, VertexSet.single(4), 3) == pool
        assert unit_residue_targets(g, pool, g.side2, 2) == pool

    @given(bipartite_graphs(max_side1=7, max_side2=7), st.integers(2, 5))
    @settings(max_examples=60)
    def test_unit_residue_targets_recount(self, g, k):
        chosen = VertexSet.from_ids(w for w in g.side2 if w % 2)
        got = unit_residue_targets(g, g.side1, chosen, k)
        want = {v for v, d in g.degrees_into(g.side1, chosen).items() if d % k == 1}
        assert set(got) == want


class TestFixDegrees:
    def test_star_patch_uses_lowest_levels(self):
        g = star(7, center_side=2)
        chain = build_chain(g, 5)
        units = VertexSet.from_ids([4, 5, 6])
        patch = fix_degrees(g, chain, chain.deepest, units)
        assert set(patch) == {0, 1, 2}
        final = patch | chain.deepest | units
        assert verify_residue(g, final, ResidueSpec(1, 5)).ok

    def test_zero_need_leaves_no_patch(self):
        g = complete_bipartite(3, 3)
        chain = build_chain(g, 3)
        patch = fix_degrees(g, chain, chain.deepest, VertexSet.single(2))
        assert patch == VertexSet()

    def test_single_edge_patch(self):
        g = matching(1)
        chain = build_chain(g, 2)
        patch = fix_degrees(g, chain, chain.deepest, VertexSet())
        assert set(patch) == {0}

    def test_rejects_chosen_outside_deepest(self):
        g = complete_bipartite(3, 3)
        chain = build_chain(g, 3)
        with pytest.raises(ConstructionError):
            fix_degrees(g, chain, VertexSet.single(4), VertexSet())

    @given(bipartite_graphs(max_side1=7, max_side2=7), st.integers(2, 5))
    @settings(max_examples=60)
    def test_patched_candidate_always_verifies(self, g, k):
        chain = build_chain(g, k)
        chosen = chain.deepest
        units = unit_residue_targets(g, chain.remainder, chosen, k)
        if not chosen:
            return
        patch = fix_degrees(g, chain, chosen, units)
        candidate = patch | chosen | units
        assert verify_residue(g, candidate, ResidueSpec(1, k)).ok


class TestAnalysisConfig:
    """The report-only route shares and the high-degree threshold exponent."""

    def test_default_shares(self):
        assert MATCHING_SHARE == Fraction(1, 3) - Fraction(1, 2000)
        assert HEAVY_SHARE == Fraction(2, 3) - Fraction(1, 1000)
        assert MATCHING_SHARE + HEAVY_SHARE < 1

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            find_mod_one_subgraph(matching(2), 2, threshold_exponent=0)


class TestFindModOneSubgraph:
    def test_single_edge(self):
        g = matching(1)
        vertices, trace = find_mod_one_subgraph(g, 5)
        assert vertices.ids() == [0, 1]
        assert trace.case == 1

    def test_complete_3x3_keeps_a_matched_pair(self):
        vertices, trace = find_mod_one_subgraph(complete_bipartite(3, 3), 3)
        assert len(vertices) == 2
        assert trace.case == 1
        assert set(vertices) == {0, 5}

    def test_matching_returns_everything(self):
        g = matching(5)
        for k in (2, 3, 7):
            vertices, trace = find_mod_one_subgraph(g, k)
            assert vertices == g.vertices
            assert trace.case == 1

    def test_star_takes_the_deterministic_bucket(self):
        vertices, trace = find_mod_one_subgraph(star(6, center_side=2), 2)
        assert set(vertices) == {1, 2, 3, 4, 5, 6}
        assert trace.case == 3
        assert trace.bucket_exponent == 0
        assert trace.candidate_sizes == {1: 2, 2: None, 3: 6}
        assert trace.expected_scores == {3: 5.0}

    def test_complete_4x4_patches_two_levels(self):
        for mode in ("sampled", "derandomized"):
            vertices, trace = find_mod_one_subgraph(
                complete_bipartite(4, 4), 3, mode=mode
            )
            assert set(vertices) == {0, 1, 2, 3, 7}
            assert trace.case == 3
            assert set(trace.routes[3].patch) == {0, 1}

    def test_derandomized_modes_are_deterministic(self):
        g = boundary_graph()
        a = find_mod_one_subgraph(g, 2, mode="derandomized", seed=1)
        b = find_mod_one_subgraph(g, 2, mode="derandomized", seed=99)
        assert a[0] == b[0]
        assert a[1].seed is None and b[1].seed is None

    def test_sampled_mode_reproducible_by_seed(self):
        g = boundary_graph()
        a = find_mod_one_subgraph(g, 2, mode="sampled", seed=13)
        b = find_mod_one_subgraph(g, 2, mode="sampled", seed=13)
        assert a[0] == b[0]
        assert a[1].to_dict(verbose=True) == b[1].to_dict(verbose=True)

    def test_boundary_graph_runs_both_sampling_routes(self):
        _, trace = find_mod_one_subgraph(boundary_graph(), 2, mode="derandomized")
        assert set(trace.expected_scores) == {2, 3}
        assert set(trace.achieved_scores) == {2, 3}
        for case, expected in trace.expected_scores.items():
            assert trace.achieved_scores[case] >= expected - 1e-6

    def test_validation(self):
        g = matching(2)
        with pytest.raises(ValueError):
            find_mod_one_subgraph(g, 1)
        with pytest.raises(ValueError):
            find_mod_one_subgraph(g, 2, mode="greedy")
        with pytest.raises(ValueError):
            find_mod_one_subgraph(g, 2, retries=0)

    @given(
        bipartite_graphs(max_side1=8, max_side2=8),
        st.integers(2, 5),
        st.sampled_from(["sampled", "derandomized"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_result_verified_and_trace_consistent(self, g, k, mode):
        vertices, trace = find_mod_one_subgraph(g, k, mode=mode, seed=3)
        assert vertices
        assert verify_residue(g, vertices, ResidueSpec(1, k)).ok
        chain = build_chain(g, k)
        assert len(vertices) >= 2 * len(chain.levels[0].dominators)
        assert trace.vertices == vertices
        sizes = [s for s in trace.candidate_sizes.values() if s is not None]
        assert trace.candidate_sizes[trace.case] == len(vertices) == max(sizes)
        assert trace.analysis_case in (1, 2, 3)
        if mode == "derandomized":
            for case, expected in trace.expected_scores.items():
                assert trace.achieved_scores[case] >= expected - 1e-6

    def test_trace_serialization_shape(self):
        _, trace = find_mod_one_subgraph(star(6, center_side=2), 2)
        flat = trace.to_dict()
        assert flat["schema_version"] == 1
        assert flat["case"] == 3
        assert flat["sizes"]["subgraph"] == 6
        assert "sets" not in flat
        rich = trace.to_dict(verbose=True)
        assert rich["sets"]["subgraph"] == [1, 2, 3, 4, 5, 6]
        assert rich["sets"]["chosen"] == [6]


class TestLargeInstance:
    def test_both_modes_verify_at_a_hundred_thousand_vertices(self):
        # n = 10^5: n-bit neighbourhood masks would need about n^2/8 bytes
        g = random_regularish(66666, 33334, 3, random.Random(5))
        assert (g.n, g.edge_count()) == (100_000, 200_087)
        chain = build_chain(g, 3)
        assert check_chain(g, chain) == []
        floor = 2 * len(chain.levels[0].dominators)
        for mode in ("sampled", "derandomized"):
            vertices, trace = find_mod_one_subgraph(g, 3, mode=mode, seed=1)
            assert verify_residue(g, vertices, ResidueSpec(1, 3)).ok
            assert trace.vertices == vertices
            assert len(vertices) >= floor
