"""Dominating chains, route candidates, degree patching, the full driver."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import bipartite_graphs, transpose
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
from moddeg import construction
from moddeg.construction import HEAVY_SHARE, MATCHING_SHARE, best_draw
from moddeg.generators import complete_bipartite, matching, random_regularish, star
from moddeg.graph import Incidence


def vset(g: BipartiteGraph, ids=()) -> VertexSet:
    """The set of ``ids`` among the vertices of ``g``."""
    return VertexSet.from_ids(ids, g.n)


def nbrs(g: BipartiteGraph, v: int) -> VertexSet:
    return vset(g, g.neighbor_ids(v))


def level_of(private_of: dict[int, int], n: int) -> ChainLevel:
    """The chain level pairing each dominator, a key of ``private_of``, with
    its private, the key's value, in ascending order of dominator."""
    dominators = sorted(private_of)
    privates = [private_of[w] for w in dominators]
    return ChainLevel(np.array(dominators, dtype=np.int64),
                      np.array(privates, dtype=np.int64), n)


def pairs(level: ChainLevel) -> list[tuple[int, int]]:
    """The (dominator, private) pairs of ``level``, in its order: the
    inverse of :func:`level_of`, as ``dict(pairs(level))``."""
    return list(zip(level.dominator_ids.tolist(), level.private_ids.tolist()))


def remainder_to_deepest(g: BipartiteGraph, chain: DominatingChain) -> Incidence:
    """The edges between the chain's remainder and its deepest level, which
    a run reads once for all its route queries."""
    return g.edges_between(chain.remainder, chain.deepest)


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


def reference_dominating_set(
    g: BipartiteGraph, targets: VertexSet, candidates: VertexSet
) -> dict[int, int]:
    """The greedy of :func:`minimal_dominating_set` as a loop over Python
    ints: candidates leave in ascending id order while every target keeps a
    neighbour, then each target with one kept neighbour, in ascending order,
    becomes that dominator's private unless it already has one."""
    members = set(candidates)
    live = {v: sum(u in members for u in g.neighbor_ids(v)) for v in targets}
    for v, count in live.items():
        if count == 0:
            raise DominationError(f"target {v} has no neighbour among candidates")
    kept = set()
    for w in candidates:
        touched = [v for v in g.neighbor_ids(w) if v in live]
        if all(live[v] >= 2 for v in touched):
            for v in touched:
                live[v] -= 1
        else:
            kept.add(w)
    private_of = {}
    for v, count in live.items():
        if count == 1:
            w = next(u for u in g.neighbor_ids(v) if u in kept)
            private_of.setdefault(w, v)
    return private_of


def path_ids(m: int, flipped: bool = False):
    """The ids of t_i and of c_i in :func:`path_graph`, as two functions."""
    if flipped:
        return (lambda i: m + 1 + i), (lambda i: i)
    return (lambda i: i), (lambda i: m + i)


def path_graph(m: int, flipped: bool = False) -> BipartiteGraph:
    """A path on side 1 t_0..t_{m-1} and side 2 c_0..c_m, with t_i joined to
    c_i and c_{i+1}: t_i has id i and c_i id m + i, or with the sides
    flipped c_i has id i and t_i id m + 1 + i."""
    t, c = path_ids(m, flipped)
    edges = [(t(i), c(i + j)) for i in range(m) for j in (0, 1)]
    if flipped:
        return BipartiteGraph.from_edges(m + 1, m, [(w, u) for u, w in edges])
    return BipartiteGraph.from_edges(m, m + 1, edges)


def path_private_of(m: int, flipped: bool = False) -> dict[int, int]:
    """The greedy's level on :func:`path_graph` for even m: it keeps t_0,
    t_2, ..., t_{m-2}, each with private c_i, and t_{m-1} with private c_m."""
    t, c = path_ids(m, flipped)
    want = {t(i): c(i) for i in range(0, m - 1, 2)}
    want[t(m - 1)] = c(m)
    return want


class TestMinimalDominatingSet:
    def test_star_keeps_the_center(self):
        g = star(3, center_side=2)
        level = minimal_dominating_set(g, g.side1, g.side2)
        assert set(level.dominators) == {3}
        assert pairs(level) == [(3, 0)]

    def test_matching_keeps_everything(self):
        g = matching(3)
        level = minimal_dominating_set(g, g.side1, g.side2)
        assert level.dominators == g.side2
        assert pairs(level) == [(3, 0), (4, 1), (5, 2)]

    def test_complete_graph_vs_exhaustive_minimal_sets(self):
        g = complete_bipartite(3, 3)
        doms = minimal_dominating_set(g, g.side1, g.side2).dominators
        minimal_sets = []
        for size in range(1, 4):
            for combo in itertools.combinations(g.side2, size):
                mask = vset(g, combo)
                if any(not nbrs(g, v) & mask for v in g.side1):
                    continue
                proper = any(
                    all(nbrs(g, v) & (mask - vset(g, [w])) for v in g.side1)
                    for w in combo
                )
                if not proper:
                    minimal_sets.append(mask)
        # dual route: every minimal dominating set of K33 is a singleton
        assert minimal_sets == [
            vset(g, [3]), vset(g, [4]), vset(g, [5])
        ]
        assert doms in minimal_sets

    def test_undominatable_target_raises(self):
        g = path4()
        with pytest.raises(DominationError):
            minimal_dominating_set(g, g.side1, vset(g, [3]))

    @given(bipartite_graphs(max_side1=8, max_side2=8))
    @settings(max_examples=80)
    def test_domination_minimality_privates(self, g):
        level = minimal_dominating_set(g, g.side1, g.side2)
        doms, private_of = level.dominators, dict(pairs(level))
        assert doms <= g.side2
        for v in g.side1:
            assert nbrs(g, v) & doms
        assert set(private_of) == set(doms.ids())
        seen = set()
        for w, v in private_of.items():
            # sole dominator neighbour, and the smallest such target
            candidates = [
                t for t in g.side1 if nbrs(g, t) & doms == vset(g, [w])
            ]
            assert v == candidates[0]
            assert v not in seen
            seen.add(v)
        for w in doms:
            shrunk = doms - vset(g, [w])
            assert any(not nbrs(g, v) & shrunk for v in g.side1)


    @given(bipartite_graphs(max_side1=9, max_side2=9), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_greedy(self, g, data):
        targets = vset(g, data.draw(st.sets(st.sampled_from(g.side1.ids()))))
        candidates = vset(g, data.draw(st.sets(st.sampled_from(g.side2.ids()))))
        try:
            want = reference_dominating_set(g, targets, candidates)
        except DominationError as exc:
            with pytest.raises(DominationError) as caught:
                minimal_dominating_set(g, targets, candidates)
            assert str(caught.value) == str(exc)
            return
        level = minimal_dominating_set(g, targets, candidates)
        assert pairs(level) == sorted(want.items())

    @given(bipartite_graphs(max_side1=9, max_side2=9), st.data())
    @settings(max_examples=300, deadline=None)
    def test_contested_groups_match_the_reference_greedy(self, g, data):
        # every target has two candidate neighbours or more, so few groups
        # are forced and the loop decides most of them
        assume(g.n2 >= 2)
        side2 = g.side2.ids()
        candidates = vset(g, data.draw(st.sets(st.sampled_from(side2), min_size=2)))
        targets = vset(g, [v for v in g.side1 if len(nbrs(g, v) & candidates) >= 2])
        assume(targets)
        want = reference_dominating_set(g, targets, candidates)
        level = minimal_dominating_set(g, targets, candidates)
        assert pairs(level) == sorted(want.items())

    @pytest.mark.parametrize("flipped", [False, True])
    def test_path_keeps_every_other_candidate(self, flipped):
        # only the groups of t_0 and t_{m-1} are forced: the loop decides
        # every other one, each after the one before it
        for m in range(1, 13):
            self.check_chain_levels(path_graph(m, flipped), 2)
        for m in (2, 4, 10, 12, 10**5):
            level = build_chain(path_graph(m, flipped), 2).levels[0]
            want = path_private_of(m, flipped)
            assert pairs(level) == sorted(want.items())

    @pytest.mark.parametrize("g", [
        complete_bipartite(7, 5),
        star(9, center_side=2),
        random_regularish(60, 30, 3, random.Random(1)),
        random_regularish(80, 20, 6, random.Random(2)),
        random_regularish(300, 150, 2, random.Random(3)),
        random_regularish(3000, 1500, 3, random.Random(11)),
        random_regularish(400, 40, 20, random.Random(11)),
    ], ids=["complete", "star", "regularish-3", "regularish-6", "regularish-2",
            "regularish-sparse", "regularish-dense"])
    def test_every_chain_level_matches_the_reference_greedy(self, g):
        for k in range(2, 6):
            self.check_chain_levels(g, k)

    @given(bipartite_graphs(max_side1=9, max_side2=9), st.integers(2, 5))
    @settings(max_examples=100, deadline=None)
    def test_random_chains_match_the_reference_greedy(self, g, k):
        self.check_chain_levels(g, k)

    def test_no_targets_give_an_empty_level(self):
        g = random_regularish(30, 12, 3, random.Random(4))
        for candidates in (g.side2, vset(g), vset(g, [30, 35])):
            level = minimal_dominating_set(g, vset(g), candidates)
            assert pairs(level) == []
            assert level.dominators == vset(g)

    def test_candidate_next_to_no_target_is_never_kept(self):
        # 3 and 4 both cover target 0; 5 touches only the non-target 1
        g = BipartiteGraph.from_edges(
            3, 4, [(0, 3), (0, 4), (1, 5), (1, 6), (2, 3), (2, 6)]
        )
        level = minimal_dominating_set(g, vset(g, [0]), g.side2)
        assert pairs(level) == [(4, 0)]
        for targets in (vset(g, [0]), vset(g, [0, 2])):
            want = reference_dominating_set(g, targets, g.side2)
            level = minimal_dominating_set(g, targets, g.side2)
            assert pairs(level) == sorted(want.items())
            assert level.dominators.isdisjoint(vset(g, [5]))

    def test_smallest_private_is_not_the_forcing_target(self):
        # target 1 has only 2 and so keeps it, but target 0, whose only kept
        # neighbour is 2 as well, is the smaller private
        g = BipartiteGraph.from_edges(2, 2, [(0, 2), (0, 3), (1, 2)])
        level = minimal_dominating_set(g, g.side1, g.side2)
        assert pairs(level) == [(2, 0)]

    def test_reads_no_row_per_dominator(self, monkeypatch):
        # each level reads the targets' rows once and the rows of their last
        # candidates once, and decides from that one gather
        g = random_regularish(3000, 1500, 3, random.Random(11))
        reads = []
        for name in ("neighbor_ids", "degrees_into", "last_neighbors",
                     "neighbors_within", "neighbor_rows", "edges_between"):
            def spy(self, *args, _real=getattr(BipartiteGraph, name), _name=name):
                reads.append(_name)
                return _real(self, *args)
            monkeypatch.setattr(BipartiteGraph, name, spy)
        chain = build_chain(g, 5)
        monkeypatch.undo()
        assert len(chain.levels) == 4
        assert reads == ["last_neighbors", "neighbor_rows"] * 4
        targets, candidates = g.side1, g.side2
        for level in chain.levels:
            want = reference_dominating_set(g, targets, candidates)
            assert pairs(level) == sorted(want.items())
            targets, candidates = targets - level.privates, level.dominators

    @staticmethod
    def check_chain_levels(g, k):
        # the chain dominates the larger side, side 1 on a tie
        targets, candidates = g.side1, g.side2
        if g.n2 > g.n1:
            targets, candidates = candidates, targets
        for level in build_chain(g, k).levels:
            want = reference_dominating_set(g, targets, candidates)
            assert pairs(level) == sorted(want.items())
            targets, candidates = targets - level.privates, level.dominators


class TestBuildChain:
    def test_k2_single_level(self):
        g = matching(2)
        chain = build_chain(g, 2)
        assert len(chain.levels) == 1
        assert chain.remainder == vset(g)

    def test_complete_3x3_modulus_3(self):
        chain = build_chain(complete_bipartite(3, 3), 3)
        assert [set(l.dominators) for l in chain.levels] == [{5}, {5}]
        assert [set(l.privates) for l in chain.levels] == [{0}, {1}]
        assert [pairs(l) for l in chain.levels] == [[(5, 0)], [(5, 1)]]
        assert set(chain.remainder) == {2}
        assert chain.dominator_sizes() == [1, 1]

    def test_matching_exhausts_targets_early(self):
        g = matching(4)
        chain = build_chain(g, 3)
        assert len(chain.levels) == 1
        assert len(chain.levels[0].dominators) == 4
        assert chain.remainder == vset(g)
        assert chain.deepest == g.side2

    def test_nesting_and_cardinalities_directly(self):
        g = complete_bipartite(4, 4)
        chain = build_chain(g, 4)
        claimed = vset(g)
        previous = g.side2
        for level in chain.levels:
            assert level.dominators <= previous
            assert len(level.privates) == len(level.dominators)
            assert level.privates.isdisjoint(claimed)
            for w, v in pairs(level):
                assert nbrs(g, v) & level.dominators == vset(g, [w])
            claimed = claimed | level.privates
            previous = level.dominators
        assert chain.remainder == g.side1 - claimed

    def test_each_level_keeps_the_set_it_kept(self, monkeypatch):
        g = random_regularish(60, 30, 3, random.Random(1))
        # each level writes its dominators and its privates as masks from
        # its arrays, and never goes through the id-list path

        def refused(ids, n):
            raise AssertionError("build_chain called VertexSet.from_ids")

        monkeypatch.setattr(VertexSet, "from_ids", staticmethod(refused))
        chain = build_chain(g, 5)
        monkeypatch.undo()
        assert len(chain.levels) == 4
        for level in chain.levels:
            doms, privs = level.dominator_ids, level.private_ids
            for ids, members in ((doms, level.dominators), (privs, level.privates)):
                assert ids.dtype == np.int64 and not ids.flags.writeable
                assert len(ids) == len(members)
                assert members == VertexSet.from_ids(ids.tolist(), g.n)
            # aligned, in ascending order of dominator
            assert doms.tolist() == level.dominators.ids()
            for w, v in pairs(level):
                assert nbrs(g, v) & level.dominators == vset(g, [w])
        level = level_of({5: 1, 4: 0}, complete_bipartite(3, 3).n)
        assert pairs(level) == [(4, 0), (5, 1)]
        assert level.dominators == VertexSet.from_ids([4, 5], level.n)
        assert level.privates == VertexSet.from_ids([0, 1], level.n)

    @pytest.mark.parametrize("k", [50, 10**4])
    def test_levels_after_the_last_target_cost_no_search(self, monkeypatch, k):
        calls = []

        def counted(*args):
            calls.append(args)
            return minimal_dominating_set(*args)

        monkeypatch.setattr("moddeg.construction.minimal_dominating_set", counted)
        g = star(6, center_side=2)  # each level claims one leaf as a private
        chain = build_chain(g, k)
        assert len(calls) == 6
        assert chain.dominator_sizes() == [1] * 6
        assert check_chain(g, chain) == []

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            build_chain(matching(2), 1)

    @given(bipartite_graphs(max_side1=8, max_side2=8), st.integers(2, 6))
    @settings(max_examples=80)
    def test_checker_accepts_every_built_chain(self, g, k):
        assert check_chain(g, build_chain(g, k)) == []


def reference_check_chain(g: BipartiteGraph, chain: DominatingChain) -> list[str]:
    """:func:`check_chain` reading each vertex's dominators off its own row:
    a closure filters ``neighbor_ids`` through the level's dominators."""
    problems = []
    if len(chain.levels) > chain.k - 1:
        problems.append(
            f"expected at most {chain.k - 1} levels, found {len(chain.levels)}"
        )
    elif chain.remainder and len(chain.levels) < chain.k - 1:
        problems.append(
            f"expected {chain.k - 1} levels while targets remain, "
            f"found {len(chain.levels)}"
        )
    dominated, previous = (g.side2, g.side1) if g.n2 > g.n1 else (g.side1, g.side2)
    claimed = vset(g)
    for idx, level in enumerate(chain.levels, start=1):
        doms, privs = level.dominators, level.privates
        if not doms:
            problems.append(f"level {idx}: holds no dominator")
        if not doms <= previous:
            problems.append(f"level {idx}: dominators not nested in previous level")
        if len(privs) != len(doms):
            problems.append(f"level {idx}: private count differs from dominator count")
        if not privs <= dominated:
            problems.append(f"level {idx}: privates stray off the dominated side")
        if not privs.isdisjoint(claimed):
            problems.append(f"level {idx}: privates overlap an earlier level")
        targets = dominated - claimed
        dom_ids = set(doms)
        target_ids = set(targets)

        def dominators_of(v: int) -> list[int]:
            return [u for u in g.neighbor_ids(v) if u in dom_ids]

        for w, v in pairs(level):
            if v not in target_ids:
                problems.append(f"level {idx}: private {v} was not a live target")
            if dominators_of(v) != [w]:
                problems.append(
                    f"level {idx}: vertex {v} is not private to dominator {w}"
                )
        for v in sorted(target_ids):
            if not dominators_of(v):
                problems.append(f"level {idx}: target {v} left undominated")
        witnessed = {
            dominators_of(v)[0] for v in target_ids if len(dominators_of(v)) == 1
        }
        for w in doms:
            if w not in witnessed:
                problems.append(
                    f"level {idx}: dominator {w} is redundant (no private target)"
                )
        claimed = claimed | privs
        previous = doms
    if chain.remainder != dominated - claimed:
        problems.append("remainder differs from the dominated side minus its privates")
    if chain.levels:
        first = len(chain.levels[0].dominators)
        if len(chain.remainder) < len(dominated) - (chain.k - 1) * first:
            problems.append("remainder smaller than the level-1 lower bound")
    return problems


@st.composite
def tampered_chains(draw):
    """A graph and its built chain, tampered with one to three times: a
    private dropped, added or reassigned, a level replaced by random pairs,
    or a random remainder.  Vertices are drawn from both sides."""
    g = draw(bipartite_graphs(max_side1=9, max_side2=9))
    k = draw(st.integers(2, 5))
    chain = build_chain(g, k)
    levels = [dict(pairs(level)) for level in chain.levels]
    remainder = chain.remainder
    vertex = st.integers(0, g.n - 1)
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["drop", "add", "reassign", "replace", "remainder"]))
        if action == "remainder":
            remainder = vset(g, draw(st.sets(vertex)))
            continue
        level = levels[draw(st.integers(0, len(levels) - 1))]
        if action == "add":
            level[draw(vertex)] = draw(vertex)
        elif action == "replace":
            level.clear()
            level.update(draw(st.dictionaries(vertex, vertex, max_size=4)))
        elif level:
            w = draw(st.sampled_from(sorted(level)))
            if action == "drop":
                del level[w]
            else:
                level[w] = draw(vertex)
    levels = tuple(level_of(private_of, g.n) for private_of in levels)
    return g, DominatingChain(k=k, levels=levels, remainder=remainder)


class TestCheckChain:
    def test_flags_wrong_level_count(self):
        g = complete_bipartite(3, 3)
        chain = build_chain(g, 3)
        bad = DominatingChain(k=3, levels=chain.levels[:1], remainder=chain.remainder)
        assert any("levels" in p for p in check_chain(g, bad))

    def test_flags_empty_level(self):
        g = star(6, center_side=2)
        chain = build_chain(g, 7)
        empty = level_of({}, g.n)
        bad = DominatingChain(
            k=8, levels=(*chain.levels, empty), remainder=chain.remainder
        )
        assert check_chain(g, bad) == ["level 7: holds no dominator"]

    def test_flags_short_chain_with_targets_left(self):
        g = star(6, center_side=2)
        chain = build_chain(g, 4)  # three leaves claimed, three left
        assert len(chain.remainder) == 3
        short = DominatingChain(k=5, levels=chain.levels, remainder=chain.remainder)
        assert check_chain(g, short) == [
            "expected 4 levels while targets remain, found 3"
        ]
        long = DominatingChain(k=3, levels=chain.levels, remainder=chain.remainder)
        assert any("at most 2 levels" in p for p in check_chain(g, long))

    def test_flags_redundant_dominator(self):
        g = complete_bipartite(3, 3)
        level = level_of({4: 0, 5: 1}, g.n)
        bad = DominatingChain(k=2, levels=(level,), remainder=vset(g, [2]))
        problems = check_chain(g, bad)
        # in K33 no vertex is private to anyone once two dominators stay
        assert any("not private" in p for p in problems)
        assert any("redundant" in p for p in problems)

    def test_flags_tampered_remainder(self):
        g = complete_bipartite(3, 3)
        chain = build_chain(g, 3)
        bad = DominatingChain(k=3, levels=chain.levels, remainder=vset(g))
        assert any("remainder" in p for p in check_chain(g, bad))

    def test_flags_overlapping_privates(self):
        g = complete_bipartite(3, 3)
        level = level_of({5: 0}, g.n)
        bad = DominatingChain(
            k=3, levels=(level, level), remainder=g.side1 - vset(g, [0])
        )
        assert any("overlap" in p for p in check_chain(g, bad))

    def test_flags_private_shared_by_two_dominators(self):
        g = complete_bipartite(3, 3)
        level = level_of({4: 0, 5: 0}, g.n)
        bad = DominatingChain(k=2, levels=(level,), remainder=g.side1 - level.privates)
        assert any("private count differs" in p for p in check_chain(g, bad))

    def test_flags_broken_domination(self):
        g = matching(3)
        level = level_of({3: 0}, g.n)
        bad = DominatingChain(k=2, levels=(level,), remainder=vset(g, [1, 2]))
        assert any("undominated" in p for p in check_chain(g, bad))

    @given(tampered_chains())
    @settings(max_examples=300, deadline=None)
    def test_same_problems_as_reference(self, case):
        g, chain = case
        assert check_chain(g, chain) == reference_check_chain(g, chain)


class TestRouteIngredients:
    def test_matching_candidate_is_an_induced_matching(self):
        g = complete_bipartite(4, 4)
        chain = build_chain(g, 3)
        cand = matching_candidate(chain)
        assert len(cand) == 2 * len(chain.levels[0].dominators)
        for v in cand:
            assert len(nbrs(g, v) & cand) == 1

    def test_high_degree_threshold_is_inclusive(self):
        g = boundary_graph()
        chain = build_chain(g, 2)
        assert set(chain.remainder) == {9, 10}
        heavy = high_degree_targets(remainder_to_deepest(g, chain), 2)
        assert set(heavy) == {9}

    def test_dyadic_bucket_prefers_the_fullest(self):
        g = staircase_graph()
        chain = build_chain(g, 2)
        assert set(chain.remainder) == {7, 8, 9, 10}
        incidence = remainder_to_deepest(g, chain)
        exponent, bucket = largest_dyadic_bucket(incidence, chain.remainder, 2)
        assert exponent == 1
        assert set(bucket) == {8, 9}

    def test_dyadic_bucket_rejects_empty_input(self):
        g = matching(2)
        chain = build_chain(g, 2)
        with pytest.raises(ValueError):
            largest_dyadic_bucket(remainder_to_deepest(g, chain), vset(g), 2)

    def test_dyadic_bucket_names_the_unclamped_bound(self):
        # vertex 1 has no neighbour in the deepest level {2}
        g = matching(2)
        chain = DominatingChain(
            k=3, levels=(level_of({2: 0}, g.n),), remainder=vset(g, [1])
        )
        incidence = remainder_to_deepest(g, chain)
        with pytest.raises(ConstructionError) as caught:
            largest_dyadic_bucket(incidence, chain.remainder, 3)
        assert str(caught.value) == "vertex 1 has degree 0, outside [1, 27)"

    @pytest.mark.parametrize("k", [2**21, 10**20])
    def test_cut_beyond_int64_splits_as_python_ints_do(self, k):
        # at k = 2**21 the cut k**3 is 2**63, one past the largest int64;
        # remainder vertices 7..10 have degrees 1, 2, 3 and 7 into side 2
        g = staircase_graph()
        chain = DominatingChain(
            k=k,
            levels=(level_of({11 + i: i for i in range(7)}, g.n),),
            remainder=vset(g, [7, 8, 9, 10]),
        )
        ids, degrees = g.degrees_into(chain.remainder, chain.deepest)
        pairs = list(zip(ids.tolist(), degrees.tolist()))
        assert pairs == [(7, 1), (8, 2), (9, 3), (10, 7)]
        heavy = {v for v, d in pairs if d >= k**3}
        buckets: dict[int, set[int]] = {}
        for v, d in pairs:
            if d < k**3:
                buckets.setdefault(d.bit_length() - 1, set()).add(v)
        fullest = max(len(b) for b in buckets.values())
        exponent = min(e for e, b in buckets.items() if len(b) == fullest)

        incidence = remainder_to_deepest(g, chain)
        assert set(high_degree_targets(incidence, k)) == heavy
        rest = chain.remainder - vset(g, heavy)
        assert largest_dyadic_bucket(incidence, rest, k) == (
            exponent, vset(g, buckets[exponent])
        )

    @given(bipartite_graphs(max_side1=8, max_side2=8), st.integers(2, 4))
    @settings(max_examples=60)
    def test_dyadic_bucket_pigeonhole(self, g, k):
        chain = build_chain(g, k)
        incidence = remainder_to_deepest(g, chain)
        rest = chain.remainder - high_degree_targets(incidence, k)
        if not rest:
            return
        exponent, bucket = largest_dyadic_bucket(incidence, rest, k)
        assert bucket <= rest
        slots = (k ** 3).bit_length()
        assert len(bucket) * slots >= len(rest)
        members, degrees = g.degrees_into(bucket, chain.deepest)
        assert members.tolist() == bucket.ids()
        for d in degrees.tolist():
            assert d.bit_length() - 1 == exponent

    def test_sample_exponent_zero_is_identity(self):
        members = VertexSet.from_ids([2, 5, 9], 10)
        rng = random.Random(7)
        state = rng.getstate()
        assert sample_subset(members, 0, rng) == members
        assert rng.getstate() == state  # no randomness consumed

    def test_sample_determinism_and_bounds(self):
        members = VertexSet.from_ids(range(30), 30)
        a = sample_subset(members, 2, random.Random(11))
        b = sample_subset(members, 2, random.Random(11))
        assert a == b and a <= members
        empty = VertexSet.from_ids([], 30)
        assert sample_subset(empty, 3, random.Random(0)) == empty
        with pytest.raises(ValueError):
            sample_subset(members, -1, random.Random(0))

    @pytest.mark.parametrize("exponent", [1, 3, 7, 31, 32, 33, 40])
    @pytest.mark.parametrize("m", [0, 1, 5, 300])
    def test_sample_draws_as_one_call_per_member(self, exponent, m):
        """Whether drawn at once or member by member, the kept set and the
        generator's state afterwards are those of one ``getrandbits(exponent)``
        call per member, in ascending order."""
        n = 2 * m + 3
        ids = list(range(1, n, 2))[:m]
        members = VertexSet.from_ids(ids, n)
        reference = random.Random(m * 100 + exponent)
        want = [w for w in ids if reference.getrandbits(exponent) == 0]
        rng = random.Random(m * 100 + exponent)
        got = sample_subset(members, exponent, rng)
        assert got.ids() == want
        assert rng.getstate() == reference.getstate()

    def test_sample_hits_half_density_on_average(self):
        # [DERIVED] mean of Binomial(100, 1/2) estimated over 10**4 draws;
        # 5% tolerance is 50 standard errors wide
        members = VertexSet.from_ids(range(100), 100)
        total = sum(
            len(sample_subset(members, 1, random.Random(seed)))
            for seed in range(10_000)
        )
        assert abs(total / 10_000 - 50.0) < 2.5

    def test_unit_residue_targets_counts_mod_k(self):
        g = complete_bipartite(3, 3)
        pool = g.side1
        incidence = g.edges_between(pool, g.side2)
        assert unit_residue_targets(incidence, g.side2, 3) == vset(g)
        assert unit_residue_targets(incidence, vset(g, [4]), 3) == pool
        assert unit_residue_targets(incidence, g.side2, 2) == pool
        # a modulus beyond int64 counts as any modulus above every degree
        assert unit_residue_targets(incidence, vset(g, [4]), 10**20) == pool

    @given(bipartite_graphs(max_side1=7, max_side2=7), st.integers(2, 5))
    @settings(max_examples=60)
    def test_unit_residue_targets_recount(self, g, k):
        chosen = vset(g, (w for w in g.side2 if w % 2))
        got = unit_residue_targets(g.edges_between(g.side1, g.side2), chosen, k)
        want = {v for v in g.side1 if len(nbrs(g, v) & chosen) % k == 1}
        assert set(got) == want


def reference_pick(g, chain, scored, draws) -> int:
    """The per-retry loop that :func:`best_draw` replaced, on Python sets:
    each draw's unit targets recounted, and a later draw kept only when its
    (scored units, units) key is strictly larger.  Returns the draw's index."""
    rows = {v: set(g.neighbor_ids(v)) for v in chain.remainder}
    scored = set(scored)
    best = best_key = None
    for i, draw in enumerate(draws):
        members = set(draw)
        units = {v for v, row in rows.items() if len(row & members) % chain.k == 1}
        key = (len(units & scored), len(units))
        if best_key is None or key > best_key:
            best, best_key = i, key
    return best


class TestBestDraw:
    """The one-pass selection among sampled retries against the loop it
    replaced."""

    @given(bipartite_graphs(max_side1=9, max_side2=7), st.integers(2, 5),
           st.integers(1, 4), st.integers(1, 16), st.integers(0, 2**32), st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_pass_equals_the_per_retry_loop(self, g, k, exponent, retries,
                                                seed, data):
        chain = build_chain(g, k)
        remainder = chain.remainder.ids()
        chosen = data.draw(st.sets(st.sampled_from(remainder))) if remainder else ()
        rng = random.Random(seed)
        draws = [sample_subset(chain.deepest, exponent, rng) for _ in range(retries)]
        incidence = remainder_to_deepest(g, chain)
        for scored in (chain.remainder, vset(g, chosen), vset(g)):
            pick = reference_pick(g, chain, scored, draws)
            assert best_draw(incidence, scored, draws, k) is draws[pick]
            # a forced tie: every key comes twice, and the first copy wins
            doubled = draws + draws
            assert best_draw(incidence, scored, doubled, k) is doubled[pick]

    def test_tie_between_distinct_draws_goes_to_the_first(self):
        # remainder {9, 10}; a draw of one deepest vertex gives both a
        # degree of 1, so the key is (scored units, 2) for any single vertex
        g = boundary_graph()
        chain = build_chain(g, 2)
        draws = [vset(g, [12]), vset(g, [11]), vset(g, [11, 12])]
        assert reference_pick(g, chain, chain.remainder, draws) == 0
        incidence = remainder_to_deepest(g, chain)
        assert best_draw(incidence, chain.remainder, draws, 2) is draws[0]
        assert best_draw(incidence, chain.remainder, draws[1:], 2) is draws[1]

    def test_scored_units_rank_before_units(self):
        # remainder {7, 8, 9, 10} at k = 2; {12} makes 8, 9 and 10 units and
        # {11, 12} makes only 7 one, the one scored vertex
        g = staircase_graph()
        chain = build_chain(g, 2)
        assert set(chain.remainder) == {7, 8, 9, 10}
        draws = [vset(g, [12]), vset(g, [11, 12])]
        assert reference_pick(g, chain, vset(g, [7]), draws) == 1
        incidence = remainder_to_deepest(g, chain)
        assert best_draw(incidence, vset(g, [7]), draws, 2) is draws[1]

    @given(bipartite_graphs(max_side1=9, max_side2=7), st.integers(2, 4),
           st.integers(1, 16), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_sampled_run_keeps_the_loop_choice_on_every_route(self, g, k, retries, seed):
        self.check_sampled_run(g, k, retries, seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_both_sampling_routes(self, seed):
        # at k = 2 vertex 9 is heavy (route 2) and vertex 10 is not (route 3)
        trace = self.check_sampled_run(boundary_graph(), 2, 16, seed)
        assert {2, 3} <= set(trace.routes)

    @staticmethod
    def check_sampled_run(g, k, retries, seed):
        """Replays a sampled run's draws, route 2 before route 3 from the
        one generator, and checks each route's chosen draw."""
        _, trace = find_mod_one_subgraph(g, k, mode="sampled", seed=seed,
                                         retries=retries)
        chain = build_chain(g, k)
        rng = random.Random(seed)
        for case, exponent in ((2, 1), (3, trace.bucket_exponent)):
            route = trace.routes.get(case)
            if route is None or exponent == 0:
                continue
            scored = trace.heavy if case == 2 else trace.bucket
            draws = [sample_subset(chain.deepest, exponent, rng) for _ in range(retries)]
            assert route.chosen == draws[reference_pick(g, chain, scored, draws)]
        return trace


class TestSharedIncidence:
    """After the chain is built, a run reads the edges between the
    remainder and the deepest level once, and every route query counts its
    degrees from that one read."""

    READERS = ("degrees_into", "last_neighbors", "neighbors_within", "edges_between")

    @pytest.mark.parametrize("mode", ["sampled", "derandomized"])
    def test_one_read_per_run(self, mode, monkeypatch):
        calls = []
        for name in self.READERS:
            def spy(self, *args, _real=getattr(BipartiteGraph, name), _name=name):
                calls.append((_name, args))
                return _real(self, *args)
            monkeypatch.setattr(BipartiteGraph, name, spy)

        def chain_spy(*args, _real=construction.build_chain):
            chain = _real(*args)
            calls.append(("build_chain", chain))
            return chain
        monkeypatch.setattr(construction, "build_chain", chain_spy)

        # at k = 2 vertex 9 is heavy (route 2) and vertex 10 is not (route 3)
        _, trace = find_mod_one_subgraph(boundary_graph(), 2, mode=mode)
        assert {2, 3} <= set(trace.routes)
        start = [name for name, _ in calls].index("build_chain")
        chain = calls[start][1]
        after = calls[start + 1:]
        # every read that counts remainder vertices into the deepest level
        reads = [
            (name, (pool, subset)) for name, (pool, subset) in after
            if pool and pool <= chain.remainder and subset <= chain.deepest
        ]
        assert reads == [("edges_between", (chain.remainder, chain.deepest))]


class TestFixDegrees:
    def test_star_patch_uses_lowest_levels(self):
        g = star(7, center_side=2)
        chain = build_chain(g, 5)
        units = vset(g, [4, 5, 6])
        patch = fix_degrees(g, chain, chain.deepest, units)
        assert set(patch) == {0, 1, 2}
        final = patch | chain.deepest | units
        assert verify_residue(g, final, ResidueSpec(1, 5)).ok

    def test_zero_need_leaves_no_patch(self):
        g = complete_bipartite(3, 3)
        chain = build_chain(g, 3)
        patch = fix_degrees(g, chain, chain.deepest, vset(g, [2]))
        assert patch == vset(g)

    def test_single_edge_patch(self):
        g = matching(1)
        chain = build_chain(g, 2)
        patch = fix_degrees(g, chain, chain.deepest, vset(g))
        assert set(patch) == {0}

    def test_modulus_beyond_int64(self):
        g = matching(2)
        chain = DominatingChain(
            k=10**20, levels=(level_of({2: 0}, g.n),), remainder=vset(g, [1])
        )
        patch = fix_degrees(g, chain, chain.deepest, vset(g))
        assert set(patch) == {0}

    def test_modulus_between_n_and_n_plus_depth(self):
        # seven levels share the centre 7; with all seven leaves as unit
        # targets it misses (1 - 7) mod 20 = 14 >= 7 privates, not
        # (1 - 7) mod 8 = 2 as a modulus capped at n would say
        g = star(7, center_side=2)
        chain = build_chain(g, 20)
        assert len(chain.levels) == 7
        patch = fix_degrees(g, chain, chain.deepest, g.side1)
        assert patch == g.side1

    @pytest.mark.parametrize("first, chosen", [
        ({4: 0}, 5),  # the lookup runs past the level's last dominator
        ({5: 0}, 4),  # the lookup lands on another dominator
    ])
    def test_rejects_levels_that_do_not_nest(self, first, chosen):
        # the chosen dominator is in the deepest level but not in level 1,
        # whose private its residue needs
        g = complete_bipartite(3, 3)
        second = {chosen: 1}
        chain = DominatingChain(
            k=3, levels=(level_of(first, g.n), level_of(second, g.n)),
            remainder=vset(g, [2]),
        )
        with pytest.raises(ConstructionError) as caught:
            fix_degrees(g, chain, vset(g, [chosen]), vset(g))
        assert str(caught.value) == f"chosen dominator {chosen} is not in chain level 1"

    def test_rejects_chosen_outside_deepest(self):
        g = complete_bipartite(3, 3)
        chain = build_chain(g, 3)
        with pytest.raises(ConstructionError):
            fix_degrees(g, chain, vset(g, [4]), vset(g))

    @given(
        bipartite_graphs(max_side1=7, max_side2=7),
        st.integers(2, 20) | st.just(10**20),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_per_dominator_patch(self, g, k, data):
        # k runs past n + depth, where fix_degrees stops its modulus, and
        # the unit targets may hold privates
        chain = build_chain(g, k)

        def subset(members):
            members = members.ids()
            return vset(g, data.draw(st.sets(st.sampled_from(members))) if members else ())

        chosen, units = subset(chain.deepest), subset(g.side1)
        want = set()
        for u in chosen:
            missing = (1 - len(set(g.neighbor_ids(u)) & set(units))) % k
            want.update(dict(pairs(level))[u] for level in chain.levels[:missing])
        assert set(fix_degrees(g, chain, chosen, units)) == want

    @given(bipartite_graphs(max_side1=7, max_side2=7), st.integers(2, 5))
    @settings(max_examples=60)
    def test_patched_candidate_always_verifies(self, g, k):
        chain = build_chain(g, k)
        chosen = chain.deepest
        units = unit_residue_targets(remainder_to_deepest(g, chain), chosen, k)
        if not chosen:
            return
        patch = fix_degrees(g, chain, chosen, units)
        candidate = patch | chosen | units
        assert verify_residue(g, candidate, ResidueSpec(1, k)).ok


class TestAnalysisConfig:
    """The report-only route shares."""

    def test_default_shares(self):
        assert MATCHING_SHARE == Fraction(1, 3) - Fraction(1, 2000)
        assert HEAVY_SHARE == Fraction(2, 3) - Fraction(1, 1000)
        assert MATCHING_SHARE + HEAVY_SHARE < 1


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


def mirror(g: BipartiteGraph, vertices: VertexSet) -> VertexSet:
    """``vertices`` of ``g`` named as in ``transpose(g)``."""
    return VertexSet.from_ids(
        [v + g.n2 if v < g.n1 else v - g.n1 for v in vertices], g.n
    )


class TestOrientation:
    """The chain dominates the larger side, whichever side number it has."""

    @given(
        bipartite_graphs(max_side1=8, max_side2=8),
        st.integers(2, 5),
        st.sampled_from(["sampled", "derandomized"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_transpose_returns_the_mirror(self, g, k, mode):
        assume(g.n1 != g.n2)
        vertices, trace = find_mod_one_subgraph(g, k, mode=mode)
        flipped, flipped_trace = find_mod_one_subgraph(transpose(g), k, mode=mode)
        assert flipped == mirror(g, vertices)
        for field in ("case", "analysis_case", "dominator_sizes",
                      "expected_scores", "achieved_scores"):
            assert getattr(flipped_trace, field) == getattr(trace, field)

    def test_star_keeps_its_leaves_from_either_side(self):
        for center_side in (1, 2):
            vertices, _ = find_mod_one_subgraph(
                star(56, center_side=center_side), 3, mode="derandomized"
            )
            assert len(vertices) >= 56

    @pytest.mark.parametrize("k, size", [(3, 29), (5, 27)])
    def test_complete_graph_order_ignores_side_numbers(self, k, size):
        for a, b in ((30, 6), (6, 30)):
            vertices, _ = find_mod_one_subgraph(
                complete_bipartite(a, b), k, mode="derandomized"
            )
            assert len(vertices) == size


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
