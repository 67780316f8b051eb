"""Residue DP, Fourier bound, uniformity report, derandomization."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bipartite_graphs
from moddeg import mixing
from moddeg.graph import BipartiteGraph, VertexSet


def binomial_residue(n: int, k: int, exponent: int, r: int) -> Fraction:
    """Independent oracle: P(Binomial(n, 2^-exponent) = r mod k) summed
    directly over the binomial pmf."""
    q = Fraction(1, 2**exponent)
    return sum(
        (math.comb(n, j) * q**j * (1 - q) ** (n - j) for j in range(r, n + 1, k)),
        Fraction(0),
    )


class TestResidueDistribution:
    @given(st.integers(0, 20), st.integers(2, 7), st.integers(1, 3))
    def test_matches_binomial_enumeration(self, n, k, exponent):
        dist = mixing.residue_distribution(n, k, exponent)
        for r in range(k):
            want = float(binomial_residue(n, k, exponent, r))
            assert abs(dist.probability(r) - want) < 1e-10

    @given(st.integers(0, 40), st.integers(2, 7), st.integers(1, 3))
    def test_exact_dp_equals_binomial_formula(self, n, k, exponent):
        probs = mixing.residue_distribution_exact(n, k, exponent)
        assert sum(probs) == 1
        for r in range(k):
            assert probs[r] == binomial_residue(n, k, exponent, r)

    def test_empty_sum_is_point_mass(self):
        dist = mixing.residue_distribution(0, 5, 1)
        assert dist.probability(0) == 1.0
        assert dist.probability(1) == 0.0

    def test_parity_of_fair_coins_is_exactly_uniform(self):
        for n in (1, 2, 7, 100):
            dist = mixing.residue_distribution(n, 2, 1)
            assert dist.probability(0) == pytest.approx(0.5, abs=1e-12)
            assert dist.probability(1) == pytest.approx(0.5, abs=1e-12)
        assert mixing.residue_distribution_exact(9, 2, 1)[1] == Fraction(1, 2)

    def test_k3_n27_near_third(self):
        dist = mixing.residue_distribution(27, 3)
        assert dist.probability(1) == pytest.approx(1 / 3, abs=1e-6)

    def test_float_dp_tracks_exact_dp(self):
        cubes = [(k**3, k, 1) for k in range(2, 11)]
        for n, k, e in [(30, 3, 1), (50, 6, 2), (64, 5, 1)] + cubes:
            exact = mixing.residue_distribution_exact(n, k, e)
            dist = mixing.residue_distribution(n, k, e)
            for r in range(k):
                assert abs(dist.probability(r) - float(exact[r])) < 1e-12

    def test_n_beyond_a_double_is_rejected(self):
        for f in (mixing.residue_distribution, mixing.fourier_gap_bound):
            with pytest.raises(ValueError, match="fit a double"):
                f(3**700, 3)
        assert mixing.residue_distribution(3**646, 3).probability(1) == pytest.approx(
            1 / 3, abs=1e-12
        )

    def test_large_n_smoke(self):
        dist = mixing.residue_distribution(10**6, 25)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
        # the bound holds for the exact value; allow float rounding on top
        bound = mixing.fourier_gap_bound(10**6, 25)
        assert abs(dist.probability(1) - 1 / 25) <= bound + 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            mixing.residue_distribution(-1, 3, 1)
        with pytest.raises(ValueError):
            mixing.residue_distribution(5, 1, 1)
        with pytest.raises(ValueError):
            mixing.residue_distribution(5, 3, 0)  # all-ones case excluded

    def test_distribution_invariants_enforced(self):
        with pytest.raises(ValueError):
            mixing.ResidueDistribution(n=1, k=2, exponent=1, probs=np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            mixing.ResidueDistribution(
                n=1, k=2, exponent=1, probs=np.array([1.5, -0.5])
            )

    def test_table_rows_match_single_runs(self):
        table = mixing.residue_table(12, 4, 1)
        for n in (0, 3, 12):
            dist = mixing.residue_distribution(n, 4, 1)
            assert np.allclose(table[n], dist.probs, atol=1e-15)

    @pytest.mark.parametrize("k", [2, 3, 4, 7, 16, 29])
    def test_table_is_bit_identical_to_the_roll_recurrence(self, k):
        """Each row mixes the one before with its cyclic shift; the reference
        shifts with ``np.roll``, the library with slices."""
        for n_max in (0, 1, 4, 37):
            for exponent in range(8):
                q = 2.0 ** -exponent
                want = np.zeros((n_max + 1, k))
                want[0, 0] = 1.0
                for i in range(n_max):
                    want[i + 1] = (1.0 - q) * want[i] + q * np.roll(want[i], 1)
                got = mixing.residue_table(n_max, k, exponent)
                assert got.tobytes() == want.tobytes(), (n_max, exponent)

    def test_table_exponent_zero_is_exact_point_masses(self):
        table = mixing.residue_table(9, 4, 0)
        for n in range(10):
            want = np.zeros(4)
            want[n % 4] = 1.0
            assert np.array_equal(table[n], want)
        with pytest.raises(ValueError):
            mixing.residue_table(3, 4, -1)


class TestFourierBound:
    def test_k2_bound_vanishes(self):
        # the lone character term is 1-2q = 0; only float noise survives
        bound = mixing.fourier_gap_bound(5, 2, 1)
        assert 0.0 <= bound < 1e-80

    def test_monotone_in_n(self):
        for k, e in [(3, 1), (7, 2)]:
            values = [mixing.fourier_gap_bound(n, k, e) for n in range(0, 30)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    @given(st.integers(1, 60), st.integers(2, 8), st.integers(1, 2))
    def test_bounds_the_exact_gap(self, n, k, exponent):
        probs = mixing.residue_distribution_exact(n, k, exponent)
        gap = max(abs(p - Fraction(1, k)) for p in probs)
        bound = mixing.fourier_gap_bound(n, k, exponent)
        assert float(gap) <= bound * (1 + 1e-9) + 1e-15

    def test_k5_n125_gap_within_bound(self):
        probs = mixing.residue_distribution_exact(125, 5, 1)
        bound = mixing.fourier_gap_bound(125, 5, 1)
        # residue 0 saturates the bound at this n (phases align), so allow
        # a one-ulp slack there; residue 1 must clear it with room
        gap = max(abs(p - Fraction(1, 5)) for p in probs)
        assert float(gap) <= bound * (1 + 1e-9)
        assert float(abs(probs[1] - Fraction(1, 5))) <= bound * 0.7


class TestUniformityCheck:
    def test_k2_exact_half(self):
        check = mixing.uniformity_check(2)
        assert check.probability == 0.5
        assert check.ratio == 1.0
        assert check.passed

    def test_k3_ratio(self):
        assert mixing.uniformity_check(3).ratio >= 0.999

    def test_k10_ratio(self):
        check = mixing.uniformity_check(10)
        assert check.n == 1000
        assert check.ratio >= 0.999

    def test_alt_scale_reported(self):
        check = mixing.uniformity_check(5)
        assert check.alt_n == math.ceil(25 * math.log(5))
        assert 0.0 < check.alt_probability < 1.0

    def test_table_and_formats(self):
        checks = mixing.uniformity_table(6)
        assert [c.k for c in checks] == [2, 3, 4, 5, 6]
        text = mixing.format_uniformity_table(checks, "text")
        assert text.splitlines()[0].split()[0] == "k"
        csv_text = mixing.format_uniformity_table(checks, "csv")
        rows = csv_text.strip().splitlines()
        assert len(rows) == 6 and rows[0].startswith("k,")
        with pytest.raises(ValueError):
            mixing.format_uniformity_table(checks, "html")

    @pytest.mark.parametrize("k_max", [1, 0, -3])
    def test_table_needs_k_max_at_least_two(self, k_max):
        with pytest.raises(ValueError, match=f"^k-max must be >= 2, got {k_max}$"):
            mixing.uniformity_table(k_max)

    def test_failure_is_reported_not_raised(self, skewed_at_five):
        check = mixing.uniformity_check(5)
        assert check.n == 125
        assert check.ratio < 0.95
        assert not check.passed

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            mixing.uniformity_check(1)


def brute_conditional_expectation(
    graph: BipartiteGraph,
    scored: list[int],
    kept: VertexSet,
    dropped: VertexSet,
    undecided: list[int],
    k: int,
    exponent: int,
) -> Fraction:
    """Independent evaluator: expected hit count with the undecided members
    independently kept at 2^-exponent, via the binomial pmf per vertex."""
    total = Fraction(0)
    for v in scored:
        neighbours = set(graph.neighbor_ids(v))
        current = len(neighbours & set(kept))
        open_count = len(neighbours & set(undecided))
        total += binomial_residue(open_count, k, exponent, (1 - current) % k)
    return total


def touches_derandomize(
    graph: BipartiteGraph, members: VertexSet, scored: VertexSet, k: int, exponent: int
) -> VertexSet:
    """Reference derandomizer on dicts keyed by vertex id: each member's
    scored neighbours are collected from the scored vertices' whole rows,
    and each member sums its neighbours' gains in ascending id order."""
    undecided = {
        v: sum(1 for w in graph.neighbor_ids(v) if w in members) for v in scored
    }
    needed = {v: 1 % k for v in undecided}
    table = mixing.residue_table(max(undecided.values(), default=0), k, exponent)
    touches: dict[int, list[int]] = {w: [] for w in members}
    for v in undecided:
        for w in graph.neighbor_ids(v):
            if w in touches:
                touches[w].append(v)
    kept = []
    for w in members:
        gain_drop = gain_keep = 0.0
        for v in touches[w]:
            row = table[undecided[v] - 1].tolist()
            gain_drop += row[needed[v]]
            gain_keep += row[(needed[v] - 1) % k]
        keep = gain_keep > gain_drop
        for v in touches[w]:
            undecided[v] -= 1
            if keep:
                needed[v] = (needed[v] - 1) % k
        if keep:
            kept.append(w)
    return VertexSet.from_ids(kept, graph.n)


class TestDerandomize:
    def test_empty_scored_returns_empty(self):
        g = BipartiteGraph.from_edges(1, 2, [(0, 1), (0, 2)])
        empty = VertexSet.from_ids([], g.n)
        assert mixing.derandomize_subset(g, g.side2, empty, 2, 1) == empty

    def test_single_neighbour_gets_included(self):
        g = BipartiteGraph.from_edges(1, 1, [(0, 1)])
        kept = mixing.derandomize_subset(g, g.side2, g.side1, 3, 1)
        assert set(kept) == {1}

    @given(bipartite_graphs(max_side1=7, max_side2=7), st.integers(2, 5), st.integers(1, 2))
    @settings(max_examples=60)
    def test_never_below_apriori_expectation(self, g, k, exponent):
        members, scored = g.side2, g.side1
        incidence = g.edges_between(scored, members)
        expectation = mixing.expected_unit_score(incidence, scored, k, exponent)
        kept = mixing.derandomize_subset(g, members, scored, k, exponent)
        achieved = sum(
            1 for v in scored if len(set(g.neighbor_ids(v)) & set(kept)) % k == 1
        )
        assert achieved >= expectation - 1e-9

    @given(bipartite_graphs(max_side1=6, max_side2=6), st.integers(2, 4))
    @settings(max_examples=40)
    def test_matches_independent_greedy_replay(self, g, k):
        """Replay the decision sequence with a from-scratch conditional
        expectation evaluator; the chosen subsets must coincide exactly."""
        exponent = 1
        members, scored = g.side2, list(g.side1)
        kept = VertexSet.from_ids([], g.n)
        dropped = VertexSet.from_ids([], g.n)
        remaining = list(members)
        while remaining:
            w = remaining[0]
            rest = remaining[1:]
            e_keep = brute_conditional_expectation(
                g, scored, kept | VertexSet.from_ids([w], g.n), dropped, rest, k, exponent
            )
            e_drop = brute_conditional_expectation(
                g, scored, kept, dropped | VertexSet.from_ids([w], g.n), rest, k, exponent
            )
            # martingale identity: branch average equals the pre-decision value
            e_now = brute_conditional_expectation(
                g, scored, kept, dropped, remaining, k, exponent
            )
            q = Fraction(1, 2**exponent)
            assert q * e_keep + (1 - q) * e_drop == e_now
            if e_keep > e_drop:
                kept = kept | VertexSet.from_ids([w], g.n)
            else:
                dropped = dropped | VertexSet.from_ids([w], g.n)
            remaining = rest
        assert mixing.derandomize_subset(g, members, g.side1, k, exponent) == kept

    @given(
        bipartite_graphs(max_side1=9, max_side2=9),
        st.integers(2, 6),
        st.integers(1, 4),
        st.data(),
    )
    @settings(max_examples=150)
    def test_proper_subsets_match_the_reference(self, g, k, exponent, data):
        """Members and scored vertices drawn as any subsets of side 2 and
        side 1, so some members may have no scored neighbour and some
        scored vertices no member neighbour.  The derandomizer reads the
        members' rows alone: no degree query over the scored vertices'.
        It writes its result as a mask, not through the id-list path."""
        members, scored = (
            VertexSet.from_ids(data.draw(st.sets(st.sampled_from(side.ids()))), g.n)
            for side in (g.side2, g.side1)
        )
        want = touches_derandomize(g, members, scored, k, exponent)

        def refuse(*args):
            raise AssertionError("degrees_into or from_ids was called")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(BipartiteGraph, "degrees_into", refuse)
            patch.setattr(VertexSet, "from_ids", staticmethod(refuse))
            assert mixing.derandomize_subset(g, members, scored, k, exponent) == want

    def test_isolated_members_and_scored_vertices(self):
        # 0 ~ 4, 5; 1 ~ 4; 2 ~ 5, 6; 3 ~ 7.  Member 6 has no scored
        # neighbour and scored 3 no member neighbour.
        g = BipartiteGraph.from_edges(
            4, 4, [(0, 4), (0, 5), (1, 4), (2, 5), (2, 6), (3, 7)]
        )
        members = VertexSet.from_ids([4, 5, 6], g.n)
        scored = VertexSet.from_ids([0, 1, 3], g.n)
        for k in range(2, 7):
            for exponent in range(1, 5):
                kept = mixing.derandomize_subset(g, members, scored, k, exponent)
                assert kept == touches_derandomize(g, members, scored, k, exponent)
                assert kept == VertexSet.from_ids([4], g.n)

    def test_gains_add_in_ascending_id_order(self):
        """K(4, 54) less three edges at k = 2, exponent 2: a member's gains
        round differently when its scored neighbours are added in another
        order, and the kept set changes with it."""
        holes = {(3, 4), (3, 41), (3, 47)}
        edges = [(u, w) for u in range(4) for w in range(4, 58) if (u, w) not in holes]
        g = BipartiteGraph.from_edges(4, 54, edges)
        kept = mixing.derandomize_subset(g, g.side2, g.side1, 2, 2)
        assert kept == touches_derandomize(g, g.side2, g.side1, 2, 2)

    def test_validation(self):
        g = BipartiteGraph.from_edges(1, 1, [(0, 1)])
        with pytest.raises(ValueError):
            mixing.derandomize_subset(g, g.side2, g.side1, 2, 0)
        with pytest.raises(ValueError):
            mixing.derandomize_subset(g, g.side2, g.side1, 1, 1)


class TestExpectedUnitScore:
    @given(bipartite_graphs(max_side1=6, max_side2=6), st.integers(2, 5), st.integers(1, 2))
    @settings(max_examples=40)
    def test_matches_exhaustive_subset_average(self, g, k, exponent):
        members, scored = g.side2, g.side1
        incidence = g.edges_between(scored, members)
        got = mixing.expected_unit_score(incidence, scored, k, exponent)
        q = Fraction(1, 2**exponent)
        member_ids = list(members)
        total = Fraction(0)
        for mask in range(1 << len(member_ids)):
            subset = VertexSet.from_ids(
                [w for i, w in enumerate(member_ids) if mask >> i & 1], g.n
            )
            weight = q ** len(subset) * (1 - q) ** (len(member_ids) - len(subset))
            hits = sum(
                1 for v in scored if len(set(g.neighbor_ids(v)) & set(subset)) % k == 1
            )
            total += weight * hits
        assert abs(got - float(total)) < 1e-9

    def test_empty_scored(self):
        g = BipartiteGraph.from_edges(1, 1, [(0, 1)])
        empty = VertexSet.from_ids([], g.n)
        incidence = g.edges_between(empty, g.side2)
        assert mixing.expected_unit_score(incidence, empty, 3, 1) == 0.0

    def test_adds_left_to_right_in_ascending_id_order(self):
        # degrees up to 60 at exponents 2 and 3 give table entries that round,
        # so another order of the additions shows in the last digits
        m = 60
        degrees = [1 + (7 * i) % m for i in range(90)]
        n1 = len(degrees)
        edges = [(i, n1 + j) for i, d in enumerate(degrees) for j in range(d)]
        g = BipartiteGraph.from_edges(n1, m, edges)
        for k, exponent in [(3, 2), (4, 3)]:
            table = mixing.residue_table(m, k, exponent)
            want = 0.0
            for d in degrees:  # scored vertex i has degree degrees[i]
                want += float(table[d, 1 % k])
            incidence = g.edges_between(g.side1, g.side2)
            assert mixing.expected_unit_score(incidence, g.side1, k, exponent) == want
