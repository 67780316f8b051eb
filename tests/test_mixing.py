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

    def test_failure_is_reported_not_raised(self):
        check = mixing.uniformity_check(5, threshold_exponent=1)
        assert check.n == 5
        assert check.ratio < 0.95
        assert not check.passed

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            mixing.uniformity_check(1)
        with pytest.raises(ValueError):
            mixing.uniformity_check(3, threshold_exponent=-1)

    def test_exponent_beyond_a_double_is_rejected(self):
        assert mixing.uniformity_check(2, threshold_exponent=1023).passed
        for k, exponent in ((2, 1024), (3, 647), (25, 10**12)):
            with pytest.raises(ValueError, match="fit a double"):
                mixing.uniformity_check(k, threshold_exponent=exponent)


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
    pool = VertexSet.from_ids(scored)
    current = graph.degrees_into(pool, kept)
    open_count = graph.degrees_into(pool, VertexSet.from_ids(undecided))
    for v in scored:
        total += binomial_residue(open_count[v], k, exponent, (1 - current[v]) % k)
    return total


class TestDerandomize:
    def test_empty_scored_returns_empty(self):
        g = BipartiteGraph.from_edges(1, 2, [(0, 1), (0, 2)])
        assert mixing.derandomize_subset(g, g.side2, VertexSet(), 2, 1) == VertexSet()

    def test_single_neighbour_gets_included(self):
        g = BipartiteGraph.from_edges(1, 1, [(0, 1)])
        kept = mixing.derandomize_subset(g, g.side2, g.side1, 3, 1)
        assert set(kept) == {1}

    @given(bipartite_graphs(max_side1=7, max_side2=7), st.integers(2, 5), st.integers(1, 2))
    @settings(max_examples=60)
    def test_never_below_apriori_expectation(self, g, k, exponent):
        members, scored = g.side2, g.side1
        expectation = mixing.expected_unit_score(g, members, scored, k, exponent)
        kept = mixing.derandomize_subset(g, members, scored, k, exponent)
        achieved = sum(1 for d in g.degrees_into(scored, kept).values() if d % k == 1)
        assert achieved >= expectation - 1e-9

    @given(bipartite_graphs(max_side1=6, max_side2=6), st.integers(2, 4))
    @settings(max_examples=40)
    def test_matches_independent_greedy_replay(self, g, k):
        """Replay the decision sequence with a from-scratch conditional
        expectation evaluator; the chosen subsets must coincide exactly."""
        exponent = 1
        members, scored = g.side2, list(g.side1)
        kept = VertexSet()
        dropped = VertexSet()
        remaining = list(members)
        while remaining:
            w = remaining[0]
            rest = remaining[1:]
            e_keep = brute_conditional_expectation(
                g, scored, kept.add(w), dropped, rest, k, exponent
            )
            e_drop = brute_conditional_expectation(
                g, scored, kept, dropped.add(w), rest, k, exponent
            )
            # martingale identity: branch average equals the pre-decision value
            e_now = brute_conditional_expectation(
                g, scored, kept, dropped, remaining, k, exponent
            )
            q = Fraction(1, 2**exponent)
            assert q * e_keep + (1 - q) * e_drop == e_now
            if e_keep > e_drop:
                kept = kept.add(w)
            else:
                dropped = dropped.add(w)
            remaining = rest
        assert mixing.derandomize_subset(g, members, g.side1, k, exponent) == kept

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
        got = mixing.expected_unit_score(g, members, scored, k, exponent)
        q = Fraction(1, 2**exponent)
        member_ids = list(members)
        total = Fraction(0)
        for mask in range(1 << len(member_ids)):
            subset = VertexSet.from_ids(
                w for i, w in enumerate(member_ids) if mask >> i & 1
            )
            weight = q ** len(subset) * (1 - q) ** (len(member_ids) - len(subset))
            hits = sum(
                1 for d in g.degrees_into(scored, subset).values() if d % k == 1
            )
            total += weight * hits
        assert abs(got - float(total)) < 1e-9

    def test_empty_scored(self):
        g = BipartiteGraph.from_edges(1, 1, [(0, 1)])
        assert mixing.expected_unit_score(g, g.side2, VertexSet(), 3, 1) == 0.0
