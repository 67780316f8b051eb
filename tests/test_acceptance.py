"""Acceptance gate: ten binding criteria, one verdict line each.

Every test prints a ``[acceptance] criterion N`` PASS/FAIL line through
``record_acceptance`` and then asserts, so a red run still reports the
verdict of every criterion that executed.  Corpora shared between criteria
live in session fixtures; all randomness is seeded, so the gate is
deterministic end to end.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import random_graph, record_acceptance
from enumeration import enumerate_connected_bipartite
from moddeg import (
    BipartiteGraph,
    ResidueSpec,
    VertexSet,
    build_chain,
    check_chain,
    enumerate_max_order,
    exact_max_order,
    find_mod_one_subgraph,
    fourier_gap_bound,
    residue_distribution_exact,
    sample_subset,
    verify_residue,
)
from moddeg.cli import main as cli_main
from moddeg.generators import (
    complete_bipartite,
    random_bipartite,
    random_regularish,
)
from moddeg.harness import run_batch

MODULI = (2, 3, 5, 8, 13)


@pytest.fixture(scope="session")
def residue_corpus() -> list[tuple[BipartiteGraph, int]]:
    """1000 random-family instances cycling k over {2,3,5,8,13}, n up to 400."""
    rng = random.Random(20260819)
    instances = []
    for i in range(1000):
        k = MODULI[i % len(MODULI)]
        roll = i % 20
        if roll < 12:
            n1 = rng.randint(2, 30)
            n2 = rng.randint(2, 30)
            g = random_bipartite(n1, n2, rng.uniform(0.1, 0.9), rng)
        elif roll < 19:
            n1 = rng.randint(20, 120)
            n2 = rng.randint(5, 80)
            g = random_regularish(n1, n2, rng.randint(1, 4), rng)
        else:
            # full-size instances: exactly 400 vertices
            g = random_regularish(250, 150, rng.randint(1, 3), rng)
        instances.append((g, k))
    assert max(g.n for g, _ in instances) == 400
    return instances


def test_criterion_01_residue_validity(residue_corpus):
    started = time.perf_counter()
    failures = []
    for index, (g, k) in enumerate(residue_corpus):
        for mode in ("sampled", "derandomized"):
            vertices, _ = find_mod_one_subgraph(g, k, mode=mode, seed=index)
            check = verify_residue(g, vertices, ResidueSpec(1, k))
            if not vertices or not check.ok:
                failures.append((index, mode, check))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 120.0
    record_acceptance(
        "criterion 1: non-empty verified subgraph on 1000 instances, both modes",
        ok,
        f"{len(residue_corpus)} instances, {len(failures)} failures, {elapsed:.1f}s",
    )
    assert not failures, failures[:5]
    assert elapsed < 120.0


def test_criterion_02_chain_invariants(residue_corpus):
    failures = []
    for index, (g, k) in enumerate(residue_corpus):
        chain = build_chain(g, k)
        problems = check_chain(g, chain)
        if problems:
            failures.append((index, problems))
        # the bound named by the criterion, recomputed in place
        first = len(chain.levels[0].dominators)
        if len(chain.remainder) < max(g.n1, g.n2) - (k - 1) * first:
            failures.append((index, "remainder lower bound"))
    ok = not failures
    record_acceptance(
        "criterion 2: chain invariants exact on the same instances",
        ok,
        f"{len(residue_corpus)} chains, {len(failures)} violations",
    )
    assert not failures, failures[:5]


def test_criterion_03_balanced_complete_is_tight():
    failures = []
    for k in range(2, 7):
        result = exact_max_order(complete_bipartite(k, k), ResidueSpec(1, k))
        if result.order != 2 or Fraction(result.order, 2 * k) != Fraction(1, k):
            failures.append((k, result.order))
    ok = not failures
    record_acceptance(
        "criterion 3: exact maximum 2 on balanced complete graphs, k=2..6",
        ok,
        "ratio exactly 1/k" if ok else f"failures: {failures}",
    )
    assert not failures


@pytest.fixture(scope="session")
def small_graph_values():
    """Criterion 4/9 corpus: every connected bipartite graph on <= 8 vertices
    plus 500 random graphs on <= 14, each with its exact (1 mod 2) and
    (0 mod 2) maxima."""
    started = time.perf_counter()
    rng = random.Random(409)
    graphs = list(enumerate_connected_bipartite(8))
    graphs.extend(random_graph(rng, max_side1=7, max_side2=7) for _ in range(500))
    values = []
    for g in graphs:
        odd = exact_max_order(g, ResidueSpec(1, 2))
        even = exact_max_order(g, ResidueSpec(0, 2))
        assert odd.exact and even.exact
        values.append((g.n, odd.order, even.order))
    elapsed = time.perf_counter() - started
    return values, elapsed


def test_criterion_04_parity_one_quarter_bound(small_graph_values):
    values, elapsed = small_graph_values
    violations = [
        (n, odd) for n, odd, _ in values if Fraction(odd, n) < Fraction(1, 4)
    ]
    worst = min(Fraction(odd, n) for n, odd, _ in values)
    ok = not violations and elapsed < 300.0
    record_acceptance(
        "criterion 4: odd-degree share >= 1/4 on all small graphs",
        ok,
        f"{len(values)} graphs, worst ratio {worst}, {elapsed:.1f}s",
    )
    assert not violations, violations[:5]
    assert elapsed < 300.0


def test_criterion_05_near_uniform_residue_distribution():
    failures = []
    for k in range(2, 26):
        n = k**3
        probs = residue_distribution_exact(n, k, 1)
        p_one = probs[1]
        if p_one < Fraction(95, 100) / k:
            failures.append((k, "below 0.95/k"))
        gap = abs(p_one - Fraction(1, k))
        if float(gap) > fourier_gap_bound(n, k, 1):
            failures.append((k, "gap above the character-sum bound"))
        if k == 2 and p_one != Fraction(1, 2):
            failures.append((k, "parity not exactly 1/2"))
    ok = not failures
    record_acceptance(
        "criterion 5: exact DP near-uniform at n=k^3 for k=2..25",
        ok,
        "probability >= 0.95/k and within the character bound"
        if ok
        else f"failures: {failures}",
    )
    assert not failures


@pytest.fixture(scope="session")
def derandomized_route_runs():
    """100 derandomized runs whose traces contain route 2 or 3 scores."""
    rng = random.Random(1306)
    runs = []
    while len(runs) < 50:
        # pinned dominators plus high-degree extras: reaches the heavy route
        m = rng.randint(9, 12)
        extras = rng.randint(2, 5)
        n1 = m + extras
        edges = [(i, n1 + i) for i in range(m)]
        for e in range(extras):
            d = rng.randint(6, m)
            edges.extend((m + e, n1 + w) for w in rng.sample(range(m), d))
        g = BipartiteGraph.from_edges(n1, m, edges)
        _, trace = find_mod_one_subgraph(g, 2, mode="derandomized")
        if trace.expected_scores:
            runs.append((g, 2, trace))
    while len(runs) < 100:
        # sparse wide graphs: reaches the dyadic-bucket route
        n1 = rng.randint(10, 26)
        n2 = rng.randint(2, 6)
        g = random_bipartite(n1, n2, rng.uniform(0.2, 0.5), rng)
        _, trace = find_mod_one_subgraph(g, 3, mode="derandomized")
        if trace.expected_scores:
            runs.append((g, 3, trace))
    return runs


def best_subset_score(g, deepest: VertexSet, scored: VertexSet, k: int) -> int:
    """Exhaustive maximum of |{v in scored : deg_U(v) = 1 mod k}| over all
    subsets U of the deepest level."""
    ids = list(deepest)
    local = []
    for v in scored:
        neighbours = set(g.neighbor_ids(v))
        mask = 0
        for i, w in enumerate(ids):
            if w in neighbours:
                mask |= 1 << i
        local.append(mask)
    best = 0
    for subset in range(1 << len(ids)):
        hits = sum(1 for lm in local if (lm & subset).bit_count() % k == 1)
        if hits > best:
            best = hits
    return best


def test_criterion_06_derandomization_guarantee(derandomized_route_runs):
    failures = []
    exhausted = 0
    for index, (g, k, trace) in enumerate(derandomized_route_runs):
        for route, expected in trace.expected_scores.items():
            if trace.achieved_scores[route] < expected - 1e-6:
                failures.append((index, route, "below expectation"))
        chain = build_chain(g, k)
        if len(chain.deepest) > 12:
            continue
        scored_by_route = {2: trace.heavy, 3: trace.bucket}
        for route, achieved in trace.achieved_scores.items():
            scored = scored_by_route[route]
            if scored is None:
                continue
            exhausted += 1
            if best_subset_score(g, chain.deepest, scored, k) < achieved:
                failures.append((index, route, "exhaustive best below achieved"))
    ok = not failures and len(derandomized_route_runs) >= 100
    record_acceptance(
        "criterion 6: derandomized score >= expectation; exhaustive cap holds",
        ok,
        f"{len(derandomized_route_runs)} runs, {exhausted} exhaustive checks, "
        f"{len(failures)} failures",
    )
    assert len(derandomized_route_runs) >= 100
    assert not failures, failures[:5]


def test_criterion_07_single_hit_probability():
    trials = 100_000
    floor = math.exp(-2)
    rng = random.Random(777)
    failures = []
    rows = []
    for p in range(0, 7):
        for m in sorted({2**p, 2 ** (p + 1) - 1}):
            members = VertexSet.from_ids(range(m), m)
            hits = sum(
                1 for _ in range(trials) if len(sample_subset(members, p, rng)) == 1
            )
            phat = hits / trials
            rows.append((p, m, phat))
            if p == 0 and hits != trials:
                failures.append((p, m, "not deterministic"))
            sigma = math.sqrt(phat * (1.0 - phat) / trials)
            if phat < floor - 3.0 * sigma:
                failures.append((p, m, phat))
    worst = min(phat for _, _, phat in rows)
    ok = not failures
    record_acceptance(
        "criterion 7: single-hit rate >= exp(-2) - 3 sigma for exponents 0..6",
        ok,
        f"{len(rows)} (exponent, size) pairs, worst rate {worst:.4f}, "
        f"floor {floor:.4f}",
    )
    assert not failures, failures


def test_criterion_08_construction_never_beats_oracle():
    rng = random.Random(808)
    failures = []
    for index in range(200):
        g = random_graph(rng, max_side1=9, max_side2=9)
        k = (2, 3, 5)[index % 3]
        vertices, _ = find_mod_one_subgraph(g, k, seed=index)
        best = exact_max_order(g, ResidueSpec(1, k))
        if not best.exact or len(vertices) > best.order:
            failures.append((index, len(vertices), best.order))
    for index in range(100):
        g = random_graph(rng, max_side1=7, max_side2=7)
        spec = ResidueSpec(1, (2, 3, 5)[index % 3])
        pruned = exact_max_order(g, spec)
        naive = enumerate_max_order(g, spec)
        if pruned.order != naive.order:
            failures.append((index, pruned.order, naive.order))
    ok = not failures
    record_acceptance(
        "criterion 8: construction <= exact maximum; pruned search == enumeration",
        ok,
        f"200 sandwich + 100 cross-checks, {len(failures)} failures",
    )
    assert not failures, failures[:5]


def test_criterion_09_even_degree_half_bound(small_graph_values):
    values, _ = small_graph_values
    violations = [
        (n, even) for n, _, even in values if even < math.ceil(n / 2)
    ]
    ok = not violations
    record_acceptance(
        "criterion 9: even-degree subgraph covers half the vertices",
        ok,
        f"{len(values)} graphs, {len(violations)} violations",
    )
    assert not violations, violations[:5]


def test_criterion_10_reproducible_reports(tmp_path):
    specs = [
        ("random", {"n1": 10, "n2": 8, "p": 0.35}),
        ("regularish", {"n1": 16, "n2": 6, "degree": 2}),
        ("star", {"leaves": 9, "center_side": 2}),
        ("complete", {"a": 3, "b": 3}),
    ] * 3
    first = run_batch(specs, 3, mode="sampled", seed=1010, oracle_max_n=14)
    second = run_batch(specs, 3, mode="sampled", seed=1010, oracle_max_n=14)
    api_ok = first.to_json() == second.to_json() and first.to_csv() == second.to_csv()

    spec_file = tmp_path / "bench.json"
    spec_file.write_text(
        json.dumps(
            {
                "k": 2,
                "mode": "sampled",
                "seed": 77,
                "retries": 8,
                "instances": [
                    {"kind": "random", "count": 6,
                     "params": {"n1": 8, "n2": 8, "p": 0.4}},
                    {"kind": "matching", "count": 2, "params": {"pairs": 5}},
                ],
            }
        )
    )
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    code1 = cli_main(["bench", "--spec", str(spec_file), "--out", str(out1)])
    code2 = cli_main(["bench", "--spec", str(spec_file), "--out", str(out2)])
    cli_ok = code1 == code2 == 0 and out1.read_bytes() == out2.read_bytes()

    ok = api_ok and cli_ok
    record_acceptance(
        "criterion 10: batch reports byte-identical across runs",
        ok,
        "library serializations and bench subcommand both stable",
    )
    assert api_ok
    assert cli_ok
