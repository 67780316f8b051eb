"""Shared strategies and the acceptance-summary hook."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import strategies as st

from moddeg import mixing
from moddeg.graph import BipartiteGraph

# Lines recorded by the acceptance tests; echoed after the run so each
# criterion's verdict is visible even under captured output.
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[acceptance] {name}: {verdict}" + (f" ({detail})" if detail else "")
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def skewed_at_five(monkeypatch):
    """Make ``mixing.residue_distribution`` put P(1) at half of uniform for
    k = 5 only, so that row of the uniformity check fails."""
    real = mixing.residue_distribution

    def skewed(n, k, exponent=1):
        if k != 5:
            return real(n, k, exponent)
        probs = np.array([0.3, 0.1, 0.2, 0.2, 0.2])
        return mixing.ResidueDistribution(n=n, k=k, exponent=exponent, probs=probs)

    monkeypatch.setattr(mixing, "residue_distribution", skewed)


@st.composite
def bipartite_graphs(draw, max_side1: int = 8, max_side2: int = 8):
    """Random validated bipartite graph: side-1 rows drawn as non-zero masks,
    then uncovered side-2 vertices patched with one drawn edge each."""
    n1 = draw(st.integers(1, max_side1))
    n2 = draw(st.integers(1, max_side2))
    rows = [draw(st.integers(1, (1 << n2) - 1)) for _ in range(n1)]
    for w in range(n2):
        if not any(row >> w & 1 for row in rows):
            u = draw(st.integers(0, n1 - 1))
            rows[u] |= 1 << w
    edges = [
        (u, n1 + w) for u in range(n1) for w in range(n2) if rows[u] >> w & 1
    ]
    return BipartiteGraph.from_edges(n1, n2, edges)


def random_graph(rng: random.Random, max_side1: int = 10, max_side2: int = 10):
    """Plain-random validated graph for loops that do not need shrinking."""
    n1 = rng.randrange(1, max_side1 + 1)
    n2 = rng.randrange(1, max_side2 + 1)
    rows = [rng.randrange(1, 1 << n2) for _ in range(n1)]
    for w in range(n2):
        if not any(row >> w & 1 for row in rows):
            rows[rng.randrange(n1)] |= 1 << w
    edges = [
        (u, n1 + w) for u in range(n1) for w in range(n2) if rows[u] >> w & 1
    ]
    return BipartiteGraph.from_edges(n1, n2, edges)


def transpose(g: BipartiteGraph) -> BipartiteGraph:
    """``g`` with its sides swapped: side-1 vertex u becomes n2 + u and
    side-2 vertex w becomes w - n1, so each side keeps its id order."""
    edges = [(w - g.n1, g.n2 + u) for u, w in g.edges()]
    return BipartiteGraph.from_edges(g.n2, g.n1, edges)
