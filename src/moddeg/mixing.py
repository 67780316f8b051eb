"""Residue distributions of sums of dyadic Bernoulli variables.

Everything here is about sums of n i.i.d. indicators that are 1 with
probability 2^-p, reduced mod k: their distribution, an analytic bound on the
distance to uniform, a near-uniformity report, and the conditional-expectation
machinery that turns "a random subset works in expectation" into one concrete
subset.

One n-term distribution is the inverse discrete Fourier transform of the
per-step characters phi(j) = 1 - q + q*e^(2*pi*i*j/k) raised to the n-th
power: O(k^2) work for any n, with an absolute rounding error of a few
machine epsilons.  The derandomizer needs every row 0..n_max instead, which
:func:`residue_table` builds with the k-state recurrence in O(n_max*k); its
entries stay exact for as long as the dyadic values fit a double.  An exact
``Fraction``-based evaluation is provided as a test oracle for small n.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graph import BipartiteGraph, Incidence, VertexSet


@dataclass(frozen=True, eq=False)
class ResidueDistribution:
    """Distribution of (sum of n dyadic Bernoulli draws) mod k.

    ``probs[r]`` is the probability the sum is congruent to r.  The inclusion
    probability is 2^-exponent with exponent >= 1; the degenerate
    all-ones case (exponent 0) is excluded.
    """

    n: int
    k: int
    exponent: int
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if float(self.probs.min()) < 0.0 or float(self.probs.max()) > 1.0:
            raise ValueError("probabilities must lie in [0, 1]")

    def probability(self, residue: int) -> float:
        return float(self.probs[residue % self.k])


def _validate(n: int, k: int, exponent: int, lowest_exponent: int = 1) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > sys.float_info.max:  # phi(j)**n converts n to a double
        raise ValueError(
            f"n must fit a double (at most about 1.8e308), "
            f"got a {n.bit_length()}-bit integer"
        )
    if k < 2:
        raise ValueError(f"modulus must be >= 2, got {k}")
    if exponent < lowest_exponent:
        raise ValueError(
            f"inclusion exponent must be >= {lowest_exponent}, got {exponent}"
        )


def _characters(k: int, exponent: int) -> list[complex]:
    """phi(j) = E[e^(2*pi*i*j*X/k)] for one draw X, for j = 0..k-1."""
    q = 2.0 ** -exponent
    return [1.0 - q + q * cmath.exp(2j * math.pi * j / k) for j in range(k)]


def residue_table(n_max: int, k: int, exponent: int) -> np.ndarray:
    """All rows of the residue DP at once: shape (n_max+1, k).

    Row n is the distribution of an n-term sum mod k; row 0 is the point mass
    at residue 0.  Row n+1 mixes row n with its shift by one residue, with
    weights (1 - 2^-exponent, 2^-exponent).  Exponent 0 is allowed: every
    draw is then 1 and row n is the point mass at n mod k.
    """
    _validate(n_max, k, exponent, lowest_exponent=0)
    q = 2.0 ** -exponent
    table = np.zeros((n_max + 1, k))
    table[0, 0] = 1.0
    for i in range(n_max):
        row, out = table[i], table[i + 1]
        # out = (1 - q) * row + q * (row shifted up one residue, cyclically)
        np.multiply(row, 1.0 - q, out=out)
        out[1:] += q * row[:-1]
        out[0] += q * row[-1]
    return table


def residue_distribution(n: int, k: int, exponent: int = 1) -> ResidueDistribution:
    """Distribution of an n-term dyadic sum mod k, in closed form.

    P(r) = (1/k) * sum_j phi(j)^n * e^(-2*pi*i*r*j/k), a direct k-by-k sum.
    Rounding can leave a probability a few ulps below 0; those are clipped.
    """
    _validate(n, k, exponent)
    powers = [phi ** n for phi in _characters(k, exponent)]
    roots = [cmath.exp(-2j * math.pi * m / k) for m in range(k)]
    probs = np.array([
        sum(power * roots[r * j % k] for j, power in enumerate(powers)).real / k
        for r in range(k)
    ])
    return ResidueDistribution(
        n=n, k=k, exponent=exponent, probs=np.maximum(probs, 0.0)
    )


def residue_distribution_exact(n: int, k: int, exponent: int = 1) -> list[Fraction]:
    """Big-rational version of :func:`residue_distribution`.

    Every step scales the common denominator by 2^exponent, so the DP runs
    on integer numerators and builds fractions only at the end; exact up to
    n in the tens of thousands.
    """
    _validate(n, k, exponent)
    scale = 2 ** exponent
    keep = scale - 1
    nums = [0] * k
    nums[0] = 1
    for _ in range(n):
        nums = [keep * nums[r] + nums[(r - 1) % k] for r in range(k)]
    denom = scale ** n
    return [Fraction(x, denom) for x in nums]


def fourier_gap_bound(n: int, k: int, exponent: int = 1) -> float:
    """Analytic upper bound on max_r |P(sum = r mod k) - 1/k|.

    Inverting the distribution over the k-th roots of unity gives
    P(r) - 1/k = (1/k) * sum_{j=1}^{k-1} phi(j)^n * conj(root^rj) where
    phi(j) = 1 - q + q*e^(2*pi*i*j/k) is the per-step characteristic factor,
    so the gap is at most (1/k) * sum |phi(j)|^n.
    """
    _validate(n, k, exponent)
    total = 0.0
    for phi in _characters(k, exponent)[1:]:
        total += abs(phi) ** n
    return total / k


def high_degree_cut(k: int) -> int:
    """k**3: the term count of :func:`uniformity_check`, and the degree into
    the deepest dominator level from which the construction counts a
    remainder vertex as high degree."""
    return k ** 3


@dataclass(frozen=True)
class UniformityCheck:
    """How close the k-residue distribution sits to uniform at threshold scale.

    ``n`` is :func:`high_degree_cut` of k; ``alt_n = ceil(k^2 ln k)`` is
    reported alongside for comparison (no acceptance threshold attached).
    """

    k: int
    n: int
    probability: float
    target: float
    ratio: float
    fourier_bound: float
    alt_n: int
    alt_probability: float
    alt_ratio: float
    passed: bool


def uniformity_check(k: int) -> UniformityCheck:
    """Evaluate the residue-1 probability of a k^3-term sum.

    ``passed`` says whether the probability is at least 0.95/k (it is exactly
    1/2 at k = 2 and approaches 1/k rapidly as k grows).
    """
    if k < 2:
        raise ValueError(f"modulus must be >= 2, got {k}")
    n = high_degree_cut(k)
    probability = residue_distribution(n, k).probability(1)
    target = 1.0 / k
    ratio = probability / target
    alt_n = max(1, math.ceil(k * k * math.log(k)))
    alt_probability = residue_distribution(alt_n, k).probability(1)
    return UniformityCheck(
        k=k,
        n=n,
        probability=probability,
        target=target,
        ratio=ratio,
        fourier_bound=fourier_gap_bound(n, k),
        alt_n=alt_n,
        alt_probability=alt_probability,
        alt_ratio=alt_probability / target,
        passed=ratio >= 0.95,
    )


def uniformity_table(k_max: int) -> list[UniformityCheck]:
    """Run :func:`uniformity_check` for every k in 2..k_max."""
    if k_max < 2:
        raise ValueError(f"k-max must be >= 2, got {k_max}")
    return [uniformity_check(k) for k in range(2, k_max + 1)]


def format_uniformity_table(checks: list[UniformityCheck], fmt: str = "text") -> str:
    """Render uniformity checks as CSV or aligned text."""
    header = ["k", "n", "prob_residue_1", "one_over_k", "ratio", "fourier_bound",
              "alt_n", "alt_ratio"]
    rows = [
        [str(c.k), str(c.n), f"{c.probability:.12g}", f"{c.target:.12g}",
         f"{c.ratio:.9f}", f"{c.fourier_bound:.6g}", str(c.alt_n),
         f"{c.alt_ratio:.9f}"]
        for c in checks
    ]
    if fmt == "csv":
        return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format: {fmt!r}")
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def expected_unit_score(
    incidence: Incidence, scored: VertexSet, k: int, exponent: int
) -> float:
    """Expected number of ``scored`` vertices whose degree into a random
    subset of ``incidence.b`` (each member kept with probability
    2^-exponent) is 1 mod k.  ``scored`` lies in ``incidence.a``, and the
    degrees are counted from the incidence's edges.
    """
    _, degrees = incidence.degrees_into(scored)
    if not degrees.size:
        return 0.0
    table = residue_table(int(degrees.max()), k, exponent)
    # a running sum adds left to right in ascending id order, as the score
    # always has; a plain array sum would add pairwise
    return float(np.cumsum(table[degrees, 1 % k])[-1])


def derandomize_subset(
    graph: BipartiteGraph,
    members: VertexSet,
    scored: VertexSet,
    k: int,
    exponent: int,
) -> VertexSet:
    """Fix one subset of ``members`` that does at least as well as a random one.

    The objective is the number of ``scored`` vertices whose neighbour count
    inside the kept subset is 1 mod k.  Members are decided one at a time in
    ascending id order; at each step the conditional expectation of the
    objective -- decided members fixed, undecided ones independently kept
    with probability 2^-exponent -- is evaluated exactly for both choices and
    the larger branch is taken (ties drop the member, keeping the subset
    small).  The result therefore scores at least the a-priori expectation.

    Cost: one pass over the members' rows, plus one Python step per
    (member, scored neighbour) pair; the state is two n-entry lists indexed
    by vertex id.
    """
    if exponent < 1:
        raise ValueError(f"inclusion exponent must be >= 1, got {exponent}")
    if k < 2:
        raise ValueError(f"modulus must be >= 2, got {k}")

    # Scored neighbours of each member, ascending, so a decision only
    # touches the vertices it can influence.
    member_ids, offsets, neighbours = graph.neighbors_within(members, scored)
    touches = neighbours.tolist()
    offsets = offsets.tolist()
    # per vertex id: undecided neighbours among the members and the residue
    # they still need to supply
    counts = np.bincount(neighbours, minlength=graph.n)
    undecided = counts.tolist()
    needed = [1 % k] * graph.n
    # rows of Python floats: indexing them is cheaper than indexing the array
    table = residue_table(int(counts.max()), k, exponent).tolist()

    kept = []
    for w, start, stop in zip(member_ids.tolist(), offsets, offsets[1:]):
        affected = touches[start:stop]
        gain_drop = 0.0
        gain_keep = 0.0
        for v in affected:
            row = table[undecided[v] - 1]
            need = needed[v]
            gain_drop += row[need]
            gain_keep += row[(need - 1) % k]
        keep = gain_keep > gain_drop
        for v in affected:
            undecided[v] -= 1
            if keep:
                needed[v] = (needed[v] - 1) % k
        if keep:
            kept.append(w)
    return VertexSet.from_ids(kept, graph.n)
