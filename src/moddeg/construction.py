"""Constructive search for large induced subgraphs with degrees = 1 mod k.

Given a validated bipartite graph with minimum degree >= 1 and a modulus k,
:func:`find_mod_one_subgraph` always returns a non-empty vertex set inducing
a subgraph in which every degree is congruent to 1 mod k.  It works in three
stages:

1. Build a chain of k-1 nested minimal dominating sets of side 1 inside
   side 2, each paired with private neighbours that certify minimality
   (:func:`build_chain`).  The first level alone already yields an induced
   matching, which is a valid answer for every k.
2. Split the leftover side-1 vertices by their degree into the deepest
   dominating set: vertices above a k^3-style threshold are handled by
   half-density sampling, the rest by sampling at the dyadic density matched
   to the largest degree bucket.
3. For whichever subset got sampled (or fixed by derandomization), repair the
   degrees of the kept side-2 vertices with their private neighbours and keep
   the largest candidate that passes verification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from . import mixing
from .graph import BipartiteGraph, ResidueSpec, VertexSet, verify_residue


class ConstructionError(RuntimeError):
    """Internal contract violation while assembling the subgraph."""


class DominationError(ConstructionError):
    """Some target vertex has no neighbour among the candidate dominators."""


@dataclass(frozen=True)
class ChainLevel:
    """One level of the chain: dominators on side 2 matched to their privates.

    ``private_of[w]`` is the side-1 vertex whose only dominator-neighbour at
    this level is ``w``; its keys are the dominators, its values the privates,
    and together they induce a matching.
    """

    private_of: Mapping[int, int]

    @cached_property
    def dominators(self) -> VertexSet:
        return VertexSet.from_ids(self.private_of)

    @cached_property
    def privates(self) -> VertexSet:
        return VertexSet.from_ids(self.private_of.values())


@dataclass(frozen=True)
class DominatingChain:
    """Nested minimal dominating sets with disjoint private-neighbour sets.

    Level i dominates the side-1 vertices not already claimed as privates by
    levels before it; ``remainder`` is side 1 minus every private set.
    """

    k: int
    levels: tuple[ChainLevel, ...]
    remainder: VertexSet

    @property
    def deepest(self) -> VertexSet:
        """Dominators of the last level (contained in every other level)."""
        return self.levels[-1].dominators

    def dominator_sizes(self) -> list[int]:
        return [len(level.dominators) for level in self.levels]


# The size analysis classifies a run as route 1 when the first dominator
# level times k is at least MATCHING_SHARE of side 1, else as route 2 when
# the high-degree targets are at least HEAVY_SHARE of side 1, else route 3.
# The shares sit just below (1/3, 2/3).  The classification is report only:
# all applicable routes always run.
MATCHING_SHARE = Fraction(1, 3) - Fraction(1, 2000)
HEAVY_SHARE = Fraction(2, 3) - Fraction(1, 1000)


def minimal_dominating_set(
    graph: BipartiteGraph, targets: VertexSet, candidates: VertexSet
) -> ChainLevel:
    """Minimal subset of ``candidates`` dominating ``targets``, with privates.

    Starts from all candidates and removes them in ascending id order whenever
    removal keeps every target dominated, so the result is minimal but
    deterministic.  Returns the level mapping each kept dominator to its
    smallest-id private target (a target whose only kept neighbour it is);
    minimality guarantees one exists for every kept dominator.

    Raises :class:`DominationError` if some target has no candidate
    neighbour at all.
    """
    live = graph.degrees_into(targets, candidates)
    for v, c in live.items():
        if c == 0:
            raise DominationError(f"target {v} has no neighbour among candidates")

    kept: set[int] = set()
    for w in candidates:
        touched = [v for v in graph.neighbor_ids(w) if v in live]
        if all(live[v] >= 2 for v in touched):
            for v in touched:
                live[v] -= 1
        else:
            kept.add(w)

    private_of: dict[int, int] = {}
    for v, c in live.items():
        if c == 1:
            w = next(u for u in graph.neighbor_ids(v) if u in kept)
            private_of.setdefault(w, v)
    if len(private_of) != len(kept):
        raise ConstructionError("kept dominator without a private target")
    return ChainLevel(private_of)


def build_chain(graph: BipartiteGraph, k: int) -> DominatingChain:
    """Build the k-1 nested levels of minimal dominating sets with privates.

    Level 1 dominates all of side 1 from within side 2; each later level
    dominates the side-1 vertices not yet claimed as privates, drawing its
    dominators from the previous level.  Every remaining target keeps a
    neighbour in the previous level by that level's domination, so the
    recursion never fails on a validated graph.
    """
    if k < 2:
        raise ValueError(f"modulus must be >= 2, got {k}")
    targets = graph.side1
    candidates = graph.side2
    levels = []
    for _ in range(k - 1):
        level = minimal_dominating_set(graph, targets, candidates)
        levels.append(level)
        targets = targets - level.privates
        candidates = level.dominators
    return DominatingChain(k=k, levels=tuple(levels), remainder=targets)


def check_chain(graph: BipartiteGraph, chain: DominatingChain) -> list[str]:
    """Re-verify every chain invariant from scratch; returns violations.

    O(E) per level and independent of how the chain was built: nesting,
    equal dominator/private cardinalities, disjointness of private sets, the
    private-neighbour property, domination of each level's targets,
    minimality of each level, and the remainder identity and lower bound.
    """
    problems = []
    if len(chain.levels) != chain.k - 1:
        problems.append(
            f"expected {chain.k - 1} levels, found {len(chain.levels)}"
        )
    previous = graph.side2
    claimed = VertexSet()
    for idx, level in enumerate(chain.levels, start=1):
        doms, privs = level.dominators, level.privates
        if not doms <= previous:
            problems.append(f"level {idx}: dominators not nested in previous level")
        if len(privs) != len(doms):
            problems.append(f"level {idx}: private count differs from dominator count")
        if not privs <= graph.side1:
            problems.append(f"level {idx}: privates stray off side 1")
        if not privs.isdisjoint(claimed):
            problems.append(f"level {idx}: privates overlap an earlier level")
        targets = graph.side1 - claimed
        dom_ids = set(doms)
        degrees = graph.degrees_into(targets, doms)

        def dominators_of(v: int) -> list[int]:
            return [u for u in graph.neighbor_ids(v) if u in dom_ids]

        for w, v in level.private_of.items():
            if v not in degrees:
                problems.append(f"level {idx}: private {v} was not a live target")
            if dominators_of(v) != [w]:
                problems.append(
                    f"level {idx}: vertex {v} is not private to dominator {w}"
                )
        for v, d in degrees.items():
            if d == 0:
                problems.append(f"level {idx}: target {v} left undominated")
        witnessed = {dominators_of(v)[0] for v, d in degrees.items() if d == 1}
        for w in doms:
            if w not in witnessed:
                problems.append(
                    f"level {idx}: dominator {w} is redundant (no private target)"
                )
        claimed = claimed | privs
        previous = doms
    if chain.remainder != graph.side1 - claimed:
        problems.append("remainder differs from side 1 minus all private sets")
    if chain.levels:
        first = len(chain.levels[0].dominators)
        if len(chain.remainder) < graph.n1 - (chain.k - 1) * first:
            problems.append("remainder smaller than the level-1 lower bound")
    return problems


def matching_candidate(chain: DominatingChain) -> VertexSet:
    """First-level dominators plus their privates: an induced matching,
    so every vertex has induced degree exactly 1."""
    first = chain.levels[0]
    return first.dominators | first.privates


def high_degree_targets(
    graph: BipartiteGraph, chain: DominatingChain, *, threshold_exponent: int = 3
) -> VertexSet:
    """Remainder vertices with at least k**threshold_exponent neighbours in
    the deepest dominator level."""
    threshold = chain.k ** threshold_exponent
    degrees = graph.degrees_into(chain.remainder, chain.deepest)
    return VertexSet.from_ids(v for v, d in degrees.items() if d >= threshold)


def sample_subset(
    members: VertexSet, exponent: int, rng: random.Random
) -> VertexSet:
    """Keep each member independently with probability 2**-exponent.

    Exponent 0 keeps everything without consuming randomness.  Each kept/
    dropped decision spends exactly ``exponent`` fair coin flips (one
    ``getrandbits`` call), so draws are reproducible bit for bit.
    """
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    if exponent == 0:
        return members
    return VertexSet.from_ids(w for w in members if rng.getrandbits(exponent) == 0)


def unit_residue_targets(
    graph: BipartiteGraph, pool: VertexSet, chosen: VertexSet, k: int
) -> VertexSet:
    """Members of ``pool`` whose neighbour count in ``chosen`` is 1 mod k."""
    degrees = graph.degrees_into(pool, chosen)
    return VertexSet.from_ids(v for v, d in degrees.items() if d % k == 1)


def largest_dyadic_bucket(
    graph: BipartiteGraph,
    chain: DominatingChain,
    rest: VertexSet,
    *,
    threshold_exponent: int = 3,
) -> tuple[int, VertexSet]:
    """Bucket ``rest`` by floor(log2(degree into the deepest level)) and
    return the fullest bucket (ties: smallest exponent).

    Every vertex of ``rest`` must have degree at least 1 (the deepest level
    dominates it) and below the high-degree threshold, so there are at most
    floor(log2(k**threshold_exponent)) + 1 buckets and the winner holds at
    least an equal share of ``rest``.
    """
    if not rest:
        raise ValueError("empty vertex set: no bucket to pick")
    threshold = chain.k ** threshold_exponent
    buckets: dict[int, list[int]] = {}
    for v, d in graph.degrees_into(rest, chain.deepest).items():
        if not 1 <= d < threshold:
            raise ConstructionError(
                f"vertex {v} has degree {d}, outside [1, {threshold})"
            )
        buckets.setdefault(d.bit_length() - 1, []).append(v)
    exponent = max(buckets, key=lambda p: (len(buckets[p]), -p))
    bucket = VertexSet.from_ids(buckets[exponent])
    slots = threshold.bit_length()  # floor(log2(threshold)) + 1
    if len(bucket) * slots < len(rest):
        raise ConstructionError("dyadic bucket fell below its pigeonhole share")
    return exponent, bucket


def fix_degrees(
    graph: BipartiteGraph,
    chain: DominatingChain,
    chosen: VertexSet,
    unit_targets: VertexSet,
) -> VertexSet:
    """Private vertices that lift each chosen dominator to degree 1 mod k.

    Each chosen dominator u sits in every chain level, so it owns one private
    vertex per level and those privates are adjacent to no other chosen
    dominator.  Taking (1 - deg(u into unit_targets)) mod k of them, lowest
    level first, fixes u's residue without disturbing anyone else; each
    added private ends up with induced degree exactly 1.
    """
    k = chain.k
    if not chosen <= chain.deepest:
        raise ConstructionError("chosen dominators stray outside the deepest level")
    patch = []
    for u, d in graph.degrees_into(chosen, unit_targets).items():
        missing = (1 - d) % k
        patch.extend(level.private_of[u] for level in chain.levels[:missing])
    return VertexSet.from_ids(patch)


@dataclass(frozen=True)
class Route:
    """One route's candidate and how it was built: route 1 (the induced
    matching) sets only ``vertices``, the sampling routes every field."""

    vertices: VertexSet
    chosen: VertexSet | None = None
    unit_targets: VertexSet | None = None
    patch: VertexSet | None = None
    expected: float | None = None
    achieved: int | None = None


@dataclass
class ConstructionTrace:
    """Full record of one construction run.

    ``case`` is the route whose candidate won (1 induced matching, 2
    half-density sampling of the high-degree targets, 3 dyadic-bucket
    sampling); ``analysis_case`` is the route the size analysis would have
    classified from ``MATCHING_SHARE`` and ``HEAVY_SHARE``, recorded for
    reporting only.  ``routes`` holds every route that ran, keyed by case.
    """

    k: int
    mode: str
    seed: int | None
    retries: int
    case: int
    analysis_case: int
    dominator_sizes: list[int]
    remainder_size: int
    heavy: VertexSet
    bucket_exponent: int | None
    bucket: VertexSet | None
    routes: dict[int, Route]

    @property
    def vertices(self) -> VertexSet:
        return self.routes[self.case].vertices

    @property
    def candidate_sizes(self) -> dict[int, int | None]:
        sizes = {case: len(route.vertices) for case, route in self.routes.items()}
        return {case: sizes.get(case) for case in (1, 2, 3)}

    @property
    def expected_scores(self) -> dict[int, float]:
        return {c: r.expected for c, r in self.routes.items() if r.expected is not None}

    @property
    def achieved_scores(self) -> dict[int, int]:
        return {c: r.achieved for c, r in self.routes.items() if r.achieved is not None}

    def to_dict(self, verbose: bool = False) -> dict:
        """JSON-ready summary; ``verbose`` adds sorted vertex-id arrays."""
        win = self.routes[self.case]
        optional = {"bucket": self.bucket, "chosen": win.chosen,
                    "unit_targets": win.unit_targets, "patch": win.patch}
        out = {
            "schema_version": 1,
            "k": self.k,
            "mode": self.mode,
            "seed": self.seed,
            "retries": self.retries,
            "case": self.case,
            "analysis_case": self.analysis_case,
            "candidate_sizes": {str(c): s for c, s in self.candidate_sizes.items()},
            "bucket_exponent": self.bucket_exponent,
            "sizes": {
                "dominators": self.dominator_sizes,
                "remainder": self.remainder_size,
                "heavy": len(self.heavy),
                **{name: None if s is None else len(s) for name, s in optional.items()},
                "subgraph": len(win.vertices),
            },
            "expected_scores": {str(c): v for c, v in self.expected_scores.items()},
            "achieved_scores": {str(c): v for c, v in self.achieved_scores.items()},
        }
        if verbose:
            out["sets"] = {
                "subgraph": win.vertices.ids(),
                "heavy": self.heavy.ids(),
                **{name: None if s is None else s.ids() for name, s in optional.items()},
            }
        return out


def _classify(graph: BipartiteGraph, chain: DominatingChain, heavy: VertexSet) -> int:
    first = len(chain.levels[0].dominators)
    if Fraction(first * chain.k) >= MATCHING_SHARE * graph.n1:
        return 1
    if Fraction(len(heavy)) >= HEAVY_SHARE * graph.n1:
        return 2
    return 3


def check_run_parameters(
    k: int, mode: str, retries: int, threshold_exponent: int = 3
) -> None:
    """Raise ValueError unless :func:`find_mod_one_subgraph` accepts these."""
    if k < 2:
        raise ValueError(f"modulus must be >= 2, got {k}")
    if mode not in ("sampled", "derandomized"):
        raise ValueError(f"mode must be 'sampled' or 'derandomized', got {mode!r}")
    if retries < 1:
        raise ValueError(f"retries must be >= 1, got {retries}")
    if threshold_exponent < 1:
        raise ValueError(f"threshold exponent must be >= 1, got {threshold_exponent}")


def find_mod_one_subgraph(
    graph: BipartiteGraph,
    k: int,
    *,
    mode: str = "sampled",
    seed: int | None = 0,
    retries: int = 16,
    threshold_exponent: int = 3,
) -> tuple[VertexSet, ConstructionTrace]:
    """Largest verified induced subgraph with every degree = 1 mod k.

    Runs all applicable routes and keeps the best verified candidate, so the
    result is never smaller than twice the first dominator level (the induced
    matching is always available) and always non-empty.

    In "sampled" mode the two sampling routes each draw up to ``retries``
    subsets from a generator seeded with ``seed`` and keep the draw hitting
    the most scored vertices.  In "derandomized" mode subsets are fixed by
    conditional expectations and the run is fully deterministic; ``seed`` and
    ``retries`` are ignored.  Remainder vertices with at least
    k**threshold_exponent neighbours in the deepest level count as high
    degree.
    """
    check_run_parameters(k, mode, retries, threshold_exponent)
    chain = build_chain(graph, k)
    deepest = chain.deepest
    heavy = high_degree_targets(graph, chain, threshold_exponent=threshold_exponent)
    rest = chain.remainder - heavy
    rng = random.Random(seed)
    residue_spec = ResidueSpec(residue=1, modulus=k)

    def run_route(scored: VertexSet, exponent: int) -> Route:
        expected = mixing.expected_unit_score(graph, deepest, scored, k, exponent)
        if exponent == 0:
            chosen = deepest
        elif mode == "derandomized":
            chosen = mixing.derandomize_subset(graph, deepest, scored, k, exponent)
        else:
            chosen = None
            best_key = None
            for _ in range(retries):
                draw = sample_subset(deepest, exponent, rng)
                units = unit_residue_targets(graph, chain.remainder, draw, k)
                key = (len(units & scored), len(units))
                if best_key is None or key > best_key:
                    best_key = key
                    chosen = draw
        units = unit_residue_targets(graph, chain.remainder, chosen, k)
        patch = fix_degrees(graph, chain, chosen, units)
        return Route(
            vertices=patch | chosen | units,
            chosen=chosen,
            unit_targets=units,
            patch=patch,
            expected=expected,
            achieved=len(units & scored),
        )

    routes = {1: Route(vertices=matching_candidate(chain))}
    if heavy:
        routes[2] = run_route(heavy, 1)
    bucket_exponent = None
    bucket = None
    if rest:
        bucket_exponent, bucket = largest_dyadic_bucket(
            graph, chain, rest, threshold_exponent=threshold_exponent
        )
        routes[3] = run_route(bucket, bucket_exponent)

    best_case = None
    for case, route in routes.items():
        if not verify_residue(graph, route.vertices, residue_spec):
            raise ConstructionError(f"route {case} produced an invalid candidate")
        if best_case is None or len(route.vertices) > len(routes[best_case].vertices):
            best_case = case

    trace = ConstructionTrace(
        k=k,
        mode=mode,
        seed=seed if mode == "sampled" else None,
        retries=retries,
        case=best_case,
        analysis_case=_classify(graph, chain, heavy),
        dominator_sizes=chain.dominator_sizes(),
        remainder_size=len(chain.remainder),
        heavy=heavy,
        bucket_exponent=bucket_exponent,
        bucket=bucket,
        routes=routes,
    )
    return trace.vertices, trace
