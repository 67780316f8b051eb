"""Constructive search for large induced subgraphs with degrees = 1 mod k.

Given a validated bipartite graph with minimum degree >= 1 and a modulus k,
:func:`find_mod_one_subgraph` always returns a non-empty vertex set inducing
a subgraph in which every degree is congruent to 1 mod k.  It works in three
stages:

1. Build a chain of up to k-1 nested minimal dominating sets of the
   dominated side (the larger side, side 1 on a tie) inside the other side,
   stopping when no target is left, each paired with private neighbours that
   certify minimality (:func:`build_chain`).  The first level alone already
   yields an induced matching, which is a valid answer for every k.
2. Split the leftover dominated vertices by their degree into the deepest
   dominating set: vertices with at least k^3 such neighbours are handled by
   half-density sampling, the rest by sampling at the dyadic density matched
   to the largest degree bucket.
3. For whichever subset got sampled (or fixed by derandomization), repair the
   degrees of the kept dominators, on either side, with their private
   neighbours and keep the largest candidate that passes verification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

import numpy as np

from . import mixing
from .graph import BipartiteGraph, Incidence, ResidueSpec, VertexSet, verify_residue


class ConstructionError(RuntimeError):
    """Internal contract violation while assembling the subgraph."""


class DominationError(ConstructionError):
    """Some target vertex has no neighbour among the candidate dominators."""


@dataclass(frozen=True)
class ChainLevel:
    """One level of the chain: dominators matched to their privates.

    ``private_of[w]`` is the dominated vertex whose only dominator-neighbour at
    this level is ``w``; its keys are the dominators, its values the privates,
    and together they induce a matching.  ``n`` is the graph's vertex count.
    """

    private_of: Mapping[int, int]
    n: int

    @cached_property
    def dominators(self) -> VertexSet:
        return VertexSet.from_ids(self.private_of, self.n)

    @cached_property
    def privates(self) -> VertexSet:
        return VertexSet.from_ids(self.private_of.values(), self.n)


@dataclass(frozen=True)
class DominatingChain:
    """Nested minimal dominating sets with disjoint private-neighbour sets.

    Level i dominates the vertices of the dominated side not already claimed
    as privates by levels before it; ``remainder`` is the dominated side
    minus every private set.  A chain holds only the levels that were built:
    at most k-1 of them, each with at least one dominator, and exactly k-1
    whenever the remainder is non-empty.  A shorter chain stopped because
    the dominated side ran out of targets.
    """

    k: int
    levels: tuple[ChainLevel, ...]
    remainder: VertexSet

    @property
    def deepest(self) -> VertexSet:
        """Dominators of the last level (contained in every other level)."""
        return self.levels[-1].dominators

    def dominator_sizes(self) -> list[int]:
        # one private per dominator
        return [len(level.private_of) for level in self.levels]


# The size analysis classifies a run as route 1 when the first dominator
# level times k is at least MATCHING_SHARE of the dominated side, else as
# route 2 when the high-degree targets are at least HEAVY_SHARE of it, else
# route 3.  The shares sit just below (1/3, 2/3).  The classification is
# report only: all applicable routes always run.
MATCHING_SHARE = Fraction(1, 3) - Fraction(1, 2000)
HEAVY_SHARE = Fraction(2, 3) - Fraction(1, 1000)


def _sides(graph: BipartiteGraph) -> tuple[VertexSet, VertexSet]:
    """The dominated side, the larger one (side 1 on a tie), and the
    candidate side.  Dominating the larger side is what makes the chain's
    answer about n/k vertices, not n1/k."""
    if graph.n2 > graph.n1:
        return graph.side2, graph.side1
    return graph.side1, graph.side2


def minimal_dominating_set(
    graph: BipartiteGraph, targets: VertexSet, candidates: VertexSet
) -> ChainLevel:
    """Minimal subset of ``candidates`` dominating ``targets``, with privates.

    Starts from all candidates and removes them in ascending id order whenever
    removal keeps every target dominated, so the result is minimal but
    deterministic.  Returns the level mapping each kept dominator to its
    smallest-id private target (a target whose only kept neighbour it is);
    minimality guarantees one exists for every kept dominator.  The mapping
    is ordered by private.

    Cost: the removal order makes a target block a removal only at its last
    (largest-id) candidate neighbour, and only while none of its earlier
    candidate neighbours was kept.  So a candidate is kept exactly when it is
    the last candidate neighbour of a target that no kept candidate
    dominates yet.  One array pass over the targets' rows finds each
    target's last candidate, and one gather reads the rows of the distinct
    last candidates, the only ones that can stay.  Array passes over that
    gather then settle what needs no order.  A target in no other last
    candidate's row has no other neighbour that can stay, so its own last
    candidate is forced to stay.  A target in a forced row other than its
    own has a kept neighbour of smaller id than its last, which dominates it
    before its turn, so it never decides a removal.  Only the targets in no
    forced row stay open.  One Python step per last candidate with an open
    target then checks those targets in order and, if it is kept, marks the
    open entries of its row.  The privates come from the kept rows alone: a
    target met once in them has one kept neighbour, and rows ascend, so the
    first such target in a row is its dominator's smallest private.  A
    candidate that is last for no open target costs no Python step, so
    O(n + E) in all.

    Raises :class:`DominationError` if some target has no candidate
    neighbour at all.
    """
    n = graph.n
    ids, counts, last = graph.last_neighbors(targets, candidates)
    # one C call, where .all() goes through Python: it tells on tiny graphs
    if np.count_nonzero(counts) < len(counts):
        v = int(ids[counts.argmin()])
        raise DominationError(f"target {v} has no neighbour among candidates")
    if not ids.size:
        return ChainLevel({}, n)
    # the targets grouped by their last candidate, ascending within a group:
    # one sort of the keys (last candidate, target), each below n**2
    keys = last * n
    keys += ids
    keys.sort()
    owners, grouped = np.divmod(keys, n)
    fresh = np.empty(len(keys), dtype=bool)
    fresh[0] = True
    np.not_equal(owners[1:], owners[:-1], out=fresh[1:])
    starts = fresh.nonzero()[0]
    lasts = owners[starts]
    # the rows of the last candidates, the only candidates that can stay
    offsets, rows = graph.neighbor_rows(lasts)
    lengths = offsets[1:] - offsets[:-1]
    # a target in no other last candidate's row has no other neighbour that
    # can stay, so its own last candidate is forced to
    reach = np.bincount(rows, minlength=n)
    stays = np.logical_or.reduceat(reach[grouped] == 1, starts)
    tally = np.bincount(rows[stays.repeat(lengths)], minlength=n)
    # a target in a forced row not its own is dominated before its turn, so
    # the loop reads only the open targets, those in no forced row
    unmet = tally[grouped] == 0
    open_counts = np.add.reduceat(unmet, starts, dtype=np.int64)
    contested = open_counts.nonzero()[0]
    if contested.size:
        open_ids = grouped[unmet]
        is_open = np.zeros(n, dtype=bool)
        is_open[open_ids] = True
        marks = is_open[rows]
        # each row's open entries, and where they end among all of them
        marked = np.add.reduceat(marks, offsets[:-1], dtype=np.int64)
        ends = marked.cumsum()[contested]
        stops = open_counts[contested].cumsum().tolist()
        groups = zip(
            contested.tolist(), [0] + stops[:-1], stops,
            (ends - marked[contested]).tolist(), ends.tolist(),
        )
        # views' slices read the entries without a Python list of them all
        open_ids, row_view = memoryview(open_ids), memoryview(rows[marks])
        kept = []
        dominated = bytearray(n)
        for i, start, stop, begin, end in groups:
            for v in open_ids[start:stop]:
                if not dominated[v]:  # lasts[i] is v's last chance, so it stays
                    kept.append(i)
                    for u in row_view[begin:end]:
                        dominated[u] = 1
                    break
        # the first contested group always stays, so the tally has grown
        stays[kept] = True
        tally = np.bincount(rows[stays.repeat(lengths)], minlength=n)

    # a target with one kept neighbour is private to it, so the privates
    # are the targets met once in the kept rows
    sole = tally[rows] == 1
    sole &= targets.contains_each(rows)
    # each kept row's smallest private, or n if it has none
    firsts = np.minimum.reduceat(np.where(sole, rows, n), offsets[:-1])[stays]
    owners = lasts[stays]
    # the mapping is ordered by private, so a missing one, n, comes last
    order = firsts.argsort()
    privates = firsts[order].tolist()
    if privates[-1] == n:
        raise ConstructionError("kept dominator without a private target")
    return ChainLevel(dict(zip(owners[order].tolist(), privates)), n)


def build_chain(graph: BipartiteGraph, k: int) -> DominatingChain:
    """Build up to k-1 nested levels of minimal dominating sets with privates.

    Level 1 dominates all of the dominated side, the larger side (side 1 on
    a tie), from within the other side; each later level dominates the
    dominated vertices not yet claimed as privates, drawing its dominators
    from the previous level.  Every remaining target keeps a neighbour in
    the previous level by that level's domination, so the recursion never
    fails on a validated graph.  Each level claims at least one private, so
    the chain stops once no target is left, whatever k is.
    """
    if k < 2:
        raise ValueError(f"modulus must be >= 2, got {k}")
    targets, candidates = _sides(graph)
    levels = []
    while targets and len(levels) < k - 1:
        level = minimal_dominating_set(graph, targets, candidates)
        levels.append(level)
        targets = targets - level.privates
        candidates = level.dominators
    return DominatingChain(k=k, levels=tuple(levels), remainder=targets)


def check_chain(graph: BipartiteGraph, chain: DominatingChain) -> list[str]:
    """Re-verify every chain invariant from scratch; returns violations.

    O(E) per level and independent of how the chain was built: the level
    count (at most k-1, and exactly k-1 while the remainder is non-empty),
    non-empty levels, nesting, equal dominator/private cardinalities,
    disjointness of private sets, the private-neighbour property,
    domination of each level's targets, minimality of each level, and the
    remainder identity and lower bound, all on the dominated side.  Each
    level is read with one neighbour query, over its targets and privates.
    """
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
    dominated, previous = _sides(graph)
    claimed = VertexSet.from_ids([], graph.n)
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
        # privs too: a tampered level's private need not be a live target
        ids, counts, last = graph.last_neighbors(targets | privs, doms)
        sole = np.where(counts == 1, last, -1)  # the only dominator, or -1
        at = np.searchsorted(ids, list(level.private_of.values()))
        for (w, v), only in zip(level.private_of.items(), sole[at].tolist()):
            if v not in targets:
                problems.append(f"level {idx}: private {v} was not a live target")
            if only != w:
                problems.append(
                    f"level {idx}: vertex {v} is not private to dominator {w}"
                )
        live = targets.contains_each(ids)
        for v in ids[live & (counts == 0)].tolist():
            problems.append(f"level {idx}: target {v} left undominated")
        witnessed = set(sole[live].tolist())
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


def matching_candidate(chain: DominatingChain) -> VertexSet:
    """First-level dominators plus their privates: an induced matching,
    so every vertex has induced degree exactly 1."""
    first = chain.levels[0]
    return first.dominators | first.privates


def high_degree_targets(incidence: Incidence, k: int) -> VertexSet:
    """Remainder vertices with at least k**3 neighbours in the deepest
    dominator level (:func:`mixing.high_degree_cut`), counted from
    ``incidence``, the edges between the remainder (its ``a``) and the
    deepest level (its ``b``)."""
    _, degrees = incidence.degrees_into(incidence.a)
    # NumPy compares int64 with a Python int beyond int64 exactly
    return incidence.a.select(degrees >= mixing.high_degree_cut(k))


def sample_subset(
    members: VertexSet, exponent: int, rng: random.Random
) -> VertexSet:
    """Keep each member independently with probability 2**-exponent.

    Exponent 0 keeps everything without consuming randomness.  Otherwise
    member w, the i-th in ascending order, is kept when
    ``rng.getrandbits(exponent)``, the i-th such call, returns 0, so draws
    are reproducible bit for bit.  Up to exponent 32 each call reads the top
    bits of one 32-bit word of the generator, so one ``getrandbits(32 * m)``
    call draws all m members at once, from the same stream.
    """
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    if exponent == 0:
        return members
    m = len(members)
    if exponent <= 32:
        # word i is bytes 4i..4i+3 in little-endian order
        raw = rng.getrandbits(32 * m).to_bytes(4 * m, "little")
        keep = np.frombuffer(raw, dtype="<u4") >> (32 - exponent) == 0
    else:
        keep = np.array([rng.getrandbits(exponent) == 0 for _ in range(m)], dtype=bool)
    return members.select(keep)


def unit_residue_targets(
    incidence: Incidence, chosen: VertexSet, k: int
) -> VertexSet:
    """Members of ``incidence.a`` whose neighbour count in ``chosen``, a
    subset of ``incidence.b``, is 1 mod k."""
    _, degrees = incidence.degrees_into(incidence.a, chosen)
    # every degree is below n, so a k beyond int64 acts as n does
    return incidence.a.select(degrees % min(k, incidence.graph.n) == 1)


def best_draw(
    incidence: Incidence, scored: VertexSet, draws: list[VertexSet], k: int
) -> VertexSet:
    """The first of ``draws`` whose unit targets, the remainder vertices
    with a neighbour count in the draw of 1 mod k, hold the most members of
    ``scored``; ties go to the most unit targets.

    ``incidence`` holds the edges between the remainder (its ``a``) and
    the deepest level (its ``b``), of which every draw is a subset; each
    draw costs one count over the edges of the deepest vertices it keeps,
    and no row is read.
    """
    remainder, n = incidence.a, incidence.graph.n
    is_scored = scored.contains_each(incidence.a_ids)
    # whether a degree, always below n, is 1 mod k
    is_unit = np.arange(n) % min(k, n) == 1
    keys = []
    for draw in draws:
        _, degrees = incidence.degrees_into(remainder, draw)
        units = is_unit[degrees]
        keys.append((np.count_nonzero(units & is_scored), np.count_nonzero(units)))
    return draws[keys.index(max(keys))]


def largest_dyadic_bucket(
    incidence: Incidence, rest: VertexSet, k: int
) -> tuple[int, VertexSet]:
    """Bucket ``rest`` by floor(log2(degree into the deepest level)) and
    return the fullest bucket (ties: smallest exponent).

    Every vertex of ``rest`` must have degree at least 1 (the deepest level
    dominates it) and below the high-degree cut k**3, so there are at most
    floor(log2(k**3)) + 1 buckets and the winner holds at least an equal
    share of ``rest``.  Degrees are counted from ``incidence``, the edges
    between the remainder (its ``a``, which holds ``rest``) and the deepest
    level (its ``b``).
    """
    if not rest:
        raise ValueError("empty vertex set: no bucket to pick")
    ids, degrees = incidence.degrees_into(rest)
    threshold = mixing.high_degree_cut(k)
    outside = (degrees < 1) | (degrees >= threshold)
    if outside.any():
        i = int(outside.argmax())
        raise ConstructionError(
            f"vertex {ids[i]} has degree {degrees[i]}, outside [1, {threshold})"
        )
    # frexp's exponent is the bit length of an integer below 2**53
    exponents = np.frexp(degrees)[1] - 1
    # argmax takes the smallest exponent among the fullest buckets
    exponent = int(np.bincount(exponents).argmax())
    bucket = rest.select(exponents == exponent)
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
    ids, degrees = graph.degrees_into(chosen, unit_targets)
    depth = len(chain.levels)
    # u takes the privates of the levels below (1 - d) mod k.  For a degree d
    # below n and a modulus of n + depth or more, that count is 1 - d when
    # d < 2 and at least the depth otherwise, so the modulus may stop at
    # n + depth, inside int64
    missing = (1 - degrees) % min(k, graph.n + depth)
    order = missing.argsort()
    # in ascending order of the count, level j goes to those after starts[j]
    starts = missing[order].searchsorted(np.arange(1, depth + 1)).tolist()
    ids = ids[order].tolist()
    patch = []
    for level, start in zip(chain.levels, starts):
        patch.extend(map(level.private_of.__getitem__, ids[start:]))
    return VertexSet.from_ids(patch, graph.n)


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
    size = len(_sides(graph)[0])
    if Fraction(first * chain.k) >= MATCHING_SHARE * size:
        return 1
    if Fraction(len(heavy)) >= HEAVY_SHARE * size:
        return 2
    return 3


def check_run_parameters(k: int, mode: str, retries: int) -> None:
    """Raise ValueError unless :func:`find_mod_one_subgraph` accepts these."""
    if k < 2:
        raise ValueError(f"modulus must be >= 2, got {k}")
    if mode not in ("sampled", "derandomized"):
        raise ValueError(f"mode must be 'sampled' or 'derandomized', got {mode!r}")
    if retries < 1:
        raise ValueError(f"retries must be >= 1, got {retries}")


def find_mod_one_subgraph(
    graph: BipartiteGraph,
    k: int,
    *,
    mode: str = "sampled",
    seed: int | None = 0,
    retries: int = 16,
) -> tuple[VertexSet, ConstructionTrace]:
    """Largest verified induced subgraph with every degree = 1 mod k.

    Runs all applicable routes and keeps the best verified candidate, so the
    result is never smaller than twice the first dominator level (the induced
    matching is always available) and always non-empty.

    In "sampled" mode the two sampling routes each draw up to ``retries``
    subsets from a generator seeded with ``seed`` and keep the draw hitting
    the most scored vertices.  In "derandomized" mode subsets are fixed by
    conditional expectations and the run is fully deterministic; ``seed`` and
    ``retries`` are ignored.  Remainder vertices with at least k**3
    neighbours in the deepest level count as high degree.
    """
    check_run_parameters(k, mode, retries)
    chain = build_chain(graph, k)
    deepest = chain.deepest
    # every route query counts remainder degrees into the deepest level
    incidence = graph.edges_between(chain.remainder, deepest)
    heavy = high_degree_targets(incidence, k)
    rest = chain.remainder - heavy
    rng = random.Random(seed)
    residue_spec = ResidueSpec(residue=1, modulus=k)

    def run_route(scored: VertexSet, exponent: int) -> Route:
        expected = mixing.expected_unit_score(incidence, scored, k, exponent)
        if exponent == 0:
            chosen = deepest
        elif mode == "derandomized":
            chosen = mixing.derandomize_subset(graph, deepest, scored, k, exponent)
        else:
            draws = [sample_subset(deepest, exponent, rng) for _ in range(retries)]
            chosen = best_draw(incidence, scored, draws, k)
        units = unit_residue_targets(incidence, chosen, k)
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
        bucket_exponent, bucket = largest_dyadic_bucket(incidence, rest, k)
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
