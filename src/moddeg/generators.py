"""Bipartite instance generators for tests, demos, and benchmarks.

All generators return graphs that pass full validation: both sides
non-empty, no isolated vertices.  Random generators take an explicit
:class:`random.Random` so callers control reproducibility; module-level
:func:`generate` is a string-keyed dispatch used by the command line and the
batch harness, and returns a descriptor naming the instance.  It checks the
parameters with :func:`check_params`, which the command line also calls to
reject a bad spec file before any instance runs.
"""

from __future__ import annotations

import functools
import inspect
import random

import numpy as np

from .graph import BipartiteGraph, GraphError


def complete_bipartite(a: int, b: int) -> BipartiteGraph:
    """All a*b cross edges; the classic tight family for the mod-k problem."""
    _check_sides(a=a, b=b)
    edges = [(u, a + w) for u in range(a) for w in range(b)]
    return BipartiteGraph.from_edges(a, b, edges)


def matching(pairs: int) -> BipartiteGraph:
    """``pairs`` disjoint edges; every degree is already 1."""
    _check_sides(pairs=pairs)
    edges = [(i, pairs + i) for i in range(pairs)]
    return BipartiteGraph.from_edges(pairs, pairs, edges)


def star(leaves: int, center_side: int = 1) -> BipartiteGraph:
    """One vertex joined to ``leaves`` others.

    ``center_side`` picks which side holds the hub; the two orientations
    exercise different branches of the constructive search.
    """
    _check_star(leaves, center_side)
    if center_side == 1:
        return BipartiteGraph.from_edges(1, leaves, [(0, 1 + j) for j in range(leaves)])
    return BipartiteGraph.from_edges(leaves, 1, [(j, leaves) for j in range(leaves)])


def random_bipartite(
    n1: int, n2: int, p: float, rng: random.Random
) -> BipartiteGraph:
    """Each cross pair appears independently with probability ``p``.

    Isolated vertices are repaired afterwards with one random edge each
    (side 1 first, then whatever remains isolated on side 2), so the result
    always validates.  Draw order is fixed: pairs in ascending (u, w) order,
    then repairs in ascending id order.
    """
    _check_random(n1, n2, p)
    present = [[rng.random() < p for _ in range(n2)] for _ in range(n1)]
    for u in range(n1):
        if not any(present[u]):
            present[u][rng.randrange(n2)] = True
    for w in range(n2):
        if not any(present[u][w] for u in range(n1)):
            present[rng.randrange(n1)][w] = True
    edges = [
        (u, n1 + w) for u in range(n1) for w in range(n2) if present[u][w]
    ]
    return BipartiteGraph.from_edges(n1, n2, edges)


def random_regularish(
    n1: int, n2: int, degree: int, rng: random.Random
) -> BipartiteGraph:
    """Every side-1 vertex picks ``degree`` distinct side-2 partners.

    Side-2 degrees are whatever the draws produce; isolated side-2 vertices
    get one random partner afterwards.  Useful for large sparse instances
    where an edge-probability model would be dense or disconnected.
    """
    _check_regularish(n1, n2, degree)
    chosen = np.array(
        [rng.sample(range(n2), degree) for _ in range(n1)], dtype=np.int64
    ).ravel()
    uncovered = np.setdiff1d(np.arange(n2), chosen)
    partners = np.array(
        [rng.randrange(n1) for _ in range(uncovered.size)], dtype=np.int64
    )
    edges = np.column_stack((
        np.concatenate((np.arange(n1).repeat(degree), partners)),
        np.concatenate((chosen, uncovered)) + n1,
    ))
    return BipartiteGraph.from_edges(n1, n2, edges)


# The range rules of each generator's parameters.  Every generator calls its
# rule before any work, and check_params calls the same rule, so a value out
# of range is refused the same way whether a generator is called directly or
# named in a spec.


def _check_sides(**sizes: int) -> None:
    """Refuse an empty side, naming the generator's own parameters in the
    message of :meth:`BipartiteGraph.from_edges`."""
    if min(sizes.values()) < 1:
        got = ", ".join(f"{name}={size}" for name, size in sizes.items())
        raise GraphError(f"both sides must be non-empty, got {got}")


def _check_star(leaves: int, center_side: int = 1) -> None:
    if leaves < 1:
        raise ValueError(f"'leaves' must be >= 1, got {leaves}")
    if center_side not in (1, 2):
        raise ValueError(f"'center_side' must be 1 or 2, got {center_side}")


def _check_random(n1: int, n2: int, p: float) -> None:
    _check_sides(n1=n1, n2=n2)
    if not 0 <= p <= 1:
        raise ValueError(f"'p' must be in [0, 1], got {p}")


def _check_regularish(n1: int, n2: int, degree: int) -> None:
    _check_sides(n1=n1, n2=n2)
    if not 1 <= degree <= n2:
        raise ValueError(f"'degree' must be between 1 and n2={n2}, got {degree}")


GENERATORS = {
    "complete": complete_bipartite,
    "matching": matching,
    "star": star,
    "random": random_bipartite,
    "regularish": random_regularish,
}

_RANGE_RULES = {
    "complete": _check_sides,
    "matching": _check_sides,
    "star": _check_star,
    "random": _check_random,
    "regularish": _check_regularish,
}

_SEEDED = {"random", "regularish"}

# what a parameter annotated with each type accepts; bool is not a number here
_ACCEPTED = {int: ((int,), "an integer"), float: ((int, float), "a number")}


@functools.cache
def _taken(kind: str) -> inspect.Signature:
    """The parameters a spec may name for ``kind``: its generator's
    signature less ``rng``.  Kept once built, as building it costs several
    times what checking the values does; built on first use, so importing
    the module builds none."""
    signature = inspect.signature(GENERATORS[kind], eval_str=True)
    return signature.replace(
        parameters=[p for name, p in signature.parameters.items() if name != "rng"]
    )


def check_params(kind: str, params: dict) -> None:
    """Reject an unknown ``kind``, a parameter name its generator does not
    take, a missing required one, a value its annotation does not accept, or
    a value out of its generator's range, before anything is built.  A name
    it does not take is named first: a misspelled name also leaves the right
    one missing.  An empty side raises :class:`GraphError`, as
    :meth:`BipartiteGraph.from_edges` does; every other error is a
    ValueError that names the parameter."""
    if not isinstance(kind, str) or kind not in GENERATORS:
        known = ", ".join(sorted(GENERATORS))
        raise ValueError(f"unknown generator {kind!r}; known kinds: {known}")
    taken = _taken(kind)
    try:
        taken.bind_partial(**params)
        taken.bind(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for {kind!r}: {exc}") from None
    for name, value in params.items():
        types, noun = _ACCEPTED[taken.parameters[name].annotation]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(
                f"bad parameters for {kind!r}: {name!r} must be {noun}, got {value!r}"
            )
    _RANGE_RULES[kind](**params)


def describe(kind: str, params: dict, seed: int | None) -> str:
    """The descriptor of an instance: its family, its parameters sorted by
    name, and the seed for a family that draws at random."""
    label = ",".join(f"{key}={params[key]}" for key in sorted(params))
    if kind in _SEEDED:
        return f"{kind}({label},seed={seed})"
    return f"{kind}({label})"


def generate(kind: str, seed: int | None = None, **params) -> tuple[BipartiteGraph, str]:
    """Build an instance by family name; returns (graph, descriptor).

    The descriptor encodes the family, its parameters, and the seed when one
    was used, so batch reports can name every instance unambiguously.
    Parameters are checked first by :func:`check_params`.
    """
    check_params(kind, params)
    if kind in _SEEDED:
        graph = GENERATORS[kind](**params, rng=random.Random(seed))
    else:
        graph = GENERATORS[kind](**params)
    return graph, describe(kind, params, seed)
