"""Bipartite instance generators for tests, demos, and benchmarks.

All generators return graphs that pass full validation: both sides
non-empty, no isolated vertices.  Random generators take an explicit
:class:`random.Random` so callers control reproducibility.  Each one's
draws are fixed as a sequence of ``random()``, ``sample`` and ``randrange``
calls; it reads the words of the generator's stream that those calls would
read, many at a time, and leaves the generator in the state those calls
would leave it in, so a caller that keeps drawing from it sees the same
numbers either way.  Module-level
:func:`generate` is a string-keyed dispatch used by the command line and the
batch harness, and returns a descriptor naming the instance.  It checks the
parameters with :func:`check_params`, which the command line also calls to
reject a bad spec file before any instance runs.
"""

from __future__ import annotations

import functools
import inspect
import math
import random

import numpy as np

from .graph import BipartiteGraph, GraphError


def complete_bipartite(a: int, b: int) -> BipartiteGraph:
    """All a*b cross edges; the classic tight family for the mod-k problem."""
    _check_sides(a=a, b=b)
    edges = np.column_stack((np.arange(a).repeat(b), np.tile(np.arange(a, a + b), a)))
    return BipartiteGraph.from_edges(a, b, edges)


def matching(pairs: int) -> BipartiteGraph:
    """``pairs`` disjoint edges; every degree is already 1."""
    _check_sides(pairs=pairs)
    edges = np.column_stack((np.arange(pairs), np.arange(pairs, 2 * pairs)))
    return BipartiteGraph.from_edges(pairs, pairs, edges)


def star(leaves: int, center_side: int = 1) -> BipartiteGraph:
    """One vertex joined to ``leaves`` others.

    ``center_side`` picks which side holds the hub; the two orientations
    exercise different branches of the constructive search.
    """
    _check_star(leaves, center_side)
    if center_side == 1:
        edges = np.column_stack((np.zeros(leaves, dtype=np.int64), np.arange(1, 1 + leaves)))
        return BipartiteGraph.from_edges(1, leaves, edges)
    edges = np.column_stack((np.arange(leaves), np.full(leaves, leaves)))
    return BipartiteGraph.from_edges(leaves, 1, edges)


def random_bipartite(
    n1: int, n2: int, p: float, rng: random.Random
) -> BipartiteGraph:
    """Each cross pair appears independently with probability ``p``.

    Isolated vertices are repaired afterwards with one random edge each
    (side 1 first, then whatever remains isolated on side 2), so the result
    always validates.  Draw order is fixed: one ``rng.random()`` per pair in
    ascending (u, w) order, then one ``rng.randrange`` per repair in
    ascending id order.  The pairs' draws are read in bulk: the same words
    that per-pair ``rng.random()`` calls read, leaving ``rng`` in the same
    state.
    """
    _check_random(n1, n2, p)
    present = np.empty(n1 * n2, dtype=bool)
    # rng.random() reads words a and b and returns
    # ((a >> 5) * 2**26 + (b >> 6)) * 2**-53, each step exact in float64
    pairs = _BLOCK_WORDS // 2
    for start in range(0, present.size, pairs):
        words = _words(rng, 2 * min(pairs, present.size - start))
        draws = (words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)
        draws *= 1.0 / 9007199254740992.0
        present[start:start + draws.size] = draws < p
    present = present.reshape(n1, n2)
    for u in np.flatnonzero(~present.any(axis=1)):
        present[u, rng.randrange(n2)] = True
    for w in np.flatnonzero(~present.any(axis=0)):
        present[rng.randrange(n1), w] = True
    left, right = present.nonzero()
    right += n1
    return BipartiteGraph.from_edges(n1, n2, np.column_stack((left, right)))


def random_regularish(
    n1: int, n2: int, degree: int, rng: random.Random
) -> BipartiteGraph:
    """Every side-1 vertex picks ``degree`` distinct side-2 partners.

    Side-2 degrees are whatever the draws produce; isolated side-2 vertices
    get one random partner afterwards.  Useful for large sparse instances
    where an edge-probability model would be dense or disconnected.  Draw
    order is fixed: one ``rng.sample(range(n2), degree)`` per side-1 vertex,
    then one ``rng.randrange(n1)`` per isolated side-2 vertex in ascending
    id order.  The draws are read in bulk: the same words those calls read,
    leaving ``rng`` in the same state.
    """
    _check_regularish(n1, n2, degree)
    chosen = _sample_rows(rng, n1, n2, degree)
    uncovered = np.flatnonzero(np.bincount(chosen, minlength=n2) == 0)
    # randrange(n1) is sample(range(n1), 1): one draw below n1 either way
    partners = _sample_rows(rng, uncovered.size, n1, 1)
    edges = np.column_stack((
        np.concatenate((np.arange(n1).repeat(degree), partners)),
        np.concatenate((chosen, uncovered)) + n1,
    ))
    return BipartiteGraph.from_edges(n1, n2, edges)


# Reading the generator's stream in bulk.  random.Random is a Mersenne
# Twister: every draw reads whole 32-bit words of one stream, and
# getrandbits(32 * m) returns the next m words, the i-th at bits 32i to
# 32i + 31.  The generators above decode such blocks with NumPy instead of
# making one call per draw.

# words per bulk read: 256 KiB of draws, a few MiB once decoded
_BLOCK_WORDS = 1 << 16


def _words(rng: random.Random, m: int) -> np.ndarray:
    """The next ``m`` words of ``rng``'s stream, as uint32 in draw order."""
    raw = rng.getrandbits(32 * m).to_bytes(4 * m, "little")
    return np.frombuffer(raw, dtype="<u4")


def _sample_rows(rng: random.Random, rows: int, n: int, degree: int) -> np.ndarray:
    """``rows`` calls of ``rng.sample(range(n), degree)``, concatenated, for
    ``n`` below 2**32, read from the words those calls read.

    A draw below m (``rng._randbelow``) takes the top ``m.bit_length()``
    bits of one word and reads words until that value is below m.
    ``sample`` draws below n - i for its i-th pick from a pool of the ids
    not yet picked when n is at most its set size, and otherwise draws
    below n until a pick is new.  Words are drawn a block at a time; a row
    that a block cannot complete starts over on a block that keeps the
    unread words and draws at least as many again.  At the end ``rng`` is
    put back to the state before the last block and moved past the words
    the rows read.
    """
    setsize = 21
    if degree > 5:  # as random.sample computes it
        setsize += 4 ** math.ceil(math.log(degree * 3, 4))
    pool = n <= setsize
    # for the pool branch, each pick's bound and its shift
    draws = [(m, 32 - m.bit_length()) for m in range(n, n - degree, -1)] if pool else []
    out = np.empty(rows * degree, dtype=np.int64)
    if not rows:
        return out
    done = 0  # values in out
    words = np.empty(0, dtype=np.uint32)
    read = 0  # words of the block that the finished rows read
    while done < out.size:
        state = rng.getstate()
        # the words the last block's rows left come first, then 4 fresh
        # words per value still wanted (a value reads under 2.5 on average),
        # capped at _BLOCK_WORDS: at least 3 * degree, and as many as carried
        carried = words.size - read
        block = min(_BLOCK_WORDS, 4 * (out.size - done))
        fresh = _words(rng, max(block, 3 * degree, carried))
        words = np.concatenate((words[read:], fresh))
        if pool:
            values, read = _pool_rows(words.tolist(), draws, out.size - done)
        else:
            values, read = _set_rows(words, n, degree, out.size - done)
        out[done:done + len(values)] = values
        done += len(values)
    rng.setstate(state)
    rng.getrandbits(32 * (read - carried))
    return out


def _pool_rows(words: list[int], draws: list[tuple[int, int]], wanted: int):
    """The values of the rows of ``sample``'s pool branch that ``words``
    completes, at most ``wanted`` values, and the number of words they read.
    ``draws`` holds each pick's bound m and the shift that keeps the top
    ``m.bit_length()`` bits of a word."""
    n, degree = draws[0][0], len(draws)
    values: list[int] = []
    start = 0
    try:
        while len(values) < wanted:
            pool, q = list(range(n)), start
            for m, shift in draws:
                j = words[q] >> shift
                while j >= m:
                    q += 1
                    j = words[q] >> shift
                q += 1
                values.append(pool[j])
                pool[j] = pool[m - 1]
            start = q
    except IndexError:  # the words ran out within a row: drop its values
        del values[len(values) - len(values) % degree:]
    return values, start


def _set_rows(words: np.ndarray, n: int, degree: int, wanted: int):
    """The values of the rows of ``sample``'s set branch that ``words``
    completes, at most ``wanted`` values, and the number of words they read."""
    drawn = words >> (32 - n.bit_length())
    kept = np.flatnonzero(drawn < n)  # a draw at or above n is drawn again
    picks = drawn[kept]
    listed = picks.tolist()
    repeats: list[int] = []  # positions in picks of a draw its row already holds
    a, end = 0, len(listed)
    for _ in range(wanted // degree):
        b = a + degree
        if b > end:
            break
        # a row's picks are its first ``degree`` distinct draws
        row = set(listed[a:b])
        while len(row) < degree:
            # the next few draws can at most complete the row
            missing = degree - len(row)
            if b + missing > end:
                break
            row.update(listed[b:b + missing])
            b += missing
        if len(row) < degree:
            break
        if b - a > degree:
            # each value's first position, as the last one seen backwards
            first = dict(zip(reversed(listed[a:b]), range(b - 1, a - 1, -1)))
            repeats += set(range(a, b)).difference(first.values())
        a = b
    values = np.delete(picks[:a], repeats)
    return values, int(kept[a - 1]) + 1 if a else 0


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
    # a draw below 2**32 or more reads two words, which the bulk reads do not
    # decode; such a graph would hold 2**32 edges or more
    if max(n1, n2) >= 1 << 32:
        raise ValueError(f"'n1' and 'n2' must be below 2**32, got n1={n1}, n2={n2}")


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
