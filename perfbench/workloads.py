"""The benchmark's workloads: their inputs, request lists and answer checks.

Every workload is a closed loop with one client: a fixed list of
``moddeg`` command lines, sent in order, each after the previous one has
returned.  Inputs come from the workload seed alone.  Answers are checked
without the library: find responses are recounted from the plain edge list
with NumPy, never through ``VertexSet`` or ``verify_residue``.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckError(Exception):
    """A response is wrong; the message says how."""


@dataclass(frozen=True)
class Answer:
    """What one checked response contributes to the quality shares."""

    order: int = 0
    n: int = 0
    optimum: int = 0


@dataclass(frozen=True)
class Request:
    label: str
    argv: list[str]
    check: Callable[[str], Answer]  # raises CheckError on a wrong response


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


class FindWorkload:
    """``moddeg find --json`` on one ``regularish`` instance, several (k, mode)."""

    has_oracle = False
    expected_spans = (
        "graph.parse_graph", "graph.verify_residue",
        "construction.find_mod_one_subgraph", "construction.build_chain",
        "construction.minimal_dominating_set", "construction.high_degree_targets",
        "construction.sample_subset", "construction.unit_residue_targets",
        "construction.fix_degrees", "mixing.derandomize_subset",
        "mixing.expected_unit_score", "mixing.residue_table",
    )

    def __init__(self, n1: int, n2: int, degree: int, requests: list[tuple[int, str]]):
        if n1 < n2:
            # parse_graph would relabel the sides; the recount uses file ids.
            raise ValueError("side 1 must be the larger side")
        self.params = {"n1": n1, "n2": n2, "degree": degree}
        self.requests = requests

    def make_inputs(self, main, workdir: Path, seed: int) -> None:
        argv = ["gen", "--kind", "regularish", "--seed", str(seed),
                "--out", str(workdir / "graph.txt")]
        for key, value in self.params.items():
            argv += ["--param", f"{key}={value}"]
        if main(argv) != 0:
            raise RuntimeError(f"moddeg {' '.join(argv)} failed")

    def load(self, workdir: Path, seed: int) -> list[Request]:
        path = workdir / "graph.txt"
        rows = np.loadtxt(path, comments="#", dtype=np.int64)
        n1, n2 = (int(x) for x in rows[0])
        edges = rows[1:]
        _require(n1 == self.params["n1"] and n2 == self.params["n2"],
                 f"generated header {n1} {n2} does not match {self.params}")
        out = []
        for k, mode in self.requests:
            argv = ["find", "--input", str(path), "--k", str(k), "--mode", mode,
                    "--seed", str(seed), "--json"]
            out.append(Request(f"find k={k} {mode}", argv,
                               _find_checker(edges, n1 + n2, k)))
        return out


def _find_checker(edges: np.ndarray, n: int, k: int):
    u, w = edges[:, 0], edges[:, 1]

    def check(stdout: str) -> Answer:
        payload = json.loads(stdout)
        vertices = np.asarray(payload["vertices"], dtype=np.int64)
        size = len(vertices)
        _require(payload["verified"] is True, "response not marked verified")
        _require(payload["k"] == k, f"response k {payload['k']} != {k}")
        _require(size > 0, "empty subgraph")
        _require(payload["sizes"]["subgraph"] == size, "reported size != vertex count")
        _require(int(vertices.min()) >= 0 and int(vertices.max()) < n,
                 "vertex id out of range")
        _require(len(np.unique(vertices)) == size, "repeated vertex id")
        member = np.zeros(n, dtype=bool)
        member[vertices] = True
        inside = member[u] & member[w]
        degree = (np.bincount(u[inside], minlength=n)
                  + np.bincount(w[inside], minlength=n))
        wrong = vertices[degree[vertices] % k != 1]
        _require(len(wrong) == 0,
                 f"{len(wrong)} vertices with induced degree != 1 mod {k}, "
                 f"first {wrong[:1].tolist()}")
        return Answer(order=size, n=n)

    return check


class OracleBatchWorkload:
    """``moddeg bench --spec`` with the exact oracle on every instance,
    split into several spec files (several requests) per pass."""

    has_oracle = True
    expected_spans = (
        "harness.run_batch", "generators.generate",
        "construction.find_mod_one_subgraph", "graph.verify_residue",
        "oracle.exact_max_order",
    )

    def __init__(self, specs: int, count: int, params: dict, k: int, oracle_max_n: int):
        self.specs, self.count, self.params, self.k = specs, count, params, k
        self.oracle_max_n = oracle_max_n

    def make_inputs(self, main, workdir: Path, seed: int) -> None:
        for part in range(self.specs):
            spec = {"k": self.k, "mode": "sampled", "seed": seed * self.specs + part,
                    "instances": [{"kind": "random", "count": self.count,
                                   "params": self.params}]}
            (workdir / f"spec{part}.json").write_text(json.dumps(spec, sort_keys=True) + "\n")

    def load(self, workdir: Path, seed: int) -> list[Request]:
        return [Request(f"bench oracle spec{part}",
                        ["bench", "--spec", str(workdir / f"spec{part}.json"),
                         "--oracle-max-n", str(self.oracle_max_n), "--format", "json"],
                        self.check)
                for part in range(self.specs)]

    def check(self, stdout: str) -> Answer:
        records = json.loads(stdout)["records"]
        _require(len(records) == self.count,
                 f"{len(records)} records, expected {self.count}")
        for rec in records:
            where = f"record {rec['index']}"
            _require(rec["error"] is None, f"{where}: {rec['error']}")
            _require(rec["verified"] is True, f"{where}: not verified")
            _require(rec["optimum_exact"] is True, f"{where}: oracle timed out")
            _require(rec["order"] >= 1, f"{where}: empty subgraph")
            _require(rec["optimum"] >= rec["order"],
                     f"{where}: optimum {rec['optimum']} < order {rec['order']}")
        return Answer(order=sum(r["order"] for r in records),
                      n=sum(r["n"] for r in records),
                      optimum=sum(r["optimum"] for r in records))


class MixingTableWorkload:
    """``moddeg mixing --format csv`` at the default k <= 25."""

    has_oracle = False
    expected_spans = ("mixing.uniformity_table", "mixing.residue_distribution")
    k_max = 25

    def make_inputs(self, main, workdir: Path, seed: int) -> None:
        """The table takes no input file."""

    def load(self, workdir: Path, seed: int) -> list[Request]:
        return [Request("mixing csv", ["mixing", "--format", "csv"], self.check)]

    def check(self, stdout: str) -> Answer:
        rows = list(csv.DictReader(io.StringIO(stdout)))
        ks = [int(row["k"]) for row in rows]
        _require(ks == list(range(2, self.k_max + 1)),
                 f"rows for k={ks}, expected 2..{self.k_max}")
        for row in rows:
            k, n = int(row["k"]), int(row["n"])
            _require(n == k ** 3, f"k={k}: n={n}, expected k^3")
            expected = _residue_one_probability(n, k)
            got = float(row["prob_residue_1"])
            _require(abs(got - expected) <= 1e-9,
                     f"k={k}: P(residue 1) {got} != {expected}")
        return Answer()


def _residue_one_probability(n: int, k: int) -> float:
    """P(sum of n fair coin flips = 1 mod k) by the inverse DFT over the
    k-th roots of unity, independent of the library's DP."""
    total = 0j
    for j in range(k):
        root = cmath.exp(2j * math.pi * j / k)
        total += ((1 + root) / 2) ** n / root
    return total.real / k


WORKLOADS = {
    # n = 30000 vertices but only 60k edges: vertex count sets the cost.
    "sparse-find": FindWorkload(20000, 10000, 3,
                                [(3, "sampled"), (3, "derandomized"),
                                 (5, "sampled"), (2, "derandomized")]),
    # 320k edges on 8800 vertices: edge count sets the cost.
    "dense-find": FindWorkload(8000, 800, 40,
                               [(2, "sampled"), (2, "derandomized"),
                                (3, "sampled"), (3, "derandomized")]),
    # The exact optimum's search size varies by about 45% between instances,
    # so many small instances keep the batch's cost steady across seeds.
    "oracle-batch": OracleBatchWorkload(4, 60, {"n1": 16, "n2": 10, "p": 0.25}, 3, 64),
    "mixing-table": MixingTableWorkload(),
}
