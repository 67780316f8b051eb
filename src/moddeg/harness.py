"""Batch experiment harness with reproducible reports.

A batch is a list of (generator kind, parameter dict) specs run at one
modulus and mode.  All randomness flows from one master seed: the master
generator hands every instance a generation seed and a search seed up front,
so reports are byte-for-byte reproducible for a fixed seed.  Wall-clock
timings are collected too, but they live in a separate section that the
canonical serializations exclude by default; rerunning a batch must produce
identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import generators, oracle
from .construction import check_run_parameters, find_mod_one_subgraph
from .graph import ResidueSpec, verify_residue

SCHEMA_VERSION = 1


@dataclass(frozen=True, kw_only=True)
class BatchRecord:
    """One instance's outcome: the graph's shape, the winning route, and the
    verified subgraph order.

    ``optimum`` is the exact maximum order when the oracle ran for this
    instance (None otherwise; ``optimum_exact`` is False when the oracle hit
    its node budget and returned a lower bound).  A failed instance keeps its
    error string and leaves the graph and run fields at their zero defaults,
    so the batch can continue around it.
    ``elapsed_s`` is timing-only and never enters the canonical report bytes.
    """

    index: int
    descriptor: str
    k: int
    n1: int = 0
    n2: int = 0
    edge_count: int = 0
    order: int = 0
    case: int = 0
    analysis_case: int = 0
    verified: bool = False
    gen_seed: int
    run_seed: int
    elapsed_s: float
    optimum: int | None = None
    optimum_exact: bool | None = None
    error: str | None = None

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def ratio(self) -> Fraction:
        if self.n == 0:
            return Fraction(0)
        return Fraction(self.order, self.n)

    @property
    def scaled_ratio(self) -> Fraction:
        """order * k / n: how close the run sits to the k-fold share bound."""
        return self.ratio * self.k

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "descriptor": self.descriptor,
            "k": self.k,
            "n1": self.n1,
            "n2": self.n2,
            "n": self.n,
            "edges": self.edge_count,
            "order": self.order,
            "ratio": str(self.ratio),
            "scaled_ratio": str(self.scaled_ratio),
            "case": self.case,
            "analysis_case": self.analysis_case,
            "verified": self.verified,
            "optimum": self.optimum,
            "optimum_exact": self.optimum_exact,
            "gen_seed": self.gen_seed,
            "run_seed": self.run_seed,
            "error": self.error,
        }


# the keys of BatchRecord.to_dict, in order, read off a blank record
CSV_FIELDS = list(
    BatchRecord(index=0, descriptor="", k=2, gen_seed=0, run_seed=0, elapsed_s=0.0)
    .to_dict()
)


@dataclass(frozen=True)
class ExperimentReport:
    """Full batch outcome plus run parameters.

    ``to_json`` and ``to_csv`` are canonical: fixed key order, fixed
    formatting, no timestamps, and timing only on request.
    """

    k: int
    mode: str
    seed: int
    retries: int
    records: tuple[BatchRecord, ...]
    total_elapsed_s: float

    def summary(self) -> dict:
        good = [rec for rec in self.records if rec.error is None]
        cases = {case: 0 for case in (1, 2, 3)}
        for rec in good:
            cases[rec.case] += 1
        out = {
            "count": len(self.records),
            "errors": len(self.records) - len(good),
            "all_verified": bool(good) and all(rec.verified for rec in good)
            and len(good) == len(self.records),
            "case_counts": {str(case): cases[case] for case in sorted(cases)},
        }
        if good:
            worst = min(good, key=lambda rec: (rec.ratio, rec.index))
            out["min_ratio"] = str(worst.ratio)
            out["min_ratio_index"] = worst.index
            out["mean_ratio"] = str(
                sum((rec.ratio for rec in good), Fraction(0)) / len(good)
            )
        else:
            out["min_ratio"] = None
            out["min_ratio_index"] = None
            out["mean_ratio"] = None
        return out

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "k": self.k,
            "mode": self.mode,
            "seed": self.seed,
            "retries": self.retries,
            "summary": self.summary(),
            "records": [rec.to_dict() for rec in self.records],
        }
        if include_timing:
            out["timing"] = {
                "total_s": self.total_elapsed_s,
                "per_record_s": [rec.elapsed_s for rec in self.records],
            }
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return (
            json.dumps(self.to_dict(include_timing), sort_keys=True, indent=2) + "\n"
        )

    def to_csv(self, include_timing: bool = False) -> str:
        fields = list(CSV_FIELDS)
        if include_timing:
            fields.append("elapsed_s")
        buffer = io.StringIO()
        buffer.write(f"# schema_version={SCHEMA_VERSION} k={self.k} mode={self.mode}")
        buffer.write(f" seed={self.seed} retries={self.retries}\n")
        writer = csv.DictWriter(buffer, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for rec in self.records:
            row = rec.to_dict()
            if include_timing:
                row["elapsed_s"] = repr(rec.elapsed_s)
            writer.writerow(row)
        return buffer.getvalue()


def run_batch(
    specs: Sequence[tuple[str, dict]],
    k: int,
    *,
    mode: str = "sampled",
    seed: int = 0,
    retries: int = 16,
    oracle_max_n: int | None = None,
) -> ExperimentReport:
    """Generate and solve every spec, re-verifying each result independently.

    Per-instance seeds are all drawn from the master generator before any
    work starts, so inserting or reordering timing code cannot change them.
    When ``oracle_max_n`` is set, instances with at most that many vertices
    also get their exact maximum computed for comparison.  Bad run parameters
    raise ValueError before any instance runs.  A failing instance is
    recorded with its error and the batch continues; a record with
    ``verified == False`` means the construction's output failed the residue
    recheck, which is a bug by contract, and the report keeps the evidence
    rather than hiding it behind an exception.
    """
    if not specs:
        raise ValueError("need at least one instance spec")
    check_run_parameters(k, mode, retries)
    master = random.Random(seed)
    seeds = [(master.randrange(2**63), master.randrange(2**63)) for _ in specs]
    records = []
    started = time.perf_counter()
    for index, (kind, params) in enumerate(specs):
        gen_seed, run_seed = seeds[index]
        t0 = time.perf_counter()
        try:
            graph, descriptor = generators.generate(kind, seed=gen_seed, **params)
            subgraph, trace = find_mod_one_subgraph(
                graph, k, mode=mode, seed=run_seed, retries=retries
            )
            check = verify_residue(graph, subgraph, ResidueSpec(1, k))
            optimum = None
            optimum_exact = None
            if oracle_max_n is not None and graph.n <= oracle_max_n:
                best = oracle.exact_max_order(graph, ResidueSpec(1, k))
                optimum = best.order
                optimum_exact = best.exact
            records.append(
                BatchRecord(
                    index=index,
                    descriptor=descriptor,
                    k=k,
                    n1=graph.n1,
                    n2=graph.n2,
                    edge_count=graph.edge_count(),
                    order=len(subgraph),
                    case=trace.case,
                    analysis_case=trace.analysis_case,
                    verified=bool(check) and len(subgraph) > 0,
                    gen_seed=gen_seed,
                    run_seed=run_seed,
                    elapsed_s=time.perf_counter() - t0,
                    optimum=optimum,
                    optimum_exact=optimum_exact,
                )
            )
        except Exception as exc:
            records.append(
                BatchRecord(
                    index=index,
                    descriptor=generators.describe(kind, params, gen_seed),
                    k=k,
                    gen_seed=gen_seed,
                    run_seed=run_seed,
                    elapsed_s=time.perf_counter() - t0,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    total = time.perf_counter() - started
    return ExperimentReport(
        k=k,
        mode=mode,
        seed=seed,
        retries=retries,
        records=tuple(records),
        total_elapsed_s=total,
    )
