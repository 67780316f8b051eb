"""Outside-in span recorder for the moddeg benchmark.

Spans are recorded only from the benchmark's side: each layer's public
functions are replaced, for the length of a traced pass, by a wrapper stored
under the name the *calling* module looks up (``moddeg.cli.parse_graph``,
``moddeg.construction.unit_residue_targets``, ...).  Nothing inside ``src/``
is modified.  A name that no longer exists is a hard error, so a refactor
cannot silently drop a span.

Spans live in memory as ``[name, start, end, parent, request]`` lists and are
written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "graph", "generators", "construction", "mixing", "oracle", "harness")

# (module whose global the caller reads, attribute, span name "layer.function")
TRACED = (
    ("moddeg.cli", "main", "cli.main"),
    ("moddeg.cli", "parse_graph", "graph.parse_graph"),
    ("moddeg.cli", "verify_residue", "graph.verify_residue"),
    ("moddeg.construction", "verify_residue", "graph.verify_residue"),
    ("moddeg.harness", "verify_residue", "graph.verify_residue"),
    ("moddeg.oracle", "verify_residue", "graph.verify_residue"),
    ("moddeg.generators", "generate", "generators.generate"),
    ("moddeg.cli", "find_mod_one_subgraph", "construction.find_mod_one_subgraph"),
    ("moddeg.harness", "find_mod_one_subgraph", "construction.find_mod_one_subgraph"),
    ("moddeg.construction", "build_chain", "construction.build_chain"),
    ("moddeg.construction", "minimal_dominating_set", "construction.minimal_dominating_set"),
    ("moddeg.construction", "high_degree_targets", "construction.high_degree_targets"),
    ("moddeg.construction", "largest_dyadic_bucket", "construction.largest_dyadic_bucket"),
    ("moddeg.construction", "sample_subset", "construction.sample_subset"),
    ("moddeg.construction", "unit_residue_targets", "construction.unit_residue_targets"),
    ("moddeg.construction", "fix_degrees", "construction.fix_degrees"),
    ("moddeg.mixing", "derandomize_subset", "mixing.derandomize_subset"),
    ("moddeg.mixing", "expected_unit_score", "mixing.expected_unit_score"),
    ("moddeg.mixing", "residue_table", "mixing.residue_table"),
    ("moddeg.mixing", "residue_distribution", "mixing.residue_distribution"),
    ("moddeg.mixing", "uniformity_table", "mixing.uniformity_table"),
    ("moddeg.oracle", "exact_max_order", "oracle.exact_max_order"),
    ("moddeg.harness", "run_batch", "harness.run_batch"),
)

SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span in TRACED))

# Exact counts taken from a wrapped call's result, after its span has closed.
COUNTS = ("graph.adj_bytes", "oracle.explored", "oracle.timed_out",
          "mixing.dp_steps", "harness.errors")


def _adj_bytes(graph) -> int:
    return sum(map(sys.getsizeof, graph.adj))


def _count_parse(counts, graph):
    counts["graph.adj_bytes"] += _adj_bytes(graph)


def _count_generate(counts, result):
    counts["graph.adj_bytes"] += _adj_bytes(result[0])


def _count_oracle(counts, result):
    counts["oracle.explored"] += result.explored
    counts["oracle.timed_out"] += int(result.timed_out)


def _count_residue_distribution(counts, result):
    counts["mixing.dp_steps"] += result.n


def _count_batch(counts, report):
    counts["harness.errors"] += sum(rec.error is not None for rec in report.records)


HOOKS = {
    "graph.parse_graph": _count_parse,
    "generators.generate": _count_generate,
    "oracle.exact_max_order": _count_oracle,
    "mixing.residue_distribution": _count_residue_distribution,
    "harness.run_batch": _count_batch,
}


class TraceError(RuntimeError):
    """A traced name is missing or the recorded spans do not nest."""


class Tracer:
    """Installs the wrappers, keeps spans and counts in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        if self._saved:
            raise TraceError("tracer already installed")
        for module_name, attr, span in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.uninstall()
                raise TraceError(
                    f"{module_name}.{attr} no longer exists; span {span!r} would be lost"
                )
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, self.request])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if hook is not None:
                hook(self.counts, result)
            return result

        return traced

    def take_counts(self) -> dict[str, int]:
        """Counts since the last call, every name in COUNTS present."""
        out = {name: self.counts.get(name, 0) for name in COUNTS}
        self.counts.clear()
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)


def summarize(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Busy time, call count and self time per span name and per layer.

    Covers ``spans[lo:hi]``, which must be closed: every span ended and every
    parent inside the slice.  Self time is a span's duration minus the
    durations of its direct children.  Spans nest strictly (one thread), so
    the layers' self times add up to the total of the root ``cli.main``
    spans; a violation means broken spans and raises.
    """
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _ in spans[lo:hi]:
        if end is None:
            raise TraceError(f"span {name!r} never closed")
        if parent >= 0:
            if parent < lo:
                raise TraceError(f"span {name!r} has a parent outside its pass")
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = 0.0
        out[f"{name}.calls"] = 0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    out["construction.find_mod_one_subgraph.self_s"] = 0.0
    roots = 0.0
    for index in range(lo, hi):
        name, start, end, parent, _ = spans[index]
        duration = end - start
        own = duration - child_time[index]
        out[f"{name}_s"] += duration
        out[f"{name}.calls"] += 1
        out[f"{name.split('.')[0]}.self_s"] += own
        if name == "construction.find_mod_one_subgraph":
            out["construction.find_mod_one_subgraph.self_s"] += own
        if parent < 0:
            if name != "cli.main":
                raise TraceError(f"root span {name!r} is not a request")
            roots += duration
    layered = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    if abs(layered - roots) > 1e-6:
        raise TraceError(f"layer self times {layered} do not add up to {roots}")
    return out
