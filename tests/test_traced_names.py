"""Every function the benchmark's span recorder wraps still exists, and a
small find request list records every span the find workloads expect.

``perfbench/spans.py`` replaces each ``(module, attribute)`` in its
``TRACED`` table for the length of a traced run and raises if one is
missing, but only a traced benchmark run would notice.  These tests make a
rename, or a call that no longer goes through the wrapped module global,
fail the ordinary suite instead.  They only read ``perfbench/``.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


SPANS = _load("spans")
WORKLOADS = _load("workloads")
TRACED = SPANS.TRACED


def test_table_is_not_empty():
    assert TRACED


@pytest.mark.parametrize(
    "module_name, attr, span", TRACED, ids=[f"{m}.{a}" for m, a, _ in TRACED]
)
def test_traced_attribute_is_callable(module_name, attr, span):
    assert module_name.startswith("moddeg")
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} ({span})"


def test_small_find_requests_record_every_expected_span(tmp_path):
    from moddeg import cli

    # sparse-find's request list on a graph a hundred times smaller
    workload = WORKLOADS.FindWorkload(200, 100, 3, WORKLOADS.WORKLOADS["sparse-find"].requests)
    workload.make_inputs(cli.main, tmp_path, seed=1)
    requests = workload.load(tmp_path, seed=1)
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        for request in requests:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(request.argv) == 0, request.label
            request.check(out.getvalue())
    finally:
        tracer.uninstall()
    recorded = {name for name, *_ in tracer.spans}
    assert not set(workload.expected_spans) - recorded
    # the spans nest, and each level of every chain is a span of its own
    summary = SPANS.summarize(tracer.spans, 0, len(tracer.spans))
    assert summary["cli.main.calls"] == len(requests)
    assert summary["construction.minimal_dominating_set.calls"] == sum(k - 1 for k, _ in workload.requests)
