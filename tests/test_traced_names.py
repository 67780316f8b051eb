"""Every function the benchmark's span recorder wraps still exists.

``perfbench/spans.py`` replaces each ``(module, attribute)`` in its
``TRACED`` table for the length of a traced run and raises if one is
missing, but only a traced benchmark run would notice.  This test makes a
rename fail the ordinary suite instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = _traced()


def test_table_is_not_empty():
    assert TRACED


@pytest.mark.parametrize(
    "module_name, attr, span", TRACED, ids=[f"{m}.{a}" for m, a, _ in TRACED]
)
def test_traced_attribute_is_callable(module_name, attr, span):
    assert module_name.startswith("moddeg")
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} ({span})"
