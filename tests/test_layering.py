"""The bitmask format of graphs and vertex sets stays inside ``graph.py``.

Every other module works through ``VertexSet`` operations,
``BipartiteGraph.neighbors`` and ``BipartiteGraph.degrees_into``, so a new
graph representation has to change one file only.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import moddeg

PACKAGE = Path(moddeg.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "graph.py")
FORMAT_ATTRIBUTES = {"adj", "mask"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bitmask_access_outside_graph_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reads = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in FORMAT_ATTRIBUTES
    ]
    assert not reads, "bitmask format used outside graph.py:\n" + "\n".join(reads)
