"""The storage formats of graphs and vertex sets stay inside ``graph.py``.

Every other module, test and demo works through ``VertexSet`` operations,
``BipartiteGraph.neighbor_ids`` (one row as a list),
``BipartiteGraph.neighbor_rows`` (the rows of an id array, as CSR offsets
into one flat int64 array), ``BipartiteGraph.last_neighbors`` (a pool's
ids with counts and largest neighbours, as aligned int64 arrays, from the
rows between the pool's first member and its last),
``BipartiteGraph.neighbors_within`` (a pool's ids with its neighbours in a
subset, as CSR offsets into one flat int64 array, from the members' rows
alone), ``BipartiteGraph.edges_between`` (the edges between two sets, from
the rows of whichever set holds fewer entries, as an ``Incidence`` whose
``degrees_into`` counts between their subsets) and
``BipartiteGraph.degrees_into`` (a pool's ids with counts, read through
``edges_between``), so a new graph representation has to change one file
only.
``tests/test_graph.py`` tests that file and is exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import moddeg

PACKAGE = Path(moddeg.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
DEMOS = TESTS.parent / "demos"
SOURCES = sorted(
    [p for p in PACKAGE.glob("*.py") if p.name != "graph.py"]
    + [p for p in TESTS.glob("*.py") if p.name != "test_graph.py"]
    + list(DEMOS.glob("*.py"))
)
FORMAT_ATTRIBUTES = {"adj", "mask"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_bitmask_access_outside_graph_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reads = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in FORMAT_ATTRIBUTES
    ]
    assert not reads, "graph or set format used outside graph.py:\n" + "\n".join(reads)
