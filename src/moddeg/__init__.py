"""Large induced subgraphs of bipartite graphs with all degrees 1 mod k.

Every bipartite graph without isolated vertices contains an induced subgraph
on a constant fraction (depending only on k) of its vertices in which every
degree is congruent to 1 modulo k.  This package makes that constructive:

* :func:`find_mod_one_subgraph` returns a verified subgraph via nested
  minimal dominating sets, dyadic random sampling (or its conditional-
  expectation derandomization), and private-neighbour degree repair.
* :mod:`moddeg.oracle` computes exact optima by branch and bound, with an
  independent brute-force cross-check.
* :mod:`moddeg.mixing` quantifies how fast dyadic Bernoulli sums become
  equidistributed mod k.
* :mod:`moddeg.generators` and :mod:`moddeg.harness` provide instances and
  reproducible batch reports; ``moddeg`` on the command line fronts it all.
"""

from .construction import (
    ChainLevel,
    ConstructionError,
    ConstructionTrace,
    DominatingChain,
    DominationError,
    Route,
    build_chain,
    check_chain,
    find_mod_one_subgraph,
    fix_degrees,
    high_degree_targets,
    largest_dyadic_bucket,
    matching_candidate,
    minimal_dominating_set,
    sample_subset,
    unit_residue_targets,
)
from .graph import (
    BipartiteGraph,
    DuplicateEdgeWarning,
    GraphError,
    IsolatedVertexError,
    NotBipartiteError,
    ResidueCheck,
    ResidueSpec,
    VertexSet,
    parse_graph,
    serialize_graph,
    verify_residue,
)
from .harness import BatchRecord, ExperimentReport, run_batch
from .mixing import (
    ResidueDistribution,
    UniformityCheck,
    derandomize_subset,
    expected_unit_score,
    format_uniformity_table,
    fourier_gap_bound,
    residue_distribution,
    residue_distribution_exact,
    residue_table,
    uniformity_check,
    uniformity_table,
)
from .oracle import (
    ENUMERATION_LIMIT,
    OracleResult,
    RatioReport,
    RatioRow,
    enumerate_max_order,
    exact_max_order,
    min_ratio_report,
)

__version__ = "0.1.0"

__all__ = [
    "BatchRecord",
    "BipartiteGraph",
    "ChainLevel",
    "ConstructionError",
    "ConstructionTrace",
    "DominatingChain",
    "DominationError",
    "DuplicateEdgeWarning",
    "ENUMERATION_LIMIT",
    "ExperimentReport",
    "GraphError",
    "IsolatedVertexError",
    "NotBipartiteError",
    "OracleResult",
    "RatioReport",
    "RatioRow",
    "ResidueCheck",
    "ResidueDistribution",
    "ResidueSpec",
    "Route",
    "UniformityCheck",
    "VertexSet",
    "build_chain",
    "check_chain",
    "derandomize_subset",
    "enumerate_max_order",
    "exact_max_order",
    "expected_unit_score",
    "find_mod_one_subgraph",
    "format_uniformity_table",
    "fix_degrees",
    "fourier_gap_bound",
    "high_degree_targets",
    "largest_dyadic_bucket",
    "matching_candidate",
    "min_ratio_report",
    "minimal_dominating_set",
    "parse_graph",
    "residue_distribution",
    "residue_distribution_exact",
    "residue_table",
    "run_batch",
    "sample_subset",
    "serialize_graph",
    "unit_residue_targets",
    "uniformity_check",
    "uniformity_table",
    "verify_residue",
]
