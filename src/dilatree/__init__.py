"""Exact-arithmetic toolkit for the dilation of plane point sets.

Dilation (stretch factor) of a connected graph on points in the plane is
the worst ratio of graph distance to straight-line distance over all
point pairs.  This package computes it with certificates instead of
floating-point guesses: every comparison against a rational threshold is
decided by interval arithmetic at escalating precision, falling back to
exact symbolic sign evaluation of square-root sums when intervals alone
cannot separate.

The layers, bottom up: `exactgeom` (rational points, predicates, dyadic
square-root enclosures), `radical` (signed sums of square roots),
`dilation` (trees, certified pair and tree dilation, forced-edge scans),
`solver` (certified minimum-dilation trees, paths, and tours, plus the
five-point crossing witness search), `gadget` (point sets whose optimal
tree dilation encodes an equal-sum partition question), and `fileio` /
`cli` (stable formats and the command-line driver).
"""

from .dilation import (
    DilationReport, PointSet, Tree, Verdict, compare_to_threshold,
    critical_edges, crossing_edge_pairs, graph_dilation_bounds, pair_dilation,
    tree_dilation, tree_has_crossing, tree_path_length,
)
from .errors import (
    DilatreeError, Infeasible, NoIntersection, NotApplicable, NotCrossing,
    PrecisionExhausted, PrecisionInsufficient, SizeTooLarge, SumTooLarge,
)
from .exactgeom import (
    Interval, Orientation, Point, Segment, orientation, pt,
    segments_properly_cross, sqrt_interval, squared_distance,
)
from .gadget import (
    Gadget, IntegerInstance, LemmaCheck, LemmaReport, PartitionInstance,
    PartitionSolution, build_gadget, decide_partition, integerize,
    partition_oracle, rounding_bits, standard_tree, symbolic_pair_ratio,
    symbolic_path_length, verify_gadget,
)
from .radical import SqrtSum
from .solver import (
    Mode, SolverOptions, SolverResult, exhaustive_mdst, mdst_exact,
    uncross_four, verify_crossing_witness, witness_search_five,
)

__version__ = "0.1.0"

__all__ = [
    "DilationReport", "PointSet", "Tree", "Verdict", "compare_to_threshold",
    "critical_edges", "crossing_edge_pairs", "graph_dilation_bounds",
    "pair_dilation", "tree_dilation", "tree_has_crossing", "tree_path_length",
    "DilatreeError", "Infeasible", "NoIntersection", "NotApplicable",
    "NotCrossing", "PrecisionExhausted", "PrecisionInsufficient",
    "SizeTooLarge", "SumTooLarge",
    "Interval", "Orientation", "Point", "Segment", "orientation", "pt",
    "segments_properly_cross", "sqrt_interval", "squared_distance",
    "Gadget", "IntegerInstance", "LemmaCheck", "LemmaReport",
    "PartitionInstance", "PartitionSolution", "build_gadget",
    "decide_partition", "integerize", "partition_oracle", "rounding_bits",
    "standard_tree", "symbolic_pair_ratio", "symbolic_path_length",
    "verify_gadget",
    "SqrtSum",
    "Mode", "SolverOptions", "SolverResult", "exhaustive_mdst", "mdst_exact",
    "uncross_four", "verify_crossing_witness", "witness_search_five",
    "__version__",
]
