"""Exact combinatorics for level-k factorization of generalized theta functions.

The package computes with partitions in a box, Schur module dimensions,
Littlewood-Richardson coefficients, rectangular branching tables, parabolic
moduli specifications, boundary degeneration trees, and the codimension
estimates that control how spaces of sections behave under degeneration.
All arithmetic is exact: integers and fractions.Fraction throughout.
"""

from .branching import (
    BranchingTable,
    decompose_rectangular,
    mu_to_highest_weight,
    verify_branching_identity,
)
from .codimension import (
    StratumDatum,
    complete_intersection_height,
    double_det_dim,
    gps_codim_bounds,
    stability_gap,
    quot_codim_bounds,
    schubert_codim,
    telescoping_check,
)
from .factorization import (
    BoundaryData,
    DecompositionTree,
    LeafOracleError,
    aggregate_dimension,
    build_tree,
    degenerate,
    mu_indices,
    mu_to_boundary,
    verify_boundary_balance,
)
from .parabolic import (
    FlagType,
    MarkedPoint,
    ModuliSpec,
    WeightVector,
    check_star,
    gps_slope,
    pardeg,
)
from .partitions import (
    BoxViolationError,
    Partition,
    box_count,
    complement_in_box,
    dim_schur,
    enumerate_in_box,
    partial_sums,
    partitions_of,
)
from .symmetric_functions import (
    ContainmentError,
    SchurExpansion,
    lr_coefficient,
    lr_expand,
    rectangular_lr_is_delta,
    skew_schur_expand,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryData",
    "BoxViolationError",
    "BranchingTable",
    "ContainmentError",
    "DecompositionTree",
    "FlagType",
    "LeafOracleError",
    "MarkedPoint",
    "ModuliSpec",
    "Partition",
    "SchurExpansion",
    "StratumDatum",
    "WeightVector",
    "aggregate_dimension",
    "box_count",
    "build_tree",
    "check_star",
    "complement_in_box",
    "complete_intersection_height",
    "decompose_rectangular",
    "degenerate",
    "dim_schur",
    "double_det_dim",
    "enumerate_in_box",
    "gps_codim_bounds",
    "gps_slope",
    "stability_gap",
    "lr_coefficient",
    "lr_expand",
    "mu_indices",
    "mu_to_boundary",
    "mu_to_highest_weight",
    "pardeg",
    "partial_sums",
    "partitions_of",
    "quot_codim_bounds",
    "rectangular_lr_is_delta",
    "schubert_codim",
    "skew_schur_expand",
    "telescoping_check",
    "verify_boundary_balance",
    "verify_branching_identity",
    "__version__",
]
