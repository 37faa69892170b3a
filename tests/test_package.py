"""The package's public names are the modules' __all__ lists, joined."""

import ast
import inspect

import theta_factor
from theta_factor import branching, codimension, factorization, parabolic, partitions, symmetric_functions

MODULES = (branching, codimension, factorization, parabolic, partitions, symmetric_functions)

# what the package exported when __init__ listed its names by hand, and
# boundary_levels, which factorization.__all__ had and that list missed
EXPORTED = [
    "BoundaryData", "BoxViolationError", "BranchingTable", "ContainmentError",
    "DecompositionTree", "FlagType", "LeafOracleError", "MarkedPoint", "ModuliSpec",
    "Partition", "SchurExpansion", "StratumDatum", "WeightVector", "__version__",
    "aggregate_dimension", "box_count", "build_tree", "check_star", "complement_in_box",
    "complete_intersection_height", "decompose_rectangular", "degenerate", "dim_schur",
    "double_det_dim", "enumerate_in_box", "gps_codim_bounds", "gps_slope", "lr_coefficient",
    "lr_expand", "mu_indices", "mu_to_boundary", "mu_to_highest_weight", "pardeg",
    "partial_sums", "partitions_of", "quot_codim_bounds", "rectangular_lr_is_delta",
    "schubert_codim", "skew_schur_expand", "stability_gap", "telescoping_check",
    "verify_boundary_balance", "verify_branching_identity",
]


def test_all_is_the_module_lists_joined():
    names = theta_factor.__all__
    assert names == [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(EXPORTED + ["boundary_levels"])


def test_each_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(theta_factor, name) is getattr(module, name), (module.__name__, name)
    namespace = {}
    exec("from theta_factor import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(theta_factor.__all__)


def test_init_defines_only_the_version_and_the_list():
    tree = ast.parse(inspect.getsource(theta_factor))
    defined = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            assert node.level == 1 and [alias.name for alias in node.names] == ["*"]
        elif isinstance(node, ast.Assign):
            defined += [target.id for target in node.targets]
        else:
            # only the docstring
            assert isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    assert defined == ["__version__", "__all__"]
