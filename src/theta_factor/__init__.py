"""Exact combinatorics for level-k factorization of generalized theta functions.

The package computes with partitions in a box, Schur module dimensions,
Littlewood-Richardson coefficients, rectangular branching tables, parabolic
moduli specifications, boundary degeneration trees, and the codimension
estimates that control how spaces of sections behave under degeneration.
All arithmetic is exact: integers, and Fraction in codimension.stability_gap.

Each module's __all__ is its public API, and the package exports them all.
"""

from .branching import *
from .codimension import *
from .factorization import *
from .parabolic import *
from .partitions import *
from .symmetric_functions import *

__version__ = "0.1.0"

__all__ = (
    branching.__all__
    + codimension.__all__
    + factorization.__all__
    + parabolic.__all__
    + partitions.__all__
    + symmetric_functions.__all__
    + ["__version__"]
)
