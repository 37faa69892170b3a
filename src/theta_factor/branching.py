"""Rectangular branching under GL(2r) restricted to GL(r) x GL(r).

The representation with highest weight m * omega_r decomposes with
multiplicity one into pairs (S_mu, S_mu dual) over the r x m box; the
table below records the pieces and the dimension identity that pins it.
"""

from collections import namedtuple

from .partitions import Partition, _check_int, _Record, box_count, dim_schur, enumerate_in_box

__all__ = [
    "BranchingTable",
    "decompose_rectangular",
    "verify_branching_identity",
]


class BranchingTable(_Record, namedtuple("BranchingTable", "r m rows")):
    """Rows (mu, dim_left, dim_right), one per partition in the r x m box.

    dim_left is dim S_mu(C^r); dim_right is the dimension of the dual
    factor, which equals dim_left.
    """

    __slots__ = ()

    def product_sum(self) -> int:
        """Sum of dim_left * dim_right over all rows."""
        return sum(left * right for _, left, right in self.rows)

    def identity(self):
        """(lhs, rhs, lhs == rhs): dim S_{(m^r)}(C^{2r}) against product_sum()."""
        lhs = dim_schur(Partition((self.m,) * self.r), 2 * self.r)
        rhs = self.product_sum()
        return lhs, rhs, lhs == rhs

    def to_json_dict(self) -> dict:
        return {
            "rank": self.r,
            "power": self.m,
            "rows": [
                {"mu": list(mu.padded(self.r)), "dim_left": left, "dim_right": right}
                for mu, left, right in self.rows
            ],
        }


def decompose_rectangular(r: int, m: int) -> BranchingTable:
    """Branching table of the rectangle (m^r): one row per mu in the box.

    The dual factor has the same dimension as the plain one, so both
    columns come from one dim_schur evaluation at rank r (Weyl's product
    or hook content, whichever has fewer factors).
    """
    _check_int("rank", r, 1)
    _check_int("power", m, 0)
    rows = []
    for mu in enumerate_in_box(r, m):
        d = dim_schur(mu, r)
        rows.append((mu, d, d))
    table = BranchingTable(r, m, tuple(rows))
    if len(table.rows) != box_count(r, m):
        raise ArithmeticError(f"{len(table.rows)} branching rows, expected {box_count(r, m)}")
    return table


def verify_branching_identity(r: int, m: int):
    """Compare dim of the rectangle at 2r variables with the table's sum.

    Returns (lhs, rhs, equal) where lhs = dim S_{(m^r)}(C^{2r}) and
    rhs = sum over the box of dim_left * dim_right.
    """
    return decompose_rectangular(r, m).identity()
