"""Rectangular branching under GL(2r) restricted to GL(r) x GL(r).

The representation with highest weight m * omega_r decomposes with
multiplicity one into pairs (S_mu, S_mu dual) over the r x m box; the
table below records the pieces and the dimension identity that pins it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import Partition, _shown, box_count, dim_schur, enumerate_in_box

__all__ = [
    "BranchingTable",
    "decompose_rectangular",
    "mu_to_highest_weight",
    "verify_branching_identity",
]


@dataclass(frozen=True)
class BranchingTable:
    """Rows (mu, dim_left, dim_right), one per partition in the r x m box.

    dim_left is dim S_mu(C^r); dim_right is the dimension of the dual
    factor, which equals dim_left.
    """

    r: int
    m: int
    rows: tuple

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
    columns come from the same hook content evaluation at rank r.
    """
    if r < 1:
        raise ValueError(f"rank must be positive, got {r}")
    if m < 0:
        raise ValueError(f"power must be nonnegative, got {m}")
    rows = []
    for mu in enumerate_in_box(r, m):
        d = dim_schur(mu, r)
        rows.append((mu, d, d))
    table = BranchingTable(r, m, tuple(rows))
    assert len(table.rows) == box_count(r, m)
    return table


def verify_branching_identity(r: int, m: int):
    """Compare dim of the rectangle at 2r variables with the table's sum.

    Returns (lhs, rhs, equal) where lhs = dim S_{(m^r)}(C^{2r}) and
    rhs = sum over the box of dim_left * dim_right.
    """
    return decompose_rectangular(r, m).identity()


def mu_to_highest_weight(mu, r: int):
    """Coefficients of mu on the fundamental weights of GL(r).

    Returns pairs (i, mu_i - mu_{i+1}) for i < r and (r, mu_r), dropping
    zero coefficients.
    """
    mu = Partition(mu)
    if len(mu) > r:
        raise ValueError(f"{_shown(tuple(mu))} has more than {r} parts")
    padded = mu.padded(r)
    out = []
    for i in range(r - 1):
        c = padded[i] - padded[i + 1]
        if c:
            out.append((i + 1, c))
    if padded[r - 1]:
        out.append((r, padded[r - 1]))
    return out
