"""Rectangular branching tables and the dimension identity behind them."""

import math

import pytest

from theta_factor import branching
from theta_factor import (
    BranchingTable,
    Partition,
    complement_in_box,
    decompose_rectangular,
    verify_branching_identity,
)

from oracles import ssyt_count


class TestDecomposeRectangular:
    def test_rank_one(self):
        table = decompose_rectangular(1, 3)
        assert [(tuple(mu), left, right) for mu, left, right in table.rows] == [
            ((), 1, 1),
            ((1,), 1, 1),
            ((2,), 1, 1),
            ((3,), 1, 1),
        ]

    def test_two_by_one(self):
        table = decompose_rectangular(2, 1)
        assert [(left, right) for _, left, right in table.rows] == [(1, 1), (2, 2), (1, 1)]

    def test_two_by_two_dims(self):
        table = decompose_rectangular(2, 2)
        assert [left for _, left, _ in table.rows] == [1, 2, 1, 3, 2, 1]

    def test_row_count_is_binomial(self):
        for r in range(1, 4):
            for m in range(0, 5):
                assert len(decompose_rectangular(r, m).rows) == math.comb(r + m, r)

    def test_rows_match_tableau_oracle(self):
        table = decompose_rectangular(2, 3)
        for mu, left, right in table.rows:
            assert left == right == ssyt_count(tuple(mu), 2)

    def test_complement_preserves_row_product(self):
        for r, m in [(2, 2), (3, 2), (2, 3)]:
            table = decompose_rectangular(r, m)
            products = {tuple(mu): left * right for mu, left, right in table.rows}
            for mu in products:
                comp = complement_in_box(Partition(mu), r, m)
                assert products[tuple(comp)] == products[mu]

    def test_validation(self):
        with pytest.raises(ValueError):
            decompose_rectangular(0, 2)
        with pytest.raises(ValueError):
            decompose_rectangular(2, -1)

    def test_row_count_checked_without_assert(self, monkeypatch):
        # an ArithmeticError, which python -O keeps, when a box partition goes missing
        enumerate_in_box = branching.enumerate_in_box
        monkeypatch.setattr(branching, "enumerate_in_box", lambda r, m: list(enumerate_in_box(r, m))[1:])
        with pytest.raises(ArithmeticError, match="5 branching rows, expected 6"):
            decompose_rectangular(2, 2)

    def test_json_rows_are_padded(self):
        data = decompose_rectangular(2, 1).to_json_dict()
        assert data["rank"] == 2 and data["power"] == 1
        assert [row["mu"] for row in data["rows"]] == [[0, 0], [1, 0], [1, 1]]


class TestBranchingIdentity:
    def test_anchor_values(self):
        assert verify_branching_identity(2, 1) == (6, 6, True)
        assert verify_branching_identity(1, 5) == (6, 6, True)
        assert verify_branching_identity(2, 2) == (20, 20, True)

    def test_exhaustive_small(self):
        for r in (1, 2, 3):
            for m in range(0, 5):
                lhs, rhs, equal = verify_branching_identity(r, m)
                assert equal and lhs == rhs, (r, m)

    def test_lhs_against_tableau_oracle(self):
        lhs, _, _ = verify_branching_identity(2, 1)
        assert lhs == ssyt_count((1, 1), 4) == 6

    def test_product_sum(self):
        table = BranchingTable(1, 1, ((Partition(()), 1, 1), (Partition((1,)), 2, 3)))
        assert table.product_sum() == 7

