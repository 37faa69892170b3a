"""Codimension and dimension formulas with their inequality guarantees."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from theta_factor import (
    FlagType,
    StratumDatum,
    complete_intersection_height,
    double_det_dim,
    gps_codim_bounds,
    stability_gap,
    quot_codim_bounds,
    schubert_codim,
    telescoping_check,
)
from theta_factor.partitions import _shown

from oracles import flag_codim_oracle


def all_flags(r):
    if r == 0:
        yield ()
        return
    for head in range(1, r + 1):
        for rest in all_flags(r - head):
            yield (head,) + rest


def all_strata(max_rank):
    for r in range(1, max_rank + 1):
        for n in all_flags(r):
            for m in product(*(range(piece + 1) for piece in n)):
                r1 = sum(m)
                if r1 >= 1:
                    yield r1, n, m


class TestStratumDatum:
    def test_validation(self):
        with pytest.raises(ValueError):
            StratumDatum(0, (1, 1), (0, 0))
        with pytest.raises(ValueError):
            StratumDatum(1, (1, 1), (2, -1))
        with pytest.raises(ValueError):
            StratumDatum(1, (1, 1), (0, 2))  # m exceeds n
        with pytest.raises(ValueError):
            StratumDatum(2, (1, 1), (0, 1))  # sum(m) != r1
        with pytest.raises(ValueError):
            StratumDatum(1, (1, 1), (1,))  # length mismatch


class TestSchubertCodim:
    def test_vacuous_condition(self):
        assert schubert_codim(StratumDatum(2, (2, 2), (2, 0))) == 0
        assert schubert_codim(StratumDatum(1, (2, 2), (1, 0))) == 0

    def test_point_on_the_line(self):
        assert schubert_codim(StratumDatum(1, (1, 1), (0, 1))) == 1

    def test_point_of_the_grassmannian(self):
        assert schubert_codim(StratumDatum(2, (2, 2), (0, 2))) == 4

    def test_frozen_oracle_values(self):
        # frozen from the row-echelon pivot oracle in oracles.py
        cases = [
            ((2, (1, 2, 1), (0, 1, 1)), 3),
            ((1, (2, 2), (0, 1)), 2),
            ((2, (2, 2), (1, 1)), 1),
            ((3, (1, 2, 1), (1, 1, 1)), 1),
            ((2, (1, 1, 1, 1), (1, 0, 0, 1)), 2),
            ((1, (1, 3), (0, 1)), 1),
            ((2, (1, 3), (1, 1)), 0),
            ((3, (2, 1, 2), (1, 1, 1)), 2),
            ((2, (3, 1), (1, 1)), 2),
        ]
        for (r1, n, m), expected in cases:
            assert schubert_codim(StratumDatum(r1, n, m)) == expected

    def test_matches_echelon_oracle_rank_three(self):
        for r1, n, m in all_strata(3):
            got = schubert_codim(StratumDatum(r1, n, m))
            assert got == flag_codim_oracle(r1, n, m), (r1, n, m)

    def test_zero_iff_greedy(self):
        for r1, n, m in all_strata(3):
            remaining = r1
            greedy = []
            for piece in n:
                take = min(piece, remaining)
                greedy.append(take)
                remaining -= take
            is_greedy = tuple(greedy) == tuple(m)
            codim = schubert_codim(StratumDatum(r1, n, m))
            assert (codim == 0) == is_greedy, (r1, n, m)


class TestStabilityGap:
    def test_equal_sequences(self):
        assert stability_gap((2, 1), (2, 1), (Fraction(1, 2), 1)) == 0

    def test_zero_m(self):
        assert stability_gap((2, 1), (0, 0), (Fraction(1, 2), 1)) == 0

    def test_worked_value(self):
        assert stability_gap((2, 1), (1, 1), (Fraction(1, 2), 1)) == Fraction(1, 2)

    def test_closed_form_single_step(self):
        # l = 1: gap = m2*(n1 - m1) + (m1*n2 - m2*n1)*(a2 - a1)
        n, m = (2, 1), (1, 1)
        a = (Fraction(1, 4), Fraction(3, 4))
        expected = m[1] * (n[0] - m[0]) + (m[0] * n[1] - m[1] * n[0]) * (a[1] - a[0])
        assert stability_gap(n, m, a) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            stability_gap((1,), (2,), (1,))  # m > n
        with pytest.raises(ValueError):
            stability_gap((1, 1), (0, 0), (1, Fraction(1, 2)))  # not increasing
        with pytest.raises(ValueError):
            stability_gap((1,), (0,), (Fraction(3, 2),))  # weight above 1
        with pytest.raises(ValueError):
            stability_gap((1,), (0,), (0,))  # weight not positive
        with pytest.raises(ValueError):
            stability_gap((0,), (0,), (1,))  # n must be positive
        with pytest.raises(ValueError, match="^n and a must have equal length: 2 != 1$"):
            stability_gap((1, 1), (0, 0), (1,))

    @pytest.mark.parametrize("a", [(0.1, 1.0), (Fraction(1, 2), 1.0), (Fraction(1, 2), True)])
    def test_rejects_float_and_bool_weights(self, a):
        # Fraction(0.1) would be the binary float's value, not one tenth
        with pytest.raises(ValueError, match="^weights must be exact rationals, not floats or bools: "):
            stability_gap((1, 2), (0, 1), a)

    def test_sign_dichotomy_spot_checks(self):
        weights = (Fraction(1, 3), Fraction(2, 3))
        assert stability_gap((3, 3), (1, 2), weights) > 0
        assert stability_gap((3, 3), (3, 3), weights) == 0


class TestBounds:
    def test_quot_bounds(self):
        assert quot_codim_bounds(2, 2, True) == (2, 2)
        assert quot_codim_bounds(2, 2, False) == (1, 2)
        assert quot_codim_bounds(1, 3, True) == (1, 1)
        assert quot_codim_bounds(1, 3, False) == (0, 1)

    def test_gps_bounds(self):
        assert gps_codim_bounds(3, 2, True) == (5, 5)
        assert gps_codim_bounds(3, 2, False) == (5, 4)
        assert gps_codim_bounds(1, 5, True) == (1, 1)
        assert gps_codim_bounds(1, 5, False) == (1, 0)

    def test_parabolic_never_lowers_a_bound(self):
        for r in range(1, 5):
            for g in range(0, 5):
                assert quot_codim_bounds(r, g, True) >= quot_codim_bounds(r, g, False)
                assert gps_codim_bounds(r, g, True) >= gps_codim_bounds(r, g, False)


class TestDoubleDet:
    def test_zero_ranks(self):
        assert double_det_dim(0, 0, 3, 2, 4) == 0

    def test_single_bilinear_equation(self):
        assert double_det_dim(1, 1, 1, 1, 2) == 3

    def test_rectangle_formula(self):
        for r in range(0, 7):
            for ri in range(0, r + 1):
                value = double_det_dim(ri, r - ri, ri, r - ri, r)
                assert value == r * r + ri * ri - r * ri

    def test_validation(self):
        with pytest.raises(ValueError):
            double_det_dim(2, 0, 1, 1, 3)  # a > p
        with pytest.raises(ValueError):
            double_det_dim(0, 2, 1, 1, 1)  # b > r
        with pytest.raises(ValueError):
            double_det_dim(2, 2, 2, 2, 3)  # a + b > r
        with pytest.raises(ValueError):
            double_det_dim(-1, 0, 1, 1, 2)

    @given(st.data())
    def test_swap_symmetry(self, data):
        r = data.draw(st.integers(min_value=0, max_value=6))
        p = data.draw(st.integers(min_value=0, max_value=6))
        q = data.draw(st.integers(min_value=0, max_value=6))
        a = data.draw(st.integers(min_value=0, max_value=min(p, r)))
        b = data.draw(st.integers(min_value=0, max_value=min(q, r - a)))
        assert double_det_dim(a, b, p, q, r) == double_det_dim(b, a, q, p, r)


class TestHeight:
    def test_values(self):
        assert complete_intersection_height(2, 1) == 1
        assert complete_intersection_height(4, 2) == 4
        assert complete_intersection_height(5, 0) == 0

    def test_ambient_reconciliation(self):
        for r in range(0, 7):
            for ri in range(0, r + 1):
                ambient = r * ri + r * (r - ri)
                assert (
                    ambient - double_det_dim(ri, r - ri, ri, r - ri, r)
                    == complete_intersection_height(r, ri)
                )

    def test_validation(self):
        with pytest.raises(ValueError):
            complete_intersection_height(2, 3)

    @pytest.mark.parametrize("r,r_i", [(2, True), (True, 1), (True, False), (2, 1.0), (2.0, 1)])
    def test_rejects_bool_and_float(self, r, r_i):
        # the message names the caller's arguments, not double_det_dim's
        with pytest.raises(ValueError, match=rf"^need 0 <= r_i <= r, got r_i={r_i!r}, r={r!r}$"):
            complete_intersection_height(r, r_i)

    def test_long_argument_is_shown_short(self):
        with pytest.raises(ValueError) as info:
            complete_intersection_height("x" * 5000, 1)
        assert str(info.value) == f"need 0 <= r_i <= r, got r_i=1, r={_shown('x' * 5000)}"
        assert len(str(info.value)) < 100


class TestTelescoping:
    def test_trivial_flag(self):
        assert telescoping_check(FlagType((5,)))

    def test_full_flag_rank_two(self):
        assert telescoping_check(FlagType((1, 1)))

    def test_three_block_flag(self):
        assert telescoping_check(FlagType((2, 1, 1)))

    def test_all_flags_up_to_rank_eight(self):
        for r in range(1, 9):
            for flag in all_flags(r):
                assert telescoping_check(FlagType(flag)), flag
