"""Littlewood-Richardson coefficients and skew Schur expansions.

Two routes are implemented in the package (lattice-word tableaux and the
Jacobi-Trudi determinant); the polynomial expansion in oracles.py is a
third, independent route used to pin expected values.
"""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from theta_factor import (
    ContainmentError,
    Partition,
    SchurExpansion,
    complement_in_box,
    enumerate_in_box,
    lr_coefficient,
    partitions_of,
    rectangular_lr_is_delta,
    skew_schur_expand,
)

from theta_factor.symmetric_functions import _strip_extensions

from oracles import horizontal_strip_shapes, lr_via_polynomials


@st.composite
def skew_in_box(draw, height, width):
    """A pair (lam, mu) with lam in the height x width box and mu inside lam."""
    rows = sorted(draw(st.lists(st.integers(0, width), max_size=height)), reverse=True)
    # any bound-respecting choice, sorted, stays inside lam row by row
    inner = [draw(st.integers(0, row)) for row in rows]
    return Partition(rows), Partition(sorted(inner, reverse=True))


def skew_in_4x4_box():
    return skew_in_box(4, 4)


def skew_tableau_count(outer, inner=()):
    """f^{outer/inner}: standard fillings, by removing one outer corner at a time."""
    outer = tuple(outer)
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    memo = {inner: 1}

    def count(shape):
        if shape not in memo:
            total = 0
            for i, row in enumerate(shape):
                below = shape[i + 1] if i + 1 < len(shape) else 0
                if row > inner[i] and row > below:
                    total += count(shape[:i] + (row - 1,) + shape[i + 1 :])
            memo[shape] = total
        return memo[shape]

    return count(outer)


def horizontal_strips(cur, size):
    """Every shape cur + (horizontal strip of the given size), rows unbounded."""
    if not cur:
        if size == 0:
            yield ()
        return
    head, rest = cur[0], cur[1:]
    for grow in range(size + 1):
        for tail in horizontal_strips(rest, size - grow):
            # a strip has at most one cell per column: row i+1 stays within old row i
            if not tail or tail[0] <= head:
                yield (head + grow,) + tail


def unpruned_h_product(alpha):
    """K(nu, alpha) for every nu, from strip chains with no outer bound."""
    levels = {(0,) * len(alpha): 1}
    for part in alpha:
        grown = {}
        for cur, ways in levels.items():
            for shape in horizontal_strips(cur, part):
                grown[shape] = grown.get(shape, 0) + ways
        levels = grown
    return {Partition(shape): ways for shape, ways in levels.items()}


def unpruned_jacobi_trudi(lam, mu):
    """s_{lam/mu} from the full Jacobi-Trudi expansion, no shape ever dropped.

    Also returns every shape that some h-product reaches outside lam.
    """
    n = max(len(lam), 1)
    lamp = tuple(lam) + (0,) * (n - len(lam))
    mup = tuple(mu) + (0,) * (n - len(mu))
    totals = {}
    outside = set()
    for w in permutations(range(n)):
        parts = [lamp[i] - mup[w[i]] - i + w[i] for i in range(n)]
        if min(parts) < 0:
            continue
        inversions = sum(w[i] > w[j] for i in range(n) for j in range(i + 1, n))
        sign = -1 if inversions % 2 else 1
        alpha = sorted((p for p in parts if p), reverse=True)
        for nu, ways in unpruned_h_product(alpha).items():
            totals[nu] = totals.get(nu, 0) + sign * ways
            if not Partition(lam).contains(nu):
                outside.add(nu)
    return {nu: c for nu, c in totals.items() if c}, outside


def small_partition(max_rows=3, max_cols=3):
    return st.builds(
        lambda rows: Partition(sorted(rows, reverse=True)),
        st.lists(st.integers(min_value=0, max_value=max_cols), max_size=max_rows),
    )


class TestLRCoefficient:
    def test_pieri_cases(self):
        assert lr_coefficient(Partition((1,)), Partition((1,)), Partition((2,))) == 1
        assert lr_coefficient(Partition((1,)), Partition((1,)), Partition((1, 1))) == 1

    def test_degree_mismatch_is_zero(self):
        assert lr_coefficient(Partition((1,)), Partition((1,)), Partition((3,))) == 0

    def test_containment_failure_is_zero(self):
        assert lr_coefficient(Partition((2, 2)), Partition((1,)), Partition((3, 1, 1))) == 0

    def test_frozen_values(self):
        # frozen from the polynomial-multiplication oracle
        cases = [
            (((2, 1), (2, 1), (3, 2, 1)), 2),
            (((3, 2, 1), (3, 2, 1), (4, 4, 2, 2)), 2),
            (((2, 1), (1,), (2, 2)), 1),
            (((2,), (2,), (3, 1)), 1),
            (((2, 1), (2, 1), (3, 3)), 1),
            (((3, 1), (2, 1), (4, 2, 1)), 2),
            (((2, 2), (2, 1), (3, 3, 1)), 1),
        ]
        for (mu, nu, lam), expected in cases:
            assert lr_coefficient(Partition(mu), Partition(nu), Partition(lam)) == expected

    def test_matches_polynomial_oracle(self):
        mus = list(enumerate_in_box(2, 2))
        lams = list(enumerate_in_box(3, 3))
        for mu in mus:
            for lam in lams:
                nu_size = lam.size - mu.size
                if nu_size < 0:
                    continue
                for nu in partitions_of(nu_size, max_parts=3):
                    got = lr_coefficient(mu, nu, lam)
                    want = lr_via_polynomials(tuple(mu), tuple(nu), tuple(lam))
                    assert got == want, (mu, nu, lam)

    @given(small_partition(), small_partition(), small_partition(3, 4))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, mu, nu, lam):
        assert lr_coefficient(mu, nu, lam) == lr_coefficient(nu, mu, lam)


class TestSkewSchurExpand:
    def test_single_cell(self):
        assert skew_schur_expand(Partition((2,)), Partition((1,))) == {Partition((1,)): 1}

    def test_straight_shape(self):
        assert skew_schur_expand(Partition((1, 1)), Partition(())) == {Partition((1, 1)): 1}

    def test_derived_cases(self):
        assert skew_schur_expand(Partition((2, 2)), Partition((1,))) == {Partition((2, 1)): 1}
        # frozen: classic multiplicity-two expansion
        assert skew_schur_expand(Partition((3, 2, 1)), Partition((2, 1))) == {
            Partition((1, 1, 1)): 1,
            Partition((2, 1)): 2,
            Partition((3,)): 1,
        }

    def test_empty_skew_shape(self):
        assert skew_schur_expand(Partition((2, 1)), Partition((2, 1))) == {Partition(()): 1}

    def test_rejects_non_contained_inner(self):
        with pytest.raises(ContainmentError):
            skew_schur_expand(Partition((2,)), Partition((1, 1)))

    def test_agrees_with_direct_lr_in_3x3_box(self):
        for lam in enumerate_in_box(3, 3):
            for mu in enumerate_in_box(3, 3):
                if not lam.contains(mu):
                    continue
                expansion = skew_schur_expand(lam, mu)
                degree = lam.size - mu.size
                for nu in partitions_of(degree):
                    assert expansion.coefficient(nu) == lr_coefficient(mu, nu, lam), (
                        lam,
                        mu,
                        nu,
                    )


class TestPieriChainRoute:
    @given(skew_in_4x4_box())
    @settings(max_examples=40, deadline=None)
    def test_matches_polynomial_oracle(self, shape):
        lam, mu = shape
        expansion = skew_schur_expand(lam, mu)
        for nu in partitions_of(lam.size - mu.size):
            want = lr_via_polynomials(tuple(mu), tuple(nu), tuple(lam))
            assert expansion.coefficient(nu) == want, (lam, mu, nu)

    def test_seven_row_staircase(self):
        lam, mu = Partition((7, 6, 5, 4, 3, 2, 1)), Partition((3, 2, 1))
        expansion = skew_schur_expand(lam, mu)
        for nu, coeff in expansion.items():
            assert coeff == lr_coefficient(mu, nu, lam), nu
        total = sum(coeff * skew_tableau_count(nu) for nu, coeff in expansion.items())
        assert total == skew_tableau_count(lam, mu)

    @pytest.mark.parametrize(
        "lam,mu",
        [((1, 1), ()), ((2, 2), ()), ((3, 2, 1), (1,)), ((2, 2, 2), (1, 1))],
    )
    def test_shapes_outside_lam_cancel(self, lam, mu):
        full, outside = unpruned_jacobi_trudi(lam, mu)
        # some h-product reaches past lam, and all of it cancels
        assert outside
        assert not outside & set(full)
        assert skew_schur_expand(Partition(lam), Partition(mu)) == full


class TestStripExtensions:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_in_order(self, data):
        length = data.draw(st.integers(1, 6))
        rows = data.draw(st.lists(st.integers(0, 5), min_size=length, max_size=length))
        outer = sorted(rows, reverse=True)
        # any bound-respecting choice, sorted, stays inside outer row by row
        cur = sorted((data.draw(st.integers(0, row)) for row in outer), reverse=True)
        size = data.draw(st.integers(0, sum(outer) - sum(cur) + 2))
        got = _strip_extensions(tuple(cur), tuple(outer), size)
        assert got == horizontal_strip_shapes(cur, outer, size)

    def test_edge_sizes(self):
        cur, outer = (2, 1, 0), (3, 3, 1)
        assert _strip_extensions(cur, outer, 0) == [cur]
        # free cells: 1 in row 0, 1 in row 1 (below the old row 0), 1 in row 2
        assert _strip_extensions(cur, outer, 3) == [(3, 2, 1)]
        assert _strip_extensions(cur, outer, 4) == []


class TestTallShapes:
    """Nine-row shapes: the determinant has 9! = 362,880 permutation terms,
    and the column-wise expansion meets at most 2^9 row sets."""

    @pytest.mark.parametrize(
        "lam,mu",
        [((1,) * 9, ()), ((2,) * 9, (1,)), ((9, 8, 7, 6, 5, 4, 3, 2, 1), (3, 2, 1))],
    )
    def test_matches_direct_lr(self, lam, mu):
        lam, mu = Partition(lam), Partition(mu)
        expansion = skew_schur_expand(lam, mu)
        # s_nu occurs in s_{lam/mu} only for nu inside lam
        inside = [nu for nu in partitions_of(lam.size - mu.size) if lam.contains(nu)]
        assert set(expansion) <= set(inside)
        for nu in inside:
            assert expansion.coefficient(nu) == lr_coefficient(mu, nu, lam), nu

    @given(skew_in_box(8, 3))
    @settings(max_examples=100, deadline=None)
    def test_matches_direct_lr_in_8x3_box(self, shape):
        lam, mu = shape
        expansion = skew_schur_expand(lam, mu)
        for nu in partitions_of(lam.size - mu.size):
            assert expansion.coefficient(nu) == lr_coefficient(mu, nu, lam), (lam, mu, nu)


class TestSchurExpansion:
    def test_rejects_zero_or_negative_multiplicity(self):
        with pytest.raises(ValueError):
            SchurExpansion({Partition((1,)): 0})
        with pytest.raises(ValueError):
            SchurExpansion({Partition((1,)): -2})

    def test_coefficient_default(self):
        exp = SchurExpansion({Partition((2,)): 3})
        assert exp.coefficient(Partition((1, 1))) == 0
        assert exp.coefficient(Partition((2,))) == 3

    def test_json_serialization(self):
        exp = SchurExpansion({Partition((2, 1)): 2, Partition((3,)): 1})
        assert exp.to_json_dict() == {"[2,1]": 2, "[3]": 1}
        empty_key = SchurExpansion({Partition(()): 4})
        assert empty_key.to_json_dict() == {"[]": 4}

    def test_equality_with_plain_dict(self):
        exp = SchurExpansion({Partition((1,)): 1})
        assert exp == {Partition((1,)): 1}
        assert exp != {Partition((1,)): 2}

    def test_trailing_zero_keys(self):
        exp = SchurExpansion({(2, 1, 0): 1, (3, 0, 0): 2})
        assert exp.terms == {Partition((2, 1)): 1, Partition((3,)): 2}
        assert exp == {(2, 1): 1, (3,): 2}

    def test_plain_tuple_keys_and_list_lookups(self):
        # dict keys cannot be lists, so lists enter through the lookups
        exp = SchurExpansion({(3,): 2, (1, 1, 1): 1, (2, 1): 5})
        assert list(exp) == sorted([Partition((3,)), Partition((1, 1, 1)), Partition((2, 1))])
        assert exp.coefficient([2, 1]) == 5
        assert exp.coefficient([2, 1, 0]) == 5
        assert exp.coefficient([1, 1, 1, 0]) == 1

    def test_colliding_keys_rejected(self):
        with pytest.raises(ValueError, match=r"\(2, 1\)"):
            SchurExpansion({(2, 1): 1, (2, 1, 0): 2})
        with pytest.raises(ValueError, match=r"\(\)"):
            SchurExpansion({(): 1, (0, 0): 1})


class TestRectangularDelta:
    def test_known_values(self):
        assert rectangular_lr_is_delta(Partition((1,)), 2, 1) == (Partition((1,)), 1)
        assert rectangular_lr_is_delta(Partition(()), 2, 1) == (Partition((1, 1)), 1)
        assert rectangular_lr_is_delta(Partition((2, 1)), 2, 2) == (Partition((1,)), 1)

    def test_exhaustive_small_boxes(self):
        for r in range(1, 4):
            for m in range(0, 4):
                for mu in enumerate_in_box(r, m):
                    comp, mult = rectangular_lr_is_delta(mu, r, m)
                    assert comp == complement_in_box(mu, r, m)
                    assert mult == 1

    def test_box_violation(self):
        with pytest.raises(ValueError):
            rectangular_lr_is_delta(Partition((3,)), 2, 2)
