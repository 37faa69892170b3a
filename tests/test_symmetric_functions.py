"""Littlewood-Richardson coefficients and skew Schur expansions.

Two routes are implemented in the package (lattice-word tableaux and the
Jacobi-Trudi determinant); the polynomial expansion in oracles.py is a
third, independent route used to pin expected values.
"""

import ast
import inspect
from functools import lru_cache
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
    lr_expand,
    partitions_of,
    rectangular_lr_is_delta,
    skew_schur_expand,
)

from theta_factor import symmetric_functions
from theta_factor.partitions import _shown
from theta_factor.symmetric_functions import _jacobi_trudi, _lr_table, _strip_extensions

import oracles
from oracles import horizontal_strip_shapes, lr_via_polynomials


def clear_memos():
    """Empty every lru_cache the module holds, so a memo added later is cleared too."""
    for value in vars(symmetric_functions).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.fixture(autouse=True)
def cleared_memos():
    """Each test starts on empty memos, so a spy or a count sees the work itself."""
    clear_memos()


def fresh(route, lam, mu):
    """route(lam, mu) worked out anew, not read from either route's memo."""
    clear_memos()
    return route(lam, mu)


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


class TestLRExpand:
    """The tableau route's whole expansion, counted row by row."""

    @given(skew_in_box(7, 4))
    @settings(max_examples=80, deadline=None)
    def test_matches_jacobi_trudi(self, shape):
        # whole expansions: a term missing from either side shows
        lam, mu = shape
        assert lr_expand(lam, mu) == skew_schur_expand(lam, mu)

    def test_long_row(self):
        assert lr_coefficient((), (1200,), (1200,)) == 1
        assert lr_expand((1200,), ()) == {(1200,): 1}

    def test_long_skew_shape(self):
        # two disjoint rows of 600 cells: s_600 * s_600, by Pieri's rule
        lam, mu = (1200, 600), (600,)
        assert lr_expand(lam, mu) == {(1200 - k, k): 1 for k in range(601)}
        assert lr_coefficient(mu, (900, 300), lam) == 1
        assert lr_coefficient(mu, (900, 200, 100), lam) == 0

    def test_nine_row_staircase(self):
        # both routes agree on it in TestTallShapes
        assert len(lr_expand((9, 8, 7, 6, 5, 4, 3, 2, 1), (3, 2, 1))) == 434

    def test_edge_shapes(self):
        assert lr_expand((), ()) == {(): 1}
        assert lr_expand((2, 1), (2, 1)) == {(): 1}
        assert lr_expand((2, 2), (2,)) == {(2,): 1}
        with pytest.raises(ContainmentError):
            lr_expand((2,), (1, 1))

    def test_the_cached_table_is_the_expansion(self):
        # a SchurExpansion has no mutator, so the cached table is handed out as it is
        _lr_table.cache_clear()
        expansion = lr_expand((4, 3, 2, 1), (2, 1))
        assert type(expansion) is SchurExpansion
        assert lr_expand(Partition((4, 3, 2, 1)), Partition((2, 1))) is expansion
        assert all(type(nu) is Partition and nu == Partition(nu) for nu in expansion)
        terms = dict(expansion.items())
        terms.clear()
        assert expansion == skew_schur_expand((4, 3, 2, 1), (2, 1))
        assert lr_coefficient((2, 1), (3, 2, 1, 1), (4, 3, 2, 1)) == expansion.coefficient((3, 2, 1, 1)) == 2

    def test_table_keys_are_not_checked_again(self):
        # every content the rows make is a partition of len(lam) entries
        tree = ast.parse(inspect.getsource(inspect.unwrap(_lr_table)))
        calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
        assert not [func for func in calls if isinstance(func, ast.Name) and func.id == "Partition"]

    def test_same_answers_after_cache_clear_and_interleaved(self, monkeypatch):
        # a table cache of 8 keeps fewer than the 15 shapes, so tables are evicted and rebuilt
        small = lru_cache(maxsize=8)(inspect.unwrap(_lr_table))
        monkeypatch.setattr(symmetric_functions, "_lr_table", small)
        shapes = [
            (lam, mu)
            for lam in [(4, 3, 2, 1), (4, 4, 2, 2), (3, 3, 3), (5, 3, 1), (4, 2, 2, 1)]
            for mu in [(), (1,), (2, 1)]
        ]
        first = {shape: lr_expand(*shape) for shape in shapes}
        small.cache_clear()
        assert {shape: lr_expand(*shape) for shape in shapes} == first
        small.cache_clear()
        # nu by nu, so calls for different shapes take turns
        asked = sorted((nu, lam, mu) for lam, mu in shapes for nu in partitions_of(sum(lam) - sum(mu)))
        for nu, lam, mu in asked:
            assert lr_coefficient(mu, nu, lam) == first[lam, mu].coefficient(nu), (lam, mu, nu)
        assert small.cache_info().misses > len(shapes)


class TestRouteIndependence:
    """The two routes and the oracles must not lean on one another."""

    TABLEAU = ("lr_coefficient", "lr_expand", "_lr_table", "rectangular_lr_is_delta")
    DETERMINANT = ("skew_schur_expand", "_jacobi_trudi", "_strip_extensions")

    @staticmethod
    def names_in(function):
        tree = ast.parse(inspect.getsource(inspect.unwrap(function)))
        return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
            node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
        }

    def test_oracles_import_nothing_from_the_package(self):
        tree = ast.parse(inspect.getsource(oracles))
        modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0, "relative import in oracles.py"
                modules.append(node.module)
        assert modules
        assert not [m for m in modules if m.split(".")[0] == "theta_factor"]

    @pytest.mark.parametrize("name", TABLEAU)
    def test_tableau_route_names_no_determinant_code(self, name):
        assert not self.names_in(getattr(symmetric_functions, name)) & set(self.DETERMINANT)

    @pytest.mark.parametrize("name", DETERMINANT)
    def test_determinant_route_names_no_tableau_code(self, name):
        assert not self.names_in(getattr(symmetric_functions, name)) & set(self.TABLEAU)


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

    @pytest.mark.parametrize("route", [lr_expand, skew_schur_expand])
    def test_both_routes_name_the_shapes(self, route):
        with pytest.raises(ContainmentError, match=r"^\(1, 1\) is not contained in \(2,\)$"):
            route([2], (1, 1, 0))

    @pytest.mark.parametrize(
        "lam,mu,walked",
        [
            # det [[h2, h4], [0, h1]]: taking h4 for the last column leaves the
            # first column only its zero entry, so Hall's condition drops that
            # row set before its strip of 4 is walked
            ((3, 1), (1,), [((0, 0), 1), ((1, 0), 2)]),
            # rows {1, 2} hold -h2 h0 + h1 h1 = -s2 + (s2 + s11): (2, 0, 0)
            # cancels to 0, and the first column extends only (1, 1, 0)
            ((2, 1, 1), (1,), [((0, 0, 0), 2), ((0, 0, 0), 1), ((1, 0, 0), 1), ((1, 1, 0), 1)]),
        ],
    )
    def test_walks_no_strip_for_a_dead_row_set_or_a_cancelled_term(self, monkeypatch, lam, mu, walked):
        seen = []

        def spy(cur, outer, size):
            seen.append((cur, size))
            return _strip_extensions(cur, outer, size)

        monkeypatch.setattr(symmetric_functions, "_strip_extensions", spy)
        assert skew_schur_expand(lam, mu) == lr_expand(lam, mu)
        assert seen == walked

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


@st.composite
def skew_with_empty_rows(draw):
    """(lam, mu, lam', mu'): a 4x4-box skew shape, and it with empty rows
    added to both sides: rows (c) on top with c >= lam_0, and rows (d) at
    the bottom with d no longer than mu's last row padded to len(lam)."""
    lam, mu = draw(skew_in_4x4_box())
    outer, inner = tuple(lam), mu.padded(len(lam))
    for _ in range(draw(st.integers(0, 2))):
        c = draw(st.integers(outer[0] if outer else 0, 6))
        outer, inner = (c,) + outer, (c,) + inner
    for _ in range(draw(st.integers(0, 2))):
        d = draw(st.integers(0, inner[-1] if inner else 6))
        outer, inner = outer + (d,), inner + (d,)
    return lam, mu, Partition(outer), Partition(inner)


class TestEmptyRows:
    """Rows with lam_i = mu_i hold no cells and change no expansion."""

    @given(skew_with_empty_rows())
    @settings(max_examples=150, deadline=None)
    def test_added_empty_rows_change_nothing(self, shapes):
        lam, mu, outer, inner = shapes
        untouched = fresh(lr_expand, lam, mu)
        assert fresh(skew_schur_expand, lam, mu) == untouched
        assert fresh(skew_schur_expand, outer, inner) == untouched
        assert fresh(lr_expand, outer, inner) == untouched

    @pytest.mark.parametrize(
        "lam,mu,expected",
        [
            ((), (), {(): 1}),
            ((3, 3, 1), (3, 3, 1), {(): 1}),
            ((4,), (1,), {(3,): 1}),
            # one row with cells, between empty rows
            ((4, 3, 1), (4, 1, 1), {(2,): 1}),
            ((3, 3, 3), (3, 3), {(3,): 1}),
            ((2, 2, 2, 2), (2, 2, 2), {(2,): 1}),
            # an empty middle row stays: s_2 * s_1
            ((4, 2, 1), (2, 2), {(3,): 1, (2, 1): 1}),
        ],
    )
    def test_edge_shapes(self, lam, mu, expected):
        assert skew_schur_expand(lam, mu) == expected
        assert lr_expand(lam, mu) == expected

    def test_determinant_has_only_the_rows_with_cells(self, monkeypatch):
        seen = set()

        def spy(cur, outer, size):
            seen.add(outer)
            return _strip_extensions(cur, outer, size)

        monkeypatch.setattr(symmetric_functions, "_strip_extensions", spy)
        # rows 0-1 and 4-5 are empty: lam/mu sits in rows 2-3, as (4, 3)/(2, 1),
        # which is (3, 2)/(1,) moved one column right
        lam, mu = (5, 5, 4, 3, 1, 1), (5, 5, 2, 1, 1, 1)
        assert skew_schur_expand(lam, mu) == lr_expand(lam, mu)
        assert seen == {(3, 2)}


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
        assert list(got) == horizontal_strip_shapes(cur, outer, size)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_on_tall_rows(self, data):
        """Up to nine rows with parts up to 12, as tall as TestTallShapes.

        The brute force tries every tuple between cur and outer, so outer
        is drawn row by row from the top with a ceiling that keeps the
        product of the row ranges at most 2,000.
        """
        length = data.draw(st.integers(1, 9))
        rows = data.draw(st.lists(st.integers(0, 12), min_size=length, max_size=length))
        cur = sorted(rows, reverse=True)
        outer, tries = [], 1
        for c in cur:
            ceiling = min(outer[-1] if outer else 12, c + 2000 // tries - 1)
            outer.append(data.draw(st.integers(c, ceiling)))
            tries *= outer[-1] - c + 1
        size = data.draw(st.integers(0, sum(outer) - sum(cur) + 2))
        got = _strip_extensions(tuple(cur), tuple(outer), size)
        assert list(got) == horizontal_strip_shapes(cur, outer, size)

    def test_edge_sizes(self):
        cur, outer = (2, 1, 0), (3, 3, 1)
        assert _strip_extensions(cur, outer, 0) == (cur,)
        # free cells: 1 in row 0, 1 in row 1 (below the old row 0), 1 in row 2
        assert _strip_extensions(cur, outer, 3) == ((3, 2, 1),)
        assert _strip_extensions(cur, outer, 4) == ()


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
        assert lr_expand(lam, mu) == expansion
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


def reference_expansion_failure(terms):
    """(type, message) that SchurExpansion(terms) raised with all its checks per key, or None."""
    clean = {}
    for key, coeff in terms.items():
        try:
            p = Partition(key)
        except Exception as exc:
            return type(exc), str(exc)
        if p in clean:
            return ValueError, f"two keys name the partition {_shown(tuple(p))}"
        if not isinstance(coeff, int) or isinstance(coeff, bool) or coeff < 1:
            return ValueError, f"multiplicity of {_shown(tuple(p))} must be a positive integer"
        clean[p] = coeff
    return None


@st.composite
def terms_with_one_fault(draw):
    """Valid terms, some keys padded, plus at most one faulty item at a drawn position."""
    shapes = draw(st.lists(st.sampled_from(list(enumerate_in_box(3, 3))), unique=True, max_size=6))
    items = [
        (tuple(p) + (0,) * draw(st.integers(0, 2)), draw(st.integers(1, 5))) for p in shapes
    ]
    fault = draw(st.sampled_from(["none", "key", "duplicate", "type", "value"]))
    if fault == "key":
        items.append((draw(st.sampled_from([(1, 2), (0, 1), (-1,), (2, -1), (1.0,), (True,)])), 1))
    elif fault == "duplicate" and items:
        key, _ = draw(st.sampled_from(items))
        items.append((key + (0,), draw(st.integers(1, 5))))
    elif fault in ("type", "value") and items:
        i = draw(st.integers(0, len(items) - 1))
        bad = [1.0, True, False, "1", None, 2.5] if fault == "type" else [0, -1, -7]
        items[i] = (items[i][0], draw(st.sampled_from(bad)))
    # the faulty item, appended last, may sit anywhere in the dict's order
    if items and fault in ("key", "duplicate"):
        items.insert(draw(st.integers(0, len(items) - 1)), items.pop())
    return dict(items)


class TestSchurExpansion:
    @given(terms_with_one_fault())
    @settings(max_examples=300, deadline=None)
    def test_single_fault_messages_kept(self, terms):
        expected = reference_expansion_failure(terms)
        if expected is None:
            exp = SchurExpansion(terms)
            assert dict(exp.items()) == dict(sorted((Partition(k), v) for k, v in terms.items()))
            assert list(exp) == sorted(exp)
            return
        with pytest.raises(Exception) as info:
            SchurExpansion(terms)
        assert (info.type, str(info.value)) == expected

    def test_rejects_zero_or_negative_multiplicity(self):
        with pytest.raises(ValueError):
            SchurExpansion({Partition((1,)): 0})
        with pytest.raises(ValueError):
            SchurExpansion({Partition((1,)): -2})

    def test_of_shapes_strips_sorts_and_checks_multiplicities(self):
        exp = SchurExpansion._of_shapes({(2, 0, 0): 1, (1, 1, 1): 3, (2, 1, 0): 2, (0, 0, 0): 1})
        assert repr(exp) == repr(SchurExpansion({(2,): 1, (1, 1, 1): 3, (2, 1): 2, (): 1}))
        assert all(type(p) is Partition for p in exp)
        for coeff in (0, -2):
            with pytest.raises(ValueError, match=r"multiplicity of \(2, 1\) must be a positive integer"):
                SchurExpansion._of_shapes({(2, 1, 0): coeff})

    def test_coefficient_default(self):
        exp = SchurExpansion({Partition((2,)): 3})
        assert exp.coefficient(Partition((1, 1))) == 0
        assert exp.coefficient(Partition((2,))) == 3

    def test_equality_with_plain_dict(self):
        exp = SchurExpansion({Partition((1,)): 1})
        assert exp == {Partition((1,)): 1}
        assert exp != {Partition((1,)): 2}

    def test_equality_reads_a_dict_as_the_constructor_does(self):
        exp = SchurExpansion({(1,): 1})
        assert exp == {(1, 0): 1} and exp != {(1,): 2}
        # dicts the constructor rejects: two keys for (1,), in either order, and bad keys or values;
        # then values that are no dict, for which __eq__ returns NotImplemented
        for other in (
            {(1,): 2, (1, 0): 1}, {(1, 0): 1, (1,): 2}, {"x": 1}, {1: 1}, {(1,): 0}, {(1,): True},
            None, 1, "x", [((1,), 1)],
        ):
            assert exp != other and not exp == other

    def test_trailing_zero_keys(self):
        exp = SchurExpansion({(2, 1, 0): 1, (3, 0, 0): 2})
        assert dict(exp.items()) == {Partition((2, 1)): 1, Partition((3,)): 2}
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

    @pytest.mark.parametrize(
        "terms,message",
        [
            ({(3,): 1, (2, 1): 1}, r"nu=\(3,\): got 1, expected 0"),
            ({}, r"nu=\(2, 1\): got 0, expected 1"),
            ({(2, 1): 1, (1, 1, 1): 2}, r"nu=\(1, 1, 1\): got 2, expected 0"),
        ],
    )
    def test_mismatch_names_first_differing_nu(self, monkeypatch, terms, message):
        # against the 2 x 2 box, (1,) pairs with (2, 1) only
        monkeypatch.setattr(symmetric_functions, "lr_expand", lambda lam, mu: SchurExpansion(terms))
        with pytest.raises(ArithmeticError, match=message):
            rectangular_lr_is_delta(Partition((1,)), 2, 2)

    def test_box_violation(self):
        with pytest.raises(ValueError):
            rectangular_lr_is_delta(Partition((3,)), 2, 2)


def transpose(shape):
    """The column lengths of a weakly decreasing tuple, computed here rather than by Partition."""
    return tuple(sum(1 for part in shape if part > column) for column in range(shape[0] if shape else 0))


@st.composite
def skew_in_11x11_box(draw):
    """(lam, mu, rows, columns): lam/mu in a rows x columns box, up to 11 x 11, with at most 2 cells a row.

    mu's parts are drawn from a range in the box, often a narrow one, so that
    lam/mu can have long columns; each lam_i is mu_i plus 0 to 2 cells, sorted,
    so lam still contains mu.  The shapes reach 11 rows or 11 columns and stay small.
    """
    rows, columns = draw(st.integers(1, 11)), draw(st.integers(1, 11))
    low = draw(st.integers(0, columns))
    high = draw(st.integers(low, min(columns, low + draw(st.sampled_from([0, 1, 2, columns])))))
    mu = sorted(draw(st.lists(st.integers(low, high), min_size=rows, max_size=rows)), reverse=True)
    extra = draw(st.lists(st.integers(0, 2), min_size=rows, max_size=rows))
    lam = sorted((min(columns, part + more) for part, more in zip(mu, extra)), reverse=True)
    return tuple(lam), tuple(mu), rows, columns


@st.composite
def translated_in_4x4_box(draw):
    """(lam, mu, versions): a 4x4-box skew shape, and it and its version with
    empty rows (skew_with_empty_rows) each moved right by the same c columns."""
    lam, mu, outer, inner = draw(skew_with_empty_rows())
    c = draw(st.integers(0, 3))

    def moved(outer, inner):
        return tuple(part + c for part in outer), tuple(part + c for part in inner.padded(len(outer)))

    return lam, mu, [moved(lam, mu), moved(outer, inner)]


def terms(route, lam, mu):
    return {tuple(nu): coefficient for nu, coefficient in fresh(route, lam, mu).items()}


ROUTES = pytest.mark.parametrize("route", [lr_expand, skew_schur_expand], ids=["tableaux", "determinant"])


class TestMetamorphic:
    """Each route against itself on shapes too large for the polynomial oracle, and
    against the oracle on translated box shapes; each side is worked out anew (Macdonald, I.5).

    A fault shared by both routes, such as one in _skew_shape, Partition or
    SchurExpansion._of_shapes, passes their cross-check; these identities still see it.
    """

    @ROUTES
    @given(skew_in_11x11_box())
    @settings(max_examples=60, deadline=None)
    def test_conjugation(self, route, shape):
        # omega sends s_{lam/mu} to s_{lam'/mu'}: every nu is conjugated
        lam, mu, _, _ = shape
        expected = {transpose(nu): coefficient for nu, coefficient in terms(route, lam, mu).items()}
        assert terms(route, transpose(lam), transpose(mu)) == expected

    @ROUTES
    @given(skew_in_11x11_box())
    @settings(max_examples=60, deadline=None)
    def test_box_rotation(self, route, shape):
        # lam/mu turned by 180 degrees in its rows x columns box has the same expansion
        lam, mu, _, columns = shape
        outer = tuple(columns - part for part in reversed(mu))
        inner = tuple(columns - part for part in reversed(lam))
        assert terms(route, outer, inner) == terms(route, lam, mu)

    @ROUTES
    @given(translated_in_4x4_box())
    @settings(max_examples=40, deadline=None)
    def test_translation(self, route, shapes):
        # the diagram moved right, and given empty rows above and below, has the same expansion
        lam, mu, versions = shapes
        expected = {}
        # s_nu occurs in s_{lam/mu} only for nu inside lam
        for nu in filter(lam.contains, partitions_of(lam.size - mu.size)):
            coefficient = lr_via_polynomials(tuple(mu), tuple(nu), tuple(lam))
            if coefficient:
                expected[tuple(nu)] = coefficient
        for outer, inner in [(lam, mu), *versions]:
            assert terms(route, outer, inner) == expected, (outer, inner)

    def test_box_sweep_works_out_each_diagram_once(self):
        # the 1,764 skew shapes of the 4 x 4 box are 651 diagrams up to translation
        shapes = [(lam, mu) for lam in enumerate_in_box(4, 4) for mu in enumerate_in_box(4, 4) if lam.contains(mu)]
        assert len(shapes) == 1764
        for lam, mu in shapes:
            for nu in skew_schur_expand(lam, mu):
                lr_coefficient(mu, nu, lam)
        for memo in (_jacobi_trudi, _lr_table):
            info = memo.cache_info()
            assert (info.misses, info.currsize) == (651, 651)
        assert _jacobi_trudi.cache_info().hits == 1764 - 651
        # the 651 expansions ask for 5,549 Pieri strips, 1,763 of them distinct
        strips = _strip_extensions.cache_info()
        assert (strips.misses, strips.hits) == (1763, 5549 - 1763)
