"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every check is exact integer or exact rational arithmetic; there
are no tolerances anywhere.
"""

import math
import time
from fractions import Fraction
from itertools import combinations, product

from theta_factor import (
    ModuliSpec,
    Partition,
    StratumDatum,
    aggregate_dimension,
    build_tree,
    check_star,
    complement_in_box,
    complete_intersection_height,
    degenerate,
    dim_schur,
    double_det_dim,
    enumerate_in_box,
    stability_gap,
    lr_coefficient,
    mu_indices,
    partitions_of,
    rectangular_lr_is_delta,
    schubert_codim,
    skew_schur_expand,
    telescoping_check,
    verify_boundary_balance,
)
from theta_factor.parabolic import FlagType

from oracles import flag_codim_oracle


def report(number: int, ok: bool, detail: str):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def genus_one_spec(rank: int, level: int) -> ModuliSpec:
    # rank*ell = level*(degree + 0) balances when degree=rank, ell=level
    return ModuliSpec(
        genus=1, rank=rank, degree=rank, level=level, ell=level, points=(),
    )


def test_criterion_01_branching_identity():
    start = time.perf_counter()
    checked = 0
    failures = []
    for r in (1, 2, 3):
        for m in range(0, 5):
            lhs = dim_schur(Partition((m,) * r), 2 * r)
            rhs = sum(dim_schur(mu, r) ** 2 for mu in enumerate_in_box(r, m))
            checked += 1
            if lhs != rhs:
                failures.append((r, m, lhs, rhs))
    elapsed = time.perf_counter() - start
    anchor = dim_schur(Partition((1, 1)), 4)
    terms = [dim_schur(mu, 2) ** 2 for mu in enumerate_in_box(2, 1)]
    ok = not failures and anchor == 6 and terms == [1, 4, 1] and elapsed < 5.0
    report(
        1,
        ok,
        f"{checked} (r,m) pairs exact, anchor 6=1+4+1, {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_rectangular_delta():
    checked = 0
    for r in range(1, 4):
        for m in range(0, 4):
            for mu in enumerate_in_box(r, m):
                comp, mult = rectangular_lr_is_delta(mu, r, m)
                assert comp == complement_in_box(mu, r, m) and mult == 1
                checked += 1
    report(2, True, f"{checked} (mu, box) cases, coefficient 1 at complement and 0 elsewhere")


def test_criterion_03_jacobi_trudi_vs_tableau():
    pairs = 0
    for lam in enumerate_in_box(4, 4):
        for mu in enumerate_in_box(4, 4):
            if not lam.contains(mu):
                continue
            expansion = skew_schur_expand(lam, mu)
            degree = lam.size - mu.size
            expected = {}
            for nu in partitions_of(degree, max_parts=4):
                c = lr_coefficient(mu, nu, lam)
                if c:
                    expected[nu] = c
            assert expansion == expected, (lam, mu)
            pairs += 1
    report(3, True, f"{pairs} skew shapes in the 4x4 box, determinant equals tableau count")


def test_criterion_04_boundary_balance_and_tree_star():
    cases = 0
    for r in range(1, 6):
        for k in range(1, 7):
            for mu in mu_indices(r, k):
                contribution, holds = verify_boundary_balance(mu, r, k)
                assert holds and contribution == k * r, (mu, r, k)
                cases += 1
    root = ModuliSpec(genus=3, rank=2, degree=6, level=3, ell=3, points=())
    assert check_star(root)[2]
    nodes = 0
    # the nodes at depth d are the leaves of the depth-d tree
    for depth in range(4):
        for _, spec in build_tree(root, depth).leaves():
            assert check_star(spec)[2], spec
            nodes += 1
    expected_nodes = 1 + 6 + 36 + 216
    ok = nodes == expected_nodes
    report(
        4,
        ok,
        f"{cases} balance cases equal k*r; {nodes}/{expected_nodes} tree nodes satisfy the star condition",
    )


def test_criterion_05_telescoping():
    def flags(r):
        if r == 0:
            yield ()
            return
        for head in range(1, r + 1):
            for rest in flags(r - head):
                yield (head,) + rest

    checked = 0
    for r in range(1, 9):
        for flag in flags(r):
            assert telescoping_check(FlagType(flag)), flag
            checked += 1
    report(5, True, f"{checked} flag types with rank <= 8, identity exact")


def test_criterion_06_gap_grid():
    # The strictness dichotomy needs at least two weight steps: with a
    # single block the two sides are identical (gap = 0 for every m), so
    # the "strict iff sum(n) > sum(m) > 0" claim is asserted on lengths
    # >= 2 and the single-block grid is pinned to exact zero instead.
    weights = sorted(
        {Fraction(p, q) for q in (1, 2, 3, 4) for p in range(1, q + 1)}
    )
    checked = 0
    single_block = 0
    strict_mismatches = []
    for length in (1, 2, 3):
        for n in product((1, 2, 3), repeat=length):
            for m in product(*(range(piece + 1) for piece in n)):
                for a in combinations(weights, length):
                    gap = stability_gap(n, m, a)
                    checked += 1
                    assert gap >= 0, (n, m, a, gap)
                    if length == 1:
                        assert gap == 0, (n, m, a, gap)
                        single_block += 1
                        continue
                    should_be_strict = sum(n) > sum(m) > 0
                    if (gap > 0) != should_be_strict:
                        strict_mismatches.append((n, m, a, gap))
    ok = not strict_mismatches
    report(
        6,
        ok,
        f"{checked} grid points nonnegative; dichotomy exact on multi-step data, "
        f"{single_block} single-block points identically zero"
        + ("" if ok else f", {len(strict_mismatches)} mismatches"),
    )


def test_criterion_07_schubert_vs_echelon_oracle():
    def flags(r):
        if r == 0:
            yield ()
            return
        for head in range(1, r + 1):
            for rest in flags(r - head):
                yield (head,) + rest

    checked = 0
    for r in range(1, 5):
        for n in flags(r):
            for m in product(*(range(piece + 1) for piece in n)):
                r1 = sum(m)
                if r1 < 1:
                    continue
                formula = schubert_codim(StratumDatum(r1, n, m))
                oracle = flag_codim_oracle(r1, n, m)
                assert formula == oracle, (r1, n, m, formula, oracle)
                checked += 1
    anchor_line = schubert_codim(StratumDatum(1, (1, 1), (0, 1)))
    anchor_gr24 = schubert_codim(StratumDatum(2, (2, 2), (0, 2)))
    ok = anchor_line == 1 and anchor_gr24 == 4
    report(
        7,
        ok,
        f"{checked} strata with r <= 4 match the echelon oracle; anchors {anchor_line} and {anchor_gr24}",
    )


def test_criterion_08_double_determinantal():
    checked = 0
    for r in range(0, 7):
        for ri in range(0, r + 1):
            dim = double_det_dim(ri, r - ri, ri, r - ri, r)
            assert dim == r * r + ri * ri - r * ri, (r, ri)
            ambient = r * ri + r * (r - ri)
            assert ambient - dim == complete_intersection_height(r, ri), (r, ri)
            checked += 1
    report(8, True, f"{checked} (r, r_i) pairs: dimension formula and height reconciliation exact")


def test_criterion_09_structural_factorization():
    # child counts
    for rank, level in ((1, 2), (2, 2), (2, 3), (3, 2)):
        spec = genus_one_spec(rank, level)
        children = degenerate(spec)
        assert len(children) == math.comb(rank + level - 1, rank), (rank, level)

    # determinism: rebuilding gives an equal tree
    root = ModuliSpec(genus=2, rank=2, degree=4, level=3, ell=3, points=())
    first = build_tree(root, 2)
    second = build_tree(root, 2)
    assert first == second

    # aggregation linearity: doubling every leaf doubles the root
    base = aggregate_dimension(first, lambda s: 7)
    doubled = aggregate_dimension(first, lambda s: 14)
    assert doubled == 2 * base and base == 7 * first.leaf_count()

    report(
        9,
        True,
        "child counts binomial(r+k-1, r); tree rebuild equal; doubled leaves double the root",
    )
