"""Closed-form codimension and dimension formulas for the boundary strata."""

from __future__ import annotations

from collections import namedtuple

from .parabolic import FlagType
from .partitions import _check_int, _Record, _shown, partial_sums

__all__ = [
    "StratumDatum",
    "complete_intersection_height",
    "double_det_dim",
    "gps_codim_bounds",
    "stability_gap",
    "quot_codim_bounds",
    "schubert_codim",
    "telescoping_check",
]


class StratumDatum(_Record, namedtuple("StratumDatum", "r1 n m")):
    """Incidence data: sub-rank r1, flag multiplicities n, and a split m of r1.

    m_j counts the dimensions of the sub-space falling into the j-th
    graded piece, so 0 <= m_j <= n_j and the m_j sum to r1.
    """

    __slots__ = ()

    def __new__(cls, r1: int, n, m):
        n = FlagType(n)
        m = _check_split(m, n)
        _check_int("r1", r1, 1)
        if sum(m) != r1:
            raise ValueError(f"m must sum to r1={_shown(r1)}, got {_shown(sum(m))}")
        return tuple.__new__(cls, (r1, n, m))


def _check_split(m, n: FlagType) -> tuple:
    """m as a tuple, checked as a split of the flag n: nonnegative ints, one per piece, m <= n."""
    m = tuple(m)
    for x in m:
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            raise ValueError(f"m entries must be nonnegative integers: {_shown(m)}")
    if len(n) != len(m):
        raise ValueError(f"n and m must have equal length: {len(n)} != {len(m)}")
    if any(a > b for a, b in zip(m, n)):
        raise ValueError(f"need m <= n componentwise: m={_shown(m)}, n={_shown(n)}")
    return m


def schubert_codim(datum: StratumDatum) -> int:
    """Codimension of the locus of flags meeting a fixed r1-space as m says.

    Sum over j of (n_j - m_j) * (r1 - (m_1 + ... + m_j)).
    """
    spent = partial_sums(datum.m)
    return sum(
        (n_j - m_j) * (datum.r1 - used)
        for n_j, m_j, used in zip(datum.n, datum.m, spent)
    )


def stability_gap(n, m, a):
    """Left side minus right side of the weighted stability comparison, a Fraction.

    n_j are positive multiplicities, 0 <= m_j <= n_j, and a_j are strictly
    increasing rationals in (0, 1].  The gap
        sum(m) * sum(n - m) + sum(m) * sum(n_j a_j)
      - sum_j (m_1 + ... + m_j)(n_j - m_j) - sum(n) * sum(m_j a_j)
    is nonnegative, and strictly positive whenever 0 < sum(m) < sum(n)
    and there are at least two blocks.  With a single block the two
    sides coincide for every m, so the gap is identically zero there.
    """
    # imported here, its only use, so no CLI command loads fractions
    from fractions import Fraction
    n = FlagType(n)
    m = _check_split(m, n)
    a = tuple(a)
    # Fraction(0.1) is the binary float's value, not one tenth
    if any(isinstance(x, (bool, float)) for x in a):
        raise ValueError(f"weights must be exact rationals, not floats or bools: {_shown(a)}")
    a = tuple(map(Fraction, a))
    if len(a) != len(n):
        raise ValueError(f"n and a must have equal length: {len(n)} != {len(a)}")
    if a[0] <= 0 or a[-1] > 1:
        raise ValueError(f"weights must lie in (0, 1]: {_shown(a)}")
    if any(x >= y for x, y in zip(a, a[1:])):
        raise ValueError(f"weights must be strictly increasing: {_shown(a)}")

    total_m = sum(m)
    total_n = sum(n)
    lhs = total_m * (total_n - total_m) + total_m * sum(
        n_j * a_j for n_j, a_j in zip(n, a)
    )
    spent = partial_sums(m)
    rhs = sum(
        used * (n_j - m_j) for used, n_j, m_j in zip(spent, n, m)
    ) + total_n * sum(m_j * a_j for m_j, a_j in zip(m, a))
    return lhs - rhs


def quot_codim_bounds(r: int, g_tilde: int, has_parabolic: bool):
    """Codimension lower bounds on the rank-r quot-scheme strata.

    Returns (semistable minus stable, full minus semistable): the first is
    (r-1)(g_tilde-1)+1 with marked points and (r-1)(g_tilde-1) without;
    the second is (r-1)(g_tilde-1)+1 either way.  Bounds only; attainment
    is not claimed.
    """
    _check_int("r", r, 1)
    _check_int("g_tilde", g_tilde, 0)
    base = (r - 1) * (g_tilde - 1)
    ss_minus_s = base + 1 if has_parabolic else base
    return ss_minus_s, base + 1


def gps_codim_bounds(r: int, g_tilde: int, has_parabolic: bool):
    """Codimension lower bounds for the generalized-parabolic strata.

    Returns (complement of the semistable locus, nonstable locus): the
    first is (r-1)*g_tilde+1; the second drops the +1 when there are no
    marked points.  Bounds only; attainment is not claimed.
    """
    _check_int("r", r, 1)
    _check_int("g_tilde", g_tilde, 0)
    base = (r - 1) * g_tilde
    nonstable = base + 1 if has_parabolic else base
    return base + 1, nonstable


def double_det_dim(a: int, b: int, p: int, q: int, r: int) -> int:
    """Dimension a(r+p) + b(r+q) - a^2 - b^2 - ab of a double determinantal variety.

    Matrix pairs (X, Y) of shapes p x r and r x q with XY = 0, rank X <= a,
    rank Y <= b; requires 0 <= a <= min(p, r), 0 <= b <= min(q, r), a+b <= r.
    """
    for name, value in (("a", a), ("b", b), ("p", p), ("q", q), ("r", r)):
        _check_int(name, value, 0)
    if a > min(p, r):
        raise ValueError(f"need a <= min(p, r): a={_shown(a)}, p={_shown(p)}, r={_shown(r)}")
    if b > min(q, r):
        raise ValueError(f"need b <= min(q, r): b={_shown(b)}, q={_shown(q)}, r={_shown(r)}")
    if a + b > r:
        raise ValueError(f"need a + b <= r: a={_shown(a)}, b={_shown(b)}, r={_shown(r)}")
    return a * (r + p) + b * (r + q) - a * a - b * b - a * b


def complete_intersection_height(r: int, r_i: int) -> int:
    """Height r_i(r - r_i) of the ideal cutting the variety of the pair (r_i, r - r_i).

    Cross-checked against the ambient dimension r*r_i + r*(r - r_i) = r^2
    minus double_det_dim at a = p = r_i, b = q = r - r_i.
    """
    if any(not isinstance(x, int) or isinstance(x, bool) for x in (r, r_i)) or not 0 <= r_i <= r:
        raise ValueError(f"need 0 <= r_i <= r, got r_i={_shown(r_i)}, r={_shown(r)}")
    height = r_i * (r - r_i)
    ambient = r * r
    variety = double_det_dim(r_i, r - r_i, r_i, r - r_i, r)
    if height != ambient - variety:
        raise ArithmeticError(
            f"height {height} does not reconcile with ambient {ambient} - dim {variety}"
        )
    return height


def telescoping_check(flag: FlagType) -> bool:
    """Evaluate r(n_{l+1} - r) + sum_i r_i (n_i + n_{i+1}) exactly.

    Always true; kept as a regression guard on the r_i / n_i bookkeeping.
    """
    flag = FlagType(flag)
    r = flag.rank
    sums = partial_sums(flag)
    value = r * (flag[-1] - r) + sum(
        sums[i] * (flag[i] + flag[i + 1]) for i in range(len(flag) - 1)
    )
    return value == 0
