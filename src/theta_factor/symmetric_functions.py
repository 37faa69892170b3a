"""Skew Schur expansion and Littlewood-Richardson coefficients.

Two deliberately separate routes are kept side by side: lr_coefficient
counts lattice-word tableaux directly, while skew_schur_expand evaluates
the Jacobi-Trudi determinant by Laplace expansion along its columns,
multiplying Schur expansions by one horizontal strip (Pieri's rule) per
entry and never leaving lam.  Tests insist the two agree.
"""

from __future__ import annotations

import json
from itertools import accumulate

from .partitions import Partition, _shown, complement_in_box, partitions_of

__all__ = [
    "ContainmentError",
    "SchurExpansion",
    "lr_coefficient",
    "rectangular_lr_is_delta",
    "skew_schur_expand",
]


class ContainmentError(ValueError):
    """The inner shape of a skew diagram sticks out of the outer one."""


class SchurExpansion:
    """A finite sum of Schur terms: partition -> positive multiplicity."""

    __slots__ = ("_terms",)

    def __init__(self, terms):
        clean = {}
        for key, coeff in terms.items():
            p = Partition(key)
            if p in clean:
                raise ValueError(f"two keys name the partition {_shown(tuple(p))}")
            if not isinstance(coeff, int) or isinstance(coeff, bool) or coeff < 1:
                raise ValueError(f"multiplicity of {_shown(tuple(p))} must be a positive integer")
            clean[p] = coeff
        self._terms = dict(sorted(clean.items()))

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def coefficient(self, p) -> int:
        return self._terms.get(Partition(p), 0)

    def items(self):
        return self._terms.items()

    def __iter__(self):
        return iter(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if isinstance(other, SchurExpansion):
            return self._terms == other._terms
        if isinstance(other, dict):
            return self._terms == {Partition(k): v for k, v in other.items()}
        return NotImplemented

    def __repr__(self):
        inner = ", ".join(f"{tuple(k)!r}: {v}" for k, v in self._terms.items())
        return f"SchurExpansion({{{inner}}})"

    def to_json_dict(self) -> dict:
        """Keys are JSON arrays of parts, e.g. {"[2,1]": 1}."""
        return {
            json.dumps(list(k), separators=(",", ":")): v
            for k, v in self._terms.items()
        }


def lr_coefficient(mu, nu, lam) -> int:
    """Littlewood-Richardson coefficient N of (mu, nu; lam).

    Counts fillings of the skew shape lam/mu with content nu whose rows
    weakly increase, columns strictly increase, and whose reverse reading
    word (right to left, top to bottom) is a lattice word.  Returns 0 on
    degree mismatch or when mu is not contained in lam.
    """
    mu, nu, lam = Partition(mu), Partition(nu), Partition(lam)
    if mu.size + nu.size != lam.size:
        return 0
    if not lam.contains(mu):
        return 0
    if nu.size == 0:
        return 1
    # the content of a lattice filling is always contained in the shape
    if not lam.contains(nu):
        return 0

    rows = len(lam)
    lamp = lam.padded(rows)
    mup = mu.padded(rows)
    k = len(nu)
    cells = [(i, j) for i in range(rows) for j in range(lamp[i] - 1, mup[i] - 1, -1)]
    remaining = list(nu)
    counts = [0] * (k + 1)
    grid = {}

    def place(idx):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        right = grid.get((i, j + 1))
        above = grid.get((i - 1, j)) if i > 0 else None
        lo = 1 if above is None else above + 1
        hi = k if right is None else right
        total = 0
        for v in range(lo, hi + 1):
            if remaining[v - 1] == 0:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            counts[v] += 1
            remaining[v - 1] -= 1
            grid[(i, j)] = v
            total += place(idx + 1)
            counts[v] -= 1
            remaining[v - 1] += 1
        grid.pop((i, j), None)
        return total

    return place(0)


def _strip_extensions(cur, outer, size):
    """Shapes reachable from cur by adding a horizontal strip of the given size.

    All shapes are tuples padded to len(outer), in lexicographic order; no
    two added cells may share a column, which caps row i at the previous
    row's old length.  Row i has caps[i] free cells and rows i.. have
    room[i], so row i takes at least what the rows below cannot.
    """
    caps = [(outer[0] if i == 0 else min(outer[i], cur[i - 1])) - cur[i] for i in range(len(cur))]
    room = list(accumulate(reversed(caps), initial=0))[::-1]
    if size > room[0]:
        return []
    if size == 0:
        return [cur]
    partial = [((), size)]
    for i in range(len(cur) - 1):
        c, cap, below = cur[i], caps[i], room[i + 1]
        partial = [
            (acc + (c + a,), left - a)
            for acc, left in partial
            for a in range(max(0, left - below), min(cap, left) + 1)
        ]
    return [acc + (cur[-1] + left,) for acc, left in partial]


def skew_schur_expand(lam, mu) -> SchurExpansion:
    """Expansion of the skew Schur function s_{lam/mu} in the Schur basis.

    Evaluates the Jacobi-Trudi determinant det(h_{lam_i - mu_j - i + j})
    by Laplace expansion along its columns, from the last to the first.
    A state is the set of rows used so far (a bitmask); it carries the
    Schur expansion of the signed sum of its partial products.  Taking
    entry (i, j) multiplies by h_t, t = lam_i - mu_j - i + j, which is one
    horizontal strip of size t (Pieri's rule); the sign is the parity of
    the used rows above i.  Equal row sets merge, so the work grows like
    2^n rather than n!.

    Entry (i, j) is nonzero exactly for i < reach[j], and reach grows with
    j: the last column has the most nonzero rows, the first the fewest.
    Going from the last column spends the wide choices while few states
    exist, and Hall's condition then drops every state in which some
    remaining columns cannot find free rows: columns 0..c need c + 1
    distinct rows below reach[c].  Every completion of a dropped state is
    zero.  The verdict depends only on the row set, which has n - j rows
    at column j, so it is worked out once per row set.

    Every intermediate shape is kept inside lam.  This is exact: Pieri
    steps never shrink a shape, so a product reaching nu only passes
    through shapes inside nu, and s_nu occurs in s_{lam/mu} only when nu
    is inside lam, so the shapes dropped are those whose signed total is
    zero anyway.
    """
    lam = Partition(lam)
    mu = Partition(mu)
    if not lam.contains(mu):
        raise ContainmentError(f"{_shown(tuple(mu))} is not contained in {_shown(tuple(lam))}")
    n = max(len(lam), 1)
    lamp = lam.padded(n)
    mup = mu.padded(n)
    reach = [sum(lamp[i] - i >= mup[j] - j for i in range(n)) for j in range(n)]

    masks = [(1 << r) - 1 for r in reach]
    # row set -> whether columns 0..c find c + 1 free rows below reach[c]
    hall = {}
    states = {0: {(0,) * n: 1}}
    for j in reversed(range(n)):
        grown = {}
        for used, expansion in states.items():
            for i in range(reach[j]):
                bit = 1 << i
                if used & bit:
                    continue
                rows = used | bit
                fits = hall.get(rows)
                if fits is None:
                    fits = hall[rows] = all(
                        (rows & masks[c]).bit_count() < reach[c] - c for c in range(j)
                    )
                if not fits:
                    continue
                sign = -1 if (used & (bit - 1)).bit_count() % 2 else 1
                target = grown.setdefault(rows, {})
                for shape, coeff in expansion.items():
                    for ext in _strip_extensions(shape, lamp, lamp[i] - mup[j] - i + j):
                        target[ext] = target.get(ext, 0) + sign * coeff
        states = {rows: {s: c for s, c in e.items() if c} for rows, e in grown.items()}
    return SchurExpansion(states.get((1 << n) - 1, {}))


def rectangular_lr_is_delta(mu, r: int, m: int):
    """Check that against the r x m rectangle, mu pairs only with its complement.

    Returns (complement, 1) after verifying by direct tableau counts that
    the coefficient is 1 at the box complement of mu and 0 at every other
    partition of the complementary size.
    """
    mu = Partition(mu)
    comp = complement_in_box(mu, r, m)
    rect = Partition((m,) * r)
    degree = rect.size - mu.size
    for nu in partitions_of(degree):
        expected = 1 if nu == comp else 0
        got = lr_coefficient(mu, nu, rect)
        if got != expected:
            raise ArithmeticError(
                f"rectangle pairing failed at nu={_shown(tuple(nu))}: got {got}, expected {expected}"
            )
    return comp, 1
