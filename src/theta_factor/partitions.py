"""Integer partitions, box operations, and Schur-module dimensions.

A partition is stored as a tuple of weakly decreasing nonnegative
integers with trailing zeros stripped, so ``Partition((2, 1, 0))`` and
``Partition((2, 1))`` are the same value.  Operations that care about a
surrounding box take the box dimensions (r rows, parts at most m)
explicitly rather than trusting padded lengths.
"""

from __future__ import annotations

import math
from itertools import accumulate

__all__ = [
    "BoxViolationError",
    "Partition",
    "complement_in_box",
    "dim_schur",
    "enumerate_in_box",
    "partitions_of",
]

# validation messages show at most this many characters of an input value
MAX_ECHO = 40


def _shown(value) -> str:
    """repr(value), or for a long one its first MAX_ECHO characters and its length."""
    text = repr(value)
    return text if len(text) <= MAX_ECHO else f"{text[:MAX_ECHO]}... ({len(text)} characters)"


class BoxViolationError(ValueError):
    """A partition does not fit inside the stated box."""


class Partition(tuple):
    """Weakly decreasing tuple of nonnegative integers."""

    def __new__(cls, parts=()):
        # a value of this very class was checked and stripped when it was made
        if type(parts) is cls:
            return parts
        parts = tuple(parts)
        for p in parts:
            if not isinstance(p, int) or isinstance(p, bool) or p < 0:
                raise ValueError(f"parts must be nonnegative integers: {_shown(parts)}")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts must be weakly decreasing: {_shown(parts)}")
        end = len(parts)
        while end > 0 and parts[end - 1] == 0:
            end -= 1
        return super().__new__(cls, parts[:end])

    @property
    def size(self) -> int:
        """Sum of the parts."""
        return sum(self)

    def padded(self, length: int) -> tuple[int, ...]:
        """The parts extended by zeros to the given length."""
        if length < len(self):
            raise ValueError(f"cannot pad {_shown(tuple(self))} down to length {length}")
        return tuple(self) + (0,) * (length - len(self))

    def contains(self, other) -> bool:
        """Componentwise containment of Young diagrams."""
        other = Partition(other)
        if len(other) > len(self):
            return False
        return all(a >= b for a, b in zip(self, other))

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram (column lengths)."""
        if not self:
            return Partition()
        return Partition(
            sum(1 for p in self if p > j) for j in range(self[0])
        )

    def fits_in_box(self, r: int, m: int) -> bool:
        """Whether the diagram has at most r rows and parts at most m."""
        return len(self) <= r and (not self or self[0] <= m)


def dim_schur(lam, n: int) -> int:
    """Dimension of the Schur module S_lam(V) for an n-dimensional V.

    A diagram with more than n rows gives the zero module, so the
    dimension is 0.  Otherwise the formula with fewer factors is used:
    Weyl's product when n is small against |lam|, hook content when |lam|
    is small against n (see _weyl_pairs).  Both are exact integer
    divisions performed once at the end.
    """
    lam = Partition(lam)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if len(lam) > n:
        return 0
    if _weyl_pairs(len(lam), n) <= lam.size:
        return _weyl_dimension(lam, n)
    return _hook_content_dimension(lam, n)


def _weyl_pairs(length: int, n: int) -> int:
    """Factors of Weyl's product that are not 1: pairs i < j < n with i < length."""
    return length * (n - 1) - length * (length - 1) // 2


def _weyl_dimension(lam, n: int) -> int:
    """Weyl's product over i < j < n of (lam_i - lam_j + j - i) / (j - i).

    Fulton-Harris, Theorem 6.3.  A pair of rows both below lam gives 1,
    so only the rows of lam are walked: n - 1 - i factors for row i.
    """
    num = 1
    den = 1
    for i, row in enumerate(lam):
        for j in range(i + 1, n):
            num *= row - (lam[j] if j < len(lam) else 0) + j - i
        den *= math.factorial(n - 1 - i)
    return _exact(num, den, lam)


def _hook_content_dimension(lam, n: int) -> int:
    """The product over cells (i, j) of (n + j - i) over the product of hook lengths."""
    cols = lam.conjugate()
    num = 1
    den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= n + j - i
            den *= (row - j) + (cols[j] - i) - 1
    return _exact(num, den, lam)


def _exact(num: int, den: int, lam) -> int:
    if num % den:
        raise ArithmeticError(f"dimension division not exact for {_shown(tuple(lam))}")
    return num // den


def complement_in_box(mu, r: int, m: int) -> Partition:
    """Complement (m - mu_r, ..., m - mu_1) of mu inside the r x m box."""
    mu = Partition(mu)
    if r < 0 or m < 0:
        raise ValueError(f"box dimensions must be nonnegative, got {r}x{m}")
    if not mu.fits_in_box(r, m):
        raise BoxViolationError(f"{_shown(tuple(mu))} does not fit in a {r}x{m} box")
    return Partition(m - p for p in reversed(mu.padded(r)))


def enumerate_in_box(r: int, m: int):
    """Yield every partition with at most r parts, each part at most m.

    The order is lexicographic on the r-padded part tuples, smallest
    first: (0,..,0), then (1,0,..,0), and so on up to the full box.
    Exactly binomial(r + m, r) partitions come out.
    """
    if r < 0 or m < 0:
        raise ValueError(f"box dimensions must be nonnegative, got {r}x{m}")
    parts = [0] * r
    while True:
        yield Partition(parts)
        # raise the last part that stays below its left neighbour (or m)
        # and reset every part after it: the next tuple lexicographically
        i = r - 1
        while i >= 0 and parts[i] == (parts[i - 1] if i else m):
            i -= 1
        if i < 0:
            return
        parts[i] += 1
        parts[i + 1:] = [0] * (r - 1 - i)


def box_count(r: int, m: int) -> int:
    """Number of partitions in the r x m box."""
    return math.comb(r + m, r)


def partitions_of(total: int, max_parts: int | None = None, max_part: int | None = None):
    """Yield all partitions of the given total, largest-first order.

    Optional caps on the number of parts and the largest part.
    """
    if total < 0:
        raise ValueError(f"cannot partition {total}")
    cap = total if max_part is None else min(max_part, total)
    slots = total if max_parts is None else max_parts

    def rec(prefix, remaining, bound, room):
        if remaining == 0:
            yield Partition(prefix)
            return
        if room == 0:
            return
        for v in range(min(bound, remaining), 0, -1):
            yield from rec(prefix + (v,), remaining - v, v, room - 1)

    yield from rec((), total, cap, slots)


def partial_sums(seq) -> tuple[int, ...]:
    """Running sums n_1, n_1+n_2, ... of an integer sequence."""
    return tuple(accumulate(seq))
