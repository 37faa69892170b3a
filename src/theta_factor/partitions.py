"""Integer partitions, box operations, and Schur-module dimensions.

A partition is stored as a tuple of weakly decreasing nonnegative
integers with trailing zeros stripped, so ``Partition((2, 1, 0))`` and
``Partition((2, 1))`` are the same value.  Operations that care about a
surrounding box take the box dimensions (r rows, parts at most m)
explicitly rather than trusting padded lengths.

Every module imports this one, so it owns the rules validation messages
share: _shown caps what a message echoes of an input, and _check_int is
the one check of a scalar integer argument.  Per-element checks of hot
sequence types such as Partition stay inline.  It also owns _Record, the
equality, hash and _make that the other modules' record classes share.
"""

import math
import sys
from itertools import accumulate
from operator import ge

__all__ = [
    "BoxViolationError",
    "Partition",
    "box_count",
    "complement_in_box",
    "dim_schur",
    "enumerate_in_box",
    "partial_sums",
    "partitions_of",
]

# validation messages show at most this many characters of an input value
MAX_ECHO = 40


def _shown(value) -> str:
    """repr(value), or for a long one the start and the length of it (a str) or of its repr."""
    if isinstance(value, str):
        return repr(value) if len(value) <= MAX_ECHO else f"{value[:MAX_ECHO]!r}... ({len(value)} characters)"
    try:
        text = repr(value)
    except ValueError:
        # int refuses to convert more digits than the interpreter's limit
        holder = "an integer" if isinstance(value, int) else "a value with an integer"
        return f"{holder} of more than {sys.get_int_max_str_digits()} digits"
    return text if len(text) <= MAX_ECHO else f"{text[:MAX_ECHO]}... ({len(text)} characters)"


def _check_int(what: str, value, least: int | None = None) -> None:
    """Reject a value that is not an int (a bool is not one) or is below least (0, 1 or None)."""
    if not isinstance(value, int) or isinstance(value, bool) or (least is not None and value < least):
        kind = {None: "an", 0: "a nonnegative", 1: "a positive"}[least]
        raise ValueError(f"{what} must be {kind} integer, got {_shown(value)}")


class _Record(tuple):
    """The base of the package's records, each a subclass of it and of a namedtuple of its fields.

    A record equals only a record of its own class, never a plain tuple
    with the same items, and hashes as the tuple of its fields.  _make, and
    so _replace, builds through the record's own __new__, which checks the
    fields; the namedtuple's would check nothing.
    """

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class BoxViolationError(ValueError):
    """A partition does not fit inside the stated box."""


# the part types a Partition takes without a second look (a bool is an int subclass, so not one)
_INT_ONLY = frozenset((int,))


class Partition(tuple):
    """Weakly decreasing tuple of nonnegative integers."""

    def __new__(cls, parts=()):
        # a value of this very class was checked and stripped when it was made
        if type(parts) is cls:
            return parts
        parts = tuple(parts)
        # one pass over the part types; only a failing one looks part by part
        if not _INT_ONLY.issuperset(map(type, parts)):
            for p in parts:
                if not isinstance(p, int) or isinstance(p, bool):
                    raise ValueError(f"parts must be nonnegative integers: {_shown(parts)}")
        # a negative part anywhere is reported before the order; sorted, the
        # smallest part is the last, and the zeros to strip are all at the end
        if parts != tuple(sorted(parts, reverse=True)):
            if min(parts) < 0:
                raise ValueError(f"parts must be nonnegative integers: {_shown(parts)}")
            raise ValueError(f"parts must be weakly decreasing: {_shown(parts)}")
        if parts and parts[-1] < 0:
            raise ValueError(f"parts must be nonnegative integers: {_shown(parts)}")
        return tuple.__new__(cls, parts[: len(parts) - parts.count(0)])

    @property
    def size(self) -> int:
        """Sum of the parts."""
        return sum(self)

    def padded(self, length: int) -> tuple[int, ...]:
        """The parts extended by zeros to the given length."""
        _check_int("length", length)
        if length < len(self):
            raise ValueError(f"cannot pad {_shown(tuple(self))} down to length {_shown(length)}")
        return tuple(self) + (0,) * (length - len(self))

    def contains(self, other) -> bool:
        """Componentwise containment of Young diagrams."""
        other = Partition(other)
        return len(other) <= len(self) and all(map(ge, self, other))

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
    is small against n (see _dimension_formula).  Both are exact integer
    divisions performed once at the end.
    """
    lam = Partition(lam)
    _check_int("n", n, 0)
    if len(lam) > n:
        return 0
    formula, _ = _dimension_formula(lam, n)
    return formula(lam, n)


def _dimension_formula(lam, n: int):
    """(formula, factors): the formula dim_schur uses for lam at n, and its numerator's factor count.

    Weyl's product has a factor other than 1 for each pair i < j < n with
    i < len(lam), hook content one per cell; Weyl's product wins a tie.
    """
    length = len(lam)
    pairs = length * (n - 1) - length * (length - 1) // 2
    if pairs <= lam.size:
        return _weyl_dimension, pairs
    return _hook_content_dimension, lam.size


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
    _check_int("r", r, 0)
    _check_int("m", m, 0)
    if not mu.fits_in_box(r, m):
        raise BoxViolationError(f"{_shown(tuple(mu))} exceeds rank {_shown(r)} or width {_shown(m)}")
    return Partition(m - p for p in reversed(mu.padded(r)))


def enumerate_in_box(r: int, m: int):
    """Yield every partition with at most r parts, each part at most m.

    The order is lexicographic on the r-padded part tuples, smallest
    first: (0,..,0), then (1,0,..,0), and so on up to the full box.
    Exactly binomial(r + m, r) partitions come out.
    """
    _check_int("r", r, 0)
    _check_int("m", m, 0)
    return _box_partitions(r, m)


def _box_partitions(r: int, m: int):
    parts = [0] * r
    # parts[:length] are the nonzero parts, the rest are zeros
    length = 0
    while True:
        # weakly decreasing and nonnegative by construction: not checked again
        yield tuple.__new__(Partition, parts[:length])
        # raise the last part that stays below its left neighbour (or m)
        # and zero every part after it: the next tuple lexicographically.
        # Of the zeros only the first can rise, so the scan starts there.
        i = min(length, r - 1)
        while i >= 0 and parts[i] == (parts[i - 1] if i else m):
            i -= 1
        if i < 0:
            return
        parts[i] += 1
        parts[i + 1:length] = [0] * (length - 1 - i)
        length = i + 1


def box_count(r: int, m: int) -> int:
    """Number of partitions in the r x m box."""
    _check_int("r", r, 0)
    _check_int("m", m, 0)
    return math.comb(r + m, r)


def partitions_of(total: int, max_parts: int | None = None):
    """Yield all partitions of the given total, largest-first order.

    An optional cap on the number of parts; a negative cap counts as 0.
    Each partition is the previous one with its last part that can drop
    by one lowered, and the rest after it refilled by the largest parts
    allowed, which takes the fewest slots.
    """
    _check_int("total", total, 0)
    if max_parts is not None:
        _check_int("max_parts", max_parts)
    return _partitions_of(total, max_parts)


def _partitions_of(total: int, max_parts: int | None):
    slots = total if max_parts is None else max_parts
    if total and slots < 1:
        return
    parts, rest, top = [], total, total
    while True:
        # rest goes after parts as parts of top and one smaller remainder
        count, tail = divmod(rest, top) if rest else (0, 0)
        parts += [top] * count
        if tail:
            parts.append(tail)
        # weakly decreasing and positive by construction: not checked again
        yield tuple.__new__(Partition, parts)
        rest = 0
        while parts:
            top = parts.pop() - 1
            rest += top + 1
            # lowered to top, the part leaves rest - top to refill in the slots left
            if top and len(parts) + 1 - (-(rest - top) // top) <= slots:
                parts.append(top)
                rest -= top
                break
        else:
            return


def partial_sums(seq) -> tuple[int, ...]:
    """Running sums n_1, n_1+n_2, ... of an integer sequence."""
    return tuple(accumulate(seq))
