"""Skew Schur expansion and Littlewood-Richardson coefficients.

Two deliberately separate routes are kept side by side.  The tableau
route (lr_expand, lr_coefficient) counts lattice-word tableaux a row at a
time, for every content at once; the determinant route
(skew_schur_expand) evaluates the Jacobi-Trudi determinant by Laplace
expansion along its columns, multiplying Schur expansions by one
horizontal strip (Pieri's rule) per entry and never leaving lam.  Neither
calls the other, and tests insist the two agree.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import Partition, _shown, complement_in_box

# entries each of the three memos keeps: each route's expansions, one per skew diagram up to
# translation (the 4 x 4 box has 651), and the determinant route's Pieri strips (1,763 on the box)
MEMO_SIZE = 1024

__all__ = [
    "ContainmentError",
    "SchurExpansion",
    "lr_coefficient",
    "lr_expand",
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
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise ValueError(f"multiplicity of {_shown(tuple(p))} must be a positive integer")
            clean[p] = coeff
        self._terms = SchurExpansion._of_shapes(clean)._terms

    @classmethod
    def _of_shapes(cls, shapes):
        """From partitions, all padded to one length or all stripped -> int coefficients.

        The shapes are not checked again, only stripped of trailing zeros;
        each coefficient must still be positive, which is checked here only.
        """
        expansion = object.__new__(cls)
        expansion._terms = terms = {}
        for shape, coeff in sorted(shapes.items()):
            p = tuple.__new__(Partition, shape[: len(shape) - shape.count(0)])
            if coeff < 1:
                raise ValueError(f"multiplicity of {_shown(tuple(p))} must be a positive integer")
            terms[p] = coeff
        return expansion

    def coefficient(self, p) -> int:
        return self._terms.get(Partition(p), 0)

    def items(self):
        return self._terms.items()

    def __iter__(self):
        return iter(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if isinstance(other, dict):
            try:
                other = SchurExpansion(other)
            except (ValueError, TypeError):
                return False
        if isinstance(other, SchurExpansion):
            return self._terms == other._terms
        return NotImplemented

    def __repr__(self):
        inner = ", ".join(f"{tuple(k)!r}: {v}" for k, v in self._terms.items())
        return f"SchurExpansion({{{inner}}})"


def _skew_shape(lam, mu):
    """The diagram of lam/mu up to translation (see _diagram); mu must lie inside lam."""
    lam, mu = Partition(lam), Partition(mu)
    if not lam.contains(mu):
        raise ContainmentError(f"{_shown(tuple(mu))} is not contained in {_shown(tuple(lam))}")
    return _diagram(lam, mu)


def _diagram(lam, mu):
    """Partitions lam and mu inside it -> the diagram lam/mu up to translation.

    A skew Schur function depends only on it (Macdonald, I.5), so both
    routes key their memo on it: the rows with no cells at the top and the
    bottom are dropped, and every part is less the bottom row's inner part.
    """
    n = len(lam)
    mup = mu + (0,) * (n - len(mu))
    # no row to drop and no shift: mu is shorter than lam and its first row shorter too
    if len(mu) < n and mup[0] < lam[0]:
        return lam, mup
    top, end = 0, n
    while top < end and lam[top] == mup[top]:
        top += 1
    while end > top and lam[end - 1] == mup[end - 1]:
        end -= 1
    shift = mup[end - 1] if top < end else 0
    # only rows to drop: the slices are already tuples
    if not shift:
        return lam[top:end], mup[top:end]
    return tuple([a - shift for a in lam[top:end]]), tuple([b - shift for b in mup[top:end]])


def lr_coefficient(mu, nu, lam) -> int:
    """Littlewood-Richardson coefficient N of (mu, nu; lam).

    Counts fillings of the skew shape lam/mu with content nu whose rows
    weakly increase, columns strictly increase, and whose reverse reading
    word (right to left, top to bottom) is a lattice word.  Returns 0 on
    degree mismatch or when mu is not contained in lam.  Otherwise nu is
    read from the whole table of lam/mu (see lr_expand), which is kept for
    the last MEMO_SIZE diagrams up to translation, so asking for every nu
    of one shape in turn counts its tableaux once.
    """
    mu, nu, lam = Partition(mu), Partition(nu), Partition(lam)
    if sum(mu) + sum(nu) != sum(lam) or not lam.contains(mu):
        return 0
    return _lr_table(*_diagram(lam, mu))._terms.get(nu, 0)


def lr_expand(lam, mu) -> SchurExpansion:
    """Expansion of s_{lam/mu} by counting LR tableaux, for every content at once.

    The tableau route's counterpart of skew_schur_expand: the coefficient
    of s_nu is the number of fillings of lam/mu counted by lr_coefficient.
    The tableaux are built a row at a time (the Littlewood-Richardson rule
    in Fulton, Young Tableaux, section 5).  Row i (0-based) holds only
    values up to i + 1, and since rows weakly increase, its content fixes
    the row.  A state is the content T so far with the previous row's
    running counts C (C(v) = its entries of value at most v); a count
    rides on each state and equal states merge.  A new row is a run of
    running counts C_i that keeps two inequalities:

    - columns strictly increase: mu_i + C_i(v) <= mu_{i-1} + C_{i-1}(v - 1),
      since the cells of value at most v must sit under cells of mu or of
      value below v;
    - the reverse reading word is a lattice word: T_i(v) <= T_{i-1}(v - 1),
      checked where row i's last v has been read and none of its v - 1.
    """
    return _lr_table(*_skew_shape(lam, mu))


@lru_cache(maxsize=MEMO_SIZE)
def _lr_table(lam, mu) -> SchurExpansion:
    """nu -> number of LR tableaux of lam/mu with content nu (see lr_expand).

    lam/mu is a diagram as _diagram makes it.  The table is cached and handed
    out as it is (a SchurExpansion has no mutator); each content has len(lam) parts.

    A state is (T, run): T[u] counts the value u + 1 so far, and run is
    (0, C(1), ..., C(i + 1)) for the last row i.  A new row's run is built
    one value at a time, on a stack.  C(u + 1) is at least the row length
    less T[u], as the larger values fill at most T[u] cells of the row
    (the lattice inequality, summed).
    """
    states = {((), (0,)): 1}
    for i, length in enumerate(a - b for a, b in zip(lam, mu)):
        gap = mu[i - 1] - mu[i] if i else 0
        grown = {}
        for (content, prev), count in states.items():
            # partial rows: the run so far and the content T it makes
            stack = [((0,), ())]
            while stack:
                run, made = stack.pop()
                u, last = len(made), run[-1]
                if u == i:
                    key = (made + (length - last,), run + (length,))
                    grown[key] = grown.get(key, 0) + count
                    continue
                t = content[u]
                room = content[u - 1] - t if u else length
                lo, hi, top = length - t, gap + prev[u], last + room
                hi = length if length < hi else hi
                for c in range(last if last > lo else lo, (top if top < hi else hi) + 1):
                    stack.append((run + (c,), made + (t + c - last,)))
        states = grown
    table = {}
    for (content, _), count in states.items():
        table[content] = table.get(content, 0) + count
    return SchurExpansion._of_shapes(table)


@lru_cache(maxsize=MEMO_SIZE)
def _strip_extensions(cur, outer, size):
    """Shapes reachable from cur by adding a horizontal strip of the given size.

    All shapes are tuples padded to len(outer), in lexicographic order; no
    two added cells may share a column, which caps row i at the previous
    row's old length.  One pass from the bottom finds each row's free
    cells (caps[i]) and, alongside, below[i], what rows i + 1.. can take
    in all.  A depth-first walk over one stack then picks the cells of
    each row in turn: with left cells still to place, row i takes at least
    left - below[i] and at most min(caps[i], left), and once none are left
    the remaining rows keep cur's parts.  The stack hands the shapes out
    in reverse order, so they are sorted once at the end.

    The shapes come back as one tuple, kept in an lru_cache of MEMO_SIZE
    entries (_strip_extensions.cache_clear()) and shared by every
    expansion that asks for the same (cur, outer, size), so no caller may
    change what another reads.  The caps pass thus runs once per distinct
    key rather than once per call: on the 4 x 4 box sweep, 1,763 passes
    for 5,549 calls.  One shape extended by several sizes still takes a
    pass per size (633 distinct (cur, outer) on that sweep).
    """
    n = len(cur)
    caps, below, total = [0] * n, [0] * n, 0
    for i in range(n - 1, -1, -1):
        cap = (outer[i] if i == 0 or outer[i] < cur[i - 1] else cur[i - 1]) - cur[i]
        caps[i], below[i] = cap, total
        total += cap
    if size > total:
        return ()
    found = []
    stack = [(0, (), size)]
    while stack:
        i, acc, left = stack.pop()
        if not left:
            found.append(acc + cur[i:])
            continue
        c, rest, cap = cur[i], below[i], caps[i]
        for a in range(left - rest if left > rest else 0, (cap if cap < left else left) + 1):
            stack.append((i + 1, acc + (c + a,), left - a))
    found.sort()
    return tuple(found)


def skew_schur_expand(lam, mu) -> SchurExpansion:
    """Expansion of the skew Schur function s_{lam/mu} in the Schur basis.

    The determinant route's counterpart of lr_expand.  It works on the
    diagram up to translation that _skew_shape makes, so the n rows are
    those from the first to the last row with a cell.

    Evaluates the Jacobi-Trudi determinant det(h_{lam_i - mu_j - i + j})
    by Laplace expansion along its columns, from the last to the first.
    A state is the set of rows used so far (a bitmask); it carries the
    Schur expansion of the signed sum of its partial products.  Taking
    entry (i, j) multiplies by h_t, t = lam_i - mu_j - i + j, which is one
    horizontal strip of size t (Pieri's rule; h_0 = 1 keeps each shape);
    the sign is the parity of the used rows above i.  Equal row sets
    merge, so the work grows like 2^n rather than n!.  Terms that cancel
    to zero stay in their state: they are skipped when it is extended and
    dropped once, at the end.

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
    return _jacobi_trudi(*_skew_shape(lam, mu))


@lru_cache(maxsize=MEMO_SIZE)
def _jacobi_trudi(lamp, mup) -> SchurExpansion:
    """skew_schur_expand's work on a diagram as _skew_shape makes it; cached and handed out as it is."""
    n = len(lamp)
    # lam_i - i falls as i grows, so reach[j] counts a run of rows from the top
    reach, i = [], 0
    for j in range(n):
        while i < n and lamp[i] - i >= mup[j] - j:
            i += 1
        reach.append(i)

    # column c's rows below reach[c], and how many used ones leave columns 0..c too few
    hall_checks = [((1 << r) - 1, r - c) for c, r in enumerate(reach)]
    # row set -> whether columns 0..c find c + 1 free rows below reach[c]
    hall = {}
    states = {0: {(0,) * n: 1}}
    for j in reversed(range(n)):
        entries = [(1 << i, lamp[i] - mup[j] - i + j) for i in range(reach[j])]
        checks = hall_checks[:j]
        grown = {}
        for used, expansion in states.items():
            for bit, t in entries:
                if used & bit:
                    continue
                rows = used | bit
                fits = hall.get(rows)
                if fits is None:
                    fits = True
                    for mask, need in checks:
                        if (rows & mask).bit_count() >= need:
                            fits = False
                            break
                    hall[rows] = fits
                if not fits:
                    continue
                sign = -1 if (used & (bit - 1)).bit_count() & 1 else 1
                target = grown.setdefault(rows, {})
                for shape, coeff in expansion.items():
                    if coeff:
                        coeff *= sign
                        for ext in _strip_extensions(shape, lamp, t) if t else (shape,):
                            target[ext] = target.get(ext, 0) + coeff
        states = grown
    return SchurExpansion._of_shapes({s: c for s, c in states.get((1 << n) - 1, {}).items() if c})


def rectangular_lr_is_delta(mu, r: int, m: int):
    """Check that against the r x m rectangle, mu pairs only with its complement.

    Returns (complement, 1) after verifying by one tableau expansion of
    rect/mu that the coefficient is 1 at the box complement of mu and 0 at
    every other partition of the complementary size.  A mismatch names the
    first partition, in partitions_of order, where they differ.
    """
    mu = Partition(mu)
    comp = complement_in_box(mu, r, m)
    rect = Partition((m,) * r)
    expansion = lr_expand(rect, mu)
    if expansion != {comp: 1}:
        # partitions_of order is lexicographically decreasing: the first is the largest
        nu = max(nu for nu in {*expansion, comp} if expansion.coefficient(nu) != int(nu == comp))
        got, expected = expansion.coefficient(nu), int(nu == comp)
        raise ArithmeticError(
            f"rectangle pairing failed at nu={_shown(tuple(nu))}: got {got}, expected {expected}"
        )
    return comp, 1
