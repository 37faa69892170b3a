"""Independent brute-force oracles used to pin expected values in tests.

Everything here recomputes quantities from first principles (tableau
enumeration, polynomial arithmetic, echelon cells) without importing the
package under test, so a library bug cannot hide inside its own checker.
"""

from itertools import accumulate, permutations, product


def ssyt_count(shape, n):
    """Count semistandard tableaux of the given shape with entries in 1..n.

    Rows weakly increase left to right, columns strictly increase top to
    bottom.  Plain backtracking over cells in reading order.
    """
    shape = tuple(shape)
    shape = shape[: len([p for p in shape if p > 0])]
    if not shape:
        return 1
    if len(shape) > n:
        return 0
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    grid = {}

    def fill(idx):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = grid[(i, j - 1)]
        if i > 0:
            lo = max(lo, grid[(i - 1, j)] + 1)
        total = 0
        for v in range(lo, n + 1):
            grid[(i, j)] = v
            total += fill(idx + 1)
        grid.pop((i, j), None)
        return total

    return fill(0)


def horizontal_strip_shapes(cur, outer, size):
    """Every shape between cur and outer that adds a horizontal strip of size cells.

    All three are read as equal-length tuples.  Tries every tuple with
    cur_i <= new_i <= outer_i, in lexicographic order, and keeps those that
    add size cells with no two in one column: new_i <= cur_{i-1}.
    """
    cur, outer = tuple(cur), tuple(outer)
    return [
        new
        for new in product(*(range(c, o + 1) for c, o in zip(cur, outer)))
        if sum(new) - sum(cur) == size
        and all(new[i] <= cur[i - 1] for i in range(1, len(new)))
    ]


def schur_monomials(shape, nvars):
    """Monomial expansion of a Schur polynomial: exponent tuple -> coefficient.

    Tallies the content vectors of all semistandard tableaux.
    """
    shape = tuple(p for p in shape if p > 0)
    if len(shape) > nvars:
        return {}
    if not shape:
        return {(0,) * nvars: 1}
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    grid = {}
    out = {}

    def fill(idx, content):
        if idx == len(cells):
            key = tuple(content)
            out[key] = out.get(key, 0) + 1
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = grid[(i, j - 1)]
        if i > 0:
            lo = max(lo, grid[(i - 1, j)] + 1)
        for v in range(lo, nvars + 1):
            grid[(i, j)] = v
            content[v - 1] += 1
            fill(idx + 1, content)
            content[v - 1] -= 1
        grid.pop((i, j), None)

    fill(0, [0] * nvars)
    return out


def poly_mul(p, q):
    """Product of two polynomials given as exponent-tuple -> coefficient maps."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def schur_basis_expand(poly, nvars):
    """Expand a symmetric polynomial in the Schur basis by greedy subtraction.

    The lexicographically greatest exponent present is always weakly
    decreasing and names the leading Schur term; subtract and repeat.
    """
    poly = {e: c for e, c in poly.items() if c}
    out = {}
    while poly:
        lead = max(poly)
        assert tuple(sorted(lead, reverse=True)) == lead, lead
        coeff = poly[lead]
        shape = tuple(x for x in lead if x)
        out[shape] = coeff
        for mono, k in schur_monomials(shape, nvars).items():
            c = poly.get(mono, 0) - coeff * k
            if c:
                poly[mono] = c
            else:
                poly.pop(mono, None)
    return out


def lr_via_polynomials(mu, nu, lam):
    """Littlewood-Richardson coefficient as the Schur coefficient of a product.

    Multiplies the monomial expansions of the two Schur polynomials in
    len(lam) variables and reads off the coefficient; terms with more
    parts than variables vanish, which never affects the requested one.
    """
    mu = tuple(p for p in mu if p)
    nu = tuple(p for p in nu if p)
    lam = tuple(p for p in lam if p)
    if sum(mu) + sum(nu) != sum(lam):
        return 0
    nvars = max(1, len(lam))
    prod = poly_mul(schur_monomials(mu, nvars), schur_monomials(nu, nvars))
    return schur_basis_expand(prod, nvars).get(lam, 0)


def flag_codim_oracle(r1, n, m):
    """Codimension of the flag-incidence locus, by counting echelon cells.

    Cells of the full flag variety on C^r are pivot orders p (permutations
    of 1..r): the t-th subspace is spanned by rows with pivots p_1..p_t and
    free entries strictly left of each pivot, so a cell has dimension
    inv(p) and meets span(e_1..e_c) in exactly #{s <= t : p_s <= c}
    dimensions.  The incidence conditions therefore cut out a union of
    cells, and the locus's codimension is the total flag dimension minus
    the largest participating cell.  Refining a partial flag to a full one
    is a smooth fibration, so the partial-flag codimension is the same.

    Conditions follow the decreasing-flag convention: the i-th subspace of
    the partial flag has dimension r - (n_1 + ... + n_i) and must meet a
    fixed r1-dimensional subspace in at least r1 - (m_1 + ... + m_i)
    dimensions.
    """
    n = tuple(n)
    m = tuple(m)
    r = sum(n)
    spent = list(accumulate(m))
    sizes = list(accumulate(n))
    conds = []
    for i in range(len(n)):
        need = r1 - spent[i]
        if need > 0:
            conds.append((r - sizes[i], need))
    best = -1
    for p in permutations(range(1, r + 1)):
        ok = True
        for rank, need in conds:
            if sum(1 for s in range(rank) if p[s] <= r1) < need:
                ok = False
                break
        if ok:
            inv = sum(
                1 for t in range(r) for u in range(t + 1, r) if p[t] > p[u]
            )
            if inv > best:
                best = inv
    assert best >= 0, "incidence conditions should always be satisfiable"
    return r * (r - 1) // 2 - best
