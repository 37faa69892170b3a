"""Degeneration machinery: mu indices, boundary data, and recursion trees.

A mu index is a partition in the r x (k-1) box; it labels one summand of
the factorization across a node and induces parabolic data at the two
preimages x1, x2 of the node.  Degenerating drops the genus by one and
attaches those two points; iterating yields a decomposition tree.
"""

from bisect import bisect_right
from collections import namedtuple
from itertools import chain, product

from .parabolic import MAX_INT_DIGITS, FlagType, MarkedPoint, ModuliSpec, WeightVector, check_star
from .partitions import BoxViolationError, Partition, _check_int, _Record, _shown, enumerate_in_box

__all__ = [
    "BoundaryData",
    "DecompositionTree",
    "LeafOracleError",
    "aggregate_dimension",
    "build_tree",
    "degenerate",
    "mu_indices",
    "mu_to_boundary",
    "verify_boundary_balance",
]


class BoundaryData(_Record, namedtuple("BoundaryData", "point1 point2")):
    """Parabolic data a mu index induces at the two branch points.

    point2 carries the reversed jump data, which is the convention the
    balance check needs.
    """

    __slots__ = ()

    def balance(self, r: int, k: int):
        """(contribution, contribution == k*r) at rank r and level k.

        contribution, both points' sum_i d_i * r_i plus r * (alpha_1 + alpha_2),
        is what turns a parent's balance into its child's (n grows by r).
        """
        p1, p2 = self.point1, self.point2
        contribution = p1.star_term() + p2.star_term() + r * (p1.alpha + p2.alpha)
        return contribution, contribution == k * r


def mu_indices(r: int, k: int):
    """Yield the mu indices for rank r and level k in enumeration order.

    The box is r x (k-1).
    """
    _check_int("rank", r, 1)
    _check_int("level", k, 1)
    return enumerate_in_box(r, k - 1)


def _boundary_data(mu, r: int, k: int, label1: str, label2: str) -> BoundaryData:
    """The BoundaryData mu induces at rank r and level k; nothing is checked.

    Precondition: mu is a Partition in the r x (k - 1) box, r is a positive
    int, k is an int, and label1, label2 are nonempty strings.  Then both
    points are valid by construction; mu_to_boundary checks this.
    The r-padded mu is read as its runs of equal entries, bottom up: their
    values mu_r = v_1 < ... < v_{l+1} = mu_1 and lengths are the second
    point's weights and flag, and the first point's flag and weights are
    the lengths and mu_r + mu_1 - v_j top down.  The zeros, if mu has fewer
    than r parts, are the first run; each run of mu's parts ends where
    bisect_right puts its value in mu reversed, which ascends.
    """
    ascending = mu[::-1]
    values, sizes = ([0], [r - len(mu)]) if len(mu) < r else ([], [])
    start = 0
    while start < len(ascending):
        value = ascending[start]
        end = bisect_right(ascending, value, start)
        values.append(value)
        sizes.append(end - start)
        start = end
    base, top = values[0], values[-1]
    # Each value passes MarkedPoint's checks by construction, so none is checked again: the
    # flag parts are run lengths, so positive; the weights, one per run as the flag parts are,
    # strictly increase from base = mu_r >= 0 (the first alpha), because the run values
    # strictly increase bottom up; and alpha = k - mu_1 >= 1, because mu fits the r x (k - 1) box.
    weights1 = tuple.__new__(WeightVector, map((top + base).__sub__, reversed(values)))
    flag1, flag2 = tuple.__new__(FlagType, sizes[::-1]), tuple.__new__(FlagType, sizes)
    point1 = tuple.__new__(MarkedPoint, (label1, flag1, weights1, base))
    point2 = tuple.__new__(MarkedPoint, (label2, flag2, tuple.__new__(WeightVector, values), k - top))
    return tuple.__new__(BoundaryData, (point1, point2))


def mu_to_boundary(mu, r: int, k: int, labels=("x1", "x2")) -> BoundaryData:
    """Boundary marked points induced by mu at rank r and level k.

    Jump positions r_1 < ... < r_l are where consecutive entries of the
    r-padded mu strictly drop, with jump sizes d_i.  The first point gets
    flag (r_1, r_2 - r_1, ..., r - r_l) and weights (mu_r, mu_r + d_1,
    ...); the second point gets the reversed data, positions r - r_{l-i+1}
    (so the reversed flag) and jumps d_{l-i+1}, with the same base weight
    mu_r.  Alphas are mu_r and k - mu_1.  A constant mu has no jumps: both
    points carry the trivial flag (r) and the single weight mu_r.  Checked
    in order: mu, the rank, the level, mu in the r x (k-1) box, then the
    labels, a pair of nonempty strings; the points then come from
    _boundary_data, whose docstring states what these checks secure.
    """
    # a Partition, as mu_indices makes, passes through unchecked
    mu = Partition(mu)
    _check_int("rank", r, 1)
    _check_int("level", k, 1)
    if not mu.fits_in_box(r, k - 1):
        raise BoxViolationError(f"{_shown(tuple(mu))} exceeds rank {_shown(r)} or width {_shown(k - 1)}")
    try:
        label1, label2 = labels
    except (TypeError, ValueError):
        raise ValueError(f"labels must be a pair of point labels, got {_shown(labels)}") from None
    if not all(isinstance(label, str) and label for label in (label1, label2)):
        raise ValueError("point label must be a nonempty string")
    return _boundary_data(mu, r, k, label1, label2)


def verify_boundary_balance(mu, r: int, k: int):
    """Total balance contribution of the two boundary points (BoundaryData.balance)."""
    return mu_to_boundary(mu, r, k).balance(r, k)


def _next_label_level(points) -> int:
    top = 0
    for pt in points:
        _, sep, tail = pt.label.rpartition("@")
        if sep and tail.isdecimal():
            if len(tail) > MAX_INT_DIGITS:
                raise ValueError(
                    f"point {_shown(pt.label)}: label level has more than {MAX_INT_DIGITS} digits"
                )
            top = max(top, int(tail))
    return top + 1


def degenerate(spec: ModuliSpec):
    """One degeneration step: the list of (mu, child spec) pairs.

    The child keeps degree, rank, level, and ell, drops the genus by one,
    and gains the boundary points x1@L, x2@L, L one above the parent's
    highest @L label suffix.  The parent must have positive genus and
    satisfy the balance condition; every child then satisfies it too.
    The pairs are the leaves of build_tree(spec, 1), each path one mu long.
    """
    if spec.genus < 1:
        raise ValueError("cannot degenerate a genus-0 spec")
    return [(mu, child) for (mu,), child in build_tree(spec, 1).leaves()]


class DecompositionTree(_Record, namedtuple("DecompositionTree", "spec depth mus rows")):
    """The degeneration tree of spec to depth min(depth, spec.genus).

    Every node at tree level d gains the same two boundary points, labeled
    x1@L, x2@L with L = _next_label_level(spec.points) + d, so the tree is
    fixed by its root spec, its mus (mu_indices order, () at a leaf) and
    its rows: per level, the BoundaryData of each mu.  Making a tree checks
    depth, the root's balance and each row point once, against spec; the
    boundary-balance identity (verify_boundary_balance) keeps every node
    balanced.  A leaf never enumerates the mu box.

    A node is its ModuliSpec, and the nodes at level d are the leaves of
    build_tree(spec, d): leaves makes only the leaf specs, and no tree
    object.  A tree is the record (spec, depth, mus, rows): == and hash read
    all four, flat at any depth, but repr shows, and pickle, copy and
    _replace take, only spec and depth, as mus and rows are derived.
    """

    __slots__ = ()

    def __new__(cls, spec: ModuliSpec, depth: int):
        _check_int("depth", depth, 0)
        lhs, rhs, ok = check_star(spec)
        if not ok:
            raise ValueError(f"spec fails the balance condition: lhs={_shown(lhs)} rhs={_shown(rhs)}")
        depth = min(depth, spec.genus)
        mus, rows = (), ()
        if depth:
            mus = tuple(mu_indices(spec.rank, spec.level))
            first = _next_label_level(spec.points)
            labels = [(f"x1@{level}", f"x2@{level}") for level in range(first, first + depth)]
            rows = tuple(tuple(mu_to_boundary(mu, spec.rank, spec.level, xs) for mu in mus) for xs in labels)
            # every node that takes a row has spec's rank and level, so ModuliSpec._unchecked checks nothing
            for data in chain.from_iterable(rows):
                spec._check_point(data.point1)
                spec._check_point(data.point2)
        return tuple.__new__(cls, (spec, depth, mus, rows))

    def __repr__(self):
        return f"DecompositionTree(spec={self.spec!r}, depth={self.depth!r})"

    def __getnewargs__(self):
        return self.spec, self.depth

    def _replace(self, /, **changes):
        """The tree of self's spec and depth with changes to them; mus and rows, derived, take none."""
        spec, depth = changes.pop("spec", self.spec), changes.pop("depth", self.depth)
        if changes:
            raise ValueError(f"only spec and depth can be replaced, got {_shown(list(changes))}")
        return DecompositionTree(spec, depth)

    __replace__ = _replace  # for copy.replace (3.13 on): the namedtuple's passes mus and rows to __new__

    def leaves(self):
        """Yield (mu path, spec) for every leaf, preorder; the paths are the depth-fold product of mus."""
        return zip(product(self.mus, repeat=self.depth), self._leaf_specs())

    def _leaf_specs(self):
        """Yield each leaf spec, preorder, the root at depth 0: the one descent that makes specs.

        A node above the leaves is only its (depth, points), so each spec
        made is a leaf's, once, by ModuliSpec._unchecked.
        """
        root, depth = self.spec, self.depth
        if not depth:
            yield root
            return
        make, genus = ModuliSpec._unchecked, root.genus - depth
        # per level, each mu's point pair (a BoundaryData is one); the stack pops the upper levels'
        # reversed, in mus order
        *upper, last = self.rows
        upper = [row[::-1] for row in upper]
        stack = [(0, root.points)]
        while stack:
            level, points = stack.pop()
            if level < len(upper):
                stack.extend([(level + 1, points + pair) for pair in upper[level]])
            else:
                for pair in last:
                    yield make(root, genus, points + pair)

    def node_count(self) -> int:
        return sum(len(self.mus) ** i for i in range(self.depth + 1))

    def leaf_count(self) -> int:
        return len(self.mus) ** self.depth

    def to_json_dict(self) -> dict:
        """Nodes carry specs, edges carry mu arrays padded to the rank.

        Built level by level from the rows: each row entry's padded mu and
        two point dicts are made once, and every node of the level gets a
        child per entry, its spec dict the node's with the genus one less
        and the entry's point dicts added.  No spec is made below the root
        and no MarkedPoint is hashed; every node carrying a point lists the
        same dict object, and each edge has its own mu list.  The result is
        == to fresh dicts per node; mutating a point dict changes it at every node.
        """
        root = {"spec": self.spec.to_json_dict(), "children": []}
        level = [root]
        for row in self.rows:
            entries = [(mu.padded(self.spec.rank), [d.point1.to_json_dict(), d.point2.to_json_dict()])
                       for mu, d in zip(self.mus, row)]
            parents, level = level, []
            for parent in parents:
                spec = parent["spec"]
                genus = spec["genus"] - 1
                for mu, points in entries:
                    node = {"spec": {**spec, "genus": genus, "points": spec["points"] + points}, "children": []}
                    parent["children"].append({"mu": list(mu), "node": node})
                    level.append(node)
        return root


def build_tree(spec: ModuliSpec, depth: int) -> DecompositionTree:
    """Degenerate repeatedly until genus 0 or the depth bound: DecompositionTree(spec, depth).

    Children appear in mu enumeration order, so the tree is deterministic;
    its first level is what degenerate gives.
    """
    return DecompositionTree(spec, depth)


class LeafOracleError(RuntimeError):
    """The leaf oracle rejected a spec; the offending spec is attached.

    The message names the leaf by its sha256, which decompose --format csv maps to its mu path.
    """

    def __init__(self, spec: ModuliSpec, reason):
        super().__init__(f"leaf oracle failed on leaf {spec.sha256()}: {reason}")
        self.spec = spec


def aggregate_dimension(tree: DecompositionTree, leaf_oracle) -> int:
    """Sum the oracle's values over the leaf specs, in the order of tree.leaves().

    The oracle maps a leaf's ModuliSpec to an integer; no built-in
    default exists on purpose, since the recursion provides structure but
    not base-case values.  Any oracle failure aborts the whole
    aggregation with the offending leaf spec attached: the oracle's own
    LeafOracleError as it is, any other exception or a non-int result (a
    bool too) wrapped in one.  The specs are read with no mu path made.
    """
    total = 0
    for spec in tree._leaf_specs():
        try:
            value = leaf_oracle(spec)
        except LeafOracleError:
            raise
        except Exception as exc:
            raise LeafOracleError(spec, exc) from exc
        if not isinstance(value, int) or isinstance(value, bool):
            raise LeafOracleError(spec, f"oracle returned a non-integer: {_shown(value)}")
        total += value
    return total
