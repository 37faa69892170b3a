"""Degeneration machinery: mu indices, boundary data, and recursion trees.

A mu index is a partition in the r x (k-1) box; it labels one summand of
the factorization across a node and induces parabolic data at the two
preimages x1, x2 of the node.  Degenerating drops the genus by one and
attaches those two points; iterating yields a decomposition tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .parabolic import MAX_INT_DIGITS, FlagType, MarkedPoint, ModuliSpec, WeightVector, check_star
from .partitions import BoxViolationError, Partition, _check_int, _shown, enumerate_in_box

__all__ = [
    "BoundaryData",
    "DecompositionTree",
    "LeafOracleError",
    "aggregate_dimension",
    "boundary_levels",
    "build_tree",
    "degenerate",
    "mu_indices",
    "mu_to_boundary",
    "verify_boundary_balance",
]


@dataclass(frozen=True)
class BoundaryData:
    """Parabolic data a mu index induces at the two branch points.

    l is the number of jumps (nonzero consecutive differences) of mu.
    point2 carries the reversed jump data, which is the convention the
    balance check needs.
    """

    l: int
    point1: MarkedPoint
    point2: MarkedPoint

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


def _validate_mu(mu, r: int, k: int) -> Partition:
    # a Partition, as mu_indices makes, passes through unchecked
    mu = Partition(mu)
    _check_int("rank", r, 1)
    _check_int("level", k, 1)
    if not mu.fits_in_box(r, k - 1):
        raise BoxViolationError(f"{_shown(tuple(mu))} is not in the {r}x{k - 1} box")
    return mu


def boundary_levels(mu, r: int, levels, labels=("x1", "x2")):
    """Yield the BoundaryData mu induces at rank r for each level k in levels.

    Jump positions r_1 < ... < r_l are where consecutive entries of the
    r-padded mu strictly drop, with jump sizes d_i.  The first point gets
    flag (r_1, r_2 - r_1, ..., r - r_l) and weights (mu_r, mu_r + d_1,
    ...); the second point gets the reversed data, positions r - r_{l-i+1}
    (so the reversed flag) and jumps d_{l-i+1}, with the same base weight
    mu_r.  Alphas are mu_r and k - mu_1.  A constant mu has no jumps: both
    points carry the trivial flag (r) and the single weight mu_r.  Only
    that alpha depends on k: mu is checked once, in the smallest level's
    box, and only the second MarkedPoint is made once per level.
    """
    levels = tuple(levels)
    if not levels:
        return
    mu = _validate_mu(mu, r, min(levels))
    padded = mu.padded(r)
    base = padded[-1]
    positions = [i for i in range(1, r) if padded[i - 1] > padded[i]]
    jumps = [padded[i - 1] - padded[i] for i in positions]
    edges = [0, *positions, r]
    flag = [b - a for a, b in zip(edges, edges[1:])]
    label1, label2 = labels
    # MarkedPoint makes the FlagType and WeightVector and checks them
    point1 = MarkedPoint(label1, flag, accumulate(jumps, initial=base), base)
    # checked once: MarkedPoint passes values of these exact types through
    flag2 = FlagType(flag[::-1])
    weights2 = WeightVector(accumulate(reversed(jumps), initial=base))
    for k in levels:
        yield BoundaryData(len(jumps), point1, MarkedPoint(label2, flag2, weights2, k - padded[0]))


def mu_to_boundary(mu, r: int, k: int, labels=("x1", "x2")) -> BoundaryData:
    """Boundary marked points induced by mu at rank r and level k (boundary_levels)."""
    return next(boundary_levels(mu, r, (k,), labels))


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
    The children are the first level of build_tree(spec, 1).
    """
    if spec.genus < 1:
        raise ValueError("cannot degenerate a genus-0 spec")
    return [(mu, child.spec) for mu, child in build_tree(spec, 1).children]


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class DecompositionTree:
    """A recursion tree: specs at nodes, mu labels on edges.

    children is an ordered tuple of (mu, subtree) pairs, empty at leaves.
    Nodes have slots.  walk, the counts, aggregate_dimension, ==, hash,
    repr and to_json_dict use an explicit stack, so a tree of any depth
    works.  == matches the dataclass method on (spec, children), hash
    agrees with ==, and repr is the dataclass text.
    """

    spec: ModuliSpec
    children: tuple = ()

    def _shape(self) -> list:
        """(node class, spec, child mus) for every node of walk(); it fixes the tree."""
        return [
            (node.__class__, node.spec, tuple(mu for mu, _ in node.children))
            for _, _, node in self.walk()
        ]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._shape() == other._shape()

    def __hash__(self) -> int:
        return hash(tuple(self._shape()))

    def __repr__(self) -> str:
        # pieces are strings, or nodes still to write, on a stack
        out = []
        stack = [self]
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                out.append(item)
                continue
            out.append(f"{item.__class__.__qualname__}(spec={item.spec!r}, children=(")
            pieces = []
            for i, (mu, child) in enumerate(item.children):
                pieces += [f"{', ' if i else ''}({mu!r}, ", child, ")"]
            pieces.append(",))" if len(item.children) == 1 else "))")
            stack.extend(reversed(pieces))
        return "".join(out)

    def is_leaf(self) -> bool:
        return not self.children

    def walk(self):
        """Yield (depth, mu path, node) for every node, preorder."""
        stack = [(0, (), self)]
        while stack:
            depth, path, node = stack.pop()
            yield depth, path, node
            for mu, child in reversed(node.children):
                stack.append((depth + 1, path + (mu,), child))

    def leaves(self):
        for _, path, node in self.walk():
            if node.is_leaf():
                yield path, node

    def _counts(self) -> tuple[int, int]:
        """(nodes, leaves), by one pass without mu paths."""
        nodes = leaves = 0
        stack = [self]
        while stack:
            node = stack.pop()
            nodes += 1
            if node.children:
                stack += [child for _, child in node.children]
            else:
                leaves += 1
        return nodes, leaves

    def node_count(self) -> int:
        return self._counts()[0]

    def leaf_count(self) -> int:
        return self._counts()[1]

    def to_json_dict(self) -> dict:
        """Nodes carry specs, edges carry mu arrays padded to the node's rank.

        Every node that build_tree makes has the root's rank.
        One dict is made per distinct MarkedPoint in the whole tree, and
        every node carrying that point lists the same dict object: the
        root's points and the boundary points build_tree shares between
        siblings are each one dict.  The result is == to fresh dicts per
        node; a caller that mutates a point dict changes it at every node.
        Each node's dict is made empty under its parent and filled when
        the stack reaches it.
        """
        point_dicts = {}
        root = {}
        stack = [(self, root)]
        while stack:
            node, out = stack.pop()
            r = node.spec.rank
            out["spec"] = node.spec.to_json_dict(point_dicts)
            out["children"] = children = []
            for mu, child in node.children:
                child_out = {}
                children.append({"mu": list(mu.padded(r)), "node": child_out})
                stack.append((child, child_out))
        return root


def build_tree(spec: ModuliSpec, depth: int) -> DecompositionTree:
    """Degenerate repeatedly until genus 0 or the depth bound.

    Children appear in mu enumeration order, so the tree is deterministic;
    its first level is what degenerate gives.  Every node at tree level d
    gets the same boundary points, labeled x1@L, x2@L with
    L = _next_label_level(spec.points) + d, so they are made once per
    (mu, level) and shared.  Balance is checked for the root only: the
    boundary-balance identity (verify_boundary_balance) keeps every child
    of a balanced spec balanced.  The specs are made one tree level at a
    time, then joined bottom up: node i of a level takes the next level's
    trees i*N to (i+1)*N - 1, N = len(mus).
    """
    _check_int("depth", depth, 0)
    lhs, rhs, ok = check_star(spec)
    if not ok:
        raise ValueError(f"spec fails the balance condition: lhs={lhs} rhs={rhs}")
    levels = min(depth, spec.genus)
    if levels == 0:
        # a leaf: the mu box, which can be huge, is never enumerated
        return DecompositionTree(spec, ())
    mus = list(mu_indices(spec.rank, spec.level))
    first = _next_label_level(spec.points)
    specs = [[spec]]
    for d in range(levels):
        labels = (f"x1@{first + d}", f"x2@{first + d}")
        row = [mu_to_boundary(mu, spec.rank, spec.level, labels) for mu in mus]
        # each point is checked once, against spec: every node that takes
        # the row has spec's rank and level, so ModuliSpec._child checks nothing
        for data in row:
            spec._check_point(data.point1)
            spec._check_point(data.point2)
        specs.append([node._child(data.point1, data.point2) for node in specs[-1] for data in row])
    n = len(mus)
    trees = [DecompositionTree(node, ()) for node in specs.pop()]
    while specs:
        trees = [
            DecompositionTree(node, tuple(zip(mus, trees[i * n : (i + 1) * n])))
            for i, node in enumerate(specs.pop())
        ]
    return trees[0]


class LeafOracleError(RuntimeError):
    """The leaf oracle rejected a spec; the offending spec is attached."""

    def __init__(self, spec: ModuliSpec, reason):
        super().__init__(f"leaf oracle failed on {spec.canonical_json()}: {reason}")
        self.spec = spec


def aggregate_dimension(tree: DecompositionTree, leaf_oracle) -> int:
    """Sum the oracle's values over the leaves.

    The oracle maps a leaf's ModuliSpec to an integer; no built-in
    default exists on purpose, since the recursion provides structure but
    not base-case values.  Any oracle failure aborts the whole
    aggregation with the offending leaf spec attached.
    """
    total = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.children:
            # the preorder of leaves(), without mu paths
            stack.extend([child for _, child in reversed(node.children)])
            continue
        try:
            value = leaf_oracle(node.spec)
        except LeafOracleError:
            raise
        except Exception as exc:
            raise LeafOracleError(node.spec, exc) from exc
        if not isinstance(value, int) or isinstance(value, bool):
            raise LeafOracleError(node.spec, f"oracle returned a non-integer: {value!r}")
        total += value
    return total
