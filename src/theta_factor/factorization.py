"""Degeneration machinery: mu indices, boundary data, and recursion trees.

A mu index is a partition in the r x (k-1) box; it labels one summand of
the factorization across a node and induces parabolic data at the two
preimages x1, x2 of the node.  Degenerating drops the genus by one and
attaches those two points; iterating yields a decomposition tree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .parabolic import FlagType, MarkedPoint, ModuliSpec, WeightVector, check_star
from .partitions import BoxViolationError, Partition, enumerate_in_box

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


def mu_indices(r: int, k: int):
    """Yield the mu indices for rank r and level k in enumeration order.

    The box is r x (k-1).
    """
    if k < 1:
        raise ValueError(f"level must be a positive integer, got {k!r}")
    return enumerate_in_box(r, k - 1)


def _validate_mu(mu, r: int, k: int) -> Partition:
    mu = Partition(mu)
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"rank must be a positive integer, got {r!r}")
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"level must be a positive integer, got {k!r}")
    if not mu.fits_in_box(r, k - 1):
        raise BoxViolationError(f"{tuple(mu)!r} is not in the {r}x{k - 1} box")
    return mu


def mu_to_boundary(mu, r: int, k: int, labels=("x1", "x2")) -> BoundaryData:
    """Boundary marked points induced by mu at rank r and level k.

    Jump positions r_1 < ... < r_l are where consecutive entries of the
    r-padded mu strictly drop, with jump sizes d_i.  The first point gets
    flag (r_1, r_2 - r_1, ..., r - r_l) and weights (mu_r, mu_r + d_1,
    ...); the second point gets the reversed data, positions r - r_{l-i+1}
    and jumps d_{l-i+1}, with the same base weight mu_r.  Alphas are mu_r
    and k - mu_1.  A constant mu has no jumps: both points carry the
    trivial flag (r) and the single weight mu_r.
    """
    mu = _validate_mu(mu, r, k)
    padded = mu.padded(r)
    base = padded[-1]
    positions = [i for i in range(1, r) if padded[i - 1] > padded[i]]
    jumps = [padded[i - 1] - padded[i] for i in positions]
    label1, label2 = labels

    point1 = MarkedPoint(
        label=label1,
        flag=_flag_from_positions(positions, r),
        weights=_weights_from_jumps(base, jumps),
        alpha=base,
    )
    reversed_positions = [r - p for p in reversed(positions)]
    reversed_jumps = list(reversed(jumps))
    point2 = MarkedPoint(
        label=label2,
        flag=_flag_from_positions(reversed_positions, r),
        weights=_weights_from_jumps(base, reversed_jumps),
        alpha=k - padded[0],
    )
    return BoundaryData(l=len(positions), point1=point1, point2=point2)


def _flag_from_positions(positions, r: int) -> FlagType:
    edges = list(positions) + [r]
    return FlagType(b - a for a, b in zip([0] + edges, edges))


def _weights_from_jumps(base: int, jumps) -> WeightVector:
    weights = [base]
    for d in jumps:
        weights.append(weights[-1] + d)
    return WeightVector(weights)


def verify_boundary_balance(mu, r: int, k: int):
    """Total balance contribution of the two boundary points.

    contribution = sum over both points of (sum_i d_i * r_i) plus
    r * (alpha_1 + alpha_2); returns (contribution, contribution == k*r).
    This is exactly the increment that turns the parent's balance into
    the child's, whose derived n grows by r when the genus drops.
    """
    data = mu_to_boundary(mu, r, k)
    contribution = (
        data.point1.star_term()
        + data.point2.star_term()
        + r * (data.point1.alpha + data.point2.alpha)
    )
    return contribution, contribution == k * r


def _next_label_level(points) -> int:
    top = 0
    for pt in points:
        _, sep, tail = pt.label.rpartition("@")
        if sep and tail.isdigit():
            top = max(top, int(tail))
    return top + 1


def degenerate(spec: ModuliSpec, level: int | None = None):
    """One degeneration step: the list of (mu, child spec) pairs.

    The child keeps degree, rank, level, and ell, drops the genus by one,
    and gains the two boundary points labeled x1@level, x2@level.  The
    parent must have positive genus and satisfy the balance condition;
    every child then satisfies it too.
    """
    if spec.genus < 1:
        raise ValueError("cannot degenerate a genus-0 spec")
    lhs, rhs, ok = check_star(spec)
    if not ok:
        raise ValueError(f"spec fails the balance condition: lhs={lhs} rhs={rhs}")
    if level is None:
        level = _next_label_level(spec.points)
    labels = (f"x1@{level}", f"x2@{level}")
    out = []
    for mu in mu_indices(spec.rank, spec.level):
        data = mu_to_boundary(mu, spec.rank, spec.level, labels=labels)
        child = replace(
            spec,
            genus=spec.genus - 1,
            points=spec.points + (data.point1, data.point2),
        )
        out.append((mu, child))
    return out


@dataclass(frozen=True)
class DecompositionTree:
    """A recursion tree: specs at nodes, mu labels on edges.

    children is an ordered tuple of (mu, subtree) pairs, empty at leaves.
    """

    spec: ModuliSpec
    children: tuple = ()

    def is_leaf(self) -> bool:
        return not self.children

    def walk(self, depth: int = 0, path: tuple = ()):
        """Yield (depth, mu path, node) for every node, preorder."""
        yield depth, path, self
        for mu, child in self.children:
            yield from child.walk(depth + 1, path + (mu,))

    def leaves(self):
        for _, path, node in self.walk():
            if node.is_leaf():
                yield path, node

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    def leaf_count(self) -> int:
        return sum(1 for _ in self.leaves())

    def to_json_dict(self, rank: int | None = None) -> dict:
        """Nodes carry specs, edges carry r-padded mu arrays."""
        r = self.spec.rank if rank is None else rank
        return {
            "spec": self.spec.to_json_dict(),
            "children": [
                {"mu": list(mu.padded(r)), "node": child.to_json_dict(r)}
                for mu, child in self.children
            ],
        }


def build_tree(spec: ModuliSpec, depth: int) -> DecompositionTree:
    """Degenerate recursively until genus 0 or the depth bound.

    Children appear in mu enumeration order, so the tree is deterministic.
    Balance is checked here for the root only; each degenerate step still
    checks its parent, and no child needs a check of its own, since the
    boundary-balance identity (verify_boundary_balance) keeps every child
    of a balanced spec balanced.
    """
    if not isinstance(depth, int) or depth < 0:
        raise ValueError(f"depth must be a nonnegative integer, got {depth!r}")
    lhs, rhs, ok = check_star(spec)
    if not ok:
        raise ValueError(f"spec fails the balance condition: lhs={lhs} rhs={rhs}")
    return _grow(spec, depth)


def _grow(spec: ModuliSpec, depth: int) -> DecompositionTree:
    if depth == 0 or spec.genus == 0:
        return DecompositionTree(spec, ())
    children = tuple((mu, _grow(child, depth - 1)) for mu, child in degenerate(spec))
    return DecompositionTree(spec, children)


class LeafOracleError(RuntimeError):
    """The leaf oracle rejected a spec; the offending spec is attached."""

    def __init__(self, spec: ModuliSpec, reason):
        super().__init__(f"leaf oracle failed on {spec.to_json_dict()!r}: {reason}")
        self.spec = spec


def aggregate_dimension(tree: DecompositionTree, leaf_oracle) -> int:
    """Sum the oracle's values over the leaves.

    The oracle maps a leaf's ModuliSpec to an integer; no built-in
    default exists on purpose, since the recursion provides structure but
    not base-case values.  Any oracle failure aborts the whole
    aggregation with the offending leaf spec attached.
    """
    if tree.is_leaf():
        try:
            value = leaf_oracle(tree.spec)
        except LeafOracleError:
            raise
        except Exception as exc:
            raise LeafOracleError(tree.spec, exc) from exc
        if not isinstance(value, int) or isinstance(value, bool):
            raise LeafOracleError(tree.spec, f"oracle returned a non-integer: {value!r}")
        return value
    return sum(aggregate_dimension(child, leaf_oracle) for _, child in tree.children)
