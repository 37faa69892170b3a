"""Boundary data, balance, and the genus-reduction recursion."""

import copy
import math
import pickle
import re
from collections import namedtuple
from itertools import groupby

import pytest
from hypothesis import assume, given, settings, strategies as st

from theta_factor import cli, factorization
from theta_factor.partitions import _shown
from theta_factor import (
    BoundaryData,
    BoxViolationError,
    BranchingTable,
    DecompositionTree,
    FlagType,
    LeafOracleError,
    MarkedPoint,
    ModuliSpec,
    Partition,
    StratumDatum,
    WeightVector,
    aggregate_dimension,
    box_count,
    build_tree,
    check_star,
    decompose_rectangular,
    degenerate,
    enumerate_in_box,
    mu_indices,
    mu_to_boundary,
    partial_sums,
    verify_boundary_balance,
)


def differences(weights):
    """d_i = a_{i+1} - a_i for i = 1..l."""
    return tuple(b - a for a, b in zip(weights, weights[1:]))


@st.composite
def small_balanced_specs(draw):
    """Balanced specs with rank 1-3, level 1-4, genus 0-3 and 0-3 points.

    Some labels carry an @n suffix, so the fresh boundary labels have to
    start above them.
    """
    rank = draw(st.integers(1, 3))
    level = draw(st.integers(1, 4))
    genus = draw(st.integers(0, 3))
    points = []
    for i in range(draw(st.integers(0, 3))):
        pieces = draw(st.integers(1, min(rank, level + 1)))
        cuts = []
        if pieces > 1:
            cuts = sorted(draw(st.sets(st.integers(1, rank - 1), min_size=pieces - 1, max_size=pieces - 1)))
        flag = [b - a for a, b in zip([0] + cuts, cuts + [rank])]
        weights = sorted(draw(st.sets(st.integers(0, level), min_size=pieces, max_size=pieces)))
        suffix = draw(st.sampled_from(["", "@0", "@2", "@3"]))
        points.append(MarkedPoint(f"p{i}{suffix}", flag, weights, draw(st.integers(0, level))))
    # balance: sum of point terms + rank*ell = level*(degree + rank*(1 - genus))
    fixed = sum(pt.star_term() + rank * pt.alpha for pt in points)
    ells = [ell for ell in range(1, level + 1) if (fixed + rank * ell) % level == 0]
    assume(ells)
    ell = draw(st.sampled_from(ells))
    degree = (fixed + rank * ell) // level - rank * (1 - genus)
    return ModuliSpec(genus, rank, degree, level, ell, tuple(points))


ReferenceNode = namedtuple("ReferenceNode", "spec children")


def reference_tree(spec, depth):
    """The tree as nested ReferenceNodes, made one node at a time by the public constructors.

    Each child is ModuliSpec(...), which checks every point, with the two
    points mu_to_boundary gives, labeled one above the node's highest @n
    suffix; build_tree and degenerate share none of this code path.
    """
    if depth == 0 or spec.genus == 0:
        return ReferenceNode(spec, ())
    suffixes = [pt.label.rpartition("@") for pt in spec.points]
    level = 1 + max((int(tail) for _, sep, tail in suffixes if sep and tail.isdecimal()), default=0)
    children = []
    for mu in mu_indices(spec.rank, spec.level):
        data = mu_to_boundary(mu, spec.rank, spec.level, (f"x1@{level}", f"x2@{level}"))
        points = spec.points + (data.point1, data.point2)
        child = ModuliSpec(spec.genus - 1, spec.rank, spec.degree, spec.level, spec.ell, points)
        children.append((mu, reference_tree(child, depth - 1)))
    return ReferenceNode(spec, tuple(children))


def reference_walk(tree, depth=0, path=()):
    """(depth, mu path, ReferenceNode) for every node, preorder by recursion over .children."""
    yield depth, path, tree
    for mu, child in tree.children:
        yield from reference_walk(child, depth + 1, path + (mu,))


def walk_specs(rows):
    """(depth, mu path, spec) for each (depth, mu path, node) of a reference walk, level by level.

    Within a level the walk's preorder is kept, which is the mus-product
    order of the paths: what nodes_by_level yields.
    """
    return sorted(((depth, path, node.spec) for depth, path, node in rows), key=lambda row: row[0])


def nodes_by_level(spec, depth):
    """(depth, mu path, spec) for every node of build_tree(spec, depth), level by level.

    The nodes at level d are the leaves of build_tree(spec, d).
    """
    levels = range(min(depth, spec.genus) + 1)
    return [(d, path, node) for d in levels for path, node in build_tree(spec, d).leaves()]


def json_point_dicts(data):
    """Every point dict in a to_json_dict result, one entry per occurrence."""
    stack = [data]
    while stack:
        node = stack.pop()
        yield from node["spec"]["points"]
        stack.extend(edge["node"] for edge in node["children"])


def reference_json(tree, r):
    return {
        "spec": tree.spec.to_json_dict(),
        "children": [
            {"mu": list(mu.padded(r)), "node": reference_json(child, r)} for mu, child in tree.children
        ],
    }


def balanced_spec(genus=2, rank=2, level=3, ell=3):
    # with no points the balance condition forces k*d = r*ell - k*r*(1-g)
    product = rank * ell + level * rank * (genus - 1)
    assert product % level == 0
    return ModuliSpec(
        genus=genus, rank=rank, degree=product // level,
        level=level, ell=ell, points=(),
    )


class TestMuIndices:
    def test_counts(self):
        assert len(list(mu_indices(2, 3))) == box_count(2, 2) == 6
        assert len(list(mu_indices(1, 2))) == 2

    def test_all_fit_the_box(self):
        for mu in mu_indices(3, 4):
            assert mu.fits_in_box(3, 3)

    @pytest.mark.parametrize(
        "r,k,message",
        [
            (2, 2.0, "level must be a positive integer, got 2.0"),
            (2, True, "level must be a positive integer, got True"),
            (2, 0, "level must be a positive integer, got 0"),
            (2.0, 2, "rank must be a positive integer, got 2.0"),
            (True, 2, "rank must be a positive integer, got True"),
            (0, 2, "rank must be a positive integer, got 0"),
        ],
    )
    def test_rank_and_level_checked(self, r, k, message):
        # the same check and messages as mu_to_boundary's
        for call in (lambda: mu_indices(r, k), lambda: mu_to_boundary((), r, k)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message


class TestMuToBoundary:
    def test_worked_example(self):
        data = mu_to_boundary(Partition((3, 3, 1)), 4, 4)
        # two jumps: a flag of three steps
        assert len(data.point1.flag) - 1 == 2
        p1, p2 = data.point1, data.point2
        assert p1.label == "x1" and p2.label == "x2"
        assert tuple(p1.flag) == (2, 1, 1)
        assert tuple(p1.weights) == (0, 2, 3)
        assert p1.alpha == 0
        assert tuple(p2.flag) == (1, 1, 2)
        assert partial_sums(p2.flag)[:2] == (1, 2)
        assert differences(p2.weights) == (1, 2)
        assert p2.alpha == 4 - 3

    def test_single_jump(self):
        data = mu_to_boundary(Partition((1,)), 2, 2)
        assert len(data.point1.flag) - 1 == 1
        assert tuple(data.point1.flag) == (1, 1)
        assert tuple(data.point1.weights) == (0, 1)
        assert data.point1.alpha == 0
        assert tuple(data.point2.flag) == (1, 1)
        assert data.point2.alpha == 1

    def test_constant_mu(self):
        data = mu_to_boundary(Partition((2, 2, 2)), 3, 5)
        assert len(data.point1.flag) - 1 == 0
        assert tuple(data.point1.flag) == (3,)
        assert tuple(data.point2.flag) == (3,)
        assert data.point1.alpha == 2
        assert data.point2.alpha == 5 - 2
        assert tuple(data.point1.weights) == (2,)

    def test_custom_labels(self):
        data = mu_to_boundary(Partition(()), 2, 2, labels=("a", "b"))
        assert data.point1.label == "a" and data.point2.label == "b"

    def test_rejects_mu_outside_box(self):
        with pytest.raises(BoxViolationError):
            mu_to_boundary(Partition((3,)), 2, 3)

    def test_box_violation_names_the_box(self):
        with pytest.raises(BoxViolationError) as info:
            mu_to_boundary(Partition((3,)), 2, 3)
        assert str(info.value) == "(3,) exceeds rank 2 or width 2"

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_reversal_relations(self, data):
        r = data.draw(st.integers(min_value=1, max_value=5))
        k = data.draw(st.integers(min_value=1, max_value=5))
        rows = data.draw(st.lists(st.integers(min_value=0, max_value=k - 1), max_size=r))
        mu = Partition(sorted(rows, reverse=True))
        bdry = mu_to_boundary(mu, r, k)
        s1 = partial_sums(bdry.point1.flag)[:-1]
        s2 = partial_sums(bdry.point2.flag)[:-1]
        d1 = differences(bdry.point1.weights)
        d2 = differences(bdry.point2.weights)
        assert tuple(s2) == tuple(r - s for s in reversed(s1))
        assert tuple(d2) == tuple(reversed(d1))
        padded = mu.padded(r)
        assert bdry.point1.alpha == padded[-1]
        assert bdry.point2.alpha == k - padded[0]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, data):
        """Against the docstring's positions and jumps, in the r x (k-1) box, r <= 4, k <= 5."""
        r = data.draw(st.integers(min_value=1, max_value=4))
        k = data.draw(st.integers(min_value=1, max_value=5))
        rows = data.draw(st.lists(st.integers(min_value=0, max_value=k - 1), max_size=r))
        labels = data.draw(st.sampled_from([("x1", "x2"), ("x1@3", "x2@3"), ("a", "b")]))
        mu = sorted(rows, reverse=True)
        bdry = mu_to_boundary(Partition(mu), r, k, labels=labels)

        padded = mu + [0] * (r - len(mu))
        positions = [i for i in range(1, r) if padded[i - 1] > padded[i]]
        jumps = [padded[i - 1] - padded[i] for i in positions]
        reversed_positions = [r - p for p in reversed(positions)]
        reversed_jumps = jumps[::-1]

        def reference(label, positions, jumps, alpha):
            edges = [0] + positions + [r]
            flag = tuple(edges[i + 1] - edges[i] for i in range(len(edges) - 1))
            weights = tuple(padded[-1] + sum(jumps[:i]) for i in range(len(jumps) + 1))
            return label, flag, weights, alpha

        assert len(bdry.point1.flag) - 1 == len(positions)
        want = [
            reference(labels[0], positions, jumps, padded[-1]),
            reference(labels[1], reversed_positions, reversed_jumps, k - padded[0]),
        ]
        points = (bdry.point1, bdry.point2)
        assert [(pt.label, tuple(pt.flag), tuple(pt.weights), pt.alpha) for pt in points] == want
        for pt in points:
            assert type(pt.flag) is FlagType
            assert type(pt.weights) is WeightVector
        spec = ModuliSpec(0, r, 0, k, 1, points)
        assert spec.points == points


class TestBoundaryBalance:
    def test_worked_examples(self):
        assert verify_boundary_balance(Partition((3, 3, 1)), 4, 4) == (16, True)
        assert verify_boundary_balance(Partition((1,)), 2, 2) == (4, True)

    def test_constant_mu(self):
        assert verify_boundary_balance(Partition((2, 2)), 2, 7) == (14, True)

    def test_exhaustive_small(self):
        for r in range(1, 5):
            for k in range(1, 5):
                for mu in mu_indices(r, k):
                    contribution, holds = verify_boundary_balance(mu, r, k)
                    assert holds and contribution == k * r, (mu, r, k)


class TestBoundaryData:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_mu_to_boundary(self, data):
        """_boundary_data is mu_to_boundary at each drawn level, r <= 4, levels up to 6, in any order."""
        r = data.draw(st.integers(min_value=1, max_value=4))
        k = data.draw(st.integers(min_value=1, max_value=5))
        mu = data.draw(st.sampled_from(list(mu_indices(r, k))))
        levels = data.draw(st.lists(st.integers(min_value=k, max_value=6), min_size=1, max_size=4))
        labels = data.draw(st.sampled_from([("x1", "x2"), ("x1@3", "x2@3"), ("a", "b")]))
        for level in levels:
            item = factorization._boundary_data(mu, r, level, *labels)
            assert item == mu_to_boundary(mu, r, level, labels=labels)
            for pt in (item.point1, item.point2):
                assert type(pt.flag) is FlagType
                assert type(pt.weights) is WeightVector
            assert item.balance(r, level) == verify_boundary_balance(mu, r, level)

    def test_mu_and_rank_checked(self):
        mu = Partition((2,))
        assert mu_to_boundary(mu, 2, 3) == factorization._boundary_data(mu, 2, 3, "x1", "x2")
        with pytest.raises(BoxViolationError, match=r"^\(2,\) exceeds rank 2 or width 1$"):
            mu_to_boundary(mu, 2, 2)
        with pytest.raises(ValueError, match="^rank must be a positive integer, got 0$"):
            mu_to_boundary(mu, 0, 3)
        with pytest.raises(ValueError, match="^parts must be weakly decreasing"):
            mu_to_boundary((1, 2), 2, 3)
        # mu is checked before the rank, and the rank before the level
        with pytest.raises(ValueError, match="^parts must be weakly decreasing"):
            mu_to_boundary((1, 2), 0, 0)
        with pytest.raises(ValueError, match="^rank must be a positive integer, got 0$"):
            mu_to_boundary(mu, 0, 0)

    @pytest.mark.parametrize("bad", [3.0, True, "3", 0, -1])
    def test_every_level_checked(self, bad):
        # a bad level is named, not blamed on the box or the second point
        message = f"^level must be a positive integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            mu_to_boundary((1,), 2, bad)
        with pytest.raises(ValueError, match=message):
            mu_to_boundary((2,), 2, bad, ("", None))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_checked_constructions(self, data):
        """At each drawn level, _boundary_data and mu_to_boundary equal, with the same hash, the checking constructors' BoundaryData, r <= 6.

        The reference reads mu's runs of equal entries: the first point's flag
        is their lengths top down, with weights from mu_r up by the drops top
        down; the second point's is their lengths bottom up, with the run
        values bottom up.
        """
        r = data.draw(st.integers(min_value=1, max_value=6))
        kmin = data.draw(st.integers(min_value=1, max_value=5))
        mu = data.draw(st.sampled_from(list(enumerate_in_box(r, kmin - 1))))
        levels = data.draw(st.lists(st.integers(min_value=kmin, max_value=kmin + 6), min_size=1, max_size=5))
        labels = data.draw(st.tuples(st.text(min_size=1), st.text(min_size=1)))
        padded = mu.padded(r)
        runs = [(value, len(list(run))) for value, run in groupby(padded)]
        values = [value for value, _ in runs]
        sizes = [size for _, size in runs]
        drops = [a - b for a, b in zip(values, values[1:])]
        weights1 = [padded[-1] + sum(drops[:i]) for i in range(len(runs))]
        point1 = MarkedPoint(labels[0], sizes, weights1, padded[-1])
        for k in levels:
            expected = BoundaryData(point1, MarkedPoint(labels[1], sizes[::-1], values[::-1], k - padded[0]))
            for got in (factorization._boundary_data(mu, r, k, *labels), mu_to_boundary(mu, r, k, labels)):
                assert type(got) is BoundaryData
                assert got == expected
                assert hash(got) == hash(expected)
                for pt in (got.point1, got.point2):
                    assert type(pt) is MarkedPoint
                    assert type(pt.flag) is FlagType
                    assert type(pt.weights) is WeightVector

    @pytest.mark.parametrize("labels", [("", "x2"), ("x1", 5), ("x1", None)])
    def test_labels_checked(self, labels):
        message = "^point label must be a nonempty string$"
        with pytest.raises(ValueError, match=message):
            mu_to_boundary(Partition((1,)), 2, 2, labels)
        # a bad level, or mu outside the box, is reported before a bad label
        with pytest.raises(ValueError, match="^level must be a positive integer, got 0$"):
            mu_to_boundary(Partition((1,)), 2, 0, labels)
        with pytest.raises(BoxViolationError, match=r"^\(2,\) exceeds rank 2 or width 1$"):
            mu_to_boundary(Partition((2,)), 2, 2, labels)

    @pytest.mark.parametrize("labels", [("a",), ("a", "b", "c"), None])
    def test_labels_not_a_pair(self, labels):
        # named, not Python's bare unpacking error
        message = f"^labels must be a pair of point labels, got {re.escape(_shown(labels))}$"
        with pytest.raises(ValueError, match=message):
            mu_to_boundary(Partition((1,)), 2, 2, labels)
        with pytest.raises(BoxViolationError, match=r"^\(2,\) exceeds rank 2 or width 1$"):
            mu_to_boundary(Partition((2,)), 2, 2, labels)


class TestDegenerate:
    def test_child_count_rank_one(self):
        spec = balanced_spec(genus=2, rank=1, level=2, ell=2)
        assert len(degenerate(spec)) == 2

    def test_child_count_rank_two(self):
        spec = balanced_spec(genus=2, rank=2, level=2, ell=2)
        assert len(degenerate(spec)) == 3

    def test_children_satisfy_star(self):
        spec = balanced_spec()
        for mu, child in degenerate(spec):
            lhs, rhs, holds = check_star(child)
            assert holds, (mu, lhs, rhs)
            assert child.genus == spec.genus - 1
            assert child.rank == spec.rank
            assert child.degree == spec.degree
            assert child.level == spec.level
            assert child.ell == spec.ell
            assert len(child.points) == len(spec.points) + 2

    def test_children_indexed_in_enumeration_order(self):
        spec = balanced_spec()
        mus = [mu for mu, _ in degenerate(spec)]
        assert mus == list(mu_indices(spec.rank, spec.level))

    def test_fresh_labels_nest(self):
        spec = balanced_spec()
        _, child = degenerate(spec)[0]
        assert {pt.label for pt in child.points} == {"x1@1", "x2@1"}
        _, grandchild = degenerate(child)[0]
        assert {pt.label for pt in grandchild.points} == {"x1@1", "x2@1", "x1@2", "x2@2"}

    def test_long_label_level_is_named(self):
        # a level suffix longer than a spec integer may be; int() would refuse 4,301 digits
        point = MarkedPoint("p@" + "1" * 4301, (1,), (0,), 0)
        spec = ModuliSpec(genus=1, rank=1, degree=1, level=1, ell=1, points=(point,))
        message = f"point {_shown(point.label)}: label level has more than 1000 digits"
        for build in (degenerate, lambda s: build_tree(s, 1)):
            with pytest.raises(ValueError) as info:
                build(spec)
            assert str(info.value) == message
        # 1,000 digits are still a level
        point = MarkedPoint("p@" + "9" * 1000, (1,), (0,), 0)
        (_, child), = degenerate(spec._replace(points=(point,)))
        assert child.points[-1].label == "x2@1" + "0" * 1000

    def test_rejects_genus_zero(self):
        spec = ModuliSpec(genus=0, rank=1, degree=1, level=1, ell=2, points=())
        assert check_star(spec)[2]
        with pytest.raises(ValueError):
            degenerate(spec)

    def test_rejects_unbalanced_spec(self):
        spec = ModuliSpec(genus=2, rank=2, degree=5, level=3, ell=3, points=())
        assert not check_star(spec)[2]
        with pytest.raises(ValueError):
            degenerate(spec)


@st.composite
def small_trees(draw, max_depth=2, max_nodes=200):
    """build_tree trees of depth bound 0 to max_depth and at most max_nodes nodes."""
    spec, depth = draw(small_balanced_specs()), draw(st.integers(0, max_depth))
    n = math.comb(spec.rank + spec.level - 1, spec.rank)
    assume(sum(n**i for i in range(min(depth, spec.genus) + 1)) <= max_nodes)
    return build_tree(spec, depth)


class TestBuildTree:
    def test_depth_zero(self):
        spec = balanced_spec()
        tree = build_tree(spec, 0)
        assert tree.depth == 0 and tree.mus == () and tree.rows == ()
        assert nodes_by_level(spec, 0) == [(0, (), spec)] and list(tree.leaves()) == [((), spec)]
        assert tree.node_count() == 1 and tree.leaf_count() == 1

    def test_rank_one_level_two(self):
        spec = balanced_spec(genus=2, rank=1, level=2, ell=2)
        tree = build_tree(spec, 2)
        assert tree.node_count() == 1 + 2 + 4
        assert tree.leaf_count() == 4

    def test_genus_one_rank_two(self):
        spec = balanced_spec(genus=1, rank=2, level=2, ell=2)
        tree = build_tree(spec, 1)
        assert tree.node_count() == 4
        assert tree.leaf_count() == 3

    def test_recursion_stops_at_genus_zero(self):
        spec = balanced_spec(genus=1, rank=1, level=2, ell=2)
        tree = build_tree(spec, 10)
        assert all(leaf.genus == 0 for _, leaf in tree.leaves())
        assert tree.node_count() == 3

    def test_every_node_satisfies_star(self):
        spec = balanced_spec()
        nodes = nodes_by_level(spec, 2)
        assert len(nodes) == 1 + 6 + 36
        for _, _, node in nodes:
            assert check_star(node)[2]

    def test_determinism(self):
        spec = balanced_spec()
        assert build_tree(spec, 2) == build_tree(spec, 2)

    @given(small_trees())
    @settings(max_examples=100, deadline=None)
    def test_counts_match_walk(self, tree):
        rows = list(reference_walk(reference_tree(tree.spec, tree.depth)))
        assert tree.node_count() == len(rows)
        assert tree.leaf_count() == sum(1 for _, _, node in rows if not node.children)
        assert tree.leaf_count() == sum(1 for _ in tree.leaves())

    def test_walk_paths(self):
        spec = balanced_spec(genus=2, rank=1, level=2, ell=2)
        paths = [(depth, tuple(tuple(mu) for mu in path)) for depth, path, _ in nodes_by_level(spec, 1)]
        assert paths == [(0, ()), (1, ((),)), (1, ((1,),))]

    def test_json_shape(self):
        spec = balanced_spec(genus=1, rank=2, level=2, ell=2)
        data = build_tree(spec, 1).to_json_dict()
        assert data["spec"]["genus"] == 1
        assert [edge["mu"] for edge in data["children"]] == [[0, 0], [1, 0], [1, 1]]
        assert all(edge["node"]["children"] == [] for edge in data["children"])

    def test_validation(self):
        with pytest.raises(ValueError):
            build_tree(balanced_spec(), -1)

    def test_balance_checked_once_per_internal_node(self, monkeypatch):
        calls = []

        def counting_check_star(spec):
            calls.append(spec)
            return check_star(spec)

        internal = sum(1 for level, _, _ in reference_walk(reference_tree(balanced_spec(genus=3), 3)) if level < 3)
        monkeypatch.setattr(factorization, "check_star", counting_check_star)
        build_tree(balanced_spec(genus=3), 3)
        assert internal == 1 + 6 + 36
        assert 0 < len(calls) <= internal + 1
        # no leaf is checked: children stay balanced by construction
        assert all(spec.genus > 0 for spec in calls)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_unbalanced_root_rejected(self, depth):
        spec = ModuliSpec(genus=2, rank=2, degree=5, level=3, ell=3, points=())
        with pytest.raises(ValueError, match="balance"):
            build_tree(spec, depth)


class TestTreeEngine:
    @given(small_balanced_specs(), st.integers(0, 4))
    @settings(max_examples=120, deadline=None)
    def test_equals_chained_degenerate(self, spec, depth):
        n = math.comb(spec.rank + spec.level - 1, spec.rank)
        assume(sum(n**i for i in range(min(depth, spec.genus) + 1)) <= 500)
        tree = build_tree(spec, depth)
        expected = reference_tree(spec, depth)
        # the specs, mu labels and child order of every node
        assert nodes_by_level(spec, depth) == walk_specs(reference_walk(expected))
        if spec.genus:
            assert degenerate(spec) == [(mu, child.spec) for mu, child in reference_tree(spec, 1).children]
        assert tree.node_count() == sum(1 for _ in reference_walk(expected))
        assert tree.leaf_count() == sum(1 for _, _, node in reference_walk(expected) if not node.children)
        data = tree.to_json_dict()
        assert data == reference_json(expected, spec.rank)
        # one dict per distinct point, shared by every node that carries it
        distinct = {pt for _, _, node in nodes_by_level(spec, depth) for pt in node.points}
        assert len({id(point) for point in json_point_dicts(data)}) == len(distinct)
        value = lambda leaf: len(leaf.points) + leaf.degree
        expected_sum = sum(value(node.spec) for _, _, node in reference_walk(expected) if not node.children)
        assert aggregate_dimension(tree, value) == expected_sum

    @given(small_balanced_specs(), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_every_subtree_is_a_built_tree(self, spec, depth):
        n = math.comb(spec.rank + spec.level - 1, spec.rank)
        assume(sum(n**i for i in range(min(depth, spec.genus) + 1)) <= 500)
        rows = list(reference_walk(reference_tree(spec, depth)))
        nodes = nodes_by_level(spec, depth)
        assert nodes == walk_specs(rows)
        for i, (level, path, node) in enumerate(rows):
            # the node and those below it: the reference walk up to the next node at its level or above
            end = next((j for j in range(i + 1, len(rows)) if rows[j][0] <= level), len(rows))
            below = [(d - level, p[level:], other) for d, p, other in walk_specs(rows[i:end])]
            assert nodes_by_level(node.spec, depth - level) == below
            # and the built tree's nodes under the node's path
            under = [(d - level, p[level:], other) for d, p, other in nodes if d >= level and p[:level] == path]
            assert under == below

    @given(small_trees())
    @settings(max_examples=100, deadline=None)
    def test_record_methods_read_the_fields(self, tree):
        # == and hash read the record (spec, depth, mus, rows), repr only spec and depth
        fields = (tree.spec, tree.depth, tree.mus, tree.rows)
        assert tree._fields == ("spec", "depth", "mus", "rows")
        assert hash(tree) == hash(fields)
        assert repr(tree) == f"DecompositionTree(spec={tree.spec!r}, depth={tree.depth!r})"
        assert tree.depth == min(tree.depth, tree.spec.genus)
        assert len(tree.rows) == tree.depth and all(len(row) == len(tree.mus) for row in tree.rows)
        assert (tree.mus == ()) == (tree.depth == 0) == (list(tree.leaves()) == [((), tree.spec)])
        other = DecompositionTree(tree.spec, tree.depth + 1)
        assert (other == tree) == (tree.depth == tree.spec.genus) == (other.rows == tree.rows)

    @given(small_balanced_specs(), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_children_equal_publicly_built_specs(self, spec, depth):
        # every slot of a node build_tree makes, against the public constructor
        n = math.comb(spec.rank + spec.level - 1, spec.rank)
        assume(sum(n**i for i in range(min(depth, spec.genus) + 1)) <= 500)
        for _, _, child in nodes_by_level(spec, depth):
            public = ModuliSpec(
                child.genus, child.rank, child.degree, child.level, child.ell, child.points
            )
            assert child == public and hash(child) == hash(public)
            assert repr(child) == repr(public)
            # every slot holds the very value the public constructor stores
            for field in ModuliSpec._fields:
                assert getattr(child, field) is getattr(public, field)

    @pytest.mark.parametrize(
        "bad,message",
        [
            (MarkedPoint("wide", [2, 1], [0, 1], 0), r"point 'wide': flag multiplicities sum to 3, rank is 2"),
            (MarkedPoint("heavy", [1, 1], [0, 4], 0), r"point 'heavy': weight 4 exceeds level 3"),
            ("x2", "points must be MarkedPoint values"),
        ],
        ids=["wrong-rank", "too-heavy", "not-a-point"],
    )
    def test_boundary_row_checks_its_points(self, monkeypatch, bad, message):
        spec = balanced_spec()
        last = list(mu_indices(spec.rank, spec.level))[-1]

        def bad_last_point(mu, r, k, labels):
            data = mu_to_boundary(mu, r, k, labels)
            return data._replace(point2=bad) if mu == last else data

        monkeypatch.setattr(factorization, "mu_to_boundary", bad_last_point)
        with pytest.raises(ValueError, match=message):
            build_tree(spec, 2)
        with pytest.raises(ValueError, match=message):
            degenerate(spec)
        # the public constructor gives the same messages
        with pytest.raises(ValueError, match=message):
            ModuliSpec(1, 2, 4, 3, 3, (bad,))

    def test_each_boundary_point_checked_once(self, monkeypatch):
        checked = []
        check_point = ModuliSpec._check_point

        def counting_check_point(self, pt):
            checked.append(pt)
            check_point(self, pt)

        monkeypatch.setattr(ModuliSpec, "_check_point", counting_check_point)
        spec = balanced_spec(genus=3)
        n = len(list(mu_indices(spec.rank, spec.level)))
        tree = build_tree(spec, 3)
        # two new points per mu and tree level, each checked once
        assert len(checked) == len(set(checked)) == 2 * n * 3
        # every point a node carries is on a leaf below it
        added = {pt for _, leaf in tree.leaves() for pt in leaf.points}
        assert added == set(checked)
        level_one = [child.spec for _, child in reference_tree(spec, 1).children]
        checked.clear()
        assert [child for _, child in degenerate(spec)] == level_one
        assert len(checked) == 2 * n

    def test_children_skip_the_full_check(self, monkeypatch):
        calls = []
        post_init = ModuliSpec.__post_init__

        def counting_post_init(self):
            calls.append(self)
            post_init(self)

        spec = balanced_spec(genus=3)
        monkeypatch.setattr(ModuliSpec, "__post_init__", counting_post_init)
        tree = build_tree(spec, 3)
        assert tree.node_count() == 1 + 6 + 6**2 + 6**3
        assert calls == []
        degenerate(spec)
        assert calls == []

    def test_mu_to_boundary_once_per_mu_and_level(self, monkeypatch):
        calls = []

        def counting_mu_to_boundary(*args, **kwargs):
            calls.append(args)
            return mu_to_boundary(*args, **kwargs)

        monkeypatch.setattr(factorization, "mu_to_boundary", counting_mu_to_boundary)
        spec = balanced_spec(genus=3)
        n = len(list(mu_indices(spec.rank, spec.level)))
        for depth in (3, 5):
            tree = build_tree(spec, depth)
            assert tree.node_count() == 1 + n + n**2 + n**3
            assert len(calls) == n * 3
            # a second build makes the same calls: nothing is kept between builds
            calls.clear()
            assert build_tree(spec, depth) == tree
            assert len(calls) == n * 3
            calls.clear()

    def test_siblings_share_boundary_points(self):
        tree = build_tree(balanced_spec(genus=2), 2)
        # the first grandchild under each of the first two children
        grandchildren = [node for _, node in tree.leaves()]
        assert grandchildren[0].points[-1] is grandchildren[len(tree.mus)].points[-1]
        data = tree.to_json_dict()
        assert data == reference_json(reference_tree(tree.spec, 2), 2)
        first, second = (edge["node"]["children"][0]["node"] for edge in data["children"][:2])
        assert first["spec"]["points"][-1] is second["spec"]["points"][-1]
        # the x1@1 dict is shared by the child and its own children
        child = data["children"][0]["node"]
        assert child["spec"]["points"][0] is child["children"][0]["node"]["spec"]["points"][0]

    @pytest.mark.parametrize(
        "owner,name",
        [(MarkedPoint, "__hash__"), (DecompositionTree, "_leaf_specs"), (ModuliSpec, "_unchecked")],
    )
    def test_json_reads_only_rows_and_points(self, monkeypatch, owner, name):
        # a root with points of its own, one of them with two flag steps (mu = (2, 1)):
        # the JSON hashes no point, walks no tree and makes no spec below the root
        _, spec = degenerate(balanced_spec(genus=3))[4]
        tree = build_tree(spec, 2)
        expected = tree.to_json_dict()

        def refuse(*args):
            raise AssertionError(f"{owner.__name__}.{name} was called")

        monkeypatch.setattr(owner, name, refuse)
        assert tree.to_json_dict() == expected

    @pytest.mark.parametrize(
        "spec,depth",
        [
            (balanced_spec(genus=0, level=10**6, ell=10**6), 3),
            (balanced_spec(genus=0, rank=10**8, level=1, ell=1), 1),
            (balanced_spec(genus=3, level=10**6, ell=10**6), 0),
        ],
    )
    def test_leaf_root_never_enumerates_the_box(self, monkeypatch, spec, depth):
        # C(10**6 + 1, 2) mu indices in the first box, rows of 10**8 in the second
        def no_box(r, k):
            raise AssertionError("the mu box was enumerated for a leaf")

        monkeypatch.setattr(factorization, "mu_indices", no_box)
        tree = build_tree(spec, depth)
        assert tree == DecompositionTree(spec, 0)
        assert tree.mus == () and tree.rows == ()
        assert tree.node_count() == 1

    def test_deep_chain_without_recursion(self):
        # rank 1, level 1: one mu per node, so the tree is a chain of 1,101 nodes
        chain = ModuliSpec(genus=1100, rank=1, degree=1100, level=1, ell=1, points=())
        tree = build_tree(chain, 1100)
        assert tree.node_count() == 1101
        assert tree.leaf_count() == 1
        assert aggregate_dimension(tree, lambda s: 1) == 1
        (path, leaf), = tree.leaves()
        assert len(path) == 1100 and leaf.genus == 0
        assert leaf.points[-1].label == "x2@1100"
        paths = list(cli._mu_paths(tree))
        assert [depth for depth, _ in paths] == list(range(1101))
        assert paths[0] == (0, "") and paths[-1] == (1100, ">".join(["[0]"] * len(path)))

    def test_json_dict_of_a_deep_chain(self):
        # 1,101 nested node dicts, built without recursion
        chain = ModuliSpec(genus=1100, rank=1, degree=1100, level=1, ell=1, points=())
        tree = build_tree(chain, 1100)
        data = tree.to_json_dict()
        nodes, node = [], data
        while True:
            assert list(node) == ["spec", "children"]
            nodes.append(node)
            if not node["children"]:
                break
            (edge,) = node["children"]
            assert edge["mu"] == [0]
            node = edge["node"]
        assert len(nodes) == 1101
        (_, leaf), = tree.leaves()
        assert nodes[-1]["spec"] == leaf.to_json_dict()
        # each boundary point is one dict, listed by every node below its level
        points = [id(point) for node in nodes for point in node["spec"]["points"]]
        assert len(points) == 1100 * 1101 and len(set(points)) == 2200

    def test_record_methods_on_a_deep_chain(self):
        # ==, hash and repr read the root, the depth, one mu and 1,100 rows of one pair
        chain = ModuliSpec(genus=1100, rank=1, degree=1100, level=1, ell=1, points=())
        tree = build_tree(chain, 1100)
        other = build_tree(chain, 1100)
        assert other is not tree and other == tree
        assert hash(other) == hash(tree)
        assert tree != build_tree(chain, 1099)
        assert repr(tree) == f"DecompositionTree(spec={chain!r}, depth=1100)"
        ((_, child),) = degenerate(chain)
        below = build_tree(child, 1099)
        assert below == build_tree(child, 1099) and hash(below) == hash(build_tree(child, 1099))
        assert repr(below) == f"DecompositionTree(spec={child!r}, depth=1099)"
        # the tree below the root is the root's mus and rows less the first level
        assert below.mus == tree.mus and below.rows == tree.rows[1:]

    def test_inequality(self):
        spec = balanced_spec()
        tree = build_tree(spec, 2)
        (_, first), (_, second), *_ = degenerate(spec)
        assert build_tree(first, 1) != build_tree(second, 1)
        variants = [
            build_tree(spec, 1),
            build_tree(spec, 0),
            build_tree(balanced_spec(genus=3), 2),
            build_tree(first, 1),
        ]
        for variant in variants:
            assert variant != tree and tree != variant
        assert build_tree(spec, 5) == tree
        assert tree.__eq__(spec) is False and tree != spec and spec != tree

    def test_build_makes_no_node_below_the_root(self, monkeypatch):
        # specs are made as the tree is read, once per read; a node is its spec, and
        # leaves() and aggregate_dimension make a spec only at each leaf, the mu path labels none
        made = []
        make = ModuliSpec._unchecked

        def counting_unchecked(spec, genus, points):
            made.append(genus)
            return make(spec, genus, points)

        monkeypatch.setattr(ModuliSpec, "_unchecked", staticmethod(counting_unchecked))
        tree = build_tree(balanced_spec(genus=3), 3)
        assert tree.node_count() == 1 + 6 + 6**2 + 6**3 and tree.leaf_count() == 6**3
        assert made == []
        assert sum(1 for _ in cli._mu_paths(tree)) == tree.node_count()
        assert made == []
        assert [type(leaf) for _, leaf in tree.leaves()] == [ModuliSpec] * tree.leaf_count()
        assert made == [0] * tree.leaf_count()
        made.clear()
        assert aggregate_dimension(tree, lambda leaf: 1) == tree.leaf_count()
        assert made == [0] * tree.leaf_count()

    def test_constructor_runs_the_checks(self):
        spec = balanced_spec()
        tree = DecompositionTree(spec, 5)
        assert tree == build_tree(spec, 2) and tree.depth == 2
        unbalanced = ModuliSpec(genus=2, rank=2, degree=5, level=3, ell=3, points=())
        with pytest.raises(ValueError, match="balance"):
            DecompositionTree(unbalanced, 1)
        with pytest.raises(ValueError, match="balance"):
            tree._replace(spec=unbalanced)
        assert tree._replace(depth=1) == build_tree(spec, 1)
        # copy.replace (Python 3.13 on) calls __replace__, which must be this _replace
        assert tree.__replace__(depth=1) == build_tree(spec, 1)
        # the derived fields are no arguments
        with pytest.raises(ValueError):
            tree._replace(rows=())
        with pytest.raises(TypeError):
            DecompositionTree(spec, 1, tree.mus)

    @pytest.mark.parametrize("children", [(), "children", "nested"], ids=["empty", "children", "nested"])
    def test_children_argument_raises(self, children):
        # a tuple of (mu, subtree) children is no depth: it raises, and builds no leaf
        spec = balanced_spec()
        tree = build_tree(spec, 2)
        subtrees = tuple((mu, build_tree(child, 1)) for mu, child in degenerate(spec))
        children = {"children": subtrees, "nested": ((Partition(()), tree),)}.get(children, children)
        with pytest.raises(ValueError, match="^depth must be a nonnegative integer, got "):
            DecompositionTree(spec, children)
        with pytest.raises(TypeError):
            DecompositionTree(spec)


class TestWalkReaders:
    """Each level's leaves, leaves, to_json_dict and the counts match a recursion over reference_tree's children."""

    @given(small_trees())
    @settings(max_examples=150, deadline=None)
    def test_match_the_recursive_references(self, tree):
        expected = reference_tree(tree.spec, tree.depth)
        assert tree.to_json_dict() == reference_json(expected, tree.spec.rank)
        rows = list(reference_walk(expected))
        assert nodes_by_level(tree.spec, tree.depth) == walk_specs(rows)
        assert list(tree.leaves()) == [(path, node.spec) for _, path, node in rows if not node.children]
        assert tree.node_count() == len(rows)
        assert tree.leaf_count() == sum(1 for _, _, node in rows if not node.children)


class TestAggregate:
    def test_constant_oracle_counts_leaves(self):
        spec = balanced_spec(genus=2, rank=1, level=2, ell=2)
        tree = build_tree(spec, 2)
        assert aggregate_dimension(tree, lambda s: 1) == 4
        assert aggregate_dimension(tree, lambda s: 0) == 0

    def test_depth_one_sum(self):
        spec = balanced_spec(genus=1, rank=2, level=2, ell=2)
        tree = build_tree(spec, 1)
        values = iter([5, 7, 11])
        table = {leaf.sha256(): next(values) for _, leaf in tree.leaves()}
        assert aggregate_dimension(tree, lambda s: table[s.sha256()]) == 23

    def test_doubling_linearity(self):
        spec = balanced_spec()
        tree = build_tree(spec, 2)
        base = aggregate_dimension(tree, lambda s: 3)
        doubled = aggregate_dimension(tree, lambda s: 6)
        assert doubled == 2 * base

    def test_oracle_failure_carries_spec(self):
        spec = balanced_spec(genus=1, rank=1, level=2, ell=2)
        tree = build_tree(spec, 1)

        def broken(s):
            raise KeyError("missing")

        with pytest.raises(LeafOracleError) as info:
            aggregate_dimension(tree, broken)
        assert info.value.spec.genus == 0
        # the leaf is stated once, as its sha256
        assert str(info.value) == f"leaf oracle failed on leaf {info.value.spec.sha256()}: 'missing'"

    def test_oracle_own_failure_passes_unwrapped(self):
        tree = build_tree(balanced_spec(genus=1, rank=1, level=2, ell=2), 1)
        own = LeafOracleError(tree.spec, "raised by the oracle itself")

        def oracle(s):
            raise own

        with pytest.raises(LeafOracleError) as info:
            aggregate_dimension(tree, oracle)
        assert info.value is own and info.value.__cause__ is None

    def test_oracle_must_return_integer(self):
        spec = balanced_spec(genus=1, rank=1, level=2, ell=2)
        tree = build_tree(spec, 1)
        with pytest.raises(LeafOracleError):
            aggregate_dimension(tree, lambda s: 1.5)
        with pytest.raises(LeafOracleError):
            aggregate_dimension(tree, lambda s: True)

    @given(small_trees(), st.integers(0, 60))
    @settings(max_examples=150, deadline=None)
    def test_oracle_called_in_leaves_order(self, tree, fail_at):
        leaves = [leaf for _, leaf in tree.leaves()]
        calls = []

        def oracle(spec):
            calls.append(spec)
            if len(calls) == fail_at + 1:
                raise KeyError("missing")
            return spec.degree

        if fail_at < len(leaves):
            with pytest.raises(LeafOracleError) as info:
                aggregate_dimension(tree, oracle)
            assert info.value.spec is calls[-1] and calls[-1] == leaves[fail_at]
            assert calls == leaves[: fail_at + 1]
        else:
            assert aggregate_dimension(tree, oracle) == sum(spec.degree for spec in leaves)
            assert calls == leaves


def raise_value_error(spec):
    raise ValueError("no value")


def raise_own_error(spec):
    raise LeafOracleError(spec, "raised by the oracle itself")


class TestLeafDescent:
    # depth bounds up to 3, the largest genus small_balanced_specs draws, so every depth from 0 to the genus
    @given(small_trees(max_depth=3, max_nodes=400))
    @settings(max_examples=150, deadline=None)
    def test_leaves_are_the_deepest_walk_nodes(self, tree):
        leaves = list(tree.leaves())
        rows = reference_walk(reference_tree(tree.spec, tree.depth))
        assert leaves == [(path, node.spec) for depth, path, node in rows if depth == tree.depth]
        for _, leaf in leaves:
            # the unchecked leaf equals the one the checking constructor makes of its fields
            checked = ModuliSpec(leaf.genus, leaf.rank, leaf.degree, leaf.level, leaf.ell, leaf.points)
            assert leaf == checked and hash(leaf) == hash(checked)
        seen = []
        assert aggregate_dimension(tree, lambda spec: seen.append(spec) or 1) == len(leaves)
        assert seen == [leaf for _, leaf in leaves]

    @pytest.mark.parametrize("k", [0, 1, 17, 35])
    @pytest.mark.parametrize(
        "fail",
        [
            pytest.param(raise_value_error, id="raises"),
            pytest.param(raise_own_error, id="raises-its-own"),
            pytest.param(lambda spec: True, id="true"),
            pytest.param(lambda spec: None, id="none"),
        ],
    )
    def test_oracle_fails_at_the_kth_leaf(self, k, fail):
        tree = build_tree(balanced_spec(genus=2), 2)
        leaves = [node.spec for depth, _, node in reference_walk(reference_tree(tree.spec, 2)) if depth == 2]
        assert len(leaves) == 36
        calls = []

        def oracle(spec):
            calls.append(spec)
            return fail(spec) if len(calls) == k + 1 else 1

        with pytest.raises(LeafOracleError) as info:
            aggregate_dimension(tree, oracle)
        assert info.value.spec is calls[-1] and info.value.spec == leaves[k]
        assert calls == leaves[: k + 1]
        assert f"leaf oracle failed on leaf {leaves[k].sha256()}: " in str(info.value)

    def test_depth_zero_tree_calls_the_oracle_on_the_root(self):
        spec = balanced_spec(genus=2)
        calls = []
        assert aggregate_dimension(build_tree(spec, 0), lambda leaf: calls.append(leaf) or 5) == 5
        assert len(calls) == 1 and calls[0] is spec


@st.composite
def stratum_data(draw):
    """StratumDatum values: flags of 1 to 3 pieces of 1 to 3, and a split m with r1 = sum(m) >= 1."""
    n = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    m = [draw(st.integers(0, n_j)) for n_j in n]
    assume(sum(m) >= 1)
    return StratumDatum(sum(m), n, m)


boundary_data = st.integers(1, 3).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda k: st.sampled_from(list(mu_indices(r, k))).map(lambda mu: mu_to_boundary(mu, r, k))
    )
)

# Per record class: a strategy for its values, the fields its constructor takes, and a
# change to one of them that the constructor refuses (None where it checks nothing).
RECORDS = {
    MarkedPoint: (boundary_data.map(lambda data: data.point2), ("label", "flag", "weights", "alpha"), ("alpha", -1)),
    ModuliSpec: (small_balanced_specs(), ("genus", "rank", "degree", "level", "ell", "points"), ("rank", 0)),
    BoundaryData: (boundary_data, ("point1", "point2"), None),
    DecompositionTree: (small_trees(), ("spec", "depth"), ("depth", -1)),
    BranchingTable: (st.builds(decompose_rectangular, st.integers(1, 3), st.integers(0, 3)), ("r", "m", "rows"), None),
    StratumDatum: (stratum_data(), ("r1", "n", "m"), ("r1", 0)),
}


class TestRecords:
    @pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_records_are_checked_immutable_values(self, cls, data):
        values, arguments, refused = RECORDS[cls]
        record = data.draw(values)
        assert type(record) is cls
        fields = tuple(getattr(record, name) for name in record._fields)
        # repr names the constructor's fields, == and hash read every field
        shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in arguments)
        assert repr(record) == f"{cls.__name__}({shown})"
        assert hash(record) == hash(fields)
        assert record == cls(*(getattr(record, name) for name in arguments))
        # equal only to a record of its own class: not a plain tuple, nor a subclass, either way round
        twin = tuple.__new__(type("Twin", (cls,), {"__slots__": ()}), record)
        for other in (fields, tuple(record), twin):
            assert not record == other and not other == record
            assert record != other and other != record
        # immutable: no field is set, and no attribute added
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(copied) is cls and copied == record
        assert record._replace() == record
        if refused is None:
            name = data.draw(st.sampled_from(arguments))
            assert record._replace(**{name: fields[0]}) == cls(**{**record._asdict(), name: fields[0]})
            return
        # _replace goes through the constructor: a refused value raises its message
        name, value = refused
        with pytest.raises(ValueError) as direct:
            cls(**{**{arg: getattr(record, arg) for arg in arguments}, name: value})
        with pytest.raises(ValueError) as replaced:
            record._replace(**{name: value})
        assert str(replaced.value) == str(direct.value)
