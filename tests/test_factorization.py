"""Boundary data, balance, and the genus-reduction recursion."""

import dataclasses
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from theta_factor import factorization
from theta_factor.partitions import _shown
from theta_factor import (
    BoxViolationError,
    DecompositionTree,
    FlagType,
    LeafOracleError,
    MarkedPoint,
    ModuliSpec,
    Partition,
    WeightVector,
    aggregate_dimension,
    box_count,
    build_tree,
    check_star,
    degenerate,
    mu_indices,
    mu_to_boundary,
    verify_boundary_balance,
)


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


def reference_tree(spec, depth):
    """The tree made one node at a time by the public constructors.

    Each child is ModuliSpec(...), which checks every point, with the two
    points mu_to_boundary gives, labeled one above the node's highest @n
    suffix; build_tree and degenerate share none of this code path.
    """
    if depth == 0 or spec.genus == 0:
        return DecompositionTree(spec, ())
    suffixes = [pt.label.rpartition("@") for pt in spec.points]
    level = 1 + max((int(tail) for _, sep, tail in suffixes if sep and tail.isdecimal()), default=0)
    children = []
    for mu in mu_indices(spec.rank, spec.level):
        data = mu_to_boundary(mu, spec.rank, spec.level, (f"x1@{level}", f"x2@{level}"))
        points = spec.points + (data.point1, data.point2)
        child = ModuliSpec(spec.genus - 1, spec.rank, spec.degree, spec.level, spec.ell, points)
        children.append((mu, reference_tree(child, depth - 1)))
    return DecompositionTree(spec, tuple(children))


def reference_walk(tree, depth=0, path=()):
    yield depth, path, tree
    for mu, child in tree.children:
        yield from reference_walk(child, depth + 1, path + (mu,))


# DecompositionTree's ==, hash and repr must give what these
# dataclass-generated methods give; the generated ones recurse per level.
ReferenceTree = dataclasses.make_dataclass(
    "DecompositionTree",
    [("spec", ModuliSpec), ("children", tuple, dataclasses.field(default=()))],
    frozen=True,
)


def reference_dataclass_tree(tree):
    return ReferenceTree(
        tree.spec, tuple((mu, reference_dataclass_tree(child)) for mu, child in tree.children)
    )


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
        assert data.l == 2
        p1, p2 = data.point1, data.point2
        assert p1.label == "x1" and p2.label == "x2"
        assert tuple(p1.flag) == (2, 1, 1)
        assert tuple(p1.weights) == (0, 2, 3)
        assert p1.alpha == 0
        assert tuple(p2.flag) == (1, 1, 2)
        assert p2.flag.partial_sums()[:2] == (1, 2)
        assert tuple(p2.weights.differences()) == (1, 2)
        assert p2.alpha == 4 - 3

    def test_single_jump(self):
        data = mu_to_boundary(Partition((1,)), 2, 2)
        assert data.l == 1
        assert tuple(data.point1.flag) == (1, 1)
        assert tuple(data.point1.weights) == (0, 1)
        assert data.point1.alpha == 0
        assert tuple(data.point2.flag) == (1, 1)
        assert data.point2.alpha == 1

    def test_constant_mu(self):
        data = mu_to_boundary(Partition((2, 2, 2)), 3, 5)
        assert data.l == 0
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

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_reversal_relations(self, data):
        r = data.draw(st.integers(min_value=1, max_value=5))
        k = data.draw(st.integers(min_value=1, max_value=5))
        rows = data.draw(st.lists(st.integers(min_value=0, max_value=k - 1), max_size=r))
        mu = Partition(sorted(rows, reverse=True))
        bdry = mu_to_boundary(mu, r, k)
        s1 = bdry.point1.flag.partial_sums()[:-1]
        s2 = bdry.point2.flag.partial_sums()[:-1]
        d1 = bdry.point1.weights.differences()
        d2 = bdry.point2.weights.differences()
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

        assert bdry.l == len(positions)
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


class TestBoundaryLevels:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_items_equal_one_level_calls(self, data):
        """Each item is mu_to_boundary at its level, r <= 4, levels up to 6, in any order."""
        r = data.draw(st.integers(min_value=1, max_value=4))
        k = data.draw(st.integers(min_value=1, max_value=5))
        mu = data.draw(st.sampled_from(list(mu_indices(r, k))))
        levels = data.draw(st.lists(st.integers(min_value=k, max_value=6), min_size=1, max_size=4))
        labels = data.draw(st.sampled_from([("x1", "x2"), ("x1@3", "x2@3"), ("a", "b")]))
        items = list(factorization.boundary_levels(mu, r, levels, labels))
        assert len(items) == len(levels)
        for level, item in zip(levels, items):
            assert item == mu_to_boundary(mu, r, level, labels=labels)
            for pt in (item.point1, item.point2):
                assert type(pt.flag) is FlagType
                assert type(pt.weights) is WeightVector
            assert item.balance(r, level) == verify_boundary_balance(mu, r, level)
        # the first point, and the second point's flag and weights, are made once
        assert all(item.point1 is items[0].point1 for item in items)
        assert all(item.point2.flag is items[0].point2.flag for item in items)
        assert all(item.point2.weights is items[0].point2.weights for item in items)

    def test_mu_checked_at_the_smallest_level(self):
        mu = Partition((2,))
        assert len(list(factorization.boundary_levels(mu, 2, [5, 3, 4]))) == 3
        with pytest.raises(BoxViolationError):
            list(factorization.boundary_levels(mu, 2, [5, 2, 4]))
        with pytest.raises(ValueError):
            list(factorization.boundary_levels(mu, 0, [3]))
        with pytest.raises(ValueError):
            list(factorization.boundary_levels((1, 2), 2, [3]))
        assert list(factorization.boundary_levels(mu, 2, [])) == []


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
        (_, child), = degenerate(dataclasses.replace(spec, points=(point,)))
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


def tree_shapes():
    """Nested tuples of children: () is a leaf."""
    return st.recursive(st.just(()), lambda kids: st.lists(kids, max_size=4).map(tuple), max_leaves=40)


def irregular_tree(shape):
    """A hand-built tree of the given shape: node i of the preorder has degree i."""
    count = 0

    def make(kids):
        nonlocal count
        spec = ModuliSpec(0, 1, count, 1, 1)
        count += 1
        return DecompositionTree(spec, tuple((Partition((i,)), make(kid)) for i, kid in enumerate(kids)))

    return make(shape)


@st.composite
def small_trees(draw):
    """irregular_tree trees, and build_tree trees of at most 200 nodes."""
    if draw(st.booleans()):
        return irregular_tree(draw(tree_shapes()))
    spec, depth = draw(small_balanced_specs()), draw(st.integers(0, 2))
    n = math.comb(spec.rank + spec.level - 1, spec.rank)
    assume(sum(n**i for i in range(min(depth, spec.genus) + 1)) <= 200)
    return build_tree(spec, depth)


class SubclassTree(DecompositionTree):
    """A node of another class: == tells it from a DecompositionTree with its data."""


def changed(tree, target, change):
    """A fresh copy of tree, with one change at node number target of the preorder."""
    count = 0

    def copy(node):
        nonlocal count
        here = count
        count += 1
        spec, cls = node.spec, DecompositionTree
        children = [(mu, copy(child)) for mu, child in node.children]
        if here == target:
            if change == "spec":
                spec = balanced_spec(genus=5)
            elif change == "mu" and children:
                children[0] = (Partition((9,)), children[0][1])
            elif change == "order":
                children.reverse()
            elif change == "leaf":
                children.append((Partition(()), DecompositionTree(spec)))
            elif change == "subclass":
                cls = SubclassTree
        return cls(spec, tuple(children))

    return copy(tree)


def pairwise_eq(self, other):
    """DecompositionTree.__eq__ as it was: the two trees walked pairwise on one stack."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    stack = [(self, other)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if a.__class__ is not b.__class__ or not isinstance(a, DecompositionTree):
            if a != b:
                return False
            continue
        if a.spec != b.spec or len(a.children) != len(b.children):
            return False
        for (mu_a, child_a), (mu_b, child_b) in zip(a.children, b.children):
            if mu_a != mu_b:
                return False
            stack.append((child_a, child_b))
    return True


class TestBuildTree:
    def test_depth_zero(self):
        spec = balanced_spec()
        tree = build_tree(spec, 0)
        assert tree.is_leaf()
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
        assert all(node.spec.genus == 0 for _, node in tree.leaves())
        assert tree.node_count() == 3

    def test_every_node_satisfies_star(self):
        spec = balanced_spec()
        tree = build_tree(spec, 2)
        for _, _, node in tree.walk():
            assert check_star(node.spec)[2]

    def test_determinism(self):
        spec = balanced_spec()
        assert build_tree(spec, 2) == build_tree(spec, 2)

    @given(tree_shapes())
    @settings(max_examples=100, deadline=None)
    def test_counts_match_walk(self, shape):
        tree = irregular_tree(shape)
        assert tree.node_count() == sum(1 for _ in tree.walk())
        assert tree.leaf_count() == sum(1 for _ in tree.leaves())

    def test_walk_paths(self):
        spec = balanced_spec(genus=2, rank=1, level=2, ell=2)
        tree = build_tree(spec, 1)
        paths = [(depth, tuple(tuple(mu) for mu in path)) for depth, path, _ in tree.walk()]
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

        monkeypatch.setattr(factorization, "check_star", counting_check_star)
        tree = build_tree(balanced_spec(genus=3), 3)
        internal = sum(1 for _, _, node in tree.walk() if not node.is_leaf())
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
        # dataclass equality compares specs, mu labels and child order
        assert tree == expected
        if spec.genus:
            assert degenerate(spec) == [(mu, child.spec) for mu, child in reference_tree(spec, 1).children]
        assert list(tree.walk()) == list(reference_walk(expected))
        assert tree.node_count() == sum(1 for _ in reference_walk(expected))
        data = tree.to_json_dict()
        assert data == reference_json(expected, spec.rank)
        # one dict per distinct point, shared by every node that carries it
        distinct = {pt for _, _, node in tree.walk() for pt in node.spec.points}
        assert len({id(point) for point in json_point_dicts(data)}) == len(distinct)
        reference = reference_dataclass_tree(expected)
        assert repr(tree) == repr(reference)
        assert hash(tree) == hash(expected)
        value = lambda leaf: len(leaf.points) + leaf.degree
        expected_sum = sum(value(node.spec) for _, _, node in reference_walk(expected) if node.is_leaf())
        assert aggregate_dimension(tree, value) == expected_sum

    @given(small_balanced_specs(), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_children_equal_publicly_built_specs(self, spec, depth):
        # every slot of a node build_tree makes, against the public constructor
        n = math.comb(spec.rank + spec.level - 1, spec.rank)
        assume(sum(n**i for i in range(min(depth, spec.genus) + 1)) <= 500)
        for _, _, node in build_tree(spec, depth).walk():
            child = node.spec
            public = ModuliSpec(
                child.genus, child.rank, child.degree, child.level, child.ell, child.points
            )
            assert child == public and hash(child) == hash(public)
            assert repr(child) == repr(public)
            # every slot holds the very value the public constructor stores
            for field in dataclasses.fields(ModuliSpec):
                assert getattr(child, field.name) is getattr(public, field.name)

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
            return dataclasses.replace(data, point2=bad) if mu == last else data

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
        added = {pt for _, _, node in tree.walk() for pt in node.spec.points}
        assert added == set(checked)
        checked.clear()
        assert [child for _, child in degenerate(spec)] == [child.spec for _, child in tree.children]
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
        (_, first), (_, second) = tree.children[:2]
        assert first.children[0][1].spec.points[-1] is second.children[0][1].spec.points[-1]
        data = tree.to_json_dict()
        assert data == reference_json(tree, 2)
        first, second = (edge["node"]["children"][0]["node"] for edge in data["children"][:2])
        assert first["spec"]["points"][-1] is second["spec"]["points"][-1]
        # the x1@1 dict is shared by the child and its own children
        child = data["children"][0]["node"]
        assert child["spec"]["points"][0] is child["children"][0]["node"]["spec"]["points"][0]

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
        assert tree == DecompositionTree(spec, ())
        assert tree.node_count() == 1

    def test_deep_chain_without_recursion(self):
        # rank 1, level 1: one mu per node, so the tree is a chain of 1,101 nodes
        chain = ModuliSpec(genus=1100, rank=1, degree=1100, level=1, ell=1, points=())
        tree = build_tree(chain, 1100)
        assert tree.node_count() == 1101
        assert tree.leaf_count() == 1
        assert aggregate_dimension(tree, lambda s: 1) == 1
        (path, leaf), = tree.leaves()
        assert len(path) == 1100 and leaf.spec.genus == 0
        assert leaf.spec.points[-1].label == "x2@1100"
        other = build_tree(chain, 1100)
        assert other is not tree and other == tree
        assert hash(other) == hash(tree)

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
        assert nodes[-1]["spec"] == leaf.spec.to_json_dict()
        # each boundary point is one dict, listed by every node below its level
        points = [id(point) for node in nodes for point in node["spec"]["points"]]
        assert len(points) == 1100 * 1101 and len(set(points)) == 2200

    def test_dataclass_methods_on_a_deep_chain(self):
        # 1,100 levels over one shared spec, so repr stays small
        spec = balanced_spec()
        mu = Partition(())

        def chain(leaf_spec):
            node = DecompositionTree(leaf_spec)
            for _ in range(1100):
                node = DecompositionTree(spec, ((mu, node),))
            return node

        tree = chain(spec)
        assert tree == chain(spec)
        assert hash(tree) == hash(chain(spec))
        assert tree != chain(balanced_spec(genus=3))
        head = f"DecompositionTree(spec={spec!r}, children=(({mu!r}, "
        leaf = f"DecompositionTree(spec={spec!r}, children=())"
        assert repr(tree) == head * 1100 + leaf + "),))" * 1100

    def test_inequality(self):
        spec = balanced_spec()
        tree = build_tree(spec, 2)
        (mu, child), *rest = tree.children
        (leaf_mu, leaf), *leaf_rest = child.children
        deeper = DecompositionTree(leaf.spec, ((leaf_mu, leaf),))
        variants = [
            DecompositionTree(spec, tuple(rest)),
            DecompositionTree(spec, ((mu, DecompositionTree(child.spec, tuple(leaf_rest))), *rest)),
            DecompositionTree(spec, ((mu, DecompositionTree(child.spec, ((leaf_mu, deeper), *leaf_rest))), *rest)),
            DecompositionTree(spec, ((Partition((2, 2)), child), *rest)),
            DecompositionTree(balanced_spec(genus=3), tree.children),
        ]
        for variant in variants:
            assert variant != tree and tree != variant
            assert (variant == tree) == (reference_dataclass_tree(variant) == reference_dataclass_tree(tree))
        assert tree != reference_dataclass_tree(tree)
        assert tree.__eq__(spec) is NotImplemented

    @given(small_trees(), st.sampled_from(["none", "spec", "mu", "order", "leaf", "subclass"]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equality_matches_the_pairwise_walk(self, tree, change, data):
        variant = changed(tree, data.draw(st.integers(0, tree.node_count() - 1)), change)
        expected = pairwise_eq(variant, tree)
        if expected is NotImplemented:
            # neither side claims the comparison, so Python falls back to identity
            expected = False
        assert (variant == tree) is expected and (tree == variant) is expected
        assert (variant != tree) is not expected
        if change == "none":
            assert expected
        if expected:
            assert hash(variant) == hash(tree)


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
        table = {node.spec.sha256(): next(values) for _, node in tree.leaves()}
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
        # the leaf is stated once, as its canonical JSON
        assert str(info.value) == f"leaf oracle failed on {info.value.spec.canonical_json()}: 'missing'"

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

    @given(tree_shapes(), st.integers(0, 60))
    @settings(max_examples=150, deadline=None)
    def test_oracle_called_in_leaves_order(self, shape, fail_at):
        tree = irregular_tree(shape)
        leaves = [node.spec for _, node in tree.leaves()]
        calls = []

        def oracle(spec):
            calls.append(spec)
            if len(calls) == fail_at + 1:
                raise KeyError("missing")
            return spec.degree

        if fail_at < len(leaves):
            with pytest.raises(LeafOracleError) as info:
                aggregate_dimension(tree, oracle)
            assert info.value.spec is leaves[fail_at]
            assert calls == leaves[: fail_at + 1]
        else:
            assert aggregate_dimension(tree, oracle) == sum(spec.degree for spec in leaves)
            assert calls == leaves
