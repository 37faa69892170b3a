"""Flag types, weight vectors, marked points, and the balance condition."""

import pytest
from hypothesis import given, strategies as st

from theta_factor import (
    FlagType,
    MarkedPoint,
    ModuliSpec,
    WeightVector,
    check_star,
    partial_sums,
)


def point(label="x", flag=(1, 1), weights=(0, 1), alpha=0):
    return MarkedPoint(label, FlagType(flag), WeightVector(weights), alpha)


class TestFlagType:
    def test_basic(self):
        flag = FlagType((1, 2, 1))
        assert flag.rank == 4
        assert partial_sums(flag) == (1, 3, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlagType(())
        with pytest.raises(ValueError):
            FlagType((1, 0))
        with pytest.raises(ValueError):
            FlagType((1, -2))


class TestWeightVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightVector(())
        with pytest.raises(ValueError):
            WeightVector((1, 1))
        with pytest.raises(ValueError):
            WeightVector((2, 1))
        with pytest.raises(ValueError):
            WeightVector((-1, 0))


@pytest.mark.parametrize(
    "cls,good,bad",
    [
        (
            FlagType,
            (1, 2),
            {
                (1, 0): "flag multiplicities must be positive integers: (1, 0)",
                (True,): "flag multiplicities must be positive integers: (True,)",
                (): "a flag needs at least one piece",
            },
        ),
        (
            WeightVector,
            (0, 2),
            {
                (1, 1): "weights must be strictly increasing: (1, 1)",
                (-1, 0): "weights must be nonnegative integers: (-1, 0)",
                (): "a weight vector needs at least one entry",
            },
        ),
    ],
    ids=["FlagType", "WeightVector"],
)
class TestPassThrough:
    """A value of the exact class was checked when made; everything else is checked."""

    def test_value_passes_through(self, cls, good, bad):
        value = cls(good)
        assert cls(value) is value

    def test_lists_tuples_and_iterables_are_checked(self, cls, good, bad):
        for given_value in (list(good), tuple(good), iter(good)):
            value = cls(given_value)
            assert type(value) is cls and value == good
        for entries, message in bad.items():
            for given_value in (list(entries), tuple(entries), iter(entries)):
                with pytest.raises(ValueError) as info:
                    cls(given_value)
                assert str(info.value) == message

    def test_subclass_values_are_checked(self, cls, good, bad):
        sub = type("Sub", (cls,), {})
        value = sub(good)
        assert type(value) is sub and value == good
        assert type(cls(value)) is cls and cls(value) is not value
        # a subclass value that skipped the checks is still checked
        for entries, message in bad.items():
            with pytest.raises(ValueError) as info:
                cls(tuple.__new__(sub, entries))
            assert str(info.value) == message


class TestMarkedPoint:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MarkedPoint("x", FlagType((1, 1)), WeightVector((0, 1, 2)), 0)

    def test_star_term(self):
        # flag (2,1,1), weights (0,2,3): d=(2,1), partial sums (2,3)
        pt = point(flag=(2, 1, 1), weights=(0, 2, 3))
        assert pt.star_term() == 2 * 2 + 1 * 3

    def test_trivial_flag_contributes_nothing(self):
        assert point(flag=(3,), weights=(2,), alpha=5).star_term() == 0

    @given(
        st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6),
        st.lists(st.integers(min_value=1, max_value=9), min_size=5, max_size=5),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
    )
    def test_star_term_ignores_alpha(self, flag, steps, base, alpha):
        # the identities sweep asks for each mu's star terms once, at its lowest level
        weights = [base + sum(steps[:i]) for i in range(len(flag))]
        assert point(flag=flag, weights=weights, alpha=alpha).star_term() == point(flag=flag, weights=weights).star_term()

    def test_json_roundtrip(self):
        pt = point(label="x1@2", flag=(1, 2), weights=(1, 3), alpha=4)
        again = MarkedPoint.from_json_dict(pt.to_json_dict())
        assert again == pt

    def test_from_json_missing_field(self):
        with pytest.raises(ValueError):
            MarkedPoint.from_json_dict({"label": "x", "flag": [1]})

    @pytest.mark.parametrize("label", ["", 7, None, ("x",)])
    def test_label_must_be_a_nonempty_string(self, label):
        with pytest.raises(ValueError, match="^point label must be a nonempty string$"):
            point(label=label)


class TestModuliSpec:
    def test_derived_n(self):
        spec = ModuliSpec(genus=2, rank=2, degree=4, level=1, ell=1, points=())
        assert spec.derived_n() == 4 + 2 * (1 - 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModuliSpec(genus=-1, rank=1, degree=0, level=1, ell=1, points=())
        with pytest.raises(ValueError):
            ModuliSpec(genus=0, rank=0, degree=0, level=1, ell=1, points=())
        with pytest.raises(ValueError):
            ModuliSpec(genus=0, rank=1, degree=0, level=0, ell=1, points=())
        with pytest.raises(ValueError):
            ModuliSpec(genus=0, rank=1, degree=0, level=1, ell=0, points=())

    def test_point_rank_must_match(self):
        with pytest.raises(ValueError):
            ModuliSpec(
                genus=1, rank=3, degree=0, level=2, ell=1,
                points=(point(flag=(1, 1)),),
            )

    def test_weights_bounded_by_level(self):
        with pytest.raises(ValueError):
            ModuliSpec(
                genus=1, rank=2, degree=0, level=1, ell=1,
                points=(point(weights=(0, 2)),),
            )

    def test_json_roundtrip_and_hash_stability(self):
        spec = ModuliSpec(
            genus=1, rank=2, degree=3, level=2, ell=4,
            points=(point(alpha=1),),
        )
        again = ModuliSpec.from_json_dict(spec.to_json_dict())
        assert again == spec
        assert again.sha256() == spec.sha256()

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            ModuliSpec.from_json_dict([1, 2, 3])
        with pytest.raises(ValueError):
            ModuliSpec.from_json_dict({"genus": 1})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("genus", True),
            ("rank", True),
            ("level", True),
            ("ell", True),
            ("points", 5),
            ("points", [5]),
            ("points", [{"label": "x", "flag": 2, "weights": [0], "alpha": 0}]),
            ("points", [{"label": "x", "flag": [2], "weights": 0, "alpha": 0}]),
        ],
    )
    def test_from_json_rejects_malformed_field(self, field, value):
        data = {"genus": 1, "rank": 2, "degree": 0, "level": 2, "ell": 1, "points": []}
        data[field] = value
        with pytest.raises(ValueError):
            ModuliSpec.from_json_dict(data)

    @pytest.mark.parametrize(
        "path,value,message",
        [
            (("degree",), -(10**1000), "degree has more than 1000 digits"),
            (("level",), 10**1000, "level has more than 1000 digits"),
            (("points", 0, "alpha"), 10**1000, "marked point alpha has more than 1000 digits"),
            (("points", 0, "weights", 1), 10**4000, "marked point weights entry has more"),
            (("points", 0, "flag", 0), 10**1000, "marked point flag entry has more"),
        ],
        ids=["degree", "level", "alpha", "weights", "flag"],
    )
    def test_from_json_rejects_long_ints(self, path, value, message):
        data = {
            "genus": 1, "rank": 2, "degree": 0, "level": 2, "ell": 1,
            "points": [{"label": "x", "flag": [1, 1], "weights": [0, 1], "alpha": 0}],
        }
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValueError, match=message):
            ModuliSpec.from_json_dict(data)

    def test_point_labels_are_distinct(self):
        with pytest.raises(ValueError, match="duplicate point label 'x'"):
            ModuliSpec(genus=1, rank=2, degree=0, level=2, ell=1, points=(point(), point(alpha=1)))
        ModuliSpec(genus=1, rank=2, degree=0, level=2, ell=1, points=(point(), point("y")))

    @given(st.lists(st.tuples(st.sampled_from("xyz"), st.integers(0, 2)), max_size=4))
    def test_every_constructed_spec_survives_its_json_round_trip(self, pairs):
        points = tuple(point(label, alpha=alpha) for label, alpha in pairs)
        try:
            spec = ModuliSpec(genus=1, rank=2, degree=0, level=2, ell=1, points=points)
        except ValueError:
            assert len({label for label, _ in pairs}) < len(pairs)
            return
        assert ModuliSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_bad_field_is_reported_before_a_repeated_label(self):
        data = {
            "genus": -1, "rank": 2, "degree": 0, "level": 2, "ell": 1,
            "points": [point().to_json_dict(), point().to_json_dict()],
        }
        with pytest.raises(ValueError, match="genus must be a nonnegative integer"):
            ModuliSpec.from_json_dict(data)

    def test_longest_ints_keep_report_values_printable(self):
        top = 10**1000 - 1
        data = {"genus": top, "rank": top, "degree": -top, "level": top, "ell": top, "points": []}
        spec = ModuliSpec.from_json_dict(data)
        lhs, rhs, _ = check_star(spec)
        assert max(len(str(v)) for v in (lhs, rhs, spec.derived_n())) < 4300


class TestCheckStar:
    def test_no_points_balanced(self):
        spec = ModuliSpec(genus=2, rank=2, degree=4, level=1, ell=1, points=())
        assert check_star(spec) == (2, 2, True)

    def test_no_points_perturbed(self):
        spec = ModuliSpec(genus=2, rank=2, degree=4, level=1, ell=2, points=())
        assert check_star(spec) == (4, 2, False)

    def test_one_point_cases(self):
        pt = MarkedPoint("p", FlagType((1,)), WeightVector((1,)), 0)
        bad = ModuliSpec(genus=1, rank=1, degree=3, level=2, ell=5, points=(pt,))
        assert check_star(bad) == (5, 6, False)
        good = ModuliSpec(genus=1, rank=1, degree=3, level=2, ell=6, points=(pt,))
        assert check_star(good) == (6, 6, True)

    def test_flag_terms_and_alpha_enter(self):
        pt = point(flag=(2, 1, 1), weights=(0, 2, 3), alpha=1)
        spec = ModuliSpec(genus=0, rank=4, degree=1, level=3, ell=1, points=(pt,))
        lhs, rhs, _ = check_star(spec)
        assert lhs == pt.star_term() + 4 * 1 + 4 * 1
        assert rhs == 3 * (1 + 4)

    @given(st.permutations(["a", "b", "c"]))
    def test_relabeling_invariance(self, labels):
        pts = tuple(
            MarkedPoint(lbl, FlagType((1, 1)), WeightVector((0, i + 1)), i)
            for i, lbl in enumerate(labels)
        )
        spec = ModuliSpec(genus=1, rank=2, degree=2, level=4, ell=1, points=pts)
        base = ModuliSpec(
            genus=1, rank=2, degree=2, level=4, ell=1,
            points=tuple(
                MarkedPoint(lbl, FlagType((1, 1)), WeightVector((0, i + 1)), i)
                for i, lbl in enumerate(["a", "b", "c"])
            ),
        )
        assert check_star(spec)[:2] == check_star(base)[:2]

