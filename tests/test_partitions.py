"""Partitions in a box: validation, enumeration, complements, dimensions.

Derived expected values were frozen from the brute-force tableau oracle
in oracles.py; the sweeps at the bottom re-run the oracle live.
"""

import math
import sys
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings, strategies as st

from theta_factor import (
    BoxViolationError,
    FlagType,
    MarkedPoint,
    ModuliSpec,
    Partition,
    SchurExpansion,
    StratumDatum,
    WeightVector,
    box_count,
    build_tree,
    complement_in_box,
    decompose_rectangular,
    dim_schur,
    double_det_dim,
    enumerate_in_box,
    gps_codim_bounds,
    mu_to_boundary,
    partial_sums,
    partitions_of,
    quot_codim_bounds,
    skew_schur_expand,
    stability_gap,
)
from theta_factor.partitions import (
    MAX_ECHO,
    _check_int,
    _dimension_formula,
    _hook_content_dimension,
    _shown,
    _weyl_dimension,
)

from oracles import ssyt_count


def boxed_partitions(max_rows=4, max_cols=4):
    return st.builds(
        lambda rows: Partition(sorted(rows, reverse=True)),
        st.lists(st.integers(min_value=0, max_value=max_cols), max_size=max_rows),
    )


def partition_parts_as_before(parts):
    """The checks Partition made part by part before its one sorted comparison."""
    parts = tuple(parts)
    for p in parts:
        if not isinstance(p, int) or isinstance(p, bool) or p < 0:
            raise ValueError(f"parts must be nonnegative integers: {_shown(parts)}")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"parts must be weakly decreasing: {_shown(parts)}")
    end = len(parts)
    while end > 0 and parts[end - 1] == 0:
        end -= 1
    return parts[:end]


class Count(int):
    """An int subclass, which Partition accepts as a part."""


@st.composite
def mixed_part_lists(draw):
    """Lists of small ints, sorted or not, short or long, with a few parts
    swapped for negative ints, bools, floats or Count values."""
    parts = draw(st.lists(st.integers(0, 6), max_size=draw(st.sampled_from([5, 300]))))
    if draw(st.booleans()):
        parts.sort(reverse=True)
    odd = st.one_of(
        st.integers(-3, -1),
        st.booleans(),
        st.floats(-2, 6),
        st.integers(0, 6).map(Count),
    )
    for _ in range(draw(st.integers(0, 3))):
        if parts:
            parts[draw(st.integers(0, len(parts) - 1))] = draw(odd)
    return parts


class TestPartition:
    @given(mixed_part_lists())
    @settings(max_examples=300, deadline=None)
    def test_accepts_and_rejects_as_the_part_by_part_checks(self, parts):
        try:
            want = partition_parts_as_before(parts)
        except ValueError as error:
            with pytest.raises(ValueError) as got:
                Partition(parts)
            assert str(got.value) == str(error)
        else:
            lam = Partition(parts)
            assert type(lam) is Partition and lam == want
            assert [type(p) for p in lam] == [type(p) for p in want]

    def test_strips_trailing_zeros(self):
        assert Partition((3, 1, 0, 0)) == Partition((3, 1))
        assert Partition((0, 0)) == Partition(())

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_negative_and_non_integer(self):
        with pytest.raises(ValueError):
            Partition((2, -1))
        with pytest.raises(ValueError):
            Partition((2.0, 1))
        with pytest.raises(ValueError):
            Partition((True,))

    def test_size_and_padding(self):
        lam = Partition((3, 1))
        assert lam.size == 4
        assert lam.padded(4) == (3, 1, 0, 0)
        with pytest.raises(ValueError):
            lam.padded(1)

    @pytest.mark.parametrize("bad,message", [("3", "'3'"), (2.5, "2.5")])
    def test_padding_length_checked(self, bad, message):
        with pytest.raises(ValueError) as info:
            Partition((1,)).padded(bad)
        assert str(info.value) == f"length must be an integer, got {message}"

    @given(boxed_partitions(5, 5), st.one_of(boxed_partitions(7, 6), mixed_part_lists()))
    @example(Partition((2, 1)), [1, 1, 1])
    @example(Partition((2, 1)), [2, 1, 0, 0, 0])
    @example(Partition((3, 3)), [1, True])
    @example(Partition((3, 3)), [2, -1])
    @example(Partition((3, 3)), [1, 2])
    @settings(max_examples=300, deadline=None)
    def test_contains_as_the_zip_reference(self, lam, other):
        """contains equals the zip over both diagrams' rows; a raw list with a bad
        part raises Partition's own message."""
        try:
            inner = partition_parts_as_before(other)
        except ValueError as error:
            with pytest.raises(ValueError) as got:
                lam.contains(other)
            assert str(got.value) == str(error)
        else:
            want = len(inner) <= len(lam) and all(a >= b for a, b in zip(lam, inner))
            assert lam.contains(other) is want

    def test_contains(self):
        assert Partition((3, 2)).contains(Partition((2, 2)))
        assert not Partition((3, 2)).contains(Partition((2, 2, 1)))
        assert Partition(()).contains(Partition(()))

    def test_conjugate_example(self):
        assert Partition((4, 2, 1)).conjugate() == Partition((3, 2, 1, 1))

    @given(boxed_partitions())
    def test_conjugate_involution(self, lam):
        assert lam.conjugate().conjugate() == lam

    def test_partition_passes_through(self):
        lam = Partition((3, 1))
        assert Partition(lam) is lam
        assert Partition(Partition(())) == ()

    def test_lists_tuples_and_iterables_are_checked(self):
        for parts in ([3, 1, 0], (3, 1, 0), iter((3, 1, 0))):
            lam = Partition(parts)
            assert type(lam) is Partition and lam == (3, 1)
        for bad in ([1, 2], [2, -1], [2.0, 1], [True], (1, 2), iter([0, 1])):
            with pytest.raises(ValueError):
                Partition(bad)
        with pytest.raises(TypeError):
            Partition(5)

    def test_subclass_values_are_checked(self):
        class Shape(Partition):
            pass

        lam = Partition((2, 1))
        shape = Shape(lam)
        assert type(shape) is Shape and shape == lam and shape is not lam
        assert type(Partition(shape)) is Partition
        # a subclass value that skipped the checks is still checked
        with pytest.raises(ValueError):
            Partition(tuple.__new__(Shape, (1, 2)))
        with pytest.raises(ValueError):
            Shape((1, 2))

    def test_fits_in_box(self):
        assert Partition((2, 1)).fits_in_box(2, 2)
        assert not Partition((3,)).fits_in_box(2, 2)
        assert not Partition((1, 1, 1)).fits_in_box(2, 2)


class TestDimSchur:
    def test_trivial_representation(self):
        assert dim_schur(Partition(()), 5) == 1

    def test_standard_representation(self):
        assert dim_schur(Partition((1,)), 4) == 4

    def test_small_derived_values(self):
        # frozen from the SSYT backtracking oracle
        assert dim_schur(Partition((2, 1)), 2) == 2
        assert dim_schur(Partition((2, 2)), 4) == 20
        assert dim_schur(Partition((3, 2, 1)), 3) == 8
        assert dim_schur(Partition((4, 2)), 3) == 27
        assert dim_schur(Partition((2, 2, 1)), 6) == 210
        assert dim_schur(Partition((5,)), 2) == 6
        assert dim_schur(Partition((3, 3, 3)), 3) == 1

    def test_zero_when_too_many_rows(self):
        assert dim_schur(Partition((1, 1, 1)), 2) == 0

    def test_matches_tableau_oracle_in_3x3_box(self):
        for lam in enumerate_in_box(3, 3):
            for n in range(1, 5):
                assert dim_schur(lam, n) == ssyt_count(tuple(lam), n), (lam, n)

    @given(boxed_partitions(3, 3), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_both_formulas_match_tableau_oracle(self, lam, extra):
        n = len(lam) + extra
        want = ssyt_count(tuple(lam), n)
        assert _weyl_dimension(lam, n) == want
        assert _hook_content_dimension(lam, n) == want
        assert dim_schur(lam, n) == want

    def test_long_rows_few_variables(self):
        # Weyl's product: two factors here, against a million hook-content cells
        assert dim_schur(Partition((1_000_000,)), 3) == 1_000_001 * 1_000_002 // 2
        big = 10**999
        assert dim_schur(Partition((big,)), 3) == (big + 1) * (big + 2) // 2
        assert dim_schur(Partition((big, 1)), 2) == big

    def test_few_cells_many_variables(self):
        # hook content: one cell, against n - 1 Weyl factors
        big = 10**999
        assert dim_schur(Partition((1,)), big) == big
        assert dim_schur(Partition((1, 1)), big) == big * (big - 1) // 2

    def test_formula_and_its_factor_count(self):
        # (2,) at n = 3: two Weyl pairs against two cells, and Weyl's product wins the tie
        assert _dimension_formula(Partition((2,)), 3) == (_weyl_dimension, 2)
        assert _dimension_formula(Partition((3,)), 3) == (_weyl_dimension, 2)
        assert _dimension_formula(Partition((1,)), 5) == (_hook_content_dimension, 1)
        assert _dimension_formula(Partition((1,) * 1000), 1000) == (_hook_content_dimension, 1000)
        assert _dimension_formula(Partition(()), 0) == (_weyl_dimension, 0)

    def test_determinant_twist(self):
        # appending a full column of height n leaves the dimension fixed
        for lam in [Partition(()), Partition((2, 1)), Partition((3, 3))]:
            n = 3
            twisted = Partition(tuple(p + 1 for p in lam.padded(n)))
            assert dim_schur(twisted, n) == dim_schur(lam, n)


class TestComplement:
    def test_known_values(self):
        assert complement_in_box(Partition(()), 3, 2) == Partition((2, 2, 2))
        assert complement_in_box(Partition((3, 3)), 2, 3) == Partition(())
        assert complement_in_box(Partition((2, 1)), 3, 3) == Partition((3, 2, 1))

    def test_rejects_outside_box(self):
        with pytest.raises(BoxViolationError):
            complement_in_box(Partition((4,)), 2, 3)
        with pytest.raises(BoxViolationError):
            complement_in_box(Partition((1, 1, 1)), 2, 3)

    @given(st.data())
    def test_involution(self, data):
        r = data.draw(st.integers(min_value=1, max_value=4))
        m = data.draw(st.integers(min_value=0, max_value=4))
        rows = data.draw(st.lists(st.integers(min_value=0, max_value=m), max_size=r))
        mu = Partition(sorted(rows, reverse=True))
        assert complement_in_box(complement_in_box(mu, r, m), r, m) == mu


class TestEnumeration:
    def test_rank_one(self):
        assert list(enumerate_in_box(1, 2)) == [Partition(()), Partition((1,)), Partition((2,))]

    def test_two_by_one(self):
        assert list(enumerate_in_box(2, 1)) == [
            Partition(()),
            Partition((1,)),
            Partition((1, 1)),
        ]

    def test_two_by_two_order(self):
        got = [mu.padded(2) for mu in enumerate_in_box(2, 2)]
        assert got == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]

    def test_counts_match_binomial(self):
        for r in range(1, 7):
            for m in range(0, 7):
                items = list(enumerate_in_box(r, m))
                assert len(items) == box_count(r, m) == math.comb(r + m, r)
                assert len(set(items)) == len(items)
                assert all(mu.fits_in_box(r, m) for mu in items)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: enumerate_in_box(-1, 2),
            lambda: enumerate_in_box(2, True),
            lambda: partitions_of(-1),
            lambda: partitions_of(3, 2.0),
        ],
        ids=["box r", "box m", "total", "cap"],
    )
    def test_arguments_checked_at_the_call(self, call):
        # not at the first next(): the call alone raises
        with pytest.raises(ValueError, match="integer, got "):
            call()

    @given(st.integers(1, 6), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_items_are_checked_partitions(self, r, m):
        # made unchecked, each item is what the checking constructor makes of its parts
        items = list(enumerate_in_box(r, m))
        assert len(items) == math.comb(r + m, r)
        for p in items:
            assert type(p) is Partition
            assert p == Partition(tuple(p))
            assert 0 not in p

    def test_order_is_lexicographic_on_padded_tuples(self):
        for r, m in [(2, 3), (3, 2), (4, 2)]:
            padded = [mu.padded(r) for mu in enumerate_in_box(r, m)]
            assert padded == sorted(padded)

    @given(st.one_of(st.tuples(st.integers(0, 7), st.integers(0, 4)), st.tuples(st.integers(0, 300), st.just(1))))
    @settings(max_examples=60, deadline=None)
    @example((300, 1))
    @example((5, 0))
    def test_items_equal_plain_reference(self, box):
        # every weakly decreasing r-tuple of parts at most m, sorted; long runs of zeros at m = 1
        r, m = box
        reference = sorted(tuple(sorted(parts, reverse=True)) for parts in combinations_with_replacement(range(m + 1), r))
        assert [mu.padded(r) for mu in enumerate_in_box(r, m)] == reference


class TestHelpers:
    def test_partitions_of_counts(self):
        assert len(list(partitions_of(5))) == 7
        assert list(partitions_of(0)) == [Partition(())]

    def test_partitions_of_constraints(self):
        got = list(partitions_of(4, max_parts=2))
        assert Partition((2, 1, 1)) not in got
        assert Partition((2, 2)) in got
        assert list(partitions_of(1200, max_parts=1)) == [Partition((1200,))]

    def test_partitions_of_every_cap(self):
        # brute force: the weakly decreasing compositions, largest first;
        # a negative cap counts as 0
        def compositions(total):
            if total == 0:
                return [()]
            return [(head, *rest) for head in range(1, total + 1) for rest in compositions(total - head)]

        for total in range(13):
            every = sorted(
                (c for c in compositions(total) if list(c) == sorted(c, reverse=True)), reverse=True
            )
            for max_parts in [None, -2, -1, *range(14)]:
                want = [Partition(p) for p in every if max_parts is None or len(p) <= max(max_parts, 0)]
                got = list(partitions_of(total, max_parts))
                assert got == want, (total, max_parts)
                assert all(type(p) is Partition for p in got)

    def test_partial_sums(self):
        assert partial_sums((1, 2, 1)) == (1, 3, 4)
        assert partial_sums(()) == ()


ONES = (1,) * 5000
# library calls whose message names an input array of 5,000 entries
LONG_INPUTS = {
    "unsorted parts": lambda: Partition(ONES + (2,)),
    "negative part": lambda: Partition(ONES + (-1,)),
    "pad": lambda: Partition(ONES).padded(3),
    "complement": lambda: complement_in_box(ONES, 2, 1),
    "flag": lambda: FlagType(ONES + (0,)),
    "weights": lambda: WeightVector((0,) * 5000),
    "point": lambda: MarkedPoint.from_json_dict(list(ONES)),
    "spec points": lambda: ModuliSpec.from_json_dict({"points": "x" * 5000}),
    "schubert m": lambda: StratumDatum(5000, ONES, (2,) + ONES[1:]),
    "schubert entries": lambda: StratumDatum(5000, ONES, (-1,) + ONES[1:]),
    "stability n": lambda: stability_gap((0,) * 5000, (0,) * 5000, ONES),
    "boundary": lambda: mu_to_boundary(ONES, 2, 3),
    "skew shape": lambda: skew_schur_expand((1,), ONES),
    "expansion": lambda: SchurExpansion({ONES: 0}),
}


class TestShown:
    def test_short_value_is_its_repr(self):
        assert _shown((1, 2, 3)) == "(1, 2, 3)"
        assert _shown("x" * (MAX_ECHO - 2)) == repr("x" * (MAX_ECHO - 2))

    def test_long_value_gives_its_start_and_length(self):
        text = repr(ONES)
        assert _shown(ONES) == f"{text[:MAX_ECHO]}... ({len(text)} characters)"

    @pytest.mark.parametrize("length", [39, 40])
    def test_str_of_at_most_max_echo_characters_is_its_repr(self, length):
        assert _shown("x" * length) == repr("x" * length)

    @pytest.mark.parametrize("length", [41, 5000])
    def test_longer_str_gives_the_repr_of_its_start_and_its_length(self, length):
        assert _shown("x" * length) == f"'{'x' * MAX_ECHO}'... ({length} characters)"

    def test_other_values_cap_their_repr(self):
        assert _shown(10**39) == str(10**39)
        assert _shown(-(10**39)) == "-1" + "0" * 38 + "... (41 characters)"
        assert _shown(["x" * 41]) == f"['{'x' * 38}... (45 characters)"
        assert _shown(None) == "None"

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no limit on int to str conversion")
    @pytest.mark.parametrize(
        "call,name",
        [(lambda v: dim_schur((), v), "n"), (lambda v: double_det_dim(v, 0, 0, 0, 0), "a")],
        ids=["dim_schur", "double_det_dim"],
    )
    def test_integer_past_the_conversion_limit_is_named(self, call, name):
        digits = sys.get_int_max_str_digits()
        huge = -(10**5000)
        assert _shown(huge) == f"an integer of more than {digits} digits"
        assert _shown((1, huge)) == f"a value with an integer of more than {digits} digits"
        with pytest.raises(ValueError) as info:
            call(huge)
        assert str(info.value) == f"{name} must be a nonnegative integer, got an integer of more than {digits} digits"

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no limit on int to str conversion")
    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda v: mu_to_boundary((5,), v, 3), lambda v: f"(5,) exceeds rank {_shown(v)} or width 2"),
            (lambda v: mu_to_boundary((1, 1, 1), 2, v + 1), lambda v: f"(1, 1, 1) exceeds rank 2 or width {_shown(v)}"),
            (lambda v: complement_in_box((5,), v, 3), lambda v: f"(5,) exceeds rank {_shown(v)} or width 3"),
            (lambda v: Partition((1, 1)).padded(-v), lambda v: f"cannot pad (1, 1) down to length {_shown(-v)}"),
        ],
        ids=["boundary rank", "boundary level", "complement", "pad"],
    )
    def test_huge_int_in_a_message_is_shown_short(self, call, message):
        # past the conversion limit a raw int raises Python's own error; below it, it echoes in full
        for huge, shown in ((10**5000, "an integer of more than"), (10**1000, "... (100")):
            with pytest.raises(ValueError) as info:
                call(huge)
            assert str(info.value) == message(huge)
            assert shown in str(info.value) and len(str(info.value)) < 100

    @pytest.mark.parametrize("call", LONG_INPUTS.values(), ids=list(LONG_INPUTS))
    def test_messages_show_long_inputs_short(self, call):
        with pytest.raises(ValueError) as info:
            call()
        message = str(info.value)
        assert len(message) < 250 and " characters)" in message


def check_int_as_before(what, value, least):
    """The scalar check as each site wrote it by hand before _check_int."""
    if least is None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{what} must be an integer, got {value!r}")
    elif least == 0:
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"{what} must be a nonnegative integer, got {value!r}")
    elif not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")


def raised(call, *args):
    try:
        call(*args)
    except ValueError as exc:
        return str(exc)
    return None


def drained(generator_function):
    return lambda *args: list(generator_function(*args))


# (entry point, valid arguments, index of the integer argument to spoil,
# whether a negative value there is invalid too: a negative cap counts as 0)
INT_ARGUMENTS = {
    "partitions_of total": (drained(partitions_of), (3, None), 0, True),
    "partitions_of max_parts": (drained(partitions_of), (3, 2), 1, False),
    "gps_codim_bounds r": (gps_codim_bounds, (2, 1, True), 0, True),
    "gps_codim_bounds g_tilde": (gps_codim_bounds, (2, 1, True), 1, True),
    "quot_codim_bounds r": (quot_codim_bounds, (2, 1, True), 0, True),
    "quot_codim_bounds g_tilde": (quot_codim_bounds, (2, 1, True), 1, True),
    "dim_schur n": (dim_schur, ((2,), 2), 1, True),
    "enumerate_in_box r": (drained(enumerate_in_box), (2, 2), 0, True),
    "enumerate_in_box m": (drained(enumerate_in_box), (2, 2), 1, True),
    "complement_in_box r": (complement_in_box, ((1,), 2, 2), 1, True),
    "complement_in_box m": (complement_in_box, ((1,), 2, 2), 2, True),
    "box_count r": (box_count, (2, 2), 0, True),
    "box_count m": (box_count, (2, 2), 1, True),
    "decompose_rectangular rank": (decompose_rectangular, (2, 1), 0, True),
    "decompose_rectangular power": (decompose_rectangular, (2, 1), 1, True),
    "double_det_dim a": (double_det_dim, (1, 1, 2, 2, 2), 0, True),
    "double_det_dim b": (double_det_dim, (1, 1, 2, 2, 2), 1, True),
    "double_det_dim p": (double_det_dim, (1, 1, 2, 2, 2), 2, True),
    "double_det_dim q": (double_det_dim, (1, 1, 2, 2, 2), 3, True),
    "double_det_dim r": (double_det_dim, (1, 1, 2, 2, 2), 4, True),
    "StratumDatum r1": (StratumDatum, (2, (1, 1), (1, 1)), 0, True),
    "ModuliSpec genus": (ModuliSpec, (1, 2, 1, 2, 1), 0, True),
    "ModuliSpec rank": (ModuliSpec, (1, 2, 1, 2, 1), 1, True),
    "ModuliSpec degree": (ModuliSpec, (1, 2, 1, 2, 1), 2, False),
    "ModuliSpec level": (ModuliSpec, (1, 2, 1, 2, 1), 3, True),
    "ModuliSpec ell": (ModuliSpec, (1, 2, 1, 2, 1), 4, True),
    "build_tree depth": (build_tree, (ModuliSpec(1, 2, 1, 2, 1), 1), 1, True),
}


class TestCheckInt:
    @given(
        st.one_of(
            st.integers(),
            st.booleans(),
            st.floats(allow_nan=False),
            st.integers().map(Count),
            st.text(max_size=60),
        ),
        st.sampled_from([None, 0, 1]),
    )
    @settings(max_examples=500, deadline=None)
    def test_matches_the_inline_check(self, value, least):
        got = raised(_check_int, "field", value, least)
        want = raised(check_int_as_before, "field", value, least)
        assert (got is None) == (want is None)
        if len(repr(value)) <= MAX_ECHO:
            assert got == want
        elif got is not None:
            assert got == want.replace(repr(value), _shown(value))

    @pytest.mark.parametrize("entry", INT_ARGUMENTS.values(), ids=list(INT_ARGUMENTS))
    @pytest.mark.parametrize("bad", [True, 2.0, -1], ids=["bool", "float", "negative"])
    def test_public_entry_points_reject_non_integers(self, entry, bad):
        call, args, index, negative_is_invalid = entry
        call(*args)
        if bad == -1 and not negative_is_invalid:
            call(*args[:index], bad, *args[index + 1:])
            return
        with pytest.raises(ValueError, match="integer, got "):
            call(*args[:index], bad, *args[index + 1:])
