"""Parabolic bookkeeping: flags, weights, marked points, and the level balance.

All validation of values happens when they are constructed, so the
arithmetic operations below never see malformed data.  MarkedPoint and
ModuliSpec are records (partitions._Record): their __new__ makes the
checks, and a value that needs none is made by tuple.__new__, as its
callers derive it from checked ones.  ModuliSpec._unchecked makes each
leaf spec below a degeneration tree's root (DecompositionTree._leaf_specs),
whose new points were checked once, with their boundary row.  The point
pair of factorization._boundary_data (with a FlagType and a WeightVector
made the same way) is valid under the precondition its docstring states.
A comment at each says why the values are valid.
The from_json_dict readers also reject what only a JSON spec can get
wrong: unknown keys and integers longer than MAX_INT_DIGITS digits.
"""

from __future__ import annotations

import hashlib
import json
from collections import namedtuple
from itertools import accumulate
from operator import mul, sub

from .partitions import _check_int, _Record, _shown

__all__ = [
    "FlagType",
    "MarkedPoint",
    "ModuliSpec",
    "WeightVector",
    "check_star",
]

# The largest number of decimal digits of an integer in a JSON spec.  The
# longest derived value, rhs = level * (degree + rank * (1 - genus)), then
# has at most 3 * 1,000 + 1 digits, and lhs and derived n fewer, so every
# report value stays under the 4,300 digits Python converts to text.
MAX_INT_DIGITS = 1_000


class FlagType(tuple):
    """Multiplicities (n_1, ..., n_{l+1}) of the graded pieces of a flag."""

    def __new__(cls, multiplicities):
        # a value of this very class was checked when it was made
        if type(multiplicities) is cls:
            return multiplicities
        multiplicities = tuple(multiplicities)
        if not multiplicities:
            raise ValueError("a flag needs at least one piece")
        for n in multiplicities:
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise ValueError(f"flag multiplicities must be positive integers: {_shown(multiplicities)}")
        return super().__new__(cls, multiplicities)

    @property
    def rank(self) -> int:
        return sum(self)


class WeightVector(tuple):
    """Strictly increasing nonnegative integer weights (a_1, ..., a_{l+1})."""

    def __new__(cls, weights):
        # a value of this very class was checked when it was made
        if type(weights) is cls:
            return weights
        weights = tuple(weights)
        if not weights:
            raise ValueError("a weight vector needs at least one entry")
        for a in weights:
            if not isinstance(a, int) or isinstance(a, bool) or a < 0:
                raise ValueError(f"weights must be nonnegative integers: {_shown(weights)}")
        if any(x >= y for x, y in zip(weights, weights[1:])):
            raise ValueError(f"weights must be strictly increasing: {_shown(weights)}")
        return super().__new__(cls, weights)


class MarkedPoint(_Record, namedtuple("MarkedPoint", "label flag weights alpha")):
    """A marked point: label, flag type, weights, and polarization weight."""

    __slots__ = ()

    def __new__(cls, label: str, flag, weights, alpha: int):
        point = tuple.__new__(cls, (label, FlagType(flag), WeightVector(weights), alpha))
        point.__post_init__()
        return point

    def __post_init__(self):
        """The checks that follow the flag's and the weights' own."""
        if not isinstance(self.label, str) or not self.label:
            raise ValueError("point label must be a nonempty string")
        if len(self.flag) != len(self.weights):
            raise ValueError(
                f"point {_shown(self.label)}: flag length {len(self.flag)} != weight length {len(self.weights)}"
            )
        if not isinstance(self.alpha, int) or isinstance(self.alpha, bool) or self.alpha < 0:
            raise ValueError(f"point {_shown(self.label)}: alpha must be a nonnegative integer")

    def star_term(self) -> int:
        """Sum of d_i * r_i over the flag steps, in one pass."""
        return sum(map(mul, map(sub, self.weights[1:], self.weights), accumulate(self.flag)))

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "flag": list(self.flag),
            "weights": list(self.weights),
            "alpha": self.alpha,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MarkedPoint":
        if not isinstance(data, dict):
            raise ValueError(f"marked point must be a JSON object, got {_shown(data)}")
        _reject_unknown_keys(data, ("label", "flag", "weights", "alpha"), "marked point")
        for key in ("flag", "weights"):
            if key in data and not isinstance(data[key], list):
                raise ValueError(f"marked point {key} must be a JSON array, got {_shown(data[key])}")
            _reject_long_ints(data.get(key, ()), f"marked point {key} entry")
        _reject_long_ints((data.get("alpha"),), "marked point alpha")
        try:
            return cls(
                label=data["label"],
                flag=FlagType(data["flag"]),
                weights=WeightVector(data["weights"]),
                alpha=data["alpha"],
            )
        except KeyError as missing:
            raise ValueError(f"marked point is missing field {missing}") from None


class ModuliSpec(_Record, namedtuple("ModuliSpec", "genus rank degree level ell points")):
    """The data (genus, rank, degree, level, ell, marked points).

    The quantity n = degree + rank*(1 - genus) used by the balance
    condition is always derived, never stored.
    """

    __slots__ = ()

    def __new__(cls, genus: int, rank: int, degree: int, level: int, ell: int, points=()):
        for name, value, least in zip(cls._fields, (genus, rank, degree, level, ell), (0, 1, None, 1, 1)):
            _check_int(name, value, least)
        spec = tuple.__new__(cls, (genus, rank, degree, level, ell, tuple(points)))
        spec.__post_init__()
        return spec

    def __post_init__(self):
        """The checks of the points: each against the spec, and the labels distinct."""
        labels = set()
        for pt in self.points:
            self._check_point(pt)
            if pt.label in labels:
                raise ValueError(f"duplicate point label {_shown(pt.label)}")
            labels.add(pt.label)

    def _check_point(self, pt) -> None:
        if not isinstance(pt, MarkedPoint):
            raise ValueError(f"points must be MarkedPoint values, got {_shown(pt)}")
        if pt.flag.rank != self.rank:
            raise ValueError(
                f"point {_shown(pt.label)}: flag multiplicities sum to {_shown(pt.flag.rank)}, "
                f"rank is {_shown(self.rank)}"
            )
        if pt.weights[-1] > self.level:
            raise ValueError(
                f"point {_shown(pt.label)}: weight {_shown(pt.weights[-1])} exceeds level {_shown(self.level)}"
            )

    @staticmethod
    def _unchecked(spec, genus, points) -> "ModuliSpec":
        """spec's rank, degree, level and ell with genus and points (a tuple); nothing is checked.

        It is tuple.__new__, which skips __new__'s checks and __post_init__.
        The caller ensures 0 <= genus and checked each point not in
        spec.points against a spec of spec's rank and level, with a new
        label: the one caller, factorization.DecompositionTree._leaf_specs,
        adds the points its tree checked once per row, labels x1@L, x2@L.
        """
        return tuple.__new__(ModuliSpec, (genus, spec.rank, spec.degree, spec.level, spec.ell, points))

    def derived_n(self) -> int:
        return self.degree + self.rank * (1 - self.genus)

    def to_json_dict(self) -> dict:
        return {
            "genus": self.genus,
            "rank": self.rank,
            "degree": self.degree,
            "level": self.level,
            "ell": self.ell,
            "points": [pt.to_json_dict() for pt in self.points],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ModuliSpec":
        if not isinstance(data, dict):
            raise ValueError("spec must be a JSON object")
        _reject_unknown_keys(data, ("genus", "rank", "degree", "level", "ell", "points"), "spec")
        points = data.get("points", [])
        if not isinstance(points, list):
            raise ValueError(f"points must be a JSON array, got {_shown(points)}")
        try:
            fields = {key: data[key] for key in ("genus", "rank", "degree", "level", "ell")}
        except KeyError as missing:
            raise ValueError(f"spec is missing field {missing}") from None
        for key, value in fields.items():
            _reject_long_ints((value,), key)
        points = tuple(MarkedPoint.from_json_dict(p) for p in points)
        return cls(**fields, points=points)

    def sha256(self) -> str:
        return _canonical_sha256(self.to_json_dict())


def _canonical_sha256(value) -> str:
    """sha256 of the sorted, compact JSON of value: a spec's JSON dict, or a command's parameters.

    A spec's is the key of a leaf-oracle table.
    """
    return hashlib.sha256(json.dumps(value, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _reject_unknown_keys(data: dict, known, where: str) -> None:
    unknown = [key for key in data if key not in known]
    if unknown:
        raise ValueError(f"{where} has unknown key(s) {_shown(unknown)}; expected only {', '.join(known)}")


def _reject_long_ints(values, what: str) -> None:
    for value in values:
        if isinstance(value, int) and abs(value) >= 10**MAX_INT_DIGITS:
            raise ValueError(f"{what} has more than {MAX_INT_DIGITS} digits")


def check_star(spec: ModuliSpec):
    """Evaluate the level balance condition.

    lhs = sum over points of (sum_i d_i * r_i + rank * alpha) + rank * ell;
    rhs = level * (degree + rank * (1 - genus)).  Returns (lhs, rhs,
    lhs == rhs).  Malformed weight or flag data never reaches this point;
    it is rejected when the spec is built.
    """
    r = spec.rank
    lhs = r * spec.ell
    for pt in spec.points:
        lhs += pt.star_term() + r * pt.alpha
    rhs = spec.level * spec.derived_n()
    return lhs, rhs, lhs == rhs
