"""Parabolic bookkeeping: flags, weights, marked points, and the level balance.

All validation of values happens when they are constructed, so the
arithmetic operations below never see malformed data.  A child spec made
from a valid parent by degeneration (ModuliSpec._child) checks only its
two new points.  The from_json_dict readers also reject what only a JSON
spec can get wrong: unknown keys, repeated point labels, and integers
longer than MAX_INT_DIGITS digits.  Rationals are exact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul, sub

from .partitions import _shown, partial_sums

__all__ = [
    "FlagType",
    "MarkedPoint",
    "ModuliSpec",
    "WeightVector",
    "check_star",
    "gps_slope",
    "pardeg",
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

    @property
    def steps(self) -> int:
        """The number l of proper subspaces in the flag."""
        return len(self) - 1

    def partial_sums(self) -> tuple[int, ...]:
        """r_i = n_1 + ... + n_i for i = 1..l+1."""
        return partial_sums(self)


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

    def differences(self) -> tuple[int, ...]:
        """d_i = a_{i+1} - a_i for i = 1..l."""
        return tuple(b - a for a, b in zip(self, self[1:]))


@dataclass(frozen=True)
class MarkedPoint:
    """A marked point: label, flag type, weights, and polarization weight."""

    label: str
    flag: FlagType
    weights: WeightVector
    alpha: int

    def __post_init__(self):
        object.__setattr__(self, "flag", FlagType(self.flag))
        object.__setattr__(self, "weights", WeightVector(self.weights))
        if not isinstance(self.label, str) or not self.label:
            raise ValueError("point label must be a nonempty string")
        if len(self.flag) != len(self.weights):
            raise ValueError(
                f"point {self.label!r}: flag length {len(self.flag)} != weight length {len(self.weights)}"
            )
        if not isinstance(self.alpha, int) or isinstance(self.alpha, bool) or self.alpha < 0:
            raise ValueError(f"point {self.label!r}: alpha must be a nonnegative integer")

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


@dataclass(frozen=True)
class ModuliSpec:
    """The data (genus, rank, degree, level, ell, marked points).

    The quantity n = degree + rank*(1 - genus) used by the balance
    condition is always derived, never stored.
    """

    genus: int
    rank: int
    degree: int
    level: int
    ell: int
    points: tuple = ()

    def __post_init__(self):
        if not isinstance(self.genus, int) or isinstance(self.genus, bool) or self.genus < 0:
            raise ValueError(f"genus must be a nonnegative integer, got {self.genus!r}")
        if not isinstance(self.rank, int) or isinstance(self.rank, bool) or self.rank < 1:
            raise ValueError(f"rank must be a positive integer, got {self.rank!r}")
        if not isinstance(self.degree, int) or isinstance(self.degree, bool):
            raise ValueError(f"degree must be an integer, got {self.degree!r}")
        if not isinstance(self.level, int) or isinstance(self.level, bool) or self.level < 1:
            raise ValueError(f"level must be a positive integer, got {self.level!r}")
        if not isinstance(self.ell, int) or isinstance(self.ell, bool) or self.ell < 1:
            raise ValueError(f"ell must be a positive integer, got {self.ell!r}")
        object.__setattr__(self, "points", tuple(self.points))
        for pt in self.points:
            self._check_point(pt)

    def _check_point(self, pt) -> None:
        if not isinstance(pt, MarkedPoint):
            raise ValueError(f"points must be MarkedPoint values, got {_shown(pt)}")
        if pt.flag.rank != self.rank:
            raise ValueError(
                f"point {pt.label!r}: flag multiplicities sum to {pt.flag.rank}, rank is {self.rank}"
            )
        if pt.weights[-1] > self.level:
            raise ValueError(
                f"point {pt.label!r}: weight {pt.weights[-1]} exceeds level {self.level}"
            )

    def _child(self, point1, point2) -> "ModuliSpec":
        """The spec of genus one less with point1 and point2 added.

        Only the two new points are checked: the rest was checked when
        self was made.  The caller ensures self has positive genus.
        """
        self._check_point(point1)
        self._check_point(point2)
        child = object.__new__(ModuliSpec)
        # the fields in __init__'s order, so instances keep sharing dict keys
        object.__setattr__(child, "genus", self.genus - 1)
        object.__setattr__(child, "rank", self.rank)
        object.__setattr__(child, "degree", self.degree)
        object.__setattr__(child, "level", self.level)
        object.__setattr__(child, "ell", self.ell)
        object.__setattr__(child, "points", self.points + (point1, point2))
        return child

    def derived_n(self) -> int:
        return self.degree + self.rank * (1 - self.genus)

    def to_json_dict(self, point_dicts: dict | None = None) -> dict:
        """The spec as JSON values.

        point_dicts, when given, maps each MarkedPoint already written to
        its dict and gains the points written now; the result lists those
        shared dicts, so a caller writing many specs with common points
        passes one mapping and makes one dict per distinct point.
        """
        if point_dicts is None:
            point_dicts = {}
        points = []
        for pt in self.points:
            shared = point_dicts.get(pt)
            if shared is None:
                shared = point_dicts[pt] = pt.to_json_dict()
            points.append(shared)
        return {
            "genus": self.genus,
            "rank": self.rank,
            "degree": self.degree,
            "level": self.level,
            "ell": self.ell,
            "points": points,
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
        labels = set()
        for pt in points:
            if pt.label in labels:
                raise ValueError(f"duplicate point label {pt.label!r}")
            labels.add(pt.label)
        return cls(**fields, points=points)

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _reject_unknown_keys(data: dict, known, where: str) -> None:
    unknown = [key for key in data if key not in known]
    if unknown:
        names = ", ".join(repr(key) for key in unknown)
        raise ValueError(f"{where} has unknown key(s) {names}; expected only {', '.join(known)}")


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


def pardeg(degree: int, points, k: int) -> Fraction:
    """Parabolic degree: degree + (1/k) * sum over points of sum_i n_i * a_i."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"level k must be a positive integer, got {k!r}")
    total = Fraction(degree)
    for pt in points:
        total += Fraction(sum(n * a for n, a in zip(pt.flag, pt.weights)), k)
    return total


def gps_slope(degree: int, q_dim: int, rank: int) -> Fraction:
    """Slope (degree - q_dim) / rank of a generalized parabolic sheaf."""
    if not isinstance(rank, int) or rank < 1:
        raise ValueError(f"rank must be a positive integer, got {rank!r}")
    if not isinstance(q_dim, int) or isinstance(q_dim, bool) or q_dim < 0:
        raise ValueError(f"quotient dimension must be a nonnegative integer, got {q_dim!r}")
    return Fraction(degree - q_dim, rank)
