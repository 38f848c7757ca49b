"""Outward-rounded interval arithmetic on IEEE-754 doubles.

Every operation returns an interval that is guaranteed to contain the exact
real result for all points of the operands.  Addition and subtraction use an
exact error term (two-sum) and widen an endpoint only on the side where
rounding moved it inward, so a sum is the tightest double enclosure and sums
are inclusion-monotone; products, squares and scalings by a non-power of two
are widened by one ulp on each side, which is always sound under
round-to-nearest.  Scaling by a power of two is exact unless it leaves the
normal range.  Rationals are enclosed tightly through `fractions.Fraction`.

Importing the module fails unless floats round to nearest.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

_INF = math.inf
_TINY = sys.float_info.min  # smallest normal double
_nextafter = math.nextafter
_new = object.__new__
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


class IntervalError(ValueError):
    """Invalid interval construction or argument."""


class EnclosureError(ArithmeticError):
    """An operation overflowed to a non-finite endpoint; rigor would be lost."""


def _require_round_to_nearest() -> None:
    """Raise unless floats round to nearest, which every one-ulp widening
    here assumes.  The operands are made at run time, so the probe cannot be
    folded into the compiled module."""
    one, half_ulp = float("1"), float("1.1102230246251565e-16")  # 2**-53
    three_quarters_ulp = float("1.6653345369377348e-16")  # 3 * 2**-54
    if not (one + half_ulp == one  # not upward
            and -one - half_ulp == -one  # not downward
            and one + three_quarters_ulp != one):  # not downward or toward zero
        raise RuntimeError(
            "henoncert needs IEEE-754 round-to-nearest floating point; the "
            "current rounding mode would make its enclosures unsound"
        )


_require_round_to_nearest()


def _down(x: float) -> float:
    return _nextafter(x, -_INF)


def _up(x: float) -> float:
    return _nextafter(x, _INF)


class Interval:
    """Closed interval [lo, hi] with finite double endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if not (lo <= hi):  # also rejects NaN
            raise IntervalError(f"invalid endpoints: lo={lo!r}, hi={hi!r}")
        if math.isinf(lo) or math.isinf(hi):
            raise IntervalError(f"non-finite endpoint: [{lo!r}, {hi!r}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, v: float) -> "Interval":
        return cls(v, v)

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other):
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.hi))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        lo, hi = self.lo + other.lo, self.hi + other.hi
        # two-sum: the exact sum is s + err, err exact, so an endpoint is
        # widened only when rounding moved it inward; a NaN err (an overflow
        # inside the two-sum) widens too
        e = lo - self.lo
        if not (self.lo - (lo - e)) + (other.lo - e) >= 0.0:
            lo = _down(lo)
        e = hi - self.hi
        if not (self.hi - (hi - e)) + (other.hi - e) <= 0.0:
            hi = _up(hi)
        return _checked(lo, hi)

    def __sub__(self, other: "Interval") -> "Interval":
        lo, hi = self.lo - other.hi, self.hi - other.lo
        e = lo - self.lo
        if not (self.lo - (lo - e)) + (-other.hi - e) >= 0.0:
            lo = _down(lo)
        e = hi - self.hi
        if not (self.hi - (hi - e)) + (-other.lo - e) <= 0.0:
            hi = _up(hi)
        return _checked(lo, hi)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        p1, p2, p3, p4 = a * c, a * d, b * c, b * d
        lo = min(p1, p2, p3, p4)
        hi = max(p1, p2, p3, p4)
        return _checked(_down(lo), _up(hi))

    def sqr(self) -> "Interval":
        """Dependency-aware square: sqr([-2,1]) = [0,4], not [-2,4]."""
        a, b = abs(self.lo), abs(self.hi)
        if a > b:
            a, b = b, a
        if self.lo <= 0.0 <= self.hi:
            lo = 0.0
        else:
            lo = max(0.0, _down(a * a))
        return _checked(lo, _up(b * b))

    def scale(self, c: float) -> "Interval":
        """Multiply by an exact float scalar.

        A product by c = +-2^k is exact when it is normal, or zero from a zero
        operand, so it is widened unless c is a power of two and each product
        is one of those; a nonzero operand may underflow to a subnormal or 0.
        """
        lo, hi = self.lo, self.hi
        p, q = c * lo, c * hi
        if (abs(math.frexp(c)[0]) != 0.5
                or (abs(p) < _TINY and lo != 0.0) or (abs(q) < _TINY and hi != 0.0)):
            p, q = _down(min(p, q)), _up(max(p, q))
        elif p > q:
            p, q = q, p
        return _checked(p, q)

    # -- set operations ------------------------------------------------------

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other: "Interval"):
        """Intersection, or None when disjoint (the explicit empty value)."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def is_disjoint(self, other: "Interval") -> bool:
        return self.hi < other.lo or other.hi < self.lo

    def contains_point(self, t: float) -> bool:
        return self.lo <= t <= self.hi

    def subset_of(self, other: "Interval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    # -- magnitudes ----------------------------------------------------------

    def mig(self) -> float:
        """min |t| over the interval; exact on endpoints."""
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    def mag(self) -> float:
        """max |t| over the interval; exact on endpoints."""
        return max(abs(self.lo), abs(self.hi))

    def mid(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        return min(max(m, self.lo), self.hi)

    def width(self) -> float:
        return self.hi - self.lo

    def split(self, k: int) -> list:
        """Split into k pieces sharing endpoints; their union covers self."""
        if k < 1:
            raise IntervalError(f"split count must be >= 1, got {k}")
        cuts = [self.lo]
        w = self.hi - self.lo
        for i in range(1, k):
            c = self.lo + w * (i / k)
            c = min(max(c, cuts[-1]), self.hi)
            cuts.append(c)
        cuts.append(self.hi)
        return [Interval(cuts[i], cuts[i + 1]) for i in range(k)]


def _checked(lo: float, hi: float) -> Interval:
    if -_INF < lo <= hi < _INF:  # valid: skip the second check in __init__
        iv = _new(Interval)
        iv.lo = lo
        iv.hi = hi
        return iv
    if math.isinf(lo) or math.isinf(hi):
        raise EnclosureError(f"endpoint overflowed: [{lo!r}, {hi!r}]")
    return Interval(lo, hi)


def from_decimal(literal: str) -> Interval:
    """Tightest interval containing the exact value of a decimal literal:
    digits with an optional sign, point and exponent.

    Constants like "1.76" or "0.1" are not binary-representable; going through
    exact rational arithmetic keeps the enclosure width at most one ulp.
    """
    if type(literal) is not str or not _DECIMAL.fullmatch(literal):
        raise IntervalError(f"not a decimal literal: {literal!r}")
    try:
        return from_fraction(Fraction(literal))
    except IntervalError as e:
        raise IntervalError(f"literal out of double range: {literal!r}") from e


def from_fraction(exact: Fraction) -> Interval:
    """Tightest interval containing a rational: the point when it is a double,
    else the one-ulp interval around it.  IntervalError out of double range.
    """
    try:
        f = float(exact)
    except OverflowError as e:
        raise IntervalError(
            f"value out of double range: about 2**"
            f"{exact.numerator.bit_length() - exact.denominator.bit_length()}"
        ) from e
    r = Fraction(f)
    if r == exact:
        return Interval(f, f)
    if r > exact:
        return Interval(_down(f), f)
    return Interval(f, _up(f))


def unchecked_box(coords: tuple) -> "Box":
    """Box over a tuple of Intervals, skipping the per-coordinate check.

    Only for coordinates that are already Intervals, such as the results of
    interval operations; outside input goes through `Box(...)`.
    """
    box = _new(Box)
    box.coords = coords
    return box


class Box:
    """Interval vector: an axis-aligned box in R^n."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(coords)
        for c in self.coords:
            if not isinstance(c, Interval):
                raise IntervalError(f"box coordinate is not an Interval: {c!r}")

    @classmethod
    def from_point(cls, p) -> "Box":
        return cls([Interval.point(float(v)) for v in p])

    @classmethod
    def cube(cls, lo: float, hi: float, dim: int = 3) -> "Box":
        return cls([Interval(lo, hi)] * dim)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> Interval:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)

    def __eq__(self, other):
        return isinstance(other, Box) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        inner = ", ".join(f"[{c.lo!r}, {c.hi!r}]" for c in self.coords)
        return f"Box({inner})"

    def __add__(self, other: "Box") -> "Box":
        if self.dim != other.dim:
            raise IntervalError("dimension mismatch in box addition")
        return unchecked_box(tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "Box") -> "Box":
        if self.dim != other.dim:
            raise IntervalError("dimension mismatch in box subtraction")
        return unchecked_box(tuple(x - y for x, y in zip(self.coords, other.coords)))

    def contains_point(self, p) -> bool:
        return all(c.contains_point(v) for c, v in zip(self.coords, p))

    def contains_box(self, other: "Box") -> bool:
        if self.dim != other.dim:
            raise IntervalError("dimension mismatch in box containment")
        return all(o.subset_of(c) for c, o in zip(self.coords, other.coords))

    def is_disjoint(self, other: "Box") -> bool:
        """True when the boxes share no point (some coordinate is disjoint)."""
        return any(c.is_disjoint(o) for c, o in zip(self.coords, other.coords))

    def midpoint(self):
        return tuple(c.mid() for c in self.coords)

    def endpoints(self):
        return [[c.lo, c.hi] for c in self.coords]
