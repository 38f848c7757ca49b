import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from henoncert import Box, EnclosureError, Interval, IntervalError, from_decimal
from henoncert.intervals import from_fraction

I = Interval


def contains_exact(iv, frac):
    return Fraction(iv.lo) <= frac <= Fraction(iv.hi)


class TestArithmetic:
    def test_add_exact_endpoints(self):
        assert I(1, 2) + I(3, 4) == I(4, 6)

    def test_sub_exact_endpoints(self):
        assert I(1, 2) - I(3, 4) == I(-3, -1)

    def test_mul_sign_cases(self):
        r = I(-1, 2) * I(3, 4)
        assert r.lo <= -4 <= 8 <= r.hi
        assert r.lo >= math.nextafter(-4, -math.inf)
        assert r.hi <= math.nextafter(8, math.inf)

    def test_sqr_is_dependency_aware(self):
        r = I(-2, 1).sqr()
        assert r.lo == 0.0
        assert 4.0 <= r.hi <= math.nextafter(4.0, math.inf)
        naive = I(-2, 1) * I(-2, 1)
        assert naive.lo < 0.0  # the naive product forgets the dependency

    def test_neg(self):
        assert -I(-1, 2) == I(-2, 1)

    def test_scale(self):
        r = I(1, 2).scale(-3.0)
        assert r.lo <= -6 <= -3 <= r.hi

    def test_scale_by_power_of_two_is_exact(self):
        for x, c in [(I(1.5, 3.25), -2.0), (I(-0.1, 0.3), 0.25),
                     (I(0.0, 1e-300), 2.0 ** 600), (I(-1e300, -3.0), 2.0 ** -900),
                     (I(5e-324, 1e-310), 2.0 ** 60)]:  # subnormal operands, normal products
            r = x.scale(c)
            lo, hi = sorted((Fraction(x.lo) * Fraction(c), Fraction(x.hi) * Fraction(c)))
            assert (Fraction(r.lo), Fraction(r.hi)) == (lo, hi)

    def test_scale_into_subnormals_widens(self):
        tiny = math.ldexp(1.0 + 2.0 ** -52, -1022)  # normal; half of it is not a double
        for x, c in [(I(tiny, tiny), 0.5), (I(-tiny, 1.0), 0.5), (I(3 * 5e-324, 3 * 5e-324), 0.5),
                     # nonzero operands whose products round to zero
                     (I(5e-324, 5e-324), 0.5), (I(1e-300, 1e-300), 2.0 ** -900),
                     (I(-1e-300, 0.0), -(2.0 ** -900))]:
            r = x.scale(c)
            assert contains_exact(r, Fraction(x.lo) * Fraction(c))
            assert contains_exact(r, Fraction(x.hi) * Fraction(c))
            assert r.lo < r.hi
        with pytest.raises(EnclosureError):
            I(1.0, 1e308).scale(2.0)

    def test_invalid_construction(self):
        with pytest.raises(IntervalError):
            I(2, 1)
        with pytest.raises(IntervalError):
            I(float("nan"), 1)
        with pytest.raises(IntervalError):
            I(0, float("inf"))

    def test_overflow_is_an_error(self):
        big = I(1e308, 1e308)
        with pytest.raises(EnclosureError):
            big + big
        with pytest.raises(EnclosureError):
            big * big


class TestFromDecimal:
    def test_dyadic_is_exact(self):
        assert from_decimal("0.5") == I(0.5, 0.5)

    def test_non_dyadic_encloses(self):
        r = from_decimal("0.1")
        tenth = Fraction(1, 10)
        assert Fraction(r.lo) < tenth < Fraction(r.hi)
        assert r.hi == math.nextafter(r.lo, math.inf)

    def test_176_against_exact_rational(self):
        r = from_decimal("1.76")
        assert contains_exact(r, Fraction(44, 25))
        assert r.hi - r.lo <= math.ulp(r.lo)

    @pytest.mark.parametrize("literal", [
        "not-a-number", "1/3", " 1.76 ", "1_000", "", ".", "1e", "inf", "nan",
        "\u0661", 1.76,  # an Arabic-Indic one, and a float
    ])
    def test_malformed(self, literal):
        # Fraction accepts "1/3", " 1.76 " and "1_000"; a decimal literal is
        # digits with an optional sign, point and exponent, nothing else
        with pytest.raises(IntervalError, match="not a decimal literal"):
            from_decimal(literal)

    @pytest.mark.parametrize("literal, value", [
        ("1", 1.0), ("-1.", -1.0), ("+.5", 0.5), ("2.5E-1", 0.25), ("1e+2", 100.0),
    ])
    def test_decimal_forms(self, literal, value):
        assert from_decimal(literal) == I(value, value)

    def test_out_of_double_range(self):
        for literal in ("1e400", "-2e308"):
            with pytest.raises(IntervalError, match=literal):
                from_decimal(literal)
        top = Fraction(sys.float_info.max)
        for exact in (top + 1, Fraction(2 ** 1024 - 2 ** 970)):  # above the largest double
            with pytest.raises(IntervalError):
                from_fraction(exact)
        assert from_fraction(top - 1).hi == sys.float_info.max
        assert from_decimal("1e-400") == I(0.0, 5e-324)


class TestSetOps:
    def test_hull(self):
        assert I(0, 1).hull(I(2, 3)) == I(0, 3)

    def test_intersect_disjoint_is_empty(self):
        assert I(0, 1).intersect(I(2, 3)) is None
        assert I(0, 1).is_disjoint(I(2, 3))

    def test_intersect_overlap(self):
        assert I(0, 2).intersect(I(1, 3)) == I(1, 2)

    def test_subset(self):
        assert I(0.2, 0.3).subset_of(I(0, 1))
        assert not I(0.2, 1.3).subset_of(I(0, 1))

    def test_contains_point(self):
        assert I(0, 1).contains_point(0.5)
        assert not I(0, 1).contains_point(1.5)


class TestMagnitudes:
    def test_positive(self):
        assert I(2, 3).mig() == 2.0
        assert I(2, 3).mag() == 3.0

    def test_contains_zero(self):
        assert I(-0.5, 2).mig() == 0.0
        assert I(-0.5, 2).mag() == 2.0

    def test_negative(self):
        assert I(-3, -1.5).mig() == 1.5
        assert I(-3, -1.5).mag() == 3.0


class TestSplit:
    def test_halves(self):
        assert I(-1, 1).split(2) == [I(-1, 0), I(0, 1)]

    def test_identity(self):
        assert I(0, 1).split(1) == [I(0, 1)]

    def test_cover_property(self):
        x = I(-1, 1)
        pieces = x.split(20)
        assert pieces[0].lo == x.lo and pieces[-1].hi == x.hi
        for p, q in zip(pieces, pieces[1:]):
            assert p.hi == q.lo  # endpoint chaining: the union covers x
        for p in pieces:
            assert p.subset_of(x)

    def test_zero_count_rejected(self):
        with pytest.raises(IntervalError):
            I(0, 1).split(0)


def _random_interval(rng, scale=10.0):
    a, b = sorted(rng.uniform(-scale, scale, size=2))
    return I(a, b)


def _apply(op, x, y):
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "sqr":
        return x.sqr()
    if op == "neg":
        return -x


def _apply_pt(op, s, t):
    if op == "add":
        return s + t
    if op == "sub":
        return s - t
    if op == "mul":
        return s * t
    if op == "sqr":
        return s * s
    if op == "neg":
        return -s


OPS = ["add", "sub", "mul", "sqr", "neg"]


class TestEnclosureProperties:
    def test_random_enclosure(self, rng):
        for _ in range(2000):
            x = _random_interval(rng)
            y = _random_interval(rng)
            op = OPS[rng.integers(len(OPS))]
            r = _apply(op, x, y)
            for s, t in zip(
                rng.uniform(x.lo, x.hi, size=5), rng.uniform(y.lo, y.hi, size=5)
            ):
                assert r.contains_point(_apply_pt(op, s, t))

    def test_inclusion_monotonicity(self, rng):
        for _ in range(1000):
            xo = _random_interval(rng)
            yo = _random_interval(rng)
            xi = I(*sorted(rng.uniform(xo.lo, xo.hi, size=2)))
            yi = I(*sorted(rng.uniform(yo.lo, yo.hi, size=2)))
            op = OPS[rng.integers(len(OPS))]
            assert _apply(op, xi, yi).subset_of(_apply(op, xo, yo))

    def test_mig_mag_sandwich(self, rng):
        for _ in range(500):
            x = _random_interval(rng)
            for t in rng.uniform(x.lo, x.hi, size=10):
                assert x.mig() <= abs(t) <= x.mag()


class TestBox:
    def test_disjoint(self):
        u = Box.cube(-1, 1, 3)
        shifted = Box([I(3, 4), I(-1, 1), I(-1, 1)])
        assert u.is_disjoint(shifted)
        assert not u.is_disjoint(Box.cube(0.5, 2, 3))

    def test_contains(self):
        u = Box.cube(-1, 1, 3)
        assert u.contains_point((0, 0.5, -1))
        assert u.contains_box(Box.cube(-0.5, 0.5, 3))

    @pytest.mark.parametrize("outer, inner", [(3, 2), (2, 3)])
    def test_contains_box_dimension_mismatch(self, outer, inner):
        with pytest.raises(IntervalError):
            Box.cube(-1, 1, outer).contains_box(Box.cube(0, 0, inner))

    def test_add_sub_roundtrip(self):
        u = Box.cube(-1, 1, 3)
        c = Box.from_point((1, 2, 3))
        assert ((u + c) - c).contains_box(u)
