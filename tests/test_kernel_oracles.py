"""Oracle tests of the interval kernel's hot operations.

Each operation is checked two ways on derandomized hypothesis samples:
- bit identity with the reference formulas below, a copy of the plain
  four-product, min/max kernel, so a rewrite for speed (products picked by
  the operands' signs, rounding done inline) must keep every bit; an
  operation that raises must raise the same type as its reference;
- enclosure of the exact `Fraction` result.

The samples cover signed zeros, subnormals, operands that straddle 0 and
values up to the largest double, about 1.8e308, past which results overflow
and raise EnclosureError.
Sums and differences are also checked to be the tightest double enclosure,
which makes them inclusion-monotone.  A deliberate change of the kernel's
bits (exact products, say) must change these references with it.

The cone matrix and its leading minors are checked the same way, entry for
entry under `==`, against their plain forms kept below: sums that start
from an interval zero, `Q` checked through `Interval.__eq__`, and every
leading minor taken from a slice.  The cone matrix must also enclose the
exact `Fraction` matrices of the members made from the endpoints of `Df`,
and the exact Df(x)^T Q Df(x) - Q, Q the cone check's form, at rational
points x of the boxes the cone check evaluates.
"""

import math
import os
import platform
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import henoncert
from henoncert.hyperbolicity import cone_matrix
from henoncert.intervals import Box, EnclosureError, Interval, IntervalError
from henoncert.linalg import (
    IMatrix,
    det,
    is_positive_definite,
    leading_minor_lower_bounds,
)

_INF = math.inf
_TINY = sys.float_info.min


def _down(x):
    return math.nextafter(x, -_INF)


def _up(x):
    return math.nextafter(x, _INF)


def _ref_checked(lo, hi):
    if math.isinf(lo) or math.isinf(hi):
        raise EnclosureError(f"endpoint overflowed: [{lo!r}, {hi!r}]")
    return Interval(lo, hi)


def ref_add(x, y):
    lo, hi = x.lo + y.lo, x.hi + y.hi
    e = lo - x.lo
    if not (x.lo - (lo - e)) + (y.lo - e) >= 0.0:
        lo = _down(lo)
    e = hi - x.hi
    if not (x.hi - (hi - e)) + (y.hi - e) <= 0.0:
        hi = _up(hi)
    return _ref_checked(lo, hi)


def ref_sub(x, y):
    lo, hi = x.lo - y.hi, x.hi - y.lo
    e = lo - x.lo
    if not (x.lo - (lo - e)) + (-y.hi - e) >= 0.0:
        lo = _down(lo)
    e = hi - x.hi
    if not (x.hi - (hi - e)) + (-y.lo - e) <= 0.0:
        hi = _up(hi)
    return _ref_checked(lo, hi)


def ref_mul(x, y):
    a, b, c, d = x.lo, x.hi, y.lo, y.hi
    p1, p2, p3, p4 = a * c, a * d, b * c, b * d
    return _ref_checked(_down(min(p1, p2, p3, p4)), _up(max(p1, p2, p3, p4)))


def ref_sqr(x):
    a, b = abs(x.lo), abs(x.hi)
    if a > b:
        a, b = b, a
    if x.lo <= 0.0 <= x.hi:
        lo = 0.0
    else:
        lo = max(0.0, _down(a * a))
    return _ref_checked(lo, _up(b * b))


def ref_scale(x, c):
    lo, hi = x.lo, x.hi
    p, q = c * lo, c * hi
    if (abs(math.frexp(c)[0]) != 0.5
            or (abs(p) < _TINY and lo != 0.0) or (abs(q) < _TINY and hi != 0.0)):
        p, q = _down(min(p, q)), _up(max(p, q))
    elif p > q:
        p, q = q, p
    return _ref_checked(p, q)


def ref_neg(x):
    return Interval(-x.hi, -x.lo)


def ref_hull(x, y):
    return Interval(min(x.lo, y.lo), max(x.hi, y.hi))


def ref_intersect(x, y):
    lo, hi = max(x.lo, y.lo), min(x.hi, y.hi)
    return None if lo > hi else Interval(lo, hi)


def _bits(iv):
    """The endpoints' bit patterns, so -0.0 and 0.0 differ."""
    return None if iv is None else struct.pack("<2d", iv.lo, iv.hi)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (EnclosureError, IntervalError) as e:
        return type(e), None


def _same_as_reference(new, ref, *args):
    (kind, got), (ref_kind, want) = _outcome(new, *args), _outcome(ref, *args)
    assert kind == ref_kind, (args, kind, ref_kind)
    assert _bits(got) == _bits(want), (args, got, want)
    return got


def _encloses(iv, lo, hi):
    return Fraction(iv.lo) <= lo and hi <= Fraction(iv.hi)


def _tightest(iv, lo, hi):
    """No double lies strictly between an endpoint and the exact bound; past
    the largest double, the next one up or down is an infinity."""
    up, down = _up(iv.lo), _down(iv.hi)
    return ((up == _INF or Fraction(up) > lo)
            and (down == -_INF or Fraction(down) < hi))


_MAX = sys.float_info.max
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, _TINY, -_TINY,
            1.0, -1.0, 0.5, 2.0, 1.1, -0.1, 1.34e154, -1.34e154, 1.4e154,
            1e308, -1e308, 1.7e308, -1.7e308, _MAX, -_MAX]
floats = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-4.0, 4.0),  # products and sums that round, but do not overflow
    st.floats(-1e-300, 1e-300),  # subnormal products
)


@st.composite
def intervals(draw, floats=floats):
    kind = draw(st.sampled_from(["any", "straddle", "point"]))
    if kind == "straddle":
        lo = -abs(draw(floats))
        hi = abs(draw(floats))
    elif kind == "point":
        lo = hi = draw(floats)
    else:
        lo, hi = sorted((draw(floats), draw(floats)))
    return Interval(lo, hi)


_SETTINGS = settings(max_examples=500, deadline=None, derandomize=True,
                     database=None, suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(x=intervals(), y=intervals())
def test_add_matches_reference_and_encloses(x, y):
    got = _same_as_reference(Interval.__add__, ref_add, x, y)
    if got is not None:
        exact = Fraction(x.lo) + Fraction(y.lo), Fraction(x.hi) + Fraction(y.hi)
        assert _encloses(got, *exact) and _tightest(got, *exact)


@_SETTINGS
@given(x=intervals(), y=intervals())
def test_sub_matches_reference_and_encloses(x, y):
    got = _same_as_reference(Interval.__sub__, ref_sub, x, y)
    if got is not None:
        exact = Fraction(x.lo) - Fraction(y.hi), Fraction(x.hi) - Fraction(y.lo)
        assert _encloses(got, *exact) and _tightest(got, *exact)


@_SETTINGS
@given(x=intervals(), y=intervals())
def test_mul_matches_reference_and_encloses(x, y):
    got = _same_as_reference(Interval.__mul__, ref_mul, x, y)
    if got is not None:
        ps = [Fraction(s) * Fraction(t) for s in (x.lo, x.hi) for t in (y.lo, y.hi)]
        assert _encloses(got, min(ps), max(ps))


@_SETTINGS
@given(x=intervals())
def test_sqr_matches_reference_and_encloses(x):
    got = _same_as_reference(Interval.sqr, ref_sqr, x)
    if got is not None:
        lo, hi = Fraction(x.lo), Fraction(x.hi)
        least = 0 if lo <= 0 <= hi else min(lo * lo, hi * hi)
        assert _encloses(got, least, max(lo * lo, hi * hi))


powers_of_two = st.builds(lambda k, s: s * math.ldexp(1.0, k),
                          st.integers(-1074, 1023), st.sampled_from([1.0, -1.0]))
scalars = st.one_of(powers_of_two, floats,
                    st.sampled_from([_INF, -_INF, math.nan]))


@_SETTINGS
@given(x=intervals(), c=scalars)
def test_scale_matches_reference_and_encloses(x, c):
    got = _same_as_reference(Interval.scale, ref_scale, x, c)
    if got is not None:
        ps = [Fraction(c) * Fraction(t) for t in (x.lo, x.hi)]
        assert _encloses(got, min(ps), max(ps))


@_SETTINGS
@given(x=intervals(), y=intervals())
def test_set_operations_match_reference(x, y):
    _same_as_reference(Interval.__neg__, ref_neg, x)
    _same_as_reference(Interval.hull, ref_hull, x, y)
    _same_as_reference(Interval.intersect, ref_intersect, x, y)


def test_sum_widens_where_its_two_sum_overflows():
    """lo - x.lo overflows to inf although lo is finite; the two-sum error is
    then NaN, and the rounded-up lower bound must still be widened."""
    x, y = Interval(-(2.0**971 + 2.0**970), 0.0), Interval(_MAX, _MAX)
    exact = Fraction(x.lo) + Fraction(_MAX)
    assert x.lo + _MAX > exact and math.isinf(x.lo + _MAX - x.lo)
    for got in (x + y, y + x, x - (-y), y - (-x)):
        assert Fraction(got.lo) <= exact < Fraction(_up(got.lo))


def test_mul_sign_cases_and_overflow():
    """The nine sign cases of a product, and the overflow that raises."""
    def sign(iv):
        return "P" if iv.lo >= 0.0 else "N" if iv.hi <= 0.0 else "S"

    cases = {}
    for x in (Interval(1.0, 2.0), Interval(-2.0, -1.0), Interval(-1.0, 3.0)):
        for y in (Interval(0.5, 4.0), Interval(-4.0, -0.5), Interval(-3.0, 0.25)):
            got = _same_as_reference(Interval.__mul__, ref_mul, x, y)
            cases[sign(x) + sign(y)] = got
    assert len(cases) == 9
    big = Interval(1e308, 1e308)
    with pytest.raises(EnclosureError):
        big * Interval(-3.0, 2.0)
    with pytest.raises(EnclosureError):
        Interval(-3.0, 2.0) * big


_ZERO = Interval(0.0, 0.0)


def ref_cone_matrix(Df, Q):
    n = Q.nrows
    if any(len(r) != n for r in Q.rows) or not all(
        e.lo == e.hi if i == j else e == _ZERO
        for i, r in enumerate(Q.rows) for j, e in enumerate(r)
    ):
        raise IntervalError("cone form Q must be a diagonal point matrix")
    q = [Q.rows[i][i].lo for i in range(n)]
    if Df.nrows != n or Df.ncols != n:
        raise IntervalError("Df must be square, of the size of Q")
    cols = list(zip(*Df.rows))
    S = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = _ZERO
            for qk, a, b in zip(q, cols[i], cols[j]):
                t = a.sqr() if i == j else a * b
                if abs(qk) != 1.0:
                    t = t.scale(abs(qk))
                acc = acc + t if qk > 0 else acc - t
            if i == j:
                acc = acc - Q[i, i]
            S[i][j] = S[j][i] = acc
    return IMatrix(S)


def ref_leading_minor_lower_bounds(S):
    n = S.nrows
    if n != S.ncols:
        raise IntervalError("leading minors require a square matrix")
    return [det(IMatrix([row[:k] for row in S.rows[:k]])).lo
            for k in range(1, n + 1)]


def _exact_cone(D, q):
    """Exact D^T diag(q) D - diag(q) for a Fraction matrix and diagonal."""
    n = len(q)
    return [[sum(q[k] * D[k][i] * D[k][j] for k in range(n)) - (q[i] if i == j else 0)
             for j in range(n)] for i in range(n)]


def _same_cone_results(Df, Q):
    """cone_matrix, its minors and Sylvester's verdict against the references,
    and the cone matrix's enclosure of exact members."""
    args = (Df, Q)
    (kind, S), (ref_kind, ref_S) = (_outcome(cone_matrix, *args),
                                    _outcome(ref_cone_matrix, *args))
    assert kind == ref_kind, (args, kind, ref_kind)
    if S is None:
        return
    assert S.rows == ref_S.rows, (args, S, ref_S)
    n = Q.nrows
    q = [Fraction(Q[k, k].lo) for k in range(n)]
    for end in ("lo", "hi"):
        D = [[Fraction(getattr(e, end)) for e in r] for r in Df.rows]
        exact = _exact_cone(D, q)
        assert all(_encloses(S[i, j], exact[i][j], exact[i][j])
                   for i in range(n) for j in range(n)), (args, S, exact)
    (kind, got), (ref_kind, want) = (
        _outcome(lambda M: list(leading_minor_lower_bounds(M)), S),
        _outcome(ref_leading_minor_lower_bounds, ref_S),
    )
    assert kind == ref_kind and got == want, (S, got, want)
    if want is not None:
        assert is_positive_definite(S) == all(lo > 0.0 for lo in want)


small_floats = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0]),
                         st.floats(-4.0, 4.0))
_ZEROS = [_ZERO, Interval(-0.0, -0.0), Interval(-0.0, 0.0)]


# Diagonal entries of Q: +-1 (terms left unscaled), the shipped form's
# 0.390625 and -0.5625, dyadics, signed zeros, and other doubles.
_FORM_ENTRIES = st.one_of(
    st.sampled_from([1.0, -1.0, 0.390625, -0.5625, 0.0, -0.0]),
    st.builds(math.ldexp, st.sampled_from([1.0, -1.0, 3.0, -5.0]), st.integers(-8, 8)),
    st.floats(-4.0, 4.0),
)


@st.composite
def cone_inputs(draw):
    """(Df, Q): Q mostly a diagonal point matrix of Df's size, sometimes off
    that form."""
    n = draw(st.integers(1, 3))
    zero = draw(st.sampled_from(_ZEROS))
    q = [[Interval.point(draw(_FORM_ENTRIES)) if i == j else zero
          for j in range(n)] for i in range(n)]
    if draw(st.integers(0, 4)) == 0:  # one entry replaced
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        q[i][j] = draw(intervals(small_floats))
    if n > 1 and draw(st.integers(0, 9)) == 0:  # not square
        q = q[:-1]
    m = n if draw(st.integers(0, 9)) else draw(st.integers(1, 3))
    entries = intervals(draw(st.sampled_from([floats, small_floats])))
    Df = IMatrix([[draw(entries) for _ in range(m)] for _ in range(m)])
    return Df, IMatrix(q)


@_SETTINGS
@given(inputs=cone_inputs())
def test_cone_matrix_and_minors_match_reference(inputs):
    _same_cone_results(*inputs)


@pytest.mark.parametrize("Q", [
    IMatrix.diagonal([1.0, 1.0, -1.0]),
    IMatrix.diagonal([-1.0, 1.0, -1.0]),
    IMatrix.diagonal([2.0, 1.0, -1.0]),
    IMatrix.diagonal([1.0, 0.390625, -0.5625]),
    IMatrix.diagonal([0.25, 0.0, -0.0]),
    IMatrix.diagonal([Interval(0.5, 1.0), 1.0, -1.0]),
    IMatrix.diagonal([1.0, 2.0, Interval(-0.01, -0.0)]),
    IMatrix([[Interval(1.0, 1.0), Interval(0.0, 0.0), Interval(0.0, 0.0)],
             [Interval(0.0, 0.0), Interval(1.0, 1.0), Interval(-1e-300, 0.0)],
             [Interval(0.0, 0.0), Interval(0.0, 0.0), Interval(-1.0, -1.0)]]),
    IMatrix.diagonal([Interval(1.0, 2.0), 1.0, -1.0]),
    IMatrix.from_floats([[1, 0.5, 0], [0, 1, 0], [0, 0, -1]]),
    IMatrix.diagonal([1.0, -1.0]),
    IMatrix.from_floats([[1, 0, 0], [0, 1, 0]]),
])
def test_cone_matrix_q_cases_match_reference(Q):
    _same_cone_results(IMatrix.identity(3), Q)
    _same_cone_results(IMatrix.from_floats([[2, 0.5, 0], [1, -1, 0], [0, 1, 0.1]]), Q)


_SHIPPED_FORM = IMatrix.diagonal([1.0, 0.390625, -0.5625])


@pytest.mark.parametrize("Df, kind", [
    # point zeros and signed zeros, scaled by 0.390625 and 0.5625
    (IMatrix.from_floats([[0.0, 1.0, -0.0], [-0.0, 0.0, 2.0], [3.0, -0.0, 0.0]]), "ok"),
    # entries that straddle zero, so products and squares of mixed sign
    (IMatrix([[Interval(-1.0, 2.0), Interval(-0.5, 0.25), Interval(0.0, 1.0)],
              [Interval(-3.0, -1.0), Interval(-2.0, 2.0), Interval(-0.0, 0.5)],
              [Interval(0.125, 4.0), Interval(-1.0, 0.0), Interval(-0.75, 0.75)]]), "ok"),
    # subnormal products, which the scaling must round outward
    (IMatrix.from_floats([[5e-324, 1e-160, 1.0], [1e-160, 5e-324, 0.5],
                          [2.0, 1e-300, 1e-170]]), "ok"),
    # a square that overflows
    (IMatrix.from_floats([[1e200, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
     EnclosureError),
    # not the size of Q
    (IMatrix.identity(2), IntervalError),
    (IMatrix.from_floats([[1, 0], [0, 1], [0, 0]]), IntervalError),
])
def test_cone_matrix_df_cases_match_reference(Df, kind):
    """The shipped form's scaled terms on edge-case Jacobians, and Df checks."""
    assert _outcome(cone_matrix, Df, _SHIPPED_FORM)[0] == kind
    _same_cone_results(Df, _SHIPPED_FORM)
    _same_cone_results(Df, IMatrix.diagonal([1.0, 1.0, -1.0]))


def test_charted_cone_matrix_encloses_exact_forms():
    """Exact Df(x)^T Q Df(x) - Q, Q = W diag(1, 1, -1) W from the cone scales,
    lies in the enclosure `check_map_pair` uses on each sampled box,
    `cone_matrix(f.jacobian(box), cone_quadratic_form())`, at rational
    points x of the box."""
    import random

    from henoncert import HenonMap, IteratedMap, make_paper_hsets, paper_map_pairs
    from henoncert.hsets import HSET_A_DEFINITION, HSET_B_DEFINITION
    from henoncert.hyperbolicity import CONE_SCALES, cone_quadratic_form
    from henoncert.linalg import subdivide_box
    from test_henon import _h4_jacobian_exact, _inverse_exact, _matmul_exact

    W = [Fraction(w) for w in CONE_SCALES]
    form = [w * w * sign for w, sign in zip(W, (1, 1, -1))]
    Q = cone_quadratic_form()
    exact_charts = {n: ([Fraction(v) for v in d["center"]],
                        [[Fraction(v) for v in r] for r in d["basis"]])
                    for n, d in (("a", HSET_A_DEFINITION), ("b", HSET_B_DEFINITION))}
    hsets = dict(zip("ab", make_paper_hsets()))
    rng = random.Random(20261019)
    cells = list(subdivide_box(Box.cube(-1.0, 1.0, 3), (6, 6, 6)))
    points = 0
    for label, f in paper_map_pairs(IteratedMap(HenonMap(), k=4), hsets).items():
        (c, M), (_, M_post) = exact_charts[label[0]], exact_charts[label[1]]
        M_inv = _inverse_exact(M_post)
        for box in rng.sample(cells, 8):
            S = cone_matrix(f.jacobian(box), Q)
            for _ in range(3):
                x = [Fraction(e.lo) + Fraction(rng.randint(0, 8), 8)
                     * (Fraction(e.hi) - Fraction(e.lo)) for e in box]
                w = [c[r] + sum(M[r][k] * x[k] for k in range(3)) for r in range(3)]
                Df = _matmul_exact(M_inv, _matmul_exact(_h4_jacobian_exact(w), M))
                exact = _exact_cone(Df, form)
                assert all(_encloses(S[i, j], exact[i][j], exact[i][j])
                           for i in range(3) for j in range(3)), (label, box, x)
                points += 1
    assert points == 96


def test_leading_minors_of_a_non_square_matrix_raise_as_reference():
    M = IMatrix.from_floats([[1, 0, 0], [0, 1, 0]])
    assert _outcome(lambda S: list(leading_minor_lower_bounds(S)), M)[0] is IntervalError
    assert _outcome(ref_leading_minor_lower_bounds, M)[0] is IntervalError


_UPWARD_IMPORT = """
import ctypes
import sys
from ctypes.util import find_library

libm = ctypes.CDLL(find_library("m"))
if libm.fesetround(0x800) != 0:  # FE_UPWARD on x86-64
    sys.exit("fesetround failed")
one, half_ulp = float("1"), float("1.1102230246251565e-16")
if one + half_ulp == one:
    sys.exit("the rounding mode did not change")
import henoncert.intervals
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.machine() != "x86_64",
                    reason="FE_UPWARD is 0x800 on x86-64 Linux")
def test_import_refuses_a_rounding_mode_other_than_nearest(tmp_path):
    src = str(Path(henoncert.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _UPWARD_IMPORT], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert run.returncode != 0
    assert "round-to-nearest" in run.stderr, run.stderr
