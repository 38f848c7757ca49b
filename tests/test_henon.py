import math
from fractions import Fraction

import numpy as np
import pytest

from henoncert import (
    Box,
    DivergenceError,
    HenonMap,
    Interval,
    IntervalError,
    IteratedMap,
    LinearMap,
    eval_point_fast,
    paper_map_pairs,
)
from henoncert.hsets import HSET_A_DEFINITION, HSET_B_DEFINITION, HSet
from henoncert.linalg import IMatrix, subdivide_box

A_EXACT = Fraction(44, 25)
B_EXACT = Fraction(1, 10)


def _exact_in(iv, frac):
    return Fraction(iv.lo) <= frac <= Fraction(iv.hi)


def _henon_exact(p):
    x, y, z = p
    return (A_EXACT - y * y - B_EXACT * z, x, y)


def _jacobian_exact(p):
    y = p[1]
    return [
        [Fraction(0), -2 * y, -B_EXACT],
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
    ]


def _matmul_exact(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]


def _inverse_exact(M):
    """Exact 3x3 inverse over the rationals, by the adjugate."""
    def cof(i, j):
        r = [k for k in range(3) if k != i]
        c = [k for k in range(3) if k != j]
        minor = M[r[0]][c[0]] * M[r[1]][c[1]] - M[r[0]][c[1]] * M[r[1]][c[0]]
        return minor if (i + j) % 2 == 0 else -minor

    det = sum(M[0][j] * cof(0, j) for j in range(3))
    return [[cof(j, i) / det for j in range(3)] for i in range(3)]


def _chart_exact(name):
    """(c, M) of a shipped h-set, as Fractions of its decimal definition."""
    d = {"a": HSET_A_DEFINITION, "b": HSET_B_DEFINITION}[name]
    M = [[Fraction(v) for v in r] for r in d["basis"]]
    return [Fraction(v) for v in d["center"]], M


def pair_image_exact(label, p):
    """Exact f_ij(p) = M_j^-1 (H^4(c_i + M_i p) - c_j) for the pair label ij."""
    (ci, Mi), (cj, Mj) = _chart_exact(label[0]), _chart_exact(label[1])
    w = [ci[r] + sum(Mi[r][k] * p[k] for k in range(3)) for r in range(3)]
    for _ in range(4):
        w = _henon_exact(w)
    Minv = _inverse_exact(Mj)
    return [sum(Minv[r][k] * (w[k] - cj[k]) for k in range(3)) for r in range(3)]


def _h4_jacobian_exact(w):
    """Exact DH^4 at the world point w, along the exact orbit."""
    J = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    for _ in range(4):
        J = _matmul_exact(_jacobian_exact(w), J)
        w = _henon_exact(w)
    return J


def _h4_box(X):
    """H^4 of a world box, by four steps of `HenonMap.eval_box`."""
    H = HenonMap()
    for _ in range(4):
        X = H.eval_box(X)
    return X


def _unit_hset(name, u, s):
    ident = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    return HSet(name, {"center": ["0"] * 3, "basis": ident, "u": u, "s": s})


def _dyadic_point(rng):
    """A point of [-1, 1]^3 with coordinates k/64: exact as doubles."""
    return tuple(Fraction(int(rng.integers(-64, 65)), 64) for _ in range(3))


def _assert_encloses(J, exact):
    for i in range(3):
        for j in range(3):
            assert Fraction(J[i, j].lo) <= exact[i][j] <= Fraction(J[i, j].hi)


# the target-side chain, which the cone check uses, and the source-side one
CHAINS = ("jacobian", "jacobian_from_source")


class TestEval:
    def test_origin(self):
        img = HenonMap().eval_box(Box.from_point((0, 0, 0)))
        assert _exact_in(img[0], A_EXACT)
        assert img[1] == Interval(0, 0) and img[2] == Interval(0, 0)

    def test_ones(self):
        img = HenonMap().eval_box(Box.from_point((1, 1, 1)))
        assert _exact_in(img[0], Fraction("0.66"))
        assert img[1] == Interval(1, 1) and img[2] == Interval(1, 1)

    def test_fixed_point_box_maps_into_itself_region(self):
        # x* is the positive root of x^2 + 1.1 x - 1.76 = 0
        import mpmath

        mpmath.mp.dps = 50
        xs = (-mpmath.mpf("1.1") + mpmath.sqrt(mpmath.mpf("8.25"))) / 2
        x = float(xs)
        w = 1e-10
        box = Box([Interval(x - w, x + w)] * 3)
        img = HenonMap().eval_box(box)
        assert not img.is_disjoint(box)


class TestJacobian:
    def test_at_origin(self):
        J = HenonMap().jacobian_box(Box.from_point((0, 0, 0)))
        assert J[0, 1].contains_point(0.0)
        assert _exact_in(-J[0, 2], B_EXACT)
        assert J[1, 0] == Interval(1, 1) and J[2, 1] == Interval(1, 1)

    def test_at_y_one(self):
        J = HenonMap().jacobian_box(Box.from_point((0, 1, 0)))
        assert J[0, 1].contains_point(-2.0)

    @pytest.mark.parametrize("chain", CHAINS)
    def test_chart_pair_jacobians_enclose_exact_rational(self, paper_hsets, h4, rng,
                                                         chain):
        # M_j^-1 DH^4(c_i + M_i p) M_i with the exact decimal charts
        pairs = paper_map_pairs(h4, paper_hsets)
        for label, f in pairs.items():
            (ci, Mi), (_, Mj) = _chart_exact(label[0]), _chart_exact(label[1])
            for _ in range(5):
                p = _dyadic_point(rng)
                w = tuple(ci[r] + sum(Mi[r][k] * p[k] for k in range(3))
                          for r in range(3))
                exact = _matmul_exact(
                    _inverse_exact(Mj),
                    _matmul_exact(_h4_jacobian_exact(w), Mi),
                )
                J = getattr(f, chain)(Box.from_point([float(v) for v in p]))
                _assert_encloses(J, exact)


def _width(M):
    return sum(e.width() for row in M.rows for e in row)


class TestJacobianChain:
    """The companion steps, which drop point-zero terms, and the two chains,
    from the target chart's inverse and from the source chart's basis,
    against exact results and against the products that keep every term."""

    GRID = (6, 6, 6)

    def test_step_drops_point_zero_terms(self):
        # row 0 of Dh(X) @ J is (-2y) J[1] + (-b) J[2], with y = 3/8 exact
        X = Box.from_point((0.0, 0.375, 0.0))
        r0 = (Interval(1.0, 1.0), Interval(2.0, 2.0), Interval(3.0, 3.0))
        r1 = (Interval(0.5, 0.75), Interval(-0.0, -0.0), Interval(0.0, 0.0))
        r2 = (Interval(0.0, 0.0), Interval(1.25, 1.5), Interval(-0.0, 0.0))
        row, *rest = HenonMap().jacobian_step(X, IMatrix([r0, r1, r2])).rows
        assert rest == [r0, r1]
        m2y, mb = Interval(-0.75, -0.75), -HenonMap().b
        # each entry with one point-zero factor is the other term alone ...
        assert row[0] == m2y * r1[0] and row[1] == mb * r2[1]
        # ... which encloses the exact values, and is narrower than the sum
        # that adds the zero term's product
        for got, (lo, hi), kept in [
            (row[0], (Fraction(-9, 16), Fraction(-3, 8)), m2y * r1[0] + mb * r2[0]),
            (row[1], (Fraction(-3, 20), Fraction(-1, 8)), m2y * r1[1] + mb * r2[1]),
        ]:
            assert Fraction(got.lo) <= lo and hi <= Fraction(got.hi)
            assert got.subset_of(kept) and got.width() < kept.width()
        # both factors point zeros: the point 0 itself, not a rounded product
        assert (row[2].lo, row[2].hi) == (0.0, 0.0)
        assert math.copysign(1.0, row[2].lo) == math.copysign(1.0, row[2].hi) == 1.0

    def test_times_jacobian_drops_point_zero_terms(self):
        # J @ Dh(X) maps a row (p, q, r) to (q, (-2y) p + r, (-b) p), y = 3/8
        X = Box.from_point((0.0, 0.375, 0.0))
        p, q, r = Interval(0.5, 0.75), Interval(2.0, 3.0), Interval(1.25, 1.5)
        zero, nzero = Interval(0.0, 0.0), Interval(-0.0, -0.0)
        rows = HenonMap().times_jacobian(
            X, IMatrix([(p, q, r), (p, q, zero), (nzero, q, r)])).rows
        m2y, mb = Interval(-0.75, -0.75), -HenonMap().b
        assert rows[0] == (q, m2y * p + r, mb * p)
        # a point-zero r: the product alone, which encloses the exact values
        # and is narrower than the sum that adds the zero
        got = rows[1][1]
        assert rows[1] == (q, m2y * p, mb * p)
        assert Fraction(got.lo) <= Fraction(-9, 16) and Fraction(-3, 8) <= Fraction(got.hi)
        assert got.subset_of(m2y * p + zero)
        # a point-zero p: r itself, exactly, and the point 0
        assert rows[2][:2] == (q, r)
        assert (rows[2][2].lo, rows[2][2].hi) == (0.0, 0.0)
        assert math.copysign(1.0, rows[2][2].lo) == 1.0

    def test_pair_jacobians_within_target_side_dense_chain(self, paper_hsets, h4):
        # ((((M_j^-1 @ Dh(w3)) @ Dh(w2)) @ Dh(w1)) @ Dh(w0)) @ M_i, which
        # multiplies every exact 0 and 1 of Dh and M
        H = HenonMap()
        for f in paper_map_pairs(h4, paper_hsets).values():
            chain = dense = 0.0
            for X in subdivide_box(Box.cube(-1, 1, 3), self.GRID):
                orbit = f.orbit(X)
                D = f.chart_post.basis_inv
                for w in orbit[-2::-1]:
                    D = D @ H.jacobian_box(w)
                D = D @ f.chart_pre.basis
                J = f.jacobian(X, orbit)
                assert D.contains(J)
                chain += _width(J)
                dense += _width(D)
            assert chain < dense

    def test_pair_jacobians_within_dense_chain_in_order(self, paper_hsets, h4):
        # M_j^-1 @ (Dh(w3) @ (Dh(w2) @ (Dh(w1) @ (Dh(w0) @ M_i)))), which
        # multiplies every exact 0 and 1 of Dh and M
        H = HenonMap()
        for f in paper_map_pairs(h4, paper_hsets).values():
            chain = dense = 0.0
            for X in subdivide_box(Box.cube(-1, 1, 3), self.GRID):
                orbit = f.orbit(X)
                D = f.chart_pre.basis
                for w in orbit[:-1]:
                    D = H.jacobian_box(w) @ D
                D = f.chart_post.basis_inv @ D
                J = f.jacobian_from_source(X, orbit)
                assert D.contains(J)
                chain += _width(J)
                dense += _width(D)
            assert chain < dense

    def test_target_side_chain_narrower_than_source_side(self, paper_hsets, h4):
        # in total per pair: the ratio is 0.72-0.76 at this grid
        for label, f in paper_map_pairs(h4, paper_hsets).items():
            target = source = 0.0
            for X in subdivide_box(Box.cube(-1, 1, 3), self.GRID):
                orbit = f.orbit(X)
                target += _width(f.jacobian(X, orbit))
                source += _width(f.jacobian_from_source(X, orbit))
            assert target < 0.8 * source, label

class TestIteratedMap:
    def test_pair_midpoint_images_enclose_exact_rational(self, paper_hsets, h4, rng):
        # f_ij(m) at the midpoint m of a dyadic box, the point the mean-value
        # form of condition I expands about
        for label, f in paper_map_pairs(h4, paper_hsets).items():
            for _ in range(10):
                corners = zip(_dyadic_point(rng), _dyadic_point(rng))
                P = Box([Interval(float(min(c)), float(max(c))) for c in corners])
                m = P.midpoint()
                exact = [(Fraction(c.lo) + Fraction(c.hi)) / 2 for c in P]
                assert [Fraction(v) for v in m] == exact  # dyadic: m is exact
                Y = f.eval(Box.from_point(m))
                image = pair_image_exact(label, exact)
                assert all(_exact_in(y, e) for y, e in zip(Y, image))

    def test_point_in_image_property(self, rng):
        for _ in range(50):
            lo = rng.uniform(-0.6, 0.5, size=3)
            X = Box([Interval(v, v + 0.1) for v in lo])
            Y = _h4_box(X)
            for _ in range(5):
                p = tuple(rng.uniform(c.lo, c.hi) for c in X)
                q = eval_point_fast(p, 4)
                for iv, v in zip(Y, q):
                    assert iv.lo - 1e-9 <= v <= iv.hi + 1e-9

    def test_point_images_enclose_exact_rational_orbit(self, rng):
        # dyadic points are exact doubles, so H^4 of the point box must
        # enclose the exact Fraction orbit, with no tolerance
        for _ in range(50):
            p = _dyadic_point(rng)
            w = p
            for _ in range(4):
                w = _henon_exact(w)
            Y = _h4_box(Box.from_point([float(v) for v in p]))
            assert all(_exact_in(y, e) for y, e in zip(Y, w))

    def test_chart_roundtrip_contains(self, paper_hsets):
        a = paper_hsets["a"]
        u = Box.cube(-1, 1, 3)
        back = a.local_from_world(a.world_from_local(u))
        assert back.contains_box(u)

    def test_invalid_iterate_count(self):
        with pytest.raises(Exception):
            IteratedMap(HenonMap(), k=0)

    def test_one_chart_is_refused(self, paper_hsets):
        a = paper_hsets["a"]
        for charts in ({"chart_pre": a}, {"chart_post": a}):
            with pytest.raises(IntervalError, match="needs both charts"):
                IteratedMap(HenonMap(), 4, **charts)

    def test_charts_of_different_u_s_are_refused(self):
        # built directly or through `conjugated`: one check, on construction
        N, M = _unit_hset("N", 2, 1), _unit_hset("M", 1, 2)
        f = IteratedMap(LinearMap.scaling(3, 3, 0.25))
        for build in (lambda: IteratedMap(f.base, 1, chart_pre=N, chart_post=M),
                      lambda: f.conjugated(N, M)):
            with pytest.raises(IntervalError, match="matching exit/entry"):
                build()

    @pytest.mark.parametrize("method", ["orbit", "eval", *CHAINS])
    def test_chartless_map_does_not_act(self, h4, method):
        with pytest.raises(IntervalError, match="conjugate the map"):
            getattr(h4, method)(Box.cube(-0.1, 0.1, 3))


class TestPointFast:
    def test_one_step(self):
        assert eval_point_fast((0, 0, 0), 1) == (1.76, 0.0, 0.0)

    def test_two_steps(self):
        x, y, z = eval_point_fast((1, 1, 1), 2)
        assert abs(x - 0.66) < 1e-12 and abs(y - 0.66) < 1e-12 and z == 1.0

    def test_orbit_stays_bounded(self):
        p = eval_point_fast((0.5, 0.5, 0.5), 1000)
        for _ in range(20000):
            p = eval_point_fast(p, 1)
            assert all(-5 < v < 5 for v in p)

    def test_divergence_signal(self):
        with pytest.raises(DivergenceError):
            eval_point_fast((100.0, 100.0, 100.0), 50)

    def test_default_map_is_built_once(self, monkeypatch):
        p = (0.5, 0.5, 0.5)
        explicit = [v.hex() for v in eval_point_fast(p, 50, HenonMap())]

        def no_new_map(*args):
            raise AssertionError("eval_point_fast built a map")

        monkeypatch.setattr(HenonMap, "__init__", no_new_map)
        for _ in range(3):
            assert [v.hex() for v in eval_point_fast(p, 50)] == explicit

    def test_given_map(self):
        assert eval_point_fast((0, 0, 1), 1, HenonMap("1.5", "0.25")) == (1.25, 0.0, 0.0)


class TestParams:
    def test_defaults_enclose_decimals(self):
        p = HenonMap()
        assert _exact_in(p.a, A_EXACT)
        assert _exact_in(p.b, B_EXACT)

    def test_custom_decimals(self):
        p = HenonMap("1.5", "0.25")
        assert p.a == Interval(1.5, 1.5)
        assert p.b == Interval(0.25, 0.25)

    def test_keeps_its_decimals(self):
        h = HenonMap("1.5", "0.25")
        assert (h.a_decimal, h.b_decimal, h.a_float, h.b_float) == ("1.5", "0.25", 1.5, 0.25)
        assert (HenonMap().a_float, HenonMap().b_float) == (1.76, 0.1)
        assert repr(h) == "HenonMap(a='1.5', b='0.25')"

    @pytest.mark.parametrize("a, b, names", [
        ("x", "0.1", "map.a: not a decimal literal: 'x'"),
        ("7/4", "0.1", "map.a: not a decimal literal: '7/4'"),
        ("1.76", "1e400", "map.b: literal out of double range: '1e400'"),
        # a float is not a decimal: its binary value is not 1.76
        (1.76, "0.1", "map.a: expected a decimal string, got 1.76"),
        ("1.76", None, "map.b: expected a decimal string, got None"),
    ])
    def test_bad_coefficient_is_named(self, a, b, names):
        with pytest.raises(IntervalError) as e:
            HenonMap(a, b)
        assert str(e.value) == names
