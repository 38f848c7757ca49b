import math
from collections import Counter
from math import prod

import pytest

from henoncert import (
    Box,
    HenonMap,
    IMatrix,
    IteratedMap,
    LinearMap,
    check_condition_I,
    check_condition_II,
    linearization_at_center,
    paper_map_pairs,
    verify_covering,
)
from henoncert import covering
from henoncert.covering import _body_accepts, exit_faces, mean_value_image
from henoncert.drivers import run_all
from henoncert.hsets import HSet
from henoncert.intervals import EnclosureError, Interval, IntervalError

UNIT_BASIS = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def unit_hset(name="u", u=2, s=1):
    return HSet(name, {"center": ["0", "0", "0"], "basis": UNIT_BASIS, "u": u, "s": s})


def on_unit_chart(base):
    """The toy map conjugated by the identity chart of `unit_hset`."""
    N = unit_hset()
    return IteratedMap(base).conjugated(N, N)


BODY, FACE, CAP = (4, 4, 4), (3, 3), 10


class TestLinearization:
    def test_identity_map(self):
        A = linearization_at_center(on_unit_chart(LinearMap.identity()))
        assert (A.nrows, A.ncols) == (2, 2)
        assert all(e.lo == e.hi for row in A.rows for e in row)  # a point matrix
        m = A.midpoint()
        assert m[0][0] == pytest.approx(1.0)
        assert m[1][1] == pytest.approx(1.0)
        assert m[0][1] == pytest.approx(0.0, abs=1e-15)

    def test_triple_scaling(self):
        m = linearization_at_center(on_unit_chart(LinearMap.scaling(3, 3, 3))).midpoint()
        assert m[0][0] == pytest.approx(3.0)
        assert m[1][1] == pytest.approx(3.0)

    def test_h4_block_is_inside_jacobian(self, paper_hsets, h4):
        a = paper_hsets["a"]
        fc = h4.conjugated(a, a)
        A = linearization_at_center(fc)
        J = fc.jacobian(Box.from_point((0, 0, 0)))
        for i in range(2):
            for j in range(2):
                assert J[i, j].contains_point(A.midpoint()[i][j])

    def test_linear_image_is_rowwise_scaled_sum(self, paper_hsets, h4, rng):
        # A @ Box is the sum of x_j scaled by the exact float A_ij, bit for bit
        for fc in paper_map_pairs(h4, paper_hsets).values():
            A = linearization_at_center(fc)
            for _ in range(20):
                lo = rng.uniform(-1, 1, size=2)
                xu = [Interval(v, v + w) for v, w in zip(lo, rng.uniform(0, 0.2, 2))]
                for row, y in zip(A.midpoint(), A @ Box(xu)):
                    assert y == xu[0].scale(row[0]) + xu[1].scale(row[1])


class TestConditionI:
    def test_contraction_passes_via_stable_disjunct(self):
        out = check_condition_I(on_unit_chart(LinearMap.scaling(0.5, 0.5, 0.5)), BODY, CAP)
        assert out.passed
        assert out.inside_stable == out.checked

    def test_identity_fails_on_boundary_boxes(self):
        f = on_unit_chart(LinearMap.identity())
        out = check_condition_I(f, BODY, CAP)
        assert not out.passed
        assert out.failures
        # the cap keeps the first witnesses and still counts every failure
        full = check_condition_I(f, BODY, 10**6)
        assert out.failed == len(full.failures) > len(out.failures) == 10
        assert out.failures == full.failures[:10]

    def test_closed_boundary_is_refused(self):
        # an unstable coordinate with mig exactly 1 touches the cube, and a
        # stable one with mag exactly 1 reaches its boundary: neither passes
        stays = Interval(0.0, 0.5)
        assert _body_accepts(Box([Interval(1.0, 2.0), stays, Interval(2.0, 3.0)]), 2) is None
        assert _body_accepts(Box([stays, Interval(-2.0, -1.0), Interval(2.0, 3.0)]), 2) is None
        assert _body_accepts(Box([stays, stays, Interval(-1.0, 0.5)]), 2) is None
        # just past the boundary, each disjunct passes
        past, short = math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)
        assert _body_accepts(Box([Interval(past, 2.0), stays, Interval(2.0, 3.0)]),
                             2) == "outside_unstable"
        assert _body_accepts(Box([stays, stays, Interval(-short, 0.5)]),
                             2) == "inside_stable"

    def test_no_entry_directions(self):
        # u=3, s=0: the stable test is vacuous and reads no coordinate past u
        N = unit_hset(u=3, s=0)
        f = IteratedMap(LinearMap.identity()).conjugated(N, N)
        out = check_condition_I(f, (2, 2, 2), CAP)
        assert out.checked == 8 and out.inside_stable == 8 and out.passed


class TestConditionII:
    def test_expansion_passes(self):
        f = on_unit_chart(LinearMap.scaling(3, 3, 0.5))
        A = IMatrix.from_floats([[3.0, 0.0], [0.0, 3.0]])
        out = check_condition_II(f, A, FACE, CAP)
        assert out.passed
        assert len(out.faces) == 4

    def test_identity_fails(self):
        f = on_unit_chart(LinearMap.identity())
        A = IMatrix.from_floats([[1.0, 0.0], [0.0, 1.0]])
        out = check_condition_II(f, A, FACE, CAP)
        assert not out.passed
        # one cap shared by the four exit faces, which all fail
        full = check_condition_II(f, A, FACE, 10**6)
        assert out.failed == len(full.failures) == 4 * 9
        assert out.failures == full.failures[:10]
        assert out.faces == full.faces


    def test_image_touching_the_cube_is_refused(self):
        # scaling by 1 + 3 * 2**-52 maps each exit face to an image whose
        # unstable coordinate, after the charts' rounding, has mig exactly 1;
        # the linear image, by 2, lies outside, so the hull's mig is exactly 1
        f = on_unit_chart(LinearMap.scaling(1.0000000000000007, 1.0000000000000007, 0.5))
        for axis, sign in exit_faces(2):
            face = [Interval(-1.0, 1.0)] * 3
            face[axis] = Interval(sign, sign)
            assert f.eval(Box(face))[axis].mig() == 1.0
        A = IMatrix.from_floats([[2.0, 0.0], [0.0, 2.0]])
        out = check_condition_II(f, A, FACE, CAP)
        assert not out.passed and out.failed == 4 * 9


class TestExitFaces:
    """`exit_faces(u)` and the face boxes and grids condition II sweeps."""

    @pytest.fixture()
    def swept(self, monkeypatch):
        """(condition II's summary, the (box, grid) of each sweep it ran) on
        the face grid (3, 5); the sweep is stubbed to accept every cell."""
        calls = []

        def record(X, grid, predicate, cap):
            calls.append((X, tuple(grid)))
            return Counter(exits=prod(grid)), []

        monkeypatch.setattr(covering, "sweep", record)
        A = IMatrix.from_floats([[1.0, 0.0], [0.0, 1.0]])
        out = check_condition_II(on_unit_chart(LinearMap.identity()), A, (3, 5), CAP)
        return out, calls

    def test_four_faces(self, swept):
        assert exit_faces(2) == [(0, -1.0), (0, 1.0), (1, -1.0), (1, 1.0)]
        assert exit_faces(1) == exit_faces(2)[:2]
        out, calls = swept
        assert [(f["axis"], f["sign"]) for f in out.faces] == exit_faces(2)
        assert [f["checked"] for f in out.faces] == [15] * 4
        assert len(calls) == 4

    def test_one_degenerate_coordinate(self, swept):
        _, calls = swept
        for (axis, sign), (X, grid) in zip(exit_faces(2), calls):
            degen = [i for i, c in enumerate(X) if c.lo == c.hi]
            assert degen == [axis]
            assert X[axis] == Interval(sign, sign)
            for i in range(X.dim):
                if i != axis:
                    assert X[i] == Interval(-1, 1)
            # the face grid, with one cell across the pinned coordinate
            assert grid == {0: (1, 3, 5), 1: (3, 1, 5)}[axis]

    def test_unstable_projections_cover_square_boundary(self, swept, rng):
        exts = [X for X, _ in swept[1]]
        for _ in range(200):
            # random point on the boundary of [-1,1]^2
            t = rng.uniform(-1, 1)
            side = rng.integers(4)
            pt = [(1.0, t), (-1.0, t), (t, 1.0), (t, -1.0)][side]
            assert any(
                e[0].contains_point(pt[0]) and e[1].contains_point(pt[1])
                for e in exts
            )


class TestVerifyCovering:
    def test_identity_self_covering_fails(self, paper_hsets):
        a = paper_hsets["a"]
        f = IteratedMap(LinearMap.identity()).conjugated(a, a)
        cert = verify_covering(f, BODY, FACE, CAP)
        assert not cert.passed
        assert cert.condition_I.failures or cert.condition_II.failures

    def test_toy_covering_passes(self):
        N0, N1 = unit_hset("p"), unit_hset("q")
        f = IteratedMap(LinearMap.scaling(3, 3, 0.25)).conjugated(N0, N1)
        cert = verify_covering(f, BODY, FACE, CAP)
        assert cert.passed
        assert (cert.source, cert.target) == ("p", "q")

    def test_certificate_roundtrip(self):
        from henoncert import CoveringCertificate

        cert = verify_covering(on_unit_chart(LinearMap.scaling(3, 3, 0.25)), BODY, FACE, CAP)
        back = CoveringCertificate.from_dict(cert.to_dict())
        assert back.to_dict() == cert.to_dict()

    def test_determinism(self):
        f = on_unit_chart(LinearMap.scaling(3, 3, 0.25))
        d1 = verify_covering(f, BODY, FACE, CAP).to_dict()
        d2 = verify_covering(f, BODY, FACE, CAP).to_dict()
        d1.pop("wall_time"), d2.pop("wall_time")
        assert d1 == d2

    def test_map_without_charts_raises(self):
        with pytest.raises(IntervalError):
            verify_covering(IteratedMap(LinearMap.scaling(3, 3, 0.25)), BODY, FACE, CAP)


class TestGridValidation:
    @pytest.mark.parametrize("grids", [
        dict(body_grid=(0, 1, 1)), dict(face_grid=(1, 0)),
    ])
    def test_zero_count_raises(self, grids):
        f = on_unit_chart(LinearMap.scaling(3, 3, 0.25))
        with pytest.raises(IntervalError):
            verify_covering(f, **{"body_grid": (1, 1, 1), "face_grid": (1, 1), **grids})

    @pytest.mark.parametrize("grids", [
        # int() would run 2 cells and record 2.9
        dict(body_grid=(2.9, 1, 1)), dict(face_grid=(1, 2.5)),
        dict(body_grid=(1.0, 1, 1)), dict(body_grid=(True, 1, 1)),
    ])
    def test_non_integer_count_raises(self, grids):
        f = on_unit_chart(LinearMap.scaling(3, 3, 0.25))
        with pytest.raises(IntervalError):
            verify_covering(f, **{"body_grid": (1, 1, 1), "face_grid": (1, 1), **grids})

    @pytest.mark.parametrize("grids", [
        dict(body_grid=(2.9, 2, 2), hyp_grid=None),
        dict(body_grid=None, hyp_grid=(2, 2.0, 2)),
    ])
    def test_driver_records_only_grids_it_ran(self, grids):
        with pytest.raises(IntervalError):
            run_all(**grids)


class TestWitnessValidity:
    def test_reported_body_failures_reproduce(self, paper_hsets, h4):
        # witnesses from a coarse failing run must fail standalone too
        a = paper_hsets["a"]
        fc = h4.conjugated(a, a)
        out = check_condition_I(fc, (6, 6, 6), 5)
        assert not out.passed
        assert out.failures
        for w in out.failures:
            P = Box([Interval(lo, hi) for lo, hi in w["box"]])
            orbit = fc.orbit(P)
            Y = fc.eval(P, orbit)
            assert _body_accepts(Y, a.u) is None
            # the listed image is the natural one cut down by the mean-value form
            Y = mean_value_image(fc, P, orbit, Y)
            assert w["image"] == Y.endpoints()
            assert _body_accepts(Y, a.u) is None


class TestMeanValueImage:
    def test_tightens_the_natural_image(self, paper_hsets, h4):
        a = paper_hsets["a"]
        fc = h4.conjugated(a, a)
        P = Box.cube(-0.05, 0.05, 3)
        orbit = fc.orbit(P)
        Y = fc.eval(P, orbit)
        Z = mean_value_image(fc, P, orbit, Y)
        assert Y.contains_box(Z)
        assert sum(z.width() for z in Z) < 0.5 * sum(y.width() for y in Y)

    def test_disjoint_enclosures_raise(self, paper_hsets, h4):
        # two enclosures of one image cannot be disjoint unless the kernel is wrong
        a = paper_hsets["a"]
        fc = h4.conjugated(a, a)
        P = Box.cube(-0.05, 0.05, 3)
        orbit = fc.orbit(P)
        far = Box([Interval(y.hi + 1.0, y.hi + 2.0) for y in fc.eval(P, orbit)])
        with pytest.raises(EnclosureError):
            mean_value_image(fc, P, orbit, far)


class TestHomotopyHullContainment:
    def test_sampled_track_inside_hull(self, paper_hsets, h4, rng):
        # (1-t) f_c(p) + t (A p_u, 0) stays inside hull(Y_f, Y_A) per coordinate
        a = paper_hsets["a"]
        fc = h4.conjugated(a, a)
        A = linearization_at_center(fc)

        # a part of the exit face with axis 0 pinned at +1
        F = Box([Interval(1, 1), Interval(-0.2, 0.0), Interval(0.3, 0.5)])
        Yf = fc.eval(F)
        Ya = A @ Box(F.coords[:2])
        for _ in range(100):
            p = tuple(rng.uniform(c.lo, c.hi) for c in F)
            t = rng.uniform()
            fp = fc.eval(Box.from_point(p))  # tight enclosure of f_c(p)
            ap = [sum(r[j] * p[j] for j in range(2)) for r in A.midpoint()]
            for i in range(2):
                track_lo = (1 - t) * fp[i].lo + t * ap[i]
                track_hi = (1 - t) * fp[i].hi + t * ap[i]
                hull = Yf[i].hull(Ya[i])
                assert hull.lo - 1e-9 <= track_lo and track_hi <= hull.hi + 1e-9


class TestSoundnessMonotonicity:
    def test_bb_passes_at_paper_grid_and_finer(self, paper_hsets, h4):
        b = paper_hsets["b"]
        for grid in ((20, 20, 20), (25, 25, 25)):
            cert = verify_covering(h4.conjugated(b, b), grid, (10, 10))
            assert cert.passed, f"bb should pass at {grid}"
