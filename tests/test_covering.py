from dataclasses import replace

import pytest

from henoncert import (
    Box,
    CoveringConfig,
    HenonMap,
    IteratedMap,
    LinearMap,
    check_condition_I,
    check_condition_II,
    linearization_at_center,
    verify_covering,
)
from henoncert.covering import LinearizationA, local_map
from henoncert.hsets import make_hset
from henoncert.intervals import IntervalError

UNIT_BASIS = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def unit_hset(name="u"):
    return make_hset(name, ["0", "0", "0"], UNIT_BASIS)


SMALL = CoveringConfig(body_grid=(4, 4, 4), face_grid=(3, 3), max_failures_reported=10)


class TestLinearization:
    def test_identity_map(self):
        N = unit_hset()
        f = IteratedMap(LinearMap.identity())
        A = linearization_at_center(f, N, N)
        assert A.entries[0][0] == pytest.approx(1.0)
        assert A.entries[1][1] == pytest.approx(1.0)
        assert A.entries[0][1] == pytest.approx(0.0, abs=1e-15)

    def test_triple_scaling(self):
        N = unit_hset()
        f = IteratedMap(LinearMap.scaling(3, 3, 3))
        A = linearization_at_center(f, N, N)
        assert A.entries[0][0] == pytest.approx(3.0)
        assert A.entries[1][1] == pytest.approx(3.0)

    def test_h4_block_is_inside_jacobian(self, paper_hsets, h4):
        a = paper_hsets["a"]
        A = linearization_at_center(h4, a, a)
        J = local_map(h4, a, a).jacobian(Box.from_point((0, 0, 0)))
        for i in range(2):
            for j in range(2):
                assert J[i, j].contains_point(A.entries[i][j])


class TestConditionI:
    def test_contraction_passes_via_stable_disjunct(self):
        N = unit_hset()
        f = IteratedMap(LinearMap.scaling(0.5, 0.5, 0.5))
        out = check_condition_I(f, N, N, SMALL)
        assert out.passed
        assert out.inside_stable == out.checked

    def test_identity_fails_on_boundary_boxes(self):
        N = unit_hset()
        f = IteratedMap(LinearMap.identity())
        out = check_condition_I(f, N, N, SMALL)
        assert not out.passed
        assert out.failures
        # the cap keeps the first witnesses and still counts every failure
        full = check_condition_I(f, N, N, replace(SMALL, max_failures_reported=10**6))
        assert out.failed == len(full.failures) > len(out.failures) == 10
        assert out.failures == full.failures[:10]


class TestConditionII:
    def test_expansion_passes(self):
        N = unit_hset()
        f = IteratedMap(LinearMap.scaling(3, 3, 0.5))
        A = LinearizationA(entries=((3.0, 0.0), (0.0, 3.0)))
        out = check_condition_II(f, N, N, A, SMALL)
        assert out.passed
        assert len(out.faces) == 4

    def test_identity_fails(self):
        N = unit_hset()
        f = IteratedMap(LinearMap.identity())
        A = LinearizationA(entries=((1.0, 0.0), (0.0, 1.0)))
        out = check_condition_II(f, N, N, A, SMALL)
        assert not out.passed
        # one cap shared by the four exit faces, which all fail
        full = check_condition_II(f, N, N, A, replace(SMALL, max_failures_reported=10**6))
        assert out.failed == len(full.failures) == 4 * 9
        assert out.failures == full.failures[:10]
        assert out.faces == full.faces


class TestVerifyCovering:
    def test_identity_self_covering_fails(self, paper_hsets):
        f = IteratedMap(LinearMap.identity())
        cert = verify_covering(f, paper_hsets["a"], paper_hsets["a"], SMALL)
        assert not cert.passed
        assert cert.condition_I.failures or cert.condition_II.failures

    def test_toy_covering_passes(self):
        N = unit_hset()
        f = IteratedMap(LinearMap.scaling(3, 3, 0.25))
        cert = verify_covering(f, N, N, SMALL)
        assert cert.passed
        assert cert.source == N.name and cert.target == N.name

    def test_certificate_roundtrip(self):
        from henoncert import CoveringCertificate

        N = unit_hset()
        f = IteratedMap(LinearMap.scaling(3, 3, 0.25))
        cert = verify_covering(f, N, N, SMALL)
        back = CoveringCertificate.from_dict(cert.to_dict())
        assert back.to_dict() == cert.to_dict()

    def test_determinism(self):
        N = unit_hset()
        f = IteratedMap(LinearMap.scaling(3, 3, 0.25))
        d1 = verify_covering(f, N, N, SMALL).to_dict()
        d2 = verify_covering(f, N, N, SMALL).to_dict()
        d1.pop("wall_time"), d2.pop("wall_time")
        assert d1 == d2


class TestGridValidation:
    @pytest.mark.parametrize("grids", [
        dict(body_grid=(0, 1, 1)), dict(face_grid=(1, 0)),
    ])
    def test_zero_count_raises(self, grids):
        N = unit_hset()
        f = IteratedMap(LinearMap.scaling(3, 3, 0.25))
        cfg = CoveringConfig(**{"body_grid": (1, 1, 1), "face_grid": (1, 1), **grids})
        with pytest.raises(IntervalError):
            verify_covering(f, N, N, cfg)


class TestWitnessValidity:
    def test_reported_body_failures_reproduce(self, paper_hsets, h4):
        # witnesses from a coarse failing run must fail standalone too
        a = paper_hsets["a"]
        cfg = CoveringConfig(body_grid=(6, 6, 6), max_failures_reported=5)
        out = check_condition_I(h4, a, a, cfg)
        assert not out.passed
        fc = local_map(h4, a, a)
        from henoncert.covering import _body_accepts
        from henoncert.intervals import Interval

        for w in out.failures[:5]:
            if "box" not in w:
                continue
            P = Box([Interval(lo, hi) for lo, hi in w["box"]])
            assert _body_accepts(fc.eval(P), a.u) is None


class TestHomotopyHullContainment:
    def test_sampled_track_inside_hull(self, paper_hsets, h4, rng):
        # (1-t) f_c(p) + t (A p_u, 0) stays inside hull(Y_f, Y_A) per coordinate
        a = paper_hsets["a"]
        A = linearization_at_center(h4, a, a)
        fc = local_map(h4, a, a)
        from henoncert.intervals import Interval

        # a part of the exit face with axis 0 pinned at +1
        F = Box([Interval(1, 1), Interval(-0.2, 0.0), Interval(0.3, 0.5)])
        Yf = fc.eval(F)
        Ya = A.apply(F.coords[:2])
        for _ in range(100):
            p = tuple(rng.uniform(c.lo, c.hi) for c in F)
            t = rng.uniform()
            fp = fc.eval(Box.from_point(p))  # tight enclosure of f_c(p)
            ap = [sum(r[j] * p[j] for j in range(2)) for r in A.entries]
            for i in range(2):
                track_lo = (1 - t) * fp[i].lo + t * ap[i]
                track_hi = (1 - t) * fp[i].hi + t * ap[i]
                hull = Yf[i].hull(Ya[i])
                assert hull.lo - 1e-9 <= track_lo and track_hi <= hull.hi + 1e-9


class TestSoundnessMonotonicity:
    def test_bb_passes_at_paper_grid_and_finer(self, paper_hsets, h4):
        b = paper_hsets["b"]
        for grid in ((20, 20, 20), (25, 25, 25)):
            cert = verify_covering(
                h4, b, b, CoveringConfig(body_grid=grid, face_grid=(10, 10))
            )
            assert cert.passed, f"bb should pass at {grid}"
