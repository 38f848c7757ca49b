import math
from fractions import Fraction

import numpy as np
import pytest

from henoncert import (
    Box,
    HenonMap,
    IMatrix,
    IteratedMap,
    LinearMap,
    check_map_pair,
    cone_matrix,
    cone_quadratic_form,
    paper_map_pairs,
)
from henoncert.drivers import run_hyperbolicity
from henoncert.hsets import HSET_A_DEFINITION, HSET_B_DEFINITION, HSet
from henoncert.hyperbolicity import CONE_SCALES
from henoncert.intervals import Interval, IntervalError
from henoncert.linalg import subdivide_box


def _toy(base):
    """A toy map on the identity chart, u=2, s=1."""
    N = HSet("u", {"center": ["0", "0", "0"],
                   "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]})
    return IteratedMap(base).conjugated(N, N)


def _hsets_u1_s2():
    """The shipped charts read with one exit and two entry directions."""
    return {
        name: HSet(name, {**d, "u": 1, "s": 2})
        for name, d in (("a", HSET_A_DEFINITION), ("b", HSET_B_DEFINITION))
    }


class TestConeMatrix:
    def test_expanding_contracting_diagonal(self):
        # q_i (d_i^2 - 1) for Q = diag(1, 0.390625, -0.5625)
        Q = cone_quadratic_form()
        S = cone_matrix(IMatrix.diagonal([2.0, 2.0, 0.5]), Q)
        for i, v in enumerate([3.0, 1.171875, 0.421875]):
            assert S[i, i].contains_point(v)

    def test_identity_gives_zero(self):
        Q = cone_quadratic_form()
        S = cone_matrix(IMatrix.identity(3), Q)
        for i in range(3):
            for j in range(3):
                assert S[i, j].contains_point(0.0)

    def test_identity_fails_pd_downstream(self):
        from henoncert import is_positive_definite

        Q = cone_quadratic_form()
        assert not is_positive_definite(cone_matrix(IMatrix.identity(3), Q))

    @pytest.mark.parametrize("Q", [
        IMatrix.diagonal([Interval(0.5, 1.0), 1.0, -1.0]),
        IMatrix.diagonal([Interval(1.0, 2.0), 1.0, -1.0]),
        IMatrix.from_floats([[1, 0.5, 0], [0, 1, 0], [0, 0, -1]]),
        IMatrix([[Interval(1.0, 1.0), Interval(0.0, 0.0), Interval(0.0, 0.0)],
                 [Interval(0.0, 0.0), Interval(1.0, 1.0), Interval(-1e-300, 0.0)],
                 [Interval(0.0, 0.0), Interval(0.0, 0.0), Interval(-1.0, -1.0)]]),
        IMatrix.diagonal([1.0, -1.0]),
        IMatrix.from_floats([[1, 0, 0], [0, 1, 0]]),
    ])
    def test_q_must_be_a_diagonal_point_matrix_of_df_size(self, Q):
        with pytest.raises(IntervalError):
            cone_matrix(IMatrix.identity(3), Q)

    @pytest.mark.parametrize("q", [
        [0.25, 0.5, -2.0], [1.0, 0.390625, -0.5625], [-1.0, 1.0, 0.0],
    ])
    def test_any_diagonal_point_form(self, q):
        # each entry encloses the exact value of the point matrices, within a
        # few ulps, also where some |q_k| is not 1
        Df = IMatrix.from_floats([[2, 0.5, 0], [1, -1, 0], [0, 1, 0.1]])
        D = [[Fraction(e.lo) for e in r] for r in Df.rows]
        S = cone_matrix(Df, IMatrix.diagonal(q))
        for i in range(3):
            for j in range(3):
                exact = (sum(Fraction(q[k]) * D[k][i] * D[k][j] for k in range(3))
                         - (Fraction(q[i]) if i == j else 0))
                assert Fraction(S[i, j].lo) <= exact <= Fraction(S[i, j].hi)
                assert S[i, j].width() < 1e-14
        assert S == S.transpose()

    def test_member_containment_random(self, rng):
        Q = cone_quadratic_form()
        for _ in range(30):
            lo = rng.uniform(-2, 2, size=(3, 3))
            Df = IMatrix(
                [
                    [Interval(lo[i][j], lo[i][j] + rng.uniform(0, 0.3)) for j in range(3)]
                    for i in range(3)
                ]
            )
            Dh = np.array(
                [[rng.uniform(Df[i, j].lo, Df[i, j].hi) for j in range(3)] for i in range(3)]
            )
            q = np.diag([1.0, 0.390625, -0.5625])
            exact = Dh.T @ q @ Dh - q
            S = cone_matrix(Df, Q)
            for i in range(3):
                for j in range(3):
                    assert S[i, j].lo - 1e-12 <= exact[i][j] <= S[i, j].hi + 1e-12


class TestToyMaps:
    def test_strong_expansion_contraction_passes(self):
        f = _toy(LinearMap.scaling(2.0, 2.0, 0.25))
        out = check_map_pair(f, (3, 3, 3))
        assert out.passed
        assert out.label == "uu"  # the identity chart u, on both sides
        assert out.skipped_disjoint == 0
        assert out.positive_definite == 27

    def test_identity_fails_everywhere(self):
        f = _toy(LinearMap.identity())
        out = check_map_pair(f, (2, 2, 2))
        assert not out.passed
        assert out.failed == 8
        capped = check_map_pair(f, (2, 2, 2), max_failures_reported=3)
        assert capped.failed == 8
        assert capped.failures == out.failures[:3]

    def test_map_without_charts_raises(self):
        f = IteratedMap(LinearMap.scaling(2.0, 2.0, 0.25))
        with pytest.raises(IntervalError):
            check_map_pair(f, (2, 2, 2))


class TestPaperMaps:
    def test_four_pairs_constructed(self, paper_hsets, h4):
        pairs = paper_map_pairs(h4, paper_hsets)
        assert list(pairs) == ["aa", "ab", "ba", "bb"]

    def test_one_pair_small_grid_has_skips(self, paper_hsets, h4):
        pairs = paper_map_pairs(h4, paper_hsets)
        out = check_map_pair(pairs["aa"], (10, 10, 10))
        assert out.skipped_disjoint > 0

    def test_outcomes_are_labelled_by_charts(self, paper_hsets, h4):
        # each outcome is named source then target, as a covering
        # certificate's source and target are
        for label, fc in paper_map_pairs(h4, paper_hsets).items():
            assert check_map_pair(fc, (1, 1, 1)).label == label

    def test_third_hset_is_paired(self, paper_hsets, h4):
        # the family is the covering graph: a third set adds its five pairs,
        # and every pair comes in the family's order
        c = HSet("c", {**HSET_A_DEFINITION, "center": ["0.81", "4.0225", "0.975"]})
        hs = {**paper_hsets, "c": c}
        labels = ["aa", "ab", "ac", "ba", "bb", "bc", "ca", "cb", "cc"]
        assert list(paper_map_pairs(h4, hs)) == labels
        cert = run_hyperbolicity((1, 1, 1), hsets=hs)
        assert [o.label for o in cert.outcomes] == labels

    def test_pairs_need_matching_dims(self, paper_hsets, h4):
        mixed = {"a": paper_hsets["a"], "b": _hsets_u1_s2()["b"]}
        with pytest.raises(IntervalError):
            paper_map_pairs(h4, mixed)

    def test_cone_form_follows_hsets(self, paper_hsets, h4):
        # u=1, s=2 charts: Q = W diag(1, -1, -1) W comes from the charts, so
        # each pair's bare check agrees with the driver's outcome, and differs
        # from that of the u=2, s=1 charts (W diag(1, 1, -1) W certifies boxes
        # that W diag(1, -1, -1) W does not)
        grid = (4, 4, 4)
        hs = _hsets_u1_s2()
        got = [check_map_pair(fc, grid).to_dict()
               for fc in paper_map_pairs(h4, hs).values()]
        cert = run_hyperbolicity(grid, hsets=hs)
        assert got == [o.to_dict() for o in cert.outcomes]
        shipped = [check_map_pair(fc, grid).to_dict()
                   for fc in paper_map_pairs(h4, paper_hsets).values()]
        assert got != shipped

    def test_whole_box_check_fails(self, paper_hsets, h4):
        # without subdivision the Jacobian enclosure is far too wide
        pairs = paper_map_pairs(h4, paper_hsets)
        assert not any(check_map_pair(fc, (1, 1, 1)).passed for fc in pairs.values())


def _width(M):
    return sum(e.width() for row in M.rows for e in row)


class TestDenseReference:
    """The companion-form chain and the symmetric cone matrix against the
    dense interval products they replace, box by box."""

    GRID = (6, 6, 6)

    @staticmethod
    def _dense_jacobian(f, orbit):
        J = f.base.jacobian_box(orbit[0])
        for w in orbit[1:-1]:
            J = f.base.jacobian_box(w) @ J
        return f.chart_post.basis_inv @ (J @ f.chart_pre.basis)

    def test_jacobian_within_dense_chain(self, paper_hsets, h4):
        for f in paper_map_pairs(h4, paper_hsets).values():
            for Bi in subdivide_box(Box.cube(-1, 1, 3), self.GRID):
                orbit = f.orbit(Bi)
                dense = self._dense_jacobian(f, orbit)
                for chain in (f.jacobian, f.jacobian_from_source):
                    J = chain(Bi, orbit)
                    assert J == chain(Bi)
                    assert dense.contains(J) and _width(J) < _width(dense)

    def test_cone_matrix_within_dense_products(self, paper_hsets, h4):
        # Sums are the tightest double enclosure, hence inclusion-monotone, so
        # the symmetric form with its exact zero terms dropped lies inside the
        # dense product, for both chains of Df
        Q = cone_quadratic_form()
        for f in paper_map_pairs(h4, paper_hsets).values():
            for Bi in subdivide_box(Box.cube(-1, 1, 3), self.GRID):
                for Df in (f.jacobian(Bi), f.jacobian_from_source(Bi)):
                    S = cone_matrix(Df, Q)
                    dense = Df.transpose() @ Q @ Df - Q
                    assert dense.contains(S) and _width(S) < _width(dense)
                    assert S == S.transpose()


class TestWitnessMinors:
    """Minors are evaluated for the listed failing cells only, after the
    sweep, and each listed set equals a direct recomputation on the cell."""

    @pytest.mark.parametrize("grid, cap", [((2, 2, 2), 20), ((6, 6, 6), 3)])
    def test_minors_only_for_listed_witnesses(
        self, paper_hsets, h4, monkeypatch, grid, cap
    ):
        import henoncert.hyperbolicity as hyp

        direct = hyp.leading_minor_lower_bounds
        calls = []

        def counted(S):
            calls.append(S)
            return direct(S)

        monkeypatch.setattr(hyp, "leading_minor_lower_bounds", counted)
        cells = list(subdivide_box(Box.cube(-1, 1, 3), grid))
        Q = cone_quadratic_form()
        listed = 0
        for f in paper_map_pairs(h4, paper_hsets).values():
            calls.clear()
            out = check_map_pair(f, grid, cap)
            assert len(out.failures) == min(out.failed, cap)
            listed += len(out.failures)
            assert len(calls) == len(out.failures)
            for w in out.failures:
                assert list(w) == ["index", "box", "minor_lower_bounds"]
                cell = cells[w["index"]]
                assert w["box"] == cell.endpoints()
                S = cone_matrix(f.jacobian(cell), Q)
                assert w["minor_lower_bounds"] == list(direct(S))
        assert listed > 0


class TestSkipAndPDSoundness:
    def test_skip_soundness_sampled(self, paper_hsets, h4, rng):
        pairs = paper_map_pairs(h4, paper_hsets)
        f = pairs["ab"]
        target = paper_hsets["b"]
        from henoncert import eval_point_fast
        from henoncert.linalg import subdivide_box

        checked = 0
        for Bi in subdivide_box(Box.cube(-1, 1, 3), (8, 8, 8)):
            if not f.eval(Bi).is_disjoint(Box.cube(-1, 1, 3)):
                continue
            for _ in range(10):
                p_local = tuple(rng.uniform(c.lo, c.hi) for c in Bi)
                w = paper_hsets["a"].world_from_local(Box.from_point(p_local))
                q = eval_point_fast(w.midpoint(), 4)
                loc = target.local_from_world(Box.from_point(q))
                assert any(c.lo > 1 or c.hi < -1 for c in loc)
            checked += 1
            if checked >= 20:
                break
        assert checked > 0

    def test_pd_soundness_sampled(self, paper_hsets, h4, rng):
        pairs = paper_map_pairs(h4, paper_hsets)
        f = pairs["aa"]
        Q = cone_quadratic_form()
        q = np.diag([1.0, 0.390625, -0.5625])  # W diag(1, 1, -1) W
        from henoncert import is_positive_definite
        from henoncert.linalg import subdivide_box

        confirmed = 0
        for Bi in subdivide_box(Box.cube(-1, 1, 3), (12, 12, 12)):
            if f.eval(Bi).is_disjoint(Box.cube(-1, 1, 3)):
                continue
            S = cone_matrix(f.jacobian(Bi), Q)
            if not is_positive_definite(S):
                continue
            # symmetric member built from an actual point Jacobian
            p = tuple(rng.uniform(c.lo, c.hi) for c in Bi)
            Jp = f.jacobian(Box.from_point(p))
            Dh = np.array([[Jp[i, j].mid() for j in range(3)] for i in range(3)])
            member = Dh.T @ q @ Dh - q
            assert np.linalg.eigvalsh((member + member.T) / 2).min() > 0
            confirmed += 1
            if confirmed >= 30:
                break
        assert confirmed > 0


class TestMonotoneRefinement:
    def test_aa_passes_at_paper_grid_and_finer(self, paper_hsets, h4):
        pairs = paper_map_pairs(h4, paper_hsets)
        for grid in ((25, 25, 25), (30, 30, 30)):
            out = check_map_pair(pairs["aa"], grid)
            assert out.passed, f"aa should pass at {grid}"


class TestTargetSideChainGain:
    """The cone check on the chain taken from the target chart: the source-side
    chain failed 7 / 15 / 0 / 19 cells at 5^3 and bb's 1 cell at 15^3."""

    def test_fewer_failures_at_a_coarse_grid(self, paper_hsets, h4):
        pairs = paper_map_pairs(h4, paper_hsets)
        assert sum(check_map_pair(f, (5, 5, 5)).failed for f in pairs.values()) <= 19

    def test_all_pairs_pass_at_15_cubed(self, paper_hsets, h4):
        for label, f in paper_map_pairs(h4, paper_hsets).items():
            assert check_map_pair(f, (15, 15, 15)).passed, label


class TestConeScales:
    """The cone check's form W diag(Id_u, -Id_s) W, W = diag(CONE_SCALES)."""

    def test_form_is_exact(self):
        assert CONE_SCALES == (1.0, 0.625, 0.75)
        assert cone_quadratic_form() == IMatrix.diagonal([1.0, 0.390625, -0.5625])
        assert cone_quadratic_form(2, 1) == cone_quadratic_form()
        assert cone_quadratic_form(1, 2) == IMatrix.diagonal([1.0, -0.390625, -0.5625])
        assert cone_quadratic_form(3, 0) == IMatrix.diagonal([1.0, 0.390625, 0.5625])
        for u, s in ((2, 2), (1, 1), (2, 0)):
            with pytest.raises(IntervalError):
                cone_quadratic_form(u, s)

    @pytest.mark.parametrize("u1_s2, q", [
        (False, [1.0, 0.390625, -0.5625]),
        (True, [1.0, -0.390625, -0.5625]),
    ], ids=["shipped", "u1-s2"])
    def test_each_cone_box_certifies_the_charts_form(self, paper_hsets, h4,
                                                      monkeypatch, u1_s2, q):
        # every cone matrix of the sweep and of the witnesses is taken with
        # the form of the pair's charts, as benchmarks/micro.py times it
        import henoncert.hyperbolicity as hyp

        forms = []
        real = hyp.cone_matrix

        def recorded(Df, Q):
            forms.append(Q)
            return real(Df, Q)

        monkeypatch.setattr(hyp, "cone_matrix", recorded)
        hs = _hsets_u1_s2() if u1_s2 else paper_hsets
        out = check_map_pair(paper_map_pairs(h4, hs)["ab"], (3, 3, 3))
        assert out.failed > 0 and forms
        assert all(Q == IMatrix.diagonal(q) for Q in forms)

    def test_fewer_boxes_at_the_shipped_grid(self, paper_hsets, h4, monkeypatch):
        # W = Id evaluated 426 boxes, counted as IteratedMap.orbit calls
        calls = []
        orbit = IteratedMap.orbit

        def counted(self, X):
            calls.append(X)
            return orbit(self, X)

        monkeypatch.setattr(IteratedMap, "orbit", counted)
        for label, f in paper_map_pairs(h4, paper_hsets).items():
            assert check_map_pair(f, (25, 25, 25)).passed, label
        assert len(calls) <= 352

    def test_fewer_bb_failures_at_10_cubed(self, paper_hsets, h4):
        # W = Id failed 30 cells
        f = paper_map_pairs(h4, paper_hsets)["bb"]
        assert check_map_pair(f, (10, 10, 10)).failed <= 16


class TestCertificates:
    def test_roundtrip(self):
        # the shipped maps at 2^3: passing and failing pairs, with witnesses
        cert = run_hyperbolicity(grid=(2, 2, 2))
        assert any(o.failures for o in cert.outcomes)
        from henoncert import HyperbolicityCertificate

        back = HyperbolicityCertificate.from_dict(cert.to_dict())
        assert back.to_dict() == cert.to_dict()

    def test_grid_validation(self):
        f = _toy(LinearMap.identity())
        with pytest.raises(Exception):
            check_map_pair(f, (0, 1, 1))
