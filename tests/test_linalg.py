import math
from fractions import Fraction

import numpy as np
import pytest

from henoncert import (
    Box,
    IMatrix,
    Interval,
    IntervalError,
    det,
    from_decimal,
    is_positive_definite,
    subdivide_box,
)
from henoncert.hsets import HSET_A_DEFINITION


def _exact_in(iv, frac):
    return Fraction(iv.lo) <= frac <= Fraction(iv.hi)


def _paper_basis_a():
    return IMatrix(
        [[from_decimal(d) for d in row] for row in HSET_A_DEFINITION["basis"]]
    )


class TestMatOps:
    def test_identity_matvec_contains(self):
        v = Box([Interval(1, 2), Interval(-1, 0), Interval(3, 3)])
        w = IMatrix.identity(3) @ v
        assert w.contains_box(v)

    def test_affine_vertex_of_a(self):
        # exact decimal arithmetic on the chart of set a at local (1,1,1)
        c = Box([from_decimal(d) for d in HSET_A_DEFINITION["center"]])
        M = _paper_basis_a()
        w = c + (M @ Box.from_point((1.0, 1.0, 1.0)))
        expected = [Fraction("0.97"), Fraction("1.205"), Fraction("0.82")]
        for iv, e in zip(w, expected):
            assert _exact_in(iv, e)

    def test_q_transpose_symmetry(self):
        Q = IMatrix.diagonal([1.0, 1.0, -1.0])
        assert Q.transpose() == Q

    def test_products_drop_point_zero_terms(self):
        # a term with a point-zero factor (0 or -0) is exactly 0 and dropped;
        # where no term is left the entry is the point +0
        p, q = Interval(0.5, 0.75), Interval(1.25, 1.5)
        zero, nzero = Interval(0.0, 0.0), Interval(-0.0, -0.0)
        A = IMatrix([[p, zero, q], [nzero, zero, p]])
        X = Box([Interval(2.0, 3.0), Interval(-1.0, 1.0), nzero])
        Y = A @ X
        assert Y[0] == p * X[0]
        assert (Y[1].lo, Y[1].hi) == (0.0, 0.0)
        assert math.copysign(1.0, Y[1].lo) == math.copysign(1.0, Y[1].hi) == 1.0
        # the sum that keeps the zero terms encloses it, and is wider
        kept = p * X[0] + zero * X[1] + q * X[2]
        assert Y[0].subset_of(kept) and Y[0].width() < kept.width()
        # a matrix product takes the same rule, column by column
        assert (A @ IMatrix([[c] for c in X])).rows == tuple((y,) for y in Y)

    def test_shape_mismatch(self):
        with pytest.raises(IntervalError):
            IMatrix.identity(3) @ IMatrix.identity(2)

    @pytest.mark.parametrize("n, m", [(2, 3), (3, 2)])
    def test_contains_shape_mismatch(self, n, m):
        with pytest.raises(IntervalError):
            IMatrix.identity(n).contains(IMatrix.identity(m))

    def test_product_enclosure_random_members(self, rng):
        for _ in range(50):
            lo = rng.uniform(-2, 2, size=(3, 3))
            A = IMatrix(
                [
                    [Interval(lo[i][j], lo[i][j] + rng.uniform(0, 0.5)) for j in range(3)]
                    for i in range(3)
                ]
            )
            lo2 = rng.uniform(-2, 2, size=(3, 3))
            B = IMatrix(
                [
                    [Interval(lo2[i][j], lo2[i][j] + rng.uniform(0, 0.5)) for j in range(3)]
                    for i in range(3)
                ]
            )
            Ah = np.array([[rng.uniform(A[i, j].lo, A[i, j].hi) for j in range(3)] for i in range(3)])
            Bh = np.array([[rng.uniform(B[i, j].lo, B[i, j].hi) for j in range(3)] for i in range(3)])
            P = A @ B
            exact = Ah @ Bh
            for i in range(3):
                for j in range(3):
                    # numpy's dot may round differently; allow a few ulps
                    assert P[i, j].lo - 1e-12 <= exact[i][j] <= P[i, j].hi + 1e-12


class TestDeterminant:
    def test_identity(self):
        assert det(IMatrix.identity(3)).contains_point(1.0)

    def test_diagonal(self):
        d = det(IMatrix.diagonal([2.0, 3.0, 4.0]))
        assert d.contains_point(24.0)
        assert d.hi - d.lo < 1e-12

    def test_integer_oracle(self, rng):
        for _ in range(100):
            m = rng.integers(-9, 10, size=(3, 3))
            # exact integer cofactor expansion, no floats involved
            a = [[int(v) for v in row] for row in m]
            exact = (
                a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
            )
            d = det(IMatrix.from_floats(m.tolist()))
            assert d.contains_point(float(exact))

    def test_unsupported_dimension(self):
        with pytest.raises(IntervalError):
            det(IMatrix.identity(4))


class TestSylvester:
    def test_positive_diagonal(self):
        assert is_positive_definite(IMatrix.diagonal([3.0, 3.0, 0.75]))

    def test_textbook_2x2(self):
        assert is_positive_definite(IMatrix.from_floats([[2, 1], [1, 2]]))

    def test_zero_matrix(self):
        assert not is_positive_definite(IMatrix.from_floats([[0, 0], [0, 0]]))

    def test_minor_with_lower_bound_zero_is_refused(self):
        # the member [[0]] is not positive definite: a lower bound of exactly
        # 0 must not pass
        assert not is_positive_definite(IMatrix([[Interval(0.0, 1.0)]]))

    def test_soundness_against_eigenvalue_oracle(self, rng):
        # whenever Sylvester says PD, every symmetric member must have
        # strictly positive eigenvalues
        confirmed = 0
        for _ in range(300):
            m = rng.uniform(-2, 2, size=(3, 3))
            sym = (m + m.T) / 2
            S = IMatrix.from_floats(sym.tolist())
            if is_positive_definite(S):
                assert np.linalg.eigvalsh(sym).min() > 0
                confirmed += 1
        assert confirmed > 0


class TestSubdivision:
    def test_two_pieces(self):
        boxes = list(subdivide_box(Box.cube(-1, 1, 3), (2, 1, 1)))
        assert len(boxes) == 2
        assert boxes[0][0] == Interval(-1, 0) and boxes[1][0] == Interval(0, 1)
        for b in boxes:
            assert b[1] == Interval(-1, 1) and b[2] == Interval(-1, 1)

    def test_paper_grid_counts(self):
        assert sum(1 for _ in subdivide_box(Box.cube(-1, 1, 3), (20, 20, 20))) == 8000
        assert sum(1 for _ in subdivide_box(Box.cube(-1, 1, 3), (25, 25, 25))) == 15625

    def test_cover_and_subset(self):
        X = Box.cube(-1, 1, 3)
        for b in subdivide_box(X, (3, 2, 4)):
            assert X.contains_box(b)

    def test_zero_count_rejected(self):
        with pytest.raises(IntervalError):
            list(subdivide_box(Box.cube(-1, 1, 3), (0, 1, 1)))

    def test_deterministic_order(self):
        a = [b.endpoints() for b in subdivide_box(Box.cube(-1, 1, 3), (2, 2, 2))]
        b = [b.endpoints() for b in subdivide_box(Box.cube(-1, 1, 3), (2, 2, 2))]
        assert a == b
