"""Rigorous interval vectors and small matrices.

Products (`IMatrix @`, which drops every term with a point-zero factor),
determinants, the exact-rational inverse, Sylvester's criterion on interval
matrices, and deterministic box subdivision.  Everything propagates outward
rounding from the interval kernel, so results enclose the exact values for
every member matrix.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .intervals import Box, Interval, IntervalError, unchecked_box

_ZERO = Interval(0.0, 0.0)
_ONE = Interval(1.0, 1.0)
_new = object.__new__


class SingularMatrixError(ArithmeticError):
    """The matrix is singular, so it has no inverse."""


def unchecked_matrix(rows: tuple) -> "IMatrix":
    """IMatrix over a tuple of equal-length tuples of Intervals, unchecked.

    Only for entries that are already Intervals, such as the results of
    interval operations; outside input goes through `IMatrix(...)`.
    """
    m = _new(IMatrix)
    m.rows = rows
    return m


class IMatrix:
    """Interval matrix; rows of Interval entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        ncols = {len(r) for r in self.rows}
        if len(ncols) != 1:
            raise IntervalError("ragged rows in interval matrix")
        for r in self.rows:
            for e in r:
                if not isinstance(e, Interval):
                    raise IntervalError(f"entry is not an Interval: {e!r}")

    @classmethod
    def from_floats(cls, rows) -> "IMatrix":
        return cls([[Interval.point(float(v)) for v in r] for r in rows])

    @classmethod
    def identity(cls, n: int) -> "IMatrix":
        return cls(
            [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
        )

    @classmethod
    def diagonal(cls, values) -> "IMatrix":
        vals = [v if isinstance(v, Interval) else Interval.point(float(v)) for v in values]
        n = len(vals)
        return cls(
            [[vals[i] if i == j else _ZERO for j in range(n)] for i in range(n)]
        )

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, IMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"IMatrix({[[ (e.lo, e.hi) for e in r] for r in self.rows]})"

    def __add__(self, other: "IMatrix") -> "IMatrix":
        self._same_shape(other)
        return IMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "IMatrix") -> "IMatrix":
        self._same_shape(other)
        return IMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise IntervalError("matrix shape mismatch")

    def transpose(self) -> "IMatrix":
        return IMatrix(list(zip(*self.rows)))

    def __matmul__(self, other):
        rows = self.rows
        if isinstance(other, Box):
            x = other.coords
            if len(rows[0]) != len(x):
                raise IntervalError("matrix/vector dimension mismatch")
            return unchecked_box(tuple([_dot(row, x) for row in rows]))
        if isinstance(other, IMatrix):
            if len(rows[0]) != len(other.rows):
                raise IntervalError("matrix dimension mismatch")
            cols = tuple(zip(*other.rows))
            return unchecked_matrix(
                tuple([tuple([_dot(row, col) for col in cols]) for row in rows])
            )
        return NotImplemented

    def midpoint(self):
        return [[e.mid() for e in r] for r in self.rows]

    def contains(self, other: "IMatrix") -> bool:
        """Whether each entry of `other` lies in this matrix's entry;
        IntervalError unless the shapes agree."""
        self._same_shape(other)
        return all(
            o.subset_of(e)
            for re, ro in zip(self.rows, other.rows)
            for e, o in zip(re, ro)
        )


def _dot(u, v) -> Interval:
    """sum_k u[k] * v[k], in order, over the terms with neither factor the
    point 0; the point 0 when no term is left.  A dropped term is exactly 0,
    since 0*x = 0 for finite x, so the sum still encloses every product, and
    no exact zero widens it.  Every `IMatrix @` product takes this rule."""
    acc = None
    for a, b in zip(u, v):
        if not (a.lo == a.hi == 0.0 or b.lo == b.hi == 0.0):
            acc = a * b if acc is None else acc + a * b
    return _ZERO if acc is None else acc


def det(A: IMatrix) -> Interval:
    """Interval determinant by cofactor expansion; n <= 3 only."""
    n = A.nrows
    if n != A.ncols or n not in (1, 2, 3):
        raise IntervalError(f"determinant supports square n<=3, got {n}x{A.ncols}")
    r = A.rows
    if n == 1:
        return r[0][0]
    if n == 2:
        return r[0][0] * r[1][1] - r[0][1] * r[1][0]
    m00 = r[1][1] * r[2][2] - r[1][2] * r[2][1]
    m01 = r[1][0] * r[2][2] - r[1][2] * r[2][0]
    m02 = r[1][0] * r[2][1] - r[1][1] * r[2][0]
    return r[0][0] * m00 - r[0][1] * m01 + r[0][2] * m02


def inverse_exact(rows) -> list:
    """Exact inverse of a square matrix of Fractions, by Gauss-Jordan.

    Raises SingularMatrixError when the matrix is singular.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise IntervalError("the inverse requires a square matrix")
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(rows)]
    for c in range(n):
        p = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if p is None:
            raise SingularMatrixError("the matrix is singular")
        aug[c], aug[p] = aug[p], aug[c]
        pivot = aug[c][c]
        aug[c] = [v / pivot for v in aug[c]]
        for r in range(n):
            f = aug[r][c]
            if r != c and f != 0:
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[c])]
    return [r[n:] for r in aug]


def leading_minor_lower_bounds(S: IMatrix):
    """Lower bounds of the leading principal minors of S, k = 1..n, lazily."""
    n = S.nrows
    if n != S.ncols:
        raise IntervalError("leading minors require a square matrix")
    for k in range(1, n):
        yield det(unchecked_matrix(tuple(row[:k] for row in S.rows[:k]))).lo
    yield det(S).lo


def is_positive_definite(S: IMatrix) -> bool:
    """Sylvester's criterion on an interval enclosure of symmetric matrices.

    True only when every leading principal minor has a strictly positive
    interval lower bound, which certifies positive definiteness of every
    symmetric member matrix.  False means inconclusive, never a false
    positive.
    """
    return all(lo > 0.0 for lo in leading_minor_lower_bounds(S))


def grid_pieces(X: Box, grid) -> list:
    """Per axis, the `Interval.split` pieces of X's coordinate by the grid's
    split count; a cell of the grid takes one piece per axis."""
    grid = tuple(grid)
    if len(grid) != X.dim:
        raise IntervalError("grid length must match box dimension")
    if any(type(g) is not int or g < 1 for g in grid):  # bool, float
        raise IntervalError(f"grid counts must be integers >= 1, got {grid}")
    return [c.split(g) for c, g in zip(X.coords, grid)]


def subdivide_box(X: Box, grid) -> "itertools.product":
    """Deterministic row-major cover of X by per-dimension split counts."""
    return (Box(combo) for combo in itertools.product(*grid_pieces(X, grid)))
