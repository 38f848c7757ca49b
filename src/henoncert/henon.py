"""The generalized 3D Henon map, iterates, and interval Jacobians.

H(x, y, z) = (a - y^2 - b*z, x, y) with defaults a = 1.76, b = 0.1, entered
through exact decimal parsing so the constants are enclosed, never rounded
silently.  Jacobians of iterates are explicit chain-rule products over the
interval orbit segments, in the companion form of Dh: a shift plus one
combination of rows (`jacobian_step`, Dh @ J) or of columns
(`times_jacobian`, J @ Dh) that drops every term whose factor is the point 0.
Interval matrix products are not associative, and the chain taken from the
target chart's side, M_post^-1 Dh(w_{k-1}) first, encloses the charted
Jacobian more tightly than the one taken from the source chart's basis M_pre.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intervals import Box, Interval, IntervalError, from_decimal, unchecked_box
from .linalg import IMatrix, unchecked_matrix

_ZERO = Interval(0.0, 0.0)
_ONE = Interval(1.0, 1.0)


class DivergenceError(ArithmeticError):
    """A floating-point orbit left the representable range."""


class HenonMap:
    """One application of H, built from its coefficients as decimal strings.

    It keeps them as `a_decimal` and `b_decimal`; `a` and `b` are their
    enclosures (width at most one ulp), and `a_float` and `b_float` the
    nearest doubles, used only by the non-rigorous point sampler.  IntervalError
    names a coefficient that is not a decimal string (`map.a: ...`).
    """

    def __init__(self, a: str = "1.76", b: str = "0.1"):
        self.a_decimal, self.b_decimal = a, b
        for name, literal in (("a", a), ("b", b)):
            try:  # a float would be taken at its binary value, not as a decimal
                if type(literal) is not str:
                    raise IntervalError(f"expected a decimal string, got {literal!r}")
                setattr(self, name, from_decimal(literal))
            except IntervalError as e:
                raise IntervalError(f"map.{name}: {e}") from e
        self.a_float, self.b_float = float(Fraction(a)), float(Fraction(b))
        self._mb = -self.b  # the -b entry of Dh, negated once per map

    def __repr__(self):
        return f"HenonMap(a={self.a_decimal!r}, b={self.b_decimal!r})"

    def eval_box(self, X: Box) -> Box:
        if X.dim != 3:
            raise IntervalError("Henon map acts on 3-dimensional boxes")
        x, y, z = X.coords
        return unchecked_box((self.a - y.sqr() - self.b * z, x, y))

    def jacobian_box(self, X: Box) -> IMatrix:
        """Dense Dh(X), every entry multiplied: no check calls it, and the tests
        compare the companion steps and both Jacobian chains against it."""
        if X.dim != 3:
            raise IntervalError("Henon map acts on 3-dimensional boxes")
        y = X.coords[1]
        return unchecked_matrix(
            (
                (_ZERO, y.scale(-2.0), self._mb),
                (_ONE, _ZERO, _ZERO),
                (_ZERO, _ONE, _ZERO),
            )
        )

    def jacobian_step(self, X: Box, J: IMatrix) -> IMatrix:
        """Dh(X) @ J by rows: row 0 = (-2y) row 1 + (-b) row 2, rows 1, 2 = old 0, 1.

        The exact 0 and 1 entries of Dh are never multiplied, and a term whose
        entry of J is the point 0 is dropped: 0*x = 0 exactly for finite x, the
        rule `linalg.nonzero_entries` applies to chart products.  Where both
        entries are point zeros the result is the point 0.  So no entry is
        widened by an exact zero of J, nor by the exact 0s and 1s of Dh.
        """
        if X.dim != 3:
            raise IntervalError("Henon map acts on 3-dimensional boxes")
        m2y = X.coords[1].scale(-2.0)
        mb = self._mb
        r0, r1, r2 = J.rows
        row = []
        for p, q in zip(r1, r2):
            if q.lo == q.hi == 0.0:
                row.append(_ZERO if p.lo == p.hi == 0.0 else m2y * p)
            elif p.lo == p.hi == 0.0:
                row.append(mb * q)
            else:
                row.append(m2y * p + mb * q)
        return unchecked_matrix((tuple(row), r0, r1))

    def times_jacobian(self, X: Box, J: IMatrix) -> IMatrix:
        """J @ Dh(X) by columns: col 0 = old 1, col 1 = (-2y) col 0 + col 2,
        col 2 = (-b) col 0.

        The same rule as `jacobian_step`: the exact 0 and 1 entries of Dh are
        never multiplied, a term whose entry of J is the point 0 is dropped,
        and where both are point zeros the result is the point 0.
        """
        if X.dim != 3:
            raise IntervalError("Henon map acts on 3-dimensional boxes")
        m2y = X.coords[1].scale(-2.0)
        mb = self._mb
        rows = []
        for p, q, r in J.rows:
            if p.lo == p.hi == 0.0:
                rows.append((q, r, _ZERO))
            elif r.lo == r.hi == 0.0:
                rows.append((q, m2y * p, mb * p))
            else:
                rows.append((q, m2y * p + r, mb * p))
        return unchecked_matrix(tuple(rows))


PAPER_MAP = HenonMap()  # the paper's a and b, built once: the sampler's default


class LinearMap:
    """Point linear map on R^3; handy for toy controls of the verifiers."""

    def __init__(self, matrix):
        self.matrix = IMatrix.from_floats(matrix)

    @classmethod
    def scaling(cls, sx: float, sy: float, sz: float) -> "LinearMap":
        return cls([[sx, 0.0, 0.0], [0.0, sy, 0.0], [0.0, 0.0, sz]])

    @classmethod
    def identity(cls) -> "LinearMap":
        return cls.scaling(1.0, 1.0, 1.0)

    def eval_box(self, X: Box) -> Box:
        return self.matrix @ X

    def jacobian_step(self, X: Box, J: IMatrix) -> IMatrix:
        return self.matrix @ J

    def times_jacobian(self, X: Box, J: IMatrix) -> IMatrix:
        return J @ self.matrix


@dataclass(frozen=True)
class IteratedMap:
    """k-fold iterate of a base map; with both charts it acts on chart cubes.

    A chart-less map is the iterate that `conjugated(N_i, N_j)` charts; only
    a charted map evaluates or differentiates.  On a local box X it is
        chart_post.local_from_world( base^k ( chart_pre.world_from_local(X) ) ),
    and its Jacobian is M_post^-1 Dh(w_{k-1}) ... Dh(w_0) M_pre over the orbit
    w_0 ... w_k, which `jacobian` multiplies from the left and
    `jacobian_from_source` from the right; both enclose it, the first more
    tightly.  The chart maps, the chains' steps and the chart products skip
    only point-zero terms, which are exactly 0, so every step keeps enclosure.
    """

    base: object
    k: int = 1
    chart_pre: object | None = None  # HSet of the source, or None
    chart_post: object | None = None  # HSet of the target, or None

    def __post_init__(self):
        if self.k < 1:
            raise IntervalError(f"iterate count must be >= 1, got {self.k}")
        pre, post = self.chart_pre, self.chart_post
        if (pre is None) != (post is None):
            raise IntervalError("a charted map needs both charts")
        if pre is not None and (pre.u, pre.s) != (post.u, post.s):
            raise IntervalError("charts must have matching exit/entry dimensions")

    def conjugated(self, source, target) -> "IteratedMap":
        """C_target o f o C_source^-1."""
        return IteratedMap(self.base, self.k, chart_pre=source, chart_post=target)

    def charts(self):
        """(chart_pre, chart_post); IntervalError on a chart-less map."""
        if self.chart_pre is None:
            raise IntervalError("the checks act on chart cubes: conjugate the map")
        return self.chart_pre, self.chart_post

    def orbit(self, X: Box):
        """World boxes [w_0, ..., w_k] along the iteration, w_0 pre-chart image."""
        w = self.charts()[0].world_from_local(X)
        out = [w]
        for _ in range(self.k):
            w = self.base.eval_box(w)
            out.append(w)
        return out

    def eval(self, X: Box, orbit=None) -> Box:
        """Local image of X; `orbit`, if given, is `self.orbit(X)`, reused."""
        post = self.charts()[1]
        return post.local_from_world((self.orbit(X) if orbit is None else orbit)[-1])

    def jacobian(self, X: Box, orbit=None) -> IMatrix:
        """Chain-rule enclosure of the derivative over every point of X, taken
        from the target side: the rows of M_post^-1, then `base.times_jacobian`
        over w_{k-1} ... w_0, then the source chart's basis M_pre.  The cone
        check and the covering's linearization `A` use this chain.  `orbit`,
        if given, is `self.orbit(X)`, reused.
        """
        pre, post = self.charts()
        boxes = self.orbit(X) if orbit is None else orbit
        J = post.basis_inv
        for w in boxes[-2::-1]:
            J = self.base.times_jacobian(w, J)
        return pre.times_basis(J)

    def jacobian_from_source(self, X: Box, orbit=None) -> IMatrix:
        """The same derivative, enclosed by the chain taken from the source side:
        M_pre, then `base.jacobian_step` over w_0 ... w_{k-1}, then the target
        chart's inverse.  Only condition I's mean-value form uses it.  On
        `jacobian` condition I needs 246 boxes instead of 324 at the defaults
        (`verify-symbolic` 286 instead of 364), and `verify-symbolic` runs then
        get shorter than the benchmark's calibration period, which crashes its
        worker (ROADMAP item 7); this method goes once that is fixed.
        `orbit`, if given, is `self.orbit(X)`, reused.
        """
        pre, post = self.charts()
        J = pre.basis
        for w in (self.orbit(X) if orbit is None else orbit)[:-1]:
            J = self.base.jacobian_step(w, J)
        return post.inverse_times(J)


def eval_point_fast(p, k: int, h: HenonMap | None = None):
    """k plain float steps of `h`, by default the paper's map.  NON-RIGOROUS.

    Raises DivergenceError when the orbit overflows.
    """
    h = PAPER_MAP if h is None else h
    a, b = h.a_float, h.b_float
    x, y, z = float(p[0]), float(p[1]), float(p[2])
    for _ in range(k):
        x, y, z = a - y * y - b * z, x, y
        if not (-1e150 < x < 1e150):
            raise DivergenceError(f"orbit diverged after reaching {(x, y, z)}")
    return (x, y, z)
