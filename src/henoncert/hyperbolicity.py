"""Cone-condition check certifying strong hyperbolicity on the chart cubes.

For each chart-conjugated map f and each sub-box B_i of B = [-1,1]^3, either
the interval image [f(B_i)] misses B entirely (B_i cannot meet the invariant
set, so it is skipped), or Df(B_i)^T Q Df(B_i) - Q must be verifiably
positive definite with Q = W diag(Id_u, -Id_s) W, u and s read from f's
charts and W = diag(CONE_SCALES), the cone scales shared by every chart (as
in h-sets with cones, Zgliczynski, JDE 246, 2009, with one form for all
sets).  A pass for every chart pair yields uniform hyperbolicity of the
invariant set; `drivers.run_all` runs `check_map_pair` over them.

`sweep` accepts each sub-box by its own enclosure or by that of a block of
sub-boxes containing it: a block whose image misses B counts all of them as
skipped, and a block whose cone matrix is positive definite counts all of
them as positive definite.  That is sound, since the block's image and
Jacobian enclosures contain each sub-box's, so any cover of B by boxes that
are each skipped or positive definite proves the cone condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

from .henon import IteratedMap
from .intervals import Box, Interval, IntervalError
from .linalg import (
    IMatrix,
    is_positive_definite,
    leading_minor_lower_bounds,
    unchecked_matrix,
)
from .sweep import MAX_WITNESSES, UNIT, Record, sweep

HYP_GRID = (25, 25, 25)  # shipped cone-check grid


# W = diag(CONE_SCALES): on the target-side Jacobian they cut the shipped 25^3
# cone check from 426 boxes (W = Id) to 350.  Each w_k^2 is a double, so the
# form W diag(Id_u, -Id_s) W is a point matrix.
CONE_SCALES = (1.0, 0.625, 0.75)


def cone_quadratic_form(u: int = 2, s: int = 1) -> IMatrix:
    """Q = W diag(Id_u, -Id_s) W for W = diag(CONE_SCALES): expansion-positive,
    contraction-negative, diag(1, 0.390625, -0.5625) for the shipped sets."""
    if u + s != len(CONE_SCALES):
        raise IntervalError(f"cone scales are given for {len(CONE_SCALES)} dimensions")
    return IMatrix.diagonal([w * w if k < u else -(w * w)
                             for k, w in enumerate(CONE_SCALES)])


def cone_matrix(Df: IMatrix, Q: IMatrix) -> IMatrix:
    """Interval enclosure of Df^T Q Df - Q for a diagonal point matrix
    Q = diag(q).

    Only the upper triangle is computed, S_ij = sum_k q_k D_ki D_kj (with
    sqr(D_ki) on the diagonal, less q_i): each term is scaled by |q_k| unless
    |q_k| = 1, each sum starts from its first term, negated when q_0 is not
    positive, and adds or subtracts the others by the sign of q_k.  It is
    then mirrored, since every member matrix is symmetric.  IntervalError
    unless Q is square with each entry a point and each off-diagonal one 0,
    as `cone_quadratic_form` makes, and Df is square of Q's size.
    """
    n = Q.nrows
    for i, r in enumerate(Q.rows):
        if len(r) != n:
            raise IntervalError("cone form Q must be a diagonal point matrix")
        for j, e in enumerate(r):
            if e.lo != e.hi or (i != j and e.lo != 0.0):
                raise IntervalError("cone form Q must be a diagonal point matrix")
    q = [Q.rows[i][i].lo for i in range(n)]
    scales = [abs(v) for v in q]
    if Df.nrows != n or Df.ncols != n:
        raise IntervalError("Df must be square, of the size of Q")
    cols = list(zip(*Df.rows))
    S = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            t = [a.sqr() if i == j else a * b for a, b in zip(cols[i], cols[j])]
            t = [x if c == 1.0 else x.scale(c) for x, c in zip(t, scales)]
            acc = t[0] if q[0] > 0 else -t[0]
            for k in range(1, n):
                acc = acc + t[k] if q[k] > 0 else acc - t[k]
            if i == j:
                acc = acc - Q.rows[i][i]
            S[i][j] = S[j][i] = acc
    return unchecked_matrix(tuple(map(tuple, S)))


@dataclass
class MapPairOutcome(Record):
    label: str  # the chart names, source then target
    skipped_disjoint: int = 0
    positive_definite: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        checked = self.skipped_disjoint + self.positive_definite
        return self.failed == 0 and not self.failures and checked > 0


@dataclass
class HyperbolicityCertificate(Record):
    grid: tuple[int, ...]
    outcomes: list[MapPairOutcome]  # per chart pair, in input order
    wall_time: float

    derived = ("passed",)

    @property
    def passed(self) -> bool:
        """Every outcome passed, and counted every cell of the grid, which has
        one count per axis of the cube."""
        cells = prod(self.grid)
        return bool(self.outcomes) and len(self.grid) == UNIT.dim and all(
            o.passed and o.skipped_disjoint + o.positive_definite + o.failed == cells
            for o in self.outcomes)


def check_map_pair(
    fc: IteratedMap,
    grid,
    max_failures_reported: int = MAX_WITNESSES,
) -> MapPairOutcome:
    """Skip-or-certify sweep of the chart-conjugated map `fc` over the grid;
    the outcome is labelled by its charts, source then target ("ab").

    A box is skipped when its image misses B, else certified when its cone
    matrix, `cone_matrix(Df, Q)` for Q = `cone_quadratic_form(u, s)`, passes
    Sylvester's criterion, whose minors are evaluated once, up to the first
    that fails.  The lower bounds of all leading minors are computed after
    the sweep, and only for the listed failing cells, each rebuilt from its
    endpoints: a rejected block needs none of them.
    """
    N0, N1 = fc.charts()  # a charted map's charts share (u, s)
    Q = cone_quadratic_form(N0.u, N0.s)

    def skip_or_pd(Bi):
        orbit = fc.orbit(Bi)
        if fc.eval(Bi, orbit).is_disjoint(UNIT):
            return "skipped_disjoint"
        if is_positive_definite(cone_matrix(fc.jacobian(Bi, orbit), Q)):
            return "positive_definite"
        return {"box": Bi.endpoints()}

    counts, failures = sweep(UNIT, grid, skip_or_pd, max_failures_reported)
    for w in failures:
        cell = Box([Interval(lo, hi) for lo, hi in w["box"]])
        w["minor_lower_bounds"] = list(
            leading_minor_lower_bounds(cone_matrix(fc.jacobian(cell), Q))
        )
    return MapPairOutcome(label=N0.name + N1.name, failures=failures, **counts)

