"""Verification of covering relations N0 => N1 under a map f.

Every check takes the one chart-conjugated map fc = C_N1 o f o C_N0^-1
(`f.conjugated(N0, N1)`) and reads the names, u and s from its charts.  The
image of the source must stretch across the target in the unstable
directions and stay clear of the target's entry set.  Two sufficient checks
run over subdivisions of the local cube B = [-1,1]^3:

  condition I  (per body sub-box P):    some unstable coordinate of the local
    image lies strictly outside [-1,1], or all stable coordinates lie strictly
    inside;
  condition II (per exit-face part F):  the interval hull of the image of F
    under the map and under the linearization (A x, 0) lies strictly outside
    [-1,1] on some unstable coordinate.  The hull contains the whole linear
    homotopy track between the two, so acceptance also certifies the exit
    condition along the homotopy and that A maps the unstable boundary
    outside the unit square.

Condition I encloses the image of P by the natural interval extension and,
when that decides nothing, intersects it with the mean-value form
f_c(m) + Df_c(P)(P - m), m the midpoint of P (Moore, Kearfott & Cloud,
*Introduction to Interval Analysis*, 2009, ch. 6).  Both contain f_c(P): the
first by inclusion, the second by the mean-value theorem on each coordinate,
P being convex and Df_c(P) enclosing the derivative at every point of P.

All comparisons against 1 are strict and taken on outward-rounded bounds, so
a pass is rigorous; a failure is an outcome, not an error.  `sweep` accepts
each cell of a grid by its own enclosure or by that of a block of cells
containing it, under the name of whichever test the block passes: either
disjunct of condition I, or condition II's exit test.  That is sound, since
the block's enclosure contains each cell's image, so every cell of an
accepted block satisfies the same test.  A count by name thus says which
test certified the cell, not that the cell's own enclosure passes it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import prod

from .henon import IteratedMap
from .intervals import Box, EnclosureError, Interval, unchecked_box
from .linalg import IMatrix
from .sweep import MAX_WITNESSES, UNIT, Record, sweep

BODY_GRID = (20, 20, 20)  # shipped condition I grid
FACE_GRID = (10, 10)  # shipped condition II grid on each exit face


def exit_faces(u: int) -> list:
    """The 2u exit faces of the cube, where orbits must leave: (axis, sign)
    for local coordinate `axis` < u pinned to `sign`."""
    return [(axis, sign) for axis in range(u) for sign in (-1.0, 1.0)]


@dataclass
class ConditionISummary(Record):
    checked: int = 0
    outside_unstable: int = 0
    inside_stable: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """No cell failed, and the cells by name add up to those checked."""
        return (self.failed == 0 and not self.failures and self.checked > 0
                and self.outside_unstable + self.inside_stable + self.failed
                == self.checked)


@dataclass
class ConditionIISummary(Record):
    faces: list[dict] = field(default_factory=list)  # per face {axis, sign, checked}
    failed: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failed == 0 and not self.failures and bool(self.faces)


@dataclass
class CoveringCertificate(Record):
    source: str
    target: str
    condition_I: ConditionISummary
    condition_II: ConditionIISummary
    A: list
    body_grid: tuple[int, ...]
    face_grid: tuple[int, ...]
    wall_time: float

    derived = ("passed",)

    @property
    def passed(self) -> bool:
        """Both conditions passed, on every cell of the grids they claim, each
        grid with one count per axis of the cube (the body) or of a face, and
        condition II on each of the source's 2u exit faces (u = len(A)) once.
        `ProofReport.covering_passed` also checks u against the source h-set."""
        ci, cii = self.condition_I, self.condition_II
        faces = [(f.get("axis"), f.get("sign")) for f in cii.faces]
        exits = exit_faces(len(self.A))
        return (ci.passed and cii.passed and len(self.body_grid) == UNIT.dim
                and len(self.face_grid) == UNIT.dim - 1
                and ci.checked == prod(self.body_grid)
                and len(faces) == len(exits) and all(faces.count(e) == 1 for e in exits)
                and all(f.get("checked") == prod(self.face_grid) for f in cii.faces))


def linearization_at_center(fc: IteratedMap) -> IMatrix:
    """Point u x u matrix: midpoints of the unstable block of the local
    Jacobian of the chart-conjugated map `fc` at the origin."""
    u = fc.charts()[0].u
    J = fc.jacobian(Box.from_point((0.0, 0.0, 0.0)))
    return IMatrix([[Interval.point(J[i, j].mid()) for j in range(u)] for i in range(u)])


def _body_accepts(Y: Box, u: int):
    """Name the disjunct a sub-box image satisfies, or None (fail)."""
    for i in range(u):
        if Y[i].mig() > 1.0:
            return "outside_unstable"
    if all(Y[i].mag() < 1.0 for i in range(u, Y.dim)):
        return "inside_stable"
    return None


def mean_value_image(fc: IteratedMap, P: Box, orbit, Y: Box) -> Box:
    """Y, an enclosure of fc(P), intersected with the mean-value form
    fc(m) + Dfc(P)(P - m), m = P's midpoint; `orbit` is `fc.orbit(P)`.

    Both contain fc(P), so EnclosureError if they are disjoint: only a kernel
    fault can make them so.
    """
    m = Box.from_point(P.midpoint())
    Z = fc.eval(m) + fc.jacobian_from_source(P, orbit) @ (P - m)
    out = tuple(y.intersect(z) for y, z in zip(Y, Z))
    if None in out:
        raise EnclosureError(f"disjoint enclosures of one image: {Y!r}, {Z!r}")
    return unchecked_box(out)


def check_condition_I(fc: IteratedMap, body_grid, cap: int) -> ConditionISummary:
    """Spanning check over the body grid; lists the first `cap` failing sub-boxes."""
    u = fc.charts()[0].u

    def body(P):
        orbit = fc.orbit(P)
        Y = fc.eval(P, orbit)
        name = _body_accepts(Y, u)
        if name is None:
            Y = mean_value_image(fc, P, orbit, Y)
            name = _body_accepts(Y, u)
        return name or {"box": P.endpoints(), "image": Y.endpoints()}

    counts, failures = sweep(UNIT, body_grid, body, cap)
    return ConditionISummary(
        checked=sum(counts.values()), failures=failures, **counts
    )


def check_condition_II(
    fc: IteratedMap, A: IMatrix, face_grid, cap: int
) -> ConditionIISummary:
    """Exit-face check: hull of map image and linear image clears the target.

    Each exit face is UNIT with coordinate `axis` pinned to `sign`, swept on
    `face_grid` over its free axes.  One witness cap is shared by all faces.
    """
    u = fc.charts()[0].u

    def exits(F):
        Ya = A @ Box(F.coords[:u])
        Yf = fc.eval(F)
        if any(Yf[i].hull(Ya[i]).mig() > 1.0 for i in range(u)):
            return "exits"
        return {
            "box": F.endpoints(),
            "image": Yf.endpoints(),
            "linear_image": Ya.endpoints(),
        }

    out = ConditionIISummary()
    for axis, sign in exit_faces(u):
        face = Box(UNIT.coords[:axis] + (Interval.point(sign),) + UNIT.coords[axis + 1:])
        grid = (*face_grid[:axis], 1, *face_grid[axis:])
        counts, failures = sweep(face, grid, exits, cap - len(out.failures))
        out.failed += counts["failed"]
        out.failures += [{"face_axis": axis, "face_sign": sign, **w} for w in failures]
        out.faces.append({"axis": axis, "sign": sign, "checked": sum(counts.values())})
    return out


def verify_covering(
    fc: IteratedMap,
    body_grid=BODY_GRID,
    face_grid=FACE_GRID,
    max_failures_reported: int = MAX_WITNESSES,
) -> CoveringCertificate:
    """Full covering check source => target of the chart-conjugated map `fc`
    (`f.conjugated(source, target)`); the certificate records the whole run."""
    N0, N1 = fc.charts()
    t0 = time.monotonic()
    A = linearization_at_center(fc)
    ci = check_condition_I(fc, body_grid, max_failures_reported)
    cii = check_condition_II(fc, A, face_grid, max_failures_reported)
    return CoveringCertificate(
        source=N0.name,
        target=N1.name,
        condition_I=ci,
        condition_II=cii,
        A=A.midpoint(),
        body_grid=tuple(body_grid),
        face_grid=tuple(face_grid),
        wall_time=time.monotonic() - t0,
    )
