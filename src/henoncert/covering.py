"""Verification of covering relations N0 => N1 under a map.

The image of the source must stretch across the target in the unstable
directions and stay clear of the target's entry set.  Two sufficient checks
run over subdivisions of the local cube B = [-1,1]^3:

  condition I  (per body sub-box P):    some unstable coordinate of the local
    image lies strictly outside [-1,1], or the stable coordinate lies strictly
    inside;
  condition II (per exit-face part F):  the interval hull of the image of F
    under the map and under the linearization (A x, 0) lies strictly outside
    [-1,1] on some unstable coordinate.  The hull contains the whole linear
    homotopy track between the two, so acceptance also certifies the exit
    condition along the homotopy and that A maps the unstable boundary
    outside the unit square.

All comparisons against 1 are strict and taken on outward-rounded bounds, so
a pass is rigorous; a failure is an outcome, not an error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .henon import IteratedMap
from .hsets import HSet
from .intervals import Box
from .linalg import subdivide_box
from .sweep import MAX_WITNESSES, UNIT, Record, sweep

BODY_GRID = (20, 20, 20)  # shipped condition I grid
FACE_GRID = (10, 10)  # shipped condition II grid on each exit face


@dataclass(frozen=True)
class CoveringConfig:
    body_grid: tuple = BODY_GRID
    face_grid: tuple = FACE_GRID
    max_failures_reported: int = MAX_WITNESSES


@dataclass(frozen=True)
class LinearizationA:
    """Point u x u matrix taken inside the Jacobian block it approximates."""

    entries: tuple  # ((a11, a12), (a21, a22))

    def apply(self, xu) -> list:
        """Interval image of the unstable part of a local box."""
        out = []
        for row in self.entries:
            acc = xu[0].scale(row[0])
            for a, x in zip(row[1:], xu[1:]):
                acc = acc + x.scale(a)
            out.append(acc)
        return out

    def as_lists(self):
        return [list(r) for r in self.entries]


@dataclass
class ConditionISummary(Record):
    checked: int = 0
    outside_unstable: int = 0
    inside_stable: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failed == 0 and not self.failures and self.checked > 0


@dataclass
class ConditionIISummary(Record):
    faces: list = field(default_factory=list)  # per-face {axis, sign, checked}
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
    body_grid: tuple
    face_grid: tuple
    wall_time: float

    @property
    def passed(self) -> bool:
        return self.condition_I.passed and self.condition_II.passed


def local_map(f: IteratedMap, N0: HSet, N1: HSet) -> IteratedMap:
    """C_N1 o f o C_N0^-1 acting on local boxes."""
    return f.conjugated(N0, N1)


def linearization_at_center(f: IteratedMap, N0: HSet, N1: HSet) -> LinearizationA:
    """Midpoint of the unstable block of the local Jacobian at the origin."""
    J = local_map(f, N0, N1).jacobian(Box.from_point((0.0, 0.0, 0.0)))
    u = N0.u
    return LinearizationA(
        entries=tuple(tuple(J[i, j].mid() for j in range(u)) for i in range(u))
    )


def _body_accepts(Y: Box, u: int):
    """Name the disjunct a sub-box image satisfies, or None (fail)."""
    for i in range(u):
        if Y[i].mig() > 1.0:
            return "outside_unstable"
    if Y[u].mag() < 1.0 and all(Y[i].mag() < 1.0 for i in range(u + 1, Y.dim)):
        return "inside_stable"
    return None


def check_condition_I(
    f: IteratedMap, N0: HSet, N1: HSet, cfg: CoveringConfig
) -> ConditionISummary:
    """Spanning check over the body grid; lists the first failing sub-boxes."""
    fc = local_map(f, N0, N1)

    def body(P):
        Y = fc.eval(P)
        return _body_accepts(Y, N0.u) or {"box": P.endpoints(), "image": Y.endpoints()}

    counts, failures = sweep(
        subdivide_box(UNIT, cfg.body_grid), body, cfg.max_failures_reported
    )
    return ConditionISummary(
        checked=sum(counts.values()), failures=failures, **counts
    )


def check_condition_II(
    f: IteratedMap,
    N0: HSet,
    N1: HSet,
    A: LinearizationA,
    cfg: CoveringConfig,
) -> ConditionIISummary:
    """Exit-face check: hull of map image and linear image clears the target.

    One witness cap is shared by all exit faces.
    """
    fc = local_map(f, N0, N1)
    u = N0.u

    def exits(F):
        Ya = A.apply(F.coords[:u])
        Yf = fc.eval(F)
        if any(Yf[i].hull(Ya[i]).mig() > 1.0 for i in range(u)):
            return "exits"
        return {
            "box": F.endpoints(),
            "image": Yf.endpoints(),
            "linear_image": [[y.lo, y.hi] for y in Ya],
        }

    out = ConditionIISummary()
    for face in N0.exit_faces():
        grid = [1] * face.dim
        for axis, m in zip(face.free_axes(), cfg.face_grid):
            grid[axis] = m
        counts, failures = sweep(
            subdivide_box(face.extent(), grid),
            exits,
            cfg.max_failures_reported - len(out.failures),
        )
        out.failed += counts["failed"]
        out.failures += [
            {"face_axis": face.axis, "face_sign": face.sign, **w} for w in failures
        ]
        out.faces.append(
            {"axis": face.axis, "sign": face.sign, "checked": sum(counts.values())}
        )
    return out


def verify_covering(
    f: IteratedMap, N0: HSet, N1: HSet, cfg: CoveringConfig | None = None
) -> CoveringCertificate:
    """Full covering check N0 => N1; the certificate records the whole run."""
    cfg = cfg or CoveringConfig()
    t0 = time.monotonic()
    A = linearization_at_center(f, N0, N1)
    ci = check_condition_I(f, N0, N1, cfg)
    cii = check_condition_II(f, N0, N1, A, cfg)
    return CoveringCertificate(
        source=N0.name,
        target=N1.name,
        condition_I=ci,
        condition_II=cii,
        A=A.as_lists(),
        body_grid=tuple(cfg.body_grid),
        face_grid=tuple(cfg.face_grid),
        wall_time=time.monotonic() - t0,
    )
