"""H-sets: affine charts with exit/entry structure.

An h-set is the image of the cube B = [-1,1]^3 under p -> c + M p, with u
exit (unstable) and s entry (stable) dimensions.  The chart inverse is stored
as a verified interval enclosure, so both chart directions stay rigorous.
Definitions round-trip through decimal strings for archival certificates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .intervals import Box, Interval, IntervalError, from_decimal
from .linalg import IMatrix, inverse3


@dataclass(frozen=True)
class HSet:
    name: str
    center: Box  # zero-width, the vector c
    basis: IMatrix  # M, columns are edge half-vectors
    basis_inv: IMatrix  # verified enclosure of M^-1
    u: int
    s: int
    definition: tuple | None = None  # (center decimals, basis decimals) as given

    def __post_init__(self):
        n = self.center.dim
        if self.u < 1 or self.s < 0 or self.u + self.s != n:
            raise IntervalError(
                f"need u >= 1, s >= 0 and u+s = {n}, got u={self.u}, s={self.s}"
            )
        if not (self.basis @ self.basis_inv).contains(IMatrix.identity(n)):
            raise IntervalError("basis inverse fails the containment check")

    @property
    def dim(self) -> int:
        return self.center.dim

    def world_from_local(self, X: Box) -> Box:
        """c + M X, enclosed."""
        return self.center + (self.basis @ X)

    def local_from_world(self, Y: Box) -> Box:
        """M^-1 (Y - c), enclosed."""
        return self.basis_inv @ (Y - self.center)

    def support(self) -> Box:
        """Interval hull of the support in world coordinates."""
        return self.world_from_local(Box.cube(-1.0, 1.0, self.dim))

    def exit_faces(self):
        """The 2u local faces where orbits must leave: coordinate j pinned to +-1."""
        faces = []
        for axis in range(self.u):
            for sign in (-1.0, 1.0):
                faces.append(LocalFace(axis, sign, self.dim))
        return faces

    def translated(self, offset) -> "HSet":
        """Same chart moved by a world offset; used for negative controls."""
        center = self.center + Box.from_point(offset)
        return HSet(
            name=f"{self.name}+shift",
            center=center,
            basis=self.basis,
            basis_inv=self.basis_inv,
            u=self.u,
            s=self.s,
        )

    def to_definition(self) -> dict:
        if self.definition is not None:
            c, m = self.definition
            return {"center": list(c), "basis": [list(r) for r in m],
                    "u": self.u, "s": self.s}
        return {
            "center": [repr(iv.mid()) for iv in self.center],
            "basis": [[repr(e.mid()) for e in row] for row in self.basis.rows],
            "u": self.u,
            "s": self.s,
        }


@dataclass(frozen=True)
class LocalFace:
    """One exit face in local coordinates: coordinate `axis` pinned at `sign`."""

    axis: int
    sign: float
    dim: int = 3

    def extent(self) -> Box:
        full = Interval(-1.0, 1.0)
        pinned = Interval(self.sign, self.sign)
        return Box([pinned if i == self.axis else full for i in range(self.dim)])

    def free_axes(self):
        return [i for i in range(self.dim) if i != self.axis]


def make_hset(name: str, center_decimals, basis_decimals, u: int = 2, s: int = 1) -> HSet:
    """Build an h-set from decimal strings, verifying the chart inverse."""
    center = Box([from_decimal(str(d)) for d in center_decimals])
    basis = IMatrix([[from_decimal(str(d)) for d in row] for row in basis_decimals])
    return HSet(
        name=name,
        center=center,
        basis=basis,
        basis_inv=inverse3(basis),
        u=u,
        s=s,
        definition=(
            tuple(str(d) for d in center_decimals),
            tuple(tuple(str(d) for d in row) for row in basis_decimals),
        ),
    )


# The two parallelepipeds around the folded-towel attractor whose union carries
# the horseshoe for the 4th iterate.  All constants are decimal strings.
HSET_A_DEFINITION = {
    "center": ["0.81", "1.0225", "0.975"],
    "basis": [
        ["0", "0.19", "-0.03"],
        ["0.1825", "0", "0"],
        ["0", "-0.095", "-0.06"],
    ],
    "u": 2,
    "s": 1,
}
HSET_B_DEFINITION = {
    "center": ["0.81", "1.4875", "0.975"],
    "basis": [
        ["0", "0.19", "-0.03"],
        ["0.1225", "0", "0"],
        ["0", "-0.095", "-0.06"],
    ],
    "u": 2,
    "s": 1,
}


# The covering relations i => j that make a union b a horseshoe, in report
# order; the cone check runs on the same four chart pairs.
COVERING_CHAIN = (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))


def make_paper_hsets():
    """The h-sets a and b used by the shipped certification drivers."""
    return (
        make_hset("a", HSET_A_DEFINITION["center"], HSET_A_DEFINITION["basis"]),
        make_hset("b", HSET_B_DEFINITION["center"], HSET_B_DEFINITION["basis"]),
    )


def paper_map_pairs(f, hsets: dict) -> dict:
    """Label ij -> f_ij = C_j o f o C_i^-1 for each i => j of COVERING_CHAIN.

    Only sets a and b are used; any other set in `hsets` is ignored.
    """
    return {i + j: f.conjugated(hsets[i], hsets[j]) for i, j in COVERING_CHAIN}


def hset_from_definition(name: str, d: dict) -> HSet:
    unknown = set(d) - {"center", "basis", "u", "s"}
    if unknown:
        raise IntervalError(f"h-set {name!r}: unknown keys {sorted(unknown)}")
    return make_hset(name, d["center"], d["basis"], u=int(d.get("u", 2)), s=int(d.get("s", 1)))


def load_hsets(path) -> dict:
    """Load named h-set definitions (decimal strings only) from a JSON file."""
    with open(path) as fh:
        raw = json.load(fh)
    return {name: hset_from_definition(name, d) for name, d in raw.items()}


def save_hsets(path, hsets: dict) -> None:
    with open(path, "w") as fh:
        json.dump({name: h.to_definition() for name, h in hsets.items()}, fh, indent=2)
        fh.write("\n")
