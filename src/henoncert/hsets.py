"""H-sets: affine charts with exit/entry structure.

An h-set is the image of the cube B = [-1,1]^3 under p -> c + M p, with u
exit (unstable) and s entry (stable) dimensions.  `make_hset` computes M^-1
exactly from the decimal definition with `fractions.Fraction` and stores the
tightest interval around each entry: a point where the entry is a double (as
the exact zeros are), else one ulp wide.  The chart maps and the chart products
of a Jacobian sum only over the nonzero entries of M and M^-1, listed once per
h-set; a dropped point-zero term is exactly 0, so both chart directions stay
rigorous.  Definitions round-trip through decimal strings for archival
certificates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .intervals import Box, Interval, IntervalError, from_decimal, from_fraction, unchecked_box
from .linalg import (IMatrix, inverse_exact, nonzero_entries, sparse_dot,
                     unchecked_matrix)


@dataclass(frozen=True)
class HSet:
    name: str
    center: Box  # zero-width, the vector c
    basis: IMatrix  # M, columns are edge half-vectors
    basis_inv: IMatrix  # verified enclosure of M^-1
    u: int
    s: int
    definition: tuple | None = None  # (center decimals, basis decimals) as given
    # nonzero (index, entry) pairs of M's rows, M's columns and M^-1's rows
    _rows: tuple = field(init=False, repr=False, compare=False)
    _cols: tuple = field(init=False, repr=False, compare=False)
    _inv_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.center.dim
        if self.u < 1 or self.s < 0 or self.u + self.s != n:
            raise IntervalError(
                f"need u >= 1, s >= 0 and u+s = {n}, got u={self.u}, s={self.s}"
            )
        if any((m.nrows, m.ncols) != (n, n) for m in (self.basis, self.basis_inv)):
            raise IntervalError(f"basis and its inverse must be {n}x{n} like the center")
        if not (self.basis @ self.basis_inv).contains(IMatrix.identity(n)):
            raise IntervalError("basis inverse fails the containment check")
        object.__setattr__(self, "_rows", nonzero_entries(self.basis.rows))
        object.__setattr__(self, "_cols", nonzero_entries(zip(*self.basis.rows)))
        object.__setattr__(self, "_inv_rows", nonzero_entries(self.basis_inv.rows))

    @property
    def dim(self) -> int:
        return self.center.dim

    def world_from_local(self, X: Box) -> Box:
        """c + M X, enclosed."""
        x = X.coords
        if len(x) != self.dim:
            raise IntervalError("box and chart dimensions differ")
        return unchecked_box(tuple(
            c + sparse_dot(r, x) for c, r in zip(self.center.coords, self._rows)
        ))

    def local_from_world(self, Y: Box) -> Box:
        """M^-1 (Y - c), enclosed."""
        d = (Y - self.center).coords
        return unchecked_box(tuple(sparse_dot(r, d) for r in self._inv_rows))

    def times_basis(self, J: IMatrix) -> IMatrix:
        """J @ M, enclosed: a world-domain Jacobian in this chart's coordinates."""
        if J.ncols != self.dim:
            raise IntervalError("matrix and chart dimensions differ")
        cols = self._cols
        return unchecked_matrix(tuple(
            tuple(sparse_dot(c, row) for c in cols) for row in J.rows
        ))

    def inverse_times(self, J: IMatrix) -> IMatrix:
        """M^-1 @ J, enclosed: a world-range Jacobian in this chart's coordinates."""
        if J.nrows != self.dim:
            raise IntervalError("matrix and chart dimensions differ")
        cols = tuple(zip(*J.rows))
        return unchecked_matrix(tuple(
            tuple(sparse_dot(r, c) for c in cols) for r in self._inv_rows
        ))

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
    """Build an h-set from decimal strings, with the exact-rational chart inverse.

    Raises SingularMatrixError for a singular basis and IntervalError when an
    entry of the inverse is out of double range.
    """
    center = Box([from_decimal(str(d)) for d in center_decimals])
    basis = IMatrix([[from_decimal(str(d)) for d in row] for row in basis_decimals])
    exact = [[Fraction(str(d)) for d in row] for row in basis_decimals]  # parsed above
    return HSet(
        name=name,
        center=center,
        basis=basis,
        basis_inv=IMatrix([[from_fraction(q) for q in row] for row in inverse_exact(exact)]),
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
    u, s = d.get("u", 2), d.get("s", 1)
    if type(u) is not int or type(s) is not int:  # bool, float, str
        raise IntervalError(f"h-set {name!r}: u and s must be integers, got {u!r}, {s!r}")
    return make_hset(name, d["center"], d["basis"], u=u, s=s)


def load_hsets(path) -> dict:
    """Load named h-set definitions (decimal strings only) from a JSON file."""
    with open(path) as fh:
        raw = json.load(fh)
    return {name: hset_from_definition(name, d) for name, d in raw.items()}


def save_hsets(path, hsets: dict) -> None:
    with open(path, "w") as fh:
        json.dump({name: h.to_definition() for name, h in hsets.items()}, fh, indent=2)
        fh.write("\n")
