"""H-sets: affine charts with exit/entry structure, built from decimal data.

An h-set is the image of the cube B = [-1,1]^n under p -> c + M p, with u
exit (unstable) and s entry (stable) dimensions.  `HSet(name, definition)` is
the one way to build one, from a JSON-shaped definition: `center` a list of n
decimal strings, `basis` an n x n list of lists of them, and the integers `u`
and `s` (default 2 and 1).  The h-set keeps its own immutable copy of that
definition, which `to_definition` returns, so a report echoes exactly the
sets it certified.  Everything else derives from it: the tightest interval
around each decimal, and M^-1 computed exactly with `fractions.Fraction`,
each entry enclosed in a point where it is a double (as the exact zeros
are), else one ulp wide.  The chart maps, c + M X and M^-1 (Y - c), and a
Jacobian's chart products are plain `IMatrix @` products, which drop every
term with a point-zero factor: it is exactly 0, so the exact zeros of M and
M^-1 widen no enclosure, and the Henon steps skip them by the same rule.  A
family (`hset_family`) of disjoint sets is a covering graph: its chart pairs
are every ordered pair of its sets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .intervals import Box, IntervalError, from_decimal, from_fraction
from .linalg import IMatrix, SingularMatrixError, inverse_exact


def _strings(value, n: int | None = None) -> bool:
    """True when `value` is a list of strings, of length n unless n is None."""
    return (isinstance(value, (list, tuple)) and all(type(d) is str for d in value)
            and (n is None or len(value) == n))


@dataclass(frozen=True, init=False)
class HSet:
    """An h-set and its definition; the derived fields are not compared.

    Raises IntervalError, naming the set and the field, for a definition not
    of the shape above, or whose decimals or M^-1 entries do not parse or are
    out of double range (`h-set 'a': center[0]: ...`, `... basis inverse: ...`),
    and SingularMatrixError, naming the set, for a singular basis
    (`h-set 'b': basis: the matrix is singular`).
    """

    name: str
    definition: tuple  # (center, basis, u, s), the decimals as nested tuples
    center: Box = field(repr=False, compare=False)  # c, enclosed
    basis: IMatrix = field(repr=False, compare=False)  # M, columns are edge half-vectors
    basis_inv: IMatrix = field(repr=False, compare=False)  # verified enclosure of M^-1
    u: int = field(repr=False, compare=False)
    s: int = field(repr=False, compare=False)

    def __init__(self, name: str, definition: dict):
        def bad(why):
            return IntervalError(f"h-set {name!r}: {why}")

        def enclose(where, parse, x):
            try:
                return parse(x)
            except (IntervalError, SingularMatrixError) as e:
                raise type(e)(f"h-set {name!r}: {where}: {e}") from e

        if not isinstance(definition, dict):
            raise bad(f"expected an object, got {definition!r}")
        unknown = set(definition) - {"center", "basis", "u", "s"}
        if unknown:
            raise bad(f"unknown keys {sorted(unknown)}")
        c, m = definition.get("center"), definition.get("basis")
        u, s = definition.get("u", 2), definition.get("s", 1)
        if not _strings(c):
            raise bad(f"center must be a list of decimal strings, got {c!r}")
        n = len(c)
        if not (isinstance(m, (list, tuple)) and len(m) == n
                and all(_strings(r, n) for r in m)):
            raise bad(f"basis must be a {n}x{n} list of lists of decimal strings, "
                      f"got {m!r}")
        if type(u) is not int or type(s) is not int:  # bool, float, str
            raise bad(f"u and s must be integers, got {u!r}, {s!r}")
        if u < 1 or s < 0 or u + s != n:
            raise bad(f"need u >= 1, s >= 0 and u+s = {n}, got u={u}, s={s}")
        center = Box([enclose(f"center[{i}]", from_decimal, d) for i, d in enumerate(c)])
        basis = IMatrix([[enclose(f"basis[{i}][{j}]", from_decimal, d)
                          for j, d in enumerate(r)] for i, r in enumerate(m)])
        exact = enclose("basis", inverse_exact, [[Fraction(d) for d in r] for r in m])
        basis_inv = IMatrix([[enclose("basis inverse", from_fraction, q) for q in r]
                             for r in exact])
        if not (basis @ basis_inv).contains(IMatrix.identity(n)):
            raise bad("basis inverse fails the containment check")
        state = {
            "name": name,
            "definition": (tuple(c), tuple(map(tuple, m)), u, s),
            "center": center,
            "basis": basis, "basis_inv": basis_inv, "u": u, "s": s,
        }
        for key, value in state.items():
            object.__setattr__(self, key, value)

    @property
    def dim(self) -> int:
        return self.center.dim

    def world_from_local(self, X: Box) -> Box:
        """c + M X, enclosed."""
        return self.center + self.basis @ X

    def local_from_world(self, Y: Box) -> Box:
        """M^-1 (Y - c), enclosed."""
        return self.basis_inv @ (Y - self.center)

    def support(self) -> Box:
        """Interval hull of the support in world coordinates."""
        return self.world_from_local(Box.cube(-1.0, 1.0, self.dim))

    def to_definition(self) -> dict:
        """The definition as given, in fresh lists: center, basis, u, s."""
        c, m, u, s = self.definition
        return {"center": list(c), "basis": [list(r) for r in m], "u": u, "s": s}


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


# The shipped family's chart pairs, in report order: a union b is a horseshoe.
COVERING_CHAIN = (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))


def make_paper_hsets():
    """The h-sets a and b used by the shipped certification drivers."""
    return HSet("a", HSET_A_DEFINITION), HSet("b", HSET_B_DEFINITION)


def chart_pairs(names) -> list:
    """Every ordered pair (i, j) of a family's set names, in its order."""
    return [(i, j) for i in names for j in names]


def paper_map_pairs(f, hsets: dict) -> dict:
    """Label ij -> f_ij = C_j o f o C_i^-1 for each chart pair of `hsets`."""
    return {i + j: f.conjugated(hsets[i], hsets[j]) for i, j in chart_pairs(hsets)}


def hset_family(definitions) -> dict:
    """{name: HSet} from a JSON object of two or more one-letter-named 3-D (as the
    map is) definitions of one (u, s), their support hulls disjoint; else IntervalError."""
    if not (isinstance(definitions, dict) and len(definitions) >= 2 and all(
            type(n) is str and len(n) == 1 and n.isalpha() for n in definitions)):
        raise IntervalError("h-sets must be a JSON object of two or more sets, each "
                            f"named by one letter, got {definitions!r}")
    hs = {name: HSet(name, d) for name, d in definitions.items()}
    dims = {name: h.dim for name, h in hs.items() if h.dim != 3}
    if dims:
        raise IntervalError(f"h-sets must be 3-dimensional: {dims}")
    dims = {name: (h.u, h.s) for name, h in hs.items()}
    if len(set(dims.values())) > 1:
        raise IntervalError(f"h-sets differ in (u, s): {dims}")
    overlap = [i + j for i, j in chart_pairs(hs)
               if i < j and not hs[i].support().is_disjoint(hs[j].support())]
    if overlap:
        raise IntervalError(f"h-set supports must be disjoint, overlapping: {overlap}")
    return hs


def load_hsets(path) -> dict:
    """The h-set family a JSON file defines (decimal strings only)."""
    with open(path) as fh:
        return hset_family(json.load(fh))


def save_hsets(path, hsets: dict) -> None:
    with open(path, "w") as fh:
        json.dump({name: h.to_definition() for name, h in hsets.items()}, fh, indent=2)
        fh.write("\n")
