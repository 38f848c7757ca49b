"""The one sweep behind all three per-box checks, and the typed JSON codec
(`Record`) shared by their certificates and the proof report.

A check is a predicate on boxes inside a gridded box, such as the local cube
B = [-1,1]^3: it names the acceptance test a box passes, or returns a dict
describing why it passes none.  `sweep` accepts whole blocks of cells with
one enclosure where it can, counts every cell and keeps only the failing
cells with the smallest indices as witnesses, so output stays bounded
whatever the grid.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import fields
from math import inf, prod
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .intervals import Box, Interval
from .linalg import grid_pieces

UNIT = Box.cube(-1.0, 1.0, 3)
MAX_WITNESSES = 20  # shipped cap on the failing boxes each check lists


def sweep(X: Box, grid, predicate, max_witnesses: int):
    """(counts by acceptance name plus "failed", the failing cells with the
    `max_witnesses` smallest indices as witnesses, in ascending order).

    The cells are those of `subdivide_box(X, grid)`, bit for bit, and a
    cell's index is its position in that row-major order.  A coarse-to-fine
    descent visits blocks, each the exact hull of a range of cells per axis,
    starting from the whole grid.  `predicate(box)` returns the name of the
    acceptance test the box passes, or a dict of why it passes none.  A block
    that passes a test counts all of its cells under that test's name and is
    not split; any other block splits on the axis with the most cells (the
    lowest axis on ties), at the floor midpoint of its range, down to single
    cells, whose dict is their witness detail.

    A cell is thus accepted by its own enclosure or by that of a block
    containing it.  That is sound: the block's enclosure contains the image
    of each of its cells, so any cover of X by boxes that each pass some test
    proves what the tests prove.  A count by name says which test certified
    the cell, through its own box or a containing block's, so the names can
    differ from those of a cell-by-cell sweep with the same predicate.  A cell
    fails only when its own box fails; the failing cells can differ from such
    a sweep's only toward acceptance, where a block passes although a cell's
    own enclosure would not, since an enclosure need not shrink with its box.
    Each witness is {"index": the cell's index, **the predicate's detail}.
    """
    pieces = grid_pieces(X, grid)
    sizes = [len(p) for p in pieces]
    counts, heap = Counter(), []  # heap: (-index, witness), the smallest indices

    def visit(ranges):
        cells = prod(hi - lo for lo, hi in ranges)
        box = Box([Interval(p[lo].lo, p[hi - 1].hi)
                   for p, (lo, hi) in zip(pieces, ranges)])
        verdict = predicate(box)
        if isinstance(verdict, str):
            counts[verdict] += cells
        elif cells == 1:
            counts["failed"] += 1
            index = 0
            for (lo, _), n in zip(ranges, sizes):
                index = index * n + lo
            if len(heap) < max_witnesses:
                heapq.heappush(heap, (-index, verdict))
            elif heap and index < -heap[0][0]:
                heapq.heapreplace(heap, (-index, verdict))
        else:
            axis = max(range(len(ranges)), key=lambda k: ranges[k][1] - ranges[k][0])
            lo, hi = ranges[axis]
            mid = (lo + hi) // 2
            for half in ((lo, mid), (mid, hi)):
                visit(ranges[:axis] + (half,) + ranges[axis + 1:])

    visit(tuple((0, n) for n in sizes))
    witnesses = [{"index": -i, **w} for i, w in sorted(heap, reverse=True)]
    return counts, witnesses


def _load(hint, value):
    if get_origin(hint) is UnionType:  # X | None
        if value is None:
            return None
        (hint,) = set(get_args(hint)) - {type(None)}
    origin = get_origin(hint) or hint
    if isinstance(origin, type) and issubclass(origin, Record):
        return origin.from_dict(value)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        item = (get_args(hint) or (None,))[0]
        return origin(_load(item, v) for v in value)
    if origin is float:  # every float field is a duration
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not 0 <= value < inf):
            raise TypeError(f"expected a finite number >= 0, got {value!r}")
    elif origin is int:  # every int field is a count or a grid size
        if type(value) is not int or value < 0:
            raise TypeError(f"expected an integer >= 0, got {value!r}")
    elif origin is str and type(value) is not str:
        raise TypeError(f"expected str, got {value!r}")
    elif origin is dict and not isinstance(value, dict):
        raise TypeError(f"expected an object, got {value!r}")
    return value


def _dump(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return type(value)(_dump(v) for v in value)
    if isinstance(value, dict):
        return {k: _dump(v) for k, v in value.items()}
    return value


class Record:
    """Dataclass mixin: one JSON codec, declared by the field type hints.

    `to_dict` writes every field under its own name, a nested record through
    its own `to_dict`, then the derived verdicts the class names in `derived`
    (none by default).  `from_dict` reads every field back (a missing one is
    a KeyError) and checks it against its hint: `int` (>= 0, not a bool:
    every int field is a count or a grid size), `str`, `float` (a finite
    number >= 0, not a bool: every float field is a duration), `dict`,
    a list or tuple of an item type, a nested record, or `X | None`; any other
    value is a TypeError.  It never reads a derived verdict: those are always
    computed from the contents.
    """

    derived = ()

    def to_dict(self) -> dict:
        d = {f.name: _dump(getattr(self, f.name)) for f in fields(self)}
        return {**d, **{name: getattr(self, name) for name in self.derived}}

    @classmethod
    def from_dict(cls, d: dict):
        hints = get_type_hints(cls)
        return cls(**{f.name: _load(hints[f.name], d[f.name]) for f in fields(cls)})
