"""The one sweep behind all three per-box checks, their shared record type,
and the one fan-out of independent checks over worker processes.

A check is a predicate on one sub-box of the local cube B = [-1,1]^3: it
returns the name of the way the box was accepted, or a dict describing why it
was not.  `sweep` counts both and keeps only the first witnesses, so output
stays bounded whatever the grid.
"""

from __future__ import annotations

from collections import Counter
from concurrent import futures
from dataclasses import asdict, fields
from typing import get_args, get_origin, get_type_hints

from .intervals import Box

UNIT = Box.cube(-1.0, 1.0, 3)
MAX_WITNESSES = 20  # shipped cap on the failing boxes each check lists


def sweep(boxes, predicate, max_witnesses: int):
    """(counts by acceptance name plus "failed", first failing boxes as witnesses).

    Boxes are visited in the given (row-major) order; each witness is
    {"index": position in that order, **the predicate's detail}.
    """
    counts, witnesses = Counter(), []
    for index, box in enumerate(boxes):
        verdict = predicate(box)
        if isinstance(verdict, str):
            counts[verdict] += 1
            continue
        counts["failed"] += 1
        if len(witnesses) < max_witnesses:
            witnesses.append({"index": index, **verdict})
    return counts, witnesses


def fan_out(fn, arglists, workers: int):
    """[fn(*args) for args in arglists], spread over up to `workers` processes."""
    if workers <= 1 or len(arglists) <= 1:
        return [fn(*args) for args in arglists]
    with futures.ProcessPoolExecutor(max_workers=min(workers, len(arglists))) as pool:
        return list(pool.map(fn, *zip(*arglists)))


def _load(hint, value):
    origin = get_origin(hint) or hint
    if isinstance(origin, type) and issubclass(origin, Record):
        return origin.from_dict(value)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        item = (get_args(hint) or (None,))[0]
        return origin(_load(item, v) for v in value)
    if origin in (int, str) and type(value) is not origin:
        raise TypeError(f"expected {origin.__name__}, got {value!r}")
    return value


class Record:
    """Dataclass mixin: `to_dict` is the fields plus the derived `passed`.

    `from_dict` reads every field back (a missing one is a KeyError) and never
    reads `passed`: the verdict is always derived from the contents.
    """

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}

    @classmethod
    def from_dict(cls, d: dict):
        hints = get_type_hints(cls)
        return cls(**{f.name: _load(hints[f.name], d[f.name]) for f in fields(cls)})
