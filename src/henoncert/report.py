"""Machine-checkable proof reports and their logical consequences.

A report bundles the covering certificates (symbolic dynamics) and the
hyperbolicity certificate into one diffable JSON document that echoes every
decimal input.  A pass needs every chart pair of its h-sets, so it certifies
each set it echoes; the logical consequences are stated only from a pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import __version__
from .covering import CoveringCertificate
from .henon import HenonMap, IteratedMap
from .hsets import COVERING_CHAIN  # noqa: F401, re-exported
from .hsets import chart_pairs, hset_family
from .hyperbolicity import HyperbolicityCertificate
from .intervals import IntervalError
from .linalg import SingularMatrixError
from .sweep import Record


class ReportError(ValueError):
    """Malformed report, or a consequence requested without a valid proof."""


class WordError(ReportError):
    """A word that is empty or has a symbol the report's h-sets do not name."""


@dataclass(kw_only=True)
class ProofReport(Record):
    """The whole proof: its JSON keys are the field names, its format the
    field type hints (see `sweep.Record`), and it writes the derived
    `covering_passed` and `verdict` last.  Building or loading one checks `map`
    (decimal strings `a`, `b`, an integer `iterate >= 1`) and `workers >= 1`,
    and builds what it echoes: the map as `f`, the `iterate`-th iterate of
    `HenonMap(a, b)`, and the h-set family as `sets`; a missing `hyperbolicity` is null.
    """

    artifact_version: str = __version__
    map: dict  # {"a": decimal str, "b": decimal str, "iterate": int}
    hsets: dict  # name -> decimal-string definition
    covering: list[CoveringCertificate] = field(default_factory=list)
    hyperbolicity: HyperbolicityCertificate | None = None
    total_runtime: float = 0.0
    workers: int = 1

    derived = ("covering_passed", "verdict")

    def __post_init__(self):
        it = self.map.get("iterate")
        if not (type(it) is int and it >= 1):  # bool, float, str
            raise ReportError("malformed proof report: map needs an integer "
                              f"iterate >= 1, got {self.map!r}")
        if self.workers < 1:
            raise ReportError("malformed proof report: workers must be "
                              f">= 1, got {self.workers!r}")
        try:  # the errors name the bad field: map.a, h-set 'a': center[0]
            self.f = IteratedMap(HenonMap(self.map.get("a"), self.map.get("b")), k=it)
            self.sets = hset_family(self.hsets)
        except (IntervalError, SingularMatrixError) as e:
            raise ReportError(f"malformed proof report: {e}") from e

    @property
    def covering_passed(self) -> bool:
        """Each chart pair of `sets` has one certificate, which passed with
        its A u x u, u from the echoed source h-set: a certificate takes u
        from A, so this is what ties its exit faces to the source's."""
        return (sorted((c.source, c.target) for c in self.covering)
                == sorted(chart_pairs(self.sets))  # each once, in any order
                and all(c.passed and len(c.A) == self.sets[c.source].u
                        and all(type(r) is list and len(r) == len(c.A) for r in c.A)
                        for c in self.covering))

    @property
    def verdict(self) -> bool:
        """The covering graph and the cone check on its chart pairs passed."""
        h = self.hyperbolicity
        return (self.covering_passed and h is not None and h.passed
                and sorted(tuple(o.label) for o in h.outcomes)
                == sorted(chart_pairs(self.sets)))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "ProofReport":
        try:
            return super().from_dict({"hyperbolicity": None, **d})
        except (KeyError, TypeError, AttributeError) as e:
            raise ReportError(f"malformed proof report: {e!r}") from e

    @classmethod
    def from_json(cls, text: str) -> "ProofReport":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path) -> "ProofReport":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())


def symbolic_dynamics_statement(report: ProofReport) -> str:
    """The conclusion earned by a fully verified covering graph."""
    if not report.covering_passed:
        raise ReportError("covering graph did not pass; no conclusion available")
    it, n, union = report.map["iterate"], len(report.sets), " union ".join(report.sets)
    return (f"All {n * n} covering relations among the h-sets {', '.join(report.sets)} "
            f"hold for the {it}-th iterate of the map; {union} is a topological "
            f"horseshoe, so the iterate is semi-conjugate to the full shift on {n} "
            f"symbols on the invariant part of {union}.")


def periodic_orbit_consequence(report: ProofReport, word: str) -> str:
    """Existence statement for the periodic orbit coded by a cyclic word.

    Pure logic over the verified covering graph: every length-n cyclic word
    over the report's h-sets names a chain of passed coverings, hence a
    period-n point.  WordError for any other word; ReportError unless every
    covering passed.  The supports it states are those of the h-sets the
    report echoes, the sets it certified.
    """
    if not word or set(word) - set(report.sets):
        raise WordError(f"word must be non-empty over the h-sets "
                        f"{{{', '.join(report.sets)}}}, got {word!r}")
    if not report.covering_passed:
        raise ReportError("refusing to state consequences: the loaded report does "
                          "not certify every covering relation among its h-sets")
    it, n = report.map["iterate"], len(word)
    lines = [
        f"Verified covering chain for the cyclic word '{word}' "
        f"(period {n} of the {it}-th iterate):"
    ]
    lines += [f"  {ch} => {word[(k + 1) % n]}  (step {k})" for k, ch in enumerate(word)]
    visits = ", ".join(f"F^{k}(x) in int|{ch}|" for k, ch in enumerate(word))
    lines.append(
        f"Consequence: there exists x with {visits} and F^{n}(x) = x, "
        f"where F is the {it}-th iterate of the map."
    )
    lines.append("World-coordinate supports (interval hulls):")
    for name in sorted(set(word)):
        hull = report.sets[name].support()
        coords = " x ".join(f"[{c.lo:.6f}, {c.hi:.6f}]" for c in hull)
        lines.append(f"  |{name}| subset of {coords}")
    return "\n".join(lines)
