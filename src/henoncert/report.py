"""Machine-checkable proof reports and their logical consequences.

A report bundles the four covering certificates (symbolic dynamics) and the
hyperbolicity certificate into one diffable JSON document that echoes every
decimal input.  The periodic-orbit consequence is purely logical: it may only
be stated from a report whose covering graph passed in full.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import __version__
from .covering import CoveringCertificate
from .hsets import COVERING_CHAIN
from .hyperbolicity import HyperbolicityCertificate


class ReportError(ValueError):
    """Malformed report, or a consequence requested without a valid proof."""


@dataclass
class ProofReport:
    map_params: dict  # {"a": decimal str, "b": decimal str, "iterate": int}
    hset_definitions: dict  # name -> decimal-string definition
    covering: list = field(default_factory=list)  # CoveringCertificate
    hyperbolicity: HyperbolicityCertificate | None = None
    total_runtime: float = 0.0
    workers: int = 1
    version: str = __version__

    @property
    def covering_passed(self) -> bool:
        if len(self.covering) != len(COVERING_CHAIN):
            return False
        seen = {(c.source, c.target) for c in self.covering}
        return seen == set(COVERING_CHAIN) and all(c.passed for c in self.covering)

    @property
    def verdict(self) -> bool:
        hyp_ok = self.hyperbolicity is not None and self.hyperbolicity.passed
        return self.covering_passed and hyp_ok

    def to_dict(self) -> dict:
        return {
            "artifact_version": self.version,
            "map": self.map_params,
            "hsets": self.hset_definitions,
            "covering": [c.to_dict() for c in self.covering],
            "hyperbolicity": (
                self.hyperbolicity.to_dict() if self.hyperbolicity else None
            ),
            "covering_passed": self.covering_passed,
            "verdict": self.verdict,
            "total_runtime": self.total_runtime,
            "workers": self.workers,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "ProofReport":
        try:
            map_params = dict(d["map"])
            a, b, it = map_params["a"], map_params["b"], map_params["iterate"]
            if not (isinstance(a, str) and isinstance(b, str)
                    and type(it) is int and it >= 1):  # bool, float, str
                raise ReportError(
                    "malformed proof report: map needs decimal strings a, b "
                    f"and an integer iterate >= 1, got {map_params!r}")
            # only null or a missing key leaves the cone check out; any other
            # value must load as a certificate, and the covering as a list
            hyp, covering = d.get("hyperbolicity"), d["covering"]
            if not isinstance(covering, list):
                raise ReportError("malformed proof report: covering must be "
                                  f"a list, got {covering!r}")
            return cls(
                map_params=map_params,
                hset_definitions=dict(d["hsets"]),
                covering=[CoveringCertificate.from_dict(c) for c in covering],
                hyperbolicity=(
                    None if hyp is None
                    else HyperbolicityCertificate.from_dict(hyp)
                ),
                total_runtime=d["total_runtime"],
                workers=d["workers"],
                version=d["artifact_version"],
            )
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
    it = report.map_params["iterate"]
    return (
        f"All four covering relations among the h-sets a, b hold for the "
        f"{it}-th iterate of the map; a union b is a topological horseshoe, "
        f"so the iterate is semi-conjugate to the full shift on two symbols "
        f"on the invariant part of a union b."
    )


def periodic_orbit_consequence(report: ProofReport, word: str, hsets: dict) -> str:
    """Existence statement for the periodic orbit coded by a cyclic word.

    Pure logic over the verified covering graph: every length-n cyclic word
    over {a, b} names a chain of passed coverings, hence a period-n point.
    Refuses unless all four coverings passed.
    """
    if not word or any(ch not in ("a", "b") for ch in word):
        raise ReportError(f"word must be non-empty over {{a, b}}, got {word!r}")
    if not report.covering_passed:
        raise ReportError(
            "refusing to state consequences: the loaded report does not "
            "certify all four covering relations"
        )
    it = report.map_params["iterate"]
    n = len(word)
    lines = [
        f"Verified covering chain for the cyclic word '{word}' "
        f"(period {n} of the {it}-th iterate):"
    ]
    for k, ch in enumerate(word):
        nxt = word[(k + 1) % n]
        lines.append(f"  {ch} => {nxt}  (step {k})")
    visits = ", ".join(f"F^{k}(x) in int|{ch}|" for k, ch in enumerate(word))
    lines.append(
        f"Consequence: there exists x with {visits} and F^{n}(x) = x, "
        f"where F is the {it}-th iterate of the map."
    )
    lines.append("World-coordinate supports (interval hulls):")
    for name in sorted(set(word)):
        hull = hsets[name].support()
        coords = " x ".join(f"[{c.lo:.6f}, {c.hi:.6f}]" for c in hull)
        lines.append(f"  |{name}| subset of {coords}")
    return "\n".join(lines)
