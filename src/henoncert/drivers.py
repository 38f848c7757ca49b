"""End-to-end certification drivers shared by the CLI and the test suite.

Each driver wires the default map (4th iterate of `HenonParams()`) and the
shipped h-sets to the verifiers and assembles a ProofReport.  Relation and
map-pair checks fan out over `workers` processes (`sweep.fan_out`); results
come back in a fixed order, keeping reports deterministic.
"""

from __future__ import annotations

import time

from .covering import BODY_GRID, FACE_GRID, verify_covering
from .henon import HenonMap, HenonParams, IteratedMap
from .hsets import make_paper_hsets, paper_map_pairs
from .hyperbolicity import (
    HYP_GRID,
    HyperbolicityCertificate,
    check_strong_hyperbolicity,
)
from .report import ProofReport
from .sweep import MAX_WITNESSES, fan_out


def default_map(iterate: int = 4, params: HenonParams | None = None) -> IteratedMap:
    return IteratedMap(HenonMap(params), k=iterate)


def default_hsets(hsets: dict | None = None) -> dict:
    if hsets is not None:
        return hsets
    a, b = make_paper_hsets()
    return {"a": a, "b": b}


def run_symbolic(
    body_grid=BODY_GRID,
    face_grid=FACE_GRID,
    iterate: int = 4,
    hsets: dict | None = None,
    workers: int = 1,
    max_failures_reported: int = MAX_WITNESSES,
) -> list:
    """Covering certificates for the chain a=>a, a=>b, b=>a, b=>b."""
    pairs = paper_map_pairs(default_map(iterate), default_hsets(hsets))
    tasks = [(fc, body_grid, face_grid, max_failures_reported)
             for fc in pairs.values()]
    return fan_out(verify_covering, tasks, workers)


def run_hyperbolicity(
    grid=HYP_GRID,
    iterate: int = 4,
    hsets: dict | None = None,
    workers: int = 1,
    max_failures_reported: int = MAX_WITNESSES,
) -> HyperbolicityCertificate:
    """Cone-condition certificate over the four chart-conjugated maps."""
    return check_strong_hyperbolicity(
        paper_map_pairs(default_map(iterate), default_hsets(hsets)),
        grid,
        max_failures_reported,
        workers=workers,
    )


def _report(iterate, hsets, workers, max_failures_reported,
            body_grid=None, face_grid=None, hyp_grid=None) -> ProofReport:
    """One report: the covering chain if `body_grid`, the cone check if `hyp_grid`."""
    hs = default_hsets(hsets)
    params = HenonParams()
    t0 = time.monotonic()
    report = ProofReport(
        map_params={"a": params.a_decimal, "b": params.b_decimal,
                    "iterate": iterate},
        hset_definitions={name: h.to_definition() for name, h in hs.items()},
        workers=workers,
    )
    if body_grid is not None:
        report.covering = run_symbolic(
            body_grid, face_grid, iterate, hs, workers, max_failures_reported
        )
    if hyp_grid is not None:
        report.hyperbolicity = run_hyperbolicity(
            hyp_grid, iterate, hs, workers, max_failures_reported
        )
    report.total_runtime = time.monotonic() - t0
    return report


def run_all(
    body_grid=BODY_GRID,
    face_grid=FACE_GRID,
    hyp_grid=HYP_GRID,
    iterate: int = 4,
    hsets: dict | None = None,
    workers: int = 1,
    max_failures_reported: int = MAX_WITNESSES,
) -> ProofReport:
    """Both theorems end to end; the full report."""
    return _report(iterate, hsets, workers, max_failures_reported,
                   body_grid, face_grid, hyp_grid)


def run_symbolic_report(
    body_grid=BODY_GRID,
    face_grid=FACE_GRID,
    iterate: int = 4,
    hsets: dict | None = None,
    workers: int = 1,
    max_failures_reported: int = MAX_WITNESSES,
) -> ProofReport:
    return _report(iterate, hsets, workers, max_failures_reported,
                   body_grid, face_grid)


def run_hyperbolicity_report(
    hyp_grid=HYP_GRID,
    iterate: int = 4,
    hsets: dict | None = None,
    workers: int = 1,
    max_failures_reported: int = MAX_WITNESSES,
) -> ProofReport:
    return _report(iterate, hsets, workers, max_failures_reported,
                   hyp_grid=hyp_grid)
