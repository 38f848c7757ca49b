"""End-to-end certification drivers shared by the CLI and the test suite.

Each driver wires the default map (4th iterate, a = 1.76, b = 0.1) and the
shipped h-sets to the verifiers and assembles a ProofReport.  Relation and
map-pair checks are independent and pure, so they can fan out to a process
pool; results are aggregated in a fixed order, keeping reports deterministic.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor

from .covering import CoveringConfig, verify_covering
from .henon import HenonMap, HenonParams, IteratedMap
from .hsets import make_paper_hsets
from .hyperbolicity import (
    HyperbolicityCertificate,
    check_map_pair,
    cone_quadratic_form,
    paper_map_pairs,
)
from .report import COVERING_CHAIN, ProofReport


def default_map(iterate: int = 4, params: HenonParams | None = None) -> IteratedMap:
    return IteratedMap(HenonMap(params), k=iterate)


def default_hsets(hsets: dict | None = None) -> dict:
    if hsets is not None:
        return hsets
    a, b = make_paper_hsets()
    return {"a": a, "b": b}


def _run_tasks(fn, arglists, workers: int):
    if workers <= 1 or len(arglists) <= 1:
        return [fn(*args) for args in arglists]
    with ProcessPoolExecutor(max_workers=min(workers, len(arglists))) as pool:
        return list(pool.map(fn, *zip(*arglists)))


def run_symbolic(
    body_grid=(20, 20, 20),
    face_grid=(10, 10),
    iterate: int = 4,
    hsets: dict | None = None,
    workers: int = 1,
    max_failures_reported: int = 20,
) -> list:
    """Covering certificates for the chain a=>a, a=>b, b=>a, b=>b."""
    f = default_map(iterate)
    hs = default_hsets(hsets)
    cfg = CoveringConfig(
        body_grid=tuple(body_grid),
        face_grid=tuple(face_grid),
        max_failures_reported=max_failures_reported,
    )
    tasks = [(f, hs[i], hs[j], cfg) for i, j in COVERING_CHAIN]
    return _run_tasks(verify_covering, tasks, workers)


def run_hyperbolicity(
    grid=(25, 25, 25),
    iterate: int = 4,
    hsets: dict | None = None,
    workers: int = 1,
    max_failures_reported: int = 20,
) -> HyperbolicityCertificate:
    """Cone-condition certificate over the four chart-conjugated maps."""
    f = default_map(iterate)
    hs = default_hsets(hsets)
    Q = cone_quadratic_form()
    pairs = paper_map_pairs(f, hs)
    t0 = time.monotonic()
    tasks = [
        (label, fp, tuple(grid), Q, max_failures_reported)
        for label, fp in pairs.items()
    ]
    outcomes = _run_tasks(check_map_pair, tasks, workers)
    return HyperbolicityCertificate(
        grid=tuple(grid), outcomes=outcomes, wall_time=time.monotonic() - t0
    )


def _report(iterate, hsets, workers, max_failures_reported,
            body_grid=None, face_grid=None, hyp_grid=None) -> ProofReport:
    """One report: the covering chain if `body_grid`, the cone check if `hyp_grid`."""
    hs = default_hsets(hsets)
    t0 = time.monotonic()
    report = ProofReport(
        map_params={"a": "1.76", "b": "0.1", "iterate": iterate},
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
    body_grid=(20, 20, 20),
    face_grid=(10, 10),
    hyp_grid=(25, 25, 25),
    iterate: int = 4,
    hsets: dict | None = None,
    workers: int = 1,
    max_failures_reported: int = 20,
) -> ProofReport:
    """Both theorems end to end; the full report."""
    return _report(iterate, hsets, workers, max_failures_reported,
                   body_grid, face_grid, hyp_grid)


def run_symbolic_report(
    body_grid=(20, 20, 20),
    face_grid=(10, 10),
    iterate: int = 4,
    hsets: dict | None = None,
    workers: int = 1,
    max_failures_reported: int = 20,
) -> ProofReport:
    return _report(iterate, hsets, workers, max_failures_reported,
                   body_grid, face_grid)


def run_hyperbolicity_report(
    hyp_grid=(25, 25, 25),
    iterate: int = 4,
    hsets: dict | None = None,
    workers: int = 1,
    max_failures_reported: int = 20,
) -> ProofReport:
    return _report(iterate, hsets, workers, max_failures_reported,
                   hyp_grid=hyp_grid)
