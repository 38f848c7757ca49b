"""The one certification driver shared by the CLI and the test suite.

`run_all` builds every proof report from the `iterate`-th iterate of
`HenonParams()` and the h-sets (the shipped `a` and `b` unless given); a grid
of None leaves its theorem out.  Relation and map-pair checks fan out over
`workers` processes (`sweep.fan_out`); results come back in a fixed order,
keeping reports deterministic.
"""

from __future__ import annotations

import time

from .covering import BODY_GRID, FACE_GRID, verify_covering
from .henon import HenonMap, IteratedMap
from .hsets import make_paper_hsets, paper_map_pairs
from .hyperbolicity import (
    HYP_GRID,
    HyperbolicityCertificate,
    check_strong_hyperbolicity,
)
from .report import ProofReport
from .sweep import MAX_WITNESSES, fan_out


def default_map(iterate: int = 4) -> IteratedMap:
    return IteratedMap(HenonMap(), k=iterate)


def run_all(
    body_grid=BODY_GRID,
    face_grid=FACE_GRID,
    hyp_grid=HYP_GRID,
    iterate: int = 4,
    hsets: dict | None = None,
    workers: int = 1,
    max_failures_reported: int = MAX_WITNESSES,
) -> ProofReport:
    """One proof report: the covering chain a=>a, a=>b, b=>a, b=>b unless
    `body_grid` is None, the cone condition over the four chart-conjugated
    maps unless `hyp_grid` is None."""
    t0 = time.monotonic()
    if hsets is None:
        a, b = make_paper_hsets()
        hsets = {"a": a, "b": b}
    f = default_map(iterate)
    pairs = paper_map_pairs(f, hsets)
    params = f.base.params
    report = ProofReport(
        map={"a": params.a_decimal, "b": params.b_decimal, "iterate": iterate},
        hsets={name: h.to_definition() for name, h in hsets.items()},
        workers=workers,
    )
    if body_grid is not None:
        tasks = [(fc, body_grid, face_grid, max_failures_reported)
                 for fc in pairs.values()]
        report.covering = fan_out(verify_covering, tasks, workers)
    if hyp_grid is not None:
        report.hyperbolicity = check_strong_hyperbolicity(
            pairs, hyp_grid, max_failures_reported, workers=workers)
    report.total_runtime = time.monotonic() - t0
    return report


def run_symbolic(
    body_grid=BODY_GRID,
    face_grid=FACE_GRID,
    iterate: int = 4,
    hsets: dict | None = None,
    workers: int = 1,
    max_failures_reported: int = MAX_WITNESSES,
) -> list:
    """Covering certificates for the chain a=>a, a=>b, b=>a, b=>b."""
    return run_all(body_grid, face_grid, None, iterate, hsets, workers,
                   max_failures_reported).covering


def run_hyperbolicity(
    grid=HYP_GRID,
    iterate: int = 4,
    hsets: dict | None = None,
    workers: int = 1,
    max_failures_reported: int = MAX_WITNESSES,
) -> HyperbolicityCertificate:
    """Cone-condition certificate over the four chart-conjugated maps."""
    return run_all(None, None, grid, iterate, hsets, workers,
                   max_failures_reported).hyperbolicity


# No caller in the package: benchmarks/spans.py traces these two names and
# looks each one up with getattr, so they stay until its TRACED list drops them.
run_symbolic_report = run_all
run_hyperbolicity_report = run_all
