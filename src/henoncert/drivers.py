"""The one certification driver shared by the CLI and the test suite.

`run_all` builds every proof report, echoing the paper's map at `iterate` and
the h-sets (fresh copies of the shipped `a` and `b` unless given), and runs on
the map and sets the report builds from its echo; a grid of None leaves its
theorem out.  It is the one loop over the family's chart pairs:
`verify_covering` and `check_map_pair` each take one chart-conjugated map, and
`fan_out` spreads the calls over `workers` processes.  Results come back in
the family's pair order, keeping reports deterministic.
"""

from __future__ import annotations

import time
from copy import deepcopy

from .covering import BODY_GRID, FACE_GRID, verify_covering
from .henon import PAPER_MAP, HenonMap, IteratedMap
from .hsets import HSET_A_DEFINITION, HSET_B_DEFINITION, paper_map_pairs
from .hyperbolicity import HYP_GRID, HyperbolicityCertificate, check_map_pair
from .report import ProofReport
from .sweep import MAX_WITNESSES


def default_map(iterate: int = 4) -> IteratedMap:
    return IteratedMap(HenonMap(), k=iterate)


def fan_out(fn, arglists, workers: int):
    """[fn(*args) for args in arglists], spread over up to `workers` processes."""
    if workers <= 1 or len(arglists) <= 1:
        return [fn(*args) for args in arglists]
    from concurrent import futures  # a serial run never loads the pool
    with futures.ProcessPoolExecutor(max_workers=min(workers, len(arglists))) as pool:
        return list(pool.map(fn, *zip(*arglists)))


def run_all(
    body_grid=BODY_GRID,
    face_grid=FACE_GRID,
    hyp_grid=HYP_GRID,
    iterate: int = 4,
    hsets: dict | None = None,
    workers: int = 1,
    max_failures_reported: int = MAX_WITNESSES,
) -> ProofReport:
    """One proof report: the covering relation on each chart pair unless
    `body_grid` is None, the cone condition on each chart-conjugated map
    unless `hyp_grid` is None."""
    t0 = time.monotonic()
    report = ProofReport(
        map={"a": PAPER_MAP.a_decimal, "b": PAPER_MAP.b_decimal, "iterate": iterate},
        hsets=(deepcopy({"a": HSET_A_DEFINITION, "b": HSET_B_DEFINITION}) if hsets is None
               else {name: h.to_definition() for name, h in hsets.items()}),
        workers=workers,
    )
    pairs = paper_map_pairs(report.f, report.sets).values()
    if body_grid is not None:
        tasks = [(fc, body_grid, face_grid, max_failures_reported) for fc in pairs]
        report.covering = fan_out(verify_covering, tasks, workers)
    if hyp_grid is not None:
        t1 = time.monotonic()
        tasks = [(fc, hyp_grid, max_failures_reported) for fc in pairs]
        outcomes = fan_out(check_map_pair, tasks, workers)
        report.hyperbolicity = HyperbolicityCertificate(
            grid=tuple(hyp_grid), outcomes=outcomes, wall_time=time.monotonic() - t1)
    report.total_runtime = time.monotonic() - t0
    return report


def run_symbolic(body_grid=BODY_GRID, face_grid=FACE_GRID, hsets=None) -> list:
    """Covering certificates, one per chart pair."""
    return run_all(body_grid, face_grid, None, hsets=hsets).covering


def run_hyperbolicity(grid=HYP_GRID, hsets=None) -> HyperbolicityCertificate:
    """Cone-condition certificate over the chart-conjugated maps."""
    return run_all(None, None, grid, hsets=hsets).hyperbolicity


# No caller in the package: benchmarks/spans.py traces these two names and
# looks each one up with getattr, so they stay until its TRACED list drops them.
run_symbolic_report = run_all
run_hyperbolicity_report = run_all
