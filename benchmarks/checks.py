"""Correctness checks on each workload's outputs.

Every check returns (certified, attempted, problems).  A check that finds a
problem does not count the affected certificate as certified, and `run.py`
does not time an iteration with problems as a success.  An honest FAIL of the
prover (a relation not certified on the shipped grid) is not a problem; a
report that claims more than it contains is.
"""

from __future__ import annotations

import json
from math import prod

from henoncert.hsets import HSET_A_DEFINITION, HSET_B_DEFINITION
from henoncert.report import COVERING_CHAIN, ProofReport, ReportError

PAPER_HSETS = {"a": HSET_A_DEFINITION, "b": HSET_B_DEFINITION}
CONE_PAIRS = ("aa", "ab", "ba", "bb")


def covering_cert_problems(c: dict) -> list:
    """Whether a certificate's `passed` is what its own contents support."""
    name = f"{c['source']}=>{c['target']} at {c['body_grid']}"
    ci, cii = c["condition_I"], c["condition_II"]
    out = []
    if ci["checked"] != prod(c["body_grid"]):
        out.append(f"{name}: {ci['checked']} body boxes checked")
    if len(cii["faces"]) != 4 or any(
        f["checked"] != prod(c["face_grid"]) for f in cii["faces"]
    ):
        out.append(f"{name}: exit faces not fully checked")
    listed = len(ci["failures"]) + len(cii["failures"])
    if c["passed"] and listed:
        out.append(f"{name}: claims PASS but lists {listed} failures")
    if not c["passed"] and not listed:
        out.append(f"{name}: FAIL without a witness")
    return out


def cone_outcome_problems(o: dict, grid) -> list:
    out = []
    if o["skipped_disjoint"] + o["positive_definite"] + o["failed"] != prod(grid):
        out.append(f"cone f_{o['label']}: box counts do not cover the {grid} grid")
    if o["failed"] != len(o["failures"]):
        out.append(f"cone f_{o['label']}: {o['failed']} failed, "
                   f"{len(o['failures'])} listed")
    return out


def _load(report_path):
    """(raw dict, ProofReport) or raises ReportError."""
    try:
        with open(report_path) as fh:
            raw = json.load(fh)
        return raw, ProofReport.load(report_path)
    except (OSError, ValueError) as e:  # ReportError and JSON errors are ValueErrors
        raise ReportError(f"report does not reload: {e}") from e


def _cone_problems(raw: dict, grid) -> tuple:
    hyp = raw["hyperbolicity"]
    if hyp is None or [o["label"] for o in hyp["outcomes"]] != list(CONE_PAIRS):
        return 0, ["cone check: expected outcomes for " + ", ".join(CONE_PAIRS)]
    if list(hyp["grid"]) != list(grid):
        return 0, [f"cone check ran {hyp['grid']}, not {list(grid)}"]
    certified, problems = 0, []
    for o in hyp["outcomes"]:
        found = cone_outcome_problems(o, grid)
        certified += not found and o["failed"] == 0
        problems += found
    if hyp["passed"] != all(o["failed"] == 0 for o in hyp["outcomes"]):
        problems.append("cone check: `passed` disagrees with its outcomes")
    return certified, problems


def check_hyperbolicity(exit_code: int, report_path, grid=(25, 25, 25)) -> tuple:
    """prove-hyperbolicity: exit 0 and every pair skip-or-PD on every box."""
    try:
        raw, _ = _load(report_path)
    except ReportError as e:
        return 0, len(CONE_PAIRS), [str(e)]
    certified, problems = _cone_problems(raw, grid)
    if raw["hsets"] != PAPER_HSETS:
        problems.append("h-set echo differs from the shipped definitions")
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if certified != len(CONE_PAIRS):
        problems.append(f"cone check certified {certified} of {len(CONE_PAIRS)}")
    return (0 if problems else certified), len(CONE_PAIRS), problems


def check_symbolic(exit_code: int, report_path, body_grid=(20, 20, 20),
                   face_grid=(10, 10)) -> tuple:
    """verify-symbolic: every certificate, `covering_passed` and the exit code agree."""
    attempted = len(COVERING_CHAIN)
    try:
        raw, report = _load(report_path)
    except ReportError as e:
        return 0, attempted, [str(e)]
    problems = []
    if raw["hsets"] != PAPER_HSETS:
        problems.append("h-set echo differs from the shipped definitions")
    pairs = [(c["source"], c["target"]) for c in raw["covering"]]
    if pairs != list(COVERING_CHAIN):
        problems.append(f"covering relations {pairs}")
    if raw["hyperbolicity"] is not None:
        problems.append("a covering-only report carries a cone check")
    certified = 0
    for c in raw["covering"]:
        found = covering_cert_problems(c)
        if [list(c["body_grid"]), list(c["face_grid"])] != [list(body_grid),
                                                            list(face_grid)]:
            found.append(f"{c['source']}=>{c['target']}: ran {c['body_grid']}"
                         f" / {c['face_grid']}")
        certified += not found and c["passed"]
        problems += found
    if raw["covering_passed"] != report.covering_passed:
        problems.append("`covering_passed` disagrees with the certificates")
    if raw["verdict"] != report.verdict:
        problems.append("`verdict` disagrees with the certificates")
    if exit_code != (0 if raw["covering_passed"] else 1):
        problems.append(f"exit code {exit_code} with covering_passed "
                        f"{raw['covering_passed']}")
    return (0 if problems else certified), attempted, problems


CHECKS = {"symbolic": check_symbolic, "hyperbolicity": check_hyperbolicity}


def check_output(kind: str, exit_code: int, path) -> dict:
    """Check one run's report; also give the worker count the run used."""
    try:
        certified, attempted, problems = CHECKS[kind](exit_code, path)
        workers = None
        if not problems:
            with open(path) as fh:
                workers = json.load(fh)["workers"]
    except (KeyError, TypeError, IndexError) as e:
        return {"certified": 0, "attempted": 0, "workers": None,
                "problems": [f"malformed output: {e!r}"]}
    return {"certified": certified, "attempted": attempted,
            "problems": problems, "workers": workers}
