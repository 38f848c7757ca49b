"""Tests of the benchmark's own logic: span arithmetic and correctness checks."""

from __future__ import annotations

import copy
import json
import random
import time

import pytest

import calibrate
import checks
from spans import Tracer, load_spans, self_times, summarize

# --- spans ------------------------------------------------------------------

NESTED = [  # (name, start, end, parent)
    ("root", 0, 100, -1),
    ("a", 10, 40, 0),
    ("a.child", 15, 25, 1),
    ("b", 30, 60, 0),  # overlaps a on [30, 40]: counted once in root
    ("c", 90, 120, 0),  # runs past root: only [90, 100] is root's
]


def test_self_time_subtracts_union_of_children():
    _, start, end, parent = zip(*NESTED)
    assert list(self_times(start, end, parent)) == [40, 20, 10, 30, 30]


def test_self_time_independent_of_span_order():
    order = list(range(len(NESTED)))
    random.Random(3).shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    shuffled = [NESTED[i] for i in order]
    start = [s[1] for s in shuffled]
    end = [s[2] for s in shuffled]
    parent = [where[s[3]] if s[3] >= 0 else -1 for s in shuffled]
    got = self_times(start, end, parent)
    assert [got[where[i]] for i in range(len(NESTED))] == [40, 20, 10, 30, 30]


def test_summarize_sums_calls_and_self_time_per_name():
    names = ["outer", "inner"]
    name_id = [0, 1, 1]
    start, end, parent = [0, 100, 300], [1000, 200, 700], [-1, 0, 0]
    assert summarize(name_id, start, end, parent, names) == {
        "outer": (1, 500 / 1e9),
        "inner": (2, 500 / 1e9),
    }


def test_tracer_records_nesting_and_round_trips(tmp_path):
    tr = Tracer()

    def inner(x):
        return x + 1

    inner = tr.wrap(inner, "inner", lambda t, r, a: t.count("sum", r))

    def outer(x):
        return inner(x) + inner(x)

    outer = tr.wrap(outer, "outer")
    assert outer(1) == 4
    tr.save(tmp_path / "spans")
    header, name_id, start, end, parent = load_spans(tmp_path / "spans")
    assert header["names"] == ["inner", "outer"]
    assert header["counters"] == {"sum": 4}
    assert list(name_id) == [1, 0, 0]
    assert list(parent) == [-1, 0, 0]
    assert start[0] <= start[1] <= end[1] <= start[2] <= end[2] <= end[0]
    layer = summarize(name_id, start, end, parent, header["names"])
    assert layer["inner"][0] == 2 and layer["outer"][0] == 1
    assert all(s >= 0 for s in self_times(start, end, parent))


# --- reports from the CLI workloads ------------------------------------------

GRID = (2, 2, 2)
FACE_GRID = (1, 1)


@pytest.fixture(scope="module")
def small_report():
    """A real verify-all report on tiny grids: every check FAILs honestly."""
    from henoncert.drivers import run_all

    report = run_all(body_grid=GRID, face_grid=FACE_GRID, hyp_grid=GRID)
    assert not report.verdict
    return report.to_dict()


def write(tmp_path, d, name="report.json"):
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return path


def passing_cone(d):
    d = copy.deepcopy(d)
    for o in d["hyperbolicity"]["outcomes"]:
        o.update(skipped_disjoint=6, positive_definite=2, failed=0, failures=[])
    d["hyperbolicity"]["passed"] = True
    return d


def test_hyperbolicity_accepts_honest_report(small_report, tmp_path):
    path = write(tmp_path, passing_cone(small_report))
    assert checks.check_hyperbolicity(0, path, GRID) == (4, 4, [])


def _fail_one_pair(d):
    o = d["hyperbolicity"]["outcomes"][0]
    o.update(positive_definite=1, failed=1, failures=[{"index": 3}])
    d["hyperbolicity"]["passed"] = False


@pytest.mark.parametrize("exit_code, doctor", [
    (1, lambda d: None),  # non-zero exit
    (0, lambda d: d["hyperbolicity"]["outcomes"].pop()),  # three outcomes
    (0, _fail_one_pair),  # failed != 0
    (0, lambda d: d["hyperbolicity"]["outcomes"][2].update(skipped_disjoint=5)),
    (0, lambda d: d["hyperbolicity"].update(passed=False)),
    (0, lambda d: d.pop("map")),  # does not reload
])
def test_hyperbolicity_rejects_doctored_report(small_report, tmp_path, exit_code, doctor):
    d = passing_cone(small_report)
    doctor(d)
    certified, attempted, problems = checks.check_hyperbolicity(
        exit_code, write(tmp_path, d), GRID)
    assert problems and certified == 0 and attempted == 4


def test_hyperbolicity_rejects_edited_hsets(small_report, tmp_path):
    d = passing_cone(small_report)
    d["hsets"]["b"]["center"][0] = "0.8"
    assert checks.check_hyperbolicity(0, write(tmp_path, d), GRID)[0] == 0


def symbolic(d):
    """The covering half of a verify-all report, as `verify-symbolic` writes it."""
    d = copy.deepcopy(d)
    d["hyperbolicity"] = None
    return d


def check_symbolic(exit_code, path):
    return checks.check_symbolic(exit_code, path, GRID, FACE_GRID)


def test_symbolic_accepts_honest_fail(small_report, tmp_path):
    certified, attempted, problems = check_symbolic(
        1, write(tmp_path, symbolic(small_report)))
    assert problems == [] and attempted == 4
    assert certified == sum(c["passed"] for c in small_report["covering"])


def _pass_relation(d, k):
    c = d["covering"][k]
    c["condition_I"]["failures"] = []
    c["condition_II"]["failures"] = []
    c["passed"] = True
    return d


def test_symbolic_counts_certified_relations(small_report, tmp_path):
    d = _pass_relation(_pass_relation(symbolic(small_report), 0), 3)
    assert check_symbolic(1, write(tmp_path, d))[:2] == (2, 4)


def _claim_all_passed(d):
    """covering_passed true while the certificates still list their failures."""
    for c in d["covering"]:
        c["passed"] = True
    d["covering_passed"] = True
    return d


@pytest.mark.parametrize("exit_code, doctor", [
    (0, _claim_all_passed),
    (0, lambda d: d),  # exit 0 with covering_passed false
    (1, lambda d: d.update(covering_passed=True) or d),
    (1, lambda d: d.update(verdict=True) or d),
    (1, lambda d: d["hsets"]["a"]["center"].__setitem__(0, "0.8") or d),
    (1, lambda d: d["covering"].pop() and d),
    (1, lambda d: d["covering"][0].update(body_grid=[3, 3, 3]) or d),
    (1, lambda d: d["covering"][1]["condition_I"].update(checked=1) or d),
])
def test_symbolic_rejects_doctored_report(small_report, tmp_path, exit_code, doctor):
    d = doctor(symbolic(small_report))
    certified, attempted, problems = check_symbolic(exit_code, write(tmp_path, d))
    assert problems and certified == 0 and attempted == 4


def test_symbolic_rejects_report_with_cone_check(small_report, tmp_path):
    certified, _, problems = check_symbolic(1, write(tmp_path, small_report))
    assert problems and certified == 0


def test_symbolic_rejects_unreadable_report(tmp_path):
    truncated = tmp_path / "report.json"
    truncated.write_text('{"verdict": true')
    for path in (truncated, tmp_path / "missing.json"):
        certified, _, problems = check_symbolic(0, path)
        assert certified == 0 and problems


def test_check_output_reports_workers_and_flags_malformed(small_report, tmp_path,
                                                          monkeypatch):
    monkeypatch.setitem(checks.CHECKS, "symbolic", check_symbolic)
    path = write(tmp_path, symbolic(small_report))
    assert checks.check_output("symbolic", 1, path)["workers"] == 1
    d = symbolic(small_report)
    del d["covering"][0]["condition_I"]["checked"]
    out = checks.check_output("symbolic", 1, write(tmp_path, d))
    assert out["problems"] and out["certified"] == 0


# --- calibration ---------------------------------------------------------------

def test_speed_factor_is_the_mean_speed_over_the_samples():
    ref = calibrate.REFERENCE_S
    assert calibrate.speed_factor([ref] * 3) == 1.0
    # half the time at double speed, half at the reference: mean speed 1.5
    assert calibrate.speed_factor([ref / 2, ref, ref / 2, ref]) == 1.5


def test_sampler_times_the_kernel_while_the_caller_runs():
    assert calibrate.kernel() == calibrate.kernel()
    with calibrate.Sampler() as sampler:
        time.sleep(5 * calibrate.PERIOD_S)
    n = len(sampler.samples)
    assert n >= 1 and all(s > 0 for s in sampler.samples)
    time.sleep(2 * calibrate.PERIOD_S)
    assert len(sampler.samples) == n  # stopped on exit
