"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 runs the covering checks at the shipped grids, a 20^3 body grid
and 10x10 exit faces, and requires all four relations certified there.
Criterion 9 pins the shipped proof's decisions at those grids: the cells
each test certifies in every certificate, and the boxes each check's
predicate evaluates.  So "the same proof" is a test, not a claim.
"""

import json
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from henoncert import (
    Box,
    HenonMap,
    IMatrix,
    Interval,
    IteratedMap,
    LinearMap,
    det,
    eval_point_fast,
    is_positive_definite,
    make_paper_hsets,
    verify_covering,
)
from henoncert import covering, hyperbolicity
from henoncert.cli import main
from henoncert.drivers import run_all, run_hyperbolicity, run_symbolic
from henoncert.hsets import HSET_A_DEFINITION, HSet, save_hsets
from henoncert.report import COVERING_CHAIN, ProofReport

PAPER_BODY = (20, 20, 20)
PAPER_FACE = (10, 10)
PAPER_HYP = (25, 25, 25)


def _report_line(n, ok, text):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


@pytest.fixture(scope="module")
def evaluated():
    """Boxes evaluated by each check's predicate, by the predicate's name,
    over the two shipped runs below."""
    return Counter()


@contextmanager
def _counted(check_module, evaluated):
    """A context in which `check_module.sweep` counts each box it evaluates."""
    sweep = check_module.sweep

    def counting(X, grid, predicate, cap):
        def counted(box):
            evaluated[predicate.__name__] += 1
            return predicate(box)
        return sweep(X, grid, counted, cap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(check_module, "sweep", counting)
        yield


@pytest.fixture(scope="module")
def covering_certs(evaluated):
    with _counted(covering, evaluated):
        return run_symbolic(body_grid=PAPER_BODY, face_grid=PAPER_FACE)


@pytest.fixture(scope="module")
def hyp_cert(evaluated):
    with _counted(hyperbolicity, evaluated):
        return run_hyperbolicity(grid=PAPER_HYP)


@pytest.fixture(scope="module")
def passing_report(tmp_path_factory, covering_certs, hyp_cert):
    a, b = make_paper_hsets()
    report = ProofReport(
        map={"a": "1.76", "b": "0.1", "iterate": 4},
        hsets={"a": a.to_definition(), "b": b.to_definition()},
        covering=covering_certs,
        hyperbolicity=hyp_cert,
    )
    path = tmp_path_factory.mktemp("reports") / "proof_report.json"
    report.save(path)
    return report, path


def test_criterion_1_symbolic_dynamics(covering_certs):
    certs = covering_certs
    total_time = sum(c.wall_time for c in certs)
    ok = (
        all(c.passed for c in certs)
        and len(certs) == 4
        and all(
            not c.condition_I.failures and not c.condition_II.failures
            for c in certs
        )
        and all(
            c.body_grid == PAPER_BODY and c.face_grid == PAPER_FACE for c in certs
        )
        and total_time < 600.0
    )
    _report_line(
        1,
        ok,
        f"all four covering relations certified (body grid {PAPER_BODY}, "
        f"faces {PAPER_FACE}, {total_time:.0f}s)",
    )


def test_criterion_2_hyperbolicity(hyp_cert):
    per_map_ok = all(o.passed for o in hyp_cert.outcomes)
    counts_ok = all(
        o.skipped_disjoint + o.positive_definite + o.failed == 25**3
        for o in hyp_cert.outcomes
    )
    coarse = run_hyperbolicity(grid=(1, 1, 1))
    ok = (
        per_map_ok
        and counts_ok
        and len(hyp_cert.outcomes) == 4
        and not coarse.passed
    )
    _report_line(
        2,
        ok,
        f"cone condition passes at {PAPER_HYP} for all four maps and the "
        f"unsubdivided 1x1x1 check fails",
    )


def test_criterion_3_enclosure_suite(rng):
    violations = 0
    checks = 0

    # interval kernel: 40_000 point-in-image checks
    for _ in range(8000):
        a = Interval(*sorted(rng.uniform(-10, 10, size=2)))
        b = Interval(*sorted(rng.uniform(-10, 10, size=2)))
        results = [(a + b, lambda s, t: s + t), (a - b, lambda s, t: s - t),
                   (a * b, lambda s, t: s * t), (a.sqr(), lambda s, t: s * s),
                   (-a, lambda s, t: -s)]
        s = rng.uniform(a.lo, a.hi)
        t = rng.uniform(b.lo, b.hi)
        for r, op in results:
            checks += 1
            if not r.contains_point(op(s, t)):
                violations += 1

    # interval matrices: 30_000 member matvec checks
    for _ in range(1000):
        lo = rng.uniform(-3, 3, size=(3, 3))
        wid = rng.uniform(0, 0.5, size=(3, 3))
        M = IMatrix([[Interval(lo[i][j], lo[i][j] + wid[i][j]) for j in range(3)]
                     for i in range(3)])
        vlo = rng.uniform(-2, 2, size=3)
        V = Box([Interval(v, v + rng.uniform(0, 0.5)) for v in vlo])
        W = M @ V
        for _ in range(10):
            m = np.array([[rng.uniform(M[i, j].lo, M[i, j].hi) for j in range(3)]
                          for i in range(3)])
            p = np.array([rng.uniform(c.lo, c.hi) for c in V])
            w = m @ p
            for i in range(3):
                checks += 1
                if not (W[i].lo - 1e-12 <= w[i] <= W[i].hi + 1e-12):
                    violations += 1

    # Henon iterates: 30_000 point-in-image checks of H^4, four box steps
    H = HenonMap()
    for _ in range(1000):
        lo = rng.uniform(-0.7, 0.6, size=3)
        X = Y = Box([Interval(v, v + 0.1) for v in lo])
        for _ in range(4):
            Y = H.eval_box(Y)
        for _ in range(10):
            p = tuple(rng.uniform(c.lo, c.hi) for c in X)
            q = eval_point_fast(p, 4)
            for iv, v in zip(Y, q):
                checks += 1
                if not (iv.lo - 1e-9 <= v <= iv.hi + 1e-9):
                    violations += 1

    # inclusion monotonicity: 10_000 nested-operand cases
    mono_bad = 0
    for _ in range(2000):
        xo = Interval(*sorted(rng.uniform(-10, 10, size=2)))
        yo = Interval(*sorted(rng.uniform(-10, 10, size=2)))
        xi = Interval(*sorted(rng.uniform(xo.lo, xo.hi, size=2)))
        yi = Interval(*sorted(rng.uniform(yo.lo, yo.hi, size=2)))
        pairs = [(xi + yi, xo + yo), (xi - yi, xo - yo), (xi * yi, xo * yo),
                 (xi.sqr(), xo.sqr()), (-xi, -xo)]
        for inner, outer in pairs:
            if not inner.subset_of(outer):
                mono_bad += 1

    ok = violations == 0 and checks >= 100_000 and mono_bad == 0
    _report_line(
        3,
        ok,
        f"{checks} randomized enclosure checks, {violations} violations; "
        f"10000 monotonicity cases, {mono_bad} violations",
    )


def test_criterion_4_oracle_equivalence(rng):
    false_positives = 0
    bad_false_negatives = 0
    for _ in range(1000):
        m = rng.uniform(-2, 2, size=(3, 3))
        sym = (m + m.T) / 2
        S = IMatrix.from_floats(sym.tolist())
        sylvester = is_positive_definite(S)
        eig_pd = np.linalg.eigvalsh(sym).min() > 0
        if sylvester and not eig_pd:
            false_positives += 1
        if eig_pd and not sylvester:
            minors = [
                abs(np.linalg.det(sym[:k, :k])) for k in range(1, 4)
            ]
            if min(minors) > 1e-10:
                bad_false_negatives += 1

    det_misses = 0
    for _ in range(1000):
        a = rng.integers(-9, 10, size=(3, 3))
        ai = [[int(v) for v in row] for row in a]
        exact = (
            ai[0][0] * (ai[1][1] * ai[2][2] - ai[1][2] * ai[2][1])
            - ai[0][1] * (ai[1][0] * ai[2][2] - ai[1][2] * ai[2][0])
            + ai[0][2] * (ai[1][0] * ai[2][1] - ai[1][1] * ai[2][0])
        )
        if not det(IMatrix.from_floats(a.tolist())).contains_point(float(exact)):
            det_misses += 1

    ok = false_positives == 0 and bad_false_negatives == 0 and det_misses == 0
    _report_line(
        4,
        ok,
        f"Sylvester vs eigenvalue oracle on 1000 matrices "
        f"({false_positives} false positives, {bad_false_negatives} "
        f"unexplained false negatives); integer determinant contained in "
        f"1000/{1000 - det_misses} cases",
    )


def test_criterion_5_negative_controls(tmp_path):
    a, b = make_paper_hsets()
    identity_cert = verify_covering(
        IteratedMap(LinearMap.identity()).conjugated(a, a), PAPER_BODY, PAPER_FACE
    )
    id_ok = not identity_cert.passed and (
        identity_cert.condition_I.failures or identity_cert.condition_II.failures
    )

    # a's center moved +0.5 along the chart's long axis (the second world
    # coordinate, spanned by the 0.1825 half-width column)
    shifted = HSet("a+shift", {**HSET_A_DEFINITION, "center": ["0.81", "1.5225", "0.975"]})
    f4 = IteratedMap(HenonMap(), k=4)
    shift_cert = verify_covering(f4.conjugated(a, shifted), PAPER_BODY, PAPER_FACE)
    shift_ok = not shift_cert.passed and (
        shift_cert.condition_I.failures or shift_cert.condition_II.failures
    )

    # exit code 1 through the CLI when the covering graph contains the
    # doomed relation a => shifted copy
    hpath = tmp_path / "hsets.json"
    save_hsets(hpath, {"a": a, "b": shifted})
    rpath = tmp_path / "report.json"
    rc = main([
        "verify-symbolic", "--body-grid", "20,20,20", "--face-grid", "10,10",
        "--workers", "1", "--hsets", str(hpath), "--report", str(rpath),
    ])
    cli_ok = rc == 1

    ok = bool(id_ok and shift_ok and cli_ok)
    _report_line(
        5,
        ok,
        f"identity covering fails ({len(identity_cert.condition_I.failures)} "
        f"witnesses), translated-target covering fails "
        f"({len(shift_cert.condition_I.failures) + len(shift_cert.condition_II.failures)} "
        f"witnesses), CLI exit code {rc}",
    )


def test_criterion_6_fixed_point_sanity():
    import mpmath

    mpmath.mp.dps = 50
    xs = float((-mpmath.mpf("1.1") + mpmath.sqrt(mpmath.mpf("8.25"))) / 2)
    w = 1e-8
    box = Box([Interval(xs - w, xs + w)] * 3)
    img = HenonMap().eval_box(box)
    ok = not img.is_disjoint(box)
    _report_line(6, ok, f"width-1e-8 box around x*={xs:.9f} meets its image under H")


def test_criterion_7_consequence_gating(passing_report, tmp_path, capsys):
    report, path = passing_report
    ok_words = all(
        main(["periodic-orbits", w, "--report", str(path)]) == 0
        for w in ("a", "ab", "abba")
    )

    failing = ProofReport(
        map=report.map,
        hsets=report.hsets,
        covering=[],
    )
    fpath = tmp_path / "failing.json"
    failing.save(fpath)
    refused_failing = main(["periodic-orbits", "ab", "--report", str(fpath)]) == 1
    # a missing report is bad input (exit 2), not a refused consequence
    refused_absent = (
        main(["periodic-orbits", "ab", "--report", str(tmp_path / "nope.json")]) == 2
    )
    ok = ok_words and refused_failing and refused_absent
    _report_line(
        7,
        ok,
        "periodic-orbit consequences gated on a passing covering graph",
    )


def test_criterion_8_determinism(tmp_path):
    def one_run():
        rep = run_all(
            body_grid=(6, 6, 6), face_grid=(4, 4), hyp_grid=(6, 6, 6), workers=1
        )
        d = rep.to_dict()
        d.pop("total_runtime")
        for c in d["covering"]:
            c.pop("wall_time")
        d["hyperbolicity"].pop("wall_time")
        return json.dumps(d, indent=2).encode()

    ok = one_run() == one_run()
    _report_line(8, ok, "repeated runs are byte-identical modulo timing fields")


# The shipped proof's decisions at the shipped grids: per chart pair, condition
# I's cells outside_unstable and inside_stable, and the cone check's cells
# skipped_disjoint and positive_definite; and the boxes evaluated per check.
PINNED_CONDITION_I = {"aa": (5884, 2116), "ab": (5830, 2170),
                      "ba": (5000, 3000), "bb": (4000, 4000)}
PINNED_CONE = {"aa": (11041, 4584), "ab": (11110, 4515),
               "ba": (10537, 5088), "bb": (9433, 6192)}
PINNED_EVALUATED = {"body": 324, "exits": 40, "skip_or_pd": 350}


def test_criterion_9_shipped_decisions_pinned(covering_certs, hyp_cert, evaluated):
    condition_I = {c.source + c.target: (c.condition_I.outside_unstable,
                                         c.condition_I.inside_stable)
                   for c in covering_certs}
    faces = [f["checked"] for c in covering_certs for f in c.condition_II.faces]
    cone = {o.label: (o.skipped_disjoint, o.positive_definite)
            for o in hyp_cert.outcomes}
    ok = (condition_I == PINNED_CONDITION_I and faces == [100] * 16
          and cone == PINNED_CONE and dict(evaluated) == PINNED_EVALUATED)
    _report_line(
        9,
        ok,
        f"shipped decisions: condition I {condition_I}, cone {cone}, "
        f"boxes evaluated {dict(evaluated)}",
    )
