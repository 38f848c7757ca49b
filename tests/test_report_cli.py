import copy
import json
import math
import os
import re
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest

import henoncert
from henoncert import (
    HenonMap,
    HyperbolicityCertificate,
    IntervalError,
    IteratedMap,
    LinearMap,
    ProofReport,
    ReportError,
    check_map_pair,
    make_paper_hsets,
    paper_map_pairs,
    periodic_orbit_consequence,
    verify_covering,
)
from henoncert.cli import main
from henoncert.drivers import run_all, run_hyperbolicity, run_symbolic
from henoncert.hsets import HSET_A_DEFINITION, HSET_B_DEFINITION, HSet
from henoncert.report import COVERING_CHAIN, WordError, symbolic_dynamics_statement

UNIT = {"center": ["0", "0", "0"],
        "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
NINE = ["aa", "ab", "ac", "ba", "bb", "bc", "ca", "cb", "cc"]  # pairs of a, b, c
# A third set in the gap between the shipped a (y in [0.84, 1.205]) and b
# (y in [1.365, 1.61]): y in [1.215, 1.355], disjoint from both.
HSET_C_DEFINITION = {**HSET_A_DEFINITION, "center": ["0.81", "1.285", "0.975"],
                     "basis": [["0", "0.19", "-0.03"], ["0.07", "0", "0"],
                               ["0", "-0.095", "-0.06"]]}


def _toy_report(passed=True, cone=False, names="ab"):
    """Report whose covering graph is toy self-coverings of unit charts, one
    per ordered pair of `names`, and with `cone` the cone check of the same
    maps.  It echoes the shipped a and b, and the unit cube around
    (-3, 0, 0), away from both, for c."""
    scale = (3.0, 3.0, 0.25) if passed else (1.0, 1.0, 1.0)
    f = IteratedMap(LinearMap.scaling(*scale))
    pairs = [f.conjugated(HSet(i, UNIT), HSet(j, UNIT)) for i in names for j in names]
    shipped = {"a": HSET_A_DEFINITION, "b": HSET_B_DEFINITION,
               "c": {**UNIT, "center": ["-3", "0", "0"]}}
    return ProofReport(
        map={"a": "1.76", "b": "0.1", "iterate": 4},
        hsets={n: copy.deepcopy(shipped[n]) for n in names},
        covering=[verify_covering(fc, (3, 3, 3), (2, 2)) for fc in pairs],
        hyperbolicity=HyperbolicityCertificate(
            grid=(2, 2, 2), outcomes=[check_map_pair(fc, (2, 2, 2)) for fc in pairs],
            wall_time=0.0) if cone else None,
    )


def _regrid(kind, grid):
    """An edit of a report dict: one certificate claims `grid` as its body,
    face or cone grid, with every cell of it counted as accepted."""
    cells = prod(grid)

    def edit(d):
        if kind == "cone":
            d["hyperbolicity"]["grid"] = grid
            for o in d["hyperbolicity"]["outcomes"]:
                o.update(skipped_disjoint=cells, positive_definite=0, failed=0)
            return
        c = d["covering"][1]
        c[f"{kind}_grid"] = grid
        if kind == "body":
            c["condition_I"].update(checked=cells, outside_unstable=cells,
                                    inside_stable=0)
        else:
            for f in c["condition_II"]["faces"]:
                f["checked"] = cells

    return edit


@pytest.fixture(scope="module")
def symbolic_report():
    """The shipped covering proof, as the JSON object `verify-symbolic` writes."""
    return run_all(hyp_grid=None).to_dict()


class TestProofReport:
    def test_json_roundtrip(self):
        rep = _toy_report()
        back = ProofReport.from_json(rep.to_json())
        assert back.to_dict() == rep.to_dict()

    def test_json_roundtrip_with_cone_certificate(self):
        rep = run_all(body_grid=(7, 5, 3), face_grid=(3, 5), hyp_grid=(7, 4, 9),
                      max_failures_reported=3)
        d = json.loads(rep.to_json())
        assert ProofReport.from_dict(d).to_dict() == rep.to_dict()
        assert set(d) == {"artifact_version", "map", "hsets", "covering",
                          "hyperbolicity", "total_runtime", "workers",
                          "covering_passed", "verdict"}
        summaries = {"condition_I": {"checked", "outside_unstable",
                                     "inside_stable", "failed", "failures"},
                     "condition_II": {"faces", "failed", "failures"}}
        for c in d["covering"]:
            assert set(c) == {*summaries, "source", "target", "A", "body_grid",
                              "face_grid", "wall_time", "passed"}
            for name, keys in summaries.items():
                assert set(c[name]) == keys
        hyp = d["hyperbolicity"]
        assert set(hyp) == {"grid", "outcomes", "wall_time", "passed"}
        for o in hyp["outcomes"]:
            assert set(o) == {"label", "skipped_disjoint", "positive_definite",
                              "failed", "failures"}
        # the report lists witnesses of all three checks
        assert any(c["condition_I"]["failures"] for c in d["covering"])
        assert any(c["condition_II"]["failures"] for c in d["covering"])
        assert any(o["failures"] for o in hyp["outcomes"])

    def test_verdict_requires_both_certificates(self):
        rep = _toy_report()
        assert rep.covering_passed
        assert not rep.verdict  # no hyperbolicity certificate yet
        assert _toy_report(cone=True).verdict

    @pytest.mark.parametrize("outcomes", [
        lambda o: o[:1],  # aa only
        lambda o: [o[0]] * 4,  # aa four times
        lambda o: o[:3] + [{**o[3], "label": "zz"}],
        lambda o: o + o[:1],
    ])
    def test_verdict_needs_each_cone_pair_once(self, outcomes):
        d = _toy_report(cone=True).to_dict()
        d["hyperbolicity"]["outcomes"] = outcomes(d["hyperbolicity"]["outcomes"])
        rep = ProofReport.from_dict(d)
        assert rep.covering_passed and rep.hyperbolicity.passed  # each outcome passed
        assert not rep.verdict

    def test_covering_pairs_in_any_order_pass(self):
        d = _toy_report(cone=True).to_dict()
        d["covering"].reverse()
        d["hyperbolicity"]["outcomes"].reverse()
        assert ProofReport.from_dict(d).verdict

    @pytest.mark.parametrize("edit", [
        lambda d: d["hyperbolicity"].update(grid=[1000, 1000, 1000]),
        lambda d: d["hyperbolicity"]["outcomes"][2].update(positive_definite=1),
        lambda d: d["covering"][1].update(body_grid=[1000, 1000, 1000]),
        lambda d: d["covering"][1].update(face_grid=[1000, 1000]),
        lambda d: d["covering"][1]["condition_I"].update(checked=1),
        lambda d: d["covering"][1]["condition_II"]["faces"][3].update(checked=1),
        lambda d: d["covering"][1]["condition_II"]["faces"][3].pop("checked"),
        # the cells by name must add up to the cells checked
        lambda d: d["covering"][1]["condition_I"].update(outside_unstable=0,
                                                         inside_stable=0),
        # each grid needs one count per axis, although these counts cover it
        *(pytest.param(_regrid(kind, grid), id=f"{kind}-{len(grid)}-axes")
          for kind, grid in (("body", []), ("body", [27]), ("body", [3, 3, 3, 1]),
                             ("face", []), ("face", [4]), ("face", [2, 2, 1]),
                             ("cone", []), ("cone", [8]), ("cone", [2, 2, 2, 1, 1]))),
    ])
    def test_counts_must_cover_the_claimed_grid(self, edit):
        d = _toy_report(cone=True).to_dict()
        edit(d)
        rep = ProofReport.from_dict(d)
        certs = [*rep.covering, rep.hyperbolicity]
        assert [c.passed for c in certs].count(False) == 1
        assert not rep.verdict

    def test_shipped_report_on_axisless_grids_proves_nothing(self, symbolic_report,
                                                            tmp_path, capsys):
        d = json.loads(json.dumps(symbolic_report))
        for c in d["covering"]:
            c.update(body_grid=[], face_grid=[])
            c["condition_I"].update(checked=1, outside_unstable=1, inside_stable=0)
            for f in c["condition_II"]["faces"]:
                f["checked"] = 1
        assert not ProofReport.from_dict(d).covering_passed
        path = tmp_path / "report.json"
        path.write_text(json.dumps(d))
        assert main(["periodic-orbits", "ab", "--report", str(path)]) == 1
        assert "refusing" in capsys.readouterr().err

    def test_malformed_report(self):
        with pytest.raises(ReportError):
            ProofReport.from_dict({"nonsense": 1})
        # a report written before failures were counted never loads as passing
        for check in ("condition_I", "condition_II"):
            d = _toy_report().to_dict()
            del d["covering"][0][check]["failed"]
            with pytest.raises(ReportError):
                ProofReport.from_dict(d)

    @pytest.mark.parametrize("faces", [
        lambda f: f[:1],  # one of the four exit faces
        lambda f: f[:3] + f[:1],  # one face twice, one missing
        lambda f: f + f[:1],  # one face twice
    ])
    def test_condition_II_needs_each_exit_face_once(self, faces, symbolic_report,
                                                     tmp_path, capsys):
        d = json.loads(json.dumps(symbolic_report))
        assert ProofReport.from_dict(d).covering_passed
        cii = d["covering"][0]["condition_II"]
        cii["faces"] = faces(cii["faces"])
        rep = ProofReport.from_dict(d)
        assert not rep.covering[0].passed and not rep.covering_passed
        path = tmp_path / "report.json"
        path.write_text(json.dumps(d))
        assert main(["periodic-orbits", "ab", "--report", str(path)]) == 1
        assert "refusing" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", [
        # A cut to 1x1 and condition II to the two axis-0 faces, which a 1x1 A
        # asks for: the certificate passes, but the source h-set has u = 2
        lambda c: c.update(A=[[c["A"][0][0]]], condition_II={
            **c["condition_II"],
            "faces": [f for f in c["condition_II"]["faces"] if f["axis"] == 0]}),
        lambda c: c.update(A=[c["A"][0], c["A"][1][:1]]),  # ragged
    ])
    def test_A_must_match_the_source_exit_dimension(self, cut, symbolic_report,
                                                     tmp_path, capsys):
        d = json.loads(json.dumps(symbolic_report))
        for c in d["covering"]:
            cut(c)
        rep = ProofReport.from_dict(d)
        assert all(c.passed for c in rep.covering) and not rep.covering_passed
        path = tmp_path / "report.json"
        path.write_text(json.dumps(d))
        assert main(["periodic-orbits", "ab", "--report", str(path)]) == 1
        assert "refusing" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda h: h["a"].update(center=["x", "1", "1"]), id="center-x"),
        pytest.param(lambda h: h["a"].update(basis=[
            ["1", "0", "0"], ["1", "0", "0"], ["0", "0", "1"]]), id="singular-basis"),
        pytest.param(lambda h: h.update(c={
            "center": ["0", "0"], "basis": [["1", "0"], ["0", "1"]], "u": 1, "s": 1}),
            id="two-dimensional"),
        pytest.param(lambda h: h.pop("b"), id="missing-b"),
        pytest.param(lambda h: h.update(ab=h["a"]), id="two-letter-name"),
        pytest.param(lambda h: h["b"].update(u=1, s=2), id="mixed-u-s"),
        pytest.param(lambda h: h.update(c=h["a"]), id="copy-of-a"),
        pytest.param(lambda h: h.update(c={**h["a"], "center": ["0.81", "1.255", "0.975"]}),
                     id="overlapping-c"),
    ])
    def test_echo_must_define_the_hsets(self, edit, symbolic_report):
        # the echo names the sets the proof ran on, so one that is not a valid
        # family does not load, and no consequence is stated from it
        d = json.loads(json.dumps(symbolic_report))
        edit(d["hsets"])
        with pytest.raises(ReportError, match="malformed proof report"):
            periodic_orbit_consequence(ProofReport.from_dict(d), "ab")

    def test_null_or_missing_cone_check_loads_as_absent(self):
        d = _toy_report().to_dict()
        assert d["hyperbolicity"] is None
        assert ProofReport.from_dict(d).hyperbolicity is None
        del d["hyperbolicity"]
        assert ProofReport.from_dict(d).hyperbolicity is None

    @pytest.mark.parametrize("section, value", [
        ("hyperbolicity", {}), ("hyperbolicity", []), ("hyperbolicity", 0),
        ("hyperbolicity", False), ("hyperbolicity", ""), ("covering", {}),
        ("workers", "two"), ("workers", -3), ("workers", True),
        ("total_runtime", "soon"), ("artifact_version", 7), ("hsets", []),
        # every float field is a duration: finite and >= 0
        ("total_runtime", math.nan), ("total_runtime", -5.0),
        ("total_runtime", math.inf), ("total_runtime", -math.inf),
        ("hyperbolicity", {"grid": [2, 2, 2], "outcomes": [], "wall_time": math.inf}),
        ("hyperbolicity", {"grid": [2, 2, 2], "outcomes": [], "wall_time": -5.0}),
        ("covering", lambda d: [{**c, "wall_time": -5.0} for c in d["covering"]]),
        # grid counts are integers, and each face count an object
        pytest.param("covering", lambda d: [{**c, "body_grid": ["x"]} for c in d["covering"]],
                     id="body-grid-item"),
        pytest.param("covering", lambda d: [{**c, "face_grid": [2.5, 2]} for c in d["covering"]],
                     id="face-grid-item"),
        pytest.param("hyperbolicity", {"grid": [2, True, 2], "outcomes": [], "wall_time": 0.0},
                     id="cone-grid-item"),
        pytest.param("covering", lambda d: [
            {**c, "condition_II": {**c["condition_II"], "faces": [1]}} for c in d["covering"]],
            id="face-count-item"),
        # every int field is a count or a grid size, never negative
        pytest.param("covering", lambda d: [
            {**c, "condition_I": {**c["condition_I"], "failed": -5}} for c in d["covering"]],
            id="negative-failed"),
        pytest.param("covering", lambda d: [{**c, "body_grid": [-3, -3, 3]} for c in d["covering"]],
            id="negative-grid"),
        pytest.param("hyperbolicity", lambda d: {
            "grid": [2, 2, 2], "wall_time": 0.0, "outcomes": [
                {"label": "aa", "skipped_disjoint": -5, "positive_definite": 13,
                 "failed": 0, "failures": []}]},
            id="negative-skipped"),
    ])
    def test_malformed_section_is_not_absent(self, section, value, tmp_path, capsys):
        d = _toy_report().to_dict()
        d[section] = value(d) if callable(value) else value
        with pytest.raises(ReportError):
            ProofReport.from_dict(d)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(d))
        rc = main(["periodic-orbits", "ab", "--report", str(path)])
        err = capsys.readouterr().err
        assert rc == 2 and "malformed proof report" in err


class TestConsequences:
    def test_statement_needs_pass(self):
        with pytest.raises(ReportError):
            symbolic_dynamics_statement(_toy_report(passed=False))

    @pytest.mark.parametrize("word", ["a", "ab", "abba"])
    def test_periodic_words(self, word):
        text = periodic_orbit_consequence(_toy_report(), word)
        assert f"F^{len(word)}(x) = x" in text

    def test_refuses_on_failed_report(self):
        with pytest.raises(ReportError):
            periodic_orbit_consequence(_toy_report(passed=False), "ab")

    def test_rejects_bad_symbols(self):
        with pytest.raises(ReportError):
            periodic_orbit_consequence(_toy_report(), "abc")

    def test_supports_are_those_of_the_echo(self):
        # the stated hulls are those of the sets the report certified: a
        # moved to (5, 5, 5) in the echo, b as shipped
        d = _toy_report().to_dict()
        d["hsets"]["a"]["center"] = ["5", "5", "5"]
        text = periodic_orbit_consequence(ProofReport.from_dict(d), "ab")
        assert "  |a| subset of [4.780000, 5.220000] x " in text
        assert "  |b| subset of [0.590000, 1.030000] x " in text


class TestCoveringGraph:
    """The h-set family is the covering graph: a report needs each ordered
    pair of the sets it echoes, in the family's order, and its statements
    read their symbols from the family."""

    def test_three_sets_give_nine_pairs(self, capsys):
        rep = _toy_report(cone=True, names="abc")
        assert [c.source + c.target for c in rep.covering] == NINE
        assert [o.label for o in rep.hyperbolicity.outcomes] == NINE
        assert rep.covering_passed and rep.verdict
        assert ProofReport.from_json(rep.to_json()).verdict
        text = symbolic_dynamics_statement(rep)
        assert text.startswith("All 9 covering relations among the h-sets a, b, c hold")
        assert text.endswith("full shift on 3 symbols on the invariant part of "
                             "a union b union c.")
        henoncert.cli._print_hyperbolicity(rep)
        assert "strongly hyperbolic on a union b union c, hence" in capsys.readouterr().out

    @pytest.mark.parametrize("section", ["covering", "cone"])
    def test_one_failing_pair_fails_the_report(self, section):
        d = _toy_report(cone=True, names="abc").to_dict()
        bad = _toy_report(passed=False, cone=True, names="abc").to_dict()
        if section == "covering":  # b => c
            d["covering"][5] = bad["covering"][5]
        else:
            d["hyperbolicity"]["outcomes"][5] = bad["hyperbolicity"]["outcomes"][5]
        rep = ProofReport.from_dict(d)
        assert rep.covering_passed == (section == "cone")
        assert not rep.verdict

    def test_every_echoed_set_needs_its_pairs(self):
        # the four pairs of a and b, each passed, with c echoed: c's five pairs
        # are missing, so the report proves nothing
        d = _toy_report(cone=True, names="abc").to_dict()
        d["covering"] = [c for c in d["covering"] if "c" not in c["source"] + c["target"]]
        d["hyperbolicity"]["outcomes"] = [
            o for o in d["hyperbolicity"]["outcomes"] if "c" not in o["label"]]
        rep = ProofReport.from_dict(d)
        assert all(c.passed for c in rep.covering) and rep.hyperbolicity.passed
        assert not rep.covering_passed and not rep.verdict
        with pytest.raises(ReportError):
            periodic_orbit_consequence(rep, "ab")

    def test_words_over_the_family(self):
        rep = _toy_report(names="abc")
        text = periodic_orbit_consequence(rep, "abc")
        assert "  c => a  (step 2)" in text and "F^3(x) = x" in text
        assert "  |c| subset of [-4.000000, -2.000000] x " in text
        with pytest.raises(WordError, match=re.escape("{a, b, c}, got 'abd'")):
            periodic_orbit_consequence(rep, "abd")

    def test_third_set_from_file_gets_its_nine_pairs(self, tmp_path, capsys):
        # the shipped a and b plus a c disjoint from both, at the shipped
        # grids: nine certificates and nine cone outcomes.  a and b cover c,
        # but c covers nothing, so the report fails on c's three pairs.
        hpath, path = tmp_path / "hsets.json", tmp_path / "report.json"
        hpath.write_text(json.dumps({"a": HSET_A_DEFINITION, "b": HSET_B_DEFINITION,
                                     "c": HSET_C_DEFINITION}))
        rc = main(["verify-all", "--workers", "1", "--hsets", str(hpath),
                   "--report", str(path)])
        out = capsys.readouterr().out
        rep = ProofReport.load(path)
        assert list(rep.sets) == ["a", "b", "c"]
        assert [c.source + c.target for c in rep.covering] == NINE
        assert [o.label for o in rep.hyperbolicity.outcomes] == NINE
        assert [c.source + c.target for c in rep.covering if not c.passed] == [
            "ca", "cb", "cc"]
        assert rep.hyperbolicity.passed
        assert not rep.covering_passed and not rep.verdict
        assert rc == 1 and out.endswith("verdict: FAIL\n")
        assert out.count("covering ") == 9 and out.count("cone condition f_") == 9
        assert "full shift" not in out


class TestCLI:
    def test_attractor_sample_single_row(self, tmp_path, capsys):
        out = tmp_path / "orbit.csv"
        rc = main([
            "attractor-sample", "--seed", "0,0,0", "--transient", "0",
            "--count", "1", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# NON-RIGOROUS SAMPLE"
        assert lines[1] == "x,y,z"
        assert lines[2] == "1.76,0,0"

    def test_attractor_sample_empty(self, tmp_path):
        out = tmp_path / "orbit.csv"
        rc = main(["attractor-sample", "--count", "0", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines() == ["# NON-RIGOROUS SAMPLE", "x,y,z"]

    @pytest.mark.parametrize("flag", ["--count", "--transient"])
    def test_attractor_negative_count_exits_2(self, flag, tmp_path, capsys):
        out = tmp_path / "orbit.csv"
        with pytest.raises(SystemExit) as e:
            main(["attractor-sample", flag, "-3", "--out", str(out)])
        assert e.value.code == 2
        assert not out.exists()

    # a non-finite seed is bad input, not a diverged orbit (exit 1)
    @pytest.mark.parametrize("seed", ["1,2", "1,2,3,4", "nan,0,0", "0,inf,0",
                                      "0,0,-inf", "1e999,0,0"])
    def test_attractor_seed_needs_three_numbers(self, seed, tmp_path, capsys):
        with pytest.raises(SystemExit) as e:
            main(["attractor-sample", "--seed", seed, "--count", "1",
                  "--out", str(tmp_path / "orbit.csv")])
        assert e.value.code == 2

    def test_attractor_sample_divergence(self, tmp_path, capsys):
        out = tmp_path / "orbit.csv"
        for seed in ("100,100,100", "1e308,0,0"):  # finite seeds
            rc = main([
                "attractor-sample", "--seed", seed, "--transient", "0",
                "--count", "30", "--out", str(out),
            ])
            assert rc == 1

    def test_periodic_orbits_without_report(self, tmp_path, capsys):
        # bad input like any unreadable report, not a refused consequence
        rc = main([
            "periodic-orbits", "ab", "--report", str(tmp_path / "missing.json"),
        ])
        assert rc == 2
        assert "run verify-symbolic or verify-all first" in capsys.readouterr().err

    def test_periodic_orbits_with_toy_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        _toy_report().save(path)
        rc = main(["periodic-orbits", "abba", "--report", str(path)])
        assert rc == 0
        assert "F^4(x) = x" in capsys.readouterr().out

    @pytest.mark.parametrize("word", ["abc", "", "AB"])
    def test_periodic_orbits_bad_word_exits_2(self, word, tmp_path, capsys):
        # a word over symbols the report's h-sets do not name is bad input,
        # not a refused consequence (exit 1); it is checked once the report
        # loads, which names the symbols
        path = tmp_path / "report.json"
        _toy_report().save(path)
        rc = main(["periodic-orbits", word, "--report", str(path)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert "word" in err and "{a, b}" in err

    def test_periodic_orbits_refuses_failed_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        _toy_report(passed=False).save(path)
        rc = main(["periodic-orbits", "ab", "--report", str(path)])
        assert rc == 1
        # reports that claim more than they contain: `passed` is derived
        for doctor in _overclaims:
            d = _toy_report().to_dict()
            doctor(d["covering"][1])
            assert d["covering"][1]["passed"] and d["covering_passed"]
            path.write_text(json.dumps(d))
            assert not ProofReport.load(path).covering_passed
            assert main(["periodic-orbits", "ab", "--report", str(path)]) == 1

    def test_closed_stdout_exits_1_quietly(self, tmp_path):
        path = tmp_path / "report.json"
        _toy_report().save(path)
        src = str(Path(henoncert.__file__).resolve().parents[1])
        r, w = os.pipe()
        os.close(r)  # no reader, as after `| head` exits: every write fails
        try:
            run = subprocess.run(
                [sys.executable, "-m", "henoncert.cli", "periodic-orbits",
                 "abababababab", "--report", str(path)],
                cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                stdout=w, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(w)
        assert run.returncode == 1
        assert "Traceback" not in run.stderr, run.stderr

    def test_witness_lists_are_capped(self, tmp_path):
        grids = dict(body_grid=(4, 4, 4), face_grid=(2, 2), hyp_grid=(4, 4, 4))
        full = run_all(**grids, max_failures_reported=10**6).to_dict()
        path = tmp_path / "report.json"
        rc = main([
            "verify-all", "--body-grid", "4,4,4", "--face-grid", "2,2",
            "--hyp-grid", "4,4,4", "--workers", "1", "--max-failures", "3",
            "--report", str(path),
        ])
        assert rc == 1
        capped = json.loads(path.read_text())
        checks = [
            (c[k], f[k])
            for c, f in zip(capped["covering"], full["covering"])
            for k in ("condition_I", "condition_II")
        ] + list(zip(capped["hyperbolicity"]["outcomes"],
                     full["hyperbolicity"]["outcomes"]))
        assert any(len(f["failures"]) > 3 for _, f in checks)
        for c, f in checks:
            assert c["failures"] == f["failures"][:3]
            assert c["failed"] == len(f["failures"])

    def test_printed_counts_separate_failing_from_listed(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        rc = main([
            "verify-all", "--body-grid", "7,5,3", "--face-grid", "3,5",
            "--hyp-grid", "7,4,9", "--workers", "1", "--max-failures", "3",
            "--report", str(path),
        ])
        assert rc == 1
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("covering ")]
        certs = json.loads(path.read_text())["covering"]
        assert len(lines) == len(certs) == 4
        counts = []
        for line, c in zip(lines, certs):
            ci, cii = c["condition_I"], c["condition_II"]
            failed = ci["failed"] + cii["failed"]
            listed = len(ci["failures"]) + len(cii["failures"])
            assert f"{failed} failing boxes, {listed} listed" in line
            counts.append((failed, listed))
        # a => a: more boxes fail than its two capped lists can hold
        assert counts[0][0] > counts[0][1] <= 6

    @pytest.mark.parametrize("flag", ["--max-failures", "--map-iterate", "--workers"])
    def test_non_positive_count_exits_2(self, flag, capsys):
        with pytest.raises(SystemExit) as e:
            main(["verify-hyperbolicity", flag, "0"])
        assert e.value.code == 2

    @pytest.mark.parametrize("case", [
        "unreadable", "not-json", "missing-b", "singular-basis", "singular-b",
        "unknown-key",
        "mixed-dims", "u-negative", "u-zero", "u-float", "s-bool", "u-string",
        "inverse-overflow", "literal-overflow", "not-decimal", "center-string",
        "row-string", "number-entry", "ragged-basis", "two-dimensional",
        "orbit-overflow", "fraction", "two-letter-name", "copy-of-a", "overlapping-c",
    ])
    def test_bad_hsets_file_exits_2(self, case, tmp_path, capsys):
        a, b = make_paper_hsets()
        defs = {"a": a.to_definition(), "b": b.to_definition()}
        if case == "missing-b":
            del defs["b"]
        elif case == "singular-basis":
            defs["a"]["basis"] = [["1", "0", "0"], ["1", "0", "0"], ["0", "0", "1"]]
        elif case == "singular-b":  # the error names the set
            defs["b"]["basis"] = [["1", "0", "0"], ["0", "0", "1"], ["0", "0", "1"]]
        elif case == "unknown-key":
            defs["a"]["unstable"] = 1
        elif case == "mixed-dims":
            defs["b"]["u"], defs["b"]["s"] = 1, 2
        elif case in ("u-negative", "u-zero"):  # u + s = 3, but no exit direction
            for d in defs.values():
                d["u"], d["s"] = (-1, 4) if case == "u-negative" else (0, 3)
        elif case in ("u-float", "s-bool", "u-string"):  # int() would read u=2, s=1
            defs["a"].update({"u-float": {"u": 2.7}, "s-bool": {"s": True},
                              "u-string": {"u": "2"}}[case])
        elif case == "inverse-overflow":
            defs["a"]["basis"] = [["1e-310", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        elif case == "literal-overflow":
            defs["a"]["center"][0] = "1e400"
        elif case == "not-decimal":
            defs["b"]["basis"][2][1] = "x"
        elif case == "center-string":  # once read as the center (1, 2, 3)
            defs["a"]["center"] = "123"
        elif case == "row-string":  # once read as the row (1, 0, 0)
            defs["a"]["basis"][1] = "100"
        elif case == "number-entry":  # a JSON number, not a decimal string
            defs["a"]["center"][1] = 1.0225
        elif case == "ragged-basis":
            defs["a"]["basis"][2] = defs["a"]["basis"][2][:2]
        elif case == "two-dimensional":  # a valid h-set, but the map is 3-D
            defs = {n: {"center": ["0", "0"], "basis": [["1", "0"], ["0", "1"]],
                        "u": 1, "s": 1} for n in "ab"}
        elif case == "orbit-overflow":  # in range, but y^2 overflows
            defs["a"]["center"] = ["0.81", "1e200", "0.975"]
        elif case == "fraction":  # Fraction would read it as 1/3
            defs["a"]["center"][0] = "1/3"
        elif case == "two-letter-name":  # the word "ab" could name one set or two
            defs["ab"] = defs["a"]
        elif case == "copy-of-a":  # the same set twice is no third symbol
            defs["c"] = defs["a"]
        elif case == "overlapping-c":  # y in [1.0725, 1.4375] meets a and b
            defs["c"] = {**defs["a"], "center": ["0.81", "1.255", "0.975"]}
        hpath = tmp_path / "hsets.json"
        if case != "unreadable":
            hpath.write_text("{a: 1" if case == "not-json" else json.dumps(defs))
        rc = main([
            "verify-hyperbolicity", "--hyp-grid", "1,1,1", "--workers", "1",
            "--hsets", str(hpath), "--report", str(tmp_path / "report.json"),
        ])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()
        if case == "literal-overflow":  # the error names the set and the field
            assert "h-set 'a': center[0]: literal out of double range: '1e400'" in err
        if case == "not-decimal":
            assert "h-set 'b': basis[2][1]: not a decimal literal: 'x'" in err
        if case == "fraction":
            assert "h-set 'a': center[0]: not a decimal literal: '1/3'" in err
        family = {"missing-b": "two or more sets", "mixed-dims": "differ in (u, s)",
                  "two-letter-name": "named by one letter",
                  "copy-of-a": "supports must be disjoint, overlapping: ['ac']",
                  "overlapping-c": "overlapping: ['ac', 'bc']"}
        assert family.get(case, "") in err
        if case == "inverse-overflow":
            assert "h-set 'a': basis inverse: value out of double range" in err
        if case == "singular-b":
            assert "h-set 'b': basis: the matrix is singular" in err
        if case == "orbit-overflow":
            assert str(hpath) in err

    @pytest.mark.parametrize("argv", [
        ["verify-hyperbolicity", "--workers", "1", "--hyp-grid", "1,1,1", "--report"],
        ["attractor-sample", "--count", "3", "--out"],
    ], ids=["report", "sample"])
    def test_unwritable_output_exits_2(self, argv, tmp_path, capsys):
        path = tmp_path / "missing" / "out"
        rc = main(argv + [str(path)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err and not path.parent.exists()

    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_unwritable_report_is_refused_before_the_proof(self, where, tmp_path,
                                                           capsys):
        path = tmp_path / "missing" / "r.json" if where == "missing-dir" else tmp_path
        rc = main(["verify-hyperbolicity", "--workers", "1", "--report", str(path)])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err

    def test_overflowing_iterate_exits_2(self, tmp_path, capsys):
        # the cone check's image of the shipped sets overflows by the 30-th
        # iterate
        path = tmp_path / "report.json"
        rc = main(["verify-hyperbolicity", "--hyp-grid", "1,1,1", "--map-iterate",
                   "30", "--workers", "1", "--report", str(path)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert "shipped h-sets" in err and not path.exists()

    @pytest.mark.parametrize("case", [
        "not-json", "malformed", "pre-change", "missing-hset", "no-iterate",
        "iterate-not-int", "map-not-decimal", "map-a-number", "echo-not-decimal",
        "map-fraction", "echo-singular-b",
    ])
    def test_bad_report_exits_2(self, case, tmp_path, capsys):
        d = _toy_report().to_dict()
        if case == "map-not-decimal":
            d["map"]["a"] = "x"
        elif case == "map-a-number":  # its binary value is not 1.76
            d["map"]["a"] = 1.76
        elif case == "map-fraction":  # Fraction would read it as 1.75
            d["map"]["a"] = "7/4"
        elif case == "echo-not-decimal":
            d["hsets"]["a"]["center"] = ["x", "1", "1"]
        elif case == "echo-singular-b":
            d["hsets"]["b"]["basis"] = [["1", "0", "0"], ["0", "0", "1"], ["0", "0", "1"]]
        elif case == "missing-hset":
            del d["hsets"]["b"]
        elif case == "no-iterate":
            del d["map"]["iterate"]
        elif case == "iterate-not-int":
            d["map"]["iterate"] = "two"
        else:
            for c in d["covering"]:  # as written before failures were counted
                del c["condition_I"]["failed"], c["condition_II"]["failed"]
        path = tmp_path / "report.json"
        path.write_text({"not-json": "{", "malformed": '{"covering": 1}'}
                        .get(case, json.dumps(d)))
        rc = main(["periodic-orbits", "ab", "--report", str(path)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
        if case == "map-not-decimal":  # the error names the field
            assert "malformed proof report: map.a: not a decimal literal: 'x'" in err
        if case == "map-a-number":
            assert "map.a: expected a decimal string, got 1.76" in err
        if case == "map-fraction":
            assert "malformed proof report: map.a: not a decimal literal: '7/4'" in err
        if case == "echo-not-decimal":
            assert "report: h-set 'a': center[0]: not a decimal literal: 'x'" in err
        if case == "echo-singular-b":
            assert "report: h-set 'b': basis: the matrix is singular" in err

    def test_verify_all_small_grids_fails_but_reports(self, tmp_path, capsys):
        # grids this coarse cannot certify anything; exit code must be nonzero
        path = tmp_path / "report.json"
        rc = main([
            "verify-all", "--body-grid", "2,2,2", "--face-grid", "2,2",
            "--hyp-grid", "1,1,1", "--workers", "1", "--report", str(path),
        ])
        assert rc == 1
        rep = json.loads(path.read_text())
        assert rep["verdict"] is False
        assert len(rep["covering"]) == 4

    def test_verify_hyperbolicity_cli_small(self, tmp_path):
        path = tmp_path / "report.json"
        rc = main([
            "verify-hyperbolicity", "--hyp-grid", "6,6,6", "--workers", "1",
            "--report", str(path),
        ])
        rep = json.loads(path.read_text())
        assert rep["hyperbolicity"]["grid"] == [6, 6, 6]
        assert rep["covering"] == []
        assert rc in (0, 1)

    def test_report_echoes_the_map_that_ran(self, tmp_path):
        path = tmp_path / "report.json"
        main([
            "verify-symbolic", "--map-iterate", "2", "--body-grid", "2,2,2",
            "--face-grid", "2,2", "--workers", "1", "--report", str(path),
        ])
        rep = json.loads(path.read_text())
        assert rep["map"] == {"a": "1.76", "b": "0.1", "iterate": 2}
        assert rep["hyperbolicity"] is None

    def test_hsets_flag(self, tmp_path):
        from henoncert.hsets import save_hsets

        a, b = make_paper_hsets()
        hpath = tmp_path / "hsets.json"
        save_hsets(hpath, {"a": a, "b": b})
        path = tmp_path / "report.json"
        rc = main([
            "verify-symbolic", "--body-grid", "2,2,2", "--face-grid", "2,2",
            "--workers", "1", "--hsets", str(hpath), "--report", str(path),
        ])
        rep = json.loads(path.read_text())
        assert rep["hsets"]["a"]["center"] == ["0.81", "1.0225", "0.975"]
        assert rc in (0, 1)


# Runs in a child process with the benchmark's span tracer installed; prints
# the span names of benchmarks/spans.py's TRACED that recorded no call, and
# the names of the spans called directly from the `cli` span.
_TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
spans.install_henoncert_tracing(tracer)
from henoncert import cli
cli.main(sys.argv[2:])
names = [tracer.names[i] for i in tracer.name_id]
uncalled = {span for _, _, span, _ in spans.TRACED} - set(names)
under_cli = [n for n, p in zip(names, tracer.parent) if p >= 0 and names[p] == "cli"]
print(json.dumps([sorted(uncalled), sorted(under_cli)]))
"""


class TestTracerContract:
    def test_every_traced_span_is_called(self, tmp_path):
        # a subprocess, so no other test sees the wrapped functions
        spans = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
        src = str(Path(henoncert.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", _TRACED_RUN, str(spans), "verify-all",
             "--body-grid", "2,2,2", "--face-grid", "2,2", "--hyp-grid", "2,2,2",
             "--workers", "1", "--report", str(tmp_path / "report.json")],
            cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
        )
        uncalled, under_cli = json.loads(run.stdout.splitlines()[-1])
        assert uncalled == []
        # one traced driver call: the CLI looks the driver up when it runs
        assert under_cli.count("drivers") == 1


class TestOneDriver:
    @pytest.mark.parametrize("command, grids", [
        ("verify-symbolic", ["--body-grid", "1,1,1", "--face-grid", "1,1"]),
        ("verify-hyperbolicity", ["--hyp-grid", "1,1,1"]),
        ("verify-all", ["--body-grid", "1,1,1", "--face-grid", "1,1",
                        "--hyp-grid", "1,1,1"]),
    ])
    def test_shipped_run_builds_each_hset_once(self, command, grids, tmp_path,
                                                monkeypatch):
        built = []
        init = HSet.__init__

        def counting_init(self, name, definition):
            built.append(name)
            init(self, name, definition)

        monkeypatch.setattr(HSet, "__init__", counting_init)
        main([command, *grids, "--workers", "1", "--report", str(tmp_path / "r.json")])
        assert built == ["a", "b"]

    def test_shipped_echo_is_a_copy(self):
        before = copy.deepcopy((HSET_A_DEFINITION, HSET_B_DEFINITION))
        report = run_all(None, None, (1, 1, 1))
        assert report.hsets == {"a": HSET_A_DEFINITION, "b": HSET_B_DEFINITION}
        report.hsets["a"]["center"][0] = "9"
        report.hsets["b"]["u"] = 3
        del report.hsets["a"]["basis"][2]
        assert (HSET_A_DEFINITION, HSET_B_DEFINITION) == before

    def test_saved_report_rebuilds_the_map_that_ran(self, tmp_path):
        grid = (3, 3, 3)
        ran = run_all(None, None, grid, iterate=2)
        path = tmp_path / "report.json"
        ran.save(path)
        loaded = ProofReport.load(path)
        f = loaded.f
        assert (f.base.a_decimal, f.base.b_decimal, f.k) == ("1.76", "0.1", 2)
        assert (f.base.a, f.base.b) == (HenonMap().a, HenonMap().b)
        assert repr(f) == repr(ran.f)
        again = check_map_pair(paper_map_pairs(f, loaded.sets)["ab"], grid)
        saved, = (o for o in loaded.hyperbolicity.outcomes if o.label == "ab")
        assert again.to_dict() == saved.to_dict()

    def test_wrappers_return_parts_of_the_report(self):
        grid = (3, 3, 3)
        sym = run_all(body_grid=grid, face_grid=(2, 2), hyp_grid=None)
        cone = run_all(None, None, grid)
        assert sym.hyperbolicity is None and cone.covering == []
        parts = {
            "covering": [c.to_dict() for c in
                         run_symbolic(body_grid=grid, face_grid=(2, 2))],
            "hyperbolicity": run_hyperbolicity(grid=grid).to_dict(),
        }
        whole = {"covering": [c.to_dict() for c in sym.covering],
                 "hyperbolicity": cone.hyperbolicity.to_dict()}
        assert _strip_timing(parts) == _strip_timing(whole)


class TestDriverParallelism:
    def test_workers_do_not_change_results(self):
        r1 = run_all(body_grid=(3, 3, 3), face_grid=(2, 2), hyp_grid=(3, 3, 3),
                     workers=1)
        r2 = run_all(body_grid=(3, 3, 3), face_grid=(2, 2), hyp_grid=(3, 3, 3),
                     workers=2)
        d1, d2 = r1.to_dict(), r2.to_dict()
        _strip_timing(d1), _strip_timing(d2)
        assert d1 == d2


def _failed_without_witness(c):
    c["condition_I"]["failed"] = 4


def _witness_without_failure(c):
    c["condition_II"]["failures"] = [{"face_axis": 0, "face_sign": 1.0, "index": 0}]


_overclaims = (_failed_without_witness, _witness_without_failure)


def _strip_timing(d):
    d.pop("total_runtime", None)
    for c in d.get("covering", []):
        c.pop("wall_time", None)
    if d.get("hyperbolicity"):
        d["hyperbolicity"].pop("wall_time", None)
    d.pop("workers", None)
    return d
