import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import henoncert
from henoncert import (
    IteratedMap,
    LinearMap,
    ProofReport,
    ReportError,
    make_paper_hsets,
    periodic_orbit_consequence,
    verify_covering,
)
from henoncert.cli import main
from henoncert.drivers import run_all, run_hyperbolicity, run_symbolic
from henoncert.hsets import make_hset
from henoncert.report import COVERING_CHAIN, symbolic_dynamics_statement


def _toy_report(passed=True):
    """Report whose covering graph is a/b labelled toy self-coverings."""
    scale = (3.0, 3.0, 0.25) if passed else (1.0, 1.0, 1.0)
    f = IteratedMap(LinearMap.scaling(*scale))
    certs = []
    for i, j in COVERING_CHAIN:
        n0 = make_hset(i, ["0", "0", "0"],
                       [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
        n1 = make_hset(j, ["0", "0", "0"],
                       [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
        certs.append(verify_covering(f.conjugated(n0, n1), (3, 3, 3), (2, 2)))
    a, b = make_paper_hsets()
    return ProofReport(
        map_params={"a": "1.76", "b": "0.1", "iterate": 4},
        hset_definitions={"a": a.to_definition(), "b": b.to_definition()},
        covering=certs,
    )


class TestProofReport:
    def test_json_roundtrip(self):
        rep = _toy_report()
        back = ProofReport.from_json(rep.to_json())
        assert back.to_dict() == rep.to_dict()

    def test_verdict_requires_both_certificates(self):
        rep = _toy_report()
        assert rep.covering_passed
        assert not rep.verdict  # no hyperbolicity certificate yet

    def test_malformed_report(self):
        with pytest.raises(ReportError):
            ProofReport.from_dict({"nonsense": 1})
        # a report written before failures were counted never loads as passing
        for check in ("condition_I", "condition_II"):
            d = _toy_report().to_dict()
            del d["covering"][0][check]["failed"]
            with pytest.raises(ReportError):
                ProofReport.from_dict(d)


class TestConsequences:
    def test_statement_needs_pass(self):
        with pytest.raises(ReportError):
            symbolic_dynamics_statement(_toy_report(passed=False))

    @pytest.mark.parametrize("word", ["a", "ab", "abba"])
    def test_periodic_words(self, word, paper_hsets):
        text = periodic_orbit_consequence(_toy_report(), word, paper_hsets)
        assert f"F^{len(word)}(x) = x" in text

    def test_refuses_on_failed_report(self, paper_hsets):
        with pytest.raises(ReportError):
            periodic_orbit_consequence(_toy_report(passed=False), "ab", paper_hsets)

    def test_rejects_bad_symbols(self, paper_hsets):
        with pytest.raises(ReportError):
            periodic_orbit_consequence(_toy_report(), "abc", paper_hsets)


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

    @pytest.mark.parametrize("seed", ["1,2", "1,2,3,4"])
    def test_attractor_seed_needs_three_numbers(self, seed, tmp_path, capsys):
        with pytest.raises(SystemExit) as e:
            main(["attractor-sample", "--seed", seed, "--count", "1",
                  "--out", str(tmp_path / "orbit.csv")])
        assert e.value.code == 2

    def test_attractor_sample_divergence(self, tmp_path, capsys):
        out = tmp_path / "orbit.csv"
        rc = main([
            "attractor-sample", "--seed", "100,100,100", "--transient", "0",
            "--count", "30", "--out", str(out),
        ])
        assert rc == 1

    def test_periodic_orbits_without_report(self, tmp_path, capsys):
        rc = main([
            "periodic-orbits", "ab", "--report", str(tmp_path / "missing.json"),
        ])
        assert rc == 1

    def test_periodic_orbits_with_toy_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        _toy_report().save(path)
        rc = main(["periodic-orbits", "abba", "--report", str(path)])
        assert rc == 0
        assert "F^4(x) = x" in capsys.readouterr().out

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
        "unreadable", "not-json", "missing-b", "singular-basis", "unknown-key",
        "mixed-dims", "u-negative", "u-zero", "u-float", "s-bool", "u-string",
        "inverse-overflow", "literal-overflow",
    ])
    def test_bad_hsets_file_exits_2(self, case, tmp_path, capsys):
        a, b = make_paper_hsets()
        defs = {"a": a.to_definition(), "b": b.to_definition()}
        if case == "missing-b":
            del defs["b"]
        elif case == "singular-basis":
            defs["a"]["basis"] = [["1", "0", "0"], ["1", "0", "0"], ["0", "0", "1"]]
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
        hpath = tmp_path / "hsets.json"
        if case != "unreadable":
            hpath.write_text("{a: 1" if case == "not-json" else json.dumps(defs))
        rc = main([
            "verify-hyperbolicity", "--hyp-grid", "1,1,1", "--workers", "1",
            "--hsets", str(hpath), "--report", str(tmp_path / "report.json"),
        ])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
        if case == "literal-overflow":
            assert "'1e400'" in err

    @pytest.mark.parametrize("case", [
        "not-json", "malformed", "pre-change", "missing-hset", "no-iterate",
        "iterate-not-int",
    ])
    def test_bad_report_exits_2(self, case, tmp_path, capsys):
        d = _toy_report().to_dict()
        if case == "missing-hset":
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
