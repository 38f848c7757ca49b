"""Time-to-verdict benchmark for henoncert.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it needs nothing but the standard
library and `src/`.  Each workload is a shipped `henoncert` command run in
one fresh child process (worker.py) and every run's report is checked (see
checks.py).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics: the set-up time of fresh
processes, then the command in a closed loop (one caller, next run when the
previous one ends) for the rest of S seconds, always at least one run.  Run
times are rescaled to a reference machine speed with the calibration kernel
(calibrate.py), sampled by a thread while the runs go on.
--trace 1 measures the per-layer metrics: seeded micro-timings, one untraced
run with one worker, one with the default workers, and one traced run whose
spans (see spans.py) give calls and self time per layer; the difference of
the traced and untraced runs is the tracing overhead.  Details and the
expected effects are in README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROCESSES = 15


def child_env() -> dict:
    paths = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_loop(name: str, seconds: float, tag: str, *opts) -> dict:
    """Runs of worker.py `loop` in one child; adds the child's peak RSS in MB."""
    out, log = OUT / f"{name}.{tag}.json", OUT / f"{name}.{tag}.log"
    out.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "worker.py"), "loop", name, repr(seconds),
            str(out)] + list(opts)
    launcher = [sys.executable, "-S", str(HERE / "launch.py"), str(log)]
    fields = subprocess.run(launcher + argv, cwd=ROOT, env=child_env(), check=True,
                            capture_output=True, text=True).stdout.split()
    rss, code = float(fields[2]), int(fields[3])
    if code != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise RuntimeError(f"{name}: worker exited with {code}:\n{tail}")
    with open(out) as fh:
        result = json.load(fh)
    for r in result["runs"]:
        for p in r["problems"]:
            print(f"CHECK FAILED [{name}]: {p}", file=sys.stderr)
    result["peak_rss_mb"] = rss
    return result


def passed(runs) -> list:
    """Runs whose report checked out; failures are never timed as successes."""
    return [r for r in runs if not r["problems"]] or runs


def measure_setup() -> float:
    """Median over fresh processes of import + h-sets + default map; first run warms caches."""
    argv = [sys.executable, str(HERE / "worker.py"), "setup"]
    times = []
    for _ in range(SETUP_PROCESSES + 1):
        out = subprocess.run(argv, cwd=ROOT, env=child_env(), check=True,
                             capture_output=True, text=True).stdout
        times.append(float(out))
    return statistics.median(times[1:])


def end_to_end(name: str, seconds: float):
    t0 = time.monotonic()
    setup_s = measure_setup()
    loop = run_loop(name, max(0.0, seconds - (time.monotonic() - t0)), "loop")
    runs = loop["runs"]
    ok = passed(runs)
    metrics = {
        "cpu_ref_s": (statistics.median(r["cpu_ref_s"] for r in ok), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (loop["peak_rss_mb"], "MB"),
        "checks_certified": (min(r["certified"] for r in runs), "count"),
        "checks_attempted": (max(r["attempted"] for r in runs), "count"),
    }
    extra = {k: statistics.median(r[k] for r in ok)
             for k in ("wall_s", "cpu_s", "speed")}
    return runs, metrics, extra


def _ratio(num, den) -> float:
    """num / den; 0 when the layer did no work on this workload (den == 0)."""
    return num / den if den else 0.0


def per_layer(workload: str, seed: int):
    from micro import micro_timings
    from spans import load_spans, summarize

    metrics = {k: (us, "us")
               for k, us in micro_timings(seed, WORKLOADS[workload].grids).items()}
    single = run_loop(workload, 0.0, "single")
    pooled = run_loop(workload, 0.0, "pooled", "--pooled")
    spans_path = OUT / f"{workload}.spans"
    traced = run_loop(workload, 0.0, "traced", "--spans", str(spans_path))
    base, pooled_run, traced_run = (r["runs"][0] for r in (single, pooled, traced))

    header, name_id, start, end, parent = load_spans(spans_path)
    layer = summarize(name_id, start, end, parent, header["names"])
    count = header["counters"].get

    def calls(name):
        return layer.get(name, (0, 0.0))[0]

    def self_s(name):
        return layer.get(name, (0, 0.0))[1]

    boxes = (count("covering.cond1.boxes", 0) + count("covering.cond2.boxes", 0)
             + count("hyperbolicity.boxes", 0))
    hyp_boxes = count("hyperbolicity.boxes", 0)
    skipped = count("hyperbolicity.skipped", 0)
    for name in ("henon.eval", "henon.jacobian", "hsets.world_from_local",
                 "hsets.local_from_world", "linalg.matmul"):
        metrics[f"{name}.calls"] = (calls(name), "count")
    for name in ("henon.eval", "henon.jacobian", "hsets.world_from_local",
                 "hsets.local_from_world", "linalg.matmul", "linalg.is_pd",
                 "covering.cond1", "covering.cond2", "hyperbolicity.map_pair",
                 "hyperbolicity.cone_matrix", "report.save", "drivers", "cli"):
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    metrics.update({
        "henon.orbit.calls": (calls("henon.orbit"), "count"),
        "henon.orbit.self_s": (self_s("henon.orbit"), "s"),
        "henon.orbits_per_box": (_ratio(calls("henon.orbit"), boxes), "ratio"),
        "covering.verify.calls": (calls("covering.verify"), "count"),
        "covering.certified_ratio": (_ratio(count("covering.certified", 0),
                                            calls("covering.verify")), "ratio"),
        "covering.cond1.boxes": (count("covering.cond1.boxes", 0), "count"),
        "covering.cond1.accept_ratio": (_ratio(count("covering.cond1.accepted", 0),
                                               count("covering.cond1.boxes", 0)), "ratio"),
        "covering.cond2.boxes": (count("covering.cond2.boxes", 0), "count"),
        "hyperbolicity.boxes": (hyp_boxes, "count"),
        "hyperbolicity.skip_ratio": (_ratio(skipped, hyp_boxes), "ratio"),
        "hyperbolicity.pd_ratio": (_ratio(count("hyperbolicity.positive_definite", 0),
                                          hyp_boxes - skipped), "ratio"),
        "report.bytes": (count("report.bytes", 0), "B"),
        "report.witnesses": (count("report.witnesses", 0), "count"),
        "drivers.parallel_efficiency": (
            _ratio(base["wall_s"], pooled_run["workers"] * pooled_run["wall_s"])
            if pooled_run["workers"] else 0.0, "ratio"),
        "trace.spans": (header["spans"], "count"),
        "trace.overhead_s": (traced_run["wall_s"] - base["wall_s"], "s"),
        "run.wall_raw_s": (base["wall_s"], "s"),
        "run.cpu_raw_s": (base["cpu_s"], "s"),
        "calibration.speed": (base["speed"], "ratio"),
    })
    runs = single["runs"] + pooled["runs"] + traced["runs"]
    return runs, metrics, {}


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "henoncert").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "henoncert" / "__init__.py").is_file():
        print(f"error: no henoncert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    if args.trace:
        runs, metrics, extra = per_layer(args.workload, args.seed)
    else:
        runs, metrics, extra = end_to_end(args.workload, args.seconds)
    failed = sum(bool(r["problems"]) for r in runs)
    env = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "workers": max((r["workers"] or 0) for r in runs),
        "workload": args.workload,
        "trace": args.trace,
        "runs": len(runs),
        **extra,
    }
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:36s} {value:>16{'d' if isinstance(value, int) else '.6g'}} {unit}")
    print("env " + json.dumps(env))
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump({"env": env, "runs": runs, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
