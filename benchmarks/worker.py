"""Child-process entry points of the benchmark; `run.py` starts each one fresh.

    worker.py setup                   print seconds for import + h-sets + map
    worker.py loop NAME SECONDS OUT [--spans PATH] [--pooled]

`loop` runs workload NAME in this one process.  It warms up on a tiny grid,
then runs the workload's CLI command in a closed loop: one run, its check,
the next run, until SECONDS are used (at least one run).  Meanwhile a thread
samples the calibration kernel (calibrate.py).  The runs (wall time, CPU time
of this thread, speed factor), their checks and the kernel samples are
written to OUT as JSON.  With --spans it traces the
single timed run (spans.py) and writes the spans to PATH.  With --pooled the
command keeps the CLI's default worker count instead of `--workers 1`.

henoncert must be importable (PYTHONPATH=src).  It is imported only inside the
entry points, so that `setup` times a cold import.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple  # the `henoncert` command at its shipped defaults
    warm_up: tuple  # extra arguments for the untimed warm-up run
    check: str  # key of checks.CHECKS
    grids: tuple  # sub-box grids the micro-timings sample from


WORKLOADS = {
    w.name: w for w in (
        Workload("verify-symbolic", ("verify-symbolic",),
                 ("--body-grid", "3,3,3", "--face-grid", "2,2"), "symbolic",
                 ((20, 20, 20),)),
        Workload("verify-hyperbolicity", ("verify-hyperbolicity",),
                 ("--hyp-grid", "3,3,3"), "hyperbolicity", ((25, 25, 25),)),
    )
}


def setup() -> float:
    t0 = time.perf_counter()
    import henoncert
    from henoncert.drivers import default_map

    henoncert.make_paper_hsets()
    default_map()
    return time.perf_counter() - t0


def loop(w: Workload, seconds: float, out: Path, spans=None, pooled=False) -> None:
    t_start = time.perf_counter()
    import calibrate
    import checks
    from henoncert import cli

    report = out.with_suffix(".report.json")
    workers = [] if pooled else ["--workers", "1"]
    args = list(w.args) + workers + ["--report", str(report)]
    cli.main(list(w.args) + list(w.warm_up) + ["--workers", "1", "--report", str(report)])
    tracer = _tracer() if spans else None

    runs = []
    with calibrate.Sampler() as sampler:
        while True:
            report.unlink(missing_ok=True)  # never check a previous run's report
            k0 = len(sampler.samples)
            t0, c0 = time.perf_counter(), time.thread_time()
            code = cli.main(args)
            wall, cpu = time.perf_counter() - t0, time.thread_time() - c0
            speed = calibrate.speed_factor(sampler.samples[k0:])
            runs.append({"wall_s": wall, "cpu_s": cpu, "speed": speed,
                         "cpu_ref_s": cpu * speed, "exit": code,
                         **checks.check_output(w.check, code, report)})
            typical = statistics.median(r["wall_s"] for r in runs)
            if tracer or time.perf_counter() - t_start + typical > seconds:
                break
    if tracer:
        tracer.save(spans)
    with open(out, "w") as fh:
        json.dump({"runs": runs, "kernel_s": sampler.samples}, fh)


def _tracer():
    from spans import Tracer, install_henoncert_tracing

    tracer = Tracer()
    install_henoncert_tracing(tracer)
    return tracer


def main(argv) -> int:
    cmd = argv[0]
    if cmd == "setup":
        print(repr(setup()))
        return 0
    if cmd == "loop":
        name, seconds, out, opts = argv[1], float(argv[2]), Path(argv[3]), argv[4:]
        spans = opts[opts.index("--spans") + 1] if "--spans" in opts else None
        loop(WORKLOADS[name], seconds, out, spans, "--pooled" in opts)
        return 0
    raise SystemExit(f"unknown worker command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
