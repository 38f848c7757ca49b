"""Command-line driver: certification runs, consequences, figure data.

Subcommands:
  verify-symbolic        four covering relations (topological horseshoe)
  verify-hyperbolicity   cone condition over the four chart pairs
  verify-all             both, one report
  periodic-orbits WORD   logical consequence for a cyclic word over {a, b}
  attractor-sample       non-rigorous orbit CSV for plotting

Exit code is 0 exactly when the requested verdict is true, 1 when it is not,
and 2 for bad input: a malformed flag, h-set file or proof report.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__, drivers
from .henon import DivergenceError, eval_point_fast
from .hsets import hset_from_definition, load_hsets
from .report import (
    ProofReport,
    ReportError,
    periodic_orbit_consequence,
    symbolic_dynamics_statement,
)

DEFAULT_REPORT = "proof_report.json"
# What a malformed input file can raise while it is read and checked.
_INPUT_ERRORS = (OSError, ValueError, LookupError, TypeError, AttributeError,
                 ArithmeticError)


class _BadInput(Exception):
    """An input file that cannot be used; `main` exits 2."""


def _positive(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _grid(text: str, n: int):
    parts = text.split(",")
    if len(parts) != n:
        raise argparse.ArgumentTypeError(
            f"expected {n} comma-separated positive integers, got {text!r}"
        )
    return tuple(_positive(p) for p in parts)


def _add_common(p):
    p.add_argument("--map-iterate", type=_positive, default=4, metavar="N",
                   help="iterate of the base map to certify (default 4)")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                   help="parallel worker processes (default: all cores)")
    p.add_argument("--report", default=DEFAULT_REPORT, metavar="PATH",
                   help="where to write the JSON proof report")
    p.add_argument("--hsets", default=None, metavar="PATH",
                   help="JSON file with h-set definitions (decimal strings); "
                        "must define sets named 'a' and 'b'")
    p.add_argument("--max-failures", type=_positive, default=20,
                   help="failing boxes listed per check: the first N are kept "
                        "as witnesses, all are counted (default 20)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="henoncert",
        description="Rigorous certification of horseshoe chaos and uniform "
                    "hyperbolicity for the 3D generalized Henon map.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-symbolic",
                       help="certify the four covering relations")
    p.add_argument("--body-grid", type=lambda s: _grid(s, 3),
                   default=(20, 20, 20), metavar="K,K,K")
    p.add_argument("--face-grid", type=lambda s: _grid(s, 2),
                   default=(10, 10), metavar="M,M")
    _add_common(p)

    p = sub.add_parser("verify-hyperbolicity",
                       help="certify the cone condition on the chart cubes")
    p.add_argument("--hyp-grid", type=lambda s: _grid(s, 3),
                   default=(25, 25, 25), metavar="K,K,K")
    _add_common(p)

    p = sub.add_parser("verify-all", help="run both certifications")
    p.add_argument("--body-grid", type=lambda s: _grid(s, 3),
                   default=(20, 20, 20), metavar="K,K,K")
    p.add_argument("--face-grid", type=lambda s: _grid(s, 2),
                   default=(10, 10), metavar="M,M")
    p.add_argument("--hyp-grid", type=lambda s: _grid(s, 3),
                   default=(25, 25, 25), metavar="K,K,K")
    _add_common(p)

    p = sub.add_parser("periodic-orbits",
                       help="state the periodic-orbit consequence of a "
                            "verified covering graph")
    p.add_argument("word", help="cyclic word over the symbols a, b")
    p.add_argument("--report", default=DEFAULT_REPORT, metavar="PATH",
                   help="proof report to draw the consequence from")

    p = sub.add_parser("attractor-sample",
                       help="NON-RIGOROUS float orbit sample as CSV")
    p.add_argument("--seed", type=lambda s: tuple(float(v) for v in s.split(",")),
                   default=(0.5, 0.5, 0.5), metavar="X,Y,Z")
    p.add_argument("--transient", type=int, default=1000)
    p.add_argument("--count", type=int, default=100000)
    p.add_argument("--out", default="attractor.csv", metavar="PATH")
    return ap


def _load_hset_arg(path):
    if path is None:
        return None
    try:
        hs = load_hsets(path)
    except _INPUT_ERRORS as e:
        raise _BadInput(f"cannot load h-sets from {path}: {type(e).__name__}: {e}")
    missing = {"a", "b"} - set(hs)
    if missing:
        raise _BadInput(f"h-set file must define sets named: {sorted(missing)}")
    return hs


def _print_covering(report: ProofReport):
    for c in report.covering:
        status = "PASS" if c.passed else "FAIL"
        nfail = c.condition_I.failed + c.condition_II.failed
        print(f"covering {c.source} => {c.target}: {status} "
              f"(body {c.body_grid}, faces {c.face_grid}, "
              f"{nfail} failing witnesses, {c.wall_time:.1f}s)")
    if report.covering_passed:
        print(symbolic_dynamics_statement(report))


def _print_hyperbolicity(report: ProofReport):
    cert = report.hyperbolicity
    for o in cert.outcomes:
        status = "PASS" if o.passed else "FAIL"
        print(f"cone condition f_{o.label}: {status} "
              f"(skipped {o.skipped_disjoint}, positive definite "
              f"{o.positive_definite}, failed {o.failed})")
    if cert.passed:
        it = report.map_params.get("iterate", 4)
        print(f"The {it}-th iterate is strongly hyperbolic on a union b, "
              f"hence uniformly hyperbolic on the invariant part of a union b.")


def _finish(report: ProofReport, path, ok: bool) -> int:
    report.save(path)
    print(f"report written to {path}")
    print(f"verdict: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_verify_symbolic(args) -> int:
    report = drivers.run_symbolic_report(
        body_grid=args.body_grid, face_grid=args.face_grid,
        iterate=args.map_iterate, hsets=_load_hset_arg(args.hsets),
        workers=args.workers, max_failures_reported=args.max_failures,
    )
    _print_covering(report)
    return _finish(report, args.report, report.covering_passed)


def cmd_verify_hyperbolicity(args) -> int:
    report = drivers.run_hyperbolicity_report(
        hyp_grid=args.hyp_grid, iterate=args.map_iterate,
        hsets=_load_hset_arg(args.hsets), workers=args.workers,
        max_failures_reported=args.max_failures,
    )
    _print_hyperbolicity(report)
    return _finish(report, args.report, report.hyperbolicity.passed)


def cmd_verify_all(args) -> int:
    report = drivers.run_all(
        body_grid=args.body_grid, face_grid=args.face_grid,
        hyp_grid=args.hyp_grid, iterate=args.map_iterate,
        hsets=_load_hset_arg(args.hsets), workers=args.workers,
        max_failures_reported=args.max_failures,
    )
    _print_covering(report)
    _print_hyperbolicity(report)
    return _finish(report, args.report, report.verdict)


def cmd_periodic_orbits(args) -> int:
    try:
        report = ProofReport.load(args.report)
        hsets = {
            name: hset_from_definition(name, d)
            for name, d in report.hset_definitions.items()
        }
    except FileNotFoundError:
        print(f"error: no proof report at {args.report}; run verify-symbolic "
              f"or verify-all first", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as e:
        raise _BadInput(f"cannot use proof report {args.report}: "
                        f"{type(e).__name__}: {e}")
    try:
        print(periodic_orbit_consequence(report, args.word, hsets))
    except ReportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def cmd_attractor_sample(args) -> int:
    p = args.seed
    rows_written = 0
    with open(args.out, "w") as fh:
        fh.write("# NON-RIGOROUS SAMPLE\n")
        fh.write("x,y,z\n")
        try:
            if args.transient > 0:
                p = eval_point_fast(p, args.transient)
            for _ in range(args.count):
                p = eval_point_fast(p, 1)
                fh.write(",".join(format(v, ".17g") for v in p) + "\n")
                rows_written += 1
        except DivergenceError as e:
            print(f"error: {e} (partial file: {rows_written} rows)",
                  file=sys.stderr)
            return 1
    print(f"wrote {rows_written} rows to {args.out}")
    return 0


_COMMANDS = {
    "verify-symbolic": cmd_verify_symbolic,
    "verify-hyperbolicity": cmd_verify_hyperbolicity,
    "verify-all": cmd_verify_all,
    "periodic-orbits": cmd_periodic_orbits,
    "attractor-sample": cmd_attractor_sample,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _BadInput as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
