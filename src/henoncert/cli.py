"""Command-line driver: certification runs, consequences, figure data.

Subcommands:
  verify-symbolic        covering relations on every chart pair (horseshoe)
  verify-hyperbolicity   cone condition on every chart pair
  verify-all             both, one report
  periodic-orbits WORD   consequence for a cyclic word over the report's h-sets
  attractor-sample       non-rigorous orbit CSV for plotting

Exit code is 0 exactly when the requested verdict is true, 1 when it is not
or when standard output is closed early, and 2 for bad input: a malformed
flag (a non-finite seed among them), h-set file, proof report or word, a
missing file, h-sets whose image under the iterate overflows, or an output
path that cannot be written.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__, drivers
from .covering import BODY_GRID, FACE_GRID
from .henon import DivergenceError, eval_point_fast
from .hsets import load_hsets
from .hyperbolicity import HYP_GRID
from .intervals import EnclosureError
from .report import (
    ProofReport,
    ReportError,
    WordError,
    periodic_orbit_consequence,
    symbolic_dynamics_statement,
)
from .sweep import MAX_WITNESSES

DEFAULT_REPORT = "proof_report.json"
_GRIDS = {"body_grid": (BODY_GRID, "K,K,K"), "face_grid": (FACE_GRID, "M,M"),
          "hyp_grid": (HYP_GRID, "K,K,K")}  # default and metavar per grid flag
# Verify subcommand -> (help, its grids).
_VERIFY = {
    "verify-symbolic": ("certify the covering relation on every chart pair",
                        ("body_grid", "face_grid")),
    "verify-hyperbolicity": ("certify the cone condition on the chart cubes",
                             ("hyp_grid",)),
    "verify-all": ("run both certifications", tuple(_GRIDS)),
}
# What a malformed input file can raise while it is read and checked.
_INPUT_ERRORS = (OSError, ValueError, LookupError, TypeError, AttributeError,
                 ArithmeticError)


class _BadInput(Exception):
    """An input file that cannot be used; `main` exits 2."""


def _at_least(text: str, low: int, kind: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = low - 1
    if n < low:
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
    return n


def _positive(text: str) -> int:
    return _at_least(text, 1, "positive")


def _non_negative(text: str) -> int:
    return _at_least(text, 0, "non-negative")


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _values(text: str, n: int, item=_positive):
    """Exactly `n` comma-separated values, each parsed by `item`."""
    parts = text.split(",")
    if len(parts) != n:
        raise argparse.ArgumentTypeError(
            f"expected {n} comma-separated values, got {text!r}")
    return tuple(item(p) for p in parts)


def _add_common(p):
    p.add_argument("--map-iterate", type=_positive, default=4, metavar="N",
                   help="iterate of the base map to certify (default 4)")
    p.add_argument("--workers", type=_positive, default=os.cpu_count() or 1,
                   help="parallel worker processes (default: all cores)")
    p.add_argument("--report", default=DEFAULT_REPORT, metavar="PATH",
                   help="where to write the JSON proof report")
    p.add_argument("--hsets", default=None, metavar="PATH",
                   help="JSON file with h-set definitions (decimal strings): "
                        "two or more, each named by one letter, of one (u, s)")
    p.add_argument("--max-failures", type=_positive, default=MAX_WITNESSES,
                   help="failing boxes listed per check: the first N are kept "
                        f"as witnesses, all are counted (default {MAX_WITNESSES})")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="henoncert",
        description="Rigorous certification of horseshoe chaos and uniform "
                    "hyperbolicity for the 3D generalized Henon map.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    for command, (help_, grids) in _VERIFY.items():
        p = sub.add_parser(command, help=help_)
        for dest in grids:
            default, metavar = _GRIDS[dest]
            p.add_argument("--" + dest.replace("_", "-"), default=default,
                           type=lambda s, n=len(default): _values(s, n),
                           metavar=metavar)
        _add_common(p)

    p = sub.add_parser("periodic-orbits",
                       help="state the periodic-orbit consequence of a "
                            "verified covering graph")
    p.add_argument("word", help="cyclic word over the report's h-set names")
    p.add_argument("--report", default=DEFAULT_REPORT, metavar="PATH",
                   help="proof report to draw the consequence from")

    p = sub.add_parser("attractor-sample",
                       help="NON-RIGOROUS float orbit sample as CSV")
    p.add_argument("--seed", type=lambda s: _values(s, 3, _finite),
                   default=(0.5, 0.5, 0.5), metavar="X,Y,Z")
    p.add_argument("--transient", type=_non_negative, default=1000)
    p.add_argument("--count", type=_non_negative, default=100000)
    p.add_argument("--out", default="attractor.csv", metavar="PATH")
    return ap


def _print_covering(report: ProofReport):
    for c in report.covering:
        status = "PASS" if c.passed else "FAIL"
        failed = c.condition_I.failed + c.condition_II.failed
        listed = len(c.condition_I.failures) + len(c.condition_II.failures)
        print(f"covering {c.source} => {c.target}: {status} "
              f"(body {c.body_grid}, faces {c.face_grid}, "
              f"{failed} failing boxes, {listed} listed, {c.wall_time:.1f}s)")
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
        it, union = report.map["iterate"], " union ".join(report.sets)
        print(f"The {it}-th iterate is strongly hyperbolic on {union}, "
              f"hence uniformly hyperbolic on the invariant part of {union}.")


def cmd_verify(args) -> int:
    """verify-symbolic, verify-hyperbolicity and verify-all."""
    folder = os.path.dirname(args.report) or os.curdir  # save checks again
    if os.path.isdir(args.report) or not os.access(folder, os.W_OK | os.X_OK):
        raise _BadInput(f"cannot write the report to {args.report}: not a "
                        "file in an existing, writable directory")
    try:
        hsets = None if args.hsets is None else load_hsets(args.hsets)
    except _INPUT_ERRORS as e:
        raise _BadInput(f"cannot use h-sets from {args.hsets}: "
                        f"{type(e).__name__}: {e}")
    grids = {g: getattr(args, g, None) for g in _GRIDS}  # None: not run
    try:
        report = drivers.run_all(
            **grids, iterate=args.map_iterate, hsets=hsets, workers=args.workers,
            max_failures_reported=args.max_failures,
        )
    except EnclosureError as e:
        source = f"h-sets from {args.hsets}" if hsets else "the shipped h-sets"
        raise _BadInput(f"cannot enclose the image of {source} under iterate "
                        f"{args.map_iterate}: {e}")
    ok = True
    if grids["body_grid"] is not None:
        _print_covering(report)
        ok = report.covering_passed
    if grids["hyp_grid"] is not None:
        _print_hyperbolicity(report)
        ok = ok and report.hyperbolicity.passed
    try:
        report.save(args.report)
    except OSError as e:
        raise _BadInput(f"cannot write the report to {args.report}: "
                        f"{type(e).__name__}: {e}")
    print(f"report written to {args.report}")
    print(f"verdict: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_periodic_orbits(args) -> int:
    try:
        report = ProofReport.load(args.report)
    except _INPUT_ERRORS as e:
        hint = ("; run verify-symbolic or verify-all first"
                if isinstance(e, FileNotFoundError) else "")
        raise _BadInput(f"cannot use proof report {args.report}: "
                        f"{type(e).__name__}: {e}{hint}")
    try:
        print(periodic_orbit_consequence(report, args.word))
    except WordError as e:
        raise _BadInput(e)
    except ReportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def cmd_attractor_sample(args) -> int:
    p = args.seed
    rows_written = 0
    try:
        with open(args.out, "w") as fh:
            fh.write("# NON-RIGOROUS SAMPLE\n")
            fh.write("x,y,z\n")
            if args.transient > 0:
                p = eval_point_fast(p, args.transient)
            for _ in range(args.count):
                p = eval_point_fast(p, 1)
                fh.write(",".join(format(v, ".17g") for v in p) + "\n")
                rows_written += 1
    except DivergenceError as e:
        print(f"error: {e} (partial file: {rows_written} rows)", file=sys.stderr)
        return 1
    except OSError as e:
        raise _BadInput(f"cannot write the sample to {args.out}: "
                        f"{type(e).__name__}: {e}")
    print(f"wrote {rows_written} rows to {args.out}")
    return 0


_COMMANDS = {
    **dict.fromkeys(_VERIFY, cmd_verify),
    "periodic-orbits": cmd_periodic_orbits,
    "attractor-sample": cmd_attractor_sample,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except _BadInput as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left, as `| head` does; point stdout at devnull so the
        # flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
