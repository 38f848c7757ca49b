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
from .covering import BODY_GRID, FACE_GRID
from .henon import DivergenceError, HenonParams, eval_point_fast
from .hsets import hset_from_definition, load_hsets
from .hyperbolicity import HYP_GRID
from .report import (
    ProofReport,
    ReportError,
    periodic_orbit_consequence,
    symbolic_dynamics_statement,
)
from .sweep import MAX_WITNESSES

DEFAULT_REPORT = "proof_report.json"
_GRIDS = {"body_grid": (BODY_GRID, "K,K,K"), "face_grid": (FACE_GRID, "M,M"),
          "hyp_grid": (HYP_GRID, "K,K,K")}  # default and metavar per grid flag
# Verify subcommand -> (help, its grids).
_VERIFY = {
    "verify-symbolic": ("certify the four covering relations",
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
                   help="JSON file with h-set definitions (decimal strings); "
                        "must define sets named 'a' and 'b'")
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
    p.add_argument("word", help="cyclic word over the symbols a, b")
    p.add_argument("--report", default=DEFAULT_REPORT, metavar="PATH",
                   help="proof report to draw the consequence from")

    p = sub.add_parser("attractor-sample",
                       help="NON-RIGOROUS float orbit sample as CSV")
    p.add_argument("--seed", type=lambda s: _values(s, 3, float),
                   default=(0.5, 0.5, 0.5), metavar="X,Y,Z")
    p.add_argument("--transient", type=_non_negative, default=1000)
    p.add_argument("--count", type=_non_negative, default=100000)
    p.add_argument("--out", default="attractor.csv", metavar="PATH")
    return ap


def _hsets(source: str, build):
    """The h-sets `build()` returns, if they define `a` and `b` with one (u, s)."""
    try:
        hs = build()
    except _INPUT_ERRORS as e:
        raise _BadInput(f"cannot use h-sets from {source}: {type(e).__name__}: {e}")
    missing = {"a", "b"} - set(hs)
    if missing:
        raise _BadInput(f"h-sets from {source} must define sets named: "
                        f"{sorted(missing)}")
    dims = {name: (hs[name].u, hs[name].s) for name in "ab"}
    if dims["a"] != dims["b"]:
        raise _BadInput(f"h-sets from {source} differ in (u, s): {dims}")
    return hs


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
        it = report.map_params["iterate"]
        print(f"The {it}-th iterate is strongly hyperbolic on a union b, "
              f"hence uniformly hyperbolic on the invariant part of a union b.")


def cmd_verify(args) -> int:
    """verify-symbolic, verify-hyperbolicity and verify-all."""
    hsets = None
    if args.hsets is not None:
        hsets = _hsets(args.hsets, lambda: load_hsets(args.hsets))
    grids = {g: getattr(args, g, None) for g in _GRIDS}  # None: not run
    report = drivers.run_all(
        **grids, iterate=args.map_iterate, hsets=hsets, workers=args.workers,
        max_failures_reported=args.max_failures,
    )
    ok = True
    if grids["body_grid"] is not None:
        _print_covering(report)
        ok = report.covering_passed
    if grids["hyp_grid"] is not None:
        _print_hyperbolicity(report)
        ok = ok and report.hyperbolicity.passed
    report.save(args.report)
    print(f"report written to {args.report}")
    print(f"verdict: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_periodic_orbits(args) -> int:
    try:
        report = ProofReport.load(args.report)
    except FileNotFoundError:
        print(f"error: no proof report at {args.report}; run verify-symbolic "
              f"or verify-all first", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as e:
        raise _BadInput(f"cannot use proof report {args.report}: "
                        f"{type(e).__name__}: {e}")
    hsets = _hsets(f"proof report {args.report}", lambda: {
        name: hset_from_definition(name, d)
        for name, d in report.hset_definitions.items()
    })
    try:
        print(periodic_orbit_consequence(report, args.word, hsets))
    except ReportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def cmd_attractor_sample(args) -> int:
    p = args.seed
    params = HenonParams()
    rows_written = 0
    with open(args.out, "w") as fh:
        fh.write("# NON-RIGOROUS SAMPLE\n")
        fh.write("x,y,z\n")
        try:
            if args.transient > 0:
                p = eval_point_fast(p, args.transient, params)
            for _ in range(args.count):
                p = eval_point_fast(p, 1, params)
                fh.write(",".join(format(v, ".17g") for v in p) + "\n")
                rows_written += 1
        except DivergenceError as e:
            print(f"error: {e} (partial file: {rows_written} rows)",
                  file=sys.stderr)
            return 1
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
        return _COMMANDS[args.command](args)
    except _BadInput as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
