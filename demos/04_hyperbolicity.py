"""Certify the cone condition on one chart pair, then on all four.

For each little box either the image misses the cube entirely (the box
cannot meet the invariant set) or Df^T Q Df - Q must be positive definite
by Sylvester's criterion on interval determinants, for the form
Q = W diag(Id_u, -Id_s) W with the shared cone scales W = diag(CONE_SCALES).

Run:  python3 demos/04_hyperbolicity.py
"""

from henoncert import (
    HenonMap,
    IteratedMap,
    check_map_pair,
    make_paper_hsets,
    paper_map_pairs,
)
from henoncert.drivers import run_all
from henoncert.hyperbolicity import CONE_SCALES, cone_quadratic_form

a, b = make_paper_hsets()
f4 = IteratedMap(HenonMap(), k=4)
pairs = paper_map_pairs(f4, {"a": a, "b": b})
# u and s are read from each map's charts; W is shared by every chart
print("W = diag", CONE_SCALES)
print("Q = W diag(Id_u, -Id_s) W =", cone_quadratic_form(a.u, a.s))

# One pair at the shipped grid; the outcome is named by its charts
out = check_map_pair(pairs["aa"], (25, 25, 25))
print(f"f_{out.label}: skipped {out.skipped_disjoint}, positive definite "
      f"{out.positive_definite}, failed {out.failed}")

# The whole certificate, from the one driver with the covering left out;
# without subdivision it cannot work
cert = run_all(body_grid=None, hyp_grid=(25, 25, 25)).hyperbolicity
print("all four pairs at 25^3:", "PASS" if cert.passed else "FAIL",
      f"({cert.wall_time:.1f}s)")

coarse = run_all(body_grid=None, hyp_grid=(1, 1, 1)).hyperbolicity
print("whole-cube check (1^3):", "PASS" if coarse.passed else "FAIL",
      "- the unsubdivided Jacobian enclosure is far too wide")
