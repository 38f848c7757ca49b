"""Certify one covering relation rigorously: b => b under the 4th iterate.

Shows what a certificate contains and why coarse grids fail: the naive
interval image of the whole cube is far too wide, so the checker subdivides.

Run:  python3 demos/03_covering_relation.py
"""

from henoncert import (
    Box,
    HenonMap,
    IteratedMap,
    linearization_at_center,
    make_paper_hsets,
    verify_covering,
)

a, b = make_paper_hsets()
f4 = IteratedMap(HenonMap(), k=4)

# The local map C_b o H^4 o C_b^-1 on the whole cube: hopelessly wide.
# Every check of b => b takes this one map and reads b, u and s from it.
fc = f4.conjugated(b, b)
print("image of the whole cube:", fc.eval(Box.cube(-1, 1, 3)))

# The linearization chosen for the homotopy: midpoint of the unstable
# Jacobian block at the origin
A = linearization_at_center(fc)
print("A =", A.midpoint())

# With the body subdivided 20x20x20 and each exit face 10x10, both the
# spanning check and the exit-face check go through
cert = verify_covering(fc, (20, 20, 20))
print(f"b => b passed: {cert.passed}  ({cert.wall_time:.1f}s)")
ci = cert.condition_I
print(f"  body boxes: {ci.checked}, thrown past the unstable boundary: "
      f"{ci.outside_unstable}, inside the stable slab: {ci.inside_stable}")
print(f"  face parts checked: {sum(fc_['checked'] for fc_ in cert.condition_II.faces)}")

# A deliberately coarse run fails and reports witnesses
coarse = verify_covering(fc, (2, 2, 2))
print(f"coarse 2x2x2 run passed: {coarse.passed}, "
      f"witnesses: {len(coarse.condition_I.failures)}")
