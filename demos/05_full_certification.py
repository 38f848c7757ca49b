"""End-to-end: both certificates, one report, and its consequences.

Equivalent CLI run:
  henoncert verify-all
  henoncert periodic-orbits abba

At the shipped grids (20^3 body, 10x10 faces, 25^3 cone) all four covering
relations and the cone condition are certified: condition I falls back on
the mean-value form where the natural interval image decides nothing.

Run:  python3 demos/05_full_certification.py
"""

from henoncert import periodic_orbit_consequence
from henoncert.drivers import run_all
from henoncert.report import symbolic_dynamics_statement

report = run_all()

for c in report.covering:
    print(f"covering {c.source} => {c.target}: "
          f"{'PASS' if c.passed else 'FAIL'} ({c.wall_time:.1f}s)")
for o in report.hyperbolicity.outcomes:
    print(f"cone condition f_{o.label}: {'PASS' if o.passed else 'FAIL'}")

print("overall verdict:", report.verdict)
report.save("proof_report.json")
print("report written to proof_report.json")

if report.verdict:
    print()
    print(symbolic_dynamics_statement(report))
    print()
    print(periodic_orbit_consequence(report, "abba"))
