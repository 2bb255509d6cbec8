#!/usr/bin/env python3
"""Two-sided closed-form bounds over a mass sweep.

Both extremal eigenvalues obey the same algebraic sandwich built from one
reference eigenvalue (Dirichlet for the maximum, the minimal
point-constrained eigenvalue for the minimum). The sweep shows the bounds
tightening at both ends: everything vanishes linearly as m -> 0 and
saturates at the reference eigenvalue as m -> infinity.
"""

import numpy as np

from robinopt import SolverParams, build_interval, check_all

mesh = build_interval(200)

print("=" * 78)
print("Bound sandwich on the interval, p = 2, masses from 0.01 to 100")
print("=" * 78)
rep = check_all(mesh, np.geomspace(1e-2, 1e2, 9), SolverParams(p=2.0))
print(f"Dirichlet eigenvalue: {rep.lam_dirichlet:.5f}; "
      f"minimal point eigenvalue: {rep.lambda1_omega:.5f}; inradius {rep.inradius}")
print()
hdr = f"{'m':>8} {'belsup':>9} {'Lambda':>9} {'upper':>9} | {'inflow':>9} {'lambda':>9} {'upper':>9} {'ok':>3}"
print(hdr)
print("-" * len(hdr))
for r in rep.rows:
    print(
        f"{r.m:8.3g} {r.belsup:9.5f} {r.Lambda:9.5f} {r.upper:9.5f} | "
        f"{r.inflow:9.5f} {r.lam:9.5f} {r.upper2:9.5f} {'yes' if r.ok else 'NO':>3}"
    )
print()
print(f"all inequalities hold within {rep.rows[0].slack_used:.0e} relative slack:",
      rep.all_pass)
print()
print("Large masses push Lambda(m) toward the Dirichlet eigenvalue and")
print("lambda(m) toward the minimal point-constrained eigenvalue; small")
print("masses collapse everything onto m/|Omega|.")
