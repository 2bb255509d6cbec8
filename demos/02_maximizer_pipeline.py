#!/usr/bin/env python3
"""The constructive pipeline for the mass-constrained maximizing weight.

For each mass m the pipeline solves an auxiliary semilinear Dirichlet
problem, inverts the strictly increasing function F built from it, and reads
the optimal weight off the boundary flux. On the interval everything
collapses to the closed form F(xi) = 2 sqrt(xi) tan(sqrt(xi)/2), so each
step is verifiable by hand.
"""

import numpy as np

from robinopt import FSolver, SolverParams, build_interval, sigma_max, solve_aux

mesh = build_interval(200)
params = SolverParams(p=2.0)
solver = FSolver(mesh, params)  # the Dirichlet ceiling and the pinned problem
lam_d = solver.lam_dirichlet

print("=" * 64)
print("Auxiliary solutions and the function F on the interval (p = 2)")
print("=" * 64)
print(f"discrete Dirichlet ceiling: {lam_d:.6f}  (continuum pi^2 = {np.pi**2:.6f})")
print()
print(f"{'xi':>8} {'max u_xi':>10} {'F(xi)':>10} {'2 sqrt(xi) tan(sqrt(xi)/2)':>28}")
for xi in (0.5, 1.0, 2.0, 4.0, 8.0):
    sol = solve_aux(solver, xi)  # a cold start at each xi
    closed = 2 * np.sqrt(xi) * np.tan(np.sqrt(xi) / 2)
    print(f"{xi:8.2f} {sol.u_xi.values.max():10.6f} {sol.F_value:10.6f} {closed:28.6f}")

print()
print("Inverting F and recovering the maximizing weight:")
print(f"{'m':>6} {'xi(m)':>10} {'sigma(0)':>10} {'sigma(1)':>10} {'mass err':>10} {'crosscheck':>11}")
for m in (0.5, 1.0, 2.0, 8.0):
    rep = sigma_max(mesh, m, params, solver=FSolver(mesh, params, lam_d))
    masses = dict(rep.sigma_m.atoms)
    print(
        f"{m:6.1f} {rep.xi_m:10.6f} {masses[0]:10.6f} {masses[mesh.n_nodes-1]:10.6f}"
        f" {abs(rep.sigma_mass-m)/m:10.2e} {rep.crosscheck_lambda:11.6f}"
    )

print()
print("The optimal weight splits the mass evenly between the endpoints, the")
print("eigenfunction equals 1 on the boundary, and an independent eigensolve")
print("of the recovered weight reproduces xi(m).")
