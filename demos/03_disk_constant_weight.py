#!/usr/bin/env python3
"""On the disk the maximizing weight is constant.

The auxiliary solution on a ball is radial, so its boundary flux - the
maximizing weight - is the constant m/|boundary|. The recovered discrete
weight reproduces this, and the eigenvalue agrees with the Bessel-root
oracle for the constant-weight problem.
"""

import numpy as np

from robinopt import FSolver, SolverParams, build_disk, disk_robin_p2_const, sigma_max

mesh = build_disk(0.05)
params = SolverParams(p=2.0)
m = 2 * np.pi

print("=" * 64)
print("Maximizing weight on the unit disk, p = 2, mass 2*pi")
print("=" * 64)
print(f"mesh: {mesh.n_nodes} nodes, {mesh.n_cells} cells, "
      f"area {mesh.volume:.6f}, perimeter {mesh.boundary_measure:.6f}")

rep = sigma_max(FSolver(mesh, params), m)
dens = rep.sigma_m.spread_atoms()

print(f"\nrecovered boundary density: mean {dens.mean():.6f} "
      f"(target m/|boundary| = {m/mesh.boundary_measure:.6f})")
print(f"relative spread across facets: {(dens.max()-dens.min())/dens.mean():.2e}")
print(f"total mass: {rep.sigma_mass:.12f} (target {m:.12f})")

oracle = disk_robin_p2_const(1.0)
print(f"\nmaximal eigenvalue: {rep.Lambda:.6f}")
print(f"Bessel oracle for constant weight 1: {oracle:.6f} "
      f"(root of mu J1(mu) = J0(mu), squared)")
print(f"relative difference: {abs(rep.Lambda-oracle)/oracle:.2e}")
print(f"independent eigensolve of the recovered weight: {rep.crosscheck_lambda:.6f}")
