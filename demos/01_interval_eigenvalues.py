#!/usr/bin/env python3
"""First Robin eigenvalues on the unit interval, checked against closed forms.

The boundary of (0, 1) is just the two endpoints, so a boundary weight is a
pair of nonnegative numbers. For p = 2 each eigenvalue solves a classical
transcendental equation, and at any p it follows from the first integral
(p-1)|u'|^p + lambda |u|^p = lambda max|u|^p of the eigenfunction, which
makes the interval the perfect smoke test.
"""

from robinopt import (
    BoundaryWeight,
    SolverParams,
    build_interval,
    interval_dirichlet_p,
    interval_robin_p,
    interval_robin_p2,
    solve_dirac,
    solve_dirichlet,
    solve_robin,
)

mesh = build_interval(200)
params = SolverParams(p=2.0)

print("=" * 64)
print("Robin eigenvalues on (0,1), finite elements vs. transcendental")
print("=" * 64)

cases = [(1.0, 1.0), (1.0, 0.0), (5.0, 5.0), (0.5, 2.0)]
print(f"{'sigma':>12} {'FEM':>12} {'oracle':>12} {'rel.err':>10}")
for sl, sr in cases:
    w = BoundaryWeight.from_facet_density(mesh, [sl, sr])
    lam = solve_robin(mesh, w, params).lam
    ora = interval_robin_p2(sl, sr)
    print(f"({sl:4.1f},{sr:4.1f}) {lam:12.6f} {ora:12.6f} {abs(lam-ora)/ora:10.2e}")

print()
print("The same weights at p = 3, against the first-integral closed form:")
params3 = SolverParams(p=3.0)
print(f"{'sigma':>12} {'FEM':>12} {'oracle':>12} {'rel.err':>10}")
for sl, sr in cases:
    w = BoundaryWeight.from_facet_density(mesh, [sl, sr])
    lam = solve_robin(mesh, w, params3).lam
    ora = interval_robin_p(3.0, sl, sr)
    print(f"({sl:4.1f},{sr:4.1f}) {lam:12.6f} {ora:12.6f} {abs(lam-ora)/ora:10.2e}")
    assert abs(lam - ora) / ora < 1e-3

print()
print("A point mass at one endpoint (the relaxed weight class):")
lam = solve_dirac(mesh, 0, 1.0, params).lam
print(f"  mass 1 at x=0:  {lam:.6f}  vs  mu tan(mu) = 1 root^2 = "
      f"{interval_robin_p2(1.0, 0.0):.6f}")

print()
print("Dirichlet eigenvalues for several exponents (closed form (p-1) pi_p^p):")
for p in (1.5, 2.0, 3.0):
    lam = solve_dirichlet(build_interval(400), SolverParams(p=p)).lam
    exact = interval_dirichlet_p(p)
    print(f"  p={p:3.1f}:  {lam:10.5f}  vs  {exact:10.5f}   rel.err {abs(lam-exact)/exact:.2e}")

print()
print("Every eigenvalue sits below the constant-test-function bound m/|Omega|:")
for m in (0.5, 2.0, 20.0):
    w = BoundaryWeight.constant(mesh, m)
    lam = solve_robin(mesh, w, params).lam
    print(f"  m={m:5.1f}:  eigenvalue {lam:8.4f}  <=  m/|Omega| = {m:5.1f}   "
          f"(saturates only as the weight spreads out and m -> 0)")
