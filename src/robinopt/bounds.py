"""Closed-form bounds on the extremal eigenvalues and their verification.

The two-sided estimates evaluated here:

* belsup(m)  <= Lambda(m) <= min(Lambda_D, m/|Omega|)
* inflow(m)  <= lambda(m) <= min(lambda_1(Omega), m/|Omega|)   (p > dim)

where belsup and inflow share the closed form
m * L / ((|Omega| L)^{1/(p-1)} + m^{1/(p-1)})^{p-1} with L the Dirichlet
eigenvalue respectively the minimal point-constrained eigenvalue. All
inequalities are checked against the discrete quantities computed on the
same mesh, with a relative slack of 1e-3 absorbing solver tolerance
stacking; any violation beyond slack produces a failing report, never a
silent pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .energy import SolverParams
from .errors import ConfigError
from .maximizer import FSolver, sigma_max
from .mesh import Mesh
from .minimizer import _lower_bound_form, lambda_inf, scan_point_eigen

__all__ = ["belsup", "inflow", "inradius_bound", "check_all", "BoundsReport", "BoundsRow"]

_SLACK = 1e-3


def _positive_finite(*values):
    return all(0 < v < math.inf for v in values)


def belsup(m: float, lam_dirichlet: float, volume: float, p: float) -> float:
    """Lower bound for the maximal eigenvalue Lambda(m)."""
    if not _positive_finite(m, lam_dirichlet, volume, p - 1):
        raise ConfigError("belsup needs finite positive m, eigenvalue, volume and a finite p > 1")
    return _lower_bound_form(m, lam_dirichlet, volume, p)


def inflow(m: float, lambda1_omega: float, volume: float, p: float) -> float:
    """Lower bound for the minimal eigenvalue lambda(m) (p > dim, where the
    minimal point-constrained eigenvalue lambda1_omega exists)."""
    if not _positive_finite(m, lambda1_omega, volume, p - 1):
        raise ConfigError("inflow needs finite positive m, eigenvalue, volume and a finite p > 1")
    return _lower_bound_form(m, lambda1_omega, volume, p)


def inradius_bound(sigma_const: float, inradius: float | None, p: float) -> float:
    """Convex-domain lower bound for a constant weight in terms of the inradius."""
    if inradius is None:
        raise ConfigError("inradius bound needs a convex domain (inradius unset)")
    if not (0 <= sigma_const < math.inf and _positive_finite(inradius, p - 1)):
        raise ConfigError("inradius bound needs a finite nonnegative weight, a finite positive "
                          "inradius and a finite p > 1")
    if sigma_const == 0.0:
        return 0.0
    r = float(inradius)
    return ((p - 1.0) / p) ** p * sigma_const / (
        r * (1.0 + sigma_const ** (1.0 / (p - 1.0)) * r) ** (p - 1.0)
    )


@dataclass
class BoundsRow:
    """One mass of check_all: both sandwiches and whether they hold."""

    m: float
    belsup: float
    Lambda: float
    upper: float               # min(Lambda_D, m/|Omega|)
    inflow: float | None
    lam: float | None
    upper2: float | None       # min(lambda1(Omega), m/|Omega|)
    ok: bool
    slack_used: float
    inradius_bound: float | None = None   # constant-weight bound, convex domains
    failures: int = 0          # failed node solves, the point scan's and this mass's Dirac scan's


@dataclass
class BoundsReport:
    """check_all over a mass grid: the mesh's constants and one row per mass.
    The CLI's `bounds` and `sweep` commands render it."""

    p: float
    dim: int
    volume: float
    lam_dirichlet: float
    lambda1_omega: float | None
    inradius: float | None = None
    rows: list = field(default_factory=list)
    all_pass: bool = True
    note: str | None = None


def check_all(mesh: Mesh, m_list, params: SolverParams) -> BoundsReport:
    """Run the maximizer (and minimizer when p > dim) over a mass grid and
    verify both closed-form sandwiches at 1e-3 relative slack; a row also
    fails when its maximizer's Robin cross-check does, or when a node solve
    of the point scan or of its Dirac scan failed (the row's `failures`
    counts them). One FSolver serves every mass, and one point scan serves
    every Dirac scan. Each Dirac scan is pruned by the per-node inflow floor,
    and continues its nodes from the previous mass's scan (lambda_inf with
    prune and previous)."""
    p = params.p
    solver = FSolver(mesh, params)
    lam_d = solver.lam_dirichlet
    scan = scan_point_eigen(mesh, params) if p > mesh.dim else None
    lam1 = scan.lambda1_omega if scan is not None else None
    note = None if p > mesh.dim else (
        "p <= dim: the infimum side is exactly 0 and not attained; "
        "only the maximizer sandwich is checked"
    )

    rows = []
    all_ok = True
    low_rep = None
    for m in m_list:
        m = float(m)
        rep = sigma_max(solver, m)
        big = rep.Lambda
        bel = belsup(m, lam_d, mesh.volume, p)
        upper = min(lam_d, m / mesh.volume)
        ok = rep.crosscheck_ok and bel <= big * (1.0 + _SLACK) and big <= upper * (1.0 + _SLACK)
        rb = None
        if mesh.inradius is not None:
            # equidistributing the mass gives a constant weight, so this
            # convex-domain bound also sits below the maximal eigenvalue
            rb = inradius_bound(m / mesh.boundary_measure, mesh.inradius, p)
            ok = ok and (rb <= big * (1.0 + _SLACK))
        low = lam = up2 = None
        failures = 0
        if scan is not None:
            low_rep = lambda_inf(scan, m, prune=True, previous=low_rep)
            lam = low_rep.lambda_inf
            low = inflow(m, lam1, mesh.volume, p)
            up2 = min(lam1, m / mesh.volume)
            # a failed node solve leaves lambda1(Omega) or lambda the minimum
            # of a partial table, which proves nothing
            failures = len(scan.failures) + len(low_rep.failures)
            ok = (ok and not failures
                  and (low <= lam * (1.0 + _SLACK)) and (lam <= up2 * (1.0 + _SLACK)))
        all_ok = all_ok and ok
        rows.append(BoundsRow(
            m=m, belsup=bel, Lambda=big, upper=upper,
            inflow=low, lam=lam, upper2=up2, ok=ok, slack_used=_SLACK,
            inradius_bound=rb, failures=failures,
        ))
    return BoundsReport(
        p=p, dim=mesh.dim, volume=mesh.volume, lam_dirichlet=lam_d,
        lambda1_omega=lam1, inradius=mesh.inradius, rows=rows, all_pass=all_ok,
        note=note,
    )
