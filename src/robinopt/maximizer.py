"""The maximizing boundary weight via the auxiliary-problem pipeline.

For a target mass m the maximal first eigenvalue and its unique maximizer
are produced constructively:

1. solve the auxiliary semilinear problem for a spectral parameter xi below
   the discrete Dirichlet eigenvalue (monotone Picard iteration, each step a
   strictly convex minimization with zero boundary values),
2. evaluate the strictly increasing function
   F(xi) = xi * integral (xi^{1/(p-1)} u_xi + 1)^{p-1},
3. invert F(xi) = m by safeguarded bisection with a secant polish,
4. recover the optimal weight as the variational boundary flux of the
   auxiliary solution, scaled by xi(m).

The recovered weight is a consistent (variational) flux, so its discrete
mass equals F(xi(m)) exactly up to the inner-solver residual, and the field
xi^{1/(p-1)} u_xi + 1 satisfies the discrete eigenvalue weak form with
eigenvalue xi(m) at machine level. An independent Robin solve cross-checks
the eigenvalue; a mismatch beyond 1e-3 relative flags the report.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from . import energy as en
from .energy import BoundaryWeight, NodalField, SolverParams
from .errors import ConfigError, ConvergenceError, InvariantViolationError
from .eigensolver import EigenResult, solve_dirichlet, solve_robin
from .innersolve import ConvexPEnergyProblem
from .mesh import Mesh

__all__ = [
    "AuxSolution",
    "MaxReport",
    "solve_aux",
    "F_eval",
    "invert_F",
    "FSolver",
    "sigma_max",
    "dirichlet_ceiling",
]

_PICARD_SLACK = 1e-12
_CROSSCHECK_RTOL = 1e-3


@dataclass
class AuxSolution:
    """Solution of the auxiliary problem at one spectral parameter."""

    xi: float
    u_xi: NodalField
    F_value: float
    picard_iters: int
    sigma_flux: en.NodalFlux | None = None
    load: np.ndarray = field(repr=False, default=None)  # consistent dual load

    def validate(self):
        mesh = self.u_xi.mesh
        v = self.u_xi.values
        if np.min(v) < 0.0:
            raise InvariantViolationError("auxiliary solution has negative values")
        if np.any(v[mesh.node_is_boundary] != 0.0):
            raise InvariantViolationError("auxiliary solution nonzero on the boundary")
        if self.F_value < self.xi * mesh.volume - 1e-9:
            raise InvariantViolationError("F below its analytic lower bound xi*|Omega|")
        return self


@dataclass
class MaxReport:
    """Output of the full maximizer pipeline at one mass."""

    m: float
    p: float
    xi_m: float
    Lambda: float
    sigma_m: BoundaryWeight
    sigma_mass: float
    crosscheck_lambda: float
    crosscheck_ok: bool
    u_m: NodalField
    lam_dirichlet: float
    F_residual: float          # |F(xi_m) - m| / m
    bisect_evals: int
    aux: AuxSolution = field(repr=False, default=None)
    crosscheck_result: EigenResult = field(repr=False, default=None)

    def to_dict(self):
        return {
            "m": self.m,
            "p": self.p,
            "xi_m": self.xi_m,
            "Lambda": self.Lambda,
            "sigma_mass": self.sigma_mass,
            "crosscheck_lambda": self.crosscheck_lambda,
            "crosscheck_ok": self.crosscheck_ok,
            "lam_dirichlet": self.lam_dirichlet,
            "F_residual": self.F_residual,
            "bisect_evals": self.bisect_evals,
        }


def dirichlet_ceiling(mesh: Mesh, params: SolverParams) -> float:
    """Discrete Dirichlet eigenvalue used as the bisection ceiling for F."""
    return solve_dirichlet(mesh, params).lam


def _aux_gauss_rhs(mesh, v, xi, p):
    """(xi^{1/(p-1)} v + 1)^{p-1} sampled at the cell Gauss points."""
    vals = xi ** (1.0 / (p - 1.0)) * en.gauss_values(mesh, v) + 1.0
    return vals ** (p - 1.0)


def solve_aux(
    mesh: Mesh,
    xi: float,
    params: SolverParams,
    lam_dirichlet: float | None = None,
    v0: np.ndarray | None = None,
    problem: ConvexPEnergyProblem | None = None,
) -> AuxSolution:
    """Monotone Picard iteration for the auxiliary problem at parameter xi.

    Starting from v0 = 0 (or a known subsolution for a smaller xi), each step
    solves the convex problem with the right-hand side frozen at the previous
    iterate and zero boundary values. Iterates are nondecreasing nodewise,
    which is asserted at runtime. The returned solution and dual load form a
    consistent pair: the interior residual is at inner-solver level, so the
    recovered boundary flux reproduces F(xi) exactly.

    `problem` is the Dirichlet-pinned convex problem each step solves, built
    here when None; FSolver passes its own to reuse it across calls.
    """
    p = params.p
    if lam_dirichlet is None:
        lam_dirichlet = dirichlet_ceiling(mesh, params)
    if not (0.0 < xi < lam_dirichlet):
        raise ConfigError(
            f"xi={xi} rejected: the auxiliary iteration requires 0 < xi < "
            f"{lam_dirichlet} (discrete Dirichlet eigenvalue of this mesh)"
        )
    if problem is None:
        problem = ConvexPEnergyProblem(
            mesh, p, weight=None, fixed_nodes=mesh.boundary_nodes(),
            eps_reg=params.eps_reg, max_iter=params.max_inner,
        )
    v = np.zeros(mesh.n_nodes) if v0 is None else np.array(v0, dtype=float)
    load = None
    for it in range(1, params.max_picard + 1):
        rhs = _aux_gauss_rhs(mesh, v, xi, p)
        load = en.assemble_load(mesh, rhs)
        gtol = 1e-13 * (1.0 + float(np.max(np.abs(load))))
        v_new = problem.solve(load, w0=v, gtol=gtol, gtol_soft=30.0 * gtol)
        if np.min(v_new - v) < -_PICARD_SLACK * (1.0 + float(np.max(np.abs(v)))):
            raise InvariantViolationError(
                f"Picard iterate decreased at step {it} (xi={xi})"
            )
        delta = float(np.max(np.abs(v_new - v)))
        v_prev, v = v, v_new
        if delta < params.tol_aux * (1.0 + float(np.max(np.abs(v)))):
            f_val = xi * en.integrate_gauss(mesh, _aux_gauss_rhs(mesh, v_prev, xi, p))
            sol = AuxSolution(
                xi=float(xi), u_xi=NodalField(mesh, v), F_value=f_val,
                picard_iters=it, load=load,
            )
            return sol.validate()
    raise ConvergenceError(
        f"auxiliary Picard iteration exceeded {params.max_picard} steps at xi={xi}",
        diagnostics={"xi": xi, "lam_dirichlet": lam_dirichlet, "last_delta": delta},
    )


def F_eval(
    mesh: Mesh,
    xi: float,
    params: SolverParams,
    lam_dirichlet: float | None = None,
) -> float:
    """F(xi) = xi * integral (xi^{1/(p-1)} u_xi + 1)^{p-1} (cell Gauss rule)."""
    if xi == 0.0:
        return 0.0
    return solve_aux(mesh, xi, params, lam_dirichlet=lam_dirichlet).F_value


class FSolver:
    """F evaluations and their inversion on one mesh, shared across masses.

    Owns the Dirichlet ceiling, the Dirichlet-pinned convex problem every
    Picard step reuses (at p = 2 its LU factorization is computed once) and
    the computed auxiliary solutions, sorted by xi: each evaluation starts
    from the largest known subsolution below its xi.
    """

    def __init__(self, mesh: Mesh, params: SolverParams, lam_dirichlet: float | None = None):
        self.mesh = mesh
        self.params = params
        if lam_dirichlet is None:
            lam_dirichlet = dirichlet_ceiling(mesh, params)
        self.lam_dirichlet = lam_dirichlet
        self.problem = ConvexPEnergyProblem(
            mesh, params.p, weight=None, fixed_nodes=mesh.boundary_nodes(),
            eps_reg=params.eps_reg, max_iter=params.max_inner,
        )
        self.solutions = []  # (xi, values) sorted by xi
        self.evals = 0

    def __call__(self, xi: float) -> AuxSolution:
        """The auxiliary solution at xi (one F evaluation)."""
        k = bisect.bisect_right(self.solutions, xi, key=itemgetter(0))
        sol = solve_aux(
            self.mesh, xi, self.params, lam_dirichlet=self.lam_dirichlet,
            v0=self.solutions[k - 1][1] if k else None, problem=self.problem,
        )
        self.evals += 1
        bisect.insort_right(self.solutions, (xi, sol.u_xi.values), key=itemgetter(0))
        return sol

    def invert(self, m: float) -> AuxSolution:
        """The auxiliary solution at the root xi(m) of F(xi) = m in (0, lam_dirichlet).

        Bisection on the open interval with three safeguards: the lower end
        is shrunk geometrically until F(lo) < m, the upper end expands
        geometrically toward the Dirichlet ceiling when the mass is not
        reachable inside the default bracket, and once the relative bracket
        is below 1e-8 a secant polish drives |F(xi) - m| under 1e-10
        relative so downstream mass identities hold at their stated
        tolerances.
        """
        if m <= 0:
            raise ConfigError("mass must be positive")
        lam_dirichlet = self.lam_dirichlet
        eps = 1e-6
        lo = eps * lam_dirichlet
        hi = (1.0 - eps) * lam_dirichlet

        sol_lo = self(lo)
        while sol_lo.F_value >= m:
            lo /= 16.0
            if lo < 1e-280:
                raise ConfigError("mass too small to bracket")
            sol_lo = self(lo)
        f_lo, best_lo = sol_lo.F_value, sol_lo

        best_hi = None  # smallest evaluated xi with F >= m
        f_hi = None
        for expansion in range(60):
            while (hi - lo) > 1e-8 * max(lo, 1e-300):
                mid = 0.5 * (lo + hi)
                try:
                    sol = self(mid)
                    fm = sol.F_value
                except (OverflowError, FloatingPointError):
                    fm = np.inf
                    sol = None
                if not np.isfinite(fm) or fm >= m:
                    hi = mid
                    if sol is not None and np.isfinite(fm):
                        best_hi, f_hi = sol, fm
                else:
                    lo, f_lo, best_lo = mid, fm, sol
            if best_hi is not None:
                break
            # root may sit above the default ceiling offset: expand toward it
            hi = lam_dirichlet - (lam_dirichlet - hi) / 8.0
            if lam_dirichlet - hi < 1e-15 * lam_dirichlet:
                raise ConvergenceError(
                    f"mass m={m} unreachable within the bracket cap; F near the "
                    "singular end exceeds float range -- refine the mesh",
                    diagnostics={"lam_dirichlet": lam_dirichlet},
                )

        # secant polish between the best straddling evaluations
        a, fa, sol_a = best_lo.xi, f_lo, best_lo
        b, fb, sol_b = best_hi.xi, f_hi, best_hi
        best = sol_b if abs(fb - m) < abs(fa - m) else sol_a
        for _ in range(60):
            if abs(best.F_value - m) <= 1e-10 * m:
                break
            if not (b > a) or fb <= fa:
                break
            x = a + (m - fa) * (b - a) / (fb - fa)
            x = min(max(x, np.nextafter(a, b)), np.nextafter(b, a))
            if x in (a, b):
                break
            sol = self(x)
            if sol.F_value >= m:
                b, fb, sol_b = x, sol.F_value, sol
            else:
                a, fa, sol_a = x, sol.F_value, sol
            best = sol_b if abs(sol_b.F_value - m) < abs(sol_a.F_value - m) else sol_a
        return best


def invert_F(
    mesh: Mesh,
    m: float,
    params: SolverParams,
    lam_dirichlet: float | None = None,
) -> float:
    """Solve F(xi) = m for xi in (0, lam_dirichlet); see FSolver.invert."""
    return FSolver(mesh, params, lam_dirichlet).invert(m).xi


def sigma_max(
    mesh: Mesh,
    m: float,
    params: SolverParams,
    lam_dirichlet: float | None = None,
    solver: FSolver | None = None,
) -> MaxReport:
    """Full pipeline: invert F, recover the maximizing weight, cross-check.

    The weight is the variational boundary flux of the auxiliary solution
    scaled by xi(m): nodal boundary masses whose total equals F(xi(m)) up to
    the inner-solver residual. The report also carries the eigenfunction
    candidate xi^{1/(p-1)} u_xi + 1 (identically 1 on the boundary) and an
    independent Robin solve of the recovered weight. A `solver` shared across
    masses reuses its ceiling and warm starts; `lam_dirichlet` is then unused.
    """
    p = params.p
    if solver is None:
        solver = FSolver(mesh, params, lam_dirichlet)
    elif solver.mesh is not mesh or solver.params != params:
        raise ConfigError("solver was built for another mesh or other params")
    lam_dirichlet = solver.lam_dirichlet
    evals_before = solver.evals
    aux = solver.invert(m)
    xi_m = aux.xi

    flux = en.recover_flux(
        aux.u_xi, aux.u_xi, p, load=aux.load, eps_reg=params.eps_reg,
        tol_res=params.tol_res,
    )
    aux.sigma_flux = en.NodalFlux(mesh, flux.nodes, xi_m * flux.masses)
    if np.min(aux.sigma_flux.masses) < -1e-10:
        raise InvariantViolationError(
            "recovered weight has negative masses "
            f"(min {np.min(aux.sigma_flux.masses):.3e}). At convex polygon "
            "corners the optimal weight density vanishes, so the discrete "
            "corner flux is a truncation-scale quantity of either sign; the "
            "pipeline needs a boundary where the flux stays positive "
            "(interval, disk, square) or a finer mesh."
        )
    total = aux.sigma_flux.total
    if abs(total - aux.F_value) > 1e-10 * max(abs(aux.F_value), 1e-300):
        raise InvariantViolationError(
            f"flux mass {total} does not reproduce F = {aux.F_value}"
        )
    sigma_m = flux.as_weight(scale=xi_m)

    u_m = NodalField(
        mesh, xi_m ** (1.0 / (p - 1.0)) * aux.u_xi.values + 1.0
    )
    cross = solve_robin(mesh, sigma_m, params)
    ok = abs(cross.lam - xi_m) <= _CROSSCHECK_RTOL * xi_m

    return MaxReport(
        m=float(m), p=p, xi_m=xi_m, Lambda=xi_m, sigma_m=sigma_m,
        sigma_mass=sigma_m.total_mass, crosscheck_lambda=cross.lam,
        crosscheck_ok=bool(ok), u_m=u_m, lam_dirichlet=lam_dirichlet,
        F_residual=abs(aux.F_value - m) / m, bisect_evals=solver.evals - evals_before,
        aux=aux, crosscheck_result=cross,
    )
