"""The maximizing boundary weight via the auxiliary-problem pipeline.

For a target mass m the maximal first eigenvalue and its unique maximizer
are produced constructively:

1. solve the auxiliary semilinear problem for a spectral parameter xi below
   the discrete Dirichlet eigenvalue: at p = 2 it is linear, (K - xi M) v =
   M 1, and one banded Cholesky factorization solves it; otherwise guarded
   Newton steps on the discrete equation, one banded Cholesky factorization
   each, reach the solution, and one step of the monotone Picard iteration
   (a strictly convex minimization with zero boundary values) checks it,
2. evaluate the strictly increasing function
   F(xi) = xi * integral (xi^{1/(p-1)} u_xi + 1)^{p-1},
3. invert F(xi) = m on the bracket [0, lam_D], lam_D the Dirichlet
   eigenvalue, whose ends F = 0 and F = +inf need no evaluation: one loop of
   Illinois steps that bisects while the upper end is infinite,
4. recover the optimal weight as the variational boundary flux of the
   auxiliary solution, scaled by xi(m).

The recovered weight is a consistent (variational) flux, so its discrete
mass equals F(xi(m)) exactly up to the inner-solver residual, and the field
xi^{1/(p-1)} u_xi + 1 satisfies the discrete eigenvalue weak form with
eigenvalue xi(m) at machine level. An independent Robin solve cross-checks
the eigenvalue; a mismatch beyond 1e-3 relative flags the report.

FSolver(mesh, params) owns steps 1-3: the Dirichlet ceiling, the pinned
convex problem, `solver(xi)` (one F evaluation, `solve_aux(solver, xi, v0)`)
and `solver.invert(m)`; `sigma_max(solver, m)` adds step 4.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from . import energy as en
from .energy import BoundaryWeight, NodalField, SolverParams
from .errors import ConfigError, ConvergenceError, InvariantViolationError
from .eigensolver import solve_dirichlet, solve_robin
from .innersolve import ConvexPEnergyProblem
from .mesh import Mesh

__all__ = [
    "AuxSolution",
    "MaxReport",
    "solve_aux",
    "FSolver",
    "sigma_max",
    "dirichlet_ceiling",
]

_PICARD_SLACK = 1e-12
_TOL_AUX = 1e-9
_TOL_DIRECT = 1e-13
_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))
_MAX_PICARD = 500_000
_MAX_AUX_NEWTON = 30
_CROSSCHECK_RTOL = 1e-3


@dataclass
class AuxSolution:
    """Solution of the auxiliary problem at one spectral parameter."""

    xi: float
    u_xi: NodalField
    F_value: float
    picard_iters: int
    newton_iters: int = 0
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
    """Output of the full maximizer pipeline at one mass. The CLI's
    `maximize` command renders it, the weight and its table included."""

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


def dirichlet_ceiling(mesh: Mesh, params: SolverParams) -> float:
    """Discrete Dirichlet eigenvalue, the ceiling of the F inversion's bracket."""
    return solve_dirichlet(mesh, params).lam


def _aux_load(problem, scale, v):
    """(rhs, load, gtol): rhs = (scale v + 1)^{p-1} at the cell Gauss points,
    its load L(v) and the inner tolerance 1e-13 (1 + max |L(v)|)."""
    mesh = problem.mesh
    rhs = (scale * en.gauss_values(mesh, v) + 1.0) ** (problem.p - 1.0)
    load = en.assemble_load(mesh, rhs)
    return rhs, load, 1e-13 * (1.0 + float(np.max(np.abs(load))))


def _aux_newton(problem, scale, v):
    """Guarded Newton steps on the discrete auxiliary equation G(w) = A(w) -
    L(w) = 0 on the free nodes, A the pinned problem's action and L the load
    of (scale w + 1)^{p-1}, from the subsolution v: (an iterate, the steps
    taken).

    Each step solves with the Jacobian, the problem's Hessian less scale
    times the mass term's Hessian at scale w + 1, through the problem's
    linear_solve (one banded Cholesky). An iterate is taken only when the
    factorization succeeds, the iterate is finite and it lies nodewise at or
    above v up to _PICARD_SLACK.

    Returns the first iterate with max |G| within the Picard step's inner
    tolerance 1e-13 (1 + max |L|), or one whose step moved no node beyond the
    Picard slack and did not lower max |G| (the roundoff floor). When a step
    is not taken, or after _MAX_AUX_NEWTON steps, returns the last iterate
    with G at most that tolerance nodewise (v when no other is): a
    subsolution, from which Picard steps increase. The iterates after a
    first step that overshoots lie above the solution, where a Picard step
    would decrease.
    """
    free = problem.free
    floor = v - _PICARD_SLACK * (1.0 + float(np.max(np.abs(v))))
    sub, last, moved = v, np.inf, np.inf
    for steps in range(_MAX_AUX_NEWTON + 1):
        _, load, gtol = _aux_load(problem, scale, v)
        g = problem.gradient(v, load)
        gn = float(np.max(np.abs(g[free])))
        if gn <= gtol or (moved <= _PICARD_SLACK * (1.0 + float(np.max(np.abs(v)))) and not gn < last):
            return v, steps
        if np.max(g[free]) <= gtol:
            sub = v
        if steps == _MAX_AUX_NEWTON:
            break
        try:
            d = problem.linear_solve(-g, scale, v, scale * v + 1.0)
        except np.linalg.LinAlgError:
            break
        w = v + d
        if not (np.all(np.isfinite(w)) and np.all(w >= floor)):
            break
        v, last, moved = w, gn, float(np.max(np.abs(d)))
    return sub, steps


def solve_aux(solver: FSolver, xi: float, v0: np.ndarray | None = None) -> AuxSolution:
    """The auxiliary problem at parameter xi: one direct solve at p = 2, else
    guarded Newton steps closed by a monotone Picard step.

    At p = 2 the problem is linear, (K - xi M) v = M 1 on the free nodes, M 1
    _aux_load's load at v = 0: v is the pinned problem's linear_solve at
    shift xi (LinAlgError when K - xi M is not positive definite), v0 does
    not apply, and picard_iters is 0. The free-node residual of v is checked
    against _TOL_DIRECT relative to the scale of the residual's terms.

    Otherwise, starting from v0 = 0 (or a known subsolution for a smaller
    xi; ConfigError unless it is one finite value per node), each Picard
    step solves the solver's Dirichlet-pinned convex problem with the
    right-hand side frozen at the previous iterate. Iterates are
    nondecreasing nodewise, which is asserted at runtime; the iteration stops
    at a relative step below _TOL_AUX and gives up after _MAX_PICARD steps.
    Before each Picard step, Newton steps on the discrete equation
    (_aux_newton, one linear_solve of the Jacobian each) move the iterate
    toward the solution, which is unique in the continuum (Diaz and Saa,
    C. R. Acad. Sci. Paris 305, 1987), and stay above the iterate they start
    from. Usually the first Newton call converges, and the one Picard step
    that follows moves the iterate by less than _TOL_AUX: it checks the
    Newton solution. Where a Jacobian does not factor (at p > 2 the Hessian vanishes at v = 0, and a far warm start
    can leave the Jacobian indefinite), the Picard steps go on and Newton is
    retried before each. picard_iters counts the Picard steps and
    newton_iters the Newton steps taken.

    Either way F and the dual load come from the right-hand side of the last
    solve (_aux_load; at p = 2 scale is xi and the power is 1), so the
    returned solution and load form a consistent pair: the interior residual
    is at solver level, and the recovered boundary flux reproduces F(xi)
    exactly.
    """
    mesh, p, lam_dirichlet, problem = solver.mesh, solver.params.p, solver.lam_dirichlet, solver.problem
    if not (0.0 < xi < lam_dirichlet):
        raise ConfigError(
            f"xi={xi} rejected: the auxiliary iteration requires 0 < xi < "
            f"{lam_dirichlet} (discrete Dirichlet eigenvalue of this mesh)"
        )
    scale = xi ** (1.0 / (p - 1.0))
    if p == 2.0:
        it, newton, v = 0, 0, problem.linear_solve(_aux_load(problem, scale, np.zeros(mesh.n_nodes))[1], xi)
        rhs, load, _ = _aux_load(problem, scale, v)
        worst = float(np.max(np.abs(problem.gradient(v, load)[problem.free])))
        # a backward-stable solve leaves a few eps of the residual's terms, |load| and |K v|
        # <= 2 max K_ii |v| (K's largest entry: K is positive semidefinite); relative to
        # |load| alone that floor grows like h^-2
        k_scale = float(np.max(problem.shifted(0.0)))
        if not worst <= _TOL_DIRECT * (float(np.max(np.abs(load))) + k_scale * float(np.max(np.abs(v)))):
            raise InvariantViolationError(
                f"direct auxiliary solve left a free-node residual {worst:.3e} (xi={xi})"
            )
    else:
        v = np.zeros(mesh.n_nodes) if v0 is None else NodalField(mesh, v0).values
        newton = 0
        for it in range(1, _MAX_PICARD + 1):
            v, steps = _aux_newton(problem, scale, v)
            newton += steps
            rhs, load, gtol = _aux_load(problem, scale, v)
            v_new = problem.solve(load, w0=v, gtol=gtol, gtol_soft=30.0 * gtol)
            if np.min(v_new - v) < -_PICARD_SLACK * (1.0 + float(np.max(np.abs(v)))):
                raise InvariantViolationError(
                    f"Picard iterate decreased at step {it} (xi={xi})"
                )
            delta = float(np.max(np.abs(v_new - v)))
            v = v_new
            if delta < _TOL_AUX * (1.0 + float(np.max(np.abs(v)))):
                break
        else:
            raise ConvergenceError(
                f"auxiliary Picard iteration exceeded {_MAX_PICARD} steps at xi={xi}",
                diagnostics={"xi": xi, "lam_dirichlet": lam_dirichlet, "last_delta": delta},
            )
    return AuxSolution(
        xi=float(xi), u_xi=NodalField(mesh, v),
        F_value=xi * en.integrate_gauss(mesh, rhs), picard_iters=it, newton_iters=newton, load=load,
    ).validate()


class FSolver:
    """F evaluations and their inversion on one mesh, shared across masses.

    Owns the Dirichlet ceiling and the Dirichlet-pinned convex problem that
    every F evaluation, `solve_aux`, solves: once at p = 2, once per Picard
    step and once per auxiliary Newton step (its Jacobian) otherwise; at
    p = 2 the problem also gives max K_ii, the scale of the direct solve's
    residual check. At p != 2 the computed auxiliary solutions are kept
    sorted by xi: each evaluation starts its Newton steps from the largest
    known subsolution below its xi.
    """

    def __init__(self, mesh: Mesh, params: SolverParams):
        self.mesh = mesh
        self.params = params
        self.lam_dirichlet = dirichlet_ceiling(mesh, params)
        self.problem = ConvexPEnergyProblem(mesh, params, fixed_nodes=mesh.boundary_nodes())
        self.solutions = []  # (xi, values) sorted by xi, the Picard warm starts
        self.evals = 0

    def __call__(self, xi: float) -> AuxSolution:
        """The auxiliary solution at xi (one F evaluation)."""
        k = bisect.bisect_right(self.solutions, xi, key=itemgetter(0))
        sol = solve_aux(self, xi, v0=self.solutions[k - 1][1] if k else None)
        self.evals += 1
        if self.params.p != 2.0:
            bisect.insort_right(self.solutions, (xi, sol.u_xi.values), key=itemgetter(0))
        return sol

    def invert(self, m: float) -> AuxSolution:
        """The auxiliary solution at the root xi(m) of F(xi) = m in (0, lam_dirichlet).

        F is strictly increasing from F(0) = 0 to +inf at the ceiling, so the
        bracket starts at its two ends with no evaluation; the first trial is
        min(m/|Omega|, lam_dirichlet/2), as F(xi) >= xi |Omega|. While the
        upper end's F is infinite (the ceiling, an overflow or a failed
        factorization) each step bisects: trials below m walk halfway up to
        the ceiling, and none lands nearer it than half the root's distance.
        Otherwise Illinois steps (regula falsi that halves the value kept at
        an end two secant steps in a row retained) shrink the bracket until
        |F(xi) - m| <= 1e-10 m. Returns the better bracketing solution, also
        when the ends are adjacent floats if it is within sqrt(eps) m there;
        otherwise m is unreachable on this mesh (ConvergenceError).
        """
        if not 0 < m < np.inf:
            raise ConfigError(f"mass {m} must be positive and finite")

        def excess(xi):
            try:
                sol = self(xi)
            except (OverflowError, FloatingPointError, np.linalg.LinAlgError):
                return None, np.inf
            f = sol.F_value - m
            return (sol, f) if np.isfinite(f) else (None, np.inf)

        a, fa, sol_a = 0.0, -m, None  # F(0) = 0
        b, fb, sol_b = self.lam_dirichlet, np.inf, None  # F = +inf at the ceiling
        x, secant, side = min(m / self.mesh.volume, 0.5 * b), False, 0
        while True:
            sol, fx = excess(x)
            if fx >= 0.0:
                if side > 0:
                    fa *= 0.5
                b, fb, sol_b = x, fx, sol or sol_b
            else:
                if side < 0:
                    fb *= 0.5
                a, fa, sol_a = x, fx, sol
            side = (1 if fx >= 0.0 else -1) if secant else 0  # the end a secant step moved
            miss, best = min(((abs(s.F_value - m), s) for s in (sol_a, sol_b) if s is not None),
                             key=itemgetter(0), default=(np.inf, None))
            if miss <= 1e-10 * m:
                return best
            secant = np.isfinite(fb)
            x = a - fa * (b - a) / (fb - fa) if secant else b - 0.5 * (b - a)
            x = min(max(x, np.nextafter(a, b)), np.nextafter(b, a))
            if not a < x < b:  # a and b are adjacent floats
                if miss <= _SQRT_EPS * m:
                    return best
                raise ConvergenceError(
                    f"mass m={m} unreachable on this mesh: F near the singular end exceeds float "
                    f"resolution (|F - m|/m = {miss / m:.1e} at xi = {float(a)!r}) -- refine the mesh",
                    best=best, diagnostics={"lam_dirichlet": self.lam_dirichlet, "xi": float(a)},
                )


def sigma_max(solver: FSolver, m: float) -> MaxReport:
    """Full pipeline on the solver's mesh and params: invert F, recover the
    maximizing weight, cross-check.

    The weight is the variational boundary flux of the auxiliary solution
    scaled by xi(m): nodal boundary masses whose total equals F(xi(m)) up to
    the inner-solver residual. The report also carries the eigenfunction
    candidate xi^{1/(p-1)} u_xi + 1 (identically 1 on the boundary) and an
    independent Robin solve of the recovered weight. One solver shared
    across masses reuses its ceiling and warm starts.
    """
    mesh, params = solver.mesh, solver.params
    p = params.p
    evals_before = solver.evals
    aux = solver.invert(m)
    xi_m = aux.xi

    masses = xi_m * en.recover_flux(aux.u_xi, aux.load, params)
    if np.min(masses) < -1e-10:
        raise InvariantViolationError(
            "recovered weight has negative masses "
            f"(min {np.min(masses):.3e}). At convex polygon "
            "corners the optimal weight density vanishes, so the discrete "
            "corner flux is a truncation-scale quantity of either sign; the "
            "pipeline needs a boundary where the flux stays positive "
            "(interval, disk, square) or a finer mesh."
        )
    total = float(np.sum(masses))
    if abs(total - aux.F_value) > 1e-10 * max(abs(aux.F_value), 1e-300):
        raise InvariantViolationError(
            f"flux mass {total} does not reproduce F = {aux.F_value}"
        )
    # roundoff negatives in [-1e-10, 0) clip to 0
    sigma_m = BoundaryWeight(mesh, atoms=zip(mesh.boundary_nodes(), np.maximum(masses, 0.0)))

    u_m = NodalField(
        mesh, xi_m ** (1.0 / (p - 1.0)) * aux.u_xi.values + 1.0
    )
    cross = solve_robin(mesh, sigma_m, params)
    ok = abs(cross.lam - xi_m) <= _CROSSCHECK_RTOL * xi_m

    return MaxReport(
        m=float(m), p=p, xi_m=xi_m, Lambda=xi_m, sigma_m=sigma_m,
        sigma_mass=sigma_m.total_mass, crosscheck_lambda=cross.lam,
        crosscheck_ok=bool(ok), u_m=u_m, lam_dirichlet=solver.lam_dirichlet,
        F_residual=abs(aux.F_value - m) / m, bisect_evals=solver.evals - evals_before,
    )
