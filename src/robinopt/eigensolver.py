"""First-eigenvalue solves of the weighted Rayleigh quotient.

Four constraint modes share one outer iteration:

* robin      - free minimization with a boundary weight,
* dirichlet  - fields vanishing on all boundary nodes,
* point      - a single pinned boundary node,
* dirac      - robin with a point mass.

The outer loop is an inverse-power scheme: given u_k >= 0 with unit p-norm,
the next iterate minimizes the strictly convex functional
(1/p) R(w) - <m(u_k), w> where m(u_k) is the Gauss-point assembly of
|u_k|^{p-2} u_k, and is then truncated to its positive part and renormalized.
Each step provably does not increase the Rayleigh quotient, which the solver
asserts at runtime (rq_history is nonincreasing up to 1e-13 max(1, |q|)).

The one acceptance test, before every step, is the weak residual of
(Q[u_k], u_k) within params.tol_res (a start that passes takes no step); the
quotient is stationary at an eigenfunction, so the eigenvalue is then
accurate to second order. A step that would raise the quotient ends the
solve ("quotient stalled"). verify_weak_residual recomputes the same test.

solve_point and solve_dirac may start from a neighbouring node's result: its
pair is first polished by Newton on the eigenpair (Keller's bordering,
ConvexPEnergyProblem.eigenpair_newton), and the outer loop then starts from
it, where the residual test accepts it like any other iterate. If the LU
fails, Newton does not converge, or the polished eigenfunction is not
positive on the free nodes (only the first eigenfunction is; Lindqvist,
Proc. AMS 109, 1990), a DEBUG event on the robinopt logger records the
fallback and the solve starts cold.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import energy as en
from .energy import BoundaryWeight, NodalField, SolverParams
from .errors import ConvergenceError, InvariantViolationError, MathRefusalError, ConfigError
from .innersolve import ConvexPEnergyProblem
from .mesh import Mesh

__all__ = [
    "EigenResult",
    "solve_robin",
    "solve_dirichlet",
    "solve_point",
    "solve_dirac",
    "verify_weak_residual",
]

_MONOTONE_SLACK = 1e-13
_MAX_OUTER = 500

log = logging.getLogger("robinopt")


@dataclass
class EigenResult:
    """First eigenvalue, normalized nonnegative eigenfunction and diagnostics.

    `weight`, `pinned` (the nodes held at zero) and `params` are the problem
    that was solved and its settings; `mode` only labels it in reports.
    """

    lam: float
    u: NodalField
    mode: str
    outer_iters: int
    residual: float
    params: SolverParams
    rq_history: list = field(default_factory=list)
    weight: BoundaryWeight | None = None
    pinned: tuple = ()

    def validate(self):
        vals = self.u.values
        if self.lam < 0:
            raise InvariantViolationError(f"negative eigenvalue {self.lam}")
        if np.min(vals) < -1e-12:
            raise InvariantViolationError("eigenfunction has negative nodal values")
        if abs(en.lp_norm_p(self.u, self.params.p) - 1.0) > 1e-12:
            raise InvariantViolationError("eigenfunction is not p-normalized")
        return self


def _normalize(mesh, vals, p):
    nrm = en.lp_norm_p(NodalField(mesh, vals), p)
    if nrm <= 0.0:
        raise ConvergenceError("iterate collapsed to zero after truncation")
    return vals / nrm ** (1.0 / p)


def _load_and_residual(problem, vals, q):
    """The load q m(u) at the iterate vals, the inner gradient there (the weak
    residual of (q, u), and the next inner solve's first Newton gradient) and
    p times its max-norm over the free nodes.

    The load puts the inner minimizer at the scale of u itself (the factor
    q^{1/(p-1)} between them matters for p far from 2, where the smoothed
    derivative is not homogeneous); the renormalization removes it."""
    b = q * en.mass_action(problem.mesh, vals, problem.p)
    g = problem.gradient(vals, b)
    return b, g, problem.p * float(np.max(np.abs(g[problem.free])))


def _continued(problem, start):
    """The start pair polished by Newton on the eigenpair (the
    eigenfunction), or None, for a cold start, when that fails or leaves a
    free node that is not positive: only the first eigenfunction is positive."""
    if start.u.mesh is not problem.mesh:
        raise ConfigError("the start pair lives on a different mesh")
    try:
        u, _ = problem.eigenpair_newton(start.u.values, start.lam)
    except (np.linalg.LinAlgError, ConvergenceError) as exc:
        log.debug("continuation from %s failed (%s); cold start", start.mode, exc)
        return None
    if not np.all(u[problem.free] > 0):
        log.debug("continuation from %s left a free node <= 0; cold start", start.mode)
        return None
    return u


def _minimize(mesh, weight, mode, params, u0=None, pinned=(), start=None):
    if weight is not None and weight.total_mass <= 0:
        raise MathRefusalError(
            "weight has zero mass: the first eigenvalue is 0 with constant "
            "eigenfunction; a positive weight is required for a nontrivial solve",
            exact_value=0.0,
        )
    p = params.p
    problem = ConvexPEnergyProblem(mesh, params, weight=weight, fixed_nodes=pinned)
    if start is not None:
        u0 = _continued(problem, start)

    w = np.ones(mesh.n_nodes) if u0 is None else np.array(NodalField(mesh, u0).values)
    w[~problem.free] = 0.0
    if not np.any(w > 0):
        raise ConfigError("initial guess vanishes on the free nodes")
    u = _normalize(mesh, np.maximum(w, 0.0), p)

    def result():  # the current iterate
        return EigenResult(
            lam=q, u=NodalField(mesh, u), mode=mode, outer_iters=it,
            residual=resid, params=params, rq_history=history, weight=weight, pinned=pinned,
        )

    def failure(msg):
        hint = (
            " (the energy degenerates as p -> 1; a larger eps_reg usually "
            "restores convergence there)" if p < 1.5 else ""
        )
        return ConvergenceError(msg + hint, best=result())

    q = en.rayleigh(NodalField(mesh, u), weight, p)
    history = [q]
    b, g, resid = _load_and_residual(problem, u, q)
    it = 0
    while resid > params.tol_res:
        if it == _MAX_OUTER:
            raise failure(f"no convergence in {it} outer iterations "
                          f"(residual {resid:.3e}, target {params.tol_res:.1e})")
        it += 1
        # a stalled inner solve returns its best iterate; the outer test judges it
        w = problem.solve(b, w0=u, gtol_soft=np.inf, g0=g)
        w = np.maximum(w, 0.0)
        if not np.any(w > 0):
            raise ConvergenceError(
                "inner minimizer vanished after positive-part truncation",
                diagnostics={"mode": mode, "outer_iter": it},
            )
        u_new = _normalize(mesh, w, p)
        q_new = en.rayleigh(NodalField(mesh, u_new), weight, p)
        if q_new > q + _MONOTONE_SLACK * max(1.0, abs(q)):
            # the quotient cannot fall further at the attainable inner accuracy (the slack
            # is a few hundred ulps of q), and the current iterate failed the residual test
            raise failure(f"quotient stalled at residual {resid:.3e} "
                          f"(target {params.tol_res:.1e}) at outer step {it}")
        history.append(q_new)
        u, q = u_new, q_new
        b, g, resid = _load_and_residual(problem, u, q)
    return result().validate()


def solve_robin(mesh: Mesh, w: BoundaryWeight, params: SolverParams, u0=None) -> EigenResult:
    """First eigenvalue of the Rayleigh quotient with boundary weight w.

    Requires positive total mass: for a zero weight the infimum is 0 with a
    constant eigenfunction, so there is nothing to iterate on.
    """
    return _minimize(mesh, w, "robin", params, u0=u0)


def solve_dirichlet(mesh: Mesh, params: SolverParams, u0=None) -> EigenResult:
    """First Dirichlet eigenvalue: minimization over fields vanishing on the boundary."""
    if not np.any(mesh.node_is_boundary):
        raise ConfigError("mesh has no boundary nodes")
    pinned = tuple(mesh.boundary_nodes().tolist())
    return _minimize(mesh, None, "dirichlet", params, u0=u0, pinned=pinned)


def solve_point(mesh: Mesh, node: int, params: SolverParams,
                start: EigenResult | None = None) -> EigenResult:
    """Eigenvalue with the single nodal constraint u(node) = 0.

    `start`, a neighbouring node's result on the same mesh, is polished by
    Newton on the eigenpair into the first iterate; if that fails, the solve
    starts cold. Either way the weak-residual test accepts the result.

    Meaningful in the continuum only for p > dim: for p <= dim points have
    zero capacity, the continuum value is exactly 0 and a discrete value
    would be a mesh artifact, so the request is refused.
    """
    node = en._node_index(node)
    if not (0 <= node < mesh.n_nodes and mesh.node_is_boundary[node]):
        raise ConfigError(f"node {node} is not a boundary node")
    if params.p <= mesh.dim:
        raise MathRefusalError(
            f"solve_point requires p > dim (here p={params.p}, dim={mesh.dim}): "
            "points have zero W^{1,p} capacity, so the eigenvalue is exactly 0 and a "
            "nodal value would be a mesh artifact; the infimum over boundary weights of "
            "a fixed mass is 0 and not attained (concentration_demo gives the vanishing sequence)",
            exact_value=0.0,
        )
    return _minimize(mesh, None, f"point:{node}", params, pinned=(node,), start=start)


def solve_dirac(mesh: Mesh, node: int, mass: float, params: SolverParams,
                start: EigenResult | None = None) -> EigenResult:
    """Robin solve with all the (positive) boundary mass at one node; `start`
    as in solve_point."""
    w = BoundaryWeight.dirac(mesh, node, mass)
    return _minimize(mesh, w, f"dirac:{w.atoms[0][0]}:{mass}", params, start=start)


def verify_weak_residual(result: EigenResult):
    """Re-check that (lam, u) satisfies the discrete weak form of the problem
    that was solved: result.weight at result.params, with the rows of
    result.pinned excluded.

    Reports the max-norm of the nodal weak-form residual over the free nodes,
    by the solver's own acceptance test (so it equals result.residual); the
    pair is accepted when it is at most result.params.tol_res.
    """
    params = result.params
    problem = ConvexPEnergyProblem(result.u.mesh, params, weight=result.weight,
                                   fixed_nodes=result.pinned)
    _, _, worst = _load_and_residual(problem, result.u.values, result.lam)
    return {
        "max_residual": worst,
        "tol_res": params.tol_res,
        "ok": bool(worst <= params.tol_res),
        "n_free": int(np.sum(problem.free)),
        "mode": result.mode,
    }
