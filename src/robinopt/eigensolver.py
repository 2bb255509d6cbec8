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
asserts at runtime (rq_history is nonincreasing up to 1e-13).
"""

from __future__ import annotations

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


def _minimize(mesh, weight, mode, params, u0=None, pinned=()):
    if weight is not None and weight.total_mass <= 0:
        raise MathRefusalError(
            "weight has zero mass: the first eigenvalue is 0 with constant "
            "eigenfunction; a positive weight is required for a nontrivial solve",
            exact_value=0.0,
        )
    p = params.p
    problem = ConvexPEnergyProblem(mesh, params, weight=weight, fixed_nodes=pinned)
    free = problem.free

    w = np.ones(mesh.n_nodes) if u0 is None else np.array(u0, dtype=float)
    w[~free] = 0.0
    if not np.any(w > 0):
        raise ConfigError("initial guess vanishes on the free nodes")
    u = _normalize(mesh, np.maximum(w, 0.0), p)

    def result(vals, qv, it, resid, history):
        return EigenResult(
            lam=qv, u=NodalField(mesh, vals), mode=mode, outer_iters=it,
            residual=resid, params=params, rq_history=history, weight=weight, pinned=pinned,
        )

    def failure(msg, vals, qv, it, resid, history):
        hint = (
            " (the energy degenerates as p -> 1; a larger eps_reg usually "
            "restores convergence there)" if p < 1.5 else ""
        )
        return ConvergenceError(msg + hint, best=result(vals, qv, it, resid, history))

    def load_and_residual(vals, qv):
        # load q * m(u_k) puts the inner minimizer at the scale of u_k itself
        # (they differ by the factor q^{1/(p-1)}, which the renormalization
        # removes); a single working scale matters for p far from 2, where
        # the smoothed derivative is not homogeneous. The inner gradient at
        # u_k for this load is the weak residual of (q, u_k).
        bv = qv * en.mass_action(mesh, vals, p)
        return bv, p * float(np.max(np.abs(problem.gradient(vals, bv)[free])))

    q = en.rayleigh(NodalField(mesh, u), weight, p)
    history = [q]
    b, resid = load_and_residual(u, q)
    for it in range(1, params.max_outer + 1):
        # a stalled inner solve returns its best iterate; the outer test judges it
        w = problem.solve(b, w0=u, gtol_soft=np.inf)
        w = np.maximum(w, 0.0)
        if not np.any(w > 0):
            raise ConvergenceError(
                "inner minimizer vanished after positive-part truncation",
                diagnostics={"mode": mode, "outer_iter": it},
            )
        u_new = _normalize(mesh, w, p)
        q_new = en.rayleigh(NodalField(mesh, u_new), weight, p)
        if q_new > q + _MONOTONE_SLACK:
            # the quotient cannot be decreased further at the attainable inner
            # accuracy: the step is not recorded and the current iterate is
            # judged as is
            if resid <= params.tol_res:
                return result(u, q, it, resid, history).validate()
            raise failure(
                f"quotient stalled at residual {resid:.3e} "
                f"(target {params.tol_res:.1e}) at outer step {it}",
                u, q, it, resid, history,
            )
        history.append(q_new)
        b, resid = load_and_residual(u_new, q_new)
        stalled = abs(q - q_new) <= params.tol_rq * max(abs(q_new), 1e-300)
        u, q = u_new, q_new
        if stalled and resid <= params.tol_res:
            return result(u, q, it, resid, history).validate()

    raise failure(
        f"no convergence in {params.max_outer} outer iterations "
        f"(residual {resid:.3e}, target {params.tol_res:.1e})",
        u, q, params.max_outer, resid, history,
    )


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


def solve_point(mesh: Mesh, node: int, params: SolverParams, u0=None) -> EigenResult:
    """Eigenvalue with the single nodal constraint u(node) = 0.

    Meaningful in the continuum only for p > dim: for p <= dim points have
    zero capacity, the continuum value is exactly 0 and a discrete value
    would be a mesh artifact, so the request is refused.
    """
    node = int(node)
    if not (0 <= node < mesh.n_nodes and mesh.node_is_boundary[node]):
        raise ConfigError(f"node {node} is not a boundary node")
    if params.p <= mesh.dim:
        raise MathRefusalError(
            f"solve_point requires p > dim (here p={params.p}, dim={mesh.dim}): "
            "points have zero capacity, so the eigenvalue is exactly 0",
            exact_value=0.0,
        )
    return _minimize(mesh, None, f"point:{node}", params, u0=u0, pinned=(node,))


def solve_dirac(mesh: Mesh, node: int, mass: float, params: SolverParams, u0=None) -> EigenResult:
    """Robin solve with all the (positive) boundary mass at one node."""
    w = BoundaryWeight.dirac(mesh, int(node), mass)
    return _minimize(mesh, w, f"dirac:{int(node)}:{mass}", params, u0=u0)


def verify_weak_residual(result: EigenResult):
    """Re-check that (lam, u) satisfies the discrete weak form of the problem
    that was solved: result.weight at result.params, with the rows of
    result.pinned excluded.

    Reports the max-norm of the nodal weak-form residual over the free nodes;
    the pair is accepted when it is below result.params.tol_res.
    """
    mesh, params = result.u.mesh, result.params
    free = np.ones(mesh.n_nodes, dtype=bool)
    free[list(result.pinned)] = False
    r = en.weak_residual(result.u, result.weight, params.p, result.lam, params.eps_reg)
    worst = params.p * float(np.max(np.abs(r[free])))
    return {
        "max_residual": worst,
        "tol_res": params.tol_res,
        "ok": bool(worst <= params.tol_res),
        "n_free": int(np.sum(free)),
        "mode": result.mode,
    }
