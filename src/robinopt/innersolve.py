"""Damped-Newton solver for the convex inner problems.

Every outer iteration of the eigensolver and every Picard step of the
auxiliary problem minimizes

    J(w) = (1/p) [ integral |grad w|^p + integral_bdry sigma |w|^p ] - <b, w>

over the free nodes (constrained nodes are pinned to zero). The functional
is strictly convex for p > 1, so the minimizer is unique.

Strategy: Newton steps on the (eps-regularized for p < 2) system with a
Levenberg ridge when the Hessian is rank-deficient (p > 2 at flat iterates),
Armijo backtracking (factor 0.5, slope 1e-4), and a plain gradient-descent
fallback when the Newton direction fails the descent test. For p = 2 the
problem is quadratic and one cached sparse factorization solves it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl

from . import energy as en
from .errors import ConvergenceError

_ARMIJO_SLOPE = 1e-4
_ARMIJO_FACTOR = 0.5


class ConvexPEnergyProblem:
    """min_w (1/p) R(w) - <b, w> with optional boundary weight and pinned nodes."""

    def __init__(self, mesh, p, weight=None, fixed_nodes=None, eps_reg=1e-10, max_iter=200):
        self.mesh = mesh
        self.p = float(p)
        self.weight = weight
        self.eps = float(eps_reg)
        self.max_iter = int(max_iter)
        fixed = np.zeros(mesh.n_nodes, dtype=bool)
        if fixed_nodes is not None:
            fixed[np.asarray(fixed_nodes, dtype=int)] = True
        self.free = ~fixed
        self.free_idx = np.flatnonzero(self.free)
        self._lu = None  # cached factorization, p == 2 only

    # -- functional pieces -------------------------------------------------

    def objective(self, w, b):
        u = en.NodalField(self.mesh, w)
        return en.rayleigh_numerator(u, self.weight, self.p) / self.p - float(np.dot(b, w))

    def gradient(self, w, b):
        u = en.NodalField(self.mesh, w)
        return en.weak_residual(u, self.weight, self.p, 0.0, self.eps) - b

    def hessian(self, w):
        h = en.p_stiffness_hessian(self.mesh, w, self.p, self.eps)
        if self.weight is not None:
            h = h + en.boundary_hessian(self.weight, w, self.p, self.eps)
        return h

    # -- solve --------------------------------------------------------------

    def solve(self, b, w0=None, gtol=None, gtol_soft=None, raise_on_stall=True):
        """Minimize J; returns the full nodal vector (pinned entries zero).

        Converges to max-norm gradient gtol. When progress stops above gtol,
        a result below gtol_soft is still returned; above gtol_soft the
        behavior depends on raise_on_stall: raise a ConvergenceError, or
        return the best iterate and leave the judgment to the caller's own
        convergence test.
        """
        b = np.asarray(b, dtype=float)
        if gtol is None:
            gtol = 1e-12 * (1.0 + float(np.max(np.abs(b))))
        if gtol_soft is None:
            gtol_soft = gtol
        w = np.zeros(self.mesh.n_nodes) if w0 is None else np.array(w0, dtype=float)
        w[~self.free] = 0.0

        if self.p == 2.0:
            return self._solve_quadratic(b, w, gtol)

        fallback_step = 1.0
        for it in range(self.max_iter):
            g = self.gradient(w, b)
            gn = float(np.max(np.abs(g[self.free])))
            if gn <= gtol:
                return w
            d = self._newton_direction(w, g)
            step = None
            if d is not None and float(np.dot(g[self.free], d)) < 0:
                step = self._armijo(w, b, g, d, 1.0)
                if step is None:
                    # terminal roundoff regime: objective comparisons are noise,
                    # accept the full Newton step if it shrinks the gradient
                    cand = w.copy()
                    cand[self.free_idx] = w[self.free_idx] + d
                    gc = self.gradient(cand, b)
                    if float(np.max(np.abs(gc[self.free]))) < gn:
                        step = (cand, 1.0)
            if step is None:
                d = -g[self.free]
                step = self._armijo(w, b, g, d, fallback_step)
                if step is None:
                    break
                fallback_step = 2.0 * step[1]
            w = step[0]
        g = self.gradient(w, b)
        gn = float(np.max(np.abs(g[self.free])))
        if gn <= max(gtol, gtol_soft) or not raise_on_stall:
            return w
        raise ConvergenceError(
            f"inner Newton stalled at |grad|={gn:.3e} (target {gtol:.1e})",
            best=w,
            diagnostics={"gnorm": gn, "gtol": gtol},
        )

    def _solve_quadratic(self, b, w, gtol):
        if self._lu is None:
            h = self.hessian(w)[self.free_idx][:, self.free_idx].tocsc()
            self._h_ff = h
            self._lu = spl.splu(h)
        bf = b[self.free_idx]
        wf = self._lu.solve(bf)
        # iterative refinement keeps the residual near machine level
        for _ in range(3):
            g = self._h_ff.dot(wf) - bf
            if float(np.max(np.abs(g))) <= gtol:
                break
            wf -= self._lu.solve(g)
        out = np.zeros(self.mesh.n_nodes)
        out[self.free_idx] = wf
        return out

    def _newton_direction(self, w, g):
        h = self.hessian(w)[self.free_idx][:, self.free_idx].tocsc()
        dscale = float(np.mean(np.abs(h.diagonal()))) + 1e-300
        ident = sp.identity(h.shape[0], format="csc")
        tau = 0.0
        for _ in range(9):
            try:
                d = spl.splu(h + tau * ident).solve(-g[self.free_idx])
            except RuntimeError:
                d = None
            if d is not None and np.all(np.isfinite(d)) and float(np.dot(g[self.free_idx], d)) < 0:
                return d
            tau = 1e-8 * dscale if tau == 0.0 else 100.0 * tau
            if tau > 1e6 * dscale:
                break
        return None

    def _armijo(self, w, b, g, d, t0):
        j0 = self.objective(w, b)
        slope = float(np.dot(g[self.free], d))
        resolution = 1e-15 * (1.0 + abs(j0))
        t = t0
        for _ in range(60):
            if abs(t * slope) < resolution:
                # predicted decrease below the float resolution of J: any
                # acceptance here would be rounding noise, not progress
                return None
            cand = w.copy()
            cand[self.free_idx] = w[self.free_idx] + t * d
            if self.objective(cand, b) <= j0 + _ARMIJO_SLOPE * t * slope:
                return cand, t
            t *= _ARMIJO_FACTOR
        return None
