"""Damped-Newton solver for the convex inner problems.

Every outer iteration of the eigensolver and every Picard step of the
auxiliary problem minimizes

    J(w) = (1/p) [ integral |grad w|^p + integral_bdry sigma |w|^p ] - <b, w>

over the free nodes (constrained nodes are pinned to zero). The functional
is strictly convex for p > 1, so the minimizer is unique.

Strategy: up to _MAX_NEWTON Newton steps on the (eps-regularized for p < 2)
system with a Levenberg ridge when the Hessian is rank-deficient (p > 2 at
flat iterates), Armijo backtracking (factor 0.5, slope 1e-4), and a plain
gradient-descent fallback when the Newton direction fails the descent test.
For p = 2 the problem is quadratic: the factorization computed on the first
solve makes every solve one pair of triangular solves, with no refinement
(in working precision it lowers the residual, not the cond * eps error).

J's energy is a sum of energy.PowerTerm terms, the mesh's and the weight's,
each built once with its c L^T L blocks. Each problem lays out a free-free
Hessian pattern from their element arrays, and each Hessian is one scatter of
the element blocks into it. For p != 2 and up to _DENSE_MAX_FREE free nodes
it is a dense array factored by Cholesky, otherwise a CSC matrix factored by
splu: per factorization the dense path wins on small meshes, where sparse
bookkeeping costs more than the arithmetic, while p = 2 reuses one
factorization for many solves.
"""

from __future__ import annotations

import logging
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl
from scipy.linalg.lapack import dpotrf, dpotrs

from . import energy as en
from .errors import ConfigError, ConvergenceError

_ARMIJO_SLOPE = 1e-4
_ARMIJO_FACTOR = 0.5
_MAX_NEWTON = 200
# free-node count up to which Hessians are dense and factored by Cholesky.
# Measured per p = 3 Newton direction on 2D meshes (one BLAS thread): the
# dense path takes 0.5x the sparse time at 41-113 free nodes, 0.6x at 169,
# 1.0-1.1x at 217-265 and 2x at 331.
_DENSE_MAX_FREE = 200

log = logging.getLogger("robinopt")


class _Pattern:
    """Free-free Hessian layout of one problem and the scatter into it.

    Element entries are ordered as ConvexPEnergyProblem.hessian concatenates
    them: each term's element blocks, term by term. `slot[k]` is the storage
    position of entry k (the row-major cell of a dense array, or the CSC data
    index); entries touching a pinned node go to the extra slot `size`.
    `slot` is kept in np.bincount's own index type, so assembly casts
    nothing. `diag` holds the positions of the diagonal.
    """

    def __init__(self, n_nodes, elems, free_idx, dense):
        n = len(free_idx)
        pos = np.full(n_nodes, -1, dtype=np.int32)
        pos[free_idx] = np.arange(n, dtype=np.int32)
        rows = np.concatenate([pos[np.repeat(e, e.shape[1], axis=1)].ravel() for e in elems])
        cols = np.concatenate([pos[np.tile(e, (1, e.shape[1]))].ravel() for e in elems])
        keep = (rows >= 0) & (cols >= 0)
        self.n = n
        self.dense = dense
        if self.dense:
            self.size = n * n
            self.slot = np.where(keep, rows * n + cols, self.size).astype(np.intp)
            self.diag = np.arange(n) * (n + 1)
            return
        # CSC: sort the kept entries (plus every diagonal) by column, then
        # row; each run of equal (column, row) keys is one stored entry
        kr = np.concatenate([rows[keep], np.arange(n, dtype=np.int32)])
        kc = np.concatenate([cols[keep], np.arange(n, dtype=np.int32)])
        order = np.lexsort((kr, kc))
        sr, sc = kr[order], kc[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (sr[1:] != sr[:-1]) | (sc[1:] != sc[:-1])
        slot = np.empty(len(order), dtype=np.int32)
        slot[order] = np.cumsum(first, dtype=np.int32) - 1
        self.size = int(np.count_nonzero(first))
        self.indices = sr[first]
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(sc[first], minlength=n))]
        ).astype(np.int32)
        self.slot = np.full(len(rows), self.size, dtype=np.intp)
        self.slot[keep] = slot[: len(slot) - n]
        self.diag = slot[len(slot) - n:]

    def assemble(self, vals):
        """The free-free matrix with entry values `vals`."""
        data = np.bincount(self.slot, weights=vals, minlength=self.size + 1)[: self.size]
        if self.dense:
            return data.reshape(self.n, self.n)
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def factor(self, h, tau=0.0):
        """A solve function for h + tau I.

        Raises np.linalg.LinAlgError (dense) or RuntimeError (sparse) when
        the factorization fails.
        """
        if tau:
            h = h.copy()
            (h.reshape(-1) if self.dense else h.data)[self.diag] += tau
        if not self.dense:
            return spl.splu(h).solve
        c, info = dpotrf(h, lower=1, clean=0)
        if info != 0:
            raise np.linalg.LinAlgError(f"Cholesky failed at pivot {info}")
        return lambda r: dpotrs(c, r, lower=1)[0]


class ConvexPEnergyProblem:
    """min_w (1/p) R(w) - <b, w> with optional boundary weight and pinned nodes."""

    def __init__(self, mesh, p, weight=None, fixed_nodes=None, eps_reg=1e-10):
        if weight is not None and weight.mesh is not mesh:
            raise ConfigError("problem and weight live on different meshes")
        self.mesh = mesh
        self.p = float(p)
        self.weight = weight
        self.eps = float(eps_reg)
        self.free = np.ones(mesh.n_nodes, dtype=bool)
        if fixed_nodes is not None:
            self.free[np.asarray(fixed_nodes, dtype=int)] = False
        self.free_idx = np.flatnonzero(self.free)
        self._terms = [en.stiffness_term(mesh)]
        if weight is not None:
            self._terms += [t for t in en.boundary_terms(weight) if len(t.elems)]

    @cached_property
    def _pattern(self):
        # p = 2 factors once and then solves at every call: sparse triangular
        # solves beat the O(n^2) dense ones there (26 vs 45 us at 199 free
        # nodes on an interval, 36 vs 85 us at 271 on a disk)
        dense = self.p != 2.0 and len(self.free_idx) <= _DENSE_MAX_FREE
        return _Pattern(self.mesh.n_nodes, [t.elems for t in self._terms], self.free_idx, dense)

    @cached_property
    def _quadratic_solve(self):
        # p = 2: the Hessian is the same at every w
        return self._pattern.factor(self.hessian(np.zeros(self.mesh.n_nodes)))

    # -- functional pieces -------------------------------------------------

    def objective(self, w, b):
        with np.errstate(over="ignore", invalid="ignore"):  # at rejected line-search trials
            return sum(t.value(w, self.p) for t in self._terms) / self.p - float(np.dot(b, w))

    def gradient(self, w, b):
        with np.errstate(over="ignore", invalid="ignore"):
            return sum(t.action(w, self.p, self.eps) for t in self._terms) - b

    def hessian(self, w):
        """Free-free Hessian of J at w: a dense array up to _DENSE_MAX_FREE
        free nodes when p != 2, a CSC matrix otherwise."""
        vals = [t.blocks(w, self.p, self.eps).ravel() for t in self._terms]
        return self._pattern.assemble(np.concatenate(vals))

    # -- solve --------------------------------------------------------------

    def solve(self, b, w0=None, gtol=None, gtol_soft=None, raise_on_stall=True):
        """Minimize J; returns the full nodal vector (pinned entries zero).

        For p = 2, J is quadratic: the result is one solve with the
        factorization computed on the first call, and w0, gtol, gtol_soft
        and raise_on_stall do not apply.

        Otherwise Newton converges from w0 to max-norm gradient gtol. When
        progress stops above gtol, a result below gtol_soft is still
        returned; above gtol_soft the behavior depends on raise_on_stall:
        raise a ConvergenceError, or return the best iterate and leave the
        judgment to the caller's own convergence test.
        """
        b = np.asarray(b, dtype=float)
        if self.p == 2.0:
            w = np.zeros(self.mesh.n_nodes)
            w[self.free_idx] = self._quadratic_solve(b[self.free_idx])
            return w
        if gtol is None:
            gtol = 1e-12 * (1.0 + float(np.max(np.abs(b))))
        if gtol_soft is None:
            gtol_soft = gtol
        w = np.zeros(self.mesh.n_nodes) if w0 is None else np.array(w0, dtype=float)
        w[~self.free] = 0.0

        fallback_step = 1.0
        j = None  # J(w), carried over from the accepted Armijo trial
        for _ in range(_MAX_NEWTON):
            g = self.gradient(w, b)
            gn = float(np.max(np.abs(g[self.free])))
            if gn <= gtol:
                return w
            if j is None:
                j = self.objective(w, b)
            d = self._newton_direction(w, g)
            step = None
            if d is not None and float(np.dot(g[self.free], d)) < 0:
                step = self._armijo(w, b, g, d, 1.0, j)
                if step is None:
                    # terminal roundoff regime: objective comparisons are noise,
                    # accept the full Newton step if it shrinks the gradient
                    cand = w.copy()
                    cand[self.free_idx] = w[self.free_idx] + d
                    gc = self.gradient(cand, b)
                    if float(np.max(np.abs(gc[self.free]))) < gn:
                        log.debug("roundoff regime: full Newton step accepted at |grad|=%.3e", gn)
                        step = (cand, 1.0, None)
            if step is None:
                log.debug("gradient-descent fallback at |grad|=%.3e (step %.3e)", gn, fallback_step)
                d = -g[self.free]
                step = self._armijo(w, b, g, d, fallback_step, j)
                if step is None:
                    break
                fallback_step = 2.0 * step[1]
            w, _, j = step
        g = self.gradient(w, b)
        gn = float(np.max(np.abs(g[self.free])))
        if gn <= max(gtol, gtol_soft):
            return w
        if not raise_on_stall:
            log.debug("inner Newton stalled at |grad|=%.3e (target %.1e); best iterate returned",
                      gn, gtol)
            return w
        raise ConvergenceError(
            f"inner Newton stalled at |grad|={gn:.3e} (target {gtol:.1e})",
            best=w,
            diagnostics={"gnorm": gn, "gtol": gtol},
        )

    def _newton_direction(self, w, g):
        h = self.hessian(w)
        gf = g[self.free_idx]
        dscale = float(np.mean(np.abs(h.diagonal()))) + 1e-300
        tau = 0.0
        for _ in range(9):
            try:
                d = self._pattern.factor(h, tau)(-gf)
            except (np.linalg.LinAlgError, RuntimeError) as exc:
                log.debug("Hessian factorization failed at tau=%.3e: %s", tau, exc)
                d = None
            if d is not None and np.all(np.isfinite(d)) and float(np.dot(gf, d)) < 0:
                return d
            tau = 1e-8 * dscale if tau == 0.0 else 100.0 * tau
            if tau > 1e6 * dscale:
                break
            log.debug("Newton ridge escalated to tau=%.3e", tau)
        return None

    def _armijo(self, w, b, g, d, t0, j0):
        """Backtrack from t0 along d; returns (w + t d, t, J(w + t d)) or None."""
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
            j = self.objective(cand, b)
            if j <= j0 + _ARMIJO_SLOPE * t * slope:
                return cand, t, j
            t *= _ARMIJO_FACTOR
        return None
