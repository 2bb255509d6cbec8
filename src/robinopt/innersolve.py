"""Damped-Newton solver for the convex inner problems.

Every outer iteration of the eigensolver and every Picard step of the
auxiliary problem minimizes

    J(w) = (1/p) [ integral |grad w|^p + integral_bdry sigma |w|^p ] - <b, w>

over the free nodes (constrained nodes are pinned to zero). The functional
is strictly convex for p > 1, so the minimizer is unique.

Strategy: up to _MAX_NEWTON Newton steps on the (eps-regularized for p < 2)
system, globalized by a Levenberg ridge tau I alone (Li, Fukushima, Qi and
Yamashita, Comput. Optim. Appl. 28, 2004): tau = 0 first, escalated until
Armijo backtracking (factor 0.5, slope 1e-4) or the roundoff regime accepts a
step; as tau grows the direction tends to steepest descent.
For p = 2 the problem is quadratic: linear_solve factors the pencil H - shift M
of the problem's constant H and M at every shift, 0 included, and keeps one
factorization, refreshed only when its shift changes, so each solve is one
pair of triangular solves, with no refinement (in working precision it lowers
the residual, not the cond * eps error).

J's energy is the Rayleigh numerator, the energy.numerator_terms PowerTerms,
each built once with its c L^T L blocks. Each problem lays out a free-free
Hessian pattern from their element arrays, with the free nodes in the mesh's
Cuthill-McKee order, and each Hessian is one scatter of the element blocks
into it; shifted alone forms H(w) - s M(z), M(z) the mass term's Hessian: the
p = 2 pencil, the auxiliary Newton Jacobian and eigenpair_newton's matrix.
Every Newton direction and every linear_solve is one banded Cholesky
factorization (LAPACK dpbtrf; the band is about 1.2 sqrt(n) wide on 2D
meshes) in the problem's work band, which no other module sees.

eigenpair_newton polishes a nearby eigenpair of the eigensolver's problem by
Newton on (u, lambda), bordered by the constraint on integral |u|^p (Keller's
bordering algorithm; Govaerts, Numerical Methods for Bifurcations of Dynamical
Equilibria, SIAM 2000). Its matrix H_N - lambda H_D, with H_D the mass term's
cell blocks scattered into the same pattern, is indefinite in general, so
each step is one banded LU (LAPACK dgbtrf, kl = ku = kd) in a second work band,
filled from the same stored entries as the Cholesky band.

The four LAPACK routines are scipy.linalg.lapack's compiled functions, loaded
(or reused) from scipy's f2py extension file scipy/linalg/_flapack without
importing the scipy.linalg package (about 300 modules); where that file cannot
be loaded, they come from scipy.linalg.lapack, with one DEBUG event.
"""

from __future__ import annotations

import logging
import os
import sys
from functools import cached_property
from importlib import machinery, util

import numpy as np

from . import energy as en
from .errors import ConvergenceError

_ARMIJO_SLOPE = 1e-4
_ARMIJO_FACTOR = 0.5
_MAX_NEWTON = 200
_MAX_BORDERED = 16

log = logging.getLogger("robinopt")


def _lapack(scipy_dir=None):
    """(dgbtrf, dgbtrs, dpbtrf, dpbtrs) from the _flapack file under scipy_dir (default: scipy's)."""
    names, name = ("dgbtrf", "dgbtrs", "dpbtrf", "dpbtrs"), "scipy.linalg._flapack"
    try:
        flapack = sys.modules.get(name)
        if flapack is None:
            base = os.path.join(scipy_dir or util.find_spec("scipy").submodule_search_locations[0],
                                "linalg", "_flapack")
            path = next(base + s for s in machinery.EXTENSION_SUFFIXES if os.path.isfile(base + s))
            loader = machinery.ExtensionFileLoader(name, path)
            flapack = util.module_from_spec(util.spec_from_loader(name, loader))
            loader.exec_module(flapack)
            # registered by f2py's single-phase init without its package; a later
            # scipy.linalg import registers the same functions from the extension cache
            sys.modules.pop(name, None)
        return tuple(getattr(flapack, n) for n in names)
    except Exception as exc:  # whatever the cause, the documented import path still works
        log.debug("scipy's LAPACK extension file not loaded (%r); importing scipy.linalg.lapack", exc)
        from scipy.linalg import lapack
        return tuple(getattr(lapack, n) for n in names)


dgbtrf, dgbtrs, dpbtrf, dpbtrs = _lapack()


def _default_gtol(b):
    """The max-norm gradient at which a solve for the load b stops by default."""
    return 1e-12 * (1.0 + float(np.max(np.abs(b))))


@en._built_once
def _node_order(mesh):
    """Cuthill-McKee order of the mesh's nodes, a bandwidth-reducing order:
    breadth-first by levels from a node of least degree (the lowest such
    index, so the order is the natural one on an interval), each level's new
    nodes grouped by the first node of the previous level they touch and
    sorted by degree, then index, within a group."""
    n, (lo, hi) = mesh.n_nodes, mesh.edges.T
    src, dst = np.divmod(np.sort(np.concatenate([lo * n + hi, hi * n + lo])), n)
    indptr = np.searchsorted(src, np.arange(n + 1))
    degree = np.diff(indptr)
    order, seen = [], np.zeros(n, dtype=bool)
    while not seen.all():  # one connected part per pass
        unseen = np.flatnonzero(~seen)
        level = unseen[[np.argmin(degree[unseen])]]
        while len(level):
            seen[level] = True
            order.append(level)
            counts = degree[level]
            nbrs = dst[np.repeat(indptr[level] - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())]
            group = np.repeat(np.arange(len(level)), counts)[~seen[nbrs]]
            nbrs = nbrs[~seen[nbrs]]
            nbrs = nbrs[np.lexsort((nbrs, degree[nbrs], group))]
            level = nbrs[np.sort(np.unique(nbrs, return_index=True)[1])]
    return np.concatenate(order)


class _Pattern:
    """Free-free Hessian layout of one problem, in free_idx order, and its
    banded Cholesky factorization in LAPACK lower band storage: a
    Fortran-ordered (kd + 1, n) array ab with ab[i - j, j] = H[i, j].

    A Hessian is its stored entries (the lower band entries some element
    touches, and every diagonal) at flat positions `band_pos` of ab. `slot[k]`
    is the stored entry of element entry k, in ConvexPEnergyProblem.hessian's
    order; upper-triangle entries (the blocks are symmetric) and pinned nodes
    go to the extra slot `size`. `diag` holds the diagonal's stored entries.

    An indefinite matrix of the same pattern is factored by banded LU in
    LAPACK general band storage instead (`lu`): a Fortran-ordered
    (3 kd + 1, n) array with ab[2 kd + i - j, j] = H[i, j], whose top kd rows
    are left free for the pivoting's fill-in. Its stored entries sit at
    band_pos shifted 2 kd rows down, and its upper band is the mirror of the
    lower.
    """

    def __init__(self, n_nodes, elems, free_idx):
        n = len(free_idx)
        pos = np.full(n_nodes, -1, dtype=np.intp)
        pos[free_idx] = np.arange(n)
        rows = np.concatenate([pos[np.repeat(e, e.shape[1], axis=1)].ravel() for e in elems])
        cols = np.concatenate([pos[np.tile(e, (1, e.shape[1]))].ravel() for e in elems])
        keep = (rows >= cols) & (cols >= 0)
        self.n = n
        self.kd = int(np.max(rows[keep] - cols[keep], initial=0))
        flat = np.concatenate([cols[keep] * self.kd + rows[keep], np.arange(n) * (self.kd + 1)])
        self.band_pos, stored = np.unique(flat, return_inverse=True)
        self.size = len(self.band_pos)
        self.slot = np.full(len(rows), self.size, dtype=np.intp)
        self.slot[keep] = stored[: len(stored) - n]
        self.diag = stored[len(stored) - n:]
        # the work band: made by the first factorization and reused by the
        # later ones (a fresh (kd + 1) x n array per Newton direction costs
        # more in page faults than dpbtrf)
        self._flat = None
        self._gb_flat = None  # the same for lu, in general band storage
    def lu(self, h):
        """A solve function for the symmetric, possibly indefinite matrix with
        stored entries h, by banded LU with partial pivoting (LAPACK dgbtrf,
        kl = ku = kd), valid until the next call; it takes one right-hand side
        per column.

        Raises np.linalg.LinAlgError when a pivot is zero.
        """
        kd = self.kd
        if self._gb_flat is None:
            self._gb_flat = np.zeros((3 * kd + 1) * self.n)
        self._gb_flat[:] = 0.0
        # column j's lower band moves from ab[0:, j] to ab[2 kd:, j]
        self._gb_flat[self.band_pos + 2 * kd * (self.band_pos // (kd + 1) + 1)] = h
        ab = self._gb_flat.reshape((3 * kd + 1, self.n), order="F")
        for off in range(1, kd + 1):  # the upper band mirrors the lower
            ab[2 * kd - off, off:] = ab[2 * kd + off, : self.n - off]
        lu, ipiv, info = dgbtrf(ab, kd, kd, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"banded LU failed at pivot {info}")
        return lambda r: dgbtrs(lu, kd, kd, r, ipiv)[0]

    def factor(self, h, tau=0.0):
        """A solve function for the matrix with stored entries h plus tau I,
        valid until the next call: the factor lives in the work band.

        Raises np.linalg.LinAlgError when the factorization fails.
        """
        if self._flat is None:
            self._flat = np.zeros((self.kd + 1) * self.n)
        self._flat[:] = 0.0
        self._flat[self.band_pos] = h
        ab = self._flat.reshape((self.kd + 1, self.n), order="F")
        ab[0] += tau
        c, info = dpbtrf(ab, lower=1, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"banded Cholesky failed at pivot {info}")
        return lambda r: dpbtrs(c, r, lower=1)[0]


class ConvexPEnergyProblem:
    """min_w (1/p) R(w) - <b, w> with optional boundary weight and pinned nodes."""

    def __init__(self, mesh, params: en.SolverParams, weight=None, fixed_nodes=None):
        self._terms = en.numerator_terms(mesh, weight)
        self.mesh = mesh
        self.p = float(params.p)
        self.weight = weight
        self.eps = float(params.eps_reg)
        self.free = np.ones(mesh.n_nodes, dtype=bool)
        if fixed_nodes is not None:
            self.free[np.asarray(fixed_nodes, dtype=int)] = False
        # Cuthill-McKee order: the order of every free-node vector and Hessian row
        order = _node_order(mesh)
        self.free_idx = order[self.free[order]]
        self._shift, self._factor = None, None  # linear_solve's last factor; at p = 2 its shift

    @cached_property
    def _pattern(self):
        return _Pattern(self.mesh.n_nodes, [t.elems for t in self._terms], self.free_idx)

    @cached_property
    def _pencil(self):
        # p = 2 solves: the stored entries of H (the same at every w) and of M
        return self.hessian(np.zeros(self.mesh.n_nodes)), self.stored(en.mass_blocks(self.mesh))

    # -- functional pieces -------------------------------------------------

    def objective(self, w, b):
        with np.errstate(over="ignore", invalid="ignore"):  # at rejected line-search trials
            return sum(t.value(w, self.p) for t in self._terms) / self.p - float(np.dot(b, w))

    def gradient(self, w, b):
        with np.errstate(over="ignore", invalid="ignore"):
            return sum(t.action(w, self.p, self.eps) for t in self._terms) - b

    def hessian(self, w):
        """Free-free Hessian of J at w: its stored entries in self._pattern."""
        return self.stored(np.concatenate([t.blocks(w, self.p, self.eps).ravel() for t in self._terms]))

    def stored(self, blocks):
        """Stored entries in self._pattern of the free-free matrix with element
        blocks `blocks`, laid out like the terms' blocks in hessian, or cell
        blocks alone (the stiffness term's cells come first there)."""
        pattern = self._pattern
        blocks = np.ravel(blocks)
        return np.bincount(pattern.slot[: len(blocks)], weights=blocks,
                           minlength=pattern.size + 1)[: pattern.size]

    # -- solve --------------------------------------------------------------

    def shifted(self, shift, w=None, z=None):
        """Stored entries of H(w) - shift M(z), H(w) J's Hessian at w and M(z)
        the mass term's at z. At p = 2 these are the problem's constant H and
        consistent mass matrix, and w and z (required otherwise) do not apply."""
        if self.p == 2.0:
            h, m = self._pencil
            return h - shift * m
        return self.hessian(w) - shift * self.stored(en.mass_term(self.mesh).blocks(z, self.p))

    def linear_solve(self, b, shift=0.0, w=None, z=None):
        """The full nodal x (pinned entries zero) with shifted(shift, w, z) x = b
        on the free nodes, by one banded Cholesky factorization. At p = 2 the
        factor is kept and redone only when the shift changes. A failed
        factorization (the matrix not positive definite) raises LinAlgError.
        """
        if shift != self._shift:  # always at p != 2, where _shift stays None
            pattern = self._pattern  # built before H's element blocks: a lower peak RSS
            self._shift = None  # the work band is rewritten below
            self._factor = pattern.factor(self.shifted(shift, w, z))
            self._shift = shift if self.p == 2.0 else None
        x = np.zeros(self.mesh.n_nodes)
        x[self.free_idx] = self._factor(np.asarray(b, dtype=float)[self.free_idx])
        return x

    def eigenpair_newton(self, u, lam):
        """Newton on the eigenpair (w, lam) from (u, lam): grad N(w) = lam
        grad D(w) on the free nodes and D(w) = 1/p, with N(w) = R(w)/p the
        energy of J, D(w) = integral |w|^p / p and w's pinned entries zero.

        Each step is Keller's bordering: with A = shifted(lam, w, w) = H_N -
        lam H_D, g = grad D(w), r the residual and c = D(w) - 1/p, one banded
        LU of A gives A z1 = -r and A z2 = g, then dlam = (-c - g.z1) / (g.z2)
        and dw = z1 + dlam z2. A is indefinite whenever lam exceeds the first
        eigenvalue of the linearization, so LU, not Cholesky. Returns (w, lam)
        once the residual is within solve(lam g)'s default gtol, so that the
        eigensolver's outer residual test accepts w without a step.

        Raises np.linalg.LinAlgError when a factorization fails or a step is
        not finite, and ConvergenceError after _MAX_BORDERED steps.
        """
        mass = en.mass_term(self.mesh)
        free = self.free_idx
        w = np.array(u, dtype=float)
        w[~self.free] = 0.0
        for step in range(_MAX_BORDERED + 1):
            g = mass.action(w, self.p)
            b = lam * g
            r = self.gradient(w, b)[free]
            rn = float(np.max(np.abs(r)))
            if rn <= _default_gtol(b):
                return w, lam
            if step == _MAX_BORDERED:
                break
            z = self._pattern.lu(self.shifted(lam, w, w))(np.column_stack([-r, g[free]]))
            c = (mass.value(w, self.p) - 1.0) / self.p
            dlam = (-c - g[free] @ z[:, 0]) / (g[free] @ z[:, 1])
            if not (np.isfinite(dlam) and np.all(np.isfinite(z))):
                raise np.linalg.LinAlgError("bordered Newton step is not finite")
            w[free] += z[:, 0] + dlam * z[:, 1]
            lam += dlam
        raise ConvergenceError(
            f"eigenpair Newton stalled at |r|={rn:.3e} after {_MAX_BORDERED} steps",
            diagnostics={"rnorm": rn, "lam": lam},
        )

    def solve(self, b, w0=None, gtol=None, gtol_soft=None, g0=None):
        """Minimize J; returns the full nodal vector (pinned entries zero).

        For p = 2, J is quadratic: the result is linear_solve(b), and w0,
        gtol, gtol_soft and g0 do not apply.

        Otherwise Newton converges from w0 to max-norm gradient gtol. When
        progress stops above gtol (after _MAX_NEWTON steps, or when no ridge
        is accepted: tau = 0, then 100-fold up to 1e12 max(dscale, |g|inf),
        none when that cap is not finite), the best iterate is returned if its
        gradient is below gtol_soft (gtol_soft = inf leaves the judgment to
        the caller's own convergence test), else a ConvergenceError is raised.
        A caller that holds gradient(w0, b) (w0 zero on the pinned nodes)
        passes it as g0, and the first Newton step does not recompute it.
        """
        if self.p == 2.0:
            return self.linear_solve(b)
        b = np.asarray(b, dtype=float)
        if gtol is None:
            gtol = _default_gtol(b)
        if gtol_soft is None:
            gtol_soft = gtol
        w = np.zeros(self.mesh.n_nodes) if w0 is None else np.array(w0, dtype=float)
        w[~self.free] = 0.0

        j = None  # J(w), carried over from the accepted step
        for steps in range(_MAX_NEWTON + 1):
            g = self.gradient(w, b) if g0 is None else g0
            gn = float(np.max(np.abs(g[self.free])))
            if gn <= gtol or steps == _MAX_NEWTON:
                break
            if j is None:
                j = self.objective(w, b)
            step = self._newton_step(w, b, g, gn, j)
            if step is None:
                break
            w, j, g0 = step
        if gn <= max(gtol, gtol_soft):
            if gn > gtol:
                log.debug("inner Newton stalled at |grad|=%.3e (target %.1e); "
                          "best iterate returned", gn, gtol)
            return w
        raise ConvergenceError(
            f"inner Newton stalled at |grad|={gn:.3e} (target {gtol:.1e})",
            best=w,
            diagnostics={"gnorm": gn, "gtol": gtol},
        )

    def _newton_step(self, w, b, g, gn, j0):
        """One damped Newton step from w, with J(w) = j0 and gradient g of
        free max-norm gn: (w_new, J(w_new) or None, its gradient or None), or
        None when no ridge makes progress: tau = 0, then max(1e-8 dscale, gn)
        and 100-fold up to 1e12 max(dscale, gn), dscale the mean |diagonal|
        of the Hessian; none when that cap is not finite (a NaN or infinite diagonal)."""
        h = self.hessian(w)
        gf = g[self.free_idx]
        dscale = float(np.mean(np.abs(h[self._pattern.diag]))) + 1e-300
        resolution = 1e-15 * (1.0 + abs(j0))  # the float resolution of J
        tau, cap = 0.0, 1e12 * max(dscale, gn)
        while tau <= cap < np.inf:
            if tau:
                log.debug("Newton ridge escalated to tau=%.3e", tau)
            try:
                d = self._pattern.factor(h, tau)(-gf)
            except np.linalg.LinAlgError as exc:
                log.debug("Hessian factorization failed at tau=%.3e: %s", tau, exc)
                d = None
            slope = float(np.dot(gf, d)) if d is not None and np.all(np.isfinite(d)) else 0.0
            if slope < 0.0:  # a finite descent direction: Armijo backtracking from t = 1
                for t in _ARMIJO_FACTOR ** np.arange(60):
                    if abs(t * slope) < resolution:
                        break  # an acceptance here would be rounding noise, not progress
                    cand = w.copy()
                    cand[self.free_idx] = w[self.free_idx] + t * d
                    j = self.objective(cand, b)
                    if j <= j0 + _ARMIJO_SLOPE * t * slope:
                        return cand, j, None
                # terminal roundoff regime: objective comparisons are noise,
                # accept the full Newton step if it shrinks the gradient
                cand = w.copy()
                cand[self.free_idx] = w[self.free_idx] + d
                gc = self.gradient(cand, b)
                if float(np.max(np.abs(gc[self.free]))) < gn:
                    log.debug("roundoff regime: full Newton step accepted at |grad|=%.3e", gn)
                    return cand, None, gc
                if abs(slope) < resolution:
                    return None  # a larger ridge only shortens a step that changes nothing
            tau = 100.0 * tau if tau else max(1e-8 * dscale, gn)
        return None
