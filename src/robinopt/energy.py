"""Discrete p-Dirichlet energy, boundary terms, Rayleigh quotient and flux recovery.

All functionals act on piecewise-linear (P1) nodal fields:

* the gradient term  integral |grad u|^p  is quadrature-exact (cell gradients
  are constant),
* interior p-mass integrals use a fixed low-order Gauss rule on the P1
  interpolant (2-point per cell in 1D, 3-point edge-midpoint rule in 2D),
* boundary densities are integrated facet-wise with the same 2-point rule on
  the P1 trace; Dirac atoms contribute mass * |u(node)|^p.

The derivative assemblies are the exact derivatives of these discrete
functionals, except that for p < 2 the singular factors |.|^{p-2} are
smoothed as (|.|^2 + eps_reg^2)^{(p-2)/2} inside derivatives only: energy and
Rayleigh values are never regularized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, RobinoptError
from .mesh import Mesh

__all__ = [
    "NodalField",
    "BoundaryWeight",
    "SolverParams",
    "NodalFlux",
    "grad_energy",
    "boundary_term",
    "lp_norm_p",
    "rayleigh_numerator",
    "rayleigh",
    "weak_residual",
    "rayleigh_gradient",
    "recover_flux",
    "random_weight",
    "write_weight",
    "read_weight",
    "write_field",
    "read_field",
]

# cell Gauss rules on the P1 interpolant: rows = points, columns = hat values
_G1 = 0.5 / np.sqrt(3.0)
_PHI_CELL_1D = np.array([[0.5 + _G1, 0.5 - _G1], [0.5 - _G1, 0.5 + _G1]])
_W_CELL_1D = np.array([0.5, 0.5])
_PHI_CELL_2D = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
_W_CELL_2D = np.array([1.0, 1.0, 1.0]) / 3.0
# facet rules: point evaluation in 1D, 2-point Gauss on the trace in 2D
_PHI_FACET_1D = np.array([[1.0]])
_W_FACET_1D = np.array([1.0])
_PHI_FACET_2D = _PHI_CELL_1D
_W_FACET_2D = _W_CELL_1D


def _cell_rule(mesh):
    return (_PHI_CELL_1D, _W_CELL_1D) if mesh.dim == 1 else (_PHI_CELL_2D, _W_CELL_2D)


def _facet_rule(mesh):
    return (_PHI_FACET_1D, _W_FACET_1D) if mesh.dim == 1 else (_PHI_FACET_2D, _W_FACET_2D)


@dataclass
class NodalField:
    """Piecewise-linear scalar function given by one value per mesh node."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if self.values.shape[0] != self.mesh.n_nodes:
            raise ConfigError("field length does not match node count")
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("field contains non-finite values")

    @classmethod
    def constant(cls, mesh, value=1.0):
        return cls(mesh, np.full(mesh.n_nodes, float(value)))


@dataclass
class SolverParams:
    """Exponent p plus the solver knobs shared by all iterative solvers."""

    p: float
    tol_rq: float = 1e-9       # relative Rayleigh-quotient stall
    tol_res: float = 1e-8      # weak-residual max-norm
    max_outer: int = 500
    eps_reg: float = 1e-10     # derivative smoothing for p < 2
    seed: int = 0
    tol_aux: float = 1e-9      # stall factor for the auxiliary Picard iteration
    max_picard: int = 500_000
    max_inner: int = 200       # Newton iterations per convex subproblem

    def __post_init__(self):
        if not (1.1 <= self.p <= 10.0):
            raise ConfigError(f"p={self.p} outside the supported range [1.1, 10]")
        if min(self.tol_rq, self.tol_res, self.tol_aux) <= 0:
            raise ConfigError("tolerances must be positive")


@dataclass
class BoundaryWeight:
    """A nonnegative boundary weight of fixed total mass.

    Per-facet constant densities, point masses (atoms) at boundary nodes, or
    both; `kind` names which. Off-node Dirac requests snap to the nearest
    boundary node and record the snap distance.
    """

    mesh: Mesh
    facet_density: np.ndarray | None = None
    atoms: list = field(default_factory=list)
    snap_distance: float = 0.0

    def __post_init__(self):
        if self.facet_density is not None:
            self.facet_density = np.asarray(self.facet_density, dtype=float).reshape(-1)
            if self.facet_density.shape[0] != len(self.mesh.boundary_facets):
                raise ConfigError("facet density length does not match facet count")
            if np.any(self.facet_density < 0):
                raise ConfigError("facet densities must be nonnegative")
        self.atoms = [(int(n), float(m)) for n, m in self.atoms]
        for n, m in self.atoms:
            if m < 0:
                raise ConfigError("atom masses must be nonnegative")
            if not (0 <= n < self.mesh.n_nodes and self.mesh.node_is_boundary[n]):
                raise ConfigError(f"atom node {n} is not a boundary node")

    @property
    def kind(self):
        """'facet_density', 'dirac' (atoms only) or 'mixed'."""
        if self.atoms:
            return "dirac" if self.facet_density is None else "mixed"
        return "facet_density"

    @property
    def total_mass(self):
        m = 0.0
        if self.facet_density is not None:
            m += float(np.dot(self.facet_density, self.mesh.facet_measures))
        m += sum(a[1] for a in self.atoms)
        return m

    @classmethod
    def from_facet_density(cls, mesh, density):
        return cls(mesh, facet_density=density)

    @classmethod
    def constant(cls, mesh, total_mass):
        dens = np.full(len(mesh.boundary_facets), total_mass / mesh.boundary_measure)
        return cls(mesh, facet_density=dens)

    @classmethod
    def dirac(cls, mesh, where, mass):
        """Dirac mass at a boundary node; `where` is a node index or a point."""
        if np.ndim(where) == 0:
            node, snap = int(where), 0.0
        else:
            node, snap = mesh.nearest_boundary_node(where)
        return cls(mesh, atoms=[(node, float(mass))], snap_distance=snap)

    @classmethod
    def from_nodal_masses(cls, mesh, nodes, masses):
        return cls(mesh, atoms=list(zip(nodes, masses)))


def random_weight(mesh, mass, rng):
    """Random facet densities, normalized to the requested total mass."""
    dens = rng.uniform(0.1, 1.0, size=len(mesh.boundary_facets))
    dens *= mass / np.dot(dens, mesh.facet_measures)
    return BoundaryWeight.from_facet_density(mesh, dens)


# ---------------------------------------------------------------------------
# primitive assemblies
# ---------------------------------------------------------------------------

def _values(u):
    return u.values if isinstance(u, NodalField) else np.asarray(u, dtype=float)


def _signed_power(v, q):
    """sign(v) * |v|^q, safe at v = 0 for q > 0."""
    return np.sign(v) * np.abs(v) ** q


def _pm2_coef(s2, p, eps):
    """(s2 [+ eps^2])^{(p-2)/2}; smoothing active only for p < 2."""
    if p < 2.0:
        return (s2 + eps * eps) ** ((p - 2.0) / 2.0)
    return s2 ** ((p - 2.0) / 2.0)


def cell_gradients(mesh, u):
    """Constant gradient of the P1 field on every cell, shape (C, dim)."""
    return np.einsum("cdv,cv->cd", mesh.cell_grads, _values(u)[mesh.cells])


def gauss_values(mesh, u):
    """Field values at the cell Gauss points, shape (C, nq)."""
    phi, _ = _cell_rule(mesh)
    return _values(u)[mesh.cells] @ phi.T


def integrate_gauss(mesh, vals):
    """Integral of per-Gauss-point values over the mesh."""
    _, w = _cell_rule(mesh)
    return float(np.dot(mesh.cell_measures, vals @ w))


def assemble_load(mesh, vals):
    """Nodal load b_i = sum_cells meas * sum_q w_q vals_q phi_i(x_q).

    For vals sampled from a P1 field this equals the exact consistent-mass
    product (the rules integrate P1 x P1 products exactly).
    """
    phi, w = _cell_rule(mesh)
    contrib = (vals * w) @ phi * mesh.cell_measures[:, None]
    return np.bincount(
        mesh.cells.ravel(), weights=contrib.ravel(), minlength=mesh.n_nodes
    )


def mass_action(mesh, u, p):
    """Nodal assembly of phi_i -> integral |u|^{p-2} u phi_i (Gauss rule)."""
    return assemble_load(mesh, _signed_power(gauss_values(mesh, u), p - 1.0))


def p_stiffness_action(mesh, u, p, eps=0.0):
    """Nodal assembly of phi_i -> integral |grad u|^{p-2} grad u . grad phi_i."""
    g = cell_gradients(mesh, u)
    s2 = np.einsum("cd,cd->c", g, g)
    # overflow in rejected line-search trial points is expected; the nan
    # propagates to the caller, which discards the trial
    with np.errstate(over="ignore", invalid="ignore"):
        flux = _pm2_coef(s2, p, eps)[:, None] * g
        contrib = np.einsum("cd,cdv->cv", flux, mesh.cell_grads) * mesh.cell_measures[:, None]
    return np.bincount(
        mesh.cells.ravel(), weights=contrib.ravel(), minlength=mesh.n_nodes
    )


def p_stiffness_hessian(mesh, u, p, eps=0.0):
    """Cell blocks (C, nv, nv) of the Hessian of w -> (1/p) integral |grad w|^p
    at w = u (smoothed); block c couples the nodes mesh.cells[c]."""
    g = cell_gradients(mesh, u)
    s2 = np.einsum("cd,cd->c", g, g)
    coef = _pm2_coef(s2, p, eps)
    if p == 2.0:
        fac = np.zeros_like(s2)
    elif p < 2.0:
        fac = (p - 2.0) * (s2 + eps * eps) ** ((p - 4.0) / 2.0)
    else:
        safe = np.where(s2 > 0, s2, 1.0)
        fac = np.where(s2 > 0, (p - 2.0) * safe ** ((p - 4.0) / 2.0), 0.0)
    dim = mesh.dim
    jac = coef[:, None, None] * np.eye(dim)[None, :, :] + fac[:, None, None] * (
        g[:, :, None] * g[:, None, :]
    )
    blocks = np.einsum("cdv,cde,cew->cvw", mesh.cell_grads, jac, mesh.cell_grads)
    blocks *= mesh.cell_measures[:, None, None]
    return blocks


def _facet_values(mesh, u):
    phi, _ = _facet_rule(mesh)
    return _values(u)[mesh.boundary_facets] @ phi.T


def boundary_action(w: BoundaryWeight, u, p):
    """Nodal assembly of phi_i -> integral_bdry sigma |u|^{p-2} u phi_i."""
    mesh = w.mesh
    out = np.zeros(mesh.n_nodes)
    if w.facet_density is not None:
        phi, wq = _facet_rule(mesh)
        vals = _signed_power(_facet_values(mesh, u), p - 1.0)
        scale = (w.facet_density * mesh.facet_measures)[:, None]
        contrib = (vals * wq) @ phi * scale
        out += np.bincount(
            mesh.boundary_facets.ravel(), weights=contrib.ravel(), minlength=mesh.n_nodes
        )
    uv = _values(u)
    for n, m in w.atoms:
        out[n] += m * _signed_power(uv[n], p - 1.0)
    return out


def boundary_hessian(w: BoundaryWeight, u, p, eps=0.0):
    """Hessian of v -> (1/p) integral_bdry sigma |v|^p at v = u, as element parts.

    Returns facet blocks (B, nvf, nvf) coupling mesh.boundary_facets (B = 0
    without a facet density) and one diagonal entry per atom of w.atoms.
    """
    mesh = w.mesh
    nv = mesh.boundary_facets.shape[1]
    blocks = np.zeros((0, nv, nv))
    if w.facet_density is not None:
        phi, wq = _facet_rule(mesh)
        vals = _facet_values(mesh, u)
        coef = (p - 1.0) * _pm2_coef(vals * vals, p, eps)
        scale = (w.facet_density * mesh.facet_measures)[:, None]
        d = coef * wq * scale  # (B, nq)
        blocks = np.einsum("bq,qv,qw->bvw", d, phi, phi)
    uv = _values(u)[[a[0] for a in w.atoms]]
    ms = np.array([a[1] for a in w.atoms], dtype=float)
    return blocks, (p - 1.0) * ms * _pm2_coef(uv**2, p, eps)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def grad_energy(u, p) -> float:
    """integral_Omega |grad u|^p, exact for P1 fields."""
    mesh = u.mesh
    g = cell_gradients(mesh, u)
    s = np.sqrt(np.einsum("cd,cd->c", g, g))
    with np.errstate(over="ignore"):
        return float(np.dot(mesh.cell_measures, s**p))


def boundary_term(u, w: BoundaryWeight, p) -> float:
    """integral_bdry sigma |u|^p (facet Gauss rule) plus sum of atom masses * |u(node)|^p."""
    mesh = u.mesh
    if mesh is not w.mesh:
        raise ConfigError("field and weight live on different meshes")
    total = 0.0
    if w.facet_density is not None:
        _, wq = _facet_rule(mesh)
        vals = np.abs(_facet_values(mesh, u)) ** p
        total += float(np.dot(w.facet_density * mesh.facet_measures, vals @ wq))
    for n, m in w.atoms:
        total += m * abs(u.values[n]) ** p
    return total


def lp_norm_p(u, p) -> float:
    """integral_Omega |u|^p via the fixed cell Gauss rule (p-th power, not the norm)."""
    return integrate_gauss(u.mesh, np.abs(gauss_values(u.mesh, u)) ** p)


def rayleigh_numerator(u, w: BoundaryWeight | None, p) -> float:
    """grad_energy + boundary_term; w=None drops the boundary term."""
    num = grad_energy(u, p)
    if w is not None:
        num += boundary_term(u, w, p)
    return num


def rayleigh(u, w: BoundaryWeight | None, p) -> float:
    """Q[sigma, u] = rayleigh_numerator / lp_norm_p."""
    den = lp_norm_p(u, p)
    if den <= 0.0:
        raise ConfigError("Rayleigh quotient undefined for u == 0")
    return rayleigh_numerator(u, w, p) / den


def weak_residual(u, w: BoundaryWeight | None, p, q, eps_reg) -> np.ndarray:
    """Nodal weak-form residual p_stiffness_action - q mass_action + boundary_action.

    With q = 0 it is the derivative of rayleigh_numerator / p.
    """
    mesh = u.mesh
    r = p_stiffness_action(mesh, u, p, eps_reg)
    if q:
        r = r - q * mass_action(mesh, u, p)
    if w is not None:
        r += boundary_action(w, u, p)
    return r


def rayleigh_gradient(u, w: BoundaryWeight | None, p, eps_reg=1e-10) -> NodalField:
    """Nodal gradient of the Rayleigh quotient at u.

    Equals p/||u||_p^p times weak_residual at q = Q[sigma, u]; it vanishes
    exactly at discrete eigenfunctions. For p < 2 the singular derivative
    factors are smoothed by eps_reg; energy values are not.
    """
    den = lp_norm_p(u, p)
    if den <= 0.0:
        raise ConfigError("Rayleigh gradient undefined for u == 0")
    q = rayleigh_numerator(u, w, p) / den
    return NodalField(u.mesh, (p / den) * weak_residual(u, w, p, q, eps_reg))


@dataclass
class NodalFlux:
    """Variational boundary flux: one mass per boundary node."""

    mesh: Mesh
    nodes: np.ndarray
    masses: np.ndarray

    @property
    def total(self):
        return float(np.sum(self.masses))

    def as_weight(self, scale=1.0, clip_tol=1e-10):
        """Convert to a Dirac-type BoundaryWeight, clipping roundoff negatives."""
        m = scale * self.masses
        if np.any(m < -clip_tol * max(1.0, np.max(np.abs(m)))):
            raise RobinoptError("flux has significantly negative entries")
        return BoundaryWeight.from_nodal_masses(self.mesh, self.nodes, np.maximum(m, 0.0))

    def as_facet_density(self, scale=1.0):
        """Equivalent per-facet density, splitting each nodal mass equally
        among its adjacent facets; conserves the total mass exactly."""
        mesh = self.mesh
        degree = np.zeros(mesh.n_nodes)
        for f in mesh.boundary_facets:
            degree[f] += 1.0
        nodal = np.zeros(mesh.n_nodes)
        nodal[self.nodes] = scale * self.masses
        dens = np.zeros(len(mesh.boundary_facets))
        for k, (f, fm) in enumerate(zip(mesh.boundary_facets, mesh.facet_measures)):
            dens[k] = sum(nodal[i] / degree[i] for i in f) / fm
        return dens


def recover_flux(u, rhs_coeffs, p, *, load=None, eps_reg=1e-10, tol_res=1e-8) -> NodalFlux:
    """Consistent boundary flux of a discrete interior solution.

    Given u solving the interior equations A_i(u) = b_i (i interior) with the
    load b assembled from the P1 interpolant of rhs_coeffs (or passed
    pre-assembled via `load`), returns the boundary masses
    g_i = b_i - A_i(u). Their sum equals the total load exactly up to the
    interior residual: the discrete divergence identity.
    """
    mesh = u.mesh
    b = assemble_load(mesh, gauss_values(mesh, rhs_coeffs)) if load is None else load
    r = b - p_stiffness_action(mesh, u, p, eps_reg)
    interior = ~mesh.node_is_boundary
    worst = float(np.max(np.abs(r[interior]))) if interior.any() else 0.0
    if worst > tol_res:
        raise RobinoptError(
            f"not a discrete solution: interior residual {worst:.3e} > {tol_res:.1e}"
        )
    bnodes = mesh.boundary_nodes()
    return NodalFlux(mesh, bnodes, r[bnodes])


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def write_weight(w: BoundaryWeight, path):
    """Text format: 'bw 1 <mass>' then 'facet <i> <density>' / 'atom <node> <mass>' lines."""
    lines = [f"bw 1 {w.total_mass!r}"]
    if w.facet_density is not None:
        for i, d in enumerate(w.facet_density):
            lines.append(f"facet {i} {float(d)!r}")
    for n, m in w.atoms:
        lines.append(f"atom {n} {m!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_weight(mesh, path) -> BoundaryWeight:
    with open(path) as fh:
        lines = [ln.split() for ln in fh.read().splitlines() if ln.strip()]
    if not lines or lines[0][:2] != ["bw", "1"] or len(lines[0]) != 3:
        raise ConfigError(f"not a bw-1 file: {path}")
    dens = None
    atoms = []
    try:
        declared = float(lines[0][2])
        for ln in lines[1:]:
            if ln[0] == "facet" and len(ln) == 3:
                if dens is None:
                    dens = np.zeros(len(mesh.boundary_facets))
                k = int(ln[1])
                if not 0 <= k < len(dens):
                    raise ConfigError(f"facet {k} out of range in {path}")
                dens[k] = float(ln[2])
            elif ln[0] == "atom" and len(ln) == 3:
                atoms.append((int(ln[1]), float(ln[2])))
            else:
                raise ConfigError(f"bad record {' '.join(ln)!r} in {path}")
    except ValueError as exc:
        raise ConfigError(f"bad number in {path}: {exc}") from None
    w = BoundaryWeight(mesh, facet_density=dens, atoms=atoms)
    if abs(w.total_mass - declared) > 1e-12 * max(1.0, abs(declared)):
        raise ConfigError("declared mass does not match record sum")
    return w


def write_field(u: NodalField, path):
    """CSV: node index, coordinates, value."""
    cols = ["node"] + [f"x{d}" for d in range(u.mesh.dim)] + ["value"]
    lines = [",".join(cols)]
    for i, (xy, v) in enumerate(zip(u.mesh.nodes, u.values)):
        lines.append(",".join([str(i)] + [repr(float(c)) for c in xy] + [repr(float(v))]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_field(mesh, path) -> NodalField:
    with open(path) as fh:
        rows = [ln.split(",") for ln in fh.read().splitlines() if ln.strip()]
    vals = np.zeros(mesh.n_nodes)
    for row in rows[1:]:
        vals[int(row[0])] = float(row[-1])
    return NodalField(mesh, vals)
