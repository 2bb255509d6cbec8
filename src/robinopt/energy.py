"""Discrete p-Dirichlet energy, boundary terms, Rayleigh quotient and flux recovery.

Every functional of a P1 nodal field is a sum of terms sum_e sum_q c_eq |z_eq|^p
(PowerTerm), z_eq linear in element e's nodal values: the stiffness (cells,
constant cell gradients, so exact), the interior mass (cells, a fixed Gauss
rule: 2-point per cell in 1D, 3-point edge-midpoint in 2D), a facet density
(boundary facets, the point value in 1D, 2-point Gauss on the trace in 2D) and
point masses (one-node elements). One kernel gives every term's value, nodal
action and Hessian blocks; for p < 2 one rule smooths |z|^{p-2} as
(|z|^2 + eps^2)^{(p-2)/2} in every derivative given eps, never in a value.

Each term is built once, on first use, and kept while its mesh (stiffness,
mass) or weight (facets, atoms) lives; both are immutable, so it cannot go stale.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, InvariantViolationError
from .mesh import Mesh

__all__ = [
    "NodalField",
    "BoundaryWeight",
    "SolverParams",
    "numerator_terms",
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
# one-point rule: a point value (1D facets, atoms) or a cell's constant gradient
_POINT = np.array([[1.0]])
_ONE = np.array([1.0])


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


@dataclass(frozen=True)
class SolverParams:
    """Exponent p plus the solver knobs shared by all iterative solvers: the
    one place their defaults are stated."""

    p: float
    tol_res: float = 1e-8      # weak-residual max-norm: the eigensolve's one acceptance test
    max_outer: int = 500
    eps_reg: float = 1e-10     # derivative smoothing for p < 2

    def __post_init__(self):
        if not (1.1 <= self.p <= 10.0):
            raise ConfigError(f"p={self.p} outside the supported range [1.1, 10]")
        if not (0 < self.tol_res < np.inf and 0 <= self.eps_reg < np.inf):
            raise ConfigError("tol_res must be positive and eps_reg nonnegative, both finite")
        if self.max_outer < 1:
            raise ConfigError("max_outer must be at least 1")


def _node_index(node):
    """`node` as a node index: ConfigError unless it is a finite integer (the
    caller checks the range)."""
    if not (np.isfinite(node) and float(node).is_integer()):
        raise ConfigError(f"node {node!r} is not a finite integer")
    return int(node)


@dataclass(frozen=True, eq=False)
class BoundaryWeight:
    """A nonnegative boundary weight of fixed total mass.

    Per-facet constant densities, point masses (atoms) at boundary nodes, or
    both; `kind` names which. Off-node Dirac requests snap to the nearest
    boundary node and record the snap distance. Immutable and compared by
    identity: the density is a write-protected copy, the atoms a tuple.
    """

    mesh: Mesh
    facet_density: np.ndarray | None = None
    atoms: tuple = ()
    snap_distance: float = 0.0

    def __post_init__(self):
        dens = self.facet_density
        if dens is not None:
            dens = np.array(dens, dtype=float).ravel()
            if dens.shape[0] != len(self.mesh.boundary_facets):
                raise ConfigError("facet density length does not match facet count")
            if not np.all((dens >= 0) & np.isfinite(dens)):
                raise ConfigError("facet densities must be finite and nonnegative")
            dens.setflags(write=False)
        atoms = tuple((int(n), float(m)) for n, m in self.atoms)
        for n, m in atoms:
            if not 0 <= m < np.inf:
                raise ConfigError("atom masses must be finite and nonnegative")
            if not (0 <= n < self.mesh.n_nodes and self.mesh.node_is_boundary[n]):
                raise ConfigError(f"atom node {n} is not a boundary node")
        object.__setattr__(self, "facet_density", dens)
        object.__setattr__(self, "atoms", atoms)

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
            node, snap = _node_index(where), 0.0
        else:
            node, snap = mesh.nearest_boundary_node(where)
        return cls(mesh, atoms=[(node, float(mass))], snap_distance=snap)

    def spread_atoms(self):
        """Per-facet density of the atoms, each atom's mass split equally
        among its adjacent boundary facets; conserves the atoms' total mass."""
        mesh = self.mesh
        nodes, masses = np.array(self.atoms, dtype=float).reshape(-1, 2).T
        nodal = np.bincount(nodes.astype(int), weights=masses, minlength=mesh.n_nodes)
        degree = np.bincount(mesh.boundary_facets.ravel(), minlength=mesh.n_nodes)
        share = nodal / np.maximum(degree, 1)
        return share[mesh.boundary_facets].sum(axis=1) / mesh.facet_measures


def random_weight(mesh, mass, rng):
    """Random facet densities, normalized to the requested total mass."""
    dens = rng.uniform(0.1, 1.0, size=len(mesh.boundary_facets))
    dens *= mass / np.dot(dens, mesh.facet_measures)
    return BoundaryWeight.from_facet_density(mesh, dens)


# ---------------------------------------------------------------------------
# power terms
# ---------------------------------------------------------------------------

def _values(u):
    return u.values if isinstance(u, NodalField) else np.asarray(u, dtype=float)


def _power_coefs(s2, p, eps, hessian=False):
    """coef, or (coef, fac) if hessian: at |z|^2 = s2 the derivative of |z|^p / p
    is coef z and its Hessian coef I + fac z z^T, coef = t^{(p-2)/2} and
    fac = (p-2) t^{(p-4)/2} (0 at t = 0), t = s2 + eps^2 for p < 2, else s2.
    Unsmoothed p < 2 takes t = 1 at z = 0, where the action's limit is 0."""
    if p < 2.0:
        t = s2 + eps * eps if eps else np.where(s2 > 0, s2, 1.0)
    else:
        t = s2
    coef = t ** ((p - 2.0) / 2.0)
    if not hessian:
        return coef
    return coef, np.divide((p - 2.0) * coef, t, out=np.zeros_like(t), where=t > 0)


class PowerTerm:
    """One term sum_e sum_q c_eq |z_eq|^p, c_eq = scale_e * w_q, of a P1 field u.

    z_eq is a D-vector at one point (Q = 1) or a scalar at each of Q points
    (D = 1); z_e = L u[elems[e]] stacks them, with L of shape (Q*D, k), or
    (E, Q*D, k) when it differs per element.
    """

    def __init__(self, n_nodes, elems, L, w, scale):
        self.n_nodes, self.elems, self.L = n_nodes, elems, L
        self.c = scale[:, None] * w
        self.ncomp = L.shape[-2] // len(w)  # D
        self._L4 = L.reshape(L.shape[:-2] + (len(w), self.ncomp, L.shape[-1]))

    def args(self, u):
        """The stacked arguments z, shape (E, Q*D)."""
        ue = _values(u)[self.elems]
        return ue @ self.L.T if self.L.ndim == 2 else np.einsum("erk,ek->er", self.L, ue)

    def _s2(self, z):
        """|z_eq|^2, shape (E, Q)."""
        return z * z if self.ncomp == 1 else np.einsum("er,er->e", z, z)[:, None]

    def scatter(self, f):
        """Nodal vector sum_e f_e . L phi_i for f of shape (E, Q*D)."""
        contrib = f @ self.L if self.L.ndim == 2 else np.einsum("er,erk->ek", f, self.L)
        return np.bincount(self.elems.ravel(), weights=contrib.ravel(), minlength=self.n_nodes)

    def value(self, u, p):
        return float(np.vdot(self.c, self._s2(self.args(u)) ** (p / 2.0)))

    def action(self, u, p, eps=0.0):
        """Nodal derivative of value / p."""
        z = self.args(u)
        return self.scatter(self.c * _power_coefs(self._s2(z), p, eps) * z)

    @cached_property
    def k0(self):
        """c_eq L_q^T L_q, shape (E, Q, k, k): the fixed part of the Hessian blocks,
        computed on the first call of blocks (for the mass term, the first
        bordered Newton step of eigenpair_newton)."""
        return self.c[:, :, None, None] * np.matmul(np.swapaxes(self._L4, -1, -2), self._L4)

    def blocks(self, u, p, eps=0.0):
        """Element blocks (E, k, k) of the Hessian of value / p at u:
        sum_q coef_eq K0_eq + fac_eq c_eq (L_q^T z_eq)(L_q^T z_eq)^T."""
        k0 = self.k0
        z = self.args(u)
        coef, fac = _power_coefs(self._s2(z), p, eps, hessian=True)
        e, q, k = k0.shape[:2] + k0.shape[-1:]
        g = np.einsum("eqd,qdk->eqk" if self.L.ndim == 2 else "eqd,eqdk->eqk",
                      z.reshape(e, q, self.ncomp), self._L4)
        out = np.einsum("eq,eqm->em", coef, k0.reshape(e, q, k * k)).reshape(e, k, k)
        out += np.einsum("eqk,eql->ekl", (fac * self.c)[:, :, None] * g, g)
        return out


def _built_once(build):
    """build(owner), kept for as long as owner (a Mesh or a BoundaryWeight)
    lives; what build returns may hold owner's arrays but never owner itself."""
    kept = weakref.WeakKeyDictionary()

    @functools.wraps(build)
    def get(owner):
        if owner not in kept:
            kept[owner] = build(owner)
        return kept[owner]

    return get


@_built_once
def stiffness_term(mesh):
    """integral |grad u|^p: cells, cell gradients, cell measures."""
    return PowerTerm(mesh.n_nodes, mesh.cells, mesh.cell_grads, _ONE, mesh.cell_measures)


@_built_once
def mass_term(mesh):
    """integral |u|^p: cells, the cell Gauss rule, cell measures."""
    phi, w = (_PHI_CELL_1D, _W_CELL_1D) if mesh.dim == 1 else (_PHI_CELL_2D, _W_CELL_2D)
    return PowerTerm(mesh.n_nodes, mesh.cells, phi, w, mesh.cell_measures)


@_built_once
def boundary_terms(w: BoundaryWeight):
    """The facet-density and atom terms of w; a part w lacks has no elements."""
    mesh = w.mesh
    phi, wq = (_POINT, _ONE) if mesh.dim == 1 else (_PHI_CELL_1D, _W_CELL_1D)
    dens = np.zeros(0) if w.facet_density is None else w.facet_density
    facets = PowerTerm(mesh.n_nodes, mesh.boundary_facets[: len(dens)], phi, wq,
                       dens * mesh.facet_measures[: len(dens)])
    nodes, masses = np.array(w.atoms, dtype=float).reshape(-1, 2).T
    return facets, PowerTerm(mesh.n_nodes, nodes.astype(int)[:, None], _POINT, _ONE, masses)


def gauss_values(mesh, u):
    """Field values at the cell Gauss points, shape (C, nq)."""
    return mass_term(mesh).args(u)


def integrate_gauss(mesh, vals):
    """Integral of per-Gauss-point values over the mesh."""
    return float(np.vdot(mass_term(mesh).c, vals))


def assemble_load(mesh, vals):
    """Nodal load b_i = sum_cells meas * sum_q w_q vals_q phi_i(x_q).

    For vals sampled from a P1 field this equals the exact consistent-mass
    product (the rules integrate P1 x P1 products exactly).
    """
    term = mass_term(mesh)
    return term.scatter(term.c * vals)


def mass_blocks(mesh):
    """Consistent-mass element blocks (C, k, k), the mass term's Hessian blocks
    at p = 2, built without keeping the term's k0."""
    term = mass_term(mesh)
    return np.einsum("eq,qk,ql->ekl", term.c, term.L, term.L)


def mass_action(mesh, u, p):
    """Nodal assembly of phi_i -> integral |u|^{p-2} u phi_i (Gauss rule)."""
    return mass_term(mesh).action(u, p)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def numerator_terms(mesh, w: BoundaryWeight | None) -> list:
    """The Rayleigh numerator's PowerTerms, the only list of them: the
    stiffness, then w's facet-density and atom terms that have elements."""
    terms = [stiffness_term(mesh)]
    if w is not None:
        if w.mesh is not mesh:
            raise ConfigError("the weight lives on a different mesh")
        terms += [t for t in boundary_terms(w) if len(t.elems)]
    return terms


def grad_energy(u, p) -> float:
    """integral_Omega |grad u|^p, exact for P1 fields."""
    return stiffness_term(u.mesh).value(u, p)


def boundary_term(u, w: BoundaryWeight, p) -> float:
    """integral_bdry sigma |u|^p (facet Gauss rule) plus sum of atom masses * |u(node)|^p."""
    return float(sum(t.value(u, p) for t in numerator_terms(u.mesh, w)[1:]))


def lp_norm_p(u, p) -> float:
    """integral_Omega |u|^p via the fixed cell Gauss rule (p-th power, not the norm)."""
    return mass_term(u.mesh).value(u, p)


def rayleigh_numerator(u, w: BoundaryWeight | None, p) -> float:
    """grad_energy + boundary_term; w=None drops the boundary term."""
    return sum(t.value(u, p) for t in numerator_terms(u.mesh, w))


def rayleigh(u, w: BoundaryWeight | None, p) -> float:
    """Q[sigma, u] = rayleigh_numerator / lp_norm_p."""
    den = lp_norm_p(u, p)
    if den <= 0.0:
        raise ConfigError("Rayleigh quotient undefined for u == 0")
    return rayleigh_numerator(u, w, p) / den


def weak_residual(u, w: BoundaryWeight | None, p, q, eps_reg) -> np.ndarray:
    """Nodal weak-form residual: the numerator terms' actions - q mass_action,
    every action smoothed by eps_reg.

    Equals the gradient of ConvexPEnergyProblem(mesh, params, weight=w) at u
    for the load q mass_action(u); with q = 0 it is the derivative of
    rayleigh_numerator / p.
    """
    actions = sum(t.action(u, p, eps_reg) for t in numerator_terms(u.mesh, w))
    return actions - q * mass_action(u.mesh, u, p)


def rayleigh_gradient(u, w: BoundaryWeight | None, p, eps_reg) -> NodalField:
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


def recover_flux(u, load, params: SolverParams) -> np.ndarray:
    """Consistent boundary flux of a discrete interior solution.

    Given u solving the interior equations A_i(u) = b_i (i interior) for the
    nodal load b, where A is the stiffness action at params.p (smoothed by
    params.eps_reg), returns the boundary masses g_i = b_i - A_i(u), in
    mesh.boundary_nodes() order. Their sum equals the total load exactly up
    to the interior residual: the discrete divergence identity. Raises
    InvariantViolationError when the interior residual exceeds params.tol_res.
    """
    mesh = u.mesh
    r = load - stiffness_term(mesh).action(u, params.p, params.eps_reg)
    interior = ~mesh.node_is_boundary
    worst = float(np.max(np.abs(r[interior]))) if interior.any() else 0.0
    if worst > params.tol_res:
        raise InvariantViolationError(
            f"not a discrete solution: interior residual {worst:.3e} > {params.tol_res:.1e}"
        )
    return r[mesh.boundary_nodes()]


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
    dens = None
    seen = set()  # facet indices read so far
    atoms = []
    try:
        with open(path) as fh:
            lines = [ln.split() for ln in fh.read().splitlines() if ln.strip()]
        if not lines or lines[0][:2] != ["bw", "1"] or len(lines[0]) != 3:
            raise ConfigError(f"not a bw-1 file: {path}")
        declared = float(lines[0][2])
        for ln in lines[1:]:
            if ln[0] == "facet" and len(ln) == 3:
                if dens is None:
                    dens = np.zeros(len(mesh.boundary_facets))
                k = int(ln[1])
                if not 0 <= k < len(dens):
                    raise ConfigError(f"facet {k} out of range in {path}")
                if k in seen:
                    raise ConfigError(f"facet {k} given twice in {path}")
                seen.add(k)
                dens[k] = float(ln[2])
            elif ln[0] == "atom" and len(ln) == 3:
                atoms.append((int(ln[1]), float(ln[2])))
            else:
                raise ConfigError(f"bad record {' '.join(ln)!r} in {path}")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    w = BoundaryWeight(mesh, facet_density=dens, atoms=atoms)
    if not (np.isfinite(declared) and abs(w.total_mass - declared) <= 1e-12 * max(1.0, abs(declared))):
        raise ConfigError(f"declared mass {declared!r} does not match the record sum {w.total_mass!r}")
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
    """The field of a write_field CSV: a header, then one row per mesh node."""
    try:
        with open(path) as fh:
            rows = [ln.split(",") for ln in fh.read().splitlines() if ln.strip()]
        nodes = np.array([int(row[0]) for row in rows[1:]], dtype=int)
        values = np.array([float(row[-1]) for row in rows[1:]])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if not np.array_equal(np.sort(nodes), np.arange(mesh.n_nodes)):
        raise ConfigError(f"{path} does not give each of the {mesh.n_nodes} mesh nodes once")
    return NodalField(mesh, values[np.argsort(nodes)])
