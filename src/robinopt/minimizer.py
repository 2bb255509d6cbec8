"""Infimum side: point-constrained scans, Dirac minimization and concentration.

For p > dim the infimum of the weighted eigenvalue over mass-m weights is
attained by a point mass on the boundary, so the discrete minimizer is the
smallest Dirac eigenvalue over the boundary nodes. The module provides

* scan_point_eigen  - the table of point-constrained eigenvalues and its
  boundary minimum, a PointScan that keeps its mesh and params; the three
  functions below take it and read both from it,
* lambda_inf        - the Dirac table, its minimum and the concentration
  point x_m,
* track_xm          - the trajectory of x_m over a mass sweep,
* hoelder_check     - empirical Hoelder exponent of the point-eigenvalue map,
* concentration_demo - the p <= dim = 2 vanishing sequence, evaluated by
  direct radial quadrature near a flat boundary point (no FEM involved, so
  concentration indices up to 1e6 are cheap).

A scan walks the boundary loop in arcs, maximal runs of loop nodes joined by
boundary facets (the whole loop in 2D, each end alone in 1D). Each node solve
of an arc after the first starts from its predecessor's eigenpair, which
Newton polishes (see eigensolver); the closing outer step certifies it. Every
table comes back in ascending node order.

Requests that are answered exactly by theory (the infimum is 0 for p <= dim
and is not attained) are refused with a MathRefusalError carrying that exact
value instead of producing a mesh artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import SolverParams
from .errors import ConvergenceError, InvariantViolationError, MathRefusalError, ConfigError
from .eigensolver import solve_dirac, solve_point
from .mesh import Mesh

__all__ = [
    "PointScan",
    "MinReport",
    "XmTrack",
    "ConcentrationRun",
    "scan_point_eigen",
    "lambda_inf",
    "track_xm",
    "concentration_demo",
    "hoelder_check",
]

_TIE_RTOL = 1e-6


def _arcs(mesh):
    """The boundary loop cut into arcs, maximal runs of loop nodes joined by
    boundary facets: the whole loop in 2D, each end alone in 1D."""
    loop = [int(n) for n in mesh.boundary_loop]
    return [loop] if mesh.dim == 2 else [[n] for n in loop]


def _scan(mesh, params, mass=None):
    """Point (mass None) or Dirac eigenvalue per boundary node, in ascending
    node order, and the failures. Each node of an arc starts from its
    predecessor's pair; the first node of an arc, and one after a failure,
    starts cold.

    A failed node solve is recorded and the scan goes on; only a scan in
    which every node failed raises.
    """
    nodes = mesh.boundary_nodes()
    slot = {int(n): k for k, n in enumerate(nodes)}
    values = np.full(len(nodes), math.nan)
    failures = {}
    for arc in _arcs(mesh):
        prev = None
        for node in arc:
            try:
                if mass is None:
                    prev = solve_point(mesh, node, params, start=prev)
                else:
                    prev = solve_dirac(mesh, node, mass, params, start=prev)
            except ConvergenceError as exc:
                prev = None
                failures[node] = str(exc)
            else:
                values[slot[node]] = prev.lam
    failures = dict(sorted(failures.items()))
    if not np.isfinite(values).any():
        what = "point" if mass is None else "Dirac"
        raise ConvergenceError(f"every {what} solve failed", diagnostics=failures)
    return nodes, values, failures


def _ties(nodes, values):
    """The minimum and its ties, lowest node first: the argmin whatever roundoff."""
    vmin = float(np.nanmin(values))
    return vmin, sorted(int(n) for n, v in zip(nodes, values) if v <= vmin * (1 + _TIE_RTOL))


@dataclass
class PointScan:
    """Point-constrained eigenvalue per boundary node of `mesh` at `params`,
    plus its minimum."""

    mesh: Mesh = field(repr=False)
    params: SolverParams
    nodes: np.ndarray
    values: np.ndarray
    lambda1_omega: float
    argmin_node: int
    tie_set: list
    failures: dict = field(default_factory=dict)


@dataclass
class MinReport:
    """Dirac minimization table at one mass, beside the point scan it used."""

    m: float
    scan: PointScan = field(repr=False)
    nodes: np.ndarray
    lambda_dirac: np.ndarray
    lambda_inf: float
    x_m_node: int
    x_m: np.ndarray
    failures: dict = field(default_factory=dict)

    def to_dict(self):
        scan = self.scan
        return {
            "m": self.m,
            "p": scan.params.p,
            "lambda_inf": self.lambda_inf,
            "x_m_node": int(self.x_m_node),
            "x_m": [float(c) for c in self.x_m],
            "lambda1_omega": scan.lambda1_omega,
            "lambda1_argmin": int(scan.argmin_node),
            "lambda1_ties": [int(t) for t in scan.tie_set],
            "n_nodes": int(len(self.nodes)),
            "n_failures": len(self.failures),
        }


def scan_point_eigen(mesh: Mesh, params: SolverParams) -> PointScan:
    """Point-constrained eigenvalue at every boundary node (p > dim only).

    Individual solver failures are recorded per node and the scan continues.
    Ties at the minimum (within 1e-6 relative) are reported as a set; the
    argmin is the lowest node index among them.
    """
    p, dim = params.p, mesh.dim
    if p <= dim:
        raise MathRefusalError(
            f"scan_point_eigen requires p > dim (here p={p}, dim={dim}): for p <= dim "
            "the infimum over boundary weights of any fixed mass is exactly 0 and "
            "is not attained (point constraints carry no W^{1,p} capacity), so a "
            "nodal scan would be a pure mesh artifact. Use concentration_demo "
            "for the vanishing sequence.",
            exact_value=0.0,
        )
    nodes, values, failures = _scan(mesh, params)
    vmin, ties = _ties(nodes, values)
    return PointScan(
        mesh=mesh, params=params, nodes=nodes, values=values, lambda1_omega=vmin,
        argmin_node=ties[0], tie_set=ties, failures=failures,
    )


def lambda_inf(scan: PointScan, m: float) -> MinReport:
    """Minimal Dirac eigenvalue over the boundary nodes at mass m, on the
    scan's mesh and params (a point scan exists only for p > dim)."""
    if m <= 0:
        raise ConfigError("mass must be positive")
    mesh = scan.mesh
    nodes, values, failures = _scan(mesh, scan.params, float(m))
    lam, ties = _ties(nodes, values)
    return MinReport(
        m=float(m), scan=scan, nodes=nodes, lambda_dirac=values,
        lambda_inf=lam, x_m_node=ties[0], x_m=mesh.nodes[ties[0]],
        failures=failures,
    )


@dataclass
class XmTrack:
    """Concentration points over an increasing mass sweep."""

    m_list: list
    x_m_nodes: list
    distances: list            # distance of x_m to the point-eigenvalue argmin set
    reports: list = field(repr=False, default_factory=list)


def track_xm(scan: PointScan, m_list) -> XmTrack:
    """x_m over increasing masses and its distance to the scan's argmin set.

    Raises unless the distances are nonincreasing over the largest decade
    of the sweep (the concentration points approach the minimizers of the
    point-eigenvalue map as the mass grows).
    """
    m_list = [float(v) for v in m_list]
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise ConfigError("m_list must be strictly increasing")
    argmin_pts = scan.mesh.nodes[np.asarray(scan.tie_set, dtype=int)]
    reports, nodes, dist = [], [], []
    for m in m_list:
        rep = lambda_inf(scan, m)
        reports.append(rep)
        nodes.append(rep.x_m_node)
        d = float(np.min(np.linalg.norm(argmin_pts - rep.x_m[None, :], axis=1)))
        dist.append(d)
    top = [d for m, d in zip(m_list, dist) if m >= m_list[-1] / 10.0]
    if any(b > a + 1e-9 for a, b in zip(top, top[1:])):
        raise InvariantViolationError(
            f"x_m distances increased over the largest mass decade: {top}"
        )
    return XmTrack(m_list=m_list, x_m_nodes=nodes, distances=dist, reports=reports)


# ---------------------------------------------------------------------------
# concentration demonstration (p <= n = 2), direct radial quadrature
# ---------------------------------------------------------------------------

@dataclass
class ConcentrationRun:
    """Vanishing sequence Q_j for concentrating weights near a boundary point."""

    p: float
    m: float
    volume: float
    profile: str               # 'ramp' (p < 2) or 'log' (p = 2)
    j_list: list
    alpha: list                # weight density on the shrinking support (inf if overflow)
    q: list
    bound: list                # closed-form upper bound, full-ball version
    monotone_tail: bool

    def rows(self):
        return list(zip(self.j_list, self.alpha, self.q, self.bound))


def _quad01(f):
    from scipy.integrate import quad

    val, _ = quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=200)
    return val


def concentration_demo(p: float, m: float, j_list, volume: float = 1.0) -> ConcentrationRun:
    """Evaluate the concentrating test pairs (sigma_j, u_j) for p <= 2 in 2D.

    The geometry is the half-ball model near a flat boundary point: the weight
    is constant on the boundary trace of the radius-2^{-j} ball (normalized to
    mass m) and the test function ramps from 0 at the point to 1 at radius
    1/j, linearly for p < 2 and with the log profile -log j / log r for
    p = 2. All integrals reduce to 1D radial integrals on (0, 1]: exact for
    the polynomial ones, quadratures for the two of the log profile, so j up
    to 1e6 costs nothing. The quotient must stay below the closed-form bound
    (gradient term with the full-ball measure plus the boundary term) and
    decrease along the sequence.
    """
    if not (1.0 < p <= 2.0):
        raise MathRefusalError(
            f"concentration_demo covers 1 < p <= dim = 2 (got p={p}); for "
            "p > 2 the infimum is positive: use lambda_inf",
        )
    if m <= 0 or volume <= 0:
        raise ConfigError("mass and volume must be positive")
    j_list = [int(j) for j in j_list]
    if any(j < 2 for j in j_list):
        raise ConfigError("need j >= 2 so the support fits the half-ball model")

    ln2 = math.log(2.0)
    profile = "log" if p == 2.0 else "ramp"
    alphas, qs, bounds = [], [], []
    for j in j_list:
        lj = math.log(j)
        # amp = j^p 2^{-jp}, computed in log space (underflows to 0 harmlessly)
        log_amp = p * (lj - j * ln2)
        amp = math.exp(log_amp) if log_amp > -745.0 else 0.0
        try:
            alphas.append(math.ldexp(m, j - 1))  # alpha = m 2^{j-1}, exact
        except OverflowError:
            alphas.append(math.inf)

        if profile == "ramp":
            # integral s = 1/2, s^{p+1} = 1/(p+2) and t^p = 1/(p+1) over (0, 1]
            grad = math.pi * j ** (p - 2.0) * 0.5
            interior = math.pi / j**2 / (p + 2.0)
            bdry = m * amp / (p + 1.0)
            bound = (math.pi * j ** (p - 2.0) + amp * m) / volume
        else:
            # |u'|^2 r integrates to ln^2 j / (3 ln^3 j) after r = exp(-lj/tau)
            grad = math.pi * lj**2 * (1.0 / lj**3) / 3.0  # integral t^2 = 1/3
            interior = (
                math.pi / j**2
                * _quad01(lambda s: s * (lj / (lj - math.log(s))) ** 2 if s > 0 else 0.0)
            )
            bdry = m * _quad01(lambda t: (lj / (j * ln2 - math.log(t))) ** 2 if t > 0 else 0.0)
            bound = (2.0 * math.pi / (3.0 * lj) + m * (lj / (j * ln2)) ** 2) / volume

        denom = volume - math.pi / (2.0 * j**2) + interior
        q = (grad + bdry) / denom
        if q < 0:
            raise InvariantViolationError("negative quotient in concentration run")
        if q > bound + 1e-9:
            raise InvariantViolationError(
                f"quotient {q} exceeds its bound {bound} at j={j}"
            )
        qs.append(q)
        bounds.append(bound)

    tail = [q for j, q in zip(j_list, qs) if j >= 100]
    monotone_tail = all(b <= a + 1e-15 for a, b in zip(tail, tail[1:]))
    return ConcentrationRun(
        p=p, m=m, volume=volume, profile=profile, j_list=j_list,
        alpha=alphas, q=qs, bound=bounds, monotone_tail=monotone_tail,
    )


def hoelder_check(scan: PointScan) -> dict:
    """Empirical Hoelder regularity of the scan's point-eigenvalue map.

    Fits log |lambda1(x) - lambda1(y)| against log |x - y| over boundary node
    pairs closer than a quarter of the boundary diameter, and reports the
    largest ratio against the exponent 1 - dim/p. Degenerate geometries
    (the interval: two nodes at full diameter) are flagged, not fitted.
    """
    pts = scan.mesh.nodes[scan.nodes]
    vals = scan.values
    expo = 1.0 - scan.mesh.dim / scan.params.p
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    i, k = np.triu_indices(len(pts), 1)
    d = dist[i, k]
    pair = (d > 0) & (d < float(np.max(dist)) / 4.0) & np.isfinite(vals[i]) & np.isfinite(vals[k])
    dists, dlams = d[pair], np.abs(vals[i] - vals[k])[pair]
    if len(dists) < 3:
        return {"degenerate": True, "n_pairs": int(len(dists)), "exponent": expo}
    scale = max(float(np.max(dlams)), 1e-300)
    keep = dlams > 1e-12 * scale
    ratio = float(np.max(dlams / dists**expo))
    if keep.sum() < 3:
        return {
            "degenerate": False, "n_pairs": int(len(dists)), "exponent": expo,
            "slope": math.nan, "max_ratio": ratio,
            "note": "eigenvalue differences at noise level (symmetric domain)",
        }
    import warnings as _warnings

    with _warnings.catch_warnings():
        # symmetric domains cluster the pair distances, which conditions the
        # fit poorly; the slope is still reported, just not meaningful there
        _warnings.simplefilter("ignore", np.exceptions.RankWarning)
        slope = float(np.polyfit(np.log(dists[keep]), np.log(dlams[keep]), 1)[0])
    return {
        "degenerate": False, "n_pairs": int(len(dists)), "exponent": expo,
        "slope": slope, "max_ratio": ratio,
    }
