"""Infimum side: point-constrained scans, Dirac minimization and concentration.

For p > dim the infimum of the weighted eigenvalue over mass-m weights is
attained by a point mass on the boundary, so the discrete minimizer is the
smallest Dirac eigenvalue over the boundary nodes. The module provides

* scan_point_eigen  - the table of point-constrained eigenvalues and its
  boundary minimum, a PointScan that keeps its mesh and params; the three
  functions below take it and read both from it,
* lambda_inf        - the Dirac table, its minimum and the concentration
  point x_m; the full table, or one pruned by the per-node lower bound,
* track_xm          - the trajectory of x_m over a mass sweep of pruned
  tables,
* hoelder_check     - empirical Hoelder exponent of the point-eigenvalue map,
* concentration_demo - the p <= dim = 2 vanishing sequence, evaluated in
  closed form near a flat boundary point (no FEM involved, so concentration
  indices up to 1e6 are cheap).

A scan visits the boundary nodes one by one, in loop order or in the pruned
order below. Each node starts from its own pair at the previous mass, else
from a solved neighbour's along the loop (predecessor first; an interval's
two ends have none), else cold. Newton polishes a start (see eigensolver) and
the residual test accepts it, mostly with no outer step. Every table comes
back in ascending node order.

The paper's lower bound holds node by node: inflow(m, lambda_point(x)) <=
lambda_Dirac(x, m), the closed form of bounds.inflow with the point
eigenvalue at x: for u of unit p-norm and t = u(x), u - t vanishes at x, so
by Minkowski its energy is at least lambda_point(x) (1 - |t| |Omega|^{1/p})_+^p,
and minimizing that plus m |t|^p over t gives the floor. A pruned Dirac scan (lambda_inf with
`prune`, which check_all and track_xm use) visits the nodes in ascending
point-eigenvalue order and stops once that floor of the next node exceeds
the best Dirac value found times 1 + 2 _TIE_RTOL, so the nodes it leaves out
can neither be the minimum nor tie with it. At the first mass most of its
nodes start from a solved neighbour.

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


def _lower_bound_form(m, level, volume, p):
    """m L / ((|Omega| L)^{1/(p-1)} + m^{1/(p-1)})^{p-1}, increasing in the
    eigenvalue L: bounds.belsup and bounds.inflow with L = Lambda_D or
    lambda1(Omega), and the per-node Dirac floor with L = lambda_point(x).
    Elementwise over an array of levels; a nan level gives nan."""
    return m * level / ((volume * level) ** (1.0 / (p - 1.0)) + m ** (1.0 / (p - 1.0))) ** (p - 1.0)


def _scan(mesh, params, mass=None, order=None, floor=None, starts=None):
    """Point (mass None) or Dirac eigenvalue per visited boundary node, in
    ascending node order, the failures and the node results.

    The nodes are visited in `order`, by default the boundary loop, each
    from its own pair in `starts`, else a solved loop neighbour's
    (predecessor first; an interval's ends share no facet), else cold. With
    `floor` (a lower bound on each node's value, aligned with `order`) the
    visit stops at the first node whose floor exceeds the best value so far
    times 1 + 2 _TIE_RTOL; a nan floor never stops it.

    A failed node solve is recorded and the scan goes on; only a scan in
    which every visited node failed raises.
    """
    loop = [int(n) for n in mesh.boundary_loop]
    at = {n: i for i, n in enumerate(loop)} if mesh.dim == 2 else {}
    starts = starts or {}
    results, failures = {}, {}
    best = math.inf
    for k, node in enumerate(loop if order is None else order.tolist()):
        if floor is not None and floor[k] > best * (1 + 2 * _TIE_RTOL):
            break
        start = starts.get(node)
        if start is None and node in at:
            near = (loop[at[node] - 1], loop[(at[node] + 1) % len(loop)])
            start = next((results[n] for n in near if n in results), None)
        try:
            if mass is None:
                res = solve_point(mesh, node, params, start=start)
            else:
                res = solve_dirac(mesh, node, mass, params, start=start)
        except ConvergenceError as exc:
            failures[node] = str(exc)
        else:
            results[node] = res
            best = min(best, res.lam)
    failures = dict(sorted(failures.items()))
    if not results:
        what = "point" if mass is None else "Dirac"
        raise ConvergenceError(f"every {what} solve failed", diagnostics=failures)
    nodes = mesh.boundary_nodes()
    nodes = nodes[np.isin(nodes, [*results, *failures])]
    values = np.array([results[n].lam if n in results else math.nan for n in nodes.tolist()])
    return nodes, values, failures, results


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
    """Dirac minimization table at one mass, beside the point scan it used.
    The CLI's `minimize` command renders both. A pruned table lists only
    the visited nodes; `results` holds their eigenpairs, the starts of the
    next mass's pruned table."""

    m: float
    scan: PointScan = field(repr=False)
    nodes: np.ndarray
    lambda_dirac: np.ndarray
    lambda_inf: float
    x_m_node: int
    x_m: np.ndarray
    failures: dict = field(default_factory=dict)
    results: dict = field(repr=False, default_factory=dict)


def scan_point_eigen(mesh: Mesh, params: SolverParams) -> PointScan:
    """Point-constrained eigenvalue at every boundary node (p > dim only:
    otherwise solve_point refuses the first node, before any solve).

    Individual solver failures are recorded per node and the scan continues.
    Ties at the minimum (within 1e-6 relative) are reported as a set; the
    argmin is the lowest node index among them.
    """
    nodes, values, failures, _ = _scan(mesh, params)
    vmin, ties = _ties(nodes, values)
    return PointScan(
        mesh=mesh, params=params, nodes=nodes, values=values, lambda1_omega=vmin,
        argmin_node=ties[0], tie_set=ties, failures=failures,
    )


def lambda_inf(scan: PointScan, m: float, *, prune: bool = False,
               previous: MinReport | None = None) -> MinReport:
    """Minimal Dirac eigenvalue over the boundary nodes at mass m, on the
    scan's mesh and params (a point scan exists only for p > dim).

    By default every node is solved, in loop order. With `prune` the visit
    is pruned by the per-node floor (see the module docstring): lambda_inf,
    x_m and the ties are those of the full table, and the report lists only
    the solved nodes. `previous`, the report at another mass on this scan,
    gives every node with a pair there that pair as its start.
    """
    if not 0 < m < np.inf:
        raise ConfigError(f"mass {m} must be positive and finite")
    mesh, m = scan.mesh, float(m)
    order = floor = None
    if prune:
        k = np.argsort(np.nan_to_num(scan.values, nan=-np.inf), kind="stable")
        order = scan.nodes[k]
        floor = _lower_bound_form(m, scan.values[k], mesh.volume, scan.params.p)
    starts = previous.results if previous else None
    nodes, values, failures, results = _scan(mesh, scan.params, m, order, floor, starts)
    lam, ties = _ties(nodes, values)
    return MinReport(
        m=m, scan=scan, nodes=nodes, lambda_dirac=values,
        lambda_inf=lam, x_m_node=ties[0], x_m=mesh.nodes[ties[0]],
        failures=failures, results=results,
    )


@dataclass
class XmTrack:
    """Concentration points over an increasing mass sweep."""

    m_list: list
    x_m_nodes: list
    distances: list            # distance of x_m to the point-eigenvalue argmin set


def track_xm(scan: PointScan, m_list) -> XmTrack:
    """x_m over increasing masses and its distance to the scan's argmin set.
    Each Dirac scan is pruned, and continued from the previous mass's, as in
    lambda_inf with prune and previous.

    Raises unless the distances are nonincreasing over the largest decade
    of the sweep (the concentration points approach the minimizers of the
    point-eigenvalue map as the mass grows).
    """
    m_list = [float(v) for v in m_list]
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise ConfigError("m_list must be strictly increasing")
    argmin_pts = scan.mesh.nodes[np.asarray(scan.tie_set, dtype=int)]
    nodes, dist = [], []
    rep = None
    for m in m_list:
        rep = lambda_inf(scan, m, prune=True, previous=rep)
        nodes.append(rep.x_m_node)
        d = float(np.min(np.linalg.norm(argmin_pts - rep.x_m[None, :], axis=1)))
        dist.append(d)
    top = [d for m, d in zip(m_list, dist) if m >= m_list[-1] / 10.0]
    if any(b > a + 1e-9 for a, b in zip(top, top[1:])):
        raise InvariantViolationError(
            f"x_m distances increased over the largest mass decade: {top}"
        )
    return XmTrack(m_list=m_list, x_m_nodes=nodes, distances=dist)


# ---------------------------------------------------------------------------
# concentration demonstration (p <= n = 2), in closed form
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


def _e2_scaled(z):
    """e^z E_2(z), E_2(z) = int_1^inf e^{-zt} t^{-2} dt (Abramowitz and Stegun 5.1.4), by
    its continued fraction (5.1.22) and modified Lentz: <= 67 terms for z >= 2 ln 2."""
    b, c = z + 2.0, math.inf
    h = d = 1.0 / b
    for i in range(1, 200):
        a = -i * (i + 1.0)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        h *= c * d
        if abs(c * d - 1.0) <= 2.3e-16:
            break
    return h


def concentration_demo(p: float, m: float, j_list, volume: float = 1.0) -> ConcentrationRun:
    """Evaluate the concentrating test pairs (sigma_j, u_j) for p <= 2 in 2D.

    The geometry is the half-ball model near a flat boundary point: the weight
    is constant on the boundary trace of the radius-2^{-j} ball (normalized to
    mass m) and the test function ramps from 0 at the point to 1 at radius
    1/j, linearly for p < 2 and with the log profile -log j / log r for
    p = 2. All integrals reduce to 1D radial integrals on (0, 1] with closed
    forms: polynomial ones for the ramp, and for the log profile ones in the
    exponential integral E_2, so j up to 1e6 costs nothing. The quotient must
    stay below the closed-form bound (gradient term with the full-ball
    measure plus the boundary term) and decrease along the sequence.
    """
    if not all(map(math.isfinite, (p, m, volume))):
        raise ConfigError(f"p, m and volume must be finite (got {p}, {m}, {volume})")
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
            # |u'|^2 r integrates to 1 / (3 ln j) after r = exp(-lj/tau); with s = t = e^{-x}
            # the integrals over (0, 1] of s (lj / (lj - ln s))^2 and (lj / (a - ln t))^2,
            # a = j ln 2, are lj g(2 lj) and (lj^2 / a) g(a), g(z) = e^z E_2(z) = _e2_scaled
            grad = math.pi / (3.0 * lj)
            interior = math.pi / j**2 * lj * _e2_scaled(2.0 * lj)
            bdry = m * lj**2 / (j * ln2) * _e2_scaled(j * ln2)
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
