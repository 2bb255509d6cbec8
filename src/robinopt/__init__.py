"""First Robin eigenvalue of the p-Laplacian on 1D/2D domains and its
optimization over nonnegative boundary weights of fixed total mass.

The library computes the eigenvalue for facet densities and boundary point
masses, constructs the unique maximizing weight via the auxiliary-problem
pipeline, locates the minimizing point mass for p > dim, and evaluates the
closed-form two-sided bounds connecting everything.
"""

from .bounds import BoundsReport, belsup, check_all, inflow, inradius_bound
from .eigensolver import (
    EigenResult,
    solve_dirac,
    solve_dirichlet,
    solve_point,
    solve_robin,
    verify_weak_residual,
)
from .energy import (
    BoundaryWeight,
    NodalField,
    SolverParams,
    boundary_term,
    grad_energy,
    lp_norm_p,
    random_weight,
    rayleigh,
    rayleigh_gradient,
    rayleigh_numerator,
    read_field,
    read_weight,
    recover_flux,
    weak_residual,
    write_field,
    write_weight,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    InvariantViolationError,
    MathRefusalError,
    RobinoptError,
)
from .maximizer import AuxSolution, FSolver, MaxReport, dirichlet_ceiling, sigma_max, solve_aux
from .mesh import Mesh, build_disk, build_interval, build_polygon, build_square, read_mesh, refine, write_mesh
from .minimizer import (
    ConcentrationRun,
    MinReport,
    PointScan,
    concentration_demo,
    hoelder_check,
    lambda_inf,
    scan_point_eigen,
    track_xm,
)
from .oracle import disk_robin_p2_const, interval_dirichlet_p, interval_robin_p, interval_robin_p2

# everything imported above from the package's modules, and nothing else
__all__ = sorted(
    name for name, obj in globals().items()
    if not name.startswith("_") and getattr(obj, "__module__", "").startswith(__name__ + ".")
)

__version__ = "0.1.0"
