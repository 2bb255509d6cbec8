"""Independent verification paths for the finite element solves.

Nothing here shares assembly or solver code with the eigensolver:

* 1D Robin eigenvalues at p = 2 from the transcendental shooting condition,
* the classical closed form for the 1D Dirichlet eigenvalue at any p,
* the unit-disk Robin eigenvalue at p = 2 from a Bessel root (power series,
  no special-function dependency),
* a dense finite-difference Rayleigh minimizer driven by nonlinear
  conjugate gradients.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ConvergenceError

__all__ = [
    "interval_robin_p2",
    "interval_dirichlet_p",
    "disk_robin_p2_const",
    "brute_force_1d",
    "bisect_root",
]


def bisect_root(f, lo, hi, rtol=1e-14, max_iter=200):
    """Bisection for a sign change of f on [lo, hi]; returns the midpoint."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise ConfigError("bisect_root: no sign change on the bracket")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
        if hi - lo <= rtol * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def interval_robin_p2(sigma_left: float, sigma_right: float) -> float:
    """Smallest Robin eigenvalue of -u'' on (0,1) with endpoint weights.

    The eigenvalue is mu^2 where mu is the first positive root of

        g(mu) = -mu^2 sin(mu) + mu (sL + sR) cos(mu) + sL sR sin(mu),

    the shooting condition for u'(0) = sL u(0), -u'(1) = sR u(1). The
    symmetric case sL = sR = s reduces to mu tan(mu/2) = s and the one-sided
    case sR = 0 to mu tan(mu) = sL. There is exactly one root in (0, pi).
    """
    sl, sr = float(sigma_left), float(sigma_right)
    if not (0 <= sl < np.inf and 0 <= sr < np.inf and sl + sr > 0):
        raise ConfigError("need finite nonnegative weights with positive sum")

    def g(mu):
        return -(mu**2) * np.sin(mu) + mu * (sl + sr) * np.cos(mu) + sl * sr * np.sin(mu)

    mu = bisect_root(g, 1e-12, np.pi - 1e-12, rtol=1e-15)
    return float(mu * mu)


def interval_dirichlet_p(p: float) -> float:
    """First Dirichlet eigenvalue of the 1D p-Laplacian on (0,1).

    Classical closed form (p-1) * pi_p^p with pi_p = 2 pi / (p sin(pi/p)).
    """
    if not (1.1 <= p <= 10.0):
        raise ConfigError("p outside supported range [1.1, 10]")
    pi_p = 2.0 * np.pi / (p * np.sin(np.pi / p))
    return float((p - 1.0) * pi_p**p)


def _bessel_series(x, order, max_terms=80):
    """J_0 or J_1 by the alternating power series, valid for |x| < 20."""
    q = 0.25 * x * x
    term = 1.0 if order == 0 else 0.5 * x
    total = term
    for k in range(1, max_terms):
        term *= -q / (k * (k + order))
        total += term
        if abs(term) < 1e-18 * (1.0 + abs(total)):
            return total
    raise ConvergenceError("Bessel series did not reach its truncation bound")


def besselj0(x):
    return _bessel_series(float(x), 0)


def besselj1(x):
    return _bessel_series(float(x), 1)


def disk_robin_p2_const(sigma: float) -> float:
    """Smallest Robin eigenvalue of -Laplace on the unit disk, constant weight.

    mu^2 where mu solves mu J1(mu) = sigma J0(mu); the root lies below the
    first zero of J0 (~2.40483) for every finite sigma > 0.
    """
    if not 0 < sigma < np.inf:
        raise ConfigError("sigma must be positive and finite")

    def f(mu):
        return mu * besselj1(mu) - sigma * besselj0(mu)

    mu = bisect_root(f, 1e-12, 2.4499, rtol=1e-15)
    return float(mu * mu)


# ---------------------------------------------------------------------------
# dense finite-difference brute force
# ---------------------------------------------------------------------------

def brute_force_1d(
    p: float,
    sigma_left: float = 0.0,
    sigma_right: float = 0.0,
    n_grid: int = 10_000,
    mode: str = "robin",
    pin_x: float | None = None,
    max_iter: int = 5_000,
) -> float:
    """Direct minimization of the finite-difference Rayleigh quotient on (0,1).

    Uniform grid, forward-difference gradient energy, trapezoid p-mass and
    pointwise endpoint weights; minimized by Polak-Ribiere nonlinear
    conjugate gradients with a golden-section line search. Independent of
    the finite element code by construction.

    mode: 'robin' (endpoint weights), 'dirichlet' (both ends pinned),
    'point' (single end pinned at pin_x in {0.0, 1.0}), 'dirac'
    (alias for robin with one-sided mass).
    """
    if not (16 <= n_grid < np.inf and n_grid == int(n_grid)):
        raise ConfigError(f"n_grid must be an integer >= 16, got {n_grid!r}")
    sl, sr = float(sigma_left), float(sigma_right)
    if not (1.1 <= p <= 10.0 and 0 <= sl < np.inf and 0 <= sr < np.inf):
        raise ConfigError(f"p must lie in the supported range [1.1, 10] and the weights be "
                          f"finite and nonnegative, got {p!r}, {sl!r}, {sr!r}")
    n = int(n_grid)
    h = 1.0 / n
    free = np.ones(n + 1, dtype=bool)
    if mode == "dirichlet":
        free[0] = free[-1] = False
        sl = sr = 0.0
    elif mode == "point":
        if pin_x is None or pin_x not in (0.0, 1.0):
            raise ConfigError("point mode needs pin_x in {0.0, 1.0}")
        free[0 if pin_x == 0.0 else -1] = False
        sl = sr = 0.0
    elif mode in ("robin", "dirac"):
        if sl + sr <= 0:
            raise ConfigError("robin mode needs positive total weight")
    else:
        raise ConfigError(f"unknown mode {mode!r}")

    tw = np.full(n + 1, h)
    tw[0] = tw[-1] = 0.5 * h  # trapezoid weights

    def split(u):
        du = np.diff(u) / h
        num = h * np.sum(np.abs(du) ** p) + sl * abs(u[0]) ** p + sr * abs(u[-1]) ** p
        den = np.sum(tw * np.abs(u) ** p)
        return num, den, du

    def quotient(u):
        num, den, _ = split(u)
        return num / den

    def gradient(u):
        num, den, du = split(u)
        q = num / den
        gd = np.sign(du) * np.abs(du) ** (p - 1.0)  # d/d(du) |du|^p / p
        gnum = np.zeros(n + 1)
        gnum[:-1] -= p * gd
        gnum[1:] += p * gd
        gnum[0] += p * sl * np.sign(u[0]) * abs(u[0]) ** (p - 1.0)
        gnum[-1] += p * sr * np.sign(u[-1]) * abs(u[-1]) ** (p - 1.0)
        gden = p * tw * np.sign(u) * np.abs(u) ** (p - 1.0)
        g = (gnum - q * gden) / den
        g[~free] = 0.0
        return g, q

    def line_min(u, d):
        """Golden-section minimization of t -> Q(u + t d) on an expanded bracket."""
        phi0 = quotient(u)
        t_hi = 1.0
        for _ in range(60):
            if quotient(u + t_hi * d) > phi0 or t_hi > 1e8:
                break
            t_hi *= 2.0
        a, b = 0.0, t_hi
        gr = 0.5 * (np.sqrt(5.0) - 1.0)
        c, dd = b - gr * (b - a), a + gr * (b - a)
        fc, fd = quotient(u + c * d), quotient(u + dd * d)
        for _ in range(90):
            if fc < fd:
                b, dd, fd = dd, c, fc
                c = b - gr * (b - a)
                fc = quotient(u + c * d)
            else:
                a, c, fc = c, dd, fd
                dd = a + gr * (b - a)
                fd = quotient(u + dd * d)
            if b - a < 1e-14 * (1.0 + abs(a)):
                break
        return 0.5 * (a + b)

    # Laplacian-plus-mass preconditioner on the free nodes (a contiguous
    # range in every mode), applied with a symmetric banded solve. Plain
    # conjugate gradients need O(n) iterations on this spectrum; the
    # preconditioned iteration needs tens.
    from scipy.linalg import solveh_banded

    lo = int(np.argmax(free))
    hi = n + 1 - int(np.argmax(free[::-1]))
    nf = hi - lo
    ab = np.zeros((2, nf))
    ab[1, :] = 2.0 / h + h
    ab[1, 0] = ab[1, 0] if lo > 0 else 1.0 / h + 0.5 * h
    ab[1, -1] = ab[1, -1] if hi < n + 1 else 1.0 / h + 0.5 * h
    ab[0, 1:] = -1.0 / h

    def precondition(g):
        z = np.zeros(n + 1)
        z[lo:hi] = solveh_banded(ab, g[lo:hi])
        return z

    x = np.linspace(0.0, 1.0, n + 1)
    u = np.ones(n + 1)
    u[~free] = 0.0
    if mode == "dirichlet":
        u = x * (1.0 - x)
    elif mode == "point":
        u = x if pin_x == 0.0 else 1.0 - x
    u = u / np.sum(tw * np.abs(u) ** p) ** (1.0 / p)

    g, q = gradient(u)
    z = precondition(g)
    d = -z
    stall = 0
    for it in range(max_iter):
        t = line_min(u, d)
        if t <= 0.0:
            d = -z
            t = line_min(u, d)
        u = u + t * d
        u = u / np.sum(tw * np.abs(u) ** p) ** (1.0 / p)
        g_new, q_new = gradient(u)
        z_new = precondition(g_new)
        beta = max(
            0.0,
            float(np.dot(g_new, z_new - z) / max(np.dot(g, z), 1e-300)),
        )
        d = -z_new + beta * d
        if float(np.dot(g_new, d)) >= 0.0:
            d = -z_new
        rel = abs(q - q_new) / max(abs(q_new), 1e-300)
        stall = stall + 1 if rel < 1e-13 else 0
        g, z, q = g_new, z_new, q_new
        if stall >= 3:
            return float(q)
    if stall == 0:
        raise ConvergenceError(f"brute_force_1d not converged after {max_iter} iterations")
    return float(q)
