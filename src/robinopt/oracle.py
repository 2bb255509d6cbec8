"""Independent verification paths for the finite element solves.

Nothing here shares assembly or solver code with the eigensolver:

* 1D Robin eigenvalues at p = 2 from the transcendental shooting condition,
* the classical closed form for the 1D Dirichlet eigenvalue at any p,
* the 1D Robin eigenvalue at any p from the first integral of the
  eigenfunction, by one bisection over numpy Gauss-Legendre quadrature,
* the unit-disk Robin eigenvalue at p = 2 from a Bessel root (power series,
  no special-function dependency).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, ConvergenceError

__all__ = [
    "interval_robin_p2",
    "interval_dirichlet_p",
    "interval_robin_p",
    "disk_robin_p2_const",
    "bisect_root",
]


def bisect_root(f, lo, hi, rtol=1e-14, max_iter=200):
    """Bisection for a sign change of f on [lo, hi]; returns the midpoint.

    Stops once the bracket is rtol wide relative to its midpoint, so a small
    root keeps its relative accuracy.
    """
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
        if hi - lo <= rtol * abs(mid):
            break
    return 0.5 * (lo + hi)


def interval_robin_p2(sigma_left: float, sigma_right: float) -> float:
    """Smallest Robin eigenvalue of -u'' on (0,1) with endpoint weights.

    The eigenvalue is mu^2 where mu is the first positive root of

        g(mu) = -mu^2 sin(mu) + mu (sL + sR) cos(mu) + sL sR sin(mu),

    the shooting condition for u'(0) = sL u(0), -u'(1) = sR u(1). The
    symmetric case sL = sR = s reduces to mu tan(mu/2) = s and the one-sided
    case sR = 0 to mu tan(mu) = sL. There is exactly one root in (0, pi).
    g(mu)/mu, unlike g, changes sign on [0, pi] however small the root.
    """
    sl, sr = float(sigma_left), float(sigma_right)
    if not (0 <= sl < np.inf and 0 <= sr < np.inf and sl + sr > 0):
        raise ConfigError("need finite nonnegative weights with positive sum")

    def g_over_mu(mu):
        return -mu * np.sin(mu) + (sl + sr) * np.cos(mu) + sl * sr * np.sinc(mu / np.pi)

    mu = bisect_root(g_over_mu, 0.0, np.pi, rtol=1e-15)
    return float(mu * mu)


def interval_dirichlet_p(p: float) -> float:
    """First Dirichlet eigenvalue of the 1D p-Laplacian on (0,1).

    Classical closed form (p-1) * pi_p^p with pi_p = 2 pi / (p sin(pi/p)).
    """
    if not (1.1 <= p <= 10.0):
        raise ConfigError("p outside supported range [1.1, 10]")
    pi_p = 2.0 * np.pi / (p * np.sin(np.pi / p))
    return float((p - 1.0) * pi_p**p)


@functools.cache
def _unit_rule():
    """20-point Gauss-Legendre on panels of [0, 1] halving toward both ends."""
    x, w = np.polynomial.legendre.leggauss(20)
    half = 0.5 ** np.arange(1, 27)
    edges = np.unique(np.concatenate([[0.0, 1.0], half, 1.0 - half]))
    a, b = edges[:-1, None], edges[1:, None]
    return (a + 0.5 * (b - a) * (x + 1.0)).ravel(), (0.5 * (b - a) * w).ravel()


def _arc(p, log_x):
    """I(t) = int_t^1 (1 - s^p)^(-1/p) ds at t = (1 + x)^(-1/p), given log x.

    With 1 - s = X u^q, X = 1 - t and q = p/(p-1), the integrand becomes
    q (y / (1 - (1-y)^p))^(1/p) at y = X u^q, bounded on u in [0, 1]. Below
    x = e^-40, X = x/p to rounding, and below y = 1e-300 the ratio is 1/p, so
    neither underflows into 0/0 at the tiny weights near p = 1.1.
    """
    q = p / (p - 1.0)
    log_X = log_x - np.log(p) if log_x < -40.0 else np.log(-np.expm1(-np.logaddexp(0.0, log_x) / p))
    u, w = _unit_rule()
    y = np.maximum(np.exp(log_X) * u**q, 1e-300)
    return float(np.exp(log_X / q) * q * np.dot(w, (y / -np.expm1(p * np.log1p(-y))) ** (1.0 / p)))


def interval_robin_p(p: float, sigma_left: float, sigma_right: float) -> float:
    """First Robin eigenvalue of the p-Laplacian on (0,1) with endpoint weights.

    The eigenfunction, of maximum A, satisfies the first integral
    (p-1)|u'|^p + lam |u|^p = lam A^p. With mu = (lam/(p-1))^(1/p), an end
    of weight sigma has u = t A, t = (1 + (sigma^(1/(p-1))/mu)^p)^(-1/p), and
    lies I(t)/mu from the maximum, so one bisection on mu in (0, pi_p] solves
    mu = I(t_left) + I(t_right). A weight of inf pins its end (t = 0, and
    I(0) = pi_p/2); a weight of 0 leaves it free (t = 1).
    """
    if not 1.1 <= p <= 10.0:
        raise ConfigError(f"p must lie in the supported range [1.1, 10], got {p!r}")
    sl, sr = float(sigma_left), float(sigma_right)
    if not (0 <= sl <= np.inf and 0 <= sr <= np.inf and sl + sr > 0):
        raise ConfigError(f"need nonnegative weights (inf pins an end) with positive sum, got {sl!r}, {sr!r}")
    log_weights = [np.log(s) / (p - 1.0) for s in (sl, sr) if s > 0]

    def g(mu):
        with np.errstate(divide="ignore"):
            log_mu = np.log(mu)
        return mu - sum(_arc(p, p * (lw - log_mu)) for lw in log_weights)

    pi_p = 2.0 * np.pi / (p * np.sin(np.pi / p))
    # both ends pinned put the root at pi_p itself
    mu = bisect_root(g, 0.0, pi_p * (1.0 + 1e-12), rtol=1e-15)
    return float((p - 1.0) * mu**p)


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
    first zero of J0 (~2.40483) for every finite sigma > 0, and above 0,
    where mu J1(mu) - sigma J0(mu) is -sigma.
    """
    if not 0 < sigma < np.inf:
        raise ConfigError("sigma must be positive and finite")

    def f(mu):
        return mu * besselj1(mu) - sigma * besselj0(mu)

    mu = bisect_root(f, 0.0, 2.4499, rtol=1e-15)
    return float(mu * mu)
