import numpy as np
import pytest
import scipy.special

from robinopt import (
    ConfigError,
    brute_force_1d,
    disk_robin_p2_const,
    interval_dirichlet_p,
    interval_robin_p2,
)
from robinopt.oracle import besselj0, besselj1
from tests.conftest import (
    LAM_DISK_DIRICHLET,
    LAM_DISK_SIGMA1,
    LAM_ROBIN_ONESIDED,
    LAM_ROBIN_SYM,
)


def test_symmetric_robin_root():
    lam = interval_robin_p2(1.0, 1.0)
    assert lam == pytest.approx(LAM_ROBIN_SYM, abs=1e-10)
    mu = np.sqrt(lam)
    assert abs(mu * np.tan(mu / 2) - 1.0) < 1e-12


def test_one_sided_robin_root():
    lam = interval_robin_p2(1.0, 0.0)
    assert lam == pytest.approx(LAM_ROBIN_ONESIDED, abs=1e-10)
    mu = np.sqrt(lam)
    assert abs(mu * np.tan(mu) - 1.0) < 1e-12


def test_large_weight_approaches_pinned_limit():
    lam = interval_robin_p2(1e6, 1e6)
    assert abs(lam - np.pi**2) < 1e-4 * np.pi**2


def test_rejects_zero_weights():
    with pytest.raises(ConfigError):
        interval_robin_p2(0.0, 0.0)


@pytest.mark.parametrize("weights", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)])
def test_interval_robin_refuses_non_finite_weights(weights):
    with pytest.raises(ConfigError):
        interval_robin_p2(*weights)


@pytest.mark.parametrize("sigma", [np.nan, np.inf])
def test_disk_robin_refuses_non_finite_weight(sigma):
    with pytest.raises(ConfigError):
        disk_robin_p2_const(sigma)


@pytest.mark.parametrize("args", [(3.0, np.nan, 1.0), (3.0, 1.0, np.inf), (np.nan, 1.0, 1.0)])
def test_brute_force_refuses_non_finite_input(args):
    with pytest.raises(ConfigError):
        brute_force_1d(*args, n_grid=100)
    # an integer type of numpy is an integer grid size
    assert brute_force_1d(3.0, 1.0, 1.0, n_grid=np.int64(100)) > 0


@pytest.mark.parametrize("p", [0.5, 1.0, 1.09, 10.5, np.inf])
def test_brute_force_refuses_p_outside_the_supported_range(p):
    # the range SolverParams and interval_dirichlet_p accept
    with pytest.raises(ConfigError, match=r"\[1\.1, 10\]"):
        brute_force_1d(p, 1.0, 1.0, n_grid=64)
    with pytest.raises(ConfigError, match=r"\[1\.1, 10\]"):
        interval_dirichlet_p(p)


@pytest.mark.parametrize("weights", [(-1.0, 2.0), (2.0, -1e-3)])
def test_brute_force_refuses_a_negative_weight(weights):
    with pytest.raises(ConfigError):
        brute_force_1d(3.0, *weights, n_grid=200)


@pytest.mark.parametrize("kwargs, message", [
    ({"mode": "point"}, "pin_x"), ({"mode": "point", "pin_x": 0.5}, "pin_x"),
    ({"mode": "robin", "sigma_left": 0.0, "sigma_right": 0.0}, "positive total weight"),
    ({"mode": "neumann"}, "unknown mode"),
])
def test_brute_force_refuses_a_bad_mode(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        brute_force_1d(3.0, n_grid=64, **kwargs)


def test_dirichlet_closed_form():
    assert interval_dirichlet_p(2.0) == pytest.approx(np.pi**2, rel=1e-14)
    assert interval_dirichlet_p(3.0) == pytest.approx(28.28876197600255, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_dirichlet_closed_form_vs_brute_force(p):
    bf = brute_force_1d(p, mode="dirichlet", n_grid=10_000)
    assert abs(bf - interval_dirichlet_p(p)) / interval_dirichlet_p(p) < 0.01


def test_disk_robin_value_and_sign_change():
    lam = disk_robin_p2_const(1.0)
    assert lam == pytest.approx(LAM_DISK_SIGMA1, abs=1e-9)
    mu = np.sqrt(lam)
    assert abs(mu * besselj1(mu) - besselj0(mu)) < 1e-12
    f = lambda mu: besselj0(mu) - mu * besselj1(mu)
    assert f(1.2) > 0 > f(1.3)


def test_disk_pinned_limit():
    lam = disk_robin_p2_const(1e6)
    assert abs(lam - LAM_DISK_DIRICHLET) < 1e-4 * LAM_DISK_DIRICHLET


def test_disk_small_weight_slope():
    # lambda / sigma tends to |boundary| / |volume| = 2 for the unit disk
    for s in (1e-3, 1e-4):
        assert abs(disk_robin_p2_const(s) / s - 2.0) < 5e-3


def test_bessel_series_against_scipy():
    xs = np.linspace(0.0, 19.9, 41)
    for x in xs:
        assert abs(besselj0(x) - scipy.special.j0(x)) < 1e-9
        assert abs(besselj1(x) - scipy.special.j1(x)) < 1e-9


def test_brute_force_robin_agreement():
    bf = brute_force_1d(2.0, 1.0, 1.0, n_grid=10_000)
    assert abs(bf - LAM_ROBIN_SYM) < 1e-4


def test_brute_force_dirac_mode():
    bf = brute_force_1d(2.0, 1.0, 0.0, n_grid=10_000, mode="dirac")
    assert abs(bf - LAM_ROBIN_ONESIDED) < 1e-4


def test_brute_force_point_pin():
    bf = brute_force_1d(2.0, mode="point", pin_x=0.0, n_grid=10_000)
    assert abs(bf - (np.pi / 2) ** 2) < 1e-4
    # p = 4 value is the reference for the scan acceptance; it must reproduce
    bf4a = brute_force_1d(4.0, mode="point", pin_x=0.0, n_grid=5_000)
    bf4b = brute_force_1d(4.0, mode="point", pin_x=1.0, n_grid=5_000)
    assert abs(bf4a - bf4b) / bf4a < 1e-6


def test_fem_convergence_against_oracle():
    # eigenvalue error drops by ~4x per mesh doubling (second order)
    from robinopt import BoundaryWeight, SolverParams, build_interval, solve_robin

    params = SolverParams(p=2.0)
    errs = {}
    for n in (200, 800):
        mesh = build_interval(n)
        w = BoundaryWeight.from_facet_density(mesh, np.ones(2))
        lam = solve_robin(mesh, w, params).lam
        errs[n] = abs(lam - LAM_ROBIN_SYM) / LAM_ROBIN_SYM
    assert errs[200] < 0.01
    assert errs[800] < 0.0025
    order = np.log(errs[200] / errs[800]) / np.log(4.0)
    assert order > 1.7


def test_symmetric_robin_root_equals_mass_inversion():
    # mu tan(mu/2) = m/2 is simultaneously the symmetric-weight eigenvalue
    # equation and the mass-inversion equation of the maximizer
    from robinopt import FSolver, SolverParams, build_interval

    mesh = build_interval(200)
    params = SolverParams(p=2.0)
    for m in (0.5, 1.0, 2.0, 8.0):
        oracle = interval_robin_p2(m / 2.0, m / 2.0)
        xi = FSolver(mesh, params).invert(m).xi
        assert abs(xi - oracle) / oracle < 0.005
