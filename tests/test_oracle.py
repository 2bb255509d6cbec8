import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.special

import robinopt.oracle
from robinopt import (
    ConfigError,
    FSolver,
    SolverParams,
    build_interval,
    disk_robin_p2_const,
    interval_dirichlet_p,
    interval_robin_p,
    interval_robin_p2,
    lambda_inf,
    scan_point_eigen,
    sigma_max,
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


@pytest.mark.parametrize("args", [(3.0, np.nan, 1.0), (3.0, 1.0, np.nan), (np.nan, 1.0, 1.0)])
def test_interval_robin_p_refuses_nan_input(args):
    with pytest.raises(ConfigError):
        interval_robin_p(*args)
    # numpy scalars are numbers like any other
    assert interval_robin_p(np.float64(3.0), np.int64(1), 1.0) > 0


@pytest.mark.parametrize("p", [0.5, 1.0, 1.09, 10.5, np.inf])
def test_interval_robin_p_refuses_p_outside_the_supported_range(p):
    # the range SolverParams and interval_dirichlet_p accept
    with pytest.raises(ConfigError, match=r"\[1\.1, 10\]"):
        interval_robin_p(p, 1.0, 1.0)
    with pytest.raises(ConfigError, match=r"\[1\.1, 10\]"):
        interval_dirichlet_p(p)


@pytest.mark.parametrize("weights", [(-1.0, 2.0), (2.0, -1e-3), (-np.inf, np.inf), (0.0, 0.0)])
def test_interval_robin_p_refuses_a_negative_weight_or_a_zero_sum(weights):
    with pytest.raises(ConfigError):
        interval_robin_p(3.0, *weights)


def test_dirichlet_closed_form():
    assert interval_dirichlet_p(2.0) == pytest.approx(np.pi**2, rel=1e-14)
    assert interval_dirichlet_p(3.0) == pytest.approx(28.28876197600255, rel=1e-12)


_P_RANGE = [1.1, 1.25, 1.5, 2.0, 3.0, 6.0, 10.0]


@pytest.mark.parametrize("p", _P_RANGE)
def test_pinned_ends_match_the_dirichlet_closed_form(p):
    exact = interval_dirichlet_p(p)
    assert abs(interval_robin_p(p, np.inf, np.inf) - exact) <= 1e-13 * exact


@pytest.mark.parametrize("p", _P_RANGE)
def test_one_pinned_end_matches_the_point_closed_form(p):
    # a pinned end and a free one: a quarter of the Dirichlet wave, (p-1)(pi_p/2)^p
    pi_p = 2.0 * np.pi / (p * np.sin(np.pi / p))
    exact = (p - 1.0) * (pi_p / 2.0) ** p
    assert abs(interval_robin_p(p, np.inf, 0.0) - exact) <= 1e-13 * exact
    assert interval_robin_p(p, 0.0, np.inf) == interval_robin_p(p, np.inf, 0.0)


@pytest.mark.parametrize("weights", [(1.0, 1.0), (1.0, 0.0), (0.3, 5.0), (1e-3, 1e3), (50.0, 50.0)])
def test_p2_matches_the_transcendental_root(weights):
    exact = interval_robin_p2(*weights)
    assert abs(interval_robin_p(2.0, *weights) - exact) <= 1e-13 * exact


def test_interval_robin_p_is_symmetric_monotone_and_below_the_mass():
    grid = [0.0, 1e-6, 0.1, 0.5, 1.0, 3.0, 20.0]
    for p in (1.5, 3.0, 10.0):
        table = np.array([[interval_robin_p(p, a, b) if a + b > 0 else 0.0 for b in grid] for a in grid])
        assert np.all(np.abs(table - table.T) <= 1e-14 * table)
        # increasing in each weight; at most the constant test function's
        # bound (sigma_left + sigma_right) / |(0, 1)|
        assert np.all(np.diff(table, axis=0) > 0) and np.all(np.diff(table, axis=1) > 0)
        assert np.all(table <= np.add.outer(grid, grid))
        # as the weights grow, toward the pinned value from below; slowly at
        # large p (a gap of 0.59 relative at p = 10 and sigma = 1e12)
        ladder = [interval_robin_p(p, s, s) for s in (1.0, 1e3, 1e6, 1e12)]
        assert ladder == sorted(ladder) and ladder[-1] <= interval_robin_p(p, np.inf, np.inf)


def test_small_roots_keep_their_relative_accuracy():
    # lambda = 2s(1 - s/6) + O(s^3) at sigma = (s, s) and p = 2; a bisection
    # that stopped at an absolute bracket width lost it below 1
    for s in (1e-22, 1e-10):
        expansion = 2.0 * s * (1.0 - s / 6.0)
        assert abs(interval_robin_p2(s, s) - expansion) <= 1e-15 * expansion
        assert abs(interval_robin_p(2.0, s, s) - expansion) <= 1e-13 * expansion
    # near p = 1.1 the weight enters as sigma^(1/(p-1)): 1e-40 gives 1e-400
    assert abs(interval_robin_p(1.1, 1e-40, 1e-40) - 2e-40) <= 1e-13 * 2e-40


def test_oracle_imports_nothing_of_the_solver_or_scipy():
    tree = ast.parse(Path(robinopt.oracle.__file__).read_text())
    imported = {node.module if isinstance(node, ast.ImportFrom) else alias.name
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert imported == {"__future__", "functools", "numpy", "errors"}


@pytest.mark.parametrize("p, rich_rtol", [(1.5, 1e-8), (3.0, 3e-7)])
def test_interval_ladder_against_the_closed_form(p, rich_rtol):
    # sigma_max, lambda_inf and the point scan on intervals 100, 200 and 400
    # converge at second order to Lambda(m) = lambda_p(m/2, m/2),
    # lambda(m) = lambda_p(m, 0) and lambda_p(inf, 0); the Richardson
    # extrapolation (4 e_400 - e_200)/3 lands within rich_rtol
    params = SolverParams(p=p)
    exact = [interval_robin_p(p, np.inf, 0.0)]
    for m in (0.5, 4.0):
        exact += [interval_robin_p(p, m / 2.0, m / 2.0), interval_robin_p(p, m, 0.0)]
    errors = []
    for n in (100, 200, 400):
        mesh = build_interval(n)
        scan = scan_point_eigen(mesh, params)
        solver = FSolver(mesh, params)
        values = [scan.lambda1_omega]
        for m in (0.5, 4.0):
            values += [sigma_max(solver, m).Lambda, lambda_inf(scan, m).lambda_inf]
        errors.append(np.subtract(values, exact))
    e100, e200, e400 = errors
    for ratios in (e100 / e200, e200 / e400):
        assert np.all((np.log2(ratios) >= 1.9) & (np.log2(ratios) <= 2.1)), ratios
    assert np.all(np.abs(4.0 * e400 - e200) / 3.0 <= rich_rtol * np.array(exact))


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
