import numpy as np
import pytest

from robinopt import (
    BoundaryWeight,
    ConfigError,
    SolverParams,
    belsup,
    build_polygon,
    check_all,
    inflow,
    inradius_bound,
    solve_robin,
)


def test_belsup_spot_values():
    v = belsup(2.0, np.pi**2, 1.0, 2.0)
    assert v == pytest.approx(2 * np.pi**2 / (np.pi**2 + 2), rel=1e-14)
    assert v == pytest.approx(1.6630, abs=5e-5)


def test_belsup_vanishes_with_mass():
    assert belsup(1e-9, np.pi**2, 1.0, 2.0) < 1e-8


def test_belsup_large_mass_approaches_ceiling():
    v = belsup(1e4, np.pi**2, 1.0, 2.0)
    assert v == pytest.approx(1e4 * np.pi**2 / (np.pi**2 + 1e4), rel=1e-14)
    assert abs(v - np.pi**2) / np.pi**2 < 0.06


def test_belsup_below_both_upper_bounds():
    lam, vol, p = np.pi**2, 1.0, 2.0
    for m in np.geomspace(1e-3, 1e4, 30):
        assert belsup(m, lam, vol, p) < min(lam, m / vol)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_lower_bounds_nondecreasing_in_mass(p):
    grid = np.geomspace(1e-3, 1e4, 30)
    b = [belsup(m, 7.0, 2.0, p) for m in grid]
    assert all(y >= x for x, y in zip(b, b[1:]))
    f = [inflow(m, 3.0, 2.0, p) for m in grid]
    assert all(y >= x for x, y in zip(f, f[1:]))


def test_inflow_spot_value():
    lam1 = (np.pi / 2) ** 2
    assert inflow(1.0, lam1, 1.0, 2.0) == pytest.approx(lam1 / (lam1 + 1), rel=1e-14)


def test_inflow_large_mass_limit():
    lam1 = (np.pi / 2) ** 2
    assert abs(inflow(1e6, lam1, 1.0, 2.0) - lam1) / lam1 < 0.005


def test_inradius_bound_interval():
    assert inradius_bound(1.0, 0.5, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert inradius_bound(0.0, 0.5, 2.0) == 0.0


def test_inradius_bound_below_constant_weight_eigenvalue(square4):
    sigma = 2.0
    for mesh in (square4, build_polygon([(0, 0), (4, 0), (0, 3)], 1.0)):
        bound = inradius_bound(sigma, mesh.inradius, 3.0)
        w = BoundaryWeight.constant(mesh, sigma * mesh.boundary_measure)
        lam = solve_robin(mesh, w, SolverParams(p=3.0)).lam
        assert bound <= lam + 1e-9


@pytest.mark.parametrize("args", [
    (np.nan, 9.8, 1.0, 2.0), (np.inf, 9.8, 1.0, 2.0), (1.0, np.nan, 1.0, 2.0),
    (1.0, 9.8, np.inf, 2.0), (1.0, 9.8, 1.0, np.nan), (1.0, 9.8, 1.0, np.inf),
])
def test_belsup_refuses_non_finite_input(args):
    with pytest.raises(ConfigError):
        belsup(*args)


@pytest.mark.parametrize("args", [
    (1.0, np.nan, 1.0, 3.0), (np.nan, 9.8, 1.0, 3.0), (1.0, np.inf, 1.0, 3.0),
    (1.0, 9.8, np.nan, 3.0), (1.0, 9.8, 1.0, np.inf),
])
def test_inflow_refuses_non_finite_input(args):
    with pytest.raises(ConfigError):
        inflow(*args)


@pytest.mark.parametrize("args", [
    (np.nan, 0.5, 2.0), (np.inf, 0.5, 2.0), (1.0, np.nan, 2.0), (1.0, np.inf, 2.0),
    (1.0, 0.5, np.nan), (1.0, 0.5, np.inf),
])
def test_inradius_bound_refuses_non_finite_input(args):
    with pytest.raises(ConfigError):
        inradius_bound(*args)


def test_inradius_bound_needs_convexity():
    L = build_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], 0.5)
    with pytest.raises(ConfigError):
        inradius_bound(1.0, L.inradius, 2.0)


def test_check_all_interval(interval200):
    rep = check_all(interval200, [0.1, 1.0, 10.0], SolverParams(p=2.0))
    assert rep.all_pass
    assert rep.lambda1_omega is not None
    for row in rep.rows:
        assert row.belsup <= row.Lambda * (1 + 1e-3)
        assert row.Lambda <= row.upper * (1 + 1e-3)
        assert row.inflow <= row.lam * (1 + 1e-3)
        assert row.lam <= row.upper2 * (1 + 1e-3)


def test_check_all_square_p6_passes_with_default_settings(square4):
    # its Dirichlet ceiling, near 1.4e3, once stalled on roundoff in the quotient
    rep = check_all(square4, np.geomspace(0.01, 100, 9), SolverParams(p=6.0))
    assert rep.all_pass


def test_check_all_square_p2_skips_infimum(square4):
    rep = check_all(square4, [1.0], SolverParams(p=2.0))
    assert rep.all_pass
    assert rep.note is not None
    assert rep.rows[0].lam is None


def test_check_all_csv_layout(tmp_path):
    # the table is the CLI's: check_all's rows rendered by `bounds --out`
    from robinopt.cli import main

    argv = ["bounds", "--domain", "builtin:interval:200", "--p", "2", "--m-list", "1"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "bounds.csv").read_text().splitlines()
    assert lines[0] == "m,belsup,Lambda,upper,inflow,lambda,upper2,pass"
    assert lines[1].endswith(",1")


def test_lower_bound_gap_shrinks_for_large_mass(interval200):
    from robinopt import sigma_max
    from robinopt.maximizer import FSolver

    params = SolverParams(p=2.0)
    cache = FSolver(interval200, params)
    lam_d = cache.lam_dirichlet
    gaps = []
    for m in (10.0, 100.0, 1000.0):
        rep = sigma_max(cache, m)
        bel = belsup(m, lam_d, interval200.volume, 2.0)
        assert bel <= rep.Lambda * (1 + 1e-3)
        gaps.append((rep.Lambda - bel) / rep.Lambda)
    assert gaps[0] > gaps[1] > gaps[2]


def test_check_all_row_over_a_failed_dirac_node_does_not_pass(square4, monkeypatch):
    # the Dirac solve at the point-eigenvalue argmin fails: lambda is then the
    # minimum of a partial table, and its row must not read ok
    import robinopt.minimizer as mn
    from robinopt import ConvergenceError

    params = SolverParams(p=3.0)
    good = check_all(square4, [1.0, 10.0], params)
    assert good.all_pass
    assert [row.failures for row in good.rows] == [0, 0]
    node = mn.scan_point_eigen(square4, params).argmin_node
    solve = mn.solve_dirac

    def failing(mesh, n, mass, params, start=None):
        if n == node:
            raise ConvergenceError("forced failure")
        return solve(mesh, n, mass, params, start=start)

    monkeypatch.setattr(mn, "solve_dirac", failing)
    rep = check_all(square4, [1.0, 10.0], params)
    assert not rep.all_pass
    assert [row.ok for row in rep.rows] == [False, False]
    # the row says why: the failed Dirac solve at the argmin node
    assert all(row.failures >= 1 for row in rep.rows)
    for row, ref in zip(rep.rows, good.rows):
        assert row.Lambda == ref.Lambda
        assert row.inflow <= row.lam * (1 + 1e-3) and row.lam <= row.upper2 * (1 + 1e-3)
