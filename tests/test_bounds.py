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


def test_inflow_trivial_when_p_small():
    assert inflow(1.0, None, 1.0, 2.0) == 0.0
    assert inflow(1.0, 3.0, 1.0, 2.0, dim=2) == 0.0


def test_inflow_large_mass_limit():
    lam1 = (np.pi / 2) ** 2
    assert abs(inflow(1e6, lam1, 1.0, 2.0) - lam1) / lam1 < 0.005


def test_inradius_bound_interval():
    assert inradius_bound(1.0, 0.5, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert inradius_bound(0.0, 0.5, 2.0) == 0.0


def test_inradius_bound_below_constant_weight_eigenvalue(square4):
    sigma = 2.0
    bound = inradius_bound(sigma, square4.inradius, 3.0)
    w = BoundaryWeight.constant(square4, sigma * square4.boundary_measure)
    lam = solve_robin(square4, w, SolverParams(p=3.0)).lam
    assert bound <= lam + 1e-9


def test_inradius_bound_needs_convexity():
    L = build_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], 0.5)
    with pytest.raises(ConfigError):
        inradius_bound(1.0, L.inradius, 2.0)


def test_check_all_interval(interval200):
    rep = check_all(interval200, 2.0, [0.1, 1.0, 10.0])
    assert rep.all_pass
    assert rep.lambda1_omega is not None
    for row in rep.rows:
        assert row.belsup <= row.Lambda * (1 + 1e-3)
        assert row.Lambda <= row.upper * (1 + 1e-3)
        assert row.inflow <= row.lam * (1 + 1e-3)
        assert row.lam <= row.upper2 * (1 + 1e-3)


def test_check_all_square_p2_skips_infimum(square4):
    rep = check_all(square4, 2.0, [1.0])
    assert rep.all_pass
    assert rep.note is not None
    assert rep.rows[0].lam is None


def test_check_all_csv_layout(interval200):
    rep = check_all(interval200, 2.0, [1.0])
    lines = rep.csv_lines()
    assert lines[0] == "m,belsup,Lambda,upper,inflow,lambda,upper2,pass"
    assert lines[1].endswith(",1")


def test_lower_bound_gap_shrinks_for_large_mass(interval200):
    from robinopt import SolverParams, dirichlet_ceiling, sigma_max
    from robinopt.maximizer import FSolver

    params = SolverParams(p=2.0)
    lam_d = dirichlet_ceiling(interval200, params)
    cache = FSolver(interval200, params, lam_d)
    gaps = []
    for m in (10.0, 100.0, 1000.0):
        rep = sigma_max(interval200, m, params, solver=cache)
        bel = belsup(m, lam_d, interval200.volume, 2.0)
        assert bel <= rep.Lambda * (1 + 1e-3)
        gaps.append((rep.Lambda - bel) / rep.Lambda)
    assert gaps[0] > gaps[1] > gaps[2]
