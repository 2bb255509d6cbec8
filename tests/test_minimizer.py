import math

import numpy as np
import pytest

from robinopt import (
    ConfigError,
    MathRefusalError,
    SolverParams,
    brute_force_1d,
    build_disk,
    build_square,
    concentration_demo,
    hoelder_check,
    lambda_inf,
    refine,
    scan_point_eigen,
    track_xm,
)
from tests.conftest import LAM_POINT_INTERVAL, LAM_ROBIN_ONESIDED


@pytest.fixture(scope="module")
def interval_scan(interval200, p2):
    return scan_point_eigen(interval200, p2)


def test_interval_scan_values_and_ties(interval_scan, interval200):
    assert abs(interval_scan.lambda1_omega - LAM_POINT_INTERVAL) / LAM_POINT_INTERVAL < 0.01
    assert sorted(interval_scan.tie_set) == [0, interval200.n_nodes - 1]
    assert interval_scan.argmin_node == 0
    assert not interval_scan.failures


def test_interval_scan_p4_against_brute_force(interval200):
    scan = scan_point_eigen(interval200, SolverParams(p=4.0))
    ref = brute_force_1d(4.0, mode="point", pin_x=0.0, n_grid=2000)
    assert abs(scan.lambda1_omega - ref) / ref < 0.01


def loop_ordered_values(mesh, scan):
    idx = {int(n): k for k, n in enumerate(scan.nodes)}
    return np.array([scan.values[idx[int(n)]] for n in mesh.boundary_loop])


def test_disk_scan_symmetry_orbits(p3):
    # the structured mesh is exactly 6-fold symmetric, so the scan values
    # repeat around the boundary at solver precision; the residual spread
    # across node classes is a point-capacity discretization effect that
    # shrinks under refinement
    spreads = []
    for h in (0.25, 0.1):
        d = build_disk(h)
        vals = loop_ordered_values(d, scan_point_eigen(d, p3))
        orbit = vals.reshape(6, len(vals) // 6)
        assert np.max(np.abs(orbit - orbit.mean(axis=0))) / vals.mean() < 1e-9
        spreads.append((vals.max() - vals.min()) / vals.mean())
    assert spreads[1] < spreads[0]
    assert spreads[1] < 0.05


def test_pooled_scan_equals_serial_scan(p3):
    # the jobs are independent, so the chunked pool changes nothing
    square = build_square(0.25)
    serial = scan_point_eigen(square, p3, workers=1)
    pooled = scan_point_eigen(square, p3, workers=2)
    assert np.array_equal(pooled.nodes, serial.nodes)
    assert np.array_equal(pooled.values, serial.values)
    assert pooled.tie_set == serial.tie_set and pooled.failures == serial.failures


def test_scan_refused_when_points_have_no_capacity(square4, p2):
    with pytest.raises(MathRefusalError) as exc:
        scan_point_eigen(square4, p2)
    assert exc.value.exact_value == 0.0


def test_lambda_inf_interval(interval200, p2, interval_scan):
    rep = lambda_inf(interval_scan, 1.0)
    assert abs(rep.lambda_inf - LAM_ROBIN_ONESIDED) / LAM_ROBIN_ONESIDED < 0.005
    assert rep.x_m_node in (0, interval200.n_nodes - 1)
    assert rep.lambda_inf <= 1.0 / interval200.volume + 1e-9


def test_lambda_inf_monotone_in_mass(interval200, p2, interval_scan):
    vals = [lambda_inf(interval_scan, m).lambda_inf for m in (1.0, 2.0, 4.0)]
    assert vals[0] < vals[1] < vals[2]


def test_dirac_dominated_by_point_and_trivial_bounds(interval200, p2, interval_scan):
    rep = lambda_inf(interval_scan, 2.0)
    for lam_d, lam_pt in zip(rep.lambda_dirac, rep.scan.values):
        assert lam_d <= lam_pt + 1e-9
        assert lam_d <= 2.0 / interval200.volume + 1e-9
    assert rep.lambda_inf <= min(rep.scan.lambda1_omega, 2.0 / interval200.volume) + 1e-9


def test_track_xm_interval(interval200, interval_scan):
    tr = track_xm(interval_scan, [1.0, 10.0, 100.0])
    assert all(n in (0, interval200.n_nodes - 1) for n in tr.x_m_nodes)
    assert tr.distances == [0.0, 0.0, 0.0]


def test_track_xm_disk_symmetric(p3):
    tr = track_xm(scan_point_eigen(build_disk(0.25), p3), [1.0, 10.0])
    assert max(tr.distances) <= 1e-9  # every boundary point is a minimizer


def test_track_xm_square(square4, p3):
    tr = track_xm(scan_point_eigen(square4, p3), [1.0, 10.0, 100.0])
    top = [d for m, d in zip(tr.m_list, tr.distances) if m >= 10.0]
    assert all(b <= a + 1e-9 for a, b in zip(top, top[1:]))


def test_track_xm_requires_increasing_masses(interval_scan):
    with pytest.raises(ConfigError):
        track_xm(interval_scan, [1.0, 1.0])


# -- concentration ------------------------------------------------------------

def ramp_quotient_closed_form(p, m, j, volume):
    num = math.pi * j ** (p - 2.0) / 2.0
    amp = math.exp(p * (math.log(j) - j * math.log(2.0))) if j < 500 else 0.0
    num += m * amp / (p + 1.0)
    den = volume - math.pi / (2 * j**2) + math.pi / (j**2 * (p + 2.0))
    return num / den


def test_concentration_ramp_matches_closed_form():
    run = concentration_demo(1.5, 1.0, [100, 1000, 10000])
    for j, q in zip(run.j_list, run.q):
        exact = ramp_quotient_closed_form(1.5, 1.0, j, 1.0)
        assert abs(q - exact) / exact < 1e-10


def test_concentration_log_gradient_term():
    # the substitution t = log(1/r) collapses the gradient integral
    run = concentration_demo(2.0, 1.0, [10000])
    grad_exact = math.pi / (3.0 * math.log(10000))
    assert run.q[0] > grad_exact  # quotient adds the boundary term
    assert run.q[0] < 0.2
    assert abs(run.q[0] * 1.0 - grad_exact) / grad_exact < 0.05


def test_concentration_bounds_and_monotonicity():
    for p in (1.5, 2.0):
        run = concentration_demo(p, 1.0, [100, 1000, 10000, 1000000])
        assert all(q <= b + 1e-9 for q, b in zip(run.q, run.bound))
        assert all(b <= a for a, b in zip(run.q, run.q[1:]))
        assert run.monotone_tail
    assert concentration_demo(1.5, 1.0, [1000000]).q[0] < 0.05
    assert concentration_demo(2.0, 1.0, [1000000]).q[0] < 0.12


def test_concentration_alpha_is_exact():
    # alpha = m 2^(j-1) is a power of two times m, with no roundoff
    assert concentration_demo(1.5, 1.0, [10]).alpha == [512.0]
    assert concentration_demo(1.5, 3.0, [2, 60]).alpha == [6.0, 3.0 * 2.0**59]


def test_concentration_alpha_overflow_reported_as_inf():
    run = concentration_demo(1.5, 1.0, [100, 1000000])
    assert np.isfinite(run.alpha[0])
    assert run.alpha[1] == math.inf


def test_concentration_refuses_large_p():
    with pytest.raises(MathRefusalError):
        concentration_demo(3.0, 1.0, [100])


# -- Hoelder continuity ----------------------------------------------------------

def test_hoelder_interval_degenerate(interval_scan):
    rep = hoelder_check(interval_scan)
    assert rep["degenerate"]


def test_hoelder_square_slope(square8):
    rep = hoelder_check(scan_point_eigen(square8, SolverParams(p=4.0)))
    assert not rep["degenerate"]
    assert rep["slope"] >= (1.0 - 2.0 / 4.0) - 0.3


def test_hoelder_disk_ratio_stable_under_refinement(p3):
    coarse = build_disk(0.25)
    fine = refine(coarse)
    r1 = hoelder_check(scan_point_eigen(coarse, p3))
    r2 = hoelder_check(scan_point_eigen(fine, p3))
    assert np.isfinite(r1["max_ratio"]) and np.isfinite(r2["max_ratio"])
    assert r2["max_ratio"] <= 2.0 * max(r1["max_ratio"], 1e-12) or r2["max_ratio"] < 1.0


def test_dirac_monotone_in_mass_at_fixed_node(interval200, p2):
    from robinopt import solve_dirac

    vals = [solve_dirac(interval200, 0, m, p2).lam for m in (1.0, 2.0, 4.0)]
    assert vals[0] < vals[1] < vals[2]


def test_x_m_node_ignores_roundoff_below_the_minimum(interval200, p2, monkeypatch):
    # every node reads 1.0 except the last, one ulp lower: a roundoff tie,
    # so x_m is the lowest tied node while lambda_inf is the true minimum
    import robinopt.minimizer as mn

    last = interval200.n_nodes - 1
    low = np.nextafter(1.0, 0.0)
    monkeypatch.setattr(mn, "_node_job", lambda job: (low if job[1] == last else 1.0, None))
    rep = lambda_inf(scan_point_eigen(interval200, p2), 1.0)
    assert rep.x_m_node == 0
    assert rep.lambda_inf == low
    assert rep.to_dict()["lambda1_argmin"] == 0
