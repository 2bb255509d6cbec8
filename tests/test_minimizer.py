import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest

from robinopt import (
    ConfigError,
    ConvergenceError,
    InvariantViolationError,
    MathRefusalError,
    SolverParams,
    build_disk,
    build_interval,
    build_polygon,
    build_square,
    concentration_demo,
    hoelder_check,
    interval_robin_p,
    lambda_inf,
    refine,
    scan_point_eigen,
    track_xm,
)
from tests.conftest import LAM_POINT_INTERVAL, LAM_ROBIN_ONESIDED, run_fresh


@pytest.fixture(scope="module")
def interval_scan(interval200, p2):
    return scan_point_eigen(interval200, p2)


def test_interval_scan_values_and_ties(interval_scan, interval200):
    assert abs(interval_scan.lambda1_omega - LAM_POINT_INTERVAL) / LAM_POINT_INTERVAL < 0.01
    assert sorted(interval_scan.tie_set) == [0, interval200.n_nodes - 1]
    assert interval_scan.argmin_node == 0
    assert not interval_scan.failures


def test_interval_scan_p4_against_closed_form(interval200):
    scan = scan_point_eigen(interval200, SolverParams(p=4.0))
    ref = interval_robin_p(4.0, np.inf, 0.0)
    assert abs(scan.lambda1_omega - ref) / ref < 1e-4


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


def test_scans_run_in_the_calling_process(tmp_path):
    # minimize still accepts --workers, but no scan starts a process pool; and
    # neither the p = 3 minimize (banded Cholesky and LU) nor the p = 2 sweep
    # (linear_solve's triangular solves) imports the scipy.linalg package
    minimize = ["minimize", "--domain", "builtin:square:0.25", "--p", "3", "--m", "1",
                "--workers", "2", "--out", str(tmp_path)]
    sweep = ["sweep", "--domain", "builtin:square:0.25", "--p", "2", "--m-list", "1",
             "--out", str(tmp_path)]
    code = (f"import sys; from robinopt import cli; code = cli.main({minimize!r}); "
            "print(code, 'multiprocessing' in sys.modules, 'scipy.linalg' in sys.modules); "
            f"print(cli.main({sweep!r}), 'scipy.linalg' in sys.modules)")
    assert run_fresh(code).split() == ["0", "False", "False", "0", "False"]


def test_scan_refused_when_points_have_no_capacity(square4, p2):
    with pytest.raises(MathRefusalError) as exc:
        scan_point_eigen(square4, p2)
    assert exc.value.exact_value == 0.0


def test_lambda_inf_interval(interval200, p2, interval_scan):
    rep = lambda_inf(interval_scan, 1.0)
    assert abs(rep.lambda_inf - LAM_ROBIN_ONESIDED) / LAM_ROBIN_ONESIDED < 0.005
    assert rep.x_m_node in (0, interval200.n_nodes - 1)
    assert rep.lambda_inf <= 1.0 / interval200.volume + 1e-9


@pytest.mark.parametrize("m", [0.0, -1.0, np.nan, np.inf])
def test_lambda_inf_refuses_a_mass_that_is_not_positive_and_finite(interval_scan, m):
    with pytest.raises(ConfigError, match="positive and finite"):
        lambda_inf(interval_scan, m)


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


def test_track_xm_refuses_x_m_moving_away_over_the_top_decade(interval200, monkeypatch):
    # x_m sits on the argmin node up to m = 5 and jumps to the far end at
    # m = 10: its distance to the argmin set grows within the largest decade
    import robinopt.minimizer as mn

    far = interval200.n_nodes - 1
    scan = SimpleNamespace(mesh=interval200, tie_set=[0])

    def fake(scan, m, prune=False, previous=None):
        node = far if m >= 10.0 else 0
        return SimpleNamespace(x_m_node=node, x_m=interval200.nodes[node])

    monkeypatch.setattr(mn, "lambda_inf", fake)
    with pytest.raises(InvariantViolationError, match="increased over the largest mass decade"):
        track_xm(scan, [1.0, 5.0, 10.0])


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


def test_concentration_log_profile_matches_quadrature():
    # scipy's adaptive quadrature of the two log-profile integrals over (0, 1]
    # is the independent reference for the closed forms in E_2; j = 2 is the
    # smallest argument of E_2's continued fraction
    from scipy.integrate import quad

    def integral(f):
        return quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=200)[0]

    js = [2, 3, 5, 10, 30, 100, 10**3, 10**4, 10**5, 10**6]
    for m in (0.1, 1.0, 2.0, 100.0):
        for volume in (1.0, 3.14):
            run = concentration_demo(2.0, m, js, volume)
            for j, q in zip(js, run.q):
                lj, a = math.log(j), j * math.log(2.0)
                interior = integral(lambda s: s * (lj / (lj - math.log(s))) ** 2)
                bdry = integral(lambda t: (lj / (a - math.log(t))) ** 2)
                ref = ((math.pi / (3.0 * lj) + m * bdry)
                       / (volume - math.pi / (2.0 * j**2) + math.pi / j**2 * interior))
                assert abs(q - ref) <= 1e-12 * ref, (m, volume, j)


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


@pytest.mark.parametrize("p, m, volume", [
    (1.5, math.inf, 1.0), (1.5, math.nan, 1.0), (math.nan, 1.0, 1.0), (1.5, 1.0, math.inf),
])
def test_concentration_refuses_non_finite_input(p, m, volume):
    with pytest.raises(ConfigError):
        concentration_demo(p, m, [100], volume=volume)


@pytest.mark.parametrize("m, j_list, message", [
    (0.0, [100], "positive"), (-1.0, [100], "positive"), (1.0, [1], "j >= 2"), (1.0, [100, 1], "j >= 2"),
])
def test_concentration_refuses_a_bad_mass_or_index(m, j_list, message):
    with pytest.raises(ConfigError, match=message):
        concentration_demo(1.5, m, j_list)


# -- Hoelder continuity ----------------------------------------------------------

def test_hoelder_interval_degenerate(interval_scan):
    rep = hoelder_check(interval_scan)
    assert rep["degenerate"]


def test_hoelder_flat_map_is_at_noise_level(disk_coarse, p3):
    # on the exact disk the point-eigenvalue map is constant: no pair differs
    # above roundoff, so no slope is fitted
    scan = scan_point_eigen(disk_coarse, p3)
    scan.values = np.full(len(scan.values), float(np.mean(scan.values)))
    rep = hoelder_check(scan)
    assert not rep["degenerate"] and rep["n_pairs"] >= 3
    assert math.isnan(rep["slope"]) and rep["max_ratio"] == 0.0
    assert "noise level" in rep["note"]


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

    def fake(node):
        return SimpleNamespace(lam=low if node == last else 1.0)

    monkeypatch.setattr(mn, "solve_point", lambda mesh, node, params, start=None: fake(node))
    monkeypatch.setattr(mn, "solve_dirac", lambda mesh, node, mass, params, start=None: fake(node))
    rep = lambda_inf(scan_point_eigen(interval200, p2), 1.0)
    assert rep.x_m_node == 0
    assert rep.lambda_inf == low
    assert rep.scan.argmin_node == 0


# -- continued scans ----------------------------------------------------------

def _record_node_solves(monkeypatch):
    """Wrap the scan's node solves; the list collects (start, result) pairs."""
    import robinopt.minimizer as mn

    calls = []
    for name in ("solve_point", "solve_dirac"):
        solve = getattr(mn, name)

        def recording(*args, start=None, _solve=solve):
            res = _solve(*args, start=start)
            calls.append((start, res))
            return res

        monkeypatch.setattr(mn, name, recording)
    return calls


@pytest.mark.parametrize("domain, p", [("square", 3.0), ("square", 6.0), ("disk", 3.0)])
def test_continued_scans_agree_with_cold_solves(domain, p, monkeypatch, caplog):
    # each node after the first starts from its loop predecessor's pair; the
    # tables match node-by-node cold solves, every result passes the residual
    # test after at most two outer steps (a cold solve takes about seven), and
    # no node falls back to a cold start
    from robinopt import solve_dirac, solve_point, verify_weak_residual

    mesh = build_square(0.25) if domain == "square" else build_disk(0.1)
    params = SolverParams(p=p)
    calls = _record_node_solves(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="robinopt"):
        scan = scan_point_eigen(mesh, params)
        reports = {m: lambda_inf(scan, m) for m in (0.01, 1.0, 100.0)}
    monkeypatch.undo()
    nodes = [int(n) for n in mesh.boundary_nodes()]
    cold = np.array([solve_point(mesh, n, params).lam for n in nodes])
    assert np.max(np.abs(scan.values - cold) / cold) <= 1e-10
    for m, rep in reports.items():
        cold = np.array([solve_dirac(mesh, n, m, params).lam for n in nodes])
        assert np.max(np.abs(rep.lambda_dirac - cold) / cold) <= 1e-10, m
    assert not [r for r in caplog.records if "cold start" in r.getMessage()]
    assert len(calls) == 4 * len(nodes)
    assert sum(start is None for start, _ in calls) == 4  # one cold start per arc
    for start, res in calls:
        assert all(b <= a + 1e-13 for a, b in zip(res.rq_history, res.rq_history[1:]))
        assert verify_weak_residual(res)["ok"]
        assert start is None or res.outer_iters <= 2


def _raise_linalg(pattern, h):
    raise np.linalg.LinAlgError("banded LU failed at pivot 1")


@pytest.mark.parametrize("force", ["negated start", "failed LU", "step cap"])
def test_bad_start_falls_back_to_a_cold_solve(square4, p3, force, monkeypatch, caplog):
    import dataclasses

    import robinopt.innersolve as ins
    from robinopt import NodalField, solve_dirac

    first, second = (int(n) for n in square4.boundary_loop[:2])
    start = solve_dirac(square4, first, 1.0, p3)
    expected = {"negated start": "free node <= 0", "failed LU": "banded LU failed",
                "step cap": "eigenpair Newton stalled"}[force]
    if force == "negated start":
        # Newton converges to the negated eigenpair, which is not positive
        start = dataclasses.replace(start, u=NodalField(square4, -start.u.values))
    elif force == "failed LU":
        monkeypatch.setattr(ins._Pattern, "lu", _raise_linalg)
    else:
        monkeypatch.setattr(ins, "_MAX_BORDERED", 1)
    with caplog.at_level(logging.DEBUG, logger="robinopt"):
        res = solve_dirac(square4, second, 1.0, p3, start=start)
    events = [r.getMessage() for r in caplog.records if "cold start" in r.getMessage()]
    assert len(events) == 1 and expected in events[0]
    cold = solve_dirac(square4, second, 1.0, p3)
    assert res.lam == cold.lam and res.rq_history == cold.rq_history
    assert np.array_equal(res.u.values, cold.u.values)


def test_failed_node_is_recorded_and_the_next_starts_cold(square4, p3, monkeypatch):
    import robinopt.minimizer as mn
    from robinopt import ConvergenceError

    loop = [int(n) for n in square4.boundary_loop]
    starts, solve = {}, mn.solve_point

    def failing(mesh, node, params, start=None):
        starts[node] = start
        if node == loop[3]:
            raise ConvergenceError("forced failure")
        return solve(mesh, node, params, start=start)

    monkeypatch.setattr(mn, "solve_point", failing)
    scan = scan_point_eigen(square4, p3)
    assert scan.failures == {loop[3]: "forced failure"}
    assert np.isnan(scan.values[list(scan.nodes).index(loop[3])])
    assert [n for n in loop if starts[n] is None] == [loop[0], loop[4]]


def test_scan_in_which_every_node_solve_fails_raises(square4, p3, monkeypatch):
    import robinopt.minimizer as mn

    def failing(*args, start=None):
        raise ConvergenceError("forced failure")

    boundary = {int(n) for n in square4.boundary_nodes()}
    scan = scan_point_eigen(square4, p3)
    monkeypatch.setattr(mn, "solve_dirac", failing)
    with pytest.raises(ConvergenceError, match="every Dirac solve failed") as exc:
        lambda_inf(scan, 1.0)
    assert set(exc.value.diagnostics) == boundary
    monkeypatch.setattr(mn, "solve_point", failing)
    with pytest.raises(ConvergenceError, match="every point solve failed") as exc:
        scan_point_eigen(square4, p3)
    assert set(exc.value.diagnostics) == boundary


def test_interval_scan_is_bit_identical_to_cold_solves(interval200, p2, interval_scan):
    # each end of an interval is an arc of its own, so no node is continued
    from robinopt import solve_dirac, solve_point

    nodes = [int(n) for n in interval200.boundary_nodes()]
    assert interval_scan.values.tolist() == [solve_point(interval200, n, p2).lam for n in nodes]
    rep = lambda_inf(interval_scan, 1.0)
    assert rep.lambda_dirac.tolist() == [solve_dirac(interval200, n, 1.0, p2).lam for n in nodes]


# -- pruned scans ---------------------------------------------------------------

def _tie_set(rep):
    return [int(n) for n, v in zip(rep.nodes, rep.lambda_dirac)
            if v <= rep.lambda_inf * (1 + 1e-6)]


def _pruned_sweep(scan, masses):
    reports, rep = [], None
    for m in masses:
        rep = lambda_inf(scan, m, prune=True, previous=rep)
        reports.append(rep)
    return reports


@pytest.mark.parametrize("domain, p", [
    ("square", 3.0), ("square", 6.0), ("disk", 3.0), ("polygon", 3.0), ("interval", 3.0),
])
def test_pruned_sweep_matches_full_tables(domain, p):
    # the per-node floor inflow(m, lambda_point(x)) <= lambda_Dirac(x, m)
    # prunes no node that could tie with the minimum; on the symmetric disk
    # it prunes almost nothing, on the others most nodes
    mesh = {"square": lambda: build_square(0.25), "disk": lambda: build_disk(0.1),
            "polygon": lambda: build_polygon([(0, 0), (1, 0), (1, 1), (0, 1)], 0.25),
            "interval": lambda: build_interval(200)}[domain]()
    scan = scan_point_eigen(mesh, SolverParams(p=p))
    masses = (0.01, 1.0, 100.0)
    solved = 0
    for m, rep in zip(masses, _pruned_sweep(scan, masses)):
        full = lambda_inf(scan, m)
        assert abs(rep.lambda_inf - full.lambda_inf) <= 1e-9 * full.lambda_inf, m
        assert rep.x_m_node == full.x_m_node and _tie_set(rep) == _tie_set(full), m
        assert rep.nodes.tolist() == sorted(rep.results) and not rep.failures
        # a pruned report lists its solved nodes, in ascending order, and no other
        assert set(rep.nodes.tolist()) <= set(full.nodes.tolist())
        idx = np.searchsorted(full.nodes, rep.nodes)
        assert np.allclose(rep.lambda_dirac, full.lambda_dirac[idx], rtol=1e-9, atol=0)
        solved += len(rep.nodes)
    total = len(masses) * len(scan.nodes)
    if domain == "disk":
        assert solved >= 0.9 * total
    elif domain != "interval":
        assert solved <= total / 2


def test_pruned_sweep_solves_a_node_whose_point_solve_failed(square4, p3):
    # a nan point eigenvalue gives no floor, so that node is always solved
    import dataclasses

    scan = scan_point_eigen(square4, p3)
    masses = (0.01, 1.0, 100.0)
    top = int(scan.nodes[np.argmax(scan.values)])
    assert all(top not in rep.results for rep in _pruned_sweep(scan, masses))
    values = scan.values.copy()
    values[np.argmax(scan.values)] = np.nan
    failed = dataclasses.replace(scan, values=values, failures={top: "forced failure"})
    for m, rep in zip(masses, _pruned_sweep(failed, masses)):
        full = lambda_inf(scan, m)
        assert top in rep.nodes.tolist()
        k, kf = rep.nodes.tolist().index(top), full.nodes.tolist().index(top)
        assert abs(rep.lambda_dirac[k] - full.lambda_dirac[kf]) <= 1e-9 * full.lambda_dirac[kf]
        assert rep.x_m_node == full.x_m_node and _tie_set(rep) == _tie_set(full)


def test_check_all_headline_sweep_prunes_its_node_solves(square4, p3, monkeypatch):
    # 16 point solves, then at most 44 Dirac solves over the 9 masses (a
    # full table takes 16 per mass); each row's lambda is the full table's
    from robinopt import check_all

    masses = np.geomspace(0.01, 100, 9)
    calls = _record_node_solves(monkeypatch)
    rep = check_all(square4, masses, p3)
    monkeypatch.undo()
    assert rep.all_pass
    assert len(calls) <= 60
    scan = scan_point_eigen(square4, p3)
    for row in rep.rows:
        full = lambda_inf(scan, row.m).lambda_inf
        assert abs(row.lam - full) <= 1e-9 * full, row.m
